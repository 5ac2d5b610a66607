import random
from fractions import Fraction
from itertools import permutations
from math import isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_intlinalg as ref
from reference_lattice import (kernel_basis, snf_invariants_2rows,
                               solve_2unknowns)
from tauseq.intlinalg import det_exact, pair_minors
from tauseq.lattice import SublatticeBasis, TorsionError, quotient_map


def leibniz_det(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def fraction_det(m):
    """Determinant by Gaussian elimination over the rationals, which shares
    no code with the fraction-free elimination."""
    m = [[Fraction(x) for x in row] for row in m]
    n, det = len(m), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):  # later steps read only columns > k
            if f := m[i][k] / m[k][k]:
                m[i][k + 1:] = [a - f * b
                                for a, b in zip(m[i][k + 1:], m[k][k + 1:])]
    return det


def test_det_against_leibniz():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert det_exact(m) == leibniz_det(m)


@st.composite
def bordered_matrices(draw):
    """An r x (r - 2 + e) matrix, r = 2..14 and e = 2..6, whose entries
    are mostly 0, 1, -1 and other small values, or values up to 50, or
    such small values mixed with values up to 10^30.  Half the time one
    common column is a multiple of another (or zero, or a repeat), so the
    common block is rank deficient; sometimes the first pivot is 0 and a
    later row holds that column's nonzero entry, so the elimination swaps."""
    r, e = draw(st.integers(2, 14)), draw(st.integers(2, 6))
    small = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])
    entry = draw(st.sampled_from([
        small, st.integers(-50, 50),
        st.one_of(small, st.integers(-10 ** 30, 10 ** 30))]))
    cols = [draw(st.lists(entry, min_size=r, max_size=r))
            for _ in range(r - 2 + e)]
    if r > 2 and draw(st.booleans()):
        k, src = draw(st.integers(0, r - 3)), draw(st.integers(0, r - 3))
        factor = draw(st.integers(-2, 2)) if src != k else 0
        cols[k] = [factor * x for x in cols[src]]
    if r > 2 and draw(st.booleans()):
        cols[0][0] = 0
        cols[0][draw(st.integers(1, r - 1))] = draw(
            entry.filter(bool) | st.just(1))
    return [list(row) for row in zip(*cols)]


@settings(max_examples=300, deadline=None)
@given(bordered_matrices())
@example([[1, 2], [3, 4]])
@example([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
@example([[0, 1, 2, 3], [1, 0, 1, 1], [0, 2, 0, 5]])
def test_pair_minors_equal_their_determinants(m):
    # det_exact is pair_minors' one-minor case, so the rational elimination
    # is the independent reference; the loop over entries that the packed
    # rows replaced is the reference for every minor and determinant
    common = len(m) - 2
    extras = len(m[0]) - common
    minors = pair_minors(m)
    assert minors == ref.pair_minors(m)
    leading = [row[:len(m)] for row in m]
    assert det_exact(leading) == ref.det_exact(leading)
    assert list(minors) == [(i, j) for i in range(extras)
                            for j in range(i + 1, extras)]
    for (i, j), value in minors.items():
        cols = list(range(common)) + [common + i, common + j]
        square = [[row[c] for c in cols] for row in m]
        assert type(value) is int
        assert value == det_exact(square) == fraction_det(square)


@pytest.mark.parametrize("r", range(2, 9))
@pytest.mark.parametrize("e", [2, 3])
@pytest.mark.parametrize("diagonal", [2 ** 40, -2 ** 40, 3 << 38])
def test_pair_minors_at_the_edge_of_the_field_width(r, e, diagonal):
    # diagonal on the first r - 1 rows, the last row (0, ..., 0, 1): the
    # second-last row ends on the leading (r - 1)-minor, a field read with
    # more than half the magnitude the bound on the fields allows (the
    # Hadamard product over every row but the one of least norm, which is
    # the last), so a field one bit narrower than the signed width for
    # that bound misreads it
    m = [[diagonal * (i == j) for j in range(r - 2 + e)]
         for i in range(r - 1)]
    m.append([0] * (r - 3 + e) + [1])
    norms = [isqrt(sum(x * x for x in row)) + 1 for row in m]
    bound = prod(norms) // min(norms)
    largest = ref.det_exact([row[:r - 1] for row in m[:-1]])
    assert abs(largest).bit_length() == bound.bit_length()
    minors = pair_minors(m)
    assert minors == ref.pair_minors(m)
    assert minors[0, e - 1] == largest != 0


def test_kernel_contains_and_spans():
    m = [[5, -2, -2, -1], [1, 1, -1, -1]]
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(m[r][i] * v[i] for i in range(4)) == 0 for r in range(2))
    # the all-ones vector and the quotient map's covector are integer
    # combinations of the basis
    assert solve_2unknowns(basis[0], basis[1], (1, 1, 1, 1)) is not None
    w = quotient_map(SublatticeBasis(*m))
    assert solve_2unknowns(basis[0], basis[1], w) is not None


def test_snf_invariants():
    assert snf_invariants_2rows([[5, 3, 1], [1, 2, 1]]) == (1, 1)
    assert snf_invariants_2rows([[2, 0, 0], [0, 0, 1]]) == (1, 2)
    with pytest.raises(ValueError):
        snf_invariants_2rows([[1, 2], [2, 4]])
    # the quotient map's torsion gate reports the same invariant factors
    rows = [[2, -2, 0, 0], [0, 0, 1, -1]]
    with pytest.raises(TorsionError) as err:
        quotient_map(SublatticeBasis(*rows))
    assert err.value.invariant_factors == snf_invariants_2rows(rows) == (1, 2)


def test_solve_2unknowns():
    a, b = (3, -4, 0, 1), (-4, 3, 1, 0)
    x = tuple(2 * a[i] - 3 * b[i] for i in range(4))
    assert solve_2unknowns(a, b, x) == (2, -3)
    assert solve_2unknowns(a, b, (1, 0, 0, -1)) is None
    # a degree-0 point is in the lattice iff the quotient map sends it to 0
    w = quotient_map(SublatticeBasis(a, b))
    assert sum(wi * xi for wi, xi in zip(w, x)) == 0
    assert sum(wi * xi for wi, xi in zip(w, (1, 0, 0, -1))) != 0
