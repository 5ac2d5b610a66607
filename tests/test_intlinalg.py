import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_lattice import (kernel_basis, snf_invariants_2rows,
                               solve_2unknowns)
from tauseq.intlinalg import det_exact, pair_minors


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
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def test_det_against_leibniz():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert det_exact(m) == leibniz_det(m)


@st.composite
def bordered_matrices(draw):
    """An r x (r - 2 + e) matrix, r = 2..8 and e = 2..5, of small entries,
    mostly zero; half the time one common column is a multiple of another
    (or zero), so the common block is rank deficient."""
    r, e = draw(st.integers(2, 8)), draw(st.integers(2, 5))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3])
    cols = [draw(st.lists(entry, min_size=r, max_size=r))
            for _ in range(r - 2 + e)]
    if r > 2 and draw(st.booleans()):
        k, src = draw(st.integers(0, r - 3)), draw(st.integers(0, r - 3))
        factor = draw(st.integers(-2, 2)) if src != k else 0
        cols[k] = [factor * x for x in cols[src]]
    return [list(row) for row in zip(*cols)]


@settings(max_examples=300, deadline=None)
@given(bordered_matrices())
@example([[1, 2], [3, 4]])
@example([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
@example([[0, 1, 2, 3], [1, 0, 1, 1], [0, 2, 0, 5]])
def test_pair_minors_equal_their_determinants(m):
    # det_exact is pair_minors' one-minor case, so the rational elimination
    # is the independent reference
    common = len(m) - 2
    extras = len(m[0]) - common
    minors = pair_minors(m)
    assert list(minors) == [(i, j) for i in range(extras)
                            for j in range(i + 1, extras)]
    for (i, j), value in minors.items():
        cols = list(range(common)) + [common + i, common + j]
        square = [[row[c] for c in cols] for row in m]
        assert type(value) is int
        assert value == det_exact(square) == fraction_det(square)


def test_kernel_contains_and_spans():
    m = [[5, -2, -2, -1], [1, 1, -1, -1]]
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(m[r][i] * v[i] for i in range(4)) == 0 for r in range(2))
    # the all-ones vector is an integer combination of the basis
    assert solve_2unknowns(basis[0], basis[1], (1, 1, 1, 1)) is not None


def test_snf_invariants():
    assert snf_invariants_2rows([[5, 3, 1], [1, 2, 1]]) == (1, 1)
    assert snf_invariants_2rows([[2, 0, 0], [0, 0, 1]]) == (1, 2)
    with pytest.raises(ValueError):
        snf_invariants_2rows([[1, 2], [2, 4]])


def test_solve_2unknowns():
    a, b = (3, -4, 0, 1), (-4, 3, 1, 0)
    x = tuple(2 * a[i] - 3 * b[i] for i in range(4))
    assert solve_2unknowns(a, b, x) == (2, -3)
    assert solve_2unknowns(a, b, (1, 0, 0, -1)) is None
