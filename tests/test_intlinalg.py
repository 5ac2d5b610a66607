import random
from itertools import permutations

import pytest

from reference_lattice import (kernel_basis, snf_invariants_2rows,
                               solve_2unknowns)
from tauseq.intlinalg import det_exact


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


def test_det_against_leibniz():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert det_exact(m) == leibniz_det(m)


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
