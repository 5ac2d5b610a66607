"""Exact linear algebra over the integers.

Everything here works on plain Python ints, so results are exact at any
size and no rational arithmetic is needed.  Matrices are lists (or tuples)
of rows.  The matrices involved are small (a handful of rows, up to a few
dozen columns), so the simple cubic algorithms are the right tool.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

Matrix = Sequence[Sequence[int]]


def det_exact(matrix: Matrix) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def kernel_basis(matrix: Matrix) -> list[list[int]]:
    """Basis of the integer kernel lattice {v : matrix @ v = 0}.

    Column-style elimination: accumulate the unimodular column transform and
    return the transform columns that end on zero columns of the reduced
    matrix.  The result is a lattice basis of the full integer kernel.
    """
    rows = len(matrix)
    if rows == 0:
        raise ValueError("empty matrix")
    cols = len(matrix[0])
    m = [list(row) for row in matrix]
    # transform starts as the identity, stored column-major
    t = [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]

    def col_op(target: int, source: int, factor: int) -> None:
        for i in range(rows):
            m[i][target] -= factor * m[i][source]
        for i in range(cols):
            t[target][i] -= factor * t[source][i]

    def col_swap(i: int, j: int) -> None:
        for r in range(rows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        t[i], t[j] = t[j], t[i]

    pivot_col = 0
    for r in range(rows):
        while True:
            nz = [j for j in range(pivot_col, cols) if m[r][j] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(m[r][j]))
            if j0 != pivot_col:
                col_swap(pivot_col, j0)
            done = True
            for j in range(pivot_col + 1, cols):
                if m[r][j] != 0:
                    col_op(j, pivot_col, m[r][j] // m[r][pivot_col])
                    if m[r][j] != 0:
                        done = False
            if done:
                pivot_col += 1
                break
    zero_cols = [j for j in range(cols)
                 if all(m[i][j] == 0 for i in range(rows))]
    return [t[j] for j in zero_cols]


def snf_invariants_2rows(matrix: Matrix) -> tuple[int, int]:
    """Elementary divisors (d1, d2) of a rank-2 integer matrix with 2 rows.

    d1 = gcd of all entries, d1*d2 = gcd of all 2x2 minors.
    """
    a, b = matrix[0], matrix[1]
    s = len(a)
    d1 = 0
    for x in list(a) + list(b):
        d1 = gcd(d1, x)
    g2 = 0
    for i in range(s):
        for j in range(i + 1, s):
            g2 = gcd(g2, a[i] * b[j] - a[j] * b[i])
    if d1 == 0 or g2 == 0:
        raise ValueError("matrix has rank < 2")
    return d1, g2 // d1


def solve_2unknowns(a: Sequence[int], b: Sequence[int],
                    x: Sequence[int]) -> tuple[int, int] | None:
    """Solve x = p*a + q*b in integers; None when no integer solution."""
    s = len(a)
    for i in range(s):
        for j in range(i + 1, s):
            d = a[i] * b[j] - a[j] * b[i]
            if d != 0:
                p_num = x[i] * b[j] - x[j] * b[i]
                q_num = a[i] * x[j] - a[j] * x[i]
                if p_num % d or q_num % d:
                    return None
                p, q = p_num // d, q_num // d
                if all(x[k] == p * a[k] + q * b[k] for k in range(s)):
                    return p, q
                return None
    return None
