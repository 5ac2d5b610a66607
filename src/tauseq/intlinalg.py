"""Exact integer determinant.

det_exact works on plain Python ints, so the result is exact at any size
and no rational arithmetic is needed.  A matrix is a list (or tuple) of
rows.  The matrices involved are small (a few dozen rows at most), so the
simple cubic algorithm is the right tool.
"""

from __future__ import annotations

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
