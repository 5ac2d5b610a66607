"""Reference pair minors: the fraction-free (Bareiss) elimination with one
interpreter step per entry update, which `tauseq.intlinalg.pair_minors`
replaced with whole-row updates on packed ints.  Tests compare the packed
kernel against it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

Matrix = Sequence[Sequence[int]]


def det_exact(matrix: Matrix) -> int:
    """Determinant of a square integer matrix: its one pair minor."""
    n = len(matrix)
    if n < 2:
        return matrix[0][0] if n else 1
    return pair_minors(matrix)[0, 1]


def pair_minors(matrix: Matrix) -> dict[tuple[int, int], int]:
    """{(i, j): det(common | extra_i | extra_j)} for i < j, of an
    r x (r - 2 + e) integer matrix (r >= 2) whose first r - 2 columns are
    common to every minor and whose last e are the extras, 0-based.

    One elimination of the common columns, with row swaps, serves every
    minor.  After step k each entry right of and below the pivots is the
    minor of the leading k + 1 rows and columns bordered by its own row and
    column (Sylvester's identity), so each division is exact, and a minor
    is the 2x2 determinant of the last two rows on its extra columns over
    the last pivot.  A common column with no pivot makes every minor 0.
    """
    c = len(matrix) - 2
    m = [list(row) for row in matrix]
    rows, width = len(m), len(m[0])
    pairs = list(combinations(range(width - c), 2))
    sign = prev = 1
    for k in range(c):
        if m[k][k] == 0:
            for i in range(k + 1, rows):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return dict.fromkeys(pairs, 0)
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, rows):
            row_i = m[i]
            f = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    r1, r2 = m[c], m[c + 1]
    return {(i, j): sign * ((r1[c + i] * r2[c + j] - r1[c + j] * r2[c + i])
                            // prev)
            for i, j in pairs}
