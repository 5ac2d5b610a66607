"""Exact integer determinants by one fraction-free (Bareiss) elimination.

pair_minors and det_exact work on plain Python ints, so the results are
exact at any size and no rational arithmetic is needed.  A matrix is a
list (or tuple) of rows.

The elimination keeps each row as one int whose entries are signed w-bit
fields, the entry of column j at bits [j*w, (j+1)*w), so one Bareiss step
updates a whole row with one big-int expression instead of one interpreter
step per entry.  That is exact because:

- every field the elimination reads (a pivot, a multiplier, a field of the
  last two rows) is a minor of the input on at most r - 1 of its r rows.
  By Hadamard's inequality its absolute value is below the product of
  isqrt(sum of squares of the row) + 1 over those rows, so below the bound
  that takes this product over every row but the one of least norm, and
  w = bound.bit_length() + 1 holds it as a signed field, read as
  ((row + half) & mask) - half.  One bit less is too few: a diagonal of
  2^40 over a last row (0, ..., 0, 1) reads a field of more than bound / 2;
- the packed row is the linear combination sum(x_j << j*w) of its fields,
  so the update is the same combination of the per-entry updates; while a
  numerator is formed its fields may overflow into their neighbours, but
  none of them is read before the division;
- the division by the previous pivot is exact, because it is exact on
  every field (Sylvester's identity), and the shift by w that drops the
  eliminated column is exact, because that field is 0.

Every row update costs a few operations on ints of about (columns * w)
bits, so on small matrices the packing costs more than it saves: at 3 x 3
det_exact is slower than a loop over entries, at 20 x 22 faster.
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt, prod
from operator import mul
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
    Rows are packed as the module docstring says; after step k a row's
    lowest field is column k + 1.
    """
    c = len(matrix) - 2
    extras = len(matrix[0]) - c
    pairs = list(combinations(range(extras), 2))
    norms = [isqrt(sum(map(mul, row, row))) + 1 for row in matrix]
    w = (prod(norms) // min(norms)).bit_length() + 1
    mask, half = (1 << w) - 1, 1 << w - 1
    m = []
    for row in matrix:
        packed = 0
        for x in reversed(row):
            packed = (packed << w) + x
        m.append(packed)
    rows = len(m)
    sign = prev = 1
    for k in range(c):
        if m[k] & mask == 0:
            for i in range(k + 1, rows):
                if m[i] & mask:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return dict.fromkeys(pairs, 0)
        row_k = m[k]
        pivot = ((row_k + half) & mask) - half
        for i in range(k + 1, rows):
            row_i = m[i]
            f = ((row_i + half) & mask) - half
            m[i] = (pivot * row_i - f * row_k) // prev >> w
        prev = pivot
    # low is half in each of the e fields: added to a last row, it makes
    # every field nonnegative, so reading one borrows nothing from the next
    low = half * ((1 << w * extras) - 1) // mask
    last = [((row + low) >> shift & mask) - half
            for row in m[c:] for shift in range(0, w * extras, w)]
    r1, r2 = last[:extras], last[extras:]
    return {(i, j): sign * ((r1[i] * r2[j] - r1[j] * r2[i]) // prev)
            for i, j in pairs}
