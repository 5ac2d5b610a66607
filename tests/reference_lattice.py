"""Reference quotient map: the integer kernel / Bezout / Smith-form path
that `tauseq.lattice.quotient_map` replaced with the closed form from the
six 2x2 minors, with the (w, m, torsion_free) map and the point-by-point
projection it returned.  Tests compare the closed form against it and use
its 2-unknown solve as the sublattice-membership oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from tauseq.lattice import (LatticeError, RankError, SublatticeBasis,
                            TorsionError)
from tauseq.recurrence import (BASE_POINT, PAIRINGS, BilinearRecurrence,
                               canonicalize_pairs)

Matrix = Sequence[Sequence[int]]


@dataclass(frozen=True)
class QuotientMap:
    """Projection A_{s-1}/<a,b> -> Z via n -> (w . n) / m."""

    w: tuple[int, ...]
    m: int
    torsion_free: bool


def project(qmap: QuotientMap, n: tuple[int, ...]) -> int:
    """Index (w . n) / m of a degree-0 point in the quotient."""
    if sum(n) != 0:
        raise LatticeError("can only project degree-0 points")
    dot = sum(wi * ni for wi, ni in zip(qmap.w, n))
    if dot % qmap.m:
        raise LatticeError("projection is not integral")
    return dot // qmap.m


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


def bezout(x: int, y: int) -> tuple[int, int]:
    """(u, v) with x*v - y*u = 1, for coprime x, y."""
    old_r, r = x, y
    old_s, s_c = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s_c = s_c, old_s - q * s_c
        old_t, t = t, old_t - q * t
    # old_s*x + old_t*y = gcd = +-1
    sign = old_r  # +-1
    u, v = -old_t * sign, old_s * sign
    assert x * v - y * u == 1
    return u, v


def reduce_ones(vec: list[int]) -> list[int]:
    """Representative of vec modulo the all-ones vector with sum in [0, s)."""
    t = sum(vec) // len(vec)
    return [x - t for x in vec]


def first_nonzero_positive(w: list[int]) -> list[int]:
    """The former sign rule: reduce mod ones, first nonzero entry positive.
    Both w and -w can pass it, so it is not a canonical form."""
    w = reduce_ones(w)
    first = next((x for x in w if x != 0), 0)
    if first < 0:
        w = reduce_ones([-x for x in w])
    return w


def canonical_sign(w: Sequence[int]) -> list[int]:
    """The larger of the reduced forms of w and -w."""
    return max(reduce_ones(list(w)), reduce_ones([-x for x in w]))


def quotient_map(basis: SublatticeBasis) -> QuotientMap:
    """The kernel / Bezout / 2-row Smith form quotient map."""
    s = basis.s
    if s != 4:
        raise RankError(f"unsupported rank: quotient of A_{s - 1} by a rank-2 "
                        f"sublattice has rank {s - 3}, need 1")
    # integer kernel of the 2 x s matrix contains the all-ones vector
    kernel = kernel_basis([basis.a, basis.b])
    ones = tuple([1] * s)
    coeffs = solve_2unknowns(kernel[0], kernel[1], ones)
    if coeffs is None:
        raise LatticeError("all-ones vector not in kernel lattice")
    x, y = coeffs
    # complete primitive `ones` to a basis {ones, w} of the kernel lattice
    if gcd(x, y) != 1:
        raise LatticeError("all-ones vector not primitive in kernel")
    u, v = bezout(x, y)
    w = [u * kernel[0][i] + v * kernel[1][i] for i in range(s)]
    w = first_nonzero_positive(w)

    m = 0
    for i in range(s - 1):
        m = gcd(m, w[i] - w[i + 1])
    # coordinates of a, b in the f-basis are the partial sums
    fa = [sum(basis.a[: i + 1]) for i in range(s - 1)]
    fb = [sum(basis.b[: i + 1]) for i in range(s - 1)]
    d1, d2 = snf_invariants_2rows([fa, fb])
    if (d1, d2) != (1, 1):
        raise TorsionError((d1, d2))
    return QuotientMap(w=tuple(w), m=m, torsion_free=True)


def derive_recurrence(qmap: QuotientMap) -> BilinearRecurrence:
    """Project the six octahedron points through qmap one by one."""
    raw_pairs = []
    for pairing in PAIRINGS:
        indices = []
        for alpha, beta in pairing:
            n = list(BASE_POINT)
            n[alpha - 1] += 1
            n[beta - 1] += 1
            indices.append(project(qmap, tuple(n)))
        raw_pairs.append(tuple(indices))
    return BilinearRecurrence(canonicalize_pairs(raw_pairs))
