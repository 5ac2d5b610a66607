"""Convex lattice polygons, rank-2 sublattices of A_{s-1}, and the
quotient projection to the integers.

A sublattice basis is a 2 x s integer matrix whose rows a, b each sum to
zero (so they lie in A_{s-1} = {n : sum n_i = 0}).  When the quotient
A_{s-1}/<a,b> is free of rank 1 it is identified with Z by one primitive
covector w: index(n) = w . n for degree-0 n.

For s = 4 the 2x2 minors p_ij = a_i b_j - a_j b_i decide everything: the
quotient is torsion-free exactly when their gcd is 1, and then w is the
cross product (p_23, -p_13, p_12, 0) of columns 1-3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class LatticeError(Exception):
    pass


class RankError(LatticeError):
    """Quotient rank is not 1 (s != 4) or the rows are dependent."""


class TorsionError(LatticeError):
    """Quotient has a torsion subgroup; sequences cannot be Z-indexed."""

    def __init__(self, invariant_factors: tuple[int, ...]):
        self.invariant_factors = invariant_factors
        super().__init__(
            f"quotient has torsion with invariant factors {invariant_factors}")


@dataclass(frozen=True)
class EdgePolygon:
    """Strictly convex counterclockwise lattice polygon, >= 3 vertices."""

    vertices: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        v = self.vertices
        if len(v) < 3:
            raise LatticeError("polygon needs at least 3 vertices")
        edges = self.edges
        if tuple(map(sum, zip(*edges))) != (0, 0):
            raise LatticeError("edge vectors must sum to zero")
        for i, e in enumerate(edges):
            f = edges[(i + 1) % len(edges)]
            if e[0] * f[1] - e[1] * f[0] <= 0:
                raise LatticeError("polygon must be strictly convex and ccw")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        v = self.vertices
        return tuple(
            (v[(i + 1) % len(v)][0] - v[i][0], v[(i + 1) % len(v)][1] - v[i][1])
            for i in range(len(v)))


@dataclass(frozen=True)
class SublatticeBasis:
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b) or len(self.a) < 3:
            raise LatticeError("rows must have equal length >= 3")
        if sum(self.a) != 0 or sum(self.b) != 0:
            raise LatticeError("rows must have degree 0 (coordinate sum zero)")
        a, b, s = self.a, self.b, len(self.a)
        if not any(a[i] * b[j] != a[j] * b[i]
                   for i in range(s) for j in range(i + 1, s)):
            raise RankError("rows must be linearly independent")

    @property
    def s(self) -> int:
        return len(self.a)


def edges_to_basis(edges: tuple[tuple[int, int], ...]) -> SublatticeBasis:
    """Edge vectors, of a polygon or a scanned edge cycle, become the
    columns of the 2 x s matrix (rows a, b)."""
    a, b = zip(*edges)
    return SublatticeBasis(a, b)


def quotient_map(basis: SublatticeBasis) -> tuple[int, ...]:
    """The canonical covector w of the quotient A_{s-1}/<a,b>, from the
    2x2 minors; a degree-0 point n has index w . n.

    With p_ij = a_i b_j - a_j b_i, the invariant factors of <a,b> inside
    A_3 are (d1, g / d1), where d1 is the gcd of the eight entries and g the
    gcd of the six minors, so the quotient is torsion-free exactly when
    g = 1.  The rows have degree 0, so p_14 = -p_12 - p_13,
    p_24 = p_12 - p_23 and p_34 = p_13 + p_23, and g is already the gcd of
    p_12, p_13, p_23.  The cross product of columns 1-3, (p_23, -p_13,
    p_12, 0), annihilates both rows, and when g = 1 it is the primitive w
    with w_4 = 0.  No step divides w . n: the kernel lattice
    {v : v.a = v.b = 0} is saturated and contains the all-ones vector, so
    {ones, w} is a basis of it and the differences of w have gcd 1.
    """
    s = basis.s
    if s != 4:
        raise RankError(f"unsupported rank: quotient of A_{s - 1} by a rank-2 "
                        f"sublattice has rank {s - 3}, need 1")
    a, b = basis.a, basis.b
    p12 = a[0] * b[1] - a[1] * b[0]
    p13 = a[0] * b[2] - a[2] * b[0]
    p23 = a[1] * b[2] - a[2] * b[1]
    g = gcd(p12, p13, p23)
    if g != 1:
        d1 = gcd(*a, *b)
        raise TorsionError((d1, g // d1))
    return _normalize_w([p23, -p13, p12, 0])


def _normalize_w(w: list[int]) -> tuple[int, ...]:
    """Canonical representative of +-w modulo the all-ones vector: reduce
    each sign so the entries sum to [0, s), and keep the larger tuple."""
    s = len(w)

    def reduce_ones(vec: list[int]) -> tuple[int, ...]:
        t = sum(vec) // s
        return tuple(x - t for x in vec)

    return max(reduce_ones(w), reduce_ones([-x for x in w]))


def parse_matrix(text: str) -> SublatticeBasis:
    """Parse "5,-2,-2,-1;1,1,-1,-1" into a sublattice basis."""
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise ValueError("matrix must have exactly two ';'-separated rows")
    a = tuple(int(x) for x in rows[0].split(","))
    b = tuple(int(x) for x in rows[1].split(","))
    return SublatticeBasis(a, b)


def parse_polygon(text: str) -> EdgePolygon:
    """Parse a vertex list "x1,y1 x2,y2 ..." into a polygon."""
    verts = []
    for chunk in text.split():
        x, y = chunk.split(",")
        verts.append((int(x), int(y)))
    return EdgePolygon(tuple(verts))
