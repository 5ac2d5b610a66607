"""Convex lattice polygons, rank-2 sublattices of A_{s-1}, and the
quotient projection to the integers.

A sublattice basis is a 2 x s integer matrix whose rows a, b each sum to
zero (so they lie in A_{s-1} = {n : sum n_i = 0}).  When the quotient
A_{s-1}/<a,b> is free of rank 1 it is identified with Z by one primitive
covector w: index(n) = w . n for degree-0 n.  For s = 4 the 2x2 minors
p_ij = a_i b_j - a_j b_i decide everything (minors).
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
        turns = [e[0] * f[1] - e[1] * f[0]
                 for e, f in zip(edges, edges[1:] + edges[:1])]
        # with every turn left, the boundary winds once (a star polygon winds
        # more) exactly when the edge directions leave the upper half-plane
        # (y > 0, or y = 0 and x > 0) once
        upper = [y > 0 or (y == 0 and x > 0) for x, y in edges]
        descents = sum(upper[i - 1] and not u for i, u in enumerate(upper))
        if min(turns) <= 0 or descents != 1:
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


def minors(basis: SublatticeBasis) -> tuple[int, int, int]:
    """The minors (p_12, p_13, p_23) of a basis whose quotient is Z; the
    one rank and torsion gate.  <a,b> in A_3 has invariant factors
    (d1, g / d1), d1 the gcd of the entries and g that of the six minors, so
    it has torsion exactly when g != 1; degree 0 makes g the gcd of these
    three (p_14 = -p_12 - p_13, p_24 = p_12 - p_23, p_34 = p_13 + p_23)."""
    s = basis.s
    if s != 4:
        raise RankError(f"unsupported rank: quotient of A_{s - 1} by a rank-2 "
                        f"sublattice has rank {s - 3}, need 1")
    a, b = basis.a, basis.b
    p12 = a[0] * b[1] - a[1] * b[0]
    p13 = a[0] * b[2] - a[2] * b[0]
    p23 = a[1] * b[2] - a[2] * b[1]
    if (g := gcd(p12, p13, p23)) != 1:
        d1 = gcd(*a, *b)
        raise TorsionError((d1, g // d1))
    return p12, p13, p23


def quotient_map(basis: SublatticeBasis) -> tuple[int, ...]:
    """The canonical covector w: the cross product (p_23, -p_13, p_12, 0)
    of columns 1-3, which annihilates both rows and is primitive, up to sign
    and the all-ones vector.  A degree-0 point n has index w . n, and no
    step divides it: the kernel {v : v.a = v.b = 0} is saturated and holds
    the all-ones vector, so {ones, w} is its basis and w has coprime
    differences."""
    p12, p13, p23 = minors(basis)
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
    """Parse "5,-2,-2,-1;1,1,-1,-1" into a sublattice basis.  An empty
    entry is named by row and place; a non-integer one by int()'s error."""
    rows = [row.split(",") for row in text.strip().split(";")]
    if len(rows) != 2:
        raise ValueError("matrix must have exactly two ';'-separated rows")
    for i, row in enumerate(rows, 1):
        for j, entry in enumerate(row, 1):
            if not entry.strip():
                raise ValueError(f"bad matrix entry {entry!r} at row {i}, "
                                 f"place {j}: expected a,b,...;c,d,...")
    a, b = (tuple(int(x) for x in row) for row in rows)
    return SublatticeBasis(a, b)


def parse_polygon(text: str) -> EdgePolygon:
    """Parse a vertex list "x1,y1 x2,y2 ..." into a polygon.  A vertex that
    is not two comma-separated coordinates is named; a non-integer
    coordinate by int()'s error."""
    verts = []
    for chunk in text.split():
        coords = chunk.split(",")
        if len(coords) != 2 or not all(c.strip() for c in coords):
            raise ValueError(f"bad vertex {chunk!r}: expected x,y")
        verts.append((int(coords[0]), int(coords[1])))
    return EdgePolygon(tuple(verts))
