"""Convex lattice polygons, rank-2 sublattices of A_{s-1}, and the
quotient projection to the integers.

A sublattice basis is a 2 x s integer matrix whose rows a, b each sum to
zero (so they lie in A_{s-1} = {n : sum n_i = 0}).  When the quotient
A_{s-1}/<a,b> is free of rank 1 it is identified with Z by a primitive
covector w and a step m: index(n) = (w . n) / m.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .intlinalg import kernel_basis, snf_invariants_2rows, solve_2unknowns


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


@dataclass(frozen=True)
class QuotientMap:
    """Projection A_{s-1}/<a,b> -> Z via n -> (w . n) / m."""

    w: tuple[int, ...]
    m: int
    torsion_free: bool

    def __call__(self, n: tuple[int, ...]) -> int:
        return project(self, n)


def polygon_to_basis(p: EdgePolygon) -> SublatticeBasis:
    """Edge vectors become the columns of the 2 x s matrix (rows a, b)."""
    edges = p.edges
    return SublatticeBasis(tuple(e[0] for e in edges),
                           tuple(e[1] for e in edges))


def quotient_map(basis: SublatticeBasis) -> QuotientMap:
    """Compute (w, m, torsion witness) for the quotient A_{s-1}/<a,b>.

    w generates {v : v.a = v.b = 0} modulo the all-ones vector; m is the
    gcd of w over a basis of A_{s-1}.  Torsion is detected via the Smith
    normal form of (a, b) written in the f_i = e^i - e^{i+1} basis.
    """
    s = basis.s
    if s != 4:
        raise RankError(f"unsupported rank: quotient of A_{s - 1} by a rank-2 "
                        f"sublattice has rank {s - 3}, need 1")
    # integer kernel of the 2 x s matrix contains the all-ones vector
    kernel = kernel_basis([basis.a, basis.b])
    ones = tuple([1] * s)
    coeffs = solve_2unknowns(kernel[0], kernel[1], ones)
    if coeffs is None:  # pragma: no cover - ones is always in the kernel
        raise LatticeError("all-ones vector not in kernel lattice")
    x, y = coeffs
    # complete primitive `ones` to a basis {ones, w} of the kernel lattice
    if gcd(x, y) != 1:  # pragma: no cover - ones is primitive
        raise LatticeError("all-ones vector not primitive in kernel")
    u, v = _bezout(x, y)
    w = [u * kernel[0][i] + v * kernel[1][i] for i in range(s)]
    w = _normalize_w(w)

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


def _bezout(x: int, y: int) -> tuple[int, int]:
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


def _normalize_w(w: list[int]) -> list[int]:
    """Reduce modulo the all-ones vector, first nonzero entry positive."""
    s = len(w)

    def reduce_ones(vec: list[int]) -> list[int]:
        t = sum(vec) // s
        return [x - t for x in vec]

    w = reduce_ones(w)
    first = next((x for x in w if x != 0), 0)
    if first < 0:
        w = reduce_ones([-x for x in w])
    return w


def project(qmap: QuotientMap, n: tuple[int, ...]) -> int:
    """Index (w . n) / m of a degree-0 point in the quotient."""
    if sum(n) != 0:
        raise LatticeError("can only project degree-0 points")
    dot = sum(wi * ni for wi, ni in zip(qmap.w, n))
    if dot % qmap.m:
        raise LatticeError("projection is not integral")  # pragma: no cover
    return dot // qmap.m


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
