import itertools
import random

import pytest

from reference_lattice import solve_2unknowns
from tauseq.lattice import (EdgePolygon, LatticeError, RankError,
                            SublatticeBasis, TorsionError, edges_to_basis,
                            parse_matrix, parse_polygon, quotient_map)

SQUARE_BASIS = parse_matrix("5,-2,-2,-1;1,1,-1,-1")
HEX_BASIS = parse_matrix("1,3,-3,-1;0,1,2,-3")


def member(basis: SublatticeBasis, n: tuple[int, ...]) -> bool:
    """Membership in the sublattice <a, b> over the integers."""
    return solve_2unknowns(basis.a, basis.b, n) is not None


def index(w: tuple[int, ...], n: tuple[int, ...]) -> int:
    """Index w . n of a degree-0 point in the quotient."""
    assert sum(n) == 0
    return sum(wi * ni for wi, ni in zip(w, n))


# ---------------------------------------------------------------- polygons


def test_polygon_to_basis_edge_columns():
    p = EdgePolygon(((0, 0), (5, 1), (3, 2), (1, 1)))
    basis = edges_to_basis(p.edges)
    assert basis.a == (5, -2, -2, -1)
    assert basis.b == (1, 1, -1, -1)


def test_polygon_to_basis_second_example():
    p = EdgePolygon(((0, 0), (1, 0), (4, 1), (1, 3)))
    basis = edges_to_basis(p.edges)
    assert basis.a == (1, 3, -3, -1)
    assert basis.b == (0, 1, 2, -3)


def test_polygon_validation():
    with pytest.raises(LatticeError):
        EdgePolygon(((0, 0), (1, 0)))  # too few vertices
    with pytest.raises(LatticeError):
        EdgePolygon(((0, 0), (0, 1), (1, 1)))  # clockwise
    with pytest.raises(LatticeError):
        EdgePolygon(((0, 0), (1, 0), (2, 0), (0, 1)))  # collinear edge pair


def test_polygon_must_wind_once():
    # a pentagram turns left at every vertex but winds twice
    star = ((0, 0), (2, 0), (0, 1), (1, -1), (2, 1))
    with pytest.raises(LatticeError, match="strictly convex"):
        EdgePolygon(star)
    pentagon = EdgePolygon(((0, 0), (2, 0), (3, 1), (1, 2), (-1, 1)))
    with pytest.raises(RankError):
        quotient_map(edges_to_basis(pentagon.edges))
    # a convex polygon is accepted from every starting vertex
    square = ((0, 0), (1, 0), (1, 1), (0, 1))
    for shift in range(4):
        EdgePolygon(square[shift:] + square[:shift])


def test_polygon_edges_close_up():
    p = parse_polygon("0,0 1,0 1,1 0,1")
    assert p.edges == ((1, 0), (0, 1), (-1, 0), (0, -1))


def test_parse_polygon_roundtrip():
    p = parse_polygon("0,0 5,1 3,2 1,1")
    assert p.vertices == ((0, 0), (5, 1), (3, 2), (1, 1))
    assert parse_polygon(" ".join(f"{x},{y}" for x, y in p.vertices)) == p


# ------------------------------------------------------------------ basis


def test_basis_requires_degree_zero_rows():
    with pytest.raises(LatticeError):
        SublatticeBasis((1, 0, 0, 0), (0, 1, 0, -1))


def test_basis_requires_independent_rows():
    with pytest.raises(RankError):
        SublatticeBasis((1, -1, 0, 0), (2, -2, 0, 0))


def test_basis_contains():
    # the lattice holds 0 and 2a - b, not (1, -1, 0, 0), and the quotient
    # map sends exactly the points it holds to index 0
    b = SQUARE_BASIS
    w = quotient_map(b)
    for n, inside in [((0, 0, 0, 0), True),
                      (tuple(2 * x - y for x, y in zip(b.a, b.b)), True),
                      ((1, -1, 0, 0), False)]:
        assert member(b, n) == inside
        assert (index(w, n) == 0) == inside


def test_parse_matrix_errors():
    with pytest.raises(ValueError):
        parse_matrix("1,-1,0,0")
    with pytest.raises(ValueError):
        parse_matrix("1,x,0,-1;0,1,0,-1")


# --------------------------------------------------------------- quotient


def test_quotient_square_example():
    w = quotient_map(SQUARE_BASIS)
    # w is pinned only up to scale/sign mod the all-ones vector; the
    # projection itself is the invariant: index(l,-l,0,0) = l
    for l in range(-4, 5):
        assert index(w, (l, -l, 0, 0)) == l
    assert index(w, SQUARE_BASIS.a) == 0
    assert index(w, SQUARE_BASIS.b) == 0


def test_quotient_hex_example():
    w = quotient_map(HEX_BASIS)
    sign = index(w, (0, 0, 1, -1))
    assert sign in (1, -1)
    for l in range(-4, 5):
        assert index(w, (0, 0, l, -l)) == sign * l
    assert index(w, HEX_BASIS.a) == 0
    assert index(w, HEX_BASIS.b) == 0


def test_quotient_w_is_primitive_and_annihilates_rows():
    for basis in (SQUARE_BASIS, HEX_BASIS):
        w = quotient_map(basis)
        assert index(w, basis.a) == index(w, basis.b) == 0


def test_quotient_torsion_error():
    with pytest.raises(TorsionError) as exc:
        quotient_map(SublatticeBasis((2, -2, 0, 0), (0, 0, 1, -1)))
    assert 2 in exc.value.invariant_factors


def test_quotient_rank_error():
    with pytest.raises(RankError):
        quotient_map(SublatticeBasis((1, -1, 0, 0, 0), (0, 0, 1, 0, -1)))


def random_deg0(rng: random.Random) -> tuple[int, ...]:
    v = [rng.randint(-6, 6) for _ in range(3)]
    return (*v, -sum(v))


def test_equal_projection_iff_lattice_membership():
    rng = random.Random(314)
    for basis in (SQUARE_BASIS, HEX_BASIS):
        w = quotient_map(basis)
        agree = 0
        for _ in range(1000):
            n1, n2 = random_deg0(rng), random_deg0(rng)
            diff = tuple(x - y for x, y in zip(n1, n2))
            inside = member(basis, diff)
            assert (index(w, n1) == index(w, n2)) == inside
            agree += inside
        assert agree > 0  # the equivalence was exercised on both sides


def test_quotient_invariant_under_hermite():
    # the projection depends only on the sublattice: any unimodular change
    # of basis, the row-Hermite transform of each basis among them, gives
    # the same canonical w and so exactly the same map
    probes = [n for n in itertools.product(range(-2, 3), repeat=4)
              if sum(n) == 0]
    hermite = {SQUARE_BASIS: ((0, 1), (-1, 5)), HEX_BASIS: ((1, -3), (0, 1))}
    for basis in (SQUARE_BASIS, HEX_BASIS):
        w1 = quotient_map(basis)
        transforms = [((0, 1), (1, 0)), ((2, 1), (1, 1)), ((1, -3), (0, 1)),
                      ((-1, 0), (5, 1)), hermite[basis]]
        for (u00, u01), (u10, u11) in transforms:
            assert u00 * u11 - u01 * u10 in (1, -1)
            changed = SublatticeBasis(
                tuple(u00 * x + u01 * y for x, y in zip(basis.a, basis.b)),
                tuple(u10 * x + u11 * y for x, y in zip(basis.a, basis.b)))
            w2 = quotient_map(changed)
            assert w2 == w1
            assert all(index(w2, n) == index(w1, n) for n in probes)
