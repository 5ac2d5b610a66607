import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest

from reference_fock import (PermutationAction, act_permutation, q_sigma,
                            table_octahedron_residual, tau_table)
from reference_lattice import canonicalize_pairs
from reference_recurrence import divmod_generate
from tauseq import recurrence
from tauseq.fock import Window, random_group_element
from tauseq.lattice import parse_matrix, quotient_map
from tauseq.recurrence import (BASE_POINT, BilinearRecurrence,
                               UnsolvableError, derive_recurrence, generate,
                               octahedron_points, pairs_from_spreads,
                               term_str)
from tauseq.verify import _acted_value

SQUARE_BASIS = parse_matrix("5,-2,-2,-1;1,1,-1,-1")
HEX_BASIS = parse_matrix("1,3,-3,-1;0,1,2,-3")

SQUARE_TERMS = [1] * 8 + [2, 3, 4, 5, 9, 18, 34, 93, 180, 348, 724,
                          3033, 9666, 24986, 83761, 261033]
HEX_TERMS = [1] * 12 + [2, 3, 4, 6, 9, 13, 19, 28, 41, 79, 163, 490,
                        972, 1785, 4270, 9483]


# -------------------------------------------------------------- derivation


def test_derive_square_example():
    rec = derive_recurrence(SQUARE_BASIS)
    assert rec.pairs == ((0, 0), (4, -4), (3, -3))
    assert rec.window == 8


def test_derive_hex_example():
    rec = derive_recurrence(HEX_BASIS)
    # equivalent to the offset triple (0,-6), (3,-9), (2,-8) after
    # canonicalization (translate by +3, reorder)
    assert rec.pairs == canonicalize_pairs([(0, -6), (3, -9), (2, -8)])
    assert rec.window == 12


def test_derived_points_have_degree_zero():
    w = quotient_map(SQUARE_BASIS)
    points = octahedron_points(w)
    assert len(points) == 6
    for (point, idx), (alpha, beta) in zip(
            points, [(1, 2), (3, 4), (1, 3), (2, 4), (1, 4), (2, 3)]):
        assert sum(point) == 0
        assert [x - b for x, b in zip(point, BASE_POINT)] == \
            [int(c in (alpha, beta)) for c in range(1, 5)]
        assert sum(wi * ni for wi, ni in zip(w, point)) == idx


def test_canonicalize_is_idempotent_and_symmetric():
    raw = [(0, -6), (3, -9), (2, -8)]
    canon = canonicalize_pairs(raw)
    assert canonicalize_pairs(canon) == canon
    # invariance under the declared freedoms
    swapped_plus = [raw[2], raw[1], raw[0]]
    assert canonicalize_pairs(swapped_plus) == canon
    reflected = [(-q, -p) for p, q in raw]
    assert canonicalize_pairs(reflected) == canon
    shifted = [(p + 5, q + 5) for p, q in raw]
    assert canonicalize_pairs(shifted) == canon
    # the closed form reads the same pairs off the spreads
    assert pairs_from_spreads(12, 6, 10) == canon


def test_canonicalize_centers_even_sums():
    assert canonicalize_pairs([(4, 4), (8, 0), (7, 1)]) == \
        ((0, 0), (4, -4), (3, -3)) == pairs_from_spreads(8, 0, 6)


def test_recurrence_rejects_shared_top_offset():
    with pytest.raises(UnsolvableError) as exc:
        BilinearRecurrence(((2, 0), (2, -2), (1, -1)))
    assert str(exc.value) == ("degenerate recurrence: max offset shared by "
                              "pairs [0, 1] of ((2, 0), (2, -2), (1, -1))")
    # the top offset paired with itself: the step would divide by the term
    # it solves for
    with pytest.raises(UnsolvableError) as exc:
        BilinearRecurrence(((2, 2), (1, 1), (0, 0)))
    assert str(exc.value) == ("degenerate recurrence: max offset shared by "
                              "pairs [0, 0] of ((2, 2), (1, 1), (0, 0))")
    with pytest.raises(ValueError, match=r"^each pair must be ordered p >= q$"):
        BilinearRecurrence(((0, 1), (2, -2), (1, -1)))


def test_recurrence_json_roundtrip():
    rec = derive_recurrence(SQUARE_BASIS)
    obj = rec.to_json_dict()
    assert obj["pairs"] == [[0, 0], [4, -4], [3, -3]]
    assert obj["signs"] == [1, -1, 1]
    assert BilinearRecurrence.from_json_dict(obj) == rec


# -------------------------------------------------------------- generation


def check_recurrence_holds(rec: BilinearRecurrence, terms):
    low = min(x for p in rec.pairs for x in p)
    shifted = [(p - low, q - low) for p, q in rec.pairs]
    top = max(x for p in shifted for x in p)
    for l in range(len(terms) - top):
        total = sum(sign * Fraction(terms[l + p]) * Fraction(terms[l + q])
                    for sign, (p, q) in zip((1, -1, 1), shifted))
        assert total == 0


def test_generate_square_sequence():
    rec = derive_recurrence(SQUARE_BASIS)
    run = generate(rec, 24)
    assert run.status == "ok"
    assert run.terms == SQUARE_TERMS
    check_recurrence_holds(rec, run.terms)


def test_generate_hex_sequence():
    rec = derive_recurrence(HEX_BASIS)
    run = generate(rec, 28)
    assert run.status == "ok"
    assert run.terms == HEX_TERMS
    check_recurrence_holds(rec, run.terms)


def test_generate_trivial_window_regression():
    # the unit square: T(l+1)T(l-1) = T(l)^2 - T(l)^2 ... degenerate to
    # pairs ((0,0),(1,-1),(0,0)) -> T(l+1)T(l-1) = 2 T(l)^2
    rec = BilinearRecurrence(((0, 0), (1, -1), (0, 0)))
    run = generate(rec, 8)
    assert run.status == "ok"
    assert run.terms == [1, 1, 2, 8, 64, 1024, 32768, 2097152]


def test_generate_custom_seed_window():
    rec = derive_recurrence(SQUARE_BASIS)
    run = generate(rec, 12, init=[1, 1, 1, 1, 1, 1, 1, 2])
    assert run.window == 8
    assert run.terms[:run.window] == [1, 1, 1, 1, 1, 1, 1, 2]
    check_recurrence_holds(rec, run.terms)


def test_generate_non_integral_status():
    rec = BilinearRecurrence(((0, 0), (1, -1), (0, 0)))
    run = generate(rec, 5, init=[3, 2])
    assert run.status == "non-integral"
    assert run.status_index is not None
    assert any(isinstance(t, Fraction) for t in run.terms)
    check_recurrence_holds(rec, run.terms)


def test_generate_degenerate_status():
    rec = BilinearRecurrence(((1, -1), (0, 0), (0, 0)))
    # T(l+1)T(l-1) = 0: the next term is forced to zero, then division by 0
    run = generate(rec, 10, init=[1, 1])
    assert run.status == "degenerate"
    assert run.terms[-1] == 0


def test_generate_validates_arguments():
    rec = derive_recurrence(SQUARE_BASIS)
    with pytest.raises(ValueError):
        generate(rec, 4)
    with pytest.raises(ValueError):
        generate(rec, 24, init=[1, 1])


# the Somos-type reference recurrence and the HEX matrix's recurrence
REFERENCE_PAIRS = (((0, 0), (4, -4), (3, -3)), ((3, -3), (6, -6), (5, -5)))
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


@pytest.mark.parametrize("pairs", REFERENCE_PAIRS, ids=["somos", "hex"])
def test_generate_matches_divmod_reference(pairs):
    rec = BilinearRecurrence(pairs)
    with patch.object(recurrence, "_div2n1n",
                      wraps=recurrence._div2n1n) as recursive:
        got = generate(rec, 500)
    assert recursive.called  # last terms of 11 827 and 6 998 bits
    want = divmod_generate(rec, 500)
    assert got == want
    assert all(type(t) is int for t in got.terms)


def test_generate_matches_benchmark_golden_residues():
    # residues modulo 2^61 - 1, as the benchmark digests them, so no big
    # term goes through str()
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["generate_long"]
    assert [tuple(map(tuple, g["pairs"])) for g in golden] == list(
        REFERENCE_PAIRS)
    prime = (1 << 61) - 1
    for pairs, g in zip(REFERENCE_PAIRS, golden):
        run = generate(BilinearRecurrence(pairs), 1000)
        assert run.status == "ok" and len(run.terms) == 1000
        assert all(type(t) is int for t in run.terms)
        digest = hashlib.sha256(b"".join((t % prime).to_bytes(8, "big")
                                         for t in run.terms)).hexdigest()
        assert digest == g["residues_sha256"]
        assert max(t.bit_length() for t in run.terms) == g["max_bits"]


def test_term_str_int_fast_path_matches_general_path():
    def general(t):
        if isinstance(t, Fraction) and t.denominator != 1:
            return f"{t.numerator}/{t.denominator}"
        return str(int(t))

    for t in (0, -7, 261033, 10 ** 40, Fraction(-3, 4)):
        assert term_str(t) == general(t)
    limit = sys.get_int_max_str_digits()
    if limit:  # CPython's digit limit still applies to plain ints
        with pytest.raises(ValueError):
            term_str(10 ** limit)


# ------------------------------------------------------- permutation action
# The tau-table path in tests/reference_fock.py, which the permutation
# oracle's differential test (tests/test_fock.py) compares against.


def inverse(sigma: PermutationAction) -> PermutationAction:
    inv = [0] * len(sigma.sigma)
    for alpha, target in enumerate(sigma.sigma):
        inv[target - 1] = alpha + 1
    return PermutationAction(tuple(inv))


def test_permutation_validation_and_inverse():
    with pytest.raises(ValueError):
        PermutationAction((1, 1, 2, 3))
    sigma = PermutationAction((2, 3, 1, 4))
    assert inverse(sigma).sigma == (3, 1, 2, 4)
    n = (5, -2, 1, -4)
    assert inverse(sigma).apply(sigma.apply(n)) == n
    # the permutation oracle acting by the inverse reads the table at n
    assert abs(_acted_value({n: 5}.__getitem__, inverse(sigma).sigma,
                            sigma.apply(n))) == 5


def test_q_sigma_examples():
    # the acted value tau'(n) = (-1)^q tau(sigma n), q summing n_a n_b over
    # the inversions of sigma: the identity, a swap and the reversal, read
    # off the permutation oracle and the reference's q_sigma
    for sigma, n, q in [((1, 2, 3, 4), (7, -3, 2, 5), 0),
                        ((2, 1, 3, 4), (1, 1, 0, 0), 1),
                        ((4, 3, 2, 1), (1, 1, 1, 1), 6),
                        ((4, 3, 2, 1), (1, 1, 1, 0), 3)]:
        action = PermutationAction(sigma)
        assert q_sigma(action, n) == q
        assert _acted_value({action.apply(n): 5}.__getitem__, sigma, n) \
            == 5 * (-1) ** q


def test_permutation_action_preserves_octahedron():
    w = Window(4, 4)
    rng = random.Random(77)
    bases = [n for n in _degree_minus2_points()]
    for _ in range(5):
        g = random_group_element(w, rng)
        table = tau_table(g, w, bound=1)
        for sigma_tuple in [(2, 1, 3, 4), (2, 3, 4, 1), (4, 3, 2, 1)]:
            sigma = PermutationAction(sigma_tuple)
            acted = act_permutation(sigma, table)
            for base in bases:
                if all(tuple_in(acted, base, a, b)
                       for a in range(1, 5) for b in range(a + 1, 5)):
                    assert table_octahedron_residual(acted, base) == 0


def test_permutation_inverse_restores_table():
    w = Window(4, 4)
    g = random_group_element(w, random.Random(3))
    table = tau_table(g, w, bound=1)
    sigma = PermutationAction((3, 1, 4, 2))
    assert act_permutation(inverse(sigma), act_permutation(sigma, table)) == \
        {n: v for n, v in table.items()}


def _degree_minus2_points():
    out = []
    for a in range(-1, 1):
        for b in range(-1, 1):
            for c in range(-1, 1):
                d = -2 - a - b - c
                if -1 <= d <= 0:
                    out.append((a, b, c, d))
    return out


def tuple_in(table, base, a, b):
    n = list(base)
    n[a - 1] += 1
    n[b - 1] += 1
    return tuple(n) in table
