import gc
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kp as ref
from tauseq.kp import (add, character, diff, kp_bilinear_residual, mul, pack,
                       partitions_up_to, render, scale, schur, unpack)
from tauseq.maya import Partition

M = 6
ONE = {pack((0,) * M): 1}


def t(idx):
    """The packed polynomial t_idx."""
    return {pack(tuple(int(k == idx) for k in range(1, M + 1))): 1}


def product(a, b):
    """a * b through the accumulating mul, with zero coefficients dropped."""
    out = {}
    mul(a, b, 1, out)
    return {key: c for key, c in out.items() if c}


def rand_poly(rng, m=M, terms=4, deg=3):
    out = {}
    for _ in range(terms):
        exp = [0] * m
        for _ in range(rng.randint(0, deg)):
            exp[rng.randrange(m)] += 1
        out = add(out, {pack(tuple(exp)): Fraction(rng.randint(-5, 5),
                                                   rng.randint(1, 4))})
    return out


# --------------------------------------------------- packed-key arithmetic


def test_ring_axioms_randomized():
    rng = random.Random(20)
    for _ in range(30):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert add(a, b) == add(b, a)
        assert product(a, b) == product(b, a)
        assert product(a, add(b, c)) == add(product(a, b), product(a, c))
        assert product(product(a, b), c) == product(a, product(b, c))
        assert add(a, scale(a, -1)) == {}
        assert product(a, ONE) == a
        assert product(a, {}) == {}


def test_no_zero_coefficients_stored():
    rng = random.Random(8)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        for poly in (add(a, scale(a, -1)),
                     add(product(a, b), scale(product(b, a), -1))):
            assert all(c != 0 for c in poly.values())


def test_mul_accumulates_into_a_nonempty_dict():
    # mul adds k * a * b to what out holds, against the reference's
    # add/scale/mul on exponent tuples; a product that cancels what out
    # holds leaves zeros, which the caller drops
    def tuples(poly):
        return {unpack(key, M): c for key, c in poly.items() if c}

    rng = random.Random(31)
    for _ in range(30):
        a, b, c = (rand_poly(rng) for _ in range(3))
        k = rng.choice((-4, -1, 3))
        out = dict(c)
        mul(a, b, k, out)
        assert tuples(out) == ref.add(
            tuples(c), ref.scale(ref.mul(tuples(a), tuples(b)), k))
        mul(a, b, -k, out)
        assert tuples(out) == tuples(c)


def test_diff_examples():
    # d/dt1 (t1^2 t2) = 2 t1 t2
    p = product(product(t(1), t(1)), t(2))
    assert diff(p, 1) == scale(product(t(1), t(2)), 2)
    assert diff(p, 2) == product(t(1), t(1))
    assert diff(p, 3) == {}
    assert diff(diff(p, 1), 1) == scale(t(2), 2)
    assert diff(scale(ONE, 7), 1) == {}


def test_diff_commutes():
    rng = random.Random(13)
    for _ in range(20):
        p = rand_poly(rng)
        assert diff(diff(p, 1), 2) == diff(diff(p, 2), 1)


def test_diff_leibniz():
    rng = random.Random(2)
    for _ in range(10):
        a, b = rand_poly(rng), rand_poly(rng)
        lhs = diff(product(a, b), 1)
        rhs = add(product(diff(a, 1), b), product(a, diff(b, 1)))
        assert lhs == rhs


def test_packed_keys_hold_exponents_below_two_to_the_fifteen():
    top = 2 ** 15 - 1
    exp = (top, 0, 3, top, 1, top)
    assert unpack(pack(exp), M) == exp
    # the largest product stays inside each field: no carry
    square = product({pack(exp): 1}, {pack(exp): 1})
    assert [unpack(key, M) for key in square] == [tuple(2 * e for e in exp)]
    assert unpack(next(iter(diff(square, 6))), M) == \
        (2 * top, 0, 6, 2 * top, 2, 2 * top - 1)
    for bad in (2 ** 15, -1):
        with pytest.raises(ValueError):
            pack((0, bad, 0))
        with pytest.raises(ValueError):
            kp_bilinear_residual({(0, 0, 0, bad): Fraction(1)}, 4)


def test_render_deterministic():
    p = {(2, 0, 1, 0, 0, 0): Fraction(3, 2), (0, 1, 0, 0, 0, 0): Fraction(1)}
    assert render(p) == "3/2*t1^2*t3 + t2"


# ------------------------------------- complete homogeneous (reference path)


def test_h_series_small():
    def v(idx):
        return ref.variable(idx, M)

    hs = ref.h_series(3, M)
    assert hs[0] == ref.const(1, M)
    assert hs[1] == v(1)
    # h2 = t1^2/2 + t2 ; h3 = t1^3/6 + t1 t2 + t3
    assert hs[2] == ref.add(ref.scale(ref.mul(v(1), v(1)), Fraction(1, 2)),
                            v(2))
    assert hs[3] == ref.add(ref.scale(ref.mul(ref.mul(v(1), v(1)), v(1)),
                                      Fraction(1, 6)),
                            ref.mul(v(1), v(2)), v(3))


def test_h_series_matches_truncated_exponential():
    # sum_n h_n z^n = exp(sum_k t_k z^k): compare coefficient of z^n with
    # the explicit exponential expansion sum over compositions
    n_max = 8
    hs = ref.h_series(n_max, n_max)
    # exp(sum_k t_k z^k) = prod_k (sum_a t_k^a z^{k a} / a!), built by
    # convolving one exponential factor at a time
    expected = [ref.const(1, n_max)] + [{} for _ in range(n_max)]
    for k in range(1, n_max + 1):
        nxt = [{} for _ in range(n_max + 1)]
        for n in range(n_max + 1):
            power = ref.const(1, n_max)
            fact = Fraction(1)
            a = 0
            while k * a <= n:
                nxt[n] = ref.add(nxt[n], ref.scale(
                    ref.mul(expected[n - k * a], power), fact))
                a += 1
                power = ref.mul(power, ref.variable(k, n_max))
                fact /= a
        expected = nxt
    assert hs == expected


# ------------------------------------------------------------ characters


def partitions_of(n):
    return [lam.parts for lam in partitions_up_to(n) if lam.size == n]


def z(mu):
    return math.prod(k ** m * math.factorial(m)
                     for k, m in Counter(mu).items())


@pytest.mark.parametrize("n", range(9))
def test_character_columns_are_orthogonal(n):
    # sum_lambda chi^lambda(mu) chi^lambda(nu) = z_mu delta_{mu nu}
    lams = partitions_of(n)
    for mu in lams:
        for nu in lams:
            total = sum(character(lam, mu) * character(lam, nu)
                        for lam in lams)
            assert total == (z(mu) if mu == nu else 0), (mu, nu)


@pytest.mark.parametrize("n", range(9))
def test_character_of_identity_is_hook_length_count(n):
    for lam in partitions_of(n):
        conj = [sum(part > j for part in lam) for j in range(lam[0])] \
            if lam else []
        hooks = math.prod(part - j + conj[j] - i - 1
                          for i, part in enumerate(lam) for j in range(part))
        assert character(lam, (1,) * n) == math.factorial(n) // hooks, lam


# ---------------------------------------------------------------- schur


def test_schur_small_partitions():
    def h(n):
        return ref.h_series(n, M)[n]

    assert schur(Partition(()), M) == {(0,) * M: 1}
    assert schur(Partition((2,)), M) == h(2)
    # s_{11} = h1^2 - h2 = t1^2/2 - t2
    assert schur(Partition((1, 1)), M) == ref.sub(ref.mul(h(1), h(1)), h(2))
    # s_{22} = h2^2 - h3 h1
    assert schur(Partition((2, 2)), M) == ref.sub(ref.mul(h(2), h(2)),
                                                  ref.mul(h(3), h(1)))


def test_schur_weight_grading():
    for lam in partitions_up_to(5):
        poly = schur(lam, M)
        weight = sum(lam.parts)
        for exp in poly:
            assert sum((i + 1) * e for i, e in enumerate(exp)) == weight


def test_schur_leaves_no_cyclic_garbage():
    # a Schur function leaves nothing behind for the cycle collector; the
    # character cache is built on the first pass and kept on purpose
    for lam in partitions_up_to(5):
        schur(lam, M)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for lam in partitions_up_to(5):
            schur(lam, M)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# ------------------------------------------------------------ kp residual


def test_kp_residual_vanishes_on_schur():
    for lam in partitions_up_to(6):
        assert kp_bilinear_residual(schur(lam, M), M) == {}


def test_kp_residual_negative_control():
    one, t1_4 = (0,) * M, (4,) + (0,) * (M - 1)
    residual = kp_bilinear_residual({one: Fraction(1), t1_4: Fraction(1)}, M)
    assert residual == {one: 24, t1_4: 72}


def test_kp_residual_rejects_exponents_of_another_width():
    # m is the width of tau's exponent tuples, not only a lower bound
    two_vars = {(0, 0): Fraction(1), (4, 0): Fraction(1)}
    with pytest.raises(ValueError):
        kp_bilinear_residual(two_vars, 3)
    with pytest.raises(ValueError):
        kp_bilinear_residual({(0,) * M: Fraction(1),
                              (4,) + (0,) * M: Fraction(1)}, M)
    assert kp_bilinear_residual({}, 3) == {}


# the partitions in the 2 x 2 box, in the order of the Plucker relation
BOX_2X2 = [Partition(p) for p in ((), (1,), (2,), (1, 1), (2, 1), (2, 2))]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=6, max_size=6))
@example([1, 1, 1, 1, 1, 0])  # a Plucker point: 0 - 1 + 1
def test_kp_residual_on_the_2x2_box_is_the_plucker_relation(xi):
    # tau = sum of xi_lambda s_lambda over the 2 x 2 box, in 4 variables:
    # the residual is exactly the constant 12 times the one Plucker
    # relation of Gr(2, 4), so KP holds iff the xi are Plucker coordinates
    e, x1, x2, x11, x21, x22 = xi
    tau = add(*(scale(schur(lam, 4), c) for lam, c in zip(BOX_2X2, xi)))
    plucker = e * x22 - x1 * x21 + x2 * x11
    assert kp_bilinear_residual(tau, 4) == \
        ({(0, 0, 0, 0): 12 * plucker} if plucker else {})


def test_kp_residual_stores_no_zero_coefficient():
    # the three products cancel in one dict; the zeros they leave are
    # dropped on the way out, also where some terms survive
    rng = random.Random(5)
    lams = partitions_up_to(4)
    for _ in range(40):
        tau = add(*(scale(schur(lam, M), rng.randint(-3, 3))
                    for lam in rng.sample(lams, 3)))
        residual = kp_bilinear_residual(tau, M)
        assert all(c != 0 for c in residual.values())
        assert all(type(c) is Fraction for c in residual.values())


def test_kp_residual_bilinearity_in_scale():
    # residual is quadratic in tau: scaling tau by c scales it by c^2
    tau = schur(Partition((3, 1)), M)
    bumped = add(tau, scale(schur(Partition((2,)), M), Fraction(1, 3)))
    r1 = kp_bilinear_residual(bumped, M)
    r2 = kp_bilinear_residual(scale(bumped, Fraction(3, 2)), M)
    assert r2 == scale(r1, Fraction(9, 4))


def test_partitions_up_to_counts():
    # cumulative partition numbers: 1,1,2,3,5,7,11 -> 30 with |.| <= 6
    assert len(partitions_up_to(6)) == 30
    assert len(partitions_up_to(0)) == 1
