import gc
import math
import random
from fractions import Fraction

import pytest

from tauseq import kp
from tauseq.kp import (add, const, diff, divide, h_series,
                       kp_bilinear_residual, mul, partitions_up_to, render,
                       scale, schur, sub, variable, zero)
from tauseq.maya import Partition

M = 6


def t(idx):
    return variable(idx, M)


def rand_poly(rng, m=M, terms=4, deg=3):
    out = zero()
    for _ in range(terms):
        exp = [0] * m
        for _ in range(rng.randint(0, deg)):
            exp[rng.randrange(m)] += 1
        out = add(out, scale({tuple(exp): Fraction(1)},
                             Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
    return out


# ------------------------------------------------------------- arithmetic


def test_ring_axioms_randomized():
    rng = random.Random(20)
    for _ in range(30):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert sub(a, a) == zero()
        assert mul(a, const(1, M)) == a
        assert mul(a, zero()) == zero()


def test_no_zero_coefficients_stored():
    rng = random.Random(8)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        for poly in (add(a, scale(a, -1)), sub(mul(a, b), mul(b, a))):
            assert all(c != 0 for c in poly.values())


def test_diff_examples():
    # d/dt1 (t1^2 t2) = 2 t1 t2
    p = mul(mul(t(1), t(1)), t(2))
    assert diff(p, 1) == scale(mul(t(1), t(2)), 2)
    assert diff(p, 2) == mul(t(1), t(1))
    assert diff(p, 3) == zero()
    assert diff(p, 1, order=2) == scale(t(2), 2)
    assert diff(const(7, M), 1) == zero()


def test_diff_commutes():
    rng = random.Random(13)
    for _ in range(20):
        p = rand_poly(rng)
        assert diff(diff(p, 1), 2) == diff(diff(p, 2), 1)


def test_diff_leibniz():
    rng = random.Random(2)
    for _ in range(10):
        a, b = rand_poly(rng), rand_poly(rng)
        lhs = diff(mul(a, b), 1)
        rhs = add(mul(diff(a, 1), b), mul(a, diff(b, 1)))
        assert lhs == rhs


def test_render_deterministic():
    p = add(scale(mul(mul(t(1), t(1)), t(3)), Fraction(3, 2)), t(2))
    assert render(p) == "3/2*t1^2*t3 + t2"
    assert render(zero()) == "0"


# ----------------------------------------------------- complete homogeneous
# h_series gives the integer series H_n = n! * h_n; h(n) divides it back.


def h(n):
    return divide(h_series(n, M)[n], math.factorial(n))


def test_h_series_small():
    hs = h_series(3, M)
    assert hs[0] == const(1, M)
    assert hs[1] == t(1)
    # h2 = t1^2/2 + t2 ; h3 = t1^3/6 + t1 t2 + t3
    assert hs[2] == scale(add(scale(mul(t(1), t(1)), Fraction(1, 2)), t(2)),
                          2)
    assert hs[3] == scale(add(scale(mul(mul(t(1), t(1)), t(1)),
                                    Fraction(1, 6)),
                              mul(t(1), t(2)), t(3)), 6)
    assert all(type(c) is int for poly in hs for c in poly.values())


def test_h_series_prefix_is_its_own_list():
    # a series is built once per variable count and shared between calls:
    # a shorter call after a longer one gets exactly its prefix, and a
    # caller that edits the returned list leaves later calls unchanged
    long = h_series(6, 7)
    short = h_series(2, 7)
    assert short == long[:3]
    short.append(zero())
    short[0] = zero()
    assert h_series(6, 7) == long


def test_h_series_matches_truncated_exponential():
    # sum_n h_n z^n = exp(sum_k t_k z^k): compare coefficient of z^n with
    # the explicit exponential expansion sum over compositions
    n_max = 8
    hs = h_series(n_max, n_max)
    # exp(sum_k t_k z^k) = prod_k (sum_a t_k^a z^{k a} / a!), built by
    # convolving one exponential factor at a time
    expected = [const(1, n_max)] + [zero() for _ in range(n_max)]
    for k in range(1, n_max + 1):
        nxt = [zero() for _ in range(n_max + 1)]
        for n in range(n_max + 1):
            power = const(1, n_max)
            fact = Fraction(1)
            a = 0
            while k * a <= n:
                nxt[n] = add(nxt[n],
                             scale(mul(expected[n - k * a], power), fact))
                a += 1
                power = mul(power, variable(k, n_max))
                fact /= a
        expected = nxt
    for n in range(n_max + 1):
        assert hs[n] == scale(expected[n], math.factorial(n))


# ---------------------------------------------------------------- schur


def test_schur_small_partitions():
    assert schur(Partition(()), M) == const(1, M)
    assert schur(Partition((2,)), M) == h(2)
    # s_{11} = h1^2 - h2 = t1^2/2 - t2
    assert schur(Partition((1, 1)), M) == sub(mul(t(1), t(1)), h(2))
    # s_{22} = h2^2 - h3 h1
    assert schur(Partition((2, 2)), M) == sub(mul(h(2), h(2)),
                                              mul(h(3), h(1)))


def test_schur_weight_grading():
    for lam in partitions_up_to(5):
        poly = schur(lam, M)
        weight = sum(lam.parts)
        for exp in poly:
            assert sum((i + 1) * e for i, e in enumerate(exp)) == weight


def test_schur_leaves_no_cyclic_garbage():
    # the determinant's memo of minors is freed when schur returns, not
    # kept alive by a reference cycle until the next full collection
    h_series(5, M)  # the shared series is built once and kept on purpose
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
        assert kp_bilinear_residual(schur(lam, M), M) == zero()


def test_kp_residual_negative_control():
    tau = add(const(1, M), mul(mul(t(1), t(1)), mul(t(1), t(1))))
    residual = kp_bilinear_residual(tau, M)
    expected = add(const(24, M),
                   scale(mul(mul(t(1), t(1)), mul(t(1), t(1))), 72))
    assert residual == expected


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
