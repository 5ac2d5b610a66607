"""Schur-polynomial tau functions and the bilinear KP residual, all exact.

A polynomial in variables t_1..t_m is a dict mapping length-m exponent
tuples to nonzero coefficients; `schur` returns one and
`kp_bilinear_residual` takes and returns one, with Fraction coefficients.
`add` and `scale` keep the type of the coefficients they are given and
treat keys as opaque, so they also serve tauseq.fock's vectors.

The variable convention throughout maps the bosonic operator p_k to
k * t_k.  The character expansion s_lambda = sum_mu chi^lambda(mu) p_mu /
z_mu (Macdonald, Symmetric Functions and Hall Polynomials, I.7), with
z_mu = prod_k k^m_k m_k! and m_k the number of parts of mu equal to k, then
puts chi^lambda(mu) / prod_k m_k! on the monomial prod_k t_k^m_k, so
s_(2) = t_1^2/2 + t_2.  These are the boson images s_lambda(p_k / k)|0>
= |lambda> of the Fock states (Miwa-Jimbo-Date, Solitons, ch. 9), which
tauseq.verify's states oracle checks.  `schur` reads each coefficient off
a character from the Murnaghan-Nakayama rule and multiplies no
polynomial.

The residual runs on packed keys and int coefficients.  `pack` puts the
exponent of t_k in bits [16(k-1), 16k) of one int, so `mul` multiplies two
monomials by adding their keys, and `diff` reads and decrements one field.
tau's exponents must stay below 2^15, so a sum of two never carries into
the next field.  The bilinear form takes three products, not four, since
tau_xx^2 - tau_y^2 = (tau_xx - tau_y)(tau_xx + tau_y); adding keys
commutes, so the identity is exact on packed keys too.  `mul` adds each
product into one dict, and coefficients that cancel are dropped once, on
the way out.  tau's denominators are cleared once on the way in and
divided out once on the way out, with keys unpacked to tuples.  That
division and the character quotients of `schur` are the only places
Fraction is left.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod

from .maya import Partition

Exponent = tuple[int, ...]
MultiPoly = dict[Exponent, int | Fraction]
PackedPoly = dict[int, int]  # packed exponent key -> int coefficient

_BITS = 16  # width of one exponent field of a packed key
_FIELD = (1 << _BITS) - 1
_LIMIT = 1 << _BITS - 1  # bound on tau's exponents: a product never carries


def add(*polys: MultiPoly) -> MultiPoly:
    out: MultiPoly = {}
    for p in polys:
        for exp, c in p.items():
            new = out.get(exp, 0) + c
            if new:
                out[exp] = new
            else:
                out.pop(exp, None)
    return out


def scale(p: MultiPoly, c: int | Fraction) -> MultiPoly:
    return {exp: c * x for exp, x in p.items()} if c else {}


def pack(exp: Exponent) -> int:
    """The packed key of an exponent tuple: t_k's exponent in bits
    [16(k-1), 16k)."""
    key = 0
    for e in reversed(exp):
        if not 0 <= e < _LIMIT:
            raise ValueError(f"exponent {e} outside [0, {_LIMIT})")
        key = key << _BITS | e
    return key


def unpack(key: int, width: int) -> Exponent:
    return tuple(key >> _BITS * i & _FIELD for i in range(width))


def mul(p: PackedPoly, q: PackedPoly, k: int, out: PackedPoly) -> None:
    """Add k * p * q into out.  Coefficients that cancel stay in out as
    zeros, so the caller drops them once, after its last product."""
    get = out.get
    terms = list(q.items())
    for ea, ca in p.items():
        ca *= k
        for eb, cb in terms:
            exp = ea + eb
            out[exp] = get(exp, 0) + ca * cb


def diff(p: PackedPoly, var: int) -> PackedPoly:
    """Exact partial derivative d/dt_var (1-based var) on packed keys."""
    shift = _BITS * (var - 1)
    one = 1 << shift
    # distinct keys stay distinct, so nothing collides or cancels
    return {key - one: c * e for key, c in p.items()
            if (e := key >> shift & _FIELD)}


def render(p: MultiPoly) -> str:
    """Deterministic form of a nonzero p, e.g. "3/2*t1^2*t3 + t2"."""
    pieces = []
    for exp in sorted(p, key=lambda e: (sum(e), e), reverse=True):
        c = p[exp]
        factors = [f"t{i + 1}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(exp) if e]
        if not factors:
            pieces.append(str(c))
        elif c == 1:
            pieces.append("*".join(factors))
        elif c == -1:
            pieces.append("-" + "*".join(factors))
        else:
            pieces.append(f"{c}*" + "*".join(factors))
    return " + ".join(pieces).replace("+ -", "- ")


@cache
def character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi^lam(mu) for partitions lam, mu of one weight, by the
    Murnaghan-Nakayama rule, removing mu's first part k.

    On the beta-numbers b_i = lam_i + ell - i, removing a rim hook of size
    k moves one bead from b to b - k, onto an empty place, with sign
    (-1)^(number of beads it jumps).
    """
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    ell = len(lam)
    beads = [part + ell - i for i, part in enumerate(lam, 1)]
    total = 0
    for b in beads:
        if b < k or b - k in beads:
            continue
        moved = sorted([c for c in beads if c != b] + [b - k], reverse=True)
        smaller = tuple(c + i - ell for i, c in enumerate(moved, 1))
        sign = -1 if sum(b - k < c < b for c in beads) % 2 else 1
        total += sign * character(tuple(p for p in smaller if p), rest)
    return total


def schur(lam: Partition, m: int) -> MultiPoly:
    """Schur polynomial s_lambda in t_1..t_m: the monomial prod_k t_k^m_k
    of each mu |- |lambda| with m_k parts k has coefficient
    chi^lambda(mu) / prod_k m_k!."""
    if m < lam.size:
        raise ValueError(f"need m >= |lambda| = {lam.size}")
    out: MultiPoly = {}
    for mu in _partitions_of(lam.size):
        chi = character(lam.parts, mu)
        if chi:
            exp = [0] * m
            for part in mu:
                exp[part - 1] += 1
            out[tuple(exp)] = Fraction(chi, prod(map(factorial, exp)))
    return out


def kp_bilinear_residual(tau: MultiPoly, m: int) -> MultiPoly:
    """Exact bilinear KP combination in x = t_1, y = t_2, t = t_3.

    tau*tau_xxxx - 4 tau_xxx tau_x + 3 tau_xx^2
      - 4 (tau*tau_xt - tau_x tau_t) + 3 (tau*tau_yy - tau_y^2)

    It is evaluated as three products, grouped by left factor and with
    tau_xx^2 - tau_y^2 = (tau_xx - tau_y)(tau_xx + tau_y):

    tau (tau_xxxx - 4 tau_xt + 3 tau_yy) - 4 tau_x (tau_xxx - tau_t)
      + 3 (tau_xx - tau_y)(tau_xx + tau_y)

    tau's exponent tuples all have length m >= 3.  The residual is bilinear
    in tau, so it is computed on D * tau, where D is the lcm of tau's
    coefficient denominators, and divided by D^2.
    """
    if m < 3:
        raise ValueError("tau must use at least 3 variables")
    if set(map(len, tau)) - {m}:
        raise ValueError(f"tau's exponent tuples must have length {m}")
    # a list, not a generator: CPython builds a tuple of a generator by
    # resizing, which strands tuples on its free lists, so peak RSS creeps
    denom = lcm(*[c.denominator for c in tau.values()])
    t = {pack(exp): c.numerator * (denom // c.denominator)
         for exp, c in tau.items()}
    t_x, t_y, t_t = diff(t, 1), diff(t, 2), diff(t, 3)
    t_xx = diff(t_x, 1)
    t_xxx = diff(t_xx, 1)
    residual: PackedPoly = {}
    mul(t, add(diff(t_xxx, 1), scale(diff(t_x, 3), -4),
               scale(diff(t_y, 2), 3)), 1, residual)
    mul(t_x, add(t_xxx, scale(t_t, -1)), -4, residual)
    mul(add(t_xx, scale(t_y, -1)), add(t_xx, t_y), 3, residual)
    square = denom * denom
    return {unpack(key, m): Fraction(c, square)
            for key, c in residual.items() if c}


def partitions_up_to(max_weight: int) -> list[Partition]:
    """All partitions with |lambda| <= max_weight (empty one included)."""
    out = [Partition(())]
    for n in range(1, max_weight + 1):
        out.extend(Partition(p) for p in _partitions_of(n))
    return out


@cache
def _partitions_of(n: int, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """The partitions of n with parts at most cap (default n), in
    decreasing lexicographic order; a tuple, so the cached value is
    shared safely."""
    cap = n if cap is None else cap
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(min(n, cap), 0, -1)
                 for rest in _partitions_of(n - first, first))
