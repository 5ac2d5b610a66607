"""Sparse multivariate polynomials, Schur-polynomial tau functions, and the
bilinear KP residual, all exact.

A polynomial in variables t_1..t_m is a dict mapping length-m exponent
tuples to nonzero coefficients.  The helpers (`add`, `scale`, `mul`,
`diff`, ...) keep the type of the coefficients they are given; `add` and
`scale` treat keys as opaque, so they also serve tauseq.fock's vectors.
`schur` and `kp_bilinear_residual` return Fraction coefficients, but work
on ints in between: `schur` expands an integer-scaled Jacobi-Trudi
determinant and divides once at the end, and `kp_bilinear_residual` clears
tau's denominators once on the way in and divides once on the way out.
Those two divisions are the only places Fraction is left.

The variable convention throughout maps the bosonic operator p_k to
k * t_k, so the Jacobi-Trudi output for the partition (2) is t_1^2/2 + t_2,
directly comparable to the Fock states.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import factorial, lcm, prod

from .maya import Partition

Exponent = tuple[int, ...]
MultiPoly = dict[Exponent, int | Fraction]

DEFAULT_VARS = 8


def zero() -> MultiPoly:
    return {}


def const(value: int | Fraction, m: int = DEFAULT_VARS) -> MultiPoly:
    return {(0,) * m: value} if value else {}


def variable(idx: int, m: int = DEFAULT_VARS) -> MultiPoly:
    """The polynomial t_idx (1-based variable index)."""
    if not 1 <= idx <= m:
        raise ValueError(f"variable index {idx} out of range 1..{m}")
    exp = [0] * m
    exp[idx - 1] = 1
    return {tuple(exp): 1}


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


def sub(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    return add(p, scale(q, -1))


def mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    out: MultiPoly = {}
    get, plus = out.get, operator.add
    for ea, ca in p.items():
        for eb, cb in q.items():
            exp = tuple(map(plus, ea, eb))
            out[exp] = get(exp, 0) + ca * cb
    return {exp: c for exp, c in out.items() if c}


def diff(p: MultiPoly, var: int, order: int = 1) -> MultiPoly:
    """Exact partial derivative d^order / dt_var^order (1-based var)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    for _ in range(order):
        # distinct exponents stay distinct, so nothing collides or cancels
        p = {exp[:var - 1] + (exp[var - 1] - 1,) + exp[var:]: c * exp[var - 1]
             for exp, c in p.items() if exp[var - 1]}
    return p


def divide(p: MultiPoly, d: int) -> MultiPoly:
    """p / d with Fraction coefficients: the way out of the int kernels."""
    return {exp: Fraction(c, d) for exp, c in p.items()}


def render(p: MultiPoly) -> str:
    """Deterministic human-readable form, e.g. "3/2*t1^2*t3 + t2"."""
    if not p:
        return "0"
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


# m -> H_0..H_n; a longer series is stored as a new list, never extended
_H_SERIES: dict[int, list[MultiPoly]] = {}


def h_series(max_n: int, m: int = DEFAULT_VARS) -> list[MultiPoly]:
    """Integer series H_n = n! * h_n for n = 0..max_n, in t_1..t_m.

    The complete homogeneous h_n are defined by
    sum_n h_n z^n = exp(sum_{k<=m} t_k z^k).  Their derivative recurrence
    n*h_n = sum_k k*t_k*h_{n-k}, multiplied by (n-1)!, becomes
    H_n = sum_k k*(n-1)!/(n-k)! * t_k * H_{n-k}, which stays on ints.
    Each H_n is built once per m and shared: callers must not change it.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    hs = list(_H_SERIES.get(m, [const(1, m)]))
    for n in range(len(hs), max_n + 1):
        acc = zero()
        falling = 1  # (n-1)!/(n-k)!
        for k in range(1, min(n, m) + 1):
            acc = add(acc, scale(mul(variable(k, m), hs[n - k]), k * falling))
            falling *= n - k
        hs.append(acc)
    _H_SERIES[m] = hs
    return hs[:max_n + 1]


def schur(lam: Partition, m: int = DEFAULT_VARS) -> MultiPoly:
    """Schur polynomial via the Jacobi-Trudi determinant det(h_{lam_i-i+j}).

    Row i is scaled by N_i! with N_i = lam_i - i + ell, the row's largest
    index, so its entry h_n becomes the integer (N_i!/n!) * H_n.  The
    determinant is expanded on ints and divided once by prod N_i!.
    """
    if m < lam.size and lam.parts:
        raise ValueError(f"need m >= |lambda| = {lam.size}")
    ell = len(lam.parts)
    if ell == 0:
        return const(Fraction(1), m)
    tops = [lam.part(i) - i + ell for i in range(1, ell + 1)]
    hs = h_series(max(tops), m)
    entries = [[scale(hs[n], factorial(top) // factorial(n)) if n >= 0
                else zero() for n in range(top - ell + 1, top + 1)]
               for top in tops]
    return divide(_poly_det(entries, m), prod(map(factorial, tops)))


def _poly_det(entries: list[list[MultiPoly]], m: int) -> MultiPoly:
    """Determinant of a polynomial matrix, Laplace expansion with memo.

    A zero entry is skipped, so its complementary minor is never built.
    """
    ell = len(entries)
    memo: dict[tuple[int, ...], MultiPoly] = {(): const(1, m)}

    def minor(cols: tuple[int, ...]) -> MultiPoly:
        if cols in memo:
            return memo[cols]
        row = ell - len(cols)
        terms = []
        for pos, col in enumerate(cols):
            if not entries[row][col]:
                continue
            term = mul(entries[row][col], minor(cols[:pos] + cols[pos + 1:]))
            terms.append(term if pos % 2 == 0 else scale(term, -1))
        memo[cols] = acc = add(*terms)
        return acc

    det = minor(tuple(range(ell)))
    del minor  # it refers to itself: free memo now, not at a full collection
    return det


def kp_bilinear_residual(tau: MultiPoly, m: int = DEFAULT_VARS) -> MultiPoly:
    """Exact bilinear KP combination in x = t_1, y = t_2, t = t_3.

    tau*tau_xxxx - 4 tau_xxx tau_x + 3 tau_xx^2
      - 4 (tau*tau_xt - tau_x tau_t) + 3 (tau*tau_yy - tau_y^2)

    The residual is bilinear in tau, so it is computed on D * tau, where D
    is the lcm of tau's coefficient denominators, and divided by D^2.
    """
    if m < 3:
        raise ValueError("tau must use at least 3 variables")
    denom = lcm(*(c.denominator for c in tau.values()))
    t = {exp: c.numerator * (denom // c.denominator)
         for exp, c in tau.items()}
    t_x, t_y, t_t = diff(t, 1), diff(t, 2), diff(t, 3)
    t_xx = diff(t_x, 1)
    t_xxx = diff(t_xx, 1)
    # grouped by left factor: tau * (tau_xxxx - 4 tau_xt + 3 tau_yy)
    #   - 4 tau_x (tau_xxx - tau_t) + 3 (tau_xx^2 - tau_y^2)
    residual = add(
        mul(t, add(diff(t_xxx, 1), scale(diff(t_x, 3), -4),
                   scale(diff(t_y, 2), 3))),
        scale(mul(t_x, sub(t_xxx, t_t)), -4),
        scale(sub(mul(t_xx, t_xx), mul(t_y, t_y)), 3),
    )
    return divide(residual, denom * denom)


def partitions_up_to(max_weight: int) -> list[Partition]:
    """All partitions with |lambda| <= max_weight (empty one included)."""
    out = [Partition(())]
    for n in range(1, max_weight + 1):
        out.extend(Partition(p) for p in _partitions_of(n))
    return out


def _partitions_of(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    result = []
    for first in range(min(n, cap), 0, -1):
        result.extend((first,) + rest for rest in _partitions_of(n - first, first))
    return result
