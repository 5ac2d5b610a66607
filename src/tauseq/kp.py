"""Sparse multivariate polynomials over exact rationals, Schur-polynomial
tau functions, and the bilinear KP residual.

A polynomial in variables t_1..t_m is a dict mapping length-m exponent
tuples to nonzero Fractions.  The variable convention throughout maps the
bosonic operator p_k to k * t_k, so the Jacobi-Trudi output for the
partition (2) is t_1^2/2 + t_2, directly comparable to the Fock states.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .maya import Partition

Exponent = tuple[int, ...]
MultiPoly = dict[Exponent, Fraction]

DEFAULT_VARS = 8


def zero() -> MultiPoly:
    return {}


def const(value: int | Fraction, m: int = DEFAULT_VARS) -> MultiPoly:
    c = Fraction(value)
    return {(0,) * m: c} if c else {}


def variable(idx: int, m: int = DEFAULT_VARS) -> MultiPoly:
    """The polynomial t_idx (1-based variable index)."""
    if not 1 <= idx <= m:
        raise ValueError(f"variable index {idx} out of range 1..{m}")
    exp = [0] * m
    exp[idx - 1] = 1
    return {tuple(exp): Fraction(1)}


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
    c = Fraction(c)
    return {exp: c * x for exp, x in p.items()} if c else {}


def sub(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    return add(p, scale(q, -1))


def mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    out: MultiPoly = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            new = out.get(exp, 0) + ca * cb
            if new:
                out[exp] = new
            else:
                out.pop(exp, None)
    return out


def diff(p: MultiPoly, var: int, order: int = 1) -> MultiPoly:
    """Exact partial derivative d^order / dt_var^order (1-based var)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    for _ in range(order):
        out: MultiPoly = {}
        for exp, c in p.items():
            e = exp[var - 1]
            if e:
                new_exp = exp[:var - 1] + (e - 1,) + exp[var:]
                out[new_exp] = out.get(new_exp, Fraction(0)) + c * e
        p = out
    return p


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


def h_series(max_n: int, m: int = DEFAULT_VARS) -> list[MultiPoly]:
    """Complete homogeneous generators h_0..h_max_n in t_1..t_m.

    Defined by sum_n h_n z^n = exp(sum_{k<=m} t_k z^k), computed through the
    derivative recurrence n*h_n = sum_k k*t_k*h_{n-k}.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    hs = [const(1, m)]
    for n in range(1, max_n + 1):
        acc = zero()
        for k in range(1, min(n, m) + 1):
            acc = add(acc, scale(mul(variable(k, m), hs[n - k]), k))
        hs.append(scale(acc, Fraction(1, n)))
    return hs


def schur(lam: Partition, m: int = DEFAULT_VARS) -> MultiPoly:
    """Schur polynomial via the Jacobi-Trudi determinant det(h_{lam_i-i+j})."""
    if m < lam.size and lam.parts:
        raise ValueError(f"need m >= |lambda| = {lam.size}")
    ell = len(lam.parts)
    if ell == 0:
        return const(1, m)
    max_h = max(lam.part(i + 1) - i + ell - 1 for i in range(ell))
    hs = h_series(max(max_h, 0), m)

    def h(n: int) -> MultiPoly:
        return hs[n] if 0 <= n < len(hs) else zero()

    entries = [[h(lam.part(i + 1) - (i + 1) + (j + 1)) for j in range(ell)]
               for i in range(ell)]
    return _poly_det(entries, m)


def _poly_det(entries: list[list[MultiPoly]], m: int) -> MultiPoly:
    """Determinant of a polynomial matrix, Laplace expansion with memo."""
    ell = len(entries)
    memo: dict[tuple[int, ...], MultiPoly] = {(): const(1, m)}

    def minor(cols: tuple[int, ...]) -> MultiPoly:
        if cols in memo:
            return memo[cols]
        row = ell - len(cols)
        acc = zero()
        for pos, col in enumerate(cols):
            term = mul(entries[row][col], minor(cols[:pos] + cols[pos + 1:]))
            acc = add(acc, term) if pos % 2 == 0 else sub(acc, term)
        memo[cols] = acc
        return acc

    return minor(tuple(range(ell)))


def kp_bilinear_residual(tau: MultiPoly, m: int = DEFAULT_VARS) -> MultiPoly:
    """Exact bilinear KP combination in x = t_1, y = t_2, t = t_3.

    tau*tau_xxxx - 4 tau_xxx tau_x + 3 tau_xx^2
      - 4 (tau*tau_xt - tau_x tau_t) + 3 (tau*tau_yy - tau_y^2)
    """
    if m < 3:
        raise ValueError("tau must use at least 3 variables")
    d = lambda p, *vars_: _multi_diff(p, vars_)
    t = tau
    return add(
        mul(t, d(t, 1, 1, 1, 1)),
        scale(mul(d(t, 1, 1, 1), d(t, 1)), -4),
        scale(mul(d(t, 1, 1), d(t, 1, 1)), 3),
        scale(sub(mul(t, d(t, 1, 3)), mul(d(t, 1), d(t, 3))), -4),
        scale(sub(mul(t, d(t, 2, 2)), mul(d(t, 2), d(t, 2))), 3),
    )


def _multi_diff(p: MultiPoly, variables: Iterable[int]) -> MultiPoly:
    for v in variables:
        p = diff(p, v)
    return p


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
