"""Reference KP oracle: the all-Fraction Jacobi-Trudi path on exponent
tuples, which `tauseq.kp` replaced with Schur coefficients read off the
character table and a residual on packed keys and ints.  The complete
homogeneous h_n come from n*h_n = sum_k k*t_k*h_{n-k} with a Fraction
division at every step, the Jacobi-Trudi determinant is expanded on
Fraction polynomials, and the residual builds each derivative where it is
used.  It keeps its own polynomial helpers, so a defect in the fast
helpers cannot hide in both paths.  Tests compare the fast path against it.
"""

from __future__ import annotations

from fractions import Fraction

from tauseq.maya import Partition

Exponent = tuple[int, ...]
MultiPoly = dict[Exponent, Fraction]


def const(value, m: int) -> MultiPoly:
    c = Fraction(value)
    return {(0,) * m: c} if c else {}


def variable(idx: int, m: int) -> MultiPoly:
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


def scale(p: MultiPoly, c) -> MultiPoly:
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


def diff(p: MultiPoly, var: int) -> MultiPoly:
    out: MultiPoly = {}
    for exp, c in p.items():
        e = exp[var - 1]
        if e:
            new_exp = exp[:var - 1] + (e - 1,) + exp[var:]
            out[new_exp] = out.get(new_exp, Fraction(0)) + c * e
    return out


def h_series(max_n: int, m: int) -> list[MultiPoly]:
    """h_0..h_max_n with sum_n h_n z^n = exp(sum_{k<=m} t_k z^k)."""
    hs = [const(1, m)]
    for n in range(1, max_n + 1):
        acc: MultiPoly = {}
        for k in range(1, min(n, m) + 1):
            acc = add(acc, scale(mul(variable(k, m), hs[n - k]), k))
        hs.append(scale(acc, Fraction(1, n)))
    return hs


def schur(lam: Partition, m: int) -> MultiPoly:
    """Jacobi-Trudi det(h_{lam_i-i+j}), Laplace expansion with memo."""
    ell = len(lam.parts)
    if ell == 0:
        return const(1, m)
    max_h = max(lam.part(i + 1) - i + ell - 1 for i in range(ell))
    hs = h_series(max(max_h, 0), m)

    def h(n: int) -> MultiPoly:
        return hs[n] if 0 <= n < len(hs) else {}

    entries = [[h(lam.part(i + 1) - (i + 1) + (j + 1)) for j in range(ell)]
               for i in range(ell)]
    memo: dict[tuple[int, ...], MultiPoly] = {(): const(1, m)}

    def minor(cols: tuple[int, ...]) -> MultiPoly:
        if cols in memo:
            return memo[cols]
        row = ell - len(cols)
        acc: MultiPoly = {}
        for pos, col in enumerate(cols):
            term = mul(entries[row][col], minor(cols[:pos] + cols[pos + 1:]))
            acc = add(acc, term) if pos % 2 == 0 else sub(acc, term)
        memo[cols] = acc
        return acc

    return minor(tuple(range(ell)))


def kp_bilinear_residual(tau: MultiPoly) -> MultiPoly:
    """tau*tau_xxxx - 4 tau_xxx tau_x + 3 tau_xx^2
    - 4 (tau*tau_xt - tau_x tau_t) + 3 (tau*tau_yy - tau_y^2)."""
    def d(p: MultiPoly, *variables: int) -> MultiPoly:
        for v in variables:
            p = diff(p, v)
        return p

    t = tau
    return add(
        mul(t, d(t, 1, 1, 1, 1)),
        scale(mul(d(t, 1, 1, 1), d(t, 1)), -4),
        scale(mul(d(t, 1, 1), d(t, 1, 1)), 3),
        scale(sub(mul(t, d(t, 1, 3)), mul(d(t, 1), d(t, 3))), -4),
        scale(sub(mul(t, d(t, 2, 2)), mul(d(t, 2), d(t, 2))), 3),
    )
