"""Finite-window fermionic Fock spaces and brute-force identity checks.

The infinite semi-infinite-wedge space is truncated to a window of 2K
half-integer positions per component; with s components a basis wedge is a
choice of occupied positions in each component.  All coefficients are exact
rationals and every check below is an exact identity, never approximate.

Conventions (all signs derive from these two choices):
  * positions are stored as ints via p -> p - 1/2 (as in tauseq.maya);
  * the global slot order is component ascending, then position descending,
    matching the left-to-right wedge notation within one component.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intlinalg import det_exact

# One component's occupied positions, descending; a wedge is one tuple per
# component.  Coefficients live in dict[Wedge, Fraction] vectors.
Component = tuple[int, ...]
Wedge = tuple[Component, ...]
FockVector = dict[Wedge, Fraction]


@dataclass(frozen=True)
class Window:
    """Truncation: positions {-K, ..., K-1} (stored ints) per component."""

    cutoff: int
    components: int = 1

    def __post_init__(self) -> None:
        if self.cutoff < 2:
            raise ValueError("window cutoff must be >= 2")
        if self.components < 1:
            raise ValueError("need at least one component")

    @property
    def positions(self) -> range:
        return range(-self.cutoff, self.cutoff)

    @property
    def size(self) -> int:
        """Total number of slots s * 2K."""
        return self.components * 2 * self.cutoff

    def slot(self, component: int, pos: int) -> int:
        """Global slot index of (component, position), 0-based component."""
        k = self.cutoff
        if not -k <= pos < k:
            raise ValueError(f"position {pos} outside window K={k}")
        return component * 2 * k + (k - 1 - pos)

    def check_headroom(self, n: Sequence[int]) -> None:
        if len(n) != self.components:
            raise ValueError("charge vector length != component count")
        if any(abs(c) > self.cutoff - 2 for c in n):
            raise ValueError(
                f"charge vector {tuple(n)} exceeds headroom |n_c| <= K-2")


def vacuum(n: Sequence[int], window: Window) -> Wedge:
    """Basis wedge where component c occupies exactly {p < n_c}."""
    window.check_headroom(n)
    return tuple(
        tuple(range(min(nc, window.cutoff) - 1, -window.cutoff - 1, -1))
        for nc in n
    )


def _preceding(wedge: Wedge, component: int, pos: int) -> int:
    """Occupied slots strictly before (component, pos) in the global order."""
    count = sum(len(wedge[c]) for c in range(component))
    return count + sum(1 for q in wedge[component] if q > pos)


def apply_psi(component: int, pos: int, vec: FockVector,
              window: Window) -> FockVector:
    """Wedge the basis vector (component, pos) onto each term, with sign."""
    if pos not in window.positions:
        raise ValueError(f"position {pos} outside window")
    out: FockVector = {}
    for wedge, coeff in vec.items():
        occ = wedge[component]
        if pos in occ:
            continue  # v wedge v = 0
        sign = -1 if _preceding(wedge, component, pos) % 2 else 1
        new_comp = tuple(sorted(occ + (pos,), reverse=True))
        new_wedge = wedge[:component] + (new_comp,) + wedge[component + 1:]
        _accumulate(out, new_wedge, sign * coeff)
    return out


def apply_psi_star(component: int, pos: int, vec: FockVector,
                   window: Window) -> FockVector:
    """Contract the basis vector (component, pos) out of each term."""
    if pos not in window.positions:
        raise ValueError(f"position {pos} outside window")
    out: FockVector = {}
    for wedge, coeff in vec.items():
        occ = wedge[component]
        if pos not in occ:
            continue
        sign = -1 if _preceding(wedge, component, pos) % 2 else 1
        new_comp = tuple(q for q in occ if q != pos)
        new_wedge = wedge[:component] + (new_comp,) + wedge[component + 1:]
        _accumulate(out, new_wedge, sign * coeff)
    return out


def apply_p(component: int, k: int, vec: FockVector,
            window: Window) -> FockVector:
    """Current operator sum_i psi_{i+k} psi*_i on one component.

    Terms whose target position leaves the window are dropped (truncation
    policy); callers must keep enough headroom for the identity they check.
    """
    if k == 0 or abs(k) > 2 * window.cutoff:
        raise ValueError("k must be nonzero with |k| <= 2K")
    out: FockVector = {}
    for i in window.positions:
        if i + k not in window.positions:
            continue
        moved = apply_psi(component, i + k,
                          apply_psi_star(component, i, vec, window), window)
        for wedge, coeff in moved.items():
            _accumulate(out, wedge, coeff)
    return out


def _accumulate(vec: FockVector, wedge: Wedge, coeff: Fraction) -> None:
    new = vec.get(wedge, 0) + coeff
    if new:
        vec[wedge] = new
    else:
        vec.pop(wedge, None)


def vec_scale(vec: FockVector, c: Fraction) -> FockVector:
    return {w: c * x for w, x in vec.items()} if c else {}


def vec_add(*vecs: FockVector) -> FockVector:
    out: FockVector = {}
    for v in vecs:
        for w, x in v.items():
            _accumulate(out, w, x)
    return out


@dataclass(frozen=True)
class GroupElement:
    """Invertible integer matrix indexed by global slots."""

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("matrix must be square")
        if det_exact(self.matrix) == 0:
            raise ValueError("matrix must be invertible")


def random_group_element(window: Window, rng: random.Random,
                         bound: int = 3) -> GroupElement:
    """Random invertible integer matrix, entries uniform in [-bound, bound]."""
    n = window.size
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(n))
                  for _ in range(n))
        if det_exact(m) != 0:
            return GroupElement(m)


def _wedge_slots(wedge: Wedge, window: Window) -> list[int]:
    """Global slot indices of a wedge's occupied positions, in global order."""
    slots = []
    for c, occ in enumerate(wedge):
        slots.extend(window.slot(c, p) for p in occ)
    return slots


def _minor(g: GroupElement, rows: Sequence[int],
           cols: Sequence[int]) -> int:
    sub = [[g.matrix[i][j] for j in cols] for i in rows]
    return det_exact(sub)


def tau_discrete(g: GroupElement, n: Sequence[int],
                 window: Window) -> int:
    """Discrete tau value <Omega| g |n> as a minor of g.

    Rows are the neutral-vacuum slots, columns the slots of vacuum(n); both
    sets have size s*K, so the minor is square.
    """
    if sum(n) != 0:
        raise ValueError("charge vector must have degree 0")
    zero = (0,) * window.components
    rows = _wedge_slots(vacuum(zero, window), window)
    cols = _wedge_slots(vacuum(n, window), window)
    return _minor(g, rows, cols)


def tau_table(g: GroupElement, window: Window,
              bound: int | None = None) -> dict[tuple[int, ...], Fraction]:
    """All tau values on degree-0 charge vectors with |n_c| <= bound."""
    if bound is None:
        bound = window.cutoff - 2
    s = window.components
    table: dict[tuple[int, ...], Fraction] = {}

    def rec(prefix: tuple[int, ...]) -> None:
        if len(prefix) == s:
            if sum(prefix) == 0:
                table[prefix] = Fraction(tau_discrete(g, prefix, window))
            return
        remaining = s - len(prefix) - 1
        for c in range(-bound, bound + 1):
            if abs(sum(prefix) + c) <= bound * remaining or remaining == 0:
                rec(prefix + (c,))

    rec(())
    return table


def tau_with_insertions(g: GroupElement, n: Sequence[int],
                        pair: tuple[int, int],
                        window: Window) -> Fraction | int:
    """<g| psi_{alpha, n_alpha+1/2} psi_{beta, n_beta+1/2} |n>, exact.

    Components in `pair` are 1-based, alpha < beta, deg(n) = -2.  The two
    insertions raise the charges at alpha and beta by one; the value equals
    tau_discrete at the raised charge vector times the sorting parity.
    """
    alpha, beta = pair
    if not 1 <= alpha < beta <= window.components:
        raise ValueError("need 1 <= alpha < beta <= s")
    if sum(n) != -2:
        raise ValueError("charge vector must have degree -2")
    window.check_headroom(n)
    vec: FockVector = {vacuum(n, window): Fraction(1)}
    vec = apply_psi(beta - 1, n[beta - 1], vec, window)
    vec = apply_psi(alpha - 1, n[alpha - 1], vec, window)
    if not vec:
        return 0
    (wedge, coeff), = vec.items()
    zero = (0,) * window.components
    rows = _wedge_slots(vacuum(zero, window), window)
    cols = _wedge_slots(wedge, window)
    return coeff * _minor(g, rows, cols)


def octahedron_residual(g: GroupElement, n: Sequence[int],
                        window: Window) -> Fraction | int:
    """Exact residual of the three-term octahedral identity at base n.

    Zero for every invertible g — this is the discrete Hirota/Plucker
    identity the rest of the package builds on.
    """
    t = lambda p: tau_with_insertions(g, n, p, window)
    return (t((1, 2)) * t((3, 4))
            - t((1, 3)) * t((2, 4))
            + t((1, 4)) * t((2, 3)))


# ---------------------------------------------------------------------------
# boson-fermion state identities (single component)
# ---------------------------------------------------------------------------

def _wedge_over_l(top: tuple[int, int], window: Window) -> Wedge:
    """v_a v_b |L> with |L> occupying every position below -3/2."""
    hi, lo = top
    occ = tuple(sorted((hi, lo), reverse=True)) + tuple(
        range(-3, -window.cutoff - 1, -1))
    return (occ,)


def verify_state_identities(window: Window) -> list[dict]:
    """Check the six vacuum-descendant identities exactly.

    Each bosonic polynomial in the p_k operators must reproduce a single
    wedge state v_a v_b |L>.  Requires K >= 6 so no term leaves the window.
    """
    if window.cutoff < 6:
        raise ValueError("window too small: need K >= 6")
    w = Window(window.cutoff, 1)
    v0: FockVector = {vacuum((0,), w): Fraction(1)}
    p = lambda k, v: apply_p(0, k, v, w)
    half = Fraction(1, 2)

    states = {
        "vacuum": v0,
        "p1": p(1, v0),
        "(p1^2+p2)/2": vec_scale(vec_add(p(1, p(1, v0)), p(2, v0)), half),
        "(p1^2-p2)/2": vec_scale(vec_add(p(1, p(1, v0)),
                                         vec_scale(p(2, v0), Fraction(-1))),
                                 half),
        "(p1^3-p3)/3": vec_scale(
            vec_add(p(1, p(1, p(1, v0))),
                    vec_scale(p(3, v0), Fraction(-1))), Fraction(1, 3)),
        "(p1^4+3p2^2-4p1p3)/12": vec_scale(
            vec_add(p(1, p(1, p(1, p(1, v0)))),
                    vec_scale(p(2, p(2, v0)), Fraction(3)),
                    vec_scale(p(1, p(3, v0)), Fraction(-4))),
            Fraction(1, 12)),
    }
    # Pairings as the operator algebra derives them: the hook expansion of
    # p_2 gives (p1^2+p2)/2 |0> = v_{3/2} v_{-3/2} |L> (the one-row state)
    # and (p1^2-p2)/2 |0> = v_{1/2} v_{-1/2} |L> (the one-column state).
    expected_tops = {
        "vacuum": (-1, -2),                      # v_{-1/2} v_{-3/2}
        "p1": (0, -2),                           # v_{1/2} v_{-3/2}
        "(p1^2+p2)/2": (1, -2),                  # v_{3/2} v_{-3/2}
        "(p1^2-p2)/2": (0, -1),                  # v_{1/2} v_{-1/2}
        "(p1^3-p3)/3": (1, -1),                  # v_{3/2} v_{-1/2}
        "(p1^4+3p2^2-4p1p3)/12": (1, 0),         # v_{3/2} v_{1/2}
    }
    report = []
    for name, state in states.items():
        want: FockVector = {_wedge_over_l(expected_tops[name], w): Fraction(1)}
        diff = vec_add(state, vec_scale(want, Fraction(-1)))
        report.append({
            "identity": name,
            "ok": not diff,
            "diff": [{"wedge": [list(c) for c in wdg], "coeff": str(x)}
                     for wdg, x in sorted(diff.items())],
        })
    return report


# ---------------------------------------------------------------------------
# Plucker relations by brute-force determinants
# ---------------------------------------------------------------------------

def _bracket(l_prime: list[list[int]], inserted: list[list[int]],
             l_space: list[list[int]]) -> int:
    """<L'| u_1 ... u_r |L> as the determinant with those rows in order."""
    return det_exact(l_prime + inserted + l_space)


def _random_vec(dim: int, rng: random.Random, bound: int = 5) -> list[int]:
    return [rng.randint(-bound, bound) for _ in range(dim)]


def _independent(vecs: list[list[int]]) -> bool:
    """Rows independent over Q, i.e. their Gram determinant is nonzero."""
    return det_exact([[sum(x * y for x, y in zip(u, v)) for v in vecs]
                      for u in vecs]) != 0


def _draw_spaces(dim: int, codim: int, rng: random.Random,
                 max_retries: int = 50) -> tuple[list[list[int]], list[list[int]]]:
    """Random L', L with L' + L of full rank dim - codim."""
    total = dim - codim
    l_prime_size = total // 2
    for _ in range(max_retries):
        vecs = [_random_vec(dim, rng) for _ in range(total)]
        if _independent(vecs):
            return vecs[:l_prime_size], vecs[l_prime_size:]
    raise RuntimeError("could not draw non-degenerate spaces")


def plucker3_residual(dim: int, seed: int) -> int:
    """Exact residual of the 3-term Plucker relation on a random draw."""
    if dim < 6:
        raise ValueError("need ambient dimension >= 6")
    rng = random.Random(seed)
    l_prime, l_space = _draw_spaces(dim, 2, rng)
    a, b, c, d = (_random_vec(dim, rng) for _ in range(4))
    br = lambda u, v: _bracket(l_prime, [u, v], l_space)
    return br(a, b) * br(c, d) - br(a, c) * br(b, d) + br(a, d) * br(b, c)


def plucker4_residuals(dim: int, seed: int) -> dict:
    """Four-term generalized relation on a random draw, two readings.

    "verbatim" evaluates the printed form, which repeats the vector a in the
    second factor of the 2nd and 4th terms; "symmetric" replaces that a by c,
    the exchange pattern suggested by the 3rd term.  Both residuals are
    returned so the empirical verdict can be reported rather than assumed.
    """
    if dim < 9:
        raise ValueError("need ambient dimension >= 9")
    rng = random.Random(seed)
    l_prime, l_space = _draw_spaces(dim, 3, rng)
    a, b, c, x, y, z = (_random_vec(dim, rng) for _ in range(6))
    br = lambda u, v, w: _bracket(l_prime, [u, v, w], l_space)
    verbatim = (br(a, b, c) * br(x, y, z)
                - br(a, b, x) * br(a, y, z)
                + br(a, b, y) * br(c, x, z)
                - br(a, b, z) * br(a, x, y))
    symmetric = (br(a, b, c) * br(x, y, z)
                 - br(a, b, x) * br(c, y, z)
                 + br(a, b, y) * br(c, x, z)
                 - br(a, b, z) * br(c, x, y))
    return {"verbatim": verbatim, "symmetric": symmetric}
