"""Reference paths for `tauseq.fock`'s covacuum minors, insertions and
current operator.

The Fock vectors here are multi-component: a `Wedge` is one descending
tuple of occupied positions per component, a `FockVector` a dict from
wedges to int coefficients, and `vacuum(n, window)` the basis wedge |n>
where component c occupies {p < n_c}.  `tauseq.fock` keeps one-component
vectors only (keyed by the bare position tuple), so a test that compares
`fock.apply_p` with `engine_apply_p` wraps or unwraps that tuple.

* the wedge -> slot translation that fock's tau path used before it read
  its columns straight off the charge vector: `slot` maps one
  (component, position) to its global slot, bounds-checked, `wedge_slots`
  maps every occupied position of a wedge in global order, and
  `covacuum_minor` is the minor of a covacuum block on a wedge's slots.
  Every path below reads its columns through these, so none of them shares
  `fock._vacuum_columns`;
* `square_tau` and `square_insertion`, the full-square-matrix path that
  fock took before it drew only the covacuum block: select the
  neutral-vacuum rows of a 2sK x 2sK matrix g, then take the minor.
  `covacuum_block` reads those rows off, and `pad` puts a block back on
  them with any filler in the other rows, so the two paths can be
  compared on one block;
* the two-operator engine that `fock.apply_p` was built from before it
  moved particles in one pass: `apply_psi` wedges a basis vector onto each
  term and `apply_psi_star` contracts one out, each with the sign of the
  occupied slots before it in the global order, and
  `engine_apply_p(component, k, vec, window)` is the current
  sum_i psi_{i+k} psi*_i on one component, the sum of its 2K passes;
* `engine_insertion`, the Fock-engine path for one pair of components:
  the vacuum |n> is a one-term Fock vector, the two psi operators act on
  it through `apply_psi` (beta first, then alpha), and the one wedge left
  is read off as a minor of the block, built here from its entries;
* `closed_form_insertion`, the per-pair closed form: one covacuum minor of
  the raised wedge times the sign of moving each psi past the occupied
  slots of every earlier component.

It also keeps the tau-table path of the permutation oracle, for
`tauseq.verify._acted_value`, which reads tau only at the points a probe
needs: `tau_table` holds every degree-0 value inside the headroom,
`act_permutation` builds the whole acted table, and
`table_octahedron_residual` reads the octahedral relation off it.

It keeps the bracket path the Plucker oracles took before they read
unchecked draws: `draw_spaces` redraws until a Gram determinant says the
common vectors are independent and splits them into L' and L, and
`bracket` is the determinant <L'| u_1 ... u_r |L> with those rows in
order.  `plucker3_combination` and `plucker4_combinations` evaluate the
relations on such brackets, and `plucker3_residual` and
`plucker4_residuals` on the seeded, Gram-checked draws.

`state_identities` is the hand-written table of six boson-fermion
identities that `verify states` checked before it read every state off
`kp.schur`, built with `engine_apply_p`.

`random_group_element`, `draw` and `random_base_point` are the per-entry
`rng.randint` draws that `fock.random_group_element`, `fock._draw` and
`verify._random_base_point` made before they took their entries from one
`fock._uniform_ints` pass; the two must agree in values and generator state.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from tauseq.fock import Block, Window, tau_discrete
from tauseq.intlinalg import det_exact
from tauseq.kp import add, scale
from tauseq.recurrence import Pair, octahedral_combination

# One component's occupied positions, descending; a wedge is one tuple per
# component.  Coefficients live in dict[Wedge, int] vectors.
Component = tuple[int, ...]
Wedge = tuple[Component, ...]
FockVector = dict[Wedge, int]
Matrix = Sequence[Sequence[int]]

TauTable = dict[tuple[int, ...], int]


def _check(n: Sequence[int], pair: tuple[int, int], window: Window) -> None:
    alpha, beta = pair
    if not 1 <= alpha < beta <= window.components:
        raise ValueError("need 1 <= alpha < beta <= s")
    if sum(n) != -2:
        raise ValueError("charge vector must have degree -2")


def vacuum(n: Sequence[int], window: Window) -> Wedge:
    """Basis wedge where component c occupies exactly {p < n_c}."""
    window.check_headroom(n)
    return tuple(
        tuple(range(nc - 1, -window.cutoff - 1, -1))
        for nc in n
    )


def slot(component: int, pos: int, window: Window) -> int:
    """Global slot index of (component, position), 0-based component."""
    k = window.cutoff
    if not -k <= pos < k:
        raise ValueError(f"position {pos} outside window K={k}")
    return component * 2 * k + (k - 1 - pos)


def wedge_slots(wedge: Wedge, window: Window) -> list[int]:
    """Global slot indices of a wedge's occupied positions, in global order."""
    slots = []
    for c, occ in enumerate(wedge):
        slots.extend(slot(c, p, window) for p in occ)
    return slots


def covacuum_minor(g: Block, wedge: Wedge, window: Window) -> int:
    """<Omega| g |wedge>: the minor of the covacuum block g on the wedge's
    columns, in global slot order."""
    cols = wedge_slots(wedge, window)
    return det_exact([[row[j] for j in cols] for row in g])


def vacuum_rows(window: Window) -> list[int]:
    """Global slots of the neutral vacuum, in global order."""
    return wedge_slots(vacuum((0,) * window.components, window), window)


def covacuum_block(g: Matrix, window: Window) -> Block:
    """The rows of a 2sK x 2sK matrix g on the neutral-vacuum slots."""
    return tuple(tuple(g[i]) for i in vacuum_rows(window))


def pad(block: Block, filler: Matrix, window: Window) -> list[list[int]]:
    """The square g with the block on the neutral-vacuum rows and the rows
    of filler, in order, on the other slots."""
    rows = dict(zip(vacuum_rows(window), block))
    spare = iter(filler)
    return [list(rows[i]) if i in rows else list(next(spare))
            for i in range(window.size)]


def square_minor(g: Matrix, wedge: Wedge, window: Window) -> int:
    """<Omega| g |wedge> of a square g: the minor on the neutral-vacuum
    rows and the wedge's columns, both in global slot order."""
    cols = wedge_slots(wedge, window)
    return det_exact([[g[i][j] for j in cols] for i in vacuum_rows(window)])


def square_tau(g: Matrix, n: Sequence[int], window: Window) -> int:
    if sum(n) != 0:
        raise ValueError("charge vector must have degree 0")
    return square_minor(g, vacuum(n, window), window)


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
        # adding a fixed position keeps distinct wedges apart: no collision
        out[new_wedge] = sign * coeff
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
        # removing a fixed position keeps distinct wedges apart: no collision
        out[new_wedge] = sign * coeff
    return out


def engine_apply_p(component: int, k: int, vec: FockVector,
                   window: Window) -> FockVector:
    """Current operator sum_i psi_{i+k} psi*_i on one component.

    Terms whose target position leaves the window are dropped (truncation
    policy); callers must keep enough headroom for the identity they check.
    """
    if k == 0 or abs(k) > 2 * window.cutoff:
        raise ValueError("k must be nonzero with |k| <= 2K")
    return add(*(apply_psi(component, i + k,
                           apply_psi_star(component, i, vec, window), window)
                 for i in window.positions if i + k in window.positions))


def engine_insertion(g: Block, n: Sequence[int],
                     pair: tuple[int, int], window: Window) -> int:
    """<g| psi_{alpha, n_alpha+1/2} psi_{beta, n_beta+1/2} |n> by the
    operator engine."""
    _check(n, pair, window)
    alpha, beta = pair
    window.check_headroom(n)
    vec: FockVector = {vacuum(n, window): 1}
    vec = apply_psi(beta - 1, n[beta - 1], vec, window)
    vec = apply_psi(alpha - 1, n[alpha - 1], vec, window)
    if not vec:
        return 0
    (wedge, coeff), = vec.items()
    return coeff * covacuum_minor(g, wedge, window)


def _raised(n: Sequence[int], pair: tuple[int, int],
            window: Window) -> tuple[Wedge, int]:
    """The wedge psi_alpha psi_beta |n> with each psi moved to the top of
    its component, and the sign of moving each psi past the n_c + K
    occupied slots of every earlier component c."""
    _check(n, pair, window)
    alpha, beta = pair
    wedge = list(vacuum(n, window))  # checks the headroom
    for c in (alpha - 1, beta - 1):
        wedge[c] = (n[c],) + wedge[c]
    passed = (sum(n[:alpha - 1]) + sum(n[:beta - 1])
              + window.cutoff * (alpha + beta - 2))
    return tuple(wedge), -1 if passed % 2 else 1


def closed_form_insertion(g: Block, n: Sequence[int],
                          pair: tuple[int, int], window: Window) -> int:
    """The same value as one covacuum minor times a closed-form sign:
    each insertion fills the free slot n_c on top of its component."""
    wedge, sign = _raised(n, pair, window)
    return sign * covacuum_minor(g, wedge, window)


def square_insertion(g: Matrix, n: Sequence[int],
                     pair: tuple[int, int], window: Window) -> int:
    """closed_form_insertion on a square g, by the square path's minor."""
    wedge, sign = _raised(n, pair, window)
    return sign * square_minor(g, wedge, window)


# ---------------------------------------------------------------------------
# permutation action on tau tables
# ---------------------------------------------------------------------------

def tau_table(g: Block, window: Window,
              bound: int | None = None) -> TauTable:
    """All tau values on degree-0 charge vectors with |n_c| <= bound."""
    if bound is None:
        bound = window.cutoff - 2
    charges = range(-bound, bound + 1)
    return {n: tau_discrete(g, n, window)
            for n in itertools.product(charges, repeat=window.components)
            if sum(n) == 0}


@dataclass(frozen=True)
class PermutationAction:
    """Permutation of components {1..s}, stored as a 1-based image tuple."""

    sigma: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.sigma) != list(range(1, len(self.sigma) + 1)):
            raise ValueError(f"not a permutation of 1..s: {self.sigma}")

    def apply(self, n: tuple[int, ...]) -> tuple[int, ...]:
        """Coordinate permutation: entry at alpha moves to slot sigma(alpha)."""
        out = [0] * len(n)
        for alpha, target in enumerate(self.sigma):
            out[target - 1] = n[alpha]
        return tuple(out)


def q_sigma(sigma: PermutationAction, n: Sequence[int]) -> int:
    """Quadratic form sum of n_alpha * n_beta over inversion pairs of sigma."""
    total = 0
    s = len(sigma.sigma)
    for alpha in range(s):
        for beta in range(alpha + 1, s):
            if sigma.sigma[alpha] > sigma.sigma[beta]:
                total += n[alpha] * n[beta]
    return total


def act_permutation(sigma: PermutationAction, table: TauTable) -> TauTable:
    """New table tau'(n) = (-1)^{q_sigma(n)} tau(sigma(n)).

    Entries whose permuted point is missing from the input table are
    dropped; on symmetric domains (all |n_c| <= bound) nothing is lost.
    """
    out: TauTable = {}
    for n in table:
        image = sigma.apply(n)
        if image in table:
            sign = -1 if q_sigma(sigma, n) % 2 else 1
            out[n] = sign * table[image]
    return out


def table_octahedron_residual(table: TauTable,
                              base: tuple[int, ...]) -> int:
    """Three-term octahedral residual read off a tau table at a base point."""
    def at(pair: Pair) -> int:
        n = list(base)
        for c in pair:
            n[c - 1] += 1
        return table[tuple(n)]

    return octahedral_combination(at)


# ---------------------------------------------------------------------------
# the six hand-written boson-fermion state identities
# ---------------------------------------------------------------------------

StateIdentity = tuple[str, tuple[int, ...], int, FockVector, tuple[int, int]]


def state_identities(window: Window) -> list[StateIdentity]:
    """(identity, partition, denominator d, d * state, target's top
    positions a > b) for six states P(p)|0> / d = v_a v_b |L>, where |L>
    occupies every position below -3/2 of the one-component window.

    Pairings as the operator algebra derives them: the hook expansion of
    p_2 gives (p1^2+p2)/2 |0> = v_{3/2} v_{-3/2} |L> (the one-row state)
    and (p1^2-p2)/2 |0> = v_{1/2} v_{-1/2} |L> (the one-column state).
    """
    w = Window(window.cutoff, 1)
    v0: FockVector = {vacuum((0,), w): 1}
    p = lambda k, v: engine_apply_p(0, k, v, w)
    p1, p2, p3 = (p(k, v0) for k in (1, 2, 3))
    p11 = p(1, p1)
    return [
        ("vacuum", (), 1, v0, (-1, -2)),                    # v_{-1/2} v_{-3/2}
        ("p1", (1,), 1, p1, (0, -2)),                       # v_{1/2} v_{-3/2}
        ("(p1^2+p2)/2", (2,), 2, add(p11, p2), (1, -2)),    # v_{3/2} v_{-3/2}
        ("(p1^2-p2)/2", (1, 1), 2, add(p11, scale(p2, -1)),
         (0, -1)),                                          # v_{1/2} v_{-1/2}
        ("(p1^3-p3)/3", (2, 1), 3, add(p(1, p11), scale(p3, -1)),
         (1, -1)),                                          # v_{3/2} v_{-1/2}
        ("(p1^4+3p2^2-4p1p3)/12", (2, 2), 12,
         add(p(1, p(1, p11)), scale(p(2, p2), 3), scale(p(1, p3), -4)),
         (1, 0)),                                           # v_{3/2} v_{1/2}
    ]


def wedge_over_l(top: tuple[int, int], window: Window) -> Wedge:
    """v_a v_b |L> (a > b) with |L> occupying every position below -3/2."""
    return (top + tuple(range(-3, -window.cutoff - 1, -1)),)


# ---------------------------------------------------------------------------
# Plucker brackets on checked draws
# ---------------------------------------------------------------------------

Vectors = list[list[int]]


def _independent(vecs: Vectors) -> bool:
    """Rows independent over Q, i.e. their Gram determinant is nonzero."""
    return det_exact([[sum(x * y for x, y in zip(u, v)) for v in vecs]
                      for u in vecs]) != 0


def draw_spaces(dim: int, codim: int, rng: random.Random,
                max_retries: int = 50) -> tuple[Vectors, Vectors]:
    """Random L', L with L' + L of full rank dim - codim, entries in
    [-5, 5], drawn row by row."""
    total = dim - codim
    for _ in range(max_retries):
        vecs = [[rng.randint(-5, 5) for _ in range(dim)]
                for _ in range(total)]
        if _independent(vecs):
            return vecs[:total // 2], vecs[total // 2:]
    raise RuntimeError("could not draw non-degenerate spaces")


def bracket(l_prime: Vectors, inserted: Vectors, l_space: Vectors) -> int:
    """<L'| u_1 ... u_r |L> as the determinant with those rows in order."""
    return det_exact(l_prime + inserted + l_space)


def plucker3_combination(l_prime: Vectors, l_space: Vectors,
                         extras: Vectors) -> int:
    a, b, c, d = extras
    br = lambda u, v: bracket(l_prime, [u, v], l_space)
    return br(a, b) * br(c, d) - br(a, c) * br(b, d) + br(a, d) * br(b, c)


def plucker4_combinations(l_prime: Vectors, l_space: Vectors,
                          extras: Vectors) -> dict[str, int]:
    a, b, c, x, y, z = extras
    br = lambda u, v, w: bracket(l_prime, [u, v, w], l_space)
    verbatim = (br(a, b, c) * br(x, y, z)
                - br(a, b, x) * br(a, y, z)
                + br(a, b, y) * br(c, x, z)
                - br(a, b, z) * br(a, x, y))
    symmetric = (br(a, b, c) * br(x, y, z)
                 - br(a, b, x) * br(c, y, z)
                 + br(a, b, y) * br(c, x, z)
                 - br(a, b, z) * br(c, x, y))
    return {"verbatim": verbatim, "symmetric": symmetric}


def _seeded(dim: int, codim: int, seed: int) -> tuple[Vectors, Vectors,
                                                      Vectors]:
    rng = random.Random(seed)
    l_prime, l_space = draw_spaces(dim, codim, rng)
    extras = [[rng.randint(-5, 5) for _ in range(dim)]
              for _ in range(2 * codim)]
    return l_prime, l_space, extras


def plucker3_residual(dim: int, seed: int) -> int:
    return plucker3_combination(*_seeded(dim, 2, seed))


def plucker4_residuals(dim: int, seed: int) -> dict[str, int]:
    return plucker4_combinations(*_seeded(dim, 3, seed))


# ---------------------------------------------------------------------------
# Per-entry randint draws
# ---------------------------------------------------------------------------

def random_group_element(window: Window, rng: random.Random,
                         bound: int = 3) -> Block:
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(window.size))
                 for _ in range(window.components * window.cutoff))


def draw(dim: int, count: int, rng: random.Random) -> list[list[int]]:
    return [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(count)]


def random_base_point(rng: random.Random, s: int) -> tuple[int, ...]:
    while True:
        n = tuple(rng.randint(-1, 1) for _ in range(s))
        if sum(n) == -2:
            return n
