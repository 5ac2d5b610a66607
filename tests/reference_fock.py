"""Reference paths for `tauseq.fock`'s covacuum minors and insertions.

* `square_tau` and `square_insertion`, the full-square-matrix path that
  fock took before it drew only the covacuum block: select the
  neutral-vacuum rows of a 2sK x 2sK matrix g, then take the minor.
  `covacuum_block` reads those rows off, and `pad` puts a block back on
  them with any filler in the other rows, so the two paths can be
  compared on one block;
* `engine_insertion`, the Fock-engine path for one pair of components:
  the vacuum |n> is a one-term Fock vector, the two psi operators act on
  it through `fock.apply_psi` (beta first, then alpha), and the one wedge
  left is read off as a minor of the block, built here from its entries;
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
`kp.schur`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from tauseq.fock import (Block, FockVector, Wedge, Window, _covacuum_minor,
                         _wedge_slots, apply_p, apply_psi, tau_discrete,
                         vacuum)
from tauseq.intlinalg import det_exact
from tauseq.kp import add, scale
from tauseq.recurrence import Pair, octahedral_combination

Matrix = Sequence[Sequence[int]]

TauTable = dict[tuple[int, ...], int]


def _check(n: Sequence[int], pair: tuple[int, int], window: Window) -> None:
    alpha, beta = pair
    if not 1 <= alpha < beta <= window.components:
        raise ValueError("need 1 <= alpha < beta <= s")
    if sum(n) != -2:
        raise ValueError("charge vector must have degree -2")


def vacuum_rows(window: Window) -> list[int]:
    """Global slots of the neutral vacuum, in global order."""
    return _wedge_slots(vacuum((0,) * window.components, window), window)


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
    cols = _wedge_slots(wedge, window)
    return det_exact([[g[i][j] for j in cols] for i in vacuum_rows(window)])


def square_tau(g: Matrix, n: Sequence[int], window: Window) -> int:
    if sum(n) != 0:
        raise ValueError("charge vector must have degree 0")
    return square_minor(g, vacuum(n, window), window)


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
    cols = _wedge_slots(wedge, window)
    return coeff * det_exact([[row[j] for j in cols] for row in g])


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
    return sign * _covacuum_minor(g, wedge, window)


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
    p = lambda k, v: apply_p(0, k, v, w)
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
