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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from tauseq.fock import (Block, FockVector, Wedge, Window, _covacuum_minor,
                         _wedge_slots, apply_psi, tau_discrete, vacuum)
from tauseq.intlinalg import det_exact
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


def _check(n: Sequence[int], pair: tuple[int, int], window: Window) -> None:
    alpha, beta = pair
    if not 1 <= alpha < beta <= window.components:
        raise ValueError("need 1 <= alpha < beta <= s")
    if sum(n) != -2:
        raise ValueError("charge vector must have degree -2")


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
