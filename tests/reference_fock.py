"""Reference fermionic insertions, one pair of components at a time, for
`tauseq.fock.tau_with_insertions`, which reads all pairs off one shared
elimination.  Tests compare it against both paths it replaced:

* `engine_insertion`, the Fock-engine path: the vacuum |n> is a one-term
  Fock vector, the two psi operators act on it through `fock.apply_psi`
  (beta first, then alpha), and the one wedge left is read off as a minor
  of g on the neutral-vacuum rows, built here from the matrix entries;
* `closed_form_insertion`, the per-pair closed form: one covacuum minor of
  the raised wedge times the sign of moving each psi past the occupied
  slots of every earlier component.
"""

from __future__ import annotations

from typing import Sequence

from tauseq.fock import (FockVector, GroupElement, Window, _covacuum_minor,
                         _wedge_slots, apply_psi, vacuum)
from tauseq.intlinalg import det_exact


def _check(n: Sequence[int], pair: tuple[int, int], window: Window) -> None:
    alpha, beta = pair
    if not 1 <= alpha < beta <= window.components:
        raise ValueError("need 1 <= alpha < beta <= s")
    if sum(n) != -2:
        raise ValueError("charge vector must have degree -2")


def engine_insertion(g: GroupElement, n: Sequence[int],
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
    rows = _wedge_slots(vacuum((0,) * window.components, window), window)
    cols = _wedge_slots(wedge, window)
    return coeff * det_exact([[g.matrix[i][j] for j in cols] for i in rows])


def closed_form_insertion(g: GroupElement, n: Sequence[int],
                          pair: tuple[int, int], window: Window) -> int:
    """The same value as one covacuum minor times a closed-form sign.

    Each insertion fills the free slot n_c on top of its component, so the
    value is the covacuum minor of that wedge times the sign of moving each
    psi past the n_c + K occupied slots of every earlier component c.
    """
    _check(n, pair, window)
    alpha, beta = pair
    wedge = list(vacuum(n, window))  # checks the headroom
    for c in (alpha - 1, beta - 1):
        wedge[c] = (n[c],) + wedge[c]
    passed = (sum(n[:alpha - 1]) + sum(n[:beta - 1])
              + window.cutoff * (alpha + beta - 2))
    sign = -1 if passed % 2 else 1
    return sign * _covacuum_minor(g, tuple(wedge), window)
