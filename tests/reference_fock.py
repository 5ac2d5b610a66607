"""Reference fermionic insertion: the Fock-engine path that
`tauseq.fock.tau_with_insertions` replaced with a closed-form sign times
one minor.  The vacuum |n> is a one-term Fock vector, the two psi
operators act on it through `fock.apply_psi` (beta first, then alpha),
and the one wedge left is read off as a minor of g on the neutral-vacuum
rows, built here from the matrix entries.  Tests compare the closed form
against it.
"""

from __future__ import annotations

from typing import Sequence

from tauseq.fock import (FockVector, GroupElement, Window, _wedge_slots,
                         apply_psi, vacuum)
from tauseq.intlinalg import det_exact


def tau_with_insertions(g: GroupElement, n: Sequence[int],
                        pair: tuple[int, int], window: Window) -> int:
    """<g| psi_{alpha, n_alpha+1/2} psi_{beta, n_beta+1/2} |n> by the
    operator engine."""
    alpha, beta = pair
    if not 1 <= alpha < beta <= window.components:
        raise ValueError("need 1 <= alpha < beta <= s")
    if sum(n) != -2:
        raise ValueError("charge vector must have degree -2")
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
