"""Finite-window fermionic Fock spaces and brute-force identity checks.

The infinite semi-infinite-wedge space is truncated to a window of 2K
half-integer positions per component; with s components a basis wedge is a
choice of occupied positions in each component.  A Fock vector is a sparse
dict of int coefficients, combined by kp's add and scale; minors are ints
too, and every check below is an exact identity, never approximate.
tauseq.verify builds the boson-fermion states s_lambda(p_k / k)|0> from
chains of apply_p on the single-component vacuum.

A group element g enters only through <Omega| g, so it is held as its
covacuum block (Block): the s*K rows of g on the neutral-vacuum slots.

Conventions (all signs derive from these two choices):
  * positions are stored as ints via p -> p - 1/2 (as in tauseq.maya);
  * the global slot order is component ascending, then position descending,
    matching the left-to-right wedge notation within one component.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .intlinalg import det_exact, pair_minors
from .kp import add
from .recurrence import octahedral_combination

# One component's occupied positions, descending; a wedge is one tuple per
# component.  Coefficients live in dict[Wedge, int] vectors.
Component = tuple[int, ...]
Wedge = tuple[Component, ...]
FockVector = dict[Wedge, int]
Block = tuple[tuple[int, ...], ...]  # s*K rows of 2sK entries


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
        tuple(range(nc - 1, -window.cutoff - 1, -1))
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


def apply_p(component: int, k: int, vec: FockVector,
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


def random_group_element(window: Window, rng: random.Random,
                         bound: int = 3) -> Block:
    """The covacuum rows of a random integer g, row r on the r-th
    neutral-vacuum slot, drawn row by row with entries in [-bound, bound].

    Every tau value is a maximal minor of these rows, and the relations
    among those minors are Grassmann-Plucker identities that hold for every
    integer block (Fulton, Young Tableaux 9.1): no other row of g is read,
    and g need not be invertible, so nothing checks that it is."""
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(window.size))
                 for _ in range(window.components * window.cutoff))


def _wedge_slots(wedge: Wedge, window: Window) -> list[int]:
    """Global slot indices of a wedge's occupied positions, in global order."""
    slots = []
    for c, occ in enumerate(wedge):
        slots.extend(window.slot(c, p) for p in occ)
    return slots


def _covacuum_minor(g: Block, wedge: Wedge, window: Window) -> int:
    """<Omega| g |wedge>: the minor of the covacuum block g on the wedge's
    columns, in global slot order."""
    cols = _wedge_slots(wedge, window)
    return det_exact([[row[j] for j in cols] for row in g])


def tau_discrete(g: Block, n: Sequence[int], window: Window) -> int:
    """Discrete tau value <Omega| g |n> as a maximal minor of the covacuum
    block g: its s*K rows on the s*K columns of vacuum(n)."""
    if sum(n) != 0:
        raise ValueError("charge vector must have degree 0")
    return _covacuum_minor(g, vacuum(n, window), window)


def tau_with_insertions(g: Block, n: Sequence[int],
                        window: Window) -> dict[tuple[int, int], int]:
    """{(alpha, beta): <g| psi_{alpha, n_alpha+1/2} psi_{beta, n_beta+1/2} |n>}
    for every pair of components 1 <= alpha < beta <= s, exact; deg(n) = -2.

    Each insertion fills the free slot n_c on top of its component, so a
    value is the minor of the covacuum block g on the slots of vacuum(n)
    followed by the two inserted slots: the wedge v_alpha v_beta |n> with
    its two front vectors moved past the s*K - 2 vacuum slots, an even
    permutation.  All those minors share the vacuum columns and come from
    one elimination.
    """
    if sum(n) != -2:
        raise ValueError("charge vector must have degree -2")
    cols = _wedge_slots(vacuum(n, window), window)  # checks the headroom
    cols += [window.slot(c, nc) for c, nc in enumerate(n)]
    minors = pair_minors([[row[j] for j in cols] for row in g])
    return {(i + 1, j + 1): value for (i, j), value in minors.items()}


def octahedron_residual(g: Block, n: Sequence[int], window: Window) -> int:
    """Exact residual of the three-term octahedral identity at base n, from
    the six insertion values of tau_with_insertions.

    Zero for every integer block g: the identity is a Grassmann-Plucker
    relation among its maximal minors (Fulton, Young Tableaux 9.1), the
    discrete Hirota/Plucker identity the rest of the package builds on.
    """
    values = tau_with_insertions(g, n, window)
    return octahedral_combination(values.__getitem__)


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
