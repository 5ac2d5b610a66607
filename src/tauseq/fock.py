"""Finite-window fermionic Fock spaces and brute-force identity checks.

The infinite semi-infinite-wedge space is truncated to a window of 2K
half-integer positions per component.  A Fock vector is one-component: a
sparse dict from the descending tuple of occupied positions to an int
coefficient.  Minors are ints too, and every check below is an exact
identity, never approximate.  The one Fock operator is the current p_k,
applied as particle hops: tauseq.verify builds the boson-fermion states
s_lambda(p_k / k)|0> from chains of apply_p on the vacuum.

A group element g enters only through <Omega| g, so it is held as its
covacuum block (Block): the s*K rows of g on the neutral-vacuum slots.

The Plucker oracles read brackets, maximal minors of a random integer
draw: common vectors followed by the inserted ones.  The Grassmann-Plucker
relations hold among the maximal minors of every integer matrix (Fulton,
Young Tableaux 9.1), so no draw is checked or redrawn; a dependent common
block makes every bracket 0.  Blocks and draws take all their entries from
one batched getrandbits rejection pass (_uniform_ints), whose values and
generator state equal one rng.randint per entry: a seed draws the same
integers as it always has.  The three-term relation reads its six
brackets off one elimination, as the octahedron oracle does.

Conventions (all signs derive from these two choices):
  * positions are stored as ints via p -> p - 1/2 (as in tauseq.maya);
  * the global slot order is component ascending, then position descending,
    matching the left-to-right wedge notation within one component.
So position p of component c is column 2K c + K - 1 - p of a block.  The
vacuum |n> of a charge vector n occupies {p < n_c} in each component c,
the last K + n_c of its 2K columns, and the free slot n_c is the column
just before them.  _vacuum_columns is the one place that reads columns off
a charge vector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Sequence

from .intlinalg import det_exact, pair_minors
from .recurrence import octahedral_combination

FockVector = dict[tuple[int, ...], int]  # occupied positions, descending
Block = tuple[tuple[int, ...], ...]  # s*K rows of 2sK entries
PLUCKER3_DIM, PLUCKER4_DIM = 6, 9  # the least ambient dimension of each draw


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

    def check_headroom(self, n: Sequence[int]) -> None:
        if len(n) != self.components:
            raise ValueError("charge vector length != component count")
        if any(abs(c) > self.cutoff - 2 for c in n):
            raise ValueError(
                f"charge vector {tuple(n)} exceeds headroom |n_c| <= K-2")


def apply_p(k: int, vec: FockVector, window: Window) -> FockVector:
    """Current operator p_k = sum_i psi_{i+k} psi*_i: each term's particle
    at i hops to an empty j = i + k, with sign (-1)^(particles strictly
    between i and j).

    Hops that leave the window are dropped (truncation policy); callers
    must keep enough headroom for the identity they check.
    """
    if k == 0 or abs(k) > 2 * window.cutoff:
        raise ValueError("k must be nonzero with |k| <= 2K")
    out: FockVector = {}
    for occ, coeff in vec.items():
        for i in occ:
            j = i + k
            if j in occ or j not in window.positions:
                continue
            lo, hi = min(i, j), max(i, j)
            passed = sum(1 for q in occ if lo < q < hi)
            hopped = tuple(sorted([q for q in occ if q != i] + [j],
                                  reverse=True))
            out[hopped] = out.get(hopped, 0) + (-coeff if passed % 2
                                                else coeff)
    # two hops can land on one state and cancel
    return {occ: c for occ, c in out.items() if c}


def _uniform_ints(rng: random.Random, bound: int, count: int) -> list[int]:
    """[rng.randint(-bound, bound) for _ in range(count)], and the same
    generator state after it, without randint's three Python frames per
    value.

    randint(-bound, bound) is -bound + r for the first r = getrandbits(k)
    below width = 2 bound + 1, k = width.bit_length(), drawing again while
    r >= width.  Each batch here draws exactly the values still missing and
    keeps those below width in order, so the last draw is the last accepted
    value and the stream is used exactly as randint uses it."""
    width = 2 * bound + 1
    k = width.bit_length()
    getrandbits = rng.getrandbits
    values: list[int] = []
    while len(values) < count:
        values += [r - bound for r in map(getrandbits,
                                           repeat(k, count - len(values)))
                   if r < width]
    return values


def random_group_element(window: Window, rng: random.Random,
                         bound: int = 3) -> Block:
    """The covacuum rows of a random integer g, row r on the r-th
    neutral-vacuum slot, drawn row by row with entries in [-bound, bound].

    Every tau value is a maximal minor of these rows, and the relations
    among those minors are Grassmann-Plucker identities that hold for every
    integer block (Fulton, Young Tableaux 9.1): no other row of g is read,
    and g need not be invertible, so nothing checks that it is.

    The entries come from one _uniform_ints pass cut into rows, the same
    values and generator state as one rng.randint(-bound, bound) per entry."""
    size = window.size
    entries = _uniform_ints(rng, bound,
                            window.components * window.cutoff * size)
    return tuple(tuple(entries[i:i + size])
                 for i in range(0, len(entries), size))


def _vacuum_columns(n: Sequence[int], window: Window) -> list[range]:
    """The columns of the vacuum |n>, one range per component c (the last
    K + n_c of its 2K); the free slot n_c is the column before its range."""
    window.check_headroom(n)
    k = window.cutoff
    return [range(2 * k * c + k - nc, 2 * k * (c + 1))
            for c, nc in enumerate(n)]


def tau_discrete(g: Block, n: Sequence[int], window: Window) -> int:
    """Discrete tau value <Omega| g |n> as a maximal minor of the covacuum
    block g: its s*K rows on the s*K columns of |n>, which
    _vacuum_columns reads straight off n."""
    if sum(n) != 0:
        raise ValueError("charge vector must have degree 0")
    cols = [*chain.from_iterable(_vacuum_columns(n, window))]
    return det_exact(list(map(itemgetter(*cols), g)))


def tau_with_insertions(g: Block, n: Sequence[int],
                        window: Window) -> dict[tuple[int, int], int]:
    """{(alpha, beta): <g| psi_{alpha, n_alpha+1/2} psi_{beta, n_beta+1/2} |n>}
    for every pair of components 1 <= alpha < beta <= s, exact; deg(n) = -2.

    Each insertion fills the free slot n_c on top of its component, the
    column just before the component's vacuum columns, so a value is the
    minor of the covacuum block g on the columns of |n> followed by
    the two inserted columns: the wedge v_alpha v_beta |n> with its two
    front vectors moved past the s*K - 2 vacuum slots, an even
    permutation.  All those minors share the vacuum columns and come from
    one elimination.
    """
    if sum(n) != -2:
        raise ValueError("charge vector must have degree -2")
    ranges = _vacuum_columns(n, window)
    cols = [*chain.from_iterable(ranges), *(r.start - 1 for r in ranges)]
    minors = pair_minors(list(map(itemgetter(*cols), g)))
    return {(i + 1, j + 1): value for (i, j), value in minors.items()}


def octahedron_residual(g: Block, n: Sequence[int], window: Window) -> int:
    """Exact residual of the three-term octahedral identity at base n, from
    the six insertion values of tau_with_insertions.

    Zero for every integer block g: the identity is a Grassmann-Plucker
    relation among its maximal minors (Fulton, Young Tableaux 9.1), the
    discrete Hirota/Plucker identity the rest of the package builds on.

    So this residual cannot fail at runtime.  The six values come from one
    elimination of the common columns, so they are, up to one common
    factor, the 2x2 minors of one 2x4 block, and the minors of any 2x4
    block satisfy the relation, which is homogeneous: six wrong values
    from a wrong elimination still give 0.  The guard of the values
    themselves is test_octahedron_insertions_match_entrywise_elimination
    in tests/test_fock.py, which compares them with the entry-by-entry
    elimination.
    """
    values = tau_with_insertions(g, n, window)
    return octahedral_combination(values.__getitem__)


# ---------------------------------------------------------------------------
# Plucker relations among the maximal minors of a random draw
# ---------------------------------------------------------------------------

def check_dim(dim: int, least: int) -> int:
    if dim < least:
        raise ValueError(f"need ambient dimension >= {least}")
    return dim


def _draw(dim: int, count: int, rng: random.Random) -> list[list[int]]:
    """count vectors of length dim, drawn row by row, entries in [-5, 5]:
    one _uniform_ints pass cut into rows, the same values and generator
    state as one rng.randint(-5, 5) per entry."""
    entries = _uniform_ints(rng, 5, dim * count)
    return [entries[i:i + dim] for i in range(0, dim * count, dim)]


def plucker3_residual(dim: int, seed: int) -> int:
    """Exact residual of the three-term Plucker relation
    br(a,b) br(c,d) - br(a,c) br(b,d) + br(a,d) br(b,c) on a random draw of
    dim - 2 common vectors and then a, b, c, d, where br(u, v) is the
    determinant of the common vectors followed by u and v.

    The six brackets are the pair minors of the transposed draw, from one
    elimination, and the relation is their octahedral combination.
    """
    check_dim(dim, PLUCKER3_DIM)
    rows = _draw(dim, dim + 2, random.Random(seed))
    minors = pair_minors(list(zip(*rows)))  # columns: common, then a, b, c, d
    return octahedral_combination(lambda p: minors[p[0] - 1, p[1] - 1])


def plucker4_residuals(dim: int, seed: int) -> dict:
    """Four-term generalized relation on a random draw of dim - 3 common
    vectors and then a, b, c, x, y, z, two readings, where br(u, v, w) is
    the determinant of the common vectors followed by u, v and w.

    "verbatim" evaluates the printed form, which repeats the vector a in the
    second factor of the 2nd and 4th terms; "symmetric" replaces that a by c,
    the exchange pattern suggested by the 3rd term.  Both residuals are
    returned so the empirical verdict can be reported rather than assumed.
    """
    check_dim(dim, PLUCKER4_DIM)
    *common, a, b, c, x, y, z = _draw(dim, dim + 3, random.Random(seed))
    br = lambda u, v, w: det_exact(common + [u, v, w])
    verbatim = (br(a, b, c) * br(x, y, z)
                - br(a, b, x) * br(a, y, z)
                + br(a, b, y) * br(c, x, z)
                - br(a, b, z) * br(a, x, y))
    symmetric = (br(a, b, c) * br(x, y, z)
                 - br(a, b, x) * br(c, y, z)
                 + br(a, b, y) * br(c, x, z)
                 - br(a, b, z) * br(c, x, y))
    return {"verbatim": verbatim, "symmetric": symmetric}
