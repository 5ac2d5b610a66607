"""Bilinear three-term recurrences compiled from the octahedral relation.

derive_recurrence projects the six octahedron points around a fixed
degree-(-2) base through a lattice quotient's covector w; the indices w . n
form the three offset pairs of
T(l+p1)T(l+q1) - T(l+p2)T(l+q2) + T(l+p3)T(l+q3) = 0.
generate runs such a recurrence forward over plain Python ints; a term
becomes an exact rational only where a division leaves a remainder, which
the Laurent phenomenon makes the uncommon case.

Convex polygons give positive Gale-Robinson recurrences.  Let e1..e4 be the
edges of a strictly convex ccw quadrilateral whose basis is torsion-free,
and p_ij = cross(e_i, e_j).  Then the derived recurrence has its top offset
in the minus pair pairs[1] only, and reads

    T(n) T(n-N) = T(n-p) T(n-N+p) + T(n-q) T(n-N+q),   0 < p, q < N,

the three-term Gale-Robinson recurrence, with N = p12 + p34 = twice the
area.  Its all-ones run is a sequence of positive integers.

Proof sketch.  Convexity gives p12, p23, p34 > 0 and p14 < 0, and
e4 = -(e1 + e2 + e3) gives p34 = p13 + p23 and -p14 = p12 + p13, so
p12 + p34 = p23 - p14 = N.  The pair (alpha beta | gamma delta) has the
common sum of all pairs and the spread w_alpha + w_beta - w_gamma - w_delta
up to sign, which adding the all-ones vector to w leaves unchanged.  With
w = (p23, -p13, p12, 0) the spreads are p23 + p14 for (12|34), N for the
minus pair (13|24), and p34 - p12 for (14|23); the first and last are
each a difference x - y of positive x, y with x + y = N, so |x - y| < N.
The minus pair thus holds the largest and the smallest offset alone, and
canonicalize_pairs keeps it in the middle.  Each step divides a sum of
products of earlier terms by an earlier term, so the run stays positive.
The recurrence is a projection of the octahedron recurrence (Speyer,
J. Algebraic Combin. 25, 2007), which is Laurent with positive
coefficients, so the run is integral (for p != q this is Fomin-Zelevinsky,
Adv. Appl. Math. 28, 2002).  The plus pairs coincide, giving
T(n) T(n-N) = 2 T(n-p) T(n-N+p), exactly when e1 || e3 (p13 = 0) or
e2 || e4 (p12 = p23).  tests/test_properties.py checks the statement on
random quadrilaterals with coordinates up to 50.

The scan's key.  Up to p <-> N - p and q <-> N - q, (N, p, q) =
(p12 + p13 + p23, p12, p12 + p13), and a plus pair T(n-p) T(n-N+p) is
the offsets (-(N-s)/2, -(N+s)/2) with spread s = |N - 2p|, beside the
minus pair (0, -N).  Reflection, translation and the plus-pair swap keep
the spreads, so (N, s_lo, s_hi), the plus spreads in order, fixes the
canonical pairs: scan.scan_one keys each cycle by it.  tests/test_scan.py
checks on every cycle at bounds 0-6 that the key gives derive_recurrence's
pairs, or that both skip the cycle as torsion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .lattice import LatticeError, SublatticeBasis, quotient_map

Pair = tuple[int, int]
SIGNS = (1, -1, 1)

# base point and the six octahedron shifts, in pairing order
# (alpha beta | gamma delta), (alpha gamma | beta delta), (alpha delta | beta gamma)
BASE_POINT = (0, 0, -1, -1)
PAIRINGS = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))


def octahedral_combination(t: Callable[[Pair], int]) -> int:
    """The octahedral relation's left side t12 t34 - t13 t24 + t14 t23,
    sum_i SIGNS[i] t(p_i) t(q_i) over the PAIRINGS (p_i | q_i), where t
    gives the value raised at a pair of 1-based components."""
    return sum(sign * t(p) * t(q) for sign, (p, q) in zip(SIGNS, PAIRINGS))


class UnsolvableError(LatticeError):
    """The top offset occurs more than once, in two pairs or twice in one
    pair; no step can solve for the top term."""

    def __init__(self, pairs: tuple[Pair, Pair, Pair], colliding: list[int]):
        self.pairs = pairs
        self.colliding = colliding
        super().__init__(
            f"degenerate recurrence: max offset shared by pairs {colliding} "
            f"of {pairs}")


@dataclass(frozen=True)
class BilinearRecurrence:
    """T(l+p1)T(l+q1) - T(l+p2)T(l+q2) + T(l+p3)T(l+q3) = 0 for all l."""

    pairs: tuple[Pair, Pair, Pair]

    def __post_init__(self) -> None:
        if any(p < q for p, q in self.pairs):
            raise ValueError("each pair must be ordered p >= q")
        offsets = [x for pair in self.pairs for x in pair]
        top = max(offsets)
        # one index per occurrence, so a pair (top, top) counts twice
        owners = [i for i, pair in enumerate(self.pairs)
                  for x in pair if x == top]
        if len(owners) != 1:
            raise UnsolvableError(self.pairs, owners)

    @property
    def window(self) -> int:
        offsets = [x for pair in self.pairs for x in pair]
        return max(offsets) - min(offsets)

    def to_json_dict(self) -> dict:
        return {"pairs": [list(p) for p in self.pairs],
                "signs": list(SIGNS),
                "window": self.window}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BilinearRecurrence":
        try:
            pairs = tuple(tuple(p) for p in obj["pairs"])
            signs = tuple(obj.get("signs", SIGNS))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError('recurrence JSON must be {"pairs": [[p, q], '
                             '[p, q], [p, q]]} of integers') from exc
        if len(pairs) != 3 or any(len(p) != 2 for p in pairs):
            raise ValueError("need exactly three pairs")
        # bool is an int subclass; floats and strings are not converted
        bad = [x for p in pairs for x in p if type(x) is not int]
        if bad:
            raise ValueError(f"offsets must be integers, got {bad[0]!r}")
        if signs != SIGNS or any(type(s) is not int for s in signs):
            raise ValueError("signs must be the integers (1, -1, 1)")
        return cls(pairs)  # type: ignore[arg-type]


def canonicalize_pairs(raw: Sequence[Sequence[int]]) -> tuple[Pair, Pair, Pair]:
    """Canonical form of an offset-pair triple.

    Freedoms used: ordering inside a pair, swapping the two plus-sign pairs,
    reflection l -> -l, and translation.  The translation is chosen so the
    common pair-sum is zero when it is even (centered form, as the printed
    Somos relations) and so the minimum offset is zero otherwise.
    """
    def orient(pairs):
        pairs = [tuple(sorted(p, reverse=True)) for p in pairs]
        plus = sorted([pairs[0], pairs[2]])
        return (plus[0], pairs[1], plus[1])

    def translate(pairs):
        total = pairs[0][0] + pairs[0][1]  # common to all three pairs
        if total % 2 == 0:
            shift = -total // 2
        else:
            shift = -min(x for pair in pairs for x in pair)
        return tuple((p + shift, q + shift) for p, q in pairs)

    reflected = [(-q, -p) for p, q in raw]
    candidates = [translate(orient(raw)), translate(orient(reflected))]
    return min(candidates)


def octahedron_points(w: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """The six points BASE_POINT + e_alpha + e_beta, in pairing order, each
    with its index w . point = w . BASE_POINT + w_alpha + w_beta."""
    base_index = sum(wi * ni for wi, ni in zip(w, BASE_POINT))
    points = []
    for pairing in PAIRINGS:
        for alpha, beta in pairing:
            n = list(BASE_POINT)
            n[alpha - 1] += 1
            n[beta - 1] += 1
            points.append((tuple(n), base_index + w[alpha - 1] + w[beta - 1]))
    return points


def derive_recurrence(basis: SublatticeBasis) -> BilinearRecurrence:
    """Compile the octahedral relation through the quotient of a basis."""
    idx = [index for _, index in octahedron_points(quotient_map(basis))]
    return BilinearRecurrence(canonicalize_pairs(
        list(zip(idx[::2], idx[1::2]))))


@dataclass
class SequenceRun:
    """Generated terms plus how the generation ended.

    status is "ok", "degenerate" (division by zero at status_index) or
    "non-integral" (first fractional term at status_index; the run then
    continues over exact rationals).
    """

    terms: list[int | Fraction]
    status: str = "ok"
    status_index: int | None = None
    seed_window: list[int | Fraction] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "terms": [term_str(t) for t in self.terms],
            "status": self.status,
            "status_index": self.status_index,
            "seed_window": [term_str(t) for t in self.seed_window],
        }


def term_str(t: int | Fraction) -> str:
    if type(t) is int:  # skips Fraction's costly ABC instance check
        return str(t)
    if isinstance(t, Fraction) and t.denominator != 1:
        return f"{t.numerator}/{t.denominator}"
    return str(int(t))


def generate(rec: BilinearRecurrence, count: int,
             init: Sequence[int] | None = None) -> SequenceRun:
    """Iterate the recurrence to `count` terms from an initial window.

    The default window is all ones.  Every step solves for the unique top
    term exactly with divmod; a nonzero remainder stores the exact rational
    quotient instead and marks the run "non-integral".
    """
    window = rec.window
    if count < window:
        raise ValueError(f"count must be >= window size {window}")
    if init is None:
        init = [1] * window
    if len(init) != window:
        raise ValueError(f"initial window must have length {window}")

    # shift offsets so the minimum is 0; the top term is then at l + top
    low = min(x for pair in rec.pairs for x in pair)
    pairs = [(p - low, q - low) for p, q in rec.pairs]
    top = max(x for pair in pairs for x in pair)
    owner = next(i for i, (p, q) in enumerate(pairs) if top in (p, q))
    p_o, q_o = pairs[owner]
    partner = q_o if p_o == top else p_o

    terms: list[int | Fraction] = list(init)
    run = SequenceRun(terms=terms, seed_window=list(init))
    for j in range(window, count):
        l = j - top
        acc = 0
        for i, (p, q) in enumerate(pairs):
            if i != owner:
                acc += SIGNS[i] * terms[l + p] * terms[l + q]
        divisor = SIGNS[owner] * terms[l + partner]
        if divisor == 0:
            run.status = "degenerate"
            run.status_index = j
            break
        value, rem = divmod(-acc, divisor)
        if rem:
            value = Fraction(-acc, divisor)
            if run.status == "ok":
                run.status = "non-integral"
                run.status_index = j
        terms.append(value)
    return run


# ---------------------------------------------------------------------------
# permutation action on tau tables
# ---------------------------------------------------------------------------

TauTable = dict[tuple[int, ...], int]


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
