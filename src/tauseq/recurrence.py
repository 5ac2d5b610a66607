"""Bilinear three-term recurrences compiled from the octahedral relation.

derive_recurrence reads the offset pairs of
T(l+p1)T(l+q1) - T(l+p2)T(l+q2) + T(l+p3)T(l+q3) = 0 that a lattice
quotient gives the six octahedron points off the basis's three 2x2 minors
(spreads).  generate runs such a recurrence forward over plain Python ints;
a term becomes an exact rational only where a division leaves a remainder,
which the Laurent phenomenon makes the uncommon case.  Big steps divide
recursively (_divmod), the rest by the builtin, quadratic, divmod.

Each fact of a run is stated once.  A BilinearRecurrence sets its window
and its step plan in the pass that checks its top offset: the offsets of
the two products and of the divisor, each less the top offset, and whether
the products add or subtract.  So generate has no per-call setup: it
builds one list per run, which starts as the seed window, and each step
reads its terms off the end of that list.  The SequenceRun keeps the
window's length, not a copy of it.  SequenceRun.term_texts is the one
rule that turns a run into text, one str per distinct term through
term_str: to_json_dict takes its terms and its seed window (a slice) from
it, and so do scan's records.

Convex polygons give positive Gale-Robinson recurrences (spreads proves
it): a strictly convex ccw quadrilateral whose basis is torsion-free, with
p_ij = cross(e_i, e_j), derives, with its top offset in the minus pair
pairs[1] only,

    T(n) T(n-N) = T(n-p) T(n-N+p) + T(n-q) T(n-N+q),   0 < p, q < N,

where N = p12 + p34 is twice the area, p = p12 and q = p12 + p13.  Its
all-ones run is positive, as each step divides a sum of products of
earlier terms by an earlier term, and integral, as the recurrence is a
projection of the octahedron recurrence (Speyer, J. Algebraic Combin. 25,
2007), which is Laurent with positive coefficients (for p != q this is
Fomin-Zelevinsky, Adv. Appl. Math. 28, 2002).  tests/test_properties.py
checks the statement on random quadrilaterals with coordinates up to 50.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .lattice import LatticeError, SublatticeBasis, minors

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


# the two pairs other than each pair, the minus pair first
_OTHERS = tuple(tuple(sorted({0, 1, 2} - {i}, key=SIGNS.__getitem__))
                for i in range(3))


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
    window: int = field(init=False)  # top offset minus least, set once
    # generate's step plan, set once: (p_a, q_a, p_b, q_b, partner,
    # subtract), each offset minus the top one, so that a step reads its
    # terms off the end of the list it appends to
    plan: tuple[int, int, int, int, int, bool] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        (p1, q1), (p2, q2), (p3, q3) = pairs = self.pairs
        if p1 < q1 or p2 < q2 or p3 < q3:
            raise ValueError("each pair must be ordered p >= q")
        top = max(p1, p2, p3)
        # one index per occurrence, so a pair (top, top) counts twice
        owners = [i for i, pair in enumerate(pairs) for x in pair if x == top]
        if len(owners) != 1:
            raise UnsolvableError(pairs, owners)
        # the top offset is the p of its one pair, the owner, and
        # T(top) T(partner) = -SIGNS[owner] sum_{i != owner} SIGNS[i] T(p_i)
        # T(q_i) is a + b of the plus pairs when the minus pair owns the top
        # term, else a - b with a the minus pair's product
        owner = owners[0]
        i_a, i_b = _OTHERS[owner]
        (p_a, q_a), (p_b, q_b) = pairs[i_a], pairs[i_b]
        object.__setattr__(self, "window", top - min(q1, q2, q3))
        object.__setattr__(self, "plan", (
            p_a - top, q_a - top, p_b - top, q_b - top,
            pairs[owner][1] - top, SIGNS[i_b] == SIGNS[owner]))

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


def pairs_from_spreads(minus: int, plus_a: int, plus_b: int
                       ) -> tuple[Pair, Pair, Pair]:
    """The canonical pairs of the triple whose minus pair has spread
    `minus` and whose plus pairs have spreads `plus_a`, `plus_b`.

    The three pairs of an octahedral triple share one sum, so each is fixed
    by its spread s = p - q >= 0, and every spread has that sum's parity.
    Ordering inside a pair, swapping the plus pairs, reflection l -> -l and
    translation keep the spreads.  The canonical form centres each pair,
    (s/2, -s/2), when the spreads are even (as the printed Somos relations)
    and puts the least offset at 0, ((S + s)/2, (S - s)/2) with S the
    largest spread, when they are odd; the plus pairs go in spread order.
    """
    top = max(minus, plus_a, plus_b) if minus % 2 else 0
    lo, hi = sorted((plus_a, plus_b))
    pair = lambda s: ((top + s) // 2, (top - s) // 2)
    return pair(lo), pair(minus), pair(hi)


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


def spreads(p12: int, p13: int, p23: int) -> tuple[int, int, int]:
    """The spreads (|N|, s_lo, s_hi) of the recurrence, pairs_from_spreads'
    arguments, of a basis with minors p12, p13, p23 (lattice.minors):
    N = p12 + p13 + p23, then |N - 2 p12| and |N - 2 p12 - 2 p13| in order.

    The pairs (alpha beta | gamma delta) of octahedron points share one sum
    and have the spreads |w_alpha + w_beta - w_gamma - w_delta|, unchanged
    by adding the all-ones vector to w = (p23, -p13, p12, 0).  A strictly
    convex ccw quadrilateral has p12, p23, p34 > 0 and p14 < 0, with
    p34 = p13 + p23 and -p14 = p12 + p13, so N = p12 + p34 = p23 - p14 > 0,
    and its plus spreads |p34 - p12|, |p23 + p14| are each |x - y| < N for
    positive x, y with x + y = N: the minus pair holds the largest and the
    smallest offset alone, and pairs_from_spreads keeps it in the middle.
    The plus pairs coincide, T(n) T(n-N) = 2 T(n-p) T(n-N+p), exactly when
    e1 || e3 (p13 = 0) or e2 || e4 (p12 = p23).  Conversely, every
    0 < p, q < N with gcd(N, p, q) = 1 comes from a quadrilateral: a basis
    of w^perp in A_3, w = (N - q, p - q, p, 0), oriented so that p12 > 0,
    has minors (p, q - p, N - q) and its columns as edges.  The torsion
    gate is gcd(N, p, q) = 1, as that equals gcd(p, q - p, N - q).
    """
    n = p12 + p13 + p23
    s_a, s_b = abs(n - 2 * p12), abs(n - 2 * (p12 + p13))
    return (abs(n), s_a, s_b) if s_a <= s_b else (abs(n), s_b, s_a)


def derive_recurrence(basis: SublatticeBasis) -> BilinearRecurrence:
    """Compile the octahedral relation through the quotient of a basis."""
    return BilinearRecurrence(pairs_from_spreads(*spreads(*minors(basis))))


@dataclass
class SequenceRun:
    """Generated terms plus how the generation ended.

    terms begin with the seed window, its first `window` terms.  status is
    "ok", "degenerate" (division by zero at status_index) or "non-integral"
    (first fractional term at status_index; the run then continues over
    exact rationals).
    """

    terms: list[int | Fraction]
    window: int
    status: str = "ok"
    status_index: int | None = None

    def term_texts(self) -> list[str]:
        """The text of each term, one str per distinct term (CPython makes
        a new str(1) per call), so that equal terms share it: a run's
        Fraction is never whole, so equal terms have equal text."""
        text = {t: term_str(t) for t in set(self.terms)}
        return list(map(text.__getitem__, self.terms))

    def to_json_dict(self) -> dict:
        terms = self.term_texts()
        return {"terms": terms, "status": self.status,
                "status_index": self.status_index,
                "seed_window": terms[:self.window]}


def term_str(t: int | Fraction) -> str:
    """An int's digits, else numerator/denominator: a run's Fraction is never whole."""
    if type(t) is int:  # skips Fraction's costly ABC instance check
        return str(t)
    return f"{t.numerator}/{t.denominator}"


# Bits that a divisor and its quotient must both pass before _divmod
# recurses, and the quotient length at which the recursion bottoms out.
# Over the 1000-term reference runs, 3 000-9 000 were 2-5 % faster than
# 2 000 and 1 000 slower still; one balanced division gains only from about
# 12 000 bits.  4 000 is also the limit of CPython 3.12's Lib/_pylong.py.
_FAST_DIV_BITS = 4000


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0, b > 0; once b and the quotient both pass
    _FAST_DIV_BITS, _div2n1n of the two shifted so that a < 2**n b."""
    n = b.bit_length()
    if n <= _FAST_DIV_BITS or a.bit_length() - n <= _FAST_DIV_BITS:
        return divmod(a, b)
    k = max(0, a.bit_length() - 2 * n + 1)
    q, r = _div2n1n(a << k, b << k, n + k)
    return q, r >> k


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for an n-bit b and a < 2**n b by two 3n/2n steps, each
    estimating a digit from b's top half and correcting it down (Burnikel-
    Ziegler, MPI-I-98-1-022, as CPython 3.12's Lib/_pylong.py)."""
    if a.bit_length() - n <= _FAST_DIV_BITS:
        return divmod(a, b)
    pad = n & 1
    a, b, n = a << pad, b << pad, n + pad
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q, r = 0, a >> n
    for a3 in ((a >> half) & mask, a & mask):
        if r >> half == b1:
            digit, r = mask, r - (b1 << half) + b1
        else:
            digit, r = _div2n1n(r, b1, half)
        r = (r << half | a3) - digit * b2
        while r < 0:
            digit -= 1
            r += b
        q = q << half | digit
    return q, r >> pad


def generate(rec: BilinearRecurrence, count: int,
             init: Sequence[int] | None = None) -> SequenceRun:
    """Iterate the recurrence to `count` terms from an initial window.

    The default window is all ones.  Every step solves for the unique top
    term exactly, int steps by _divmod of absolute values and Fraction ones
    by divmod; a nonzero remainder stores the exact rational quotient
    instead and marks the run "non-integral".
    """
    window = rec.window
    if count < window:
        raise ValueError(f"count must be >= window size {window}")
    terms: list[int | Fraction] = [1] * window if init is None else list(init)
    if len(terms) != window:
        raise ValueError(f"initial window must have length {window}")
    p_a, q_a, p_b, q_b, partner, subtract = rec.plan

    run = SequenceRun(terms=terms, window=window)
    # terms holds T(0) .. T(j - 1), so a plan offset k < 0 reads T(j + k)
    for j in range(window, count):
        a, b = terms[p_a] * terms[q_a], terms[p_b] * terms[q_b]
        num = a - b if subtract else a + b
        divisor = terms[partner]
        if divisor == 0:
            run.status = "degenerate"
            run.status_index = j
            break
        if type(num) is int and type(divisor) is int:
            value, rem = _divmod(abs(num), abs(divisor))
            value = value if (num < 0) == (divisor < 0) else -value
        else:
            value, rem = divmod(num, divisor)
        if rem:
            value = Fraction(num, divisor)
            if run.status == "ok":
                run.status = "non-integral"
                run.status_index = j
        terms.append(value)
    return run
