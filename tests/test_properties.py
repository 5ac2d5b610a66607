"""Property-based differential tests.

The closed-form quotient map is checked against the kernel / Bezout /
Smith-form path it replaced, and derive_recurrence, the closed form from
the three minors, against the route through the octahedron points it
replaced (both kept in tests/reference_lattice.py).  Every coprime triple
(N, p, q) is checked to be the recurrence of a convex quadrilateral.  Each
integer fast path is checked against the Fraction reference it replaced:
integer `generate` against the Fraction loop (windows scaled by 2 000-10 000
bit ints included, so that big steps take the recursive division), a run's
text, one str per distinct term, against the per-term serialisation it
replaced (tests/reference_recurrence.py) over the same runs, `generate`'s
step plan, set once per recurrence, against the builtin-divmod loop it
replaced, with the top offset in each pair and the pairs in any order, a
scan record's JSON line against the sorted-key encoder it replaced
(tests/reference_scan.py) on random records of its schema, and the
2x2-minors rank check of SublatticeBasis against a Fraction
Gaussian-elimination rank.  The recursive division `recurrence._divmod` is
checked against the builtin divmod, and for recursing exactly when the
divisor and the quotient both pass its cutoff.  The
text-index OEIS match is checked against the per-entry slice scan it
replaced, its query trim, which counts the leading ones at C speed,
against the Python loop it replaced, and the OEIS loader, which keeps
canonical rows as text, against the int-parsing loader it replaced and,
for its one regex pass over the whole text, against the loop that
fullmatched each line on its own (the last three in
tests/reference_oeis.py).  The closed
form pairs_from_spreads is checked against the search canonicalize_pairs it
replaced (kept in tests/reference_lattice.py), canonicalize_pairs for its
declared invariances, and BilinearRecurrence for accepting exactly the
triples generate can iterate.  Every torsion-free strictly convex
quadrilateral is checked to give a positive Gale-Robinson recurrence (the
statement is in the recurrence module docstring), and the scan's key of its
edge cycle to map back to that recurrence, or both to say torsion, and to
be the key and torsion verdict of each image of the cycle under the
symmetries of the square.  The scan's slices, which walk one cycle per
orbit of those symmetries, cut each column of e3 to one y3 interval by
floor division and key each y3 in it, are checked, merged, at bounds 0-7
and steps 1-16 against the pruned loop of tests/reference_scan.py, keyed
one cycle at a time.  The pruned loop tests each e3 candidate's crosses and
e4 > e1 itself and walks every rotation class, so it shares none of the
slice's interval cuts or orbit weights.
Every Gale-Robinson key with N <= 24 and every bound-5 scanned recurrence
is checked for the Laurent property, run from a window of primes, with a
broken pair sum as the negative control.  The
octahedral relation is checked to hold exactly for random covacuum blocks.
fock's batched draw `_uniform_ints` is checked against one randint per
value, in the values and in the generator state it leaves.
The package's integer reader `int_text`, which every command and the OEIS
loader read integers with, is checked against str(int()) directly: the
same text, or the same ValueError message.
The Plucker oracles' unchecked draws, with the three-term brackets read off
one elimination, are checked against the per-bracket determinants of the
Gram-checked draws they replaced (tests/reference_fock.py), common blocks
with a dependent row included.  The KP path (Schur functions read off the
character table, the bilinear residual on packed keys) is checked against
the all-Fraction Jacobi-Trudi oracle (tests/reference_kp.py).
"""

import gzip
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import reference_fock
import reference_kp
import reference_lattice
import reference_oeis
from reference_lattice import canonicalize_pairs
from reference_recurrence import per_term_json_dict
from tauseq import exact_int_str, fock, int_text, recurrence
from tauseq.fock import Window, octahedron_residual, random_group_element
from tauseq.kp import kp_bilinear_residual, partitions_up_to, schur
from tauseq.lattice import (EdgePolygon, LatticeError, RankError,
                            SublatticeBasis, TorsionError, edges_to_basis,
                            minors, quotient_map)
from tauseq.maya import Partition
from tauseq.oeis import (MatchPolicy, QueryTooShort, load_stripped,
                         match_sequence, trim_query)
from tauseq.recurrence import (SIGNS, BilinearRecurrence, SequenceRun,
                               UnsolvableError, derive_recurrence, generate,
                               octahedral_combination, pairs_from_spreads,
                               term_str)
from reference_recurrence import divmod_generate
from reference_scan import (images, merged, reference_jsonl_line,
                            reference_slice, scan_one)
from tauseq.scan import jsonl_line, scan_slice


def fraction_rank(matrix) -> int:
    """Rank over the rationals (Fraction Gaussian elimination)."""
    if not matrix:
        return 0
    m = [[Fraction(x) for x in row] for row in matrix]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        for i in range(r + 1, rows):
            if m[i][c] != 0:
                f = m[i][c] / pivot
                for j in range(c, cols):
                    m[i][j] -= f * m[r][j]
        r += 1
        if r == rows:
            break
    return r


def fraction_generate(rec: BilinearRecurrence, count: int,
                      init=None) -> SequenceRun:
    """The former generate: every step computed over Fractions."""
    window = rec.window
    if init is None:
        init = [1] * window
    low = min(x for pair in rec.pairs for x in pair)
    pairs = [(p - low, q - low) for p, q in rec.pairs]
    top = max(x for pair in pairs for x in pair)
    owner = next(i for i, (p, q) in enumerate(pairs) if top in (p, q))
    p_o, q_o = pairs[owner]
    partner = q_o if p_o == top else p_o

    terms = list(init)
    run = SequenceRun(terms=terms, window=window)
    for j in range(window, count):
        l = j - top
        acc = Fraction(0)
        for i, (p, q) in enumerate(pairs):
            if i == owner:
                continue
            acc += SIGNS[i] * Fraction(terms[l + p]) * Fraction(terms[l + q])
        divisor = SIGNS[owner] * Fraction(terms[l + partner])
        if divisor == 0:
            run.status = "degenerate"
            run.status_index = j
            break
        value = -acc / divisor
        if value.denominator == 1:
            value = int(value)
        elif run.status == "ok":
            run.status = "non-integral"
            run.status_index = j
        terms.append(value)
    return run


# ------------------------------------------------------------ generate

OFFSETS = st.integers(-4, 4)
PAIRS = st.tuples(OFFSETS, OFFSETS).map(
    lambda pq: (max(pq), min(pq)))


def _iterable(pairs) -> bool:
    """One pair holds the top offset, and not twice: the step can solve
    for the top term by one division."""
    top = max(x for pair in pairs for x in pair)
    owners = [pair for pair in pairs if top in pair]
    return len(owners) == 1 and owners[0] != (top, top)


def exact_bits(draw, bits) -> int:
    """A random positive int of exactly `bits` bits (0 for bits = 0)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    return rng.getrandbits(bits) | (1 << bits >> 1)


@st.composite
def runs(draw):
    rec = BilinearRecurrence(draw(st.tuples(PAIRS, PAIRS, PAIRS)
                                  .filter(_iterable)))
    count = rec.window + draw(st.integers(0, 12))
    init = draw(st.none() | st.lists(st.integers(-30, 30),
                                     min_size=rec.window,
                                     max_size=rec.window))
    if init is not None and draw(st.booleans()):
        # the recurrence is homogeneous, so a window scaled by a 2 000-10 000
        # bit m runs m times the small run: its steps fall on both sides of
        # the recursive division's cutoff, exact and inexact, negative
        # divisors included.  An offset d != 0 makes nearly every big step
        # inexact, and as the Fractions then grow fast, that run stops
        # after 4 steps
        m = exact_bits(draw, draw(st.integers(2000, 10_000)))
        d = draw(st.sampled_from((0, 0, 1, -1)))
        init = [c * m + d for c in draw(st.lists(st.sampled_from((1, -1, 2)),
                                                 min_size=rec.window,
                                                 max_size=rec.window))]
        count = min(count, rec.window + 4) if d else count
    return rec, count, init


@settings(max_examples=300, deadline=None)
@given(runs())
def test_generate_matches_fraction_reference(case):
    rec, count, init = case
    got = generate(rec, count, init)
    want = fraction_generate(rec, count, init)
    assert got.terms == want.terms
    assert [type(t) for t in got.terms] == [type(t) for t in want.terms]
    assert (got.status, got.status_index) == (want.status, want.status_index)
    assert got.window == want.window == rec.window


@settings(max_examples=300, deadline=None)
@given(runs())
# a non-integral run whose Fractions recur, a degenerate one, and a big one
@example((BilinearRecurrence(((0, 0), (3, 1), (0, 0))), 16, None))
@example((BilinearRecurrence(((0, 0), (2, -2), (1, -1))), 9, [0, 1, 1, 1]))
@example((BilinearRecurrence(((0, 0), (2, -2), (1, -1))), 16,
          [(1 << 10_000) + 1] * 4))
def test_run_text_matches_per_term_reference(case):
    run = generate(*case)
    with exact_int_str():  # Fraction runs outgrow the digit limit
        got, want = run.to_json_dict(), per_term_json_dict(run)
    assert got == want
    # equal terms share one str, across the terms and the seed window
    texts = got["terms"] + got["seed_window"]
    assert len(set(map(id, texts))) == len(set(texts))


@st.composite
def planned_runs(draw):
    """A triple whose top offset lies in the minus pair or in a plus pair
    (where the step subtracts), its pairs in any order, and the all-ones
    window or an int one with zeros and negatives, which runs into
    "degenerate" and "non-integral"."""
    top = draw(st.integers(-4, 4))
    below = st.integers(top - 6, top - 1)
    owner = (top, draw(below))
    others = st.tuples(below, below).map(lambda pq: (max(pq), min(pq)))
    rec = BilinearRecurrence(tuple(draw(st.permutations(
        [owner, draw(others), draw(others)]))))
    init = draw(st.none() | st.lists(st.integers(-3, 3), min_size=rec.window,
                                     max_size=rec.window))
    return rec, rec.window + draw(st.integers(0, 16)), init


@settings(max_examples=300, deadline=None)
@given(planned_runs())
# the top offset in a plus pair, then in the minus pair, each with a
# degenerate and a non-integral run
@example((BilinearRecurrence(((0, -1), (1, -2), (2, -1))), 14, [-3, 3, 0, -1]))
@example((BilinearRecurrence(((1, -1), (1, 1), (2, -1))), 13, [3, -2, -2]))
@example((BilinearRecurrence(((0, -2), (2, 1), (1, -1))), 14, [0, -1, 1, -1]))
@example((BilinearRecurrence(((1, -2), (2, 0), (-1, -2))), 14, [1, -2, 2, 3]))
def test_step_plan_matches_divmod_reference(case):
    rec, count, init = case
    got, want = generate(rec, count, init), divmod_generate(rec, count, init)
    assert got == want
    assert [type(t) for t in got.terms] == [type(t) for t in want.terms]
    # the plan is set once and is no part of the value: repr, == and hash
    # read the pairs and the window alone
    assert repr(rec) == (f"BilinearRecurrence(pairs={rec.pairs!r}, "
                         f"window={rec.window})")
    assert rec == BilinearRecurrence(rec.pairs)
    assert hash(rec) == hash((rec.pairs, rec.window))


CUTOFF = recurrence._FAST_DIV_BITS
DIV_BITS = (st.integers(0, 64) | st.integers(CUTOFF - 3, CUTOFF + 3)
            | st.integers(CUTOFF + 4, 3 * CUTOFF))


@st.composite
def divisions(draw):
    """(a, b) with a = q b + r: divisor and quotient lengths, odd and even,
    on both sides of the cutoff, quotients up to 12 times the cutoff, and
    r from 0, 1, b // 3 and b - 1."""
    b = exact_bits(draw, draw(DIV_BITS.filter(bool)))
    q = exact_bits(draw, draw(DIV_BITS | st.integers(8 * CUTOFF,
                                                     12 * CUTOFF)))
    r = draw(st.sampled_from((0, 1, b - 1, b // 3)))
    return q * b + r, b


@settings(max_examples=300, deadline=None)
@given(divisions())
# all-ones b saturates the digit estimate from b's top half (random b don't)
@example((((1 << 6001) - 1) * ((1 << 4001) - 1), (1 << 4001) - 1))
@example((((1 << 5000) + 1) * ((1 << 3000) + 3) + 7, (1 << 3000) + 3))
@example((1 << 30001, (1 << CUTOFF + 1) - 1))  # quotient 14 times b
@example((1 << 30001, 3))  # long quotient, short divisor: builtin
# each gate at its edge: a divisor of CUTOFF bits, then one more, under a
# long quotient; a quotient of CUTOFF bits, then one more, over a long
# divisor
@example(((1 << 4 * CUTOFF) - 1, (1 << CUTOFF - 1) + 5))
@example(((1 << 4 * CUTOFF) - 1, (1 << CUTOFF) + 5))
@example(((1 << 3 * CUTOFF) - 1, (1 << 2 * CUTOFF - 1) + 5))
@example(((1 << 3 * CUTOFF + 1) - 1, (1 << 2 * CUTOFF - 1) + 5))
def test_recursive_divmod_matches_builtin(case):
    a, b = case
    n = b.bit_length()
    with patch.object(recurrence, "_div2n1n",
                      wraps=recurrence._div2n1n) as recursive:
        assert recurrence._divmod(a, b) == divmod(a, b)
    # recursive only when the divisor and the quotient both pass the cutoff
    assert recursive.called == (n > CUTOFF and a.bit_length() - n > CUTOFF)


@st.composite
def triples(draw):
    """Any ordered triple, or one whose top offset is paired with itself."""
    pairs = list(draw(st.tuples(PAIRS, PAIRS, PAIRS)))
    if draw(st.booleans()):
        top = max(x for pair in pairs for x in pair) + draw(st.integers(0, 2))
        pairs[draw(st.integers(0, 2))] = (top, top)
    return tuple(pairs)


@settings(max_examples=300, deadline=None)
@given(triples())
def test_recurrence_accepts_exactly_iterable_triples(pairs):
    if _iterable(pairs):
        BilinearRecurrence(pairs)
    else:
        with pytest.raises(UnsolvableError):
            BilinearRecurrence(pairs)


# ----------------------------------------------------------- JSON lines

TERM_TEXTS = (st.integers(-10 ** 30, 10 ** 30)
              | st.fractions(max_denominator=10 ** 12).filter(
                  lambda f: f.denominator != 1)).map(term_str)
MATCHES = st.builds(lambda n, position: {"a_number": f"A{n:06d}",
                                         "position": position},
                    st.integers(0, 999_999), st.integers(0, 1000))


@st.composite
def records(draw):
    """Records of scan.complete_record's schema: any basis and recurrence,
    each status, with a match note or not, 0-3 matches, and terms of ints
    and fractions p/q of both signs."""
    recurrence = BilinearRecurrence(draw(st.tuples(PAIRS, PAIRS, PAIRS)
                                         .filter(_iterable))).to_json_dict()
    row = st.lists(st.integers(-50, 50), min_size=4, max_size=4)
    record = {"basis": [draw(row), draw(row)], "recurrence": recurrence,
              "dedup_key": json.dumps(recurrence["pairs"]),
              "status": draw(st.sampled_from(["ok", "non-integral",
                                              "degenerate"])),
              "terms": draw(st.lists(TERM_TEXTS, min_size=1, max_size=30)),
              "matches": draw(st.lists(MATCHES, max_size=3))}
    if draw(st.booleans()):
        record["match_note"] = "query too short after trimming"
    return record


@settings(max_examples=300, deadline=None)
@given(records())
def test_jsonl_line_matches_encoder_on_random_records(record):
    assert jsonl_line(record) == reference_jsonl_line(record)


# ---------------------------------------------------------- rank checks


def degree_zero_rows(s: int, bound: int = 3):
    return st.lists(st.integers(-bound, bound), min_size=s - 1,
                    max_size=s - 1).map(lambda xs: (*xs, -sum(xs)))


@st.composite
def row_pairs(draw):
    s = draw(st.integers(3, 6))
    a = draw(degree_zero_rows(s))
    multiple = st.integers(-3, 3).map(lambda k: tuple(k * x for x in a))
    return a, draw(degree_zero_rows(s) | multiple)


@settings(max_examples=300, deadline=None)
@given(row_pairs())
def test_basis_minors_check_matches_fraction_rank(rows):
    a, b = rows
    try:
        SublatticeBasis(a, b)
        independent = True
    except RankError:
        independent = False
    assert independent == (fraction_rank([a, b]) == 2)


# --------------------------------------------------------- quotient map


@st.composite
def quotient_cases(draw):
    """Degree-0 2x4 rows: generic, with torsion forced by scaling a row or
    by b = c*a + k*b' (every minor a multiple of k), or dependent rows."""
    a = draw(degree_zero_rows(4, 6).filter(any))
    kind = draw(st.sampled_from(["free"] * 4 + ["scaled", "minors",
                                                  "dependent"]))
    if kind == "dependent":
        multiple = draw(st.integers(-3, 3))
        return a, tuple(multiple * x for x in a)
    k = draw(st.integers(2, 4))
    b = draw(degree_zero_rows(4, 6).filter(
        lambda b: fraction_rank([a, b]) == 2))
    if kind == "scaled":
        a = tuple(k * x for x in a)
    elif kind == "minors":
        c = draw(st.integers(-2, 2))
        b = tuple(c * x + k * y for x, y in zip(a, b))
    return a, b


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TorsionError as exc:
        return TorsionError, exc.invariant_factors
    except LatticeError as exc:
        return type(exc), None


@settings(max_examples=500, deadline=None)
@given(quotient_cases())
@example(((5, -2, -2, -1), (1, 1, -1, -1)))  # the square example
@example(((3, -4, 0, 1), (-4, 3, 1, 0)))  # the 2-unknown solve example
@example(((2, -2, 0, 0), (0, 0, 1, -1)))  # invariant factors (1, 2)
def test_quotient_map_matches_kernel_reference(rows):
    a, b = rows
    basis = _outcome(SublatticeBasis, a, b)
    if basis == (RankError, None):
        assert fraction_rank([a, b]) < 2
        return
    got = _outcome(quotient_map, basis)
    want = _outcome(reference_lattice.quotient_map, basis)
    if not isinstance(want, reference_lattice.QuotientMap):
        assert got == want
        return
    assert want.m == 1
    assert list(got) == reference_lattice.canonical_sign(want.w)
    got_rec = _outcome(derive_recurrence, basis)
    assert got_rec == _outcome(reference_lattice.derive_recurrence, want)


@st.composite
def small_bases(draw):
    """Rows of 3 to 5 entries in [-6, 6] summing to 0, mostly 4, convex or
    not: b independent of a, or one time in ten a multiple of it."""
    s = draw(st.sampled_from([4] * 8 + [3, 5]))
    row = st.lists(st.integers(-6, 6), min_size=s - 1, max_size=s - 1).filter(
        lambda xs: abs(sum(xs)) <= 6).map(lambda xs: (*xs, -sum(xs)))
    a = draw(row)
    if draw(st.sampled_from(["free"] * 9 + ["multiple"])) == "multiple":
        k = draw(st.sampled_from([-1, 0, 1]))
        return a, tuple(k * x for x in a)
    return a, draw(row.filter(lambda b: fraction_rank([a, b]) == 2))


@settings(max_examples=500, deadline=None)
@given(small_bases())
@example(((2, 0, 1, -3), (-1, 0, -1, 2)))  # UnsolvableError
@example(((2, -2, 0, 0), (0, 0, 1, -1)))  # TorsionError
@example(((1, 0, -1), (0, 1, -1)))  # RankError: s = 3
@example(((1, -1, 0, 0), (-1, 1, 0, 0)))  # RankError: dependent rows
def test_derive_matches_octahedron_point_route(rows):
    # the closed form from the three minors against the covector w, the
    # six octahedron points and their index differences
    def outcome(derive):
        return _outcome(lambda: derive(SublatticeBasis(*rows)))

    assert outcome(derive_recurrence) == \
        outcome(reference_lattice.derive_through_points)


@st.composite
def coprime_triples(draw, top=60):
    """(N, p, q) with N <= top, 0 < p, q < N and gcd(N, p, q) = 1."""
    n = draw(st.integers(2, top))
    p, q = draw(st.tuples(st.integers(1, n - 1), st.integers(1, n - 1))
                .filter(lambda pq: math.gcd(n, *pq) == 1))
    return n, p, q


@settings(max_examples=300, deadline=None)
@given(coprime_triples())
@example((2, 1, 1))
@example((60, 59, 1))
def test_coprime_triple_is_a_convex_quadrilateral(triple):
    # the realisability theorem of the recurrence.spreads docstring: an
    # oriented basis of w^perp in A_3, w = (N - q, p - q, p, 0), has minors
    # (p, q - p, N - q) and convex edges, and gives (N, p, q)'s recurrence
    n, p, q = triple
    a, b = reference_lattice.kernel_basis([[1, 1, 1, 1], [n - q, p - q, p, 0]])
    if a[0] * b[1] - a[1] * b[0] < 0:
        a = [-x for x in a]
    basis = SublatticeBasis(tuple(a), tuple(b))
    assert minors(basis) == (p, q - p, n - q)
    edges = tuple(zip(basis.a, basis.b))
    EdgePolygon(tuple((sum(a[:k]), sum(b[:k])) for k in range(4)))
    want = pairs_from_spreads(n, abs(n - 2 * p), abs(n - 2 * q))
    assert derive_recurrence(basis).pairs == want
    assert pairs_from_spreads(*scan_one(edges)) == want


# ----------------------------------------------------------- OEIS match


def reference_match(entries: dict[str, list[int]], terms,
                    policy: MatchPolicy):
    """The former match_sequence: sort the A-numbers, then slice-compare
    every entry at every offset."""
    query = trim_query(terms, policy)
    hits = []
    for a_number in sorted(entries):
        entry = entries[a_number]
        for start in range(len(entry) - len(query) + 1):
            if entry[start:start + len(query)] == query:
                hits.append((a_number, start))
                break
    return hits


SMALL = st.sampled_from([0, 1, 2])
BIG = 10 ** 39  # 40-digit terms from here up
TERM = (SMALL | st.integers(-12, -1) | st.integers(10, 10 ** 6)
        | st.integers(BIG, 10 * BIG - 1) | st.integers(1 - 10 * BIG, -BIG))
ROWS = st.integers(1, 40).flatmap(
    lambda n: st.lists(SMALL, min_size=n, max_size=n)
    | st.lists(TERM, min_size=n, max_size=n))
A_NUMBERS = st.integers(0, 999_999).map("A{:06d}".format)
POLICIES = st.builds(MatchPolicy, trim_leading_ones=st.booleans(),
                     min_match_terms=st.integers(4, 12))


@st.composite
def match_cases(draw):
    # lists keep the draw order, so A-numbers come in random insertion order
    names = draw(st.lists(A_NUMBERS, unique=True, max_size=10))
    policy = draw(POLICIES)
    # mostly just long enough, and now and then one term too short
    length = policy.min_match_terms + draw(st.integers(-1, 3))
    query = [1] * draw(st.sampled_from([0, 0, 1, 3])) + draw(
        st.lists(SMALL, min_size=length, max_size=length)
        | st.lists(TERM, min_size=length, max_size=length))
    rows = []
    for _ in names:  # plant the query in a row 0-2 times, at 0 or later
        row = draw(ROWS)
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            at = draw(st.just(0) | st.integers(0, len(row)))
            row = row[:at] + query + row[at:]
        rows.append(row)
    return dict(zip(names, rows)), query, policy


@settings(max_examples=300, deadline=None)
@given(match_cases())
def test_match_matches_linear_scan(case):
    entries, query, policy = case
    db = reference_oeis.stripped_db(entries)
    try:
        want = reference_match(entries, query, policy)
    except QueryTooShort:
        with pytest.raises(QueryTooShort):
            match_sequence(db, query, policy)
        return
    assert match_sequence(db, query, policy) == want


@st.composite
def trim_cases(draw):
    """(terms, policy): a run of 0-30 leading ones, then terms that may
    start with more ones or be none at all (a run of ones only), about
    long enough for the policy's floor, or one short of it."""
    policy = draw(POLICIES)
    ones = draw(st.sampled_from([0, 1, 3]) | st.integers(0, 30))
    length = policy.min_match_terms + draw(st.integers(-1, 3))
    if draw(st.integers(0, 4)) == 0:
        length = 0
    rest = draw(st.lists(SMALL | TERM | st.fractions(max_denominator=4),
                         min_size=length, max_size=length))
    return [1] * ones + rest, policy


@settings(max_examples=300, deadline=None)
@given(trim_cases())
@example(([1] * 12, MatchPolicy(min_match_terms=4)))  # all ones
@example(([1, 1, 2, 3, 4, 5], MatchPolicy(min_match_terms=4)))  # the floor
@example(([1, 1, 2, 3, 4], MatchPolicy(min_match_terms=4)))  # one short
@example(([1, 1, Fraction(1, 2), 1, 3], MatchPolicy(min_match_terms=4)))
@example(([1, 1, 2, 3], MatchPolicy(trim_leading_ones=False,
                                    min_match_terms=4)))
def test_trim_query_matches_while_loop(case):
    terms, policy = case
    try:
        want = reference_oeis.trim_query(terms, policy)
    except QueryTooShort as exc:
        with pytest.raises(QueryTooShort) as got:
            trim_query(terms, policy)
        assert str(got.value) == str(exc)
        return
    got = trim_query(terms, policy)
    assert got == want
    assert got is not terms


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663"
                             "\u0664\u0665\u0666\u0667\u0668\u0669")


@st.composite
def term_fields(draw):
    """One field of a stripped row: a term written canonically or in one
    of the other forms int() accepts."""
    if draw(st.integers(0, 9)):
        value = draw(TERM)
        sign, digits = ("-" if value < 0 else ""), str(abs(value))
    else:  # 4 301 digits, one past CPython's default int <-> str limit;
        # drawn as text, since hypothesis reports draws with str()
        sign = draw(st.sampled_from(["", "-"]))
        digits = "1" + "0" * 4296 + "{:04d}".format(draw(st.integers(0, 99)))
    form = draw(st.sampled_from(["canonical"] * 4 + [
        "zeros", "plus", "spaces", "underscore", "unicode"]))
    if form == "zeros":  # also "-0" and "-00" for zero
        return (sign or draw(st.sampled_from(["", "-"]))) \
            + "0" * draw(st.integers(0, 2)) + digits
    if form == "plus" and not sign:
        return "+" + digits
    if form == "spaces":
        return draw(st.sampled_from([" ", "", "\t"])) + sign + digits \
            + draw(st.sampled_from([" ", ""]))
    if form == "underscore" and len(digits) > 1:
        at = draw(st.integers(1, len(digits) - 1))
        return sign + digits[:at] + "_" + digits[at:]
    if form == "unicode":
        return sign + digits.translate(ARABIC_INDIC)
    return sign + digits


@st.composite
def stripped_lines(draw):
    a_number = "A{:06d}".format(draw(st.integers(0, 20)))  # duplicates too
    kind = draw(st.sampled_from(["row"] * 6 + [
        "comment", "blank", "short_a_number", "no_separator", "non_integer",
        "no_terms", "unicode_a_number"]))
    if kind == "row":
        fields = draw(st.lists(term_fields(), min_size=1, max_size=8))
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            fields.insert(draw(st.integers(0, len(fields))), "")
        line = f"{a_number} ," + ",".join(fields) \
            + draw(st.sampled_from([",", ",", ""]))
    else:
        line = {"comment": "# comment ,1,2,", "blank": "",
                "short_a_number": f"{a_number[:-1]} ,1,2,3,",
                "no_separator": f"{a_number} 1,2,3,",
                "non_integer": f"{a_number} ,1,x,3,",
                "no_terms": f"{a_number} ,,",
                "unicode_a_number": a_number.translate(ARABIC_INDIC)
                + " ,1,2,3,"}[kind]
    return draw(st.sampled_from(["", "", " "])) + line \
        + draw(st.sampled_from(["\n", "\n", "\r\n"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(stripped_lines(), max_size=12), st.booleans(),
       st.booleans())
def test_load_matches_int_reference(lines, final_newline, compress):
    text = "".join(lines)
    if not final_newline:
        text = text.rstrip("\n")
    data = gzip.compress(text.encode()) if compress else text.encode()
    db = load_stripped(data)
    entries, malformed = reference_oeis.load_stripped(data)
    assert db.malformed == malformed
    assert len(db.entries) == len(entries)
    assert db._index == reference_oeis.index(entries)


# mostly ASCII digits, and now and then one int() reads from another script
DIGIT_FIELD = st.builds(
    lambda blank, sign, zeros, digits, tail: blank + sign + zeros + digits
    + tail,
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "+", "-", "+-"]),
    st.sampled_from(["", "0", "000"]),
    st.one_of(st.text("0123456789", max_size=12),
              st.text("0123456789\u0660\u0665", max_size=4),
              st.sampled_from(["1" * 4301, "0" * 4301, "9" + "0" * 4400])),
    st.sampled_from(["", "", " ", " 1", "x"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(DIGIT_FIELD, min_size=1, max_size=6), max_size=6))
def test_load_ascii_terms_by_text_match_int_reference(rows):
    # a line with a non-canonical term takes the slow path, which rewrites
    # plain ASCII terms as text; every term, line number and malformed
    # line must come out as int() and str() would give them
    text = "".join(f"A{i:06d} ,{','.join(fields)},\n"
                   for i, fields in enumerate(rows))
    db = load_stripped(text.encode())
    entries, malformed = reference_oeis.load_stripped(text)
    assert db.malformed == malformed
    assert db._index == reference_oeis.index(entries)


# the characters around and inside an int's text where int() and a
# str method may disagree: separators, signs, whitespace that int() strips
# (" ", "\t", "\x85", "\u3000") and whitespace it does not ("\x1c")
INT_EDGES = st.text(st.sampled_from(" \t\x1c\x85\u3000+-_019\u0660\u0665x"),
                    max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.one_of(term_fields(), DIGIT_FIELD, INT_EDGES))
@example("\uff11\uff12")  # fullwidth digits
@example("\u096b\u0966")  # Devanagari
@example("\u0e59")  # Thai
@example("\xb2")  # superscript two: a digit, but not a decimal one
@example("\u2167")  # Roman numeral eight
@example("1__0")
@example("_1")
@example("1_")
@example("+-1")
@example(" ")
@example("")
@example("0x10")
@example("\x1c5")  # str.strip() strips "\x1c", int() does not
@example("9" * 1_000_000 + "x")  # the message cuts the repr at 200
def test_int_text_is_str_of_int(text):
    # the one reader of an integer's text gives str(int(text)), or raises
    # int()'s own ValueError, message and all
    with exact_int_str():
        try:
            want = str(int(text))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                int_text(text)
            assert str(got.value) == str(exc)
            return
    assert int_text(text) == want


# what str.strip removes around a line but "^" and "$" do not skip
STRIP_ONLY = st.sampled_from(["", "", "", "\r", "\x0b", "\x0c", "\x1c",
                              "\x85", "\u2028", " ", "  ", "\t"])


@st.composite
def snapshot_lines(draw):
    a_number = "A{:06d}".format(draw(st.integers(0, 5)))  # duplicates too
    terms = draw(st.lists(st.sampled_from(
        ["0", "1", "-1", "12", "-305"] * 3
        + ["007", "+5", "-0", " 4", "1_0", "\u0665", "x", ""]), max_size=5))
    line = draw(st.sampled_from(
        [f"{a_number} ," + ",".join(terms) + ","] * 6
        + [f"{a_number} ," + ",".join(terms), "# comment ,1,2,", "",
           f"{a_number[:-1]} ,1,2,", f"{a_number} 1,2,"]))
    return draw(STRIP_ONLY) + line + draw(STRIP_ONLY)


@settings(max_examples=500, deadline=None)
@given(st.lists(snapshot_lines(), max_size=12), st.booleans(), st.booleans())
@example([], False, False)  # empty input
@example(["A000001 ,1,2,"], False, False)  # one line, no newline
@example(["A000001 ,1,2,", ""], True, True)  # ends in "\n\n"
@example(["A000001 ,1,2,", "A000002 ,007,"], True, False)  # other after one
@example(["A000001 ,1,2,\r ", "x"], True, False)  # canonical but for "\r "
@example(["A000001 ,1,2,", "", "", "x"], False, False)  # a run of "\n\n\n"
@example(["A000001 ,1,", "\r", "x"], False, False)  # a lone "\r"
@example(["A000001 ,1,2,", "A000002 ,+3"], False, False)  # other, unended
def test_load_one_pass_matches_per_line_reference(lines, final_newline,
                                                  as_file):
    # canonical lines are found by one pass over the text, the others take
    # the per-line path: entries, their order, last-wins duplicates and
    # malformed line numbers must be those of one fullmatch per line
    text = "\n".join(lines) + "\n" * final_newline
    db = load_stripped(io.BytesIO(text.encode()) if as_file
                       else text.encode())
    reference = reference_oeis.load_stripped_by_line(text)
    assert list(db.entries.items()) == list(reference.entries.items())
    assert db.malformed == reference.malformed


# ------------------------------------------------------- canonicalize


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(OFFSETS, OFFSETS), min_size=3, max_size=3),
       st.integers(-10, 10))
def test_canonicalize_pairs_invariances(raw, shift):
    # any three pairs, also without a common sum, which the closed form
    # below never meets
    canon = canonicalize_pairs(raw)
    assert canonicalize_pairs(canon) == canon
    assert canonicalize_pairs([(-q, -p) for p, q in raw]) == canon
    assert canonicalize_pairs([(p + shift, q + shift)
                               for p, q in raw]) == canon


@settings(max_examples=300, deadline=None)
@given(st.integers(-20, 20), st.lists(st.integers(-20, 20), min_size=3,
                                      max_size=3), st.integers(-10, 10))
@example(0, [0, 4, 3], 0)  # even sum: centred pairs
@example(1, [1, 5, 4], 0)  # odd sum: least offset 0
@example(1, [9, 0, 4], 0)  # a plus spread is the largest
@example(-3, [2, 2, -5], 0)  # coinciding spreads
@example(8, [4, 8, 7], 0)  # even sum: centred on (0, 0), (4, -4), (3, -3)
@example(-6, [0, 3, 2], 5)  # the hex example's offset triple
def test_pairs_from_spreads_matches_canonicalize(total, firsts, shift):
    # three pairs (p, total - p) with the common sum, each in either order;
    # the search gives the closed form also after each freedom the spreads
    # forget (a shift, the reflection (p, q) -> (-q, -p), the order of the
    # two plus pairs) and on the closed form itself
    raw = [(p, total - p) for p in firsts]
    (p1, q1), (p2, q2), (p3, q3) = raw
    want = pairs_from_spreads(abs(p2 - q2), abs(p1 - q1), abs(p3 - q3))
    for pairs in (raw, raw[::-1], [(-q, -p) for p, q in raw],
                  [(p + shift, q + shift) for p, q in raw], want):
        assert canonicalize_pairs(pairs) == want, pairs


# ------------------------------------------------------ Gale-Robinson


def _strictly_convex(vertices) -> bool:
    try:
        EdgePolygon(vertices)
    except LatticeError:
        return False
    return True


@st.composite
def convex_quadrilaterals(draw):
    """Strictly convex ccw quadrilaterals with vertices in [-50, 50]^2:
    four distinct points in angular order around their centroid, kept
    when that order is strictly convex."""
    coord = st.integers(-50, 50)
    points = draw(st.lists(st.tuples(coord, coord), min_size=4, max_size=4,
                           unique=True))
    cx = sum(x for x, _ in points) / 4
    cy = sum(y for _, y in points) / 4
    points.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    return tuple(points)


@settings(max_examples=300, deadline=None)
@given(convex_quadrilaterals().filter(_strictly_convex))
def test_convex_quadrilateral_gives_positive_gale_robinson(vertices):
    try:
        rec = derive_recurrence(edges_to_basis(EdgePolygon(vertices).edges))
    except TorsionError:
        reject()  # no Z-indexed sequence to check
    top = max(x for pair in rec.pairs for x in pair)
    assert top in rec.pairs[1]
    # extends the scan's max(24, window) terms, which add no step past the
    # all-ones window once the window exceeds 24
    run = generate(rec, rec.window + 24)
    assert run.status == "ok"
    assert all(t > 0 for t in run.terms)


@settings(max_examples=300, deadline=None)
@given(convex_quadrilaterals().filter(_strictly_convex))
@example(((0, 0), (3, 0), (2, 1), (0, 1)))  # e1 || e3: p = q
@example(((0, 1), (0, 0), (3, 0), (2, 1)))  # e2 || e4: p = q
@example(((0, 0), (5, 1), (3, 2), (1, 1)))  # the same quadrilateral from
@example(((5, 1), (3, 2), (1, 1), (0, 0)))  # each vertex: p <-> N - p
@example(((3, 2), (1, 1), (0, 0), (5, 1)))
@example(((1, 1), (0, 0), (5, 1), (3, 2)))
def test_scan_key_maps_to_derived_recurrence(vertices):
    edges = EdgePolygon(vertices).edges
    key = scan_one(edges)
    try:
        rec = derive_recurrence(edges_to_basis(edges))
    except TorsionError:
        assert key == "torsion"
        return
    assert pairs_from_spreads(*key) == rec.pairs


@st.composite
def enumeration_slices(draw):
    """(bound, step): a bound 0-7 and a step 1-16."""
    return draw(st.integers(0, 7)), draw(st.integers(1, 16))


# Each example is the least bound at which the merged slices change when
# one entry of the orbit walk's table scan._y_ranges, one edge's use of
# it, or one kind of tie is dropped (each was dropped in turn, one at a
# time).  Bound 1: the |x| = M range (y = -m..m) of every edge, e4's
# lookup in the table, and the orbit weights.  Bound 2: the m < |x| < M
# range (y = 1-M..M-1) of every edge, the |x| = M ties (y = +-m) and the
# |x| = m ties (y = +-M) of every edge, the |x| = M range of e2, of e3 and
# of e4 alone, e4's m < |x| < M range and |x| = m ties, the mapping of
# e4's ties through y3 = -sy - y4, and the ties of m = 0, m = M and e2.
# Bound 3: the m < |x| < M range of e2 and of e3 alone, e3's |x| = m ties
# and e4's |x| = M ties.
@settings(max_examples=60, deadline=None)
@given(enumeration_slices())
@example((1, 1))
@example((2, 3))
@example((3, 4))
def test_enumerate_slice_matches_pruned_loop(case):
    bound, step = case
    slices = [scan_slice(bound, start, step) for start in range(step)]
    assert merged(slices) == reference_slice(bound)


@settings(max_examples=300, deadline=None)
@given(convex_quadrilaterals().filter(_strictly_convex))
@example(((0, 0), (1, 0), (1, 1), (0, 1)))  # each symmetry fixes its cycle
def test_scan_key_is_symmetric(vertices):
    # the torsion verdict and key of every image of a cycle under the
    # symmetries of the square, reflections read backwards, are its own
    edges = EdgePolygon(vertices).edges
    want = scan_one(edges)
    assert all(scan_one(image) == want for image in images(edges))


# -------------------------------------------------------------- Laurent


PRIMES_BELOW_2000 = [p for p in range(2, 2000)
                     if all(p % d for d in range(2, math.isqrt(p) + 1))]


def laurent_escape(rec: BilinearRecurrence) -> int | None:
    """The index of the first term whose denominator has a prime factor
    outside the seed window, or None through 3 * window + 20 terms.

    The window is of distinct primes below 2 000 drawn with
    random.Random(1).  By the Laurent property every term is a Laurent
    polynomial in the seeds, so only seeds divide its denominator.  The
    first window steps divide by seeds alone, hence a run of several
    windows.  The run goes a window at a time and stops at the first
    escape, before a non-Laurent run's fractions grow large.
    """
    window = rec.window
    terms = random.Random(1).sample(PRIMES_BELOW_2000, window)
    seeds = math.prod(terms)
    count = 3 * window + 20
    while len(terms) < count:
        run = generate(rec, min(2 * window, count - len(terms) + window),
                       terms[-window:])
        for t in run.terms[window:]:
            d = Fraction(t).denominator
            while (g := math.gcd(d, seeds)) > 1:
                d //= g
            if d != 1:
                return len(terms)
            terms.append(t)
    return None


@settings(max_examples=200, deadline=None)
@given(coprime_triples(24))
@example((2, 1, 1))  # window 2, 26 terms: the most steps per window
@example((24, 23, 1))
def test_gale_robinson_keys_are_laurent(triple):
    # (N, |N - 2p|, |N - 2q|) is the key of a convex quadrilateral (see
    # test_coprime_triple_is_a_convex_quadrilateral)
    n, p, q = triple
    rec = BilinearRecurrence(pairs_from_spreads(n, abs(n - 2 * p),
                                                abs(n - 2 * q)))
    assert laurent_escape(rec) is None


def test_scanned_recurrences_are_laurent():
    keys = scan_slice(5)[2]
    assert len(keys) == 940
    escaped = [key for key in keys
               if laurent_escape(BilinearRecurrence(pairs_from_spreads(*key)))
               is not None]
    assert escaped == []


def test_laurent_check_catches_broken_pair_sums():
    # negative control: raising the larger offset of the smaller-spread
    # plus pair breaks the shared pair sum; of 200 bound-5 keys, 199 stay
    # solvable and the check sees the break in all but 5 (windows 4-12)
    keys = random.Random(1).sample(sorted(scan_slice(5)[2]), 200)
    solvable = escaped = 0
    for key in keys:
        (p, q), minus, plus = pairs_from_spreads(*key)
        try:
            rec = BilinearRecurrence(((p + 1, q), minus, plus))
        except UnsolvableError:
            continue
        solvable += 1
        escaped += laurent_escape(rec) is not None
    assert (solvable, escaped) == (199, 194)


# ------------------------------------------------------------ octahedron


@st.composite
def octahedron_cases(draw):
    """A window of cutoff 3 or 4 over four components, a covacuum block
    drawn from a seed and an entry bound, and a degree -2 base point
    within the headroom |n_c| <= K - 2."""
    window = Window(draw(st.sampled_from([3, 4])), 4)
    room = st.integers(2 - window.cutoff, window.cutoff - 2)
    n = draw(st.lists(room, min_size=3, max_size=3))
    n.append(-2 - sum(n))
    if abs(n[3]) > window.cutoff - 2:
        reject()
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_group_element(window, rng, draw(st.integers(1, 5)))
    return g, tuple(n), window


@settings(max_examples=200, deadline=None)
@given(octahedron_cases())
def test_octahedron_residual_vanishes(case):
    assert octahedron_residual(*case) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6), st.integers(0, 500))
@example(0, 1, 0)
def test_uniform_ints_match_per_entry_randint(seed, bound, count):
    # bounds 1-6 reject 1/8 (bound 3) to 7/16 (bound 4) of the draws
    rng, reference = random.Random(seed), random.Random(seed)
    assert fock._uniform_ints(rng, bound, count) == \
        [reference.randint(-bound, bound) for _ in range(count)]
    assert rng.getstate() == reference.getstate()


# --------------------------------------------------------------- plucker


@st.composite
def plucker_draws(draw, codim: int, dims: range):
    """(dim, rows, forced): dim - codim common vectors, the last of them
    forced to depend on the first two when forced, then 2 * codim extras,
    entries in [-5, 5] like fock's draws."""
    dim = draw(st.sampled_from(dims))
    vec = st.lists(st.integers(-5, 5), min_size=dim, max_size=dim)
    rows = draw(st.lists(vec, min_size=dim + codim, max_size=dim + codim))
    forced = draw(st.booleans())
    if forced:
        rows[dim - codim - 1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]
    return dim, rows, forced


def drawing(rows):
    """A stand-in for fock._draw that returns the given rows."""
    def fake(dim, count, rng):
        assert (dim, count) == (len(rows[0]), len(rows))
        return rows
    return fake


def checked_split(dim: int, codim: int, rows):
    """The reference's (L', L, extras) of the same rows."""
    total = dim - codim
    return rows[:total // 2], rows[total // 2:total], rows[total:]


@settings(max_examples=150, deadline=None)
@given(plucker_draws(2, range(6, 11)), st.integers(0, 2**32))
def test_plucker3_brackets_match_checked_draw_reference(case, seed):
    dim, rows, forced = case
    seen = {}

    def recording(t):
        seen.update((p, t(p)) for p in combinations(range(1, 5), 2))
        return octahedral_combination(t)

    with patch.object(fock, "_draw", drawing(rows)), \
            patch.object(fock, "octahedral_combination", recording):
        assert fock.plucker3_residual(dim, seed) == 0
    l_prime, l_space, extras = checked_split(dim, 2, rows)
    assert seen == {
        (i, j): reference_fock.bracket(
            l_prime, [extras[i - 1], extras[j - 1]], l_space)
        for i, j in combinations(range(1, 5), 2)}
    assert not forced or not any(seen.values())
    assert reference_fock.plucker3_combination(l_prime, l_space, extras) == 0
    assert fock.plucker3_residual(dim, seed) == 0
    assert reference_fock.plucker3_residual(dim, seed) == 0


@settings(max_examples=100, deadline=None)
@given(plucker_draws(3, range(9, 12)), st.integers(0, 2**32))
def test_plucker4_residuals_match_checked_draw_reference(case, seed):
    dim, rows, _ = case
    with patch.object(fock, "_draw", drawing(rows)):
        residuals = fock.plucker4_residuals(dim, seed)
    assert residuals == reference_fock.plucker4_combinations(
        *checked_split(dim, 3, rows))
    assert fock.plucker4_residuals(dim, seed) == \
        reference_fock.plucker4_residuals(dim, seed)


# -------------------------------------------------------------------- kp


@st.composite
def schur_cases(draw):
    """A partition of weight <= 8 and a variable count m in [|lambda|, 10]."""
    parts, room = [], draw(st.integers(0, 8))
    while room:
        part = draw(st.integers(1, min([room] + parts[-1:])))
        parts.append(part)
        room -= part
    return Partition(tuple(parts)), draw(st.integers(sum(parts), 10))


@settings(max_examples=150, deadline=None)
@given(schur_cases())
def test_schur_matches_fraction_reference(case):
    lam, m = case
    poly = schur(lam, m)
    assert poly == reference_kp.schur(lam, m)
    assert all(type(c) is Fraction for c in poly.values())


def test_schur_matches_fraction_reference_through_weight_12():
    for lam in partitions_up_to(12):
        for m in (lam.size, lam.size + 2):
            assert schur(lam, m) == reference_kp.schur(lam, m), (lam, m)


COEFFS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def tau_polys(draw):
    """A polynomial in m in [3, 6] variables with up to 6 terms and Fraction
    coefficients of mixed denominators.  The differentiated t1..t3 take
    exponents up to 4; t4..t6, which are only multiplied, take any exponent
    a packed key holds, up to 2^15 - 1, so a carry between key fields
    would show."""
    m = draw(st.integers(3, 6))
    exps = st.tuples(*[st.integers(0, 4)] * 3,
                     *[st.integers(0, 2 ** 15 - 1)] * (m - 3))
    terms = draw(st.dictionaries(exps, COEFFS, max_size=6))
    return {exp: c for exp, c in terms.items() if c}, m


@settings(max_examples=200, deadline=None)
@given(tau_polys())
@example(({}, 3))
@example(({(0, 0, 0): Fraction(-7, 3)}, 3))
@example(({(0, 0, 0, 0): Fraction(5)}, 4))
@example(({(1, 0, 0, 2 ** 15 - 1): Fraction(1),
           (2, 1, 1, 2 ** 15 - 1): Fraction(-3, 2)}, 4))
# a factor that cancels completely: tau_xx - tau_y = 0 in s_(2) and
# tau_xx + tau_y = 0 in s_(1,1)
@example(({(2, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(1)}, 3))  # s_(2)
@example(({(2, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-1)}, 3))  # s_(1,1)
def test_kp_residual_matches_fraction_reference(case):
    tau, m = case
    residual = kp_bilinear_residual(tau, m)
    assert residual == reference_kp.kp_bilinear_residual(tau)
    assert all(type(c) is Fraction for c in residual.values())
    if len(tau) <= 1 and all(not any(exp) for exp in tau):
        assert residual == {}  # {} and constants


@settings(max_examples=100, deadline=None)
@given(tau_polys(), COEFFS.filter(bool))
def test_kp_residual_scales_quadratically(case, c):
    tau, m = case
    scaled = {exp: c * x for exp, x in tau.items()}
    assert kp_bilinear_residual(scaled, m) == \
        {exp: c * c * x for exp, x in kp_bilinear_residual(tau, m).items()}
