"""Scan 4-edge convex lattice polygons: key, dedup, generate, match.

Each piece of work happens once.  A cycle's key and its torsion gate do
not change under the 8 symmetries of the box [-B, B]^2.  A symmetry is
unimodular, so the minors p_ij of an image are the cycle's up to one common
sign and a relabelling of the edges, and neither the key (the recurrence of
the polygon) nor the gcd of the minors sees either.  A reflection turns
the cycle cw, so its image is read backwards.  So the first cycle of a key
in lexicographic order is least in its own orbit, and a walk of only the
orbit-least cycles, in lexicographic order, meets the same first cycle per
key; the counts add each walked cycle's orbit size, 8 / |stabiliser|.
One table per first edge, _y_ranges, states which edges such a cycle can
have (the cut) and through which edges it can tie with an image.

The unit of parallel work is a slice of the walk's (e1, e2) pairs taken by
stride.  A slice keys each polygon by three 2x2 minors of its edges without
building the cycle, and builds the edge cycle only of a key's first
polygon.  The parent merges the slices by keeping, per key, the smallest
edge cycle, which is the one a serial walk meets first.  So 1-worker and
N-worker runs are byte-identical.  The parent then builds the record of
each kept key once: its recurrence is pairs_from_spreads(*key), generated
and matched.  What records share is built once: the scan's MatchPolicy
(ScanConfig.policy).  A record's terms are its run's text by
recurrence.SequenceRun.term_texts, one string per distinct term, so its
seed window of ones shares one "1".  A record's text is formatted, not
encoded: its dedup key is one %-format of its six offsets, and its JSON
line (jsonl_line) one %-format of the fixed record schema with its terms
joined in, the bytes of json.dumps(record, sort_keys=True), which
tests/reference_scan.py keeps as the reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice
from math import gcd
from typing import Iterable, TextIO

from .oeis import MatchPolicy, QueryTooShort, StrippedDb, match_sequence
from .recurrence import (BilinearRecurrence, generate, pairs_from_spreads,
                         spreads)


@dataclass(frozen=True)
class ScanConfig:
    bound: int
    terms: int = 24
    min_match_terms: int = MatchPolicy.min_match_terms
    policy: MatchPolicy = field(init=False)  # the one of every record

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("coordinate bound must be >= 0")
        if self.terms < 16:
            raise ValueError("terms per sequence must be >= 16")
        object.__setattr__(self, "policy", MatchPolicy(
            min_match_terms=self.min_match_terms))  # oeis checks its floor


Edge = tuple[int, int]
Cycle = tuple[Edge, Edge, Edge, Edge]
# Gale-Robinson coordinates (N, s_lo, s_hi) of a cycle's recurrence, from
# recurrence.spreads, the arguments of recurrence.pairs_from_spreads
Key = tuple[int, int, int]

# the JSON text of a recurrence's pairs, a record's dedup key
_PAIRS = "[[%d, %d], [%d, %d], [%d, %d]]"
# a record's JSON line, its keys sorted: every string of a record (the
# dedup key, the status, the match note, A-numbers and terms) is ASCII
# with no quote, backslash or control character, so it is its own JSON
# text, and it has at least one term (a window is at least 1)
_LINE = ('{"basis": [[%d, %d, %d, %d], [%d, %d, %d, %d]], "dedup_key": "%s", '
         '%s"matches": [%s], "recurrence": {"pairs": ' + _PAIRS + ', '
         '"signs": [%d, %d, %d], "window": %d}, "status": "%s", '
         '"terms": ["%s"]}\n')
_MATCH = '{"a_number": "%s", "position": %d}'


def complete_record(edges: Cycle, rec: BilinearRecurrence, cfg: ScanConfig,
                    db: StrippedDb) -> dict:
    """The output record of a kept edge cycle and its recurrence: basis
    (the edges as columns), recurrence, dedup key (the JSON text of the
    canonical pairs), generate status, terms and OEIS matches.

    The run has max(cfg.terms, rec.window) terms from the all-ones window,
    so a recurrence whose window is at least cfg.terms takes no step: its
    terms are the seed window of ones, its status is "ok" and the summary
    counts it as integral, and its query is usually too short to match
    (657 and 855 of the 940 bound-5 records at 24 terms).

    The terms are the run's own text, SequenceRun.term_texts, the one
    rule that turns a run into text: one str per distinct term, shared by
    its positions.  The policy is cfg's, one per scan.
    """
    p1, p2, p3 = rec.pairs
    recurrence = rec.to_json_dict()
    record = {"basis": [list(row) for row in zip(*edges)],
              "recurrence": recurrence,
              "dedup_key": _PAIRS % (*p1, *p2, *p3)}
    run = generate(rec, max(cfg.terms, rec.window))
    record["status"] = run.status
    record["terms"] = run.term_texts()
    record["matches"] = []
    if run.status == "ok":
        try:
            hits = match_sequence(db, run.terms, cfg.policy)
            record["matches"] = [{"a_number": a, "position": pos}
                                 for a, pos in hits]
        except QueryTooShort:
            record["match_note"] = "query too short after trimming"
    return record


# one slice's (total, torsion count, {key: first edge cycle})
Slice = tuple[int, int, dict[Key, Cycle]]

# the 8 symmetries of the square as (swap, sx, sy): (x, y) -> (sx x, sy y),
# or (sx y, sy x) when swap; the identity first
_SYMMETRIES = [(swap, sx, sy) for swap in (False, True)
              for sx in (1, -1) for sy in (1, -1)]


def _to_first(e1: Edge) -> dict[Edge, list[tuple[bool, int, int, int]]]:
    """{edge: [(swap, sx, sy, step)]}: each symmetry but the identity that
    sends the edge to e1, with step 1 for a rotation and -1 for a
    reflection, whose image cycle runs backwards."""
    x1, y1 = e1
    to_first: dict[Edge, list[tuple[bool, int, int, int]]] = {}
    for swap, sx, sy in _SYMMETRIES[1:]:
        edge = (sy * y1, sx * x1) if swap else (sx * x1, sy * y1)
        to_first.setdefault(edge, []).append(
            (swap, sx, sy, 1 if (sx == sy) != swap else -1))
    return to_first


def _orbit_weight(edges: Cycle, to_first: dict) -> int:
    """8 / |stabiliser| of a cycle that starts at e1 = (-M, -m) and has no
    edge with a coordinate +-M and the other beyond m in absolute value,
    or 0 if one of its images is smaller.  Only an image that starts at e1
    can tie with it: one for each symmetry sending an edge to e1."""
    stabiliser = 1
    for i, edge in enumerate(edges):
        for swap, sx, sy, step in to_first.get(edge, ()):
            for k in (1, 2, 3):
                x, y = edges[(i + k * step) % 4]
                image = (sx * y, sy * x) if swap else (sx * x, sy * y)
                if image != edges[k]:
                    if image < edges[k]:
                        return 0
                    break
            else:
                stabiliser += 1
    return 8 // stabiliser


def _y_ranges(big: int, small: int) -> dict[int, tuple[int, int, tuple]]:
    """{x: (lo, hi, ties)} for x = -M..M, the table of e1 = (-M, -m): the
    y range lo..hi an edge (x, y) of an orbit-least cycle may take, and the
    y where that edge's |coordinates| are {M, m}.

    An edge with a coordinate +-M beside one beyond m in absolute value has
    an image smaller than e1, so |x| = M keeps |y| <= m and m < |x| < M
    keeps |y| < M; any other column keeps the M-box.  Only an edge whose
    |coordinates| are {M, m} can tie the cycle with an image: at |x| = M
    the ties are y = +-m, at |x| = m < M they are y = +-M."""
    ys = {}
    for x in range(-big, big + 1):
        if abs(x) == big:
            ys[x] = (-small, small, (-small, small))
        elif abs(x) > small:
            ys[x] = (1 - big, big - 1, ())
        else:
            ys[x] = (-big, big, (-big, big) if abs(x) == small else ())
    return ys


def _first_pairs(bound: int):
    """(M, e1, e2, _y_ranges(M, m), _to_first(e1)) for e1 = (-M, -m),
    M = B..1 and m = M..0, and each e2 with cross(e1, e2) > 0 and y2 in
    its column's range of the table, in lexicographic order."""
    for big in range(bound, 0, -1):
        for small in range(big, -1, -1):
            e1 = (-big, -small)
            ys, to_first = _y_ranges(big, small), _to_first(e1)
            # cross(e1, e2) > 0 is M y2 < m x2: an upper end at or below
            # the table's hi, and below its lo in the column x2 = -M
            for x2, (y2_lo, _, _) in ys.items():
                for y2 in range(y2_lo, (small * x2 - 1) // big + 1):
                    yield big, e1, (x2, y2), ys, to_first


def scan_slice(bound: int, start: int = 0, step: int = 1) -> Slice:
    """Enumerate and key the orbit-least 4-edge strictly convex ccw cycles
    with coordinates in [-B, B] whose (e1, e2) pair is in
    _first_pairs(bound)[start::step]: the sum of their orbit sizes, that
    sum over the torsion skips, and for each key the first edge cycle, in
    lexicographic order, that gives it.

    A cycle stands for its rotation class as the rotation that starts at
    its smallest edge (the edges of a strictly convex cycle point in
    distinct directions), and so does each of its images.  An orbit-least
    cycle starts at e1 = (-M, -m), 0 <= m <= M, with M the largest
    |coordinate| of its edges, and each of its edges (x, y) has y in the
    range of column x of e1's table, _y_ranges(M, m), which states the cut
    to orbit-least cycles and the y where an edge can tie.  A cycle can tie
    with an image only through e1 itself (m is 0 or M), e2, or a tie of e3
    or e4 in the table; _orbit_weight settles each tie, and any other
    cycle is alone least in an orbit of 8.

    Fixing e1, e2 and x3 fixes x4, and each remaining test is linear in
    y3: the table's range of e3 at x3 and of e4 = (x4, -sy - y3) at x4,
    which keep both in the M-box and not smaller than e1, and a*y3 > b for
    the crosses (e2, e3), (e3, e4) and (e4, e1), which also keep them from
    being e1.  So each column x3 is one interval of y3, cut by floor
    division; a zero a keeps the column if b < 0, else empties it.  Over a
    column p12 is fixed and p13, p23 step by x1 and x2, so each y3 is keyed
    by recurrence.spreads of the three minors, or skipped as torsion when
    their gcd is not 1; its edge cycle is built only for a new key.
    """
    total = torsion = 0
    firsts: dict[Key, Cycle] = {}
    for big, e1, e2, ys, to_first in islice(_first_pairs(bound), start,
                                            None, step):
        x1, y1 = e1
        x2, y2 = e2
        p12 = x1 * y2 - y1 * x2
        sx, sy = x1 + x2, y1 + y2
        pair_tie = e1 in to_first or e2 in to_first
        for x3 in range(max(-big, -big - sx), min(big, big - sx) + 1):
            x4 = -sx - x3
            # e3's range and ties, and e4's through y3 = -sy - y4
            lo, hi, ties = ys[x3]
            lo4, hi4, ties4 = ys[x4]
            lo, hi = max(lo, -sy - hi4), min(hi, -sy - lo4)
            for a, b in ((x2, y2 * x3), (sx, sy * x3),
                         (x1, (sx + x3) * y1 - sy * x1)):
                if a > 0:
                    lo = max(lo, b // a + 1)
                elif a < 0:
                    hi = min(hi, (-b - 1) // -a)
                elif b >= 0:
                    hi = lo - 1
            if lo > hi:
                continue
            if pair_tie:
                ties = range(lo, hi + 1)
            elif ties4:
                ties += (-sy - ties4[0], -sy - ties4[1])
            total += 8 * (hi - lo + 1)
            p13 = x1 * (lo - 1) - y1 * x3
            p23 = x2 * (lo - 1) - y2 * x3
            for y3 in range(lo, hi + 1):
                p13 += x1
                p23 += x2
                weight = 8
                if y3 in ties:
                    weight = _orbit_weight((e1, e2, (x3, y3), (x4, -sy - y3)),
                                           to_first)
                    total += weight - 8
                    if not weight:
                        continue
                if gcd(p12, p13, p23) != 1:
                    torsion += weight
                    continue
                key = spreads(p12, p13, p23)
                if key not in firsts:
                    firsts[key] = (e1, e2, (x3, y3), (x4, -sy - y3))
    return total, torsion, firsts


# generate status -> summary counter; any other status is "degenerate"
_STATUS_COUNTER = {"ok": "integral", "non-integral": "non_integral"}


def merge_slices(slices: Iterable[Slice], cfg: ScanConfig,
                 db: StrippedDb) -> tuple[list[dict], dict]:
    """Sum the slices' counts, keep the least edge cycle per key, and
    complete each kept cycle once, sorted by dedup key."""
    total = torsion = 0
    kept: dict[Key, Cycle] = {}
    for slice_total, slice_torsion, firsts in slices:
        total += slice_total
        torsion += slice_torsion
        for key, edges in firsts.items():
            if key not in kept or edges < kept[key]:
                kept[key] = edges
    records = sorted(
        (complete_record(edges, BilinearRecurrence(pairs_from_spreads(*key)),
                         cfg, db) for key, edges in kept.items()),
        key=lambda record: record["dedup_key"])
    summary = {"total": total,
               "skipped": {"torsion": torsion} if torsion else {},
               "integral": 0, "non_integral": 0, "degenerate": 0,
               "matched": 0, "unmatched": 0, "duplicates": 0, "unique": 0}
    for record in records:
        summary[_STATUS_COUNTER.get(record["status"], "degenerate")] += 1
        summary["matched" if record["matches"] else "unmatched"] += 1
    summary["unique"] = len(records)
    summary["duplicates"] = total - len(records) - torsion
    return records, summary


def run_scan(cfg: ScanConfig, db: StrippedDb,
             workers: int = 1) -> tuple[list[dict], dict]:
    """Scan every enumerated cycle; return (sorted records, summary)."""
    if workers <= 1:
        return merge_slices([scan_slice(cfg.bound)], cfg, db)
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        slices = list(pool.map(scan_slice, [cfg.bound] * workers,
                               range(workers), [workers] * workers))
    return merge_slices(slices, cfg, db)


def jsonl_line(record: dict) -> str:
    """json.dumps(record, sort_keys=True) + "\n" of a record of
    complete_record, by one format of its fixed schema."""
    (b1, b2), recurrence = record["basis"], record["recurrence"]
    (p1, p2, p3), note = recurrence["pairs"], record.get("match_note")
    return _LINE % (
        *b1, *b2, record["dedup_key"],
        "" if note is None else '"match_note": "%s", ' % note,
        ", ".join(_MATCH % (m["a_number"], m["position"])
                  for m in record["matches"]),
        *p1, *p2, *p3, *recurrence["signs"], recurrence["window"],
        record["status"], '", "'.join(record["terms"]))


def write_jsonl(records: list[dict], path: str,
                echo: TextIO | None = None) -> None:
    """Write the records as JSON lines, each line also to `echo` if given,
    so a record is serialised once for both."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            line = jsonl_line(record)
            fh.write(line)
            if echo is not None:
                echo.write(line)


def write_summary(summary: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
