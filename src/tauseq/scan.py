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

The unit of parallel work is a slice of the walk's (e1, e2) pairs taken by
stride.  A slice keys each polygon by three 2x2 minors of its edges without
building the cycle, and builds the edge cycle only of a key's first
polygon.  The parent merges the slices by keeping, per key, the smallest
edge cycle, which is the one a serial walk meets first.  So 1-worker and
N-worker runs are byte-identical.  The parent then builds the record of
each kept key once: its recurrence is pairs_from_spreads(*key), generated
and matched.  What records share is built once: the scan's MatchPolicy
(ScanConfig.policy) and the module's two JSON encoders.  A record keeps one
string per distinct term, so its seed window of ones shares one "1".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import gcd
from typing import Iterable, TextIO

from .oeis import MatchPolicy, QueryTooShort, StrippedDb, match_sequence
from .recurrence import (BilinearRecurrence, generate, pairs_from_spreads,
                         spreads, term_str)


@dataclass(frozen=True)
class ScanConfig:
    bound: int
    terms: int = 24
    min_match_terms: int = MatchPolicy.min_match_terms

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("coordinate bound must be >= 0")
        if self.terms < 16:
            raise ValueError("terms per sequence must be >= 16")
        self.policy  # built now, so oeis checks its floor of 4 up front

    @cached_property
    def policy(self) -> MatchPolicy:
        """The one MatchPolicy of every record of the scan."""
        return MatchPolicy(min_match_terms=self.min_match_terms)


Edge = tuple[int, int]
Cycle = tuple[Edge, Edge, Edge, Edge]
# Gale-Robinson coordinates (N, s_lo, s_hi) of a cycle's recurrence, from
# recurrence.spreads, the arguments of recurrence.pairs_from_spreads
Key = tuple[int, int, int]

# json.dumps(obj) and json.dumps(obj, sort_keys=True), without building an
# encoder per call
_encode = json.JSONEncoder().encode
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


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

    Each distinct term is turned to text once, and its positions share
    that one str (CPython makes a new str(1) per call): a run's Fraction is
    never whole, so equal terms have equal text.  The policy is cfg's, one
    per scan.
    """
    recurrence = rec.to_json_dict()
    record = {"basis": [list(row) for row in zip(*edges)],
              "recurrence": recurrence,
              "dedup_key": _encode(recurrence["pairs"])}
    run = generate(rec, max(cfg.terms, rec.window))
    record["status"] = run.status
    text = {t: term_str(t) for t in set(run.terms)}
    record["terms"] = list(map(text.__getitem__, run.terms))
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


def _first_pairs(bound: int):
    """(M, m, e1, e2, _to_first(e1)) for e1 = (-M, -m), M = B..1 and
    m = M..0, and each e2 in the M-box with cross(e1, e2) > 0 and no
    coordinate +-M beside one beyond m, in lexicographic order."""
    for big in range(bound, 0, -1):
        for small in range(big, -1, -1):
            e1 = (-big, -small)
            to_first = _to_first(e1)
            # cross(e1, e2) > 0 is M y2 < m x2, so x2 = -M would need
            # y2 < -m
            for x2 in range(1 - big, big + 1):
                if abs(x2) == big:
                    y2_lo = -small
                elif abs(x2) > small:
                    y2_lo = 1 - big
                else:
                    y2_lo = -big
                for y2 in range(y2_lo, (small * x2 - 1) // big + 1):
                    yield big, small, e1, (x2, y2), to_first


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
    |coordinate| of its edges, and has every edge in the M-box.  An edge
    with a coordinate +-M and the other beyond m in absolute value has an
    image smaller than e1, so such a cycle is never walked: for e2 it
    bounds the e2 range, for e3 and e4 it cuts y3 (|x| = M keeps |y| <= m,
    |x| > m keeps |y| < M).  A cycle can tie with an image only through an
    edge whose |coordinates| are {M, m}: e1 itself when m is 0 or M, e2,
    or e3 or e4 at up to four y3 values per column.  _orbit_weight settles
    each tie; any other cycle is alone least in an orbit of 8.

    Fixing e1, e2 and x3 fixes x4, and each remaining test is linear in
    y3: the M-box and the cuts above, which keep e3 and e4 from being
    smaller than e1, and a*y3 > b for the crosses (e2, e3), (e3, e4) and
    (e4, e1), which also keep them from being e1.  So each column x3 is one
    interval of y3, cut by floor division; a zero a keeps the column if
    b < 0, else empties it.  Over a column p12 is fixed and p13, p23 step
    by x1 and x2, so each y3 is keyed by recurrence.spreads of the three
    minors, or skipped as torsion when their gcd is not 1; its edge cycle
    is built only for a new key.
    """
    total = torsion = 0
    firsts: dict[Key, Cycle] = {}
    for big, small, e1, e2, to_first in islice(_first_pairs(bound), start,
                                               None, step):
        x1, y1 = e1
        x2, y2 = e2
        p12 = x1 * y2 - y1 * x2
        sx, sy = x1 + x2, y1 + y2
        pair_tie = e1 in to_first or e2 in to_first
        box_lo, box_hi = max(-big, -big - sy), min(big, big - sy)
        for x3 in range(max(-big, -big - sx), min(big, big - sx) + 1):
            x4 = -sx - x3
            lo, hi = box_lo, box_hi
            # e3, then e4 = (x4, -sy - y3): the cuts of the M-box edges, and
            # the y3 where the edge's |coordinates| are {M, m}
            ties: tuple[int, ...] | range = ()
            if abs(x3) == big:
                lo, hi = max(lo, -small), min(hi, small)
                ties = (-small, small)
            elif abs(x3) > small:
                lo, hi = max(lo, 1 - big), min(hi, big - 1)
            elif abs(x3) == small:
                ties = (-big, big)
            if abs(x4) == big:
                lo, hi = max(lo, -sy - small), min(hi, small - sy)
                ties += (-sy - small, small - sy)
            elif abs(x4) > small:
                lo, hi = max(lo, 1 - big - sy), min(hi, big - 1 - sy)
            elif abs(x4) == small:
                ties += (-sy - big, big - sy)
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
    return _encode_sorted(record) + "\n"


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
