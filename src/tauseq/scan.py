"""Scan 4-edge convex lattice polygons: key, dedup, generate, match.

Each piece of work happens once.  The unit of parallel work is a slice of
first edges taken by stride.  A slice walks its polygons, one per
rotation class, in lexicographic order of the edge cycle, and keys each by
three 2x2 minors of its edges without building the cycle; it builds the
edge cycle only of a key's first polygon.  The parent merges the slices by
keeping, per key, the smallest edge cycle, which is the one a serial walk
in enumeration order meets first.  So 1-worker and N-worker runs are
byte-identical.  The parent then builds the record of each kept key once:
its recurrence is pairs_from_spreads(*key), generated and matched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
        MatchPolicy(min_match_terms=self.min_match_terms)  # oeis's floor of 4


Edge = tuple[int, int]
Cycle = tuple[Edge, Edge, Edge, Edge]
# Gale-Robinson coordinates (N, s_lo, s_hi) of a cycle's recurrence, from
# recurrence.spreads, the arguments of recurrence.pairs_from_spreads
Key = tuple[int, int, int]


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
    """
    recurrence = rec.to_json_dict()
    record = {"basis": [list(row) for row in zip(*edges)],
              "recurrence": recurrence,
              "dedup_key": json.dumps(recurrence["pairs"])}
    run = generate(rec, max(cfg.terms, rec.window))
    record["status"] = run.status
    record["terms"] = [term_str(t) for t in run.terms]
    record["matches"] = []
    if run.status == "ok":
        try:
            policy = MatchPolicy(min_match_terms=cfg.min_match_terms)
            hits = match_sequence(db, run.terms, policy)
            record["matches"] = [{"a_number": a, "position": pos}
                                 for a, pos in hits]
        except QueryTooShort:
            record["match_note"] = "query too short after trimming"
    return record


# one slice's (total, torsion count, {key: first edge cycle})
Slice = tuple[int, int, dict[Key, Cycle]]


def scan_slice(bound: int, start: int = 0, step: int = 1) -> Slice:
    """Enumerate and key the 4-edge strictly convex ccw cycles with
    coordinates in [-B, B] whose first edge is in vectors[start::step]:
    their count, the count of torsion skips, and for each key the first
    edge cycle, in lexicographic order, that gives it.

    The edges of a strictly convex cycle point in distinct directions, so
    the lexicographically smallest rotation is the one that starts at the
    smallest edge.  Walking only cycles whose first edge is the smallest
    meets each rotation class once, and the nested loops meet them in
    order.

    Fixing e1, e2 and x3 fixes x4, and each remaining test is linear in
    y3: the box, e1 < e3, e1 < e4, and a*y3 > b for the crosses (e2, e3),
    (e3, e4) and (e4, e1).  So each column x3 is one interval of y3, cut by
    floor division; a zero a keeps the column if b < 0, else empties it.
    Over a column p12 is fixed and p13, p23 are affine in y3, so each y3 is
    keyed by recurrence.spreads of the three minors, or skipped as torsion
    when their gcd is not 1; its edge cycle is built only for a new key.
    """
    coords = range(-bound, bound + 1)
    vectors = [(x, y) for x in coords for y in coords if (x, y) != (0, 0)]
    total = torsion = 0
    firsts: dict[Key, Cycle] = {}
    for i in range(start, len(vectors), step):
        e1 = vectors[i]
        x1, y1 = e1
        for e2 in vectors[i + 1:]:
            x2, y2 = e2
            p12 = x1 * y2 - y1 * x2
            if p12 <= 0:
                continue
            sx, sy = x1 + x2, y1 + y2
            box_lo, box_hi = max(-bound, -bound - sy), min(bound, bound - sy)
            for x3 in range(max(x1, -bound - sx),
                            min(bound, bound - sx, -sx - x1) + 1):
                x4 = -sx - x3
                lo = box_lo if x3 > x1 else max(box_lo, y1 + 1)
                hi = box_hi if x4 > x1 else min(box_hi, -sy - y1 - 1)
                for a, b in ((x2, y2 * x3), (sx, sy * x3),
                             (x1, (sx + x3) * y1 - sy * x1)):
                    if a > 0:
                        lo = max(lo, b // a + 1)
                    elif a < 0:
                        hi = min(hi, (-b - 1) // -a)
                    elif b >= 0:
                        hi = lo - 1
                total += max(0, hi - lo + 1)
                for y3 in range(lo, hi + 1):
                    p13 = x1 * y3 - y1 * x3
                    p23 = x2 * y3 - y2 * x3
                    if gcd(p12, p13, p23) != 1:
                        torsion += 1
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
    return json.dumps(record, sort_keys=True) + "\n"


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
