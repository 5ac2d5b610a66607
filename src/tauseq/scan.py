"""Scan 4-edge convex lattice polygons: key, dedup, derive, generate, match.

Each piece of work happens once.  The enumeration emits one polygon per
rotation class, in lexicographic order of its edge cycle.  The unit of
parallel work is a slice of first edges taken by stride: a slice
enumerates its own cycles, keys each one by three 2x2 minors of its edges,
and keeps the first edge cycle of each distinct key.  The parent merges
the slices by keeping, per key, the smallest edge cycle, which is the one a
serial walk in enumeration order meets first.  So 1-worker and N-worker
runs are byte-identical.  The parent then builds the record of each kept
key once: its recurrence is pairs_from_spreads(*key), generated and
matched.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import gcd
from typing import Iterable, TextIO

from .oeis import MatchPolicy, QueryTooShort, StrippedDb, match_sequence
from .recurrence import (BilinearRecurrence, generate, pairs_from_spreads,
                         term_str)


@dataclass(frozen=True)
class ScanConfig:
    bound: int
    terms: int = 24
    min_match_terms: int = 10

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("coordinate bound must be >= 0")
        if self.terms < 16:
            raise ValueError("terms per sequence must be >= 16")
        MatchPolicy(min_match_terms=self.min_match_terms)  # oeis's floor of 4


Edge = tuple[int, int]
Cycle = tuple[Edge, Edge, Edge, Edge]
# Gale-Robinson coordinates (N, s_lo, s_hi) of a cycle's recurrence, the
# arguments of recurrence.pairs_from_spreads
Key = tuple[int, int, int]


def enumerate_edge_cycles(bound: int, start: int = 0, step: int = 1
                          ) -> list[Cycle]:
    """All 4-edge strictly convex ccw cycles with coordinates in [-B, B],
    one representative per cyclic rotation class, in lexicographic order;
    only those whose first edge is in vectors[start::step].

    The edges of a strictly convex cycle point in distinct directions, so
    the lexicographically smallest rotation is the one that starts at the
    smallest edge.  Emitting only cycles whose first edge is the smallest
    yields each class once, and the nested loops emit them in order.
    """
    coords = range(-bound, bound + 1)
    grid = [[(x, y) for y in coords] for x in coords]  # grid[x + B][y + B]
    vectors = [v for column in grid for v in column if v != (0, 0)]
    cross = lambda u, v: u[0] * v[1] - u[1] * v[0]
    cycles = []
    for i in range(start, len(vectors), step):
        e1 = vectors[i]
        x1, y1 = e1
        for e2 in vectors[i + 1:]:
            if cross(e1, e2) <= 0:
                continue
            # e3 runs over the vectors after e1 that keep
            # e4 = -(e1 + e2 + e3) in the box, in lexicographic order
            sx, sy = x1 + e2[0], y1 + e2[1]
            lo, hi = max(-bound, -bound - sy), min(bound, bound - sy)
            for x3 in range(max(x1, -bound - sx), min(bound, bound - sx) + 1):
                first = lo if x3 > x1 else max(lo, y1 + 1)
                for e3 in grid[x3 + bound][first + bound:hi + bound + 1]:
                    if cross(e2, e3) <= 0:  # also drops e3 = (0, 0)
                        continue
                    e4 = (-sx - x3, -sy - e3[1])
                    if e4 <= e1 or cross(e3, e4) <= 0 or cross(e4, e1) <= 0:
                        continue
                    cycles.append((e1, e2, e3, e4))
    return cycles


def scan_one(edges: Cycle) -> Key | str:
    """The key (N, s_lo, s_hi) of the recurrence a convex cycle derives, or
    "torsion", from p_ij = cross(e_i, e_j): the spreads of its minus pair
    and of its plus pairs in order, so the recurrence's pairs are
    recurrence.pairs_from_spreads(*key); see the recurrence module
    docstring.  Equal keys are equal recurrences."""
    (x1, y1), (x2, y2), (x3, y3), _ = edges
    p12 = x1 * y2 - y1 * x2
    p13 = x1 * y3 - y1 * x3
    p23 = x2 * y3 - y2 * x3
    if gcd(p12, p13, p23) != 1:
        return "torsion"
    n = p12 + p13 + p23
    s3, s1 = abs(n - 2 * p12), abs(n - 2 * (p12 + p13))
    return (n, s1, s3) if s1 <= s3 else (n, s3, s1)


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


# one slice's (total, skip counts by reason, {key: first edge cycle})
Slice = tuple[int, dict[str, int], dict[Key, Cycle]]


def scan_slice(bound: int, start: int = 0, step: int = 1) -> Slice:
    """Enumerate and key the cycles whose first edge is in the slice
    vectors[start::step]; keep the first edge cycle of each key."""
    skipped: dict[str, int] = {}
    firsts: dict[Key, Cycle] = {}
    cycles = enumerate_edge_cycles(bound, start, step)
    for edges in cycles:
        key = scan_one(edges)
        if isinstance(key, str):
            skipped[key] = skipped.get(key, 0) + 1
        else:
            firsts.setdefault(key, edges)
    return len(cycles), skipped, firsts


# generate status -> summary counter; any other status is "degenerate"
_STATUS_COUNTER = {"ok": "integral", "non-integral": "non_integral"}


def merge_slices(slices: Iterable[Slice], cfg: ScanConfig,
                 db: StrippedDb) -> tuple[list[dict], dict]:
    """Sum the slices' counts, keep the least edge cycle per key, and
    complete each kept cycle once, sorted by dedup key."""
    summary = {"total": 0, "skipped": {}, "integral": 0, "non_integral": 0,
               "degenerate": 0, "matched": 0, "unmatched": 0,
               "duplicates": 0, "unique": 0}
    kept: dict[Key, Cycle] = {}
    for total, skipped, firsts in slices:
        summary["total"] += total
        for reason, count in skipped.items():
            summary["skipped"][reason] = \
                summary["skipped"].get(reason, 0) + count
        for key, edges in firsts.items():
            if key not in kept or edges < kept[key]:
                kept[key] = edges
    records = sorted(
        (complete_record(edges, BilinearRecurrence(pairs_from_spreads(*key)),
                         cfg, db) for key, edges in kept.items()),
        key=lambda record: record["dedup_key"])
    for record in records:
        summary[_STATUS_COUNTER.get(record["status"], "degenerate")] += 1
        summary["matched" if record["matches"] else "unmatched"] += 1
    summary["unique"] = len(records)
    summary["duplicates"] = (summary["total"] - len(records)
                             - sum(summary["skipped"].values()))
    return records, summary


def run_scan(cfg: ScanConfig, db: StrippedDb,
             workers: int = 1) -> tuple[list[dict], dict]:
    """Scan every enumerated cycle; return (sorted records, summary)."""
    if workers <= 1:
        return merge_slices([scan_slice(cfg.bound)], cfg, db)
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
