"""Scan 4-edge convex lattice polygons: derive, dedup, generate, match.

Each piece of work happens once.  The enumeration emits one polygon per
rotation class, in lexicographic order of its edge cycle.  The unit of
parallel work is a slice of first edges taken by stride: a slice
enumerates its own cycles, derives each basis, and keeps the first edge
cycle of each distinct recurrence.  The parent merges the slices by
keeping, per recurrence, the smallest edge cycle, which is the one a serial
walk in enumeration order meets first.  So 1-worker and N-worker runs are
byte-identical.  The parent then builds the record of each kept recurrence
once, which is where it is generated and matched.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

from .lattice import (LatticeError, RankError, SublatticeBasis, TorsionError,
                      edges_to_basis)
from .oeis import MatchPolicy, QueryTooShort, StrippedDb, match_sequence
from .recurrence import (BilinearRecurrence, UnsolvableError,
                         derive_recurrence, generate, term_str)


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


Edge = tuple[int, int]
Cycle = tuple[Edge, Edge, Edge, Edge]


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
    vectors = [(x, y) for x in coords for y in coords if (x, y) != (0, 0)]
    cross = lambda u, v: u[0] * v[1] - u[1] * v[0]
    cycles = []
    for i in range(start, len(vectors), step):
        e1 = vectors[i]
        later = vectors[i + 1:]
        for e2 in later:
            if cross(e1, e2) <= 0:
                continue
            for e3 in later:
                if cross(e2, e3) <= 0:
                    continue
                e4 = (-(e1[0] + e2[0] + e3[0]), -(e1[1] + e2[1] + e3[1]))
                if abs(e4[0]) > bound or abs(e4[1]) > bound or e4 <= e1:
                    continue
                if cross(e3, e4) <= 0 or cross(e4, e1) <= 0:
                    continue
                cycles.append((e1, e2, e3, e4))
    return cycles


def scan_one(basis: SublatticeBasis) -> BilinearRecurrence | str:
    """Derive a basis: its canonical recurrence, or the reason it is
    skipped."""
    try:
        return derive_recurrence(basis)
    except TorsionError:
        return "torsion"
    except UnsolvableError:
        return "unsolvable"
    except RankError:
        return "rank"
    except LatticeError as exc:  # pragma: no cover - defensive
        return f"lattice: {exc}"


def complete_record(edges: Cycle, rec: BilinearRecurrence, cfg: ScanConfig,
                    db: StrippedDb) -> dict:
    """The output record of a kept recurrence and the edge cycle it was
    first derived from: basis, recurrence, dedup key (the JSON text of the
    canonical pairs), generate status, terms and OEIS matches.

    The run has max(cfg.terms, rec.window) terms from the all-ones window,
    so a recurrence whose window is at least cfg.terms takes no step: its
    terms are the seed window of ones, its status is "ok" and the summary
    counts it as integral, and its query is usually too short to match
    (657 and 855 of the 940 bound-5 records at 24 terms).
    """
    basis = edges_to_basis(edges)
    recurrence = rec.to_json_dict()
    record = {"basis": [list(basis.a), list(basis.b)],
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


# one slice's (total, skip counts by reason, {recurrence: first edge cycle})
Slice = tuple[int, dict[str, int], dict[BilinearRecurrence, Cycle]]


def scan_slice(bound: int, start: int = 0, step: int = 1) -> Slice:
    """Enumerate and derive the cycles whose first edge is in the slice
    vectors[start::step]; keep the first edge cycle of each recurrence."""
    skipped: dict[str, int] = {}
    firsts: dict[BilinearRecurrence, Cycle] = {}
    cycles = enumerate_edge_cycles(bound, start, step)
    for edges in cycles:
        rec = scan_one(edges_to_basis(edges))
        if isinstance(rec, str):
            skipped[rec] = skipped.get(rec, 0) + 1
        else:
            firsts.setdefault(rec, edges)
    return len(cycles), skipped, firsts


# generate status -> summary counter; any other status is "degenerate"
_STATUS_COUNTER = {"ok": "integral", "non-integral": "non_integral"}


def merge_slices(slices: Iterable[Slice], cfg: ScanConfig,
                 db: StrippedDb) -> tuple[list[dict], dict]:
    """Sum the slices' counts, keep the least edge cycle per recurrence,
    and complete each kept recurrence once, sorted by dedup key."""
    summary = {"total": 0, "skipped": {}, "integral": 0, "non_integral": 0,
               "degenerate": 0, "matched": 0, "unmatched": 0,
               "duplicates": 0, "unique": 0}
    kept: dict[BilinearRecurrence, Cycle] = {}
    for total, skipped, firsts in slices:
        summary["total"] += total
        for reason, count in skipped.items():
            summary["skipped"][reason] = \
                summary["skipped"].get(reason, 0) + count
        for rec, edges in firsts.items():
            if rec not in kept or edges < kept[rec]:
                kept[rec] = edges
    records = sorted((complete_record(edges, rec, cfg, db)
                      for rec, edges in kept.items()),
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
    """Scan every enumerated basis; return (sorted records, summary)."""
    if workers <= 1:
        return merge_slices([scan_slice(cfg.bound)], cfg, db)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        slices = list(pool.map(scan_slice, [cfg.bound] * workers,
                               range(workers), [workers] * workers))
    return merge_slices(slices, cfg, db)


def write_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_summary(summary: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
