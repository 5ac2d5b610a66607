"""Scan 4-edge convex lattice polygons: derive, dedup, generate, match.

Each piece of work happens once.  The enumeration emits one polygon per
rotation class, already in order.  Deriving a recurrence is a pure function
of the basis, so it can run on a process pool.  The parent walks the derived
records in enumeration order and generates and matches only the first basis
of each distinct recurrence, which keeps 1-worker and N-worker runs
byte-identical.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

from .lattice import LatticeError, RankError, SublatticeBasis, TorsionError
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


def enumerate_edge_cycles(bound: int) -> list[tuple[Edge, Edge, Edge, Edge]]:
    """All 4-edge strictly convex ccw cycles with coordinates in [-B, B],
    one representative per cyclic rotation class, in lexicographic order.

    The edges of a strictly convex cycle point in distinct directions, so
    the lexicographically smallest rotation is the one that starts at the
    smallest edge.  Emitting only cycles whose first edge is the smallest
    yields each class once, and the nested loops emit them in order.
    """
    coords = range(-bound, bound + 1)
    vectors = [(x, y) for x in coords for y in coords if (x, y) != (0, 0)]
    cross = lambda u, v: u[0] * v[1] - u[1] * v[0]
    cycles = []
    for i, e1 in enumerate(vectors):
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


def enumerate_bases(cfg: ScanConfig) -> Iterator[SublatticeBasis]:
    for edges in enumerate_edge_cycles(cfg.bound):
        yield SublatticeBasis(tuple(e[0] for e in edges),
                              tuple(e[1] for e in edges))


def scan_one(basis: SublatticeBasis) -> dict:
    """Derive a basis into a record: a skip reason, or its canonical
    recurrence and the dedup key (its canonical pairs)."""
    record: dict = {"basis": [list(basis.a), list(basis.b)]}
    try:
        derived = derive_recurrence(basis)
    except TorsionError as exc:
        record["skip"] = "torsion"
        record["invariant_factors"] = list(exc.invariant_factors)
        return record
    except UnsolvableError:
        record["skip"] = "unsolvable"
        return record
    except RankError:
        record["skip"] = "rank"
        return record
    except LatticeError as exc:  # pragma: no cover - defensive
        record["skip"] = f"lattice: {exc}"
        return record
    record["recurrence"] = derived.recurrence.to_json_dict()
    record["dedup_key"] = json.dumps(record["recurrence"]["pairs"])
    return record


def complete_record(record: dict, cfg: ScanConfig, db: StrippedDb) -> dict:
    """Add status, terms and OEIS matches to a derived, non-skipped record."""
    rec = BilinearRecurrence.from_json_dict(record["recurrence"])
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


# generate status -> summary counter; any other status is "degenerate"
_STATUS_COUNTER = {"ok": "integral", "non-integral": "non_integral"}


def _collect(derived: Iterable[dict], cfg: ScanConfig,
             db: StrippedDb) -> tuple[list[dict], dict]:
    """One pass in enumeration order: count skips and duplicates, and
    complete the first record of each distinct recurrence."""
    summary = {"total": 0, "skipped": {}, "integral": 0, "non_integral": 0,
               "degenerate": 0, "matched": 0, "unmatched": 0,
               "duplicates": 0, "unique": 0}
    kept: dict[str, dict] = {}
    for record in derived:
        summary["total"] += 1
        if "skip" in record:
            reason = record["skip"]
            summary["skipped"][reason] = summary["skipped"].get(reason, 0) + 1
            continue
        key = record["dedup_key"]
        if key in kept:
            summary["duplicates"] += 1
            continue
        kept[key] = complete_record(record, cfg, db)
        summary[_STATUS_COUNTER.get(record["status"], "degenerate")] += 1
        summary["matched" if record["matches"] else "unmatched"] += 1
    summary["unique"] = len(kept)
    records = sorted(kept.values(), key=lambda r: (r["dedup_key"], r["basis"]))
    return records, summary


def run_scan(cfg: ScanConfig, db: StrippedDb,
             workers: int = 1) -> tuple[list[dict], dict]:
    """Scan every enumerated basis; return (sorted records, summary)."""
    bases = enumerate_bases(cfg)
    if workers <= 1:
        return _collect(map(scan_one, bases), cfg, db)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _collect(pool.map(scan_one, bases, chunksize=64), cfg, db)


def write_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_summary(summary: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
