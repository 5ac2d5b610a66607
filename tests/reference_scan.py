"""Reference scan: the ordered walk that `tauseq.scan.run_scan` replaced
with merged first-edge slices.  Every basis is derived (on a pool that
receives the bases, when workers > 1), the derived recurrences are walked
in enumeration order, and the first of each recurrence is completed.
Tests compare the sliced scan against it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator

from tauseq.lattice import SublatticeBasis, edges_to_basis
from tauseq.oeis import StrippedDb
from tauseq.recurrence import BilinearRecurrence
from tauseq.scan import (ScanConfig, complete_record, enumerate_edge_cycles,
                         scan_one)

_STATUS_COUNTER = {"ok": "integral", "non-integral": "non_integral"}


def reference_bases(cfg: ScanConfig) -> Iterator[SublatticeBasis]:
    """The basis of every enumerated cycle, in enumeration order."""
    return map(edges_to_basis, enumerate_edge_cycles(cfg.bound))


def collect(derived: Iterable[tuple[tuple, BilinearRecurrence | str]],
            cfg: ScanConfig, db: StrippedDb) -> tuple[list[dict], dict]:
    """One pass over (edge cycle, scan_one result) in enumeration order:
    count skips and duplicates, and complete the first cycle of each
    distinct recurrence."""
    summary = {"total": 0, "skipped": {}, "integral": 0, "non_integral": 0,
               "degenerate": 0, "matched": 0, "unmatched": 0,
               "duplicates": 0, "unique": 0}
    kept: dict[BilinearRecurrence, dict] = {}
    for edges, rec in derived:
        summary["total"] += 1
        if isinstance(rec, str):
            summary["skipped"][rec] = summary["skipped"].get(rec, 0) + 1
            continue
        if rec in kept:
            summary["duplicates"] += 1
            continue
        kept[rec] = record = complete_record(edges, rec, cfg, db)
        summary[_STATUS_COUNTER.get(record["status"], "degenerate")] += 1
        summary["matched" if record["matches"] else "unmatched"] += 1
    summary["unique"] = len(kept)
    records = sorted(kept.values(), key=lambda r: (r["dedup_key"], r["basis"]))
    return records, summary


def reference_scan(cfg: ScanConfig, db: StrippedDb,
                   workers: int = 1) -> tuple[list[dict], dict]:
    cycles = enumerate_edge_cycles(cfg.bound)
    bases = map(edges_to_basis, cycles)
    if workers <= 1:
        return collect(zip(cycles, map(scan_one, bases)), cfg, db)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return collect(zip(cycles, pool.map(scan_one, bases, chunksize=64)),
                       cfg, db)
