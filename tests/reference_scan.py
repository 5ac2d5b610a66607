"""Reference scan: the ordered walk that `tauseq.scan.run_scan` replaced
with merged first-edge slices.  Every basis is derived (on a pool that
receives the bases, when workers > 1), the derived records are walked in
enumeration order, and the first record of each dedup key is completed.
Tests compare the sliced scan against it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator

from tauseq.lattice import SublatticeBasis
from tauseq.oeis import StrippedDb
from tauseq.scan import (ScanConfig, complete_record, enumerate_edge_cycles,
                         scan_one)

_STATUS_COUNTER = {"ok": "integral", "non-integral": "non_integral"}


def reference_bases(cfg: ScanConfig) -> Iterator[SublatticeBasis]:
    """The basis of every enumerated cycle, in enumeration order."""
    for edges in enumerate_edge_cycles(cfg.bound):
        yield SublatticeBasis(tuple(e[0] for e in edges),
                              tuple(e[1] for e in edges))


def collect(derived: Iterable[dict], cfg: ScanConfig,
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


def reference_scan(cfg: ScanConfig, db: StrippedDb,
                   workers: int = 1) -> tuple[list[dict], dict]:
    bases = reference_bases(cfg)
    if workers <= 1:
        return collect(map(scan_one, bases), cfg, db)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return collect(pool.map(scan_one, bases, chunksize=64), cfg, db)
