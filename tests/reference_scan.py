"""Reference scan: the per-basis derive and the ordered walk that
`tauseq.scan.run_scan` replaced with keyed, merged first-edge slices.
Every cycle builds its basis and derives its recurrence (on a pool that
receives the bases, when workers > 1), the derived recurrences are walked
in enumeration order, and the first of each recurrence is completed.
Tests compare the keyed scan against it, and map `scan_one`'s keys back
to recurrences with `tauseq.recurrence.pairs_from_spreads(*key)`.
`reference_enumerate_edge_cycles` is the enumeration whose e3 loop walks
every later vector and only then tests that e4 lies in the box; tests
compare the pruned loop against it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator

from tauseq.lattice import (LatticeError, RankError, SublatticeBasis,
                            TorsionError, edges_to_basis)
from tauseq.oeis import StrippedDb
from tauseq.recurrence import (BilinearRecurrence, UnsolvableError,
                               derive_recurrence)
from tauseq.scan import (Cycle, ScanConfig, complete_record,
                         enumerate_edge_cycles)

_STATUS_COUNTER = {"ok": "integral", "non-integral": "non_integral"}


def reference_enumerate_edge_cycles(bound: int, start: int = 0,
                                    step: int = 1) -> list[Cycle]:
    """`enumerate_edge_cycles` with the e3 loop over every later vector."""
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


def reference_scan_one(basis: SublatticeBasis) -> BilinearRecurrence | str:
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


def reference_bases(cfg: ScanConfig) -> Iterator[SublatticeBasis]:
    """The basis of every enumerated cycle, in enumeration order."""
    return map(edges_to_basis, enumerate_edge_cycles(cfg.bound))


def collect(derived: Iterable[tuple[tuple, BilinearRecurrence | str]],
            cfg: ScanConfig, db: StrippedDb) -> tuple[list[dict], dict]:
    """One pass over (edge cycle, reference_scan_one result) in
    enumeration order: count skips and duplicates, and complete the first
    cycle of each distinct recurrence."""
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
        return collect(zip(cycles, map(reference_scan_one, bases)), cfg, db)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return collect(zip(cycles, pool.map(reference_scan_one, bases,
                                            chunksize=64)), cfg, db)
