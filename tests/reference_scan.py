"""Reference scan: two enumerations of the 4-edge convex cycles, each
compared directly with `tauseq.scan.scan_slice`, the symmetries of the
square that scan_slice walks one orbit of, and the per-basis derive and
ordered walk that `tauseq.scan.run_scan` replaced.

`reference_edge_cycles` is the brute force: every ccw rotation of every
cycle in the box, reduced to its smallest rotation through a set and
sorted.  `pruned_enumerate_edge_cycles` walks only cycles whose first edge
is the smallest, in lexicographic order, and tests each e3 candidate of a
column for the three crosses and e4 > e1 one by one.  Neither cuts a
column to a y3 interval by floor division, as `scan_slice` does, nor walks
one cycle per orbit of the square's symmetries; the only bounds the pruned
loop takes as loop ranges are the box and e3 > e1.  `keyed` keys a cycle
list with `scan_one`, and `merged` merges slices as `scan.merge_slices`
does before it completes them.  Tests compare `scan_slice` with the keyed
brute force at bounds 0-5 and its merged slices, through
`reference_slice`, with the keyed pruned loop at bounds 0-8 for slice
steps 1-4.  `images` maps a cycle by the 8 symmetries of the square, with
8 integer matrices of its own; tests check that `scan_one` is the same on
every image.

The ordered walk builds the basis of every cycle of the pruned loop and
derives its recurrence through the six octahedron points
(`reference_lattice.derive_through_points`, on a pool that receives the
bases, when workers > 1), walks the derived recurrences in enumeration
order, and completes the first of each.  Tests
compare the keyed, merged scan against it, and map `scan_one`'s keys back
to recurrences with `tauseq.recurrence.pairs_from_spreads(*key)`.

`reference_jsonl_line` is the sorted-key JSON encoder that
`tauseq.scan.jsonl_line`, one format of the record's fixed schema,
replaced; tests compare the two on every record of the bound 0-8 scans and
on random records of that schema.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from itertools import product
from math import gcd
from typing import Iterable

from reference_lattice import derive_through_points
from tauseq.lattice import (LatticeError, RankError, SublatticeBasis,
                            TorsionError, edges_to_basis)
from tauseq.oeis import StrippedDb
from tauseq.recurrence import BilinearRecurrence, UnsolvableError, spreads
from tauseq.scan import Cycle, Key, ScanConfig, Slice, complete_record

_STATUS_COUNTER = {"ok": "integral", "non-integral": "non_integral"}


def cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def reference_edge_cycles(bound: int) -> list[Cycle]:
    """Every ccw rotation of every strictly convex 4-edge cycle with
    coordinates in [-B, B], reduced to its smallest rotation through a set
    and sorted."""
    coords = range(-bound, bound + 1)
    vectors = [(x, y) for x in coords for y in coords if (x, y) != (0, 0)]
    seen = set()
    for e1 in vectors:
        for e2 in vectors:
            if cross(e1, e2) <= 0:
                continue
            for e3 in vectors:
                if cross(e2, e3) <= 0:
                    continue
                e4 = (-(e1[0] + e2[0] + e3[0]), -(e1[1] + e2[1] + e3[1]))
                if abs(e4[0]) > bound or abs(e4[1]) > bound or e4 == (0, 0):
                    continue
                if cross(e3, e4) <= 0 or cross(e4, e1) <= 0:
                    continue
                edges = (e1, e2, e3, e4)
                seen.add(min(edges[i:] + edges[:i] for i in range(4)))
    return sorted(seen)


def pruned_enumerate_edge_cycles(bound: int) -> list[Cycle]:
    """The strictly convex ccw 4-edge cycles with coordinates in [-B, B]
    whose first edge is their smallest, in lexicographic order.  The e3
    loop walks the vectors after e1 that keep e4 = -(e1 + e2 + e3) in the
    box and tests each candidate."""
    coords = range(-bound, bound + 1)
    grid = [[(x, y) for y in coords] for x in coords]  # grid[x + B][y + B]
    vectors = [v for column in grid for v in column if v != (0, 0)]
    cycles = []
    for i, e1 in enumerate(vectors):
        x1, y1 = e1
        for e2 in vectors[i + 1:]:
            if cross(e1, e2) <= 0:
                continue
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


# the symmetries of the square [-B, B]^2 as matrices ((a, b), (c, d)):
# one entry +-1 in each row and in each column
SQUARE_SYMMETRIES = [((a, b), (c, d))
                     for a, b, c, d in product((-1, 0, 1), repeat=4)
                     if a * b == c * d == 0 and abs(a * d - b * c) == 1]


def images(edges: Cycle) -> list[Cycle]:
    """The 8 images of a ccw cycle under the symmetries of the square, each
    as its smallest rotation.  A reflection turns the cycle cw, so its
    image is read backwards."""
    found = []
    for (a, b), (c, d) in SQUARE_SYMMETRIES:
        image = [(a * x + b * y, c * x + d * y) for x, y in edges]
        if a * d - b * c < 0:
            image.reverse()
        found.append(min(tuple(image[i:] + image[:i]) for i in range(4)))
    return found


def scan_one(edges: Cycle) -> Key | str:
    """The key recurrence.spreads of a convex cycle's minors
    p_ij = cross(e_i, e_j), or "torsion" when their gcd is not 1."""
    e1, e2, e3, _ = edges
    p12, p13, p23 = cross(e1, e2), cross(e1, e3), cross(e2, e3)
    if gcd(p12, p13, p23) != 1:
        return "torsion"
    return spreads(p12, p13, p23)


def keyed(cycles: list[Cycle]) -> Slice:
    """A cycle list keyed one by one with `scan_one`: its count, its
    torsion count and the first cycle of each key."""
    torsion = 0
    firsts: dict[Key, Cycle] = {}
    for edges in cycles:
        key = scan_one(edges)
        if key == "torsion":
            torsion += 1
        else:
            firsts.setdefault(key, edges)
    return len(cycles), torsion, firsts


def merged(slices: Iterable[Slice]) -> Slice:
    """Slices merged: their summed counts and the least cycle of each key."""
    total = torsion = 0
    firsts: dict[Key, Cycle] = {}
    for slice_total, slice_torsion, slice_firsts in slices:
        total += slice_total
        torsion += slice_torsion
        for key, edges in slice_firsts.items():
            firsts[key] = min(edges, firsts.get(key, edges))
    return total, torsion, firsts


@cache
def reference_slice(bound: int) -> Slice:
    """What `scan.scan_slice(bound)`, or its slices merged, computes, from
    the keyed pruned loop; one computation per bound, which no caller may
    change."""
    return keyed(pruned_enumerate_edge_cycles(bound))


def reference_scan_one(basis: SublatticeBasis) -> BilinearRecurrence | str:
    """Derive a basis through the octahedron points: its canonical
    recurrence, or the reason it is skipped."""
    try:
        return derive_through_points(basis)
    except TorsionError:
        return "torsion"
    except UnsolvableError:
        return "unsolvable"
    except RankError:
        return "rank"
    except LatticeError as exc:  # pragma: no cover - defensive
        return f"lattice: {exc}"


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
    cycles = pruned_enumerate_edge_cycles(cfg.bound)
    bases = map(edges_to_basis, cycles)
    if workers <= 1:
        return collect(zip(cycles, map(reference_scan_one, bases)), cfg, db)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return collect(zip(cycles, pool.map(reference_scan_one, bases,
                                            chunksize=64)), cfg, db)


def reference_jsonl_line(record: dict) -> str:
    """A record's JSON line by the sorted-key encoder."""
    return json.dumps(record, sort_keys=True) + "\n"
