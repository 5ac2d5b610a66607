import hashlib
import json

import pytest

from tauseq.lattice import edges_to_basis
from tauseq.oeis import load_fixture
from tauseq.recurrence import (BilinearRecurrence, derive_recurrence,
                               generate, pairs_from_spreads, term_str)
from reference_scan import (enumerate_edge_cycles,
                            pruned_enumerate_edge_cycles, reference_bases,
                            reference_enumerate_edge_cycles, reference_scan,
                            reference_scan_one, reference_slice, scan_one)
from tauseq.scan import (ScanConfig, complete_record, merge_slices, run_scan,
                         scan_slice, write_jsonl, write_summary)


def reference_edge_cycles(bound):
    """Every ccw rotation of every cycle, reduced to its smallest rotation
    through a set and sorted: the slow enumeration the scan replaced."""
    coords = range(-bound, bound + 1)
    vectors = [(x, y) for x in coords for y in coords if (x, y) != (0, 0)]
    cross = lambda u, v: u[0] * v[1] - u[1] * v[0]
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


# (bound, sha256 of the JSONL, summary) of scans at 24 terms against the
# fixture, taken from the enumerate-everything, complete-every-basis scan
SCAN_GOLDEN = [
    (1, "1661d9995aabb0b81ea2c1c63afc3cbf6bd635c901ac273d59244f46234d5ae9",
     {"degenerate": 0, "duplicates": 4, "integral": 1, "matched": 0,
      "non_integral": 0, "skipped": {"torsion": 1}, "total": 6, "unique": 1,
      "unmatched": 1}),
    (2, "2857428ed250a0c00d5044cfc65d7700d4c5111e22d5cb50f74c1dd1c6f15cc9",
     {"degenerate": 0, "duplicates": 97, "integral": 8, "matched": 0,
      "non_integral": 0, "skipped": {"torsion": 89}, "total": 194,
      "unique": 8, "unmatched": 8}),
    (3, "2257c6649b447c779906506b16a92831895c61e56346b5c7c864b46f4675e2d5",
     {"degenerate": 0, "duplicates": 992, "integral": 61, "matched": 0,
      "non_integral": 0, "skipped": {"torsion": 663}, "total": 1716,
      "unique": 61, "unmatched": 61}),
    (4, "74cf44bd27ef188c7291c7fa9c4407ed02a7c9b62bf866033c558bb1d59edab4",
     {"degenerate": 0, "duplicates": 4096, "integral": 241, "matched": 1,
      "non_integral": 0, "skipped": {"torsion": 4003}, "total": 8340,
      "unique": 241, "unmatched": 240}),
]


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(bound=-1)
    with pytest.raises(ValueError):
        ScanConfig(bound=1, terms=8)


def test_enumerate_bound_zero_empty():
    assert enumerate_edge_cycles(0) == []
    assert scan_slice(0) == (0, 0, {})


def test_enumerate_bound_one():
    cycles = enumerate_edge_cycles(1)
    # regression: the number of cyclic classes of strictly convex 4-cycles
    # with unit coordinates is fixed
    assert len(cycles) == 6
    for edges in cycles:
        assert sum(e[0] for e in edges) == 0
        assert sum(e[1] for e in edges) == 0
        for i, e in enumerate(edges):
            f = edges[(i + 1) % 4]
            assert e[0] * f[1] - e[1] * f[0] > 0


@pytest.mark.parametrize("bound", range(6))
def test_enumerate_matches_reference(bound):
    assert enumerate_edge_cycles(bound) == reference_edge_cycles(bound)


@pytest.mark.parametrize("bound", range(8))
def test_enumerate_matches_unpruned_loop(bound):
    # the y3 intervals of the box columns that keep e4 in bounds give the
    # same list as the loop over every later vector, for the whole run and
    # each slice
    assert enumerate_edge_cycles(bound) == \
        reference_enumerate_edge_cycles(bound)
    if bound <= 5:
        for step in (2, 3):
            for start in range(step):
                assert enumerate_edge_cycles(bound, start, step) == \
                    reference_enumerate_edge_cycles(bound, start, step)


@pytest.mark.parametrize("bound", range(10))
def test_enumerate_matches_pruned_loop(bound):
    # one y3 interval per column gives the same list as the per-candidate
    # filter of each column it replaced, for the whole run and, to bound 7,
    # every slice with step 2-4
    assert enumerate_edge_cycles(bound) == pruned_enumerate_edge_cycles(bound)
    if bound <= 7:
        for step in (2, 3, 4):
            for start in range(step):
                assert enumerate_edge_cycles(bound, start, step) == \
                    pruned_enumerate_edge_cycles(bound, start, step)


def test_enumerate_bound_eight_count():
    assert len(enumerate_edge_cycles(8)) == 421280
    assert scan_slice(8)[0] == 421280


@pytest.mark.parametrize("step", range(1, 5))
@pytest.mark.parametrize("bound", range(9))
def test_scan_slice_matches_keyed_cycle_list(bound, step):
    # keying each column's y3 and building a cycle only for a new key gives
    # the counts and first cycles of the listed, one-by-one keyed slice: at
    # bounds 0-6 for every start, past that for start 0
    for start in range(step) if bound <= 6 else [0]:
        assert scan_slice(bound, start, step) == \
            reference_slice(bound, start, step), start


def test_enumerate_one_representative_per_rotation():
    cycles = set(enumerate_edge_cycles(2))
    for edges in cycles:
        for i in range(1, 4):
            rotation = edges[i:] + edges[:i]
            assert rotation not in cycles or rotation == edges


def test_scan_one_torsion_skip():
    # the columns of the basis 2,-2,0,0;0,0,1,-1
    assert scan_one(((2, 0), (-2, 0), (0, 1), (0, -1))) == "torsion"


def test_scan_one_reference_basis():
    cfg = ScanConfig(bound=5, terms=24)
    edges = ((5, 1), (-2, 1), (-2, -1), (-1, -1))
    assert scan_one(edges) == (8, 0, 6)
    rec = BilinearRecurrence(pairs_from_spreads(8, 0, 6))
    record = complete_record(edges, rec, cfg, load_fixture())
    assert record["basis"] == [[5, -2, -2, -1], [1, 1, -1, -1]]
    assert record["dedup_key"] == "[[0, 0], [4, -4], [3, -3]]"
    assert record["status"] == "ok"
    assert record["recurrence"]["pairs"] == [[0, 0], [4, -4], [3, -3]]
    assert record["terms"][-1] == "261033"
    assert {"a_number": "A018896", "position": 8} in record["matches"]


def test_run_scan_bound_two_deterministic():
    cfg = ScanConfig(bound=2, terms=16)
    db = load_fixture()
    records1, summary1 = run_scan(cfg, db)
    records2, summary2 = run_scan(cfg, db)
    assert json.dumps(records1, sort_keys=True) == \
        json.dumps(records2, sort_keys=True)
    assert summary1 == summary2
    assert summary1["total"] == len(list(reference_bases(cfg)))
    assert summary1["unique"] == len(records1)
    assert summary1["unique"] + summary1["duplicates"] + \
        sum(summary1["skipped"].values()) == summary1["total"]


def test_run_scan_parallel_equivalence():
    cfg = ScanConfig(bound=2, terms=16)
    db = load_fixture()
    serial, sum_serial = run_scan(cfg, db, workers=1)
    parallel, sum_parallel = run_scan(cfg, db, workers=2)
    assert serial == parallel
    assert sum_serial == sum_parallel


@pytest.mark.parametrize("step", [2, 3, 7])
def test_enumerate_slices_partition_the_cycles(step):
    cycles = enumerate_edge_cycles(4)
    slices = [enumerate_edge_cycles(4, start, step) for start in range(step)]
    assert sorted(c for part in slices for c in part) == cycles


@pytest.mark.parametrize("bound", range(6))
def test_sliced_scan_matches_reference(bound):
    # every slice step merges to the ordered walk's records and summary,
    # so the kept record of each key is the first in enumeration order
    cfg = ScanConfig(bound=bound)
    db = load_fixture()
    want = reference_scan(cfg, db)
    for step in (1, 2, 3, 7):
        slices = [scan_slice(bound, start, step) for start in range(step)]
        assert merge_slices(slices, cfg, db) == want, f"step {step}"


def test_pool_scan_matches_reference():
    cfg = ScanConfig(bound=4)
    db = load_fixture()
    assert run_scan(cfg, db, workers=2) == reference_scan(cfg, db)


def test_records_sorted_and_deduped():
    cfg = ScanConfig(bound=2, terms=16)
    records, _ = run_scan(cfg, load_fixture())
    keys = [(r["dedup_key"], r["basis"]) for r in records]
    assert keys == sorted(keys)
    assert len({r["dedup_key"] for r in records}) == len(records)


def test_dedup_key_determines_terms():
    # every non-skipped cycle generates exactly the terms of the record kept
    # for its key, so completing only the first cycle per key loses nothing
    cfg = ScanConfig(bound=3, terms=24)
    records, summary = run_scan(cfg, load_fixture())
    kept = {r["dedup_key"]: r["terms"] for r in records}
    checked = 0
    for edges in enumerate_edge_cycles(cfg.bound):
        if isinstance(scan_one(edges), str):
            continue
        rec = derive_recurrence(edges_to_basis(edges))
        run = generate(rec, max(cfg.terms, rec.window))
        key = json.dumps([list(pair) for pair in rec.pairs])
        assert [term_str(t) for t in run.terms] == kept[key]
        checked += 1
    assert checked == summary["unique"] + summary["duplicates"]


def test_scan_one_keys_match_reference_derive():
    # the key of every cycle at bounds 0-6 maps back to the recurrence its
    # basis gives through the six octahedron points, or both skip it for
    # the same reason, and distinct keys are distinct recurrences
    keys, recs, checked = set(), set(), 0
    for bound in range(7):
        for edges in enumerate_edge_cycles(bound):
            checked += 1
            key = scan_one(edges)
            want = reference_scan_one(edges_to_basis(edges))
            if isinstance(want, str):
                assert key == want, edges
                continue
            assert pairs_from_spreads(*key) == want.pairs, edges
            keys.add(key)
            recs.add(want)
    assert checked == 120872
    assert len(keys) == len(recs) == 2125


@pytest.mark.parametrize("bound,sha256,summary", SCAN_GOLDEN,
                         ids=[f"bound{b}" for b, _, _ in SCAN_GOLDEN])
def test_scan_golden(tmp_path, bound, sha256, summary):
    records, got = run_scan(ScanConfig(bound=bound, terms=24), load_fixture())
    path = tmp_path / "records.jsonl"
    write_jsonl(records, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
    assert got == summary


def test_writers(tmp_path):
    cfg = ScanConfig(bound=1, terms=16)
    records, summary = run_scan(cfg, load_fixture())
    jsonl = tmp_path / "records.jsonl"
    sidecar = tmp_path / "summary.json"
    write_jsonl(records, str(jsonl))
    write_summary(summary, str(sidecar))
    lines = jsonl.read_text().splitlines()
    assert len(lines) == len(records)
    assert all(json.loads(line) for line in lines) or not lines
    assert json.loads(sidecar.read_text()) == summary
