import hashlib
import json

import pytest

from tauseq.lattice import parse_matrix
from tauseq.oeis import load_fixture
from tauseq.recurrence import derive_recurrence, generate, term_str
from tauseq.scan import (ScanConfig, complete_record, enumerate_bases,
                         enumerate_edge_cycles, run_scan, scan_one,
                         write_jsonl, write_summary)


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


def test_enumerate_one_representative_per_rotation():
    cycles = set(enumerate_edge_cycles(2))
    for edges in cycles:
        for i in range(1, 4):
            rotation = edges[i:] + edges[:i]
            assert rotation not in cycles or rotation == edges


def test_scan_one_torsion_skip():
    basis = parse_matrix("2,-2,0,0;0,0,1,-1")
    record = scan_one(basis)
    assert record["skip"] == "torsion"
    assert 2 in record["invariant_factors"]


def test_scan_one_reference_basis():
    cfg = ScanConfig(bound=5, terms=24)
    record = complete_record(scan_one(parse_matrix("5,-2,-2,-1;1,1,-1,-1")),
                             cfg, load_fixture())
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
    assert summary1["total"] == len(list(enumerate_bases(cfg)))
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


def test_records_sorted_and_deduped():
    cfg = ScanConfig(bound=2, terms=16)
    records, _ = run_scan(cfg, load_fixture())
    keys = [(r["dedup_key"], r["basis"]) for r in records]
    assert keys == sorted(keys)
    assert len({r["dedup_key"] for r in records}) == len(records)


def test_dedup_key_determines_terms():
    # every non-skipped basis generates exactly the terms of the record kept
    # for its key, so completing only the first basis per key loses nothing
    cfg = ScanConfig(bound=3, terms=24)
    records, summary = run_scan(cfg, load_fixture())
    kept = {r["dedup_key"]: r["terms"] for r in records}
    checked = 0
    for basis in enumerate_bases(cfg):
        derived = scan_one(basis)
        if "skip" in derived:
            continue
        rec = derive_recurrence(basis).recurrence
        run = generate(rec, max(cfg.terms, rec.window))
        assert [term_str(t) for t in run.terms] == kept[derived["dedup_key"]]
        checked += 1
    assert checked == summary["unique"] + summary["duplicates"]


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
