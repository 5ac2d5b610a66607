import hashlib
import json

import pytest

from tauseq.lattice import TorsionError, edges_to_basis
from tauseq.oeis import load_fixture
from tauseq.recurrence import (BilinearRecurrence, derive_recurrence,
                               generate, pairs_from_spreads, term_str)
from reference_scan import (images, keyed, merged,
                            pruned_enumerate_edge_cycles,
                            reference_edge_cycles, reference_scan,
                            reference_scan_one, reference_slice, scan_one)
from tauseq.scan import (ScanConfig, complete_record, merge_slices, run_scan,
                         scan_slice, write_jsonl, write_summary)


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
    assert scan_slice(0) == (0, 0, {})


def test_enumerate_bound_one():
    # regression: the number of cyclic classes of strictly convex 4-cycles
    # with unit coordinates is fixed; one is torsion, and the other five
    # share one key
    total, torsion, firsts = scan_slice(1)
    assert (total, torsion) == (6, 1)
    assert list(firsts.values()) == [((-1, -1), (0, -1), (1, 1), (0, 1))]


@pytest.mark.parametrize("bound", range(6))
def test_enumerate_matches_reference(bound):
    # every rotation of every cycle, reduced through a set: scan_slice meets
    # each rotation class once, and keeps the first cycle of each key
    assert scan_slice(bound) == keyed(reference_edge_cycles(bound))


@pytest.mark.parametrize("bound", range(6))
def test_enumerate_matches_pruned_loop(bound):
    # the pruned loop lists each rotation class once, in the brute force's
    # order: the order the ordered walk and the first cycle of each key in
    # reference_slice rely on; scan_slice counts the same cycles
    cycles = pruned_enumerate_edge_cycles(bound)
    assert cycles == reference_edge_cycles(bound)
    assert scan_slice(bound)[0] == len(cycles)


def test_enumerate_bound_eight_count():
    assert scan_slice(8)[0] == 421280


@pytest.mark.parametrize("step", range(1, 5))
@pytest.mark.parametrize("bound", range(9))
def test_scan_slice_matches_keyed_cycle_list(bound, step):
    # walking one cycle per orbit, weighted by its orbit size, keying each
    # column's y3 interval and building a cycle only for a new key gives,
    # merged over the slices, the counts and first cycles of the keyed
    # pruned loop; each (e1, e2) pair of the walk is in one slice
    slices = [scan_slice(bound, start, step) for start in range(step)]
    assert merged(slices) == reference_slice(bound)
    pairs = [{edges[:2] for edges in firsts.values()}
             for _, _, firsts in slices]
    assert sum(map(len, pairs)) == len(set().union(*pairs))


# (bound, total, torsion, keys, sha256 of repr(sorted(firsts.items()))) of
# scan_slice(bound) past the bound 8 that the references reach in a test
SLICE_PINS = [
    (9, 829358, 382741, 23578,
     "06dc056dece8bbf8592227e44d86011e3098b599c505c8101076065c90ff1d3c"),
    (10, 1522538, 766453, 39963,
     "3a968cff783eba9c823b860d8fabc909b5d4cca80f362d57c5025219f0a945e5"),
    (12, 4379940, 2211775, 114356,
     "8a60b4712d464fb450865bd090c662d2d5828abe4182d1a7144fb02006c19450"),
]


@pytest.mark.parametrize("bound,total,torsion,keys,sha256", SLICE_PINS,
                         ids=[f"bound{pin[0]}" for pin in SLICE_PINS])
def test_scan_slice_pinned_past_references(bound, total, torsion, keys,
                                           sha256):
    got_total, got_torsion, firsts = scan_slice(bound)
    assert (got_total, got_torsion, len(firsts)) == (total, torsion, keys)
    text = repr(sorted(firsts.items())).encode()
    assert hashlib.sha256(text).hexdigest() == sha256


@pytest.mark.parametrize("bound", range(6))
def test_key_and_torsion_are_symmetric(bound):
    # each of the 8 images of a cycle under the symmetries of the square has
    # its torsion verdict and, torsion-free, its key, and the orbit sizes of
    # the orbit-least cycles add up to the brute-force count, as
    # scan_slice's weights do
    cycles = reference_edge_cycles(bound)
    weights = 0
    for edges in cycles:
        orbit = images(edges)
        want = scan_one(edges)
        assert all(scan_one(image) == want for image in orbit), edges
        if edges == min(orbit):
            weights += len(set(orbit))
    assert weights == len(cycles)


def test_enumerate_one_representative_per_rotation():
    # each kept cycle closes, turns left at every vertex and starts at its
    # smallest edge, so no two kept cycles are rotations of one another
    for bound in range(5):
        for edges in scan_slice(bound)[2].values():
            assert tuple(map(sum, zip(*edges))) == (0, 0)
            for i, e in enumerate(edges):
                f = edges[(i + 1) % 4]
                assert e[0] * f[1] - e[1] * f[0] > 0
                assert edges[i:] + edges[:i] >= edges


def test_scan_one_torsion_skip():
    # the columns of the basis 2,-2,0,0;0,0,1,-1
    edges = ((2, 0), (-2, 0), (0, 1), (0, -1))
    assert scan_one(edges) == "torsion"
    with pytest.raises(TorsionError):
        derive_recurrence(edges_to_basis(edges))


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
    assert summary1["total"] == len(reference_edge_cycles(cfg.bound))
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
    cycles = pruned_enumerate_edge_cycles(4)
    # scan_slice's slices split the count, the torsion count and the keys
    # of the whole run
    total, torsion, firsts = scan_slice(4)
    parts = [scan_slice(4, start, step) for start in range(step)]
    assert sum(part[0] for part in parts) == total == len(cycles)
    assert sum(part[1] for part in parts) == torsion
    assert set().union(*(part[2] for part in parts)) == set(firsts)


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
    for edges in pruned_enumerate_edge_cycles(cfg.bound):
        if isinstance(scan_one(edges), str):
            continue
        rec = derive_recurrence(edges_to_basis(edges))
        run = generate(rec, max(cfg.terms, rec.window))
        key = json.dumps([list(pair) for pair in rec.pairs])
        assert [term_str(t) for t in run.terms] == kept[key]
        checked += 1
    assert checked == summary["unique"] + summary["duplicates"]


@pytest.mark.parametrize("bound", range(8))
def test_record_terms_share_one_str_per_value(bound):
    # each record's terms are the text of its run, and a term that occurs
    # more than once is the same str object at each place
    cfg = ScanConfig(bound=bound)
    records, _ = run_scan(cfg, load_fixture())
    for record in records:
        rec = BilinearRecurrence(tuple(map(tuple,
                                           record["recurrence"]["pairs"])))
        run = generate(rec, max(cfg.terms, rec.window))
        assert record["terms"] == [term_str(t) for t in run.terms]
        assert len(set(map(id, record["terms"]))) == len(set(record["terms"]))


def test_non_integral_record_shares_fraction_text():
    # a run's Fraction is never whole, so no Fraction shares an int's text,
    # and a Fraction that recurs is one str as well
    rec = BilinearRecurrence(((0, 0), (3, 1), (0, 0)))
    run = generate(rec, 16)
    fractions = [t for t in run.terms if type(t) is not int]
    assert len(set(fractions)) < len(fractions)
    record = complete_record(((1, 0), (0, 1), (-1, 0), (0, -1)), rec,
                             ScanConfig(bound=1, terms=16), load_fixture())
    assert record["status"] == "non-integral"
    assert record["terms"] == [term_str(t) for t in run.terms]
    assert len(set(map(id, record["terms"]))) == len(set(record["terms"]))


def test_scan_one_keys_match_reference_derive():
    # the key of every cycle at bounds 0-6 maps back to the recurrence its
    # basis gives through the six octahedron points, or both skip it for
    # the same reason, and distinct keys are distinct recurrences
    keys, recs, checked = set(), set(), 0
    for bound in range(7):
        for edges in pruned_enumerate_edge_cycles(bound):
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
