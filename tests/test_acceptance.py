"""Acceptance suite: ten end-to-end criteria for the whole pipeline.

Each test prints a single PASS/FAIL line (bypassing capture, so the verdicts
are visible in the pytest log) and asserts the same condition it reports.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

from tauseq import fock, kp, verify
from tauseq.intlinalg import det_exact
from tauseq.lattice import parse_matrix, quotient_map
from tauseq.maya import maya_from_young_charge, young_charge_from_maya
from tauseq.oeis import load_fixture
from tauseq.recurrence import derive_recurrence, generate, octahedron_points
from tauseq.scan import ScanConfig, run_scan, write_jsonl

SQUARE = parse_matrix("5,-2,-2,-1;1,1,-1,-1")
HEX = parse_matrix("1,3,-3,-1;0,1,2,-3")

SQUARE_TERMS = [1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 9, 18, 34, 93, 180,
                348, 724, 3033, 9666, 24986, 83761, 261033]
HEX_TERMS = [1] * 12 + [2, 3, 4, 6, 9, 13, 19, 28, 41, 79, 163, 490,
                        972, 1785, 4270, 9483]


def report(capsys, num: int, title: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[{verdict}] criterion {num:2d}: {title}{suffix}", flush=True)
    assert ok, f"criterion {num} failed: {title} {detail}"


def test_criterion_01_square_sequence(capsys):
    start = time.perf_counter()
    rec = derive_recurrence(SQUARE)
    run = generate(rec, 24)
    elapsed = time.perf_counter() - start
    ok = (rec.pairs == ((0, 0), (4, -4), (3, -3))
          and run.status == "ok" and run.terms == SQUARE_TERMS
          and elapsed < 1.0)
    report(capsys, 1, "reference square-polygon recurrence and 24 exact terms", ok,
           f"{elapsed:.3f}s")


def test_criterion_02_hex_sequence(capsys):
    start = time.perf_counter()
    rec = derive_recurrence(HEX)
    run = generate(rec, 28)
    elapsed = time.perf_counter() - start
    ok = (rec.window == 12 and run.status == "ok"
          and run.terms == HEX_TERMS and elapsed < 1.0)
    report(capsys, 2, "second reference recurrence and 28 exact terms", ok,
           f"{elapsed:.3f}s")


def test_criterion_03_octahedron_oracle(capsys):
    start = time.perf_counter()
    window = fock.Window(4, 4)
    rng = random.Random(2024)
    failures = 0
    for _ in range(100):
        g = fock.random_group_element(window, rng)
        while True:
            n = tuple(rng.randint(-1, 1) for _ in range(4))
            if sum(n) == -2:
                break
        if fock.octahedron_residual(g, n, window) != 0:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    report(capsys, 3, "octahedral relation exact in 100 random trials", ok,
           f"{failures} failures, {elapsed:.1f}s")


def test_criterion_04_plucker_oracles(capsys):
    three_term_failures = sum(
        1 for seed in range(100) if fock.plucker3_residual(8, seed) != 0)

    # trivial vanishing: a vector inside the codim-2 sum kills each bracket
    *common, partner = fock._draw(8, 7, random.Random(1))
    inside = [sum(column) for column in zip(*common)]
    trivial_ok = det_exact(common + [inside, partner]) == 0

    symmetric_failures = verbatim_failures = 0
    arithmetic_ok = True
    try:
        for seed in range(100):
            res = fock.plucker4_residuals(9, seed)
            symmetric_failures += res["symmetric"] != 0
            verbatim_failures += res["verbatim"] != 0
    except (ArithmeticError, ValueError):
        arithmetic_ok = False
    verdict = ("symmetric reading holds; verbatim printed form fails"
               if symmetric_failures == 0 and verbatim_failures else
               "both readings hold" if symmetric_failures == 0 else
               "symmetric reading fails")
    ok = (three_term_failures == 0 and trivial_ok
          and symmetric_failures == 0 and arithmetic_ok)
    report(capsys, 4, "three-term minor identity + four-term verdict", ok,
           f"4-term: {verdict}, verbatim nonzero in "
           f"{verbatim_failures}/100 trials")


def test_criterion_05_state_identities(capsys):
    results = verify.verify_states(max_weight=6)
    all_hold = results["trials"] == 30 and results["failures"] == 0
    # one position short of the window K = 6, some partition fails
    small_fails = any(
        kp.add(state, {target: -n_fact})
        for _, n_fact, state, target
        in verify._boson_fermion_states(kp.partitions_up_to(6), 5))
    ok = all_hold and small_fails
    report(capsys, 5, "boson-fermion states of all 30 partitions of weight "
           "<= 6 at cutoff 6; cutoff 5 fails", ok)


def test_criterion_06_kp_residual(capsys):
    start = time.perf_counter()
    lams = kp.partitions_up_to(6)
    m = 8  # variables t_1..t_8
    failures = [lam for lam in lams
                if kp.kp_bilinear_residual(kp.schur(lam, m), m) != {}]
    one, t1_4 = (0,) * m, (4,) + (0,) * (m - 1)
    control = kp.kp_bilinear_residual({one: Fraction(1), t1_4: Fraction(1)},
                                      m)
    expected = {one: 24, t1_4: 72}
    elapsed = time.perf_counter() - start
    ok = (len(lams) == 30 and not failures and control == expected
          and elapsed < 60.0)
    report(capsys, 6, "bilinear residual vanishes on 30 Schur tau functions", ok,
           f"negative control exact, {elapsed:.1f}s")


def test_criterion_07_permutation_action(capsys):
    result = verify.verify_permutation(trials=20, seed=99, cutoff=4)
    ok = (result["trials"], result["sigmas"], result["probes"],
          result["failures"]) == (20, 5, 100, 0)
    report(capsys, 7, "permutation action preserves the octahedral relation",
           ok, "20 covacuum blocks x 5 permutations x 100 probes")


def test_criterion_08_maya_roundtrip(capsys):
    failures = 0
    checked = 0
    parts_by_weight = {w: kp.partitions_up_to(w) for w in (10,)}
    for lam in parts_by_weight[10]:
        for charge in range(-3, 4):
            diagram = maya_from_young_charge(lam, charge)
            back_lam, back_charge = young_charge_from_maya(diagram)
            checked += 1
            if (back_lam, back_charge) != (lam, charge):
                failures += 1
    report(capsys, 8, "partition/charge <-> occupation-diagram bijection",
           failures == 0, f"{checked} roundtrips")


def test_criterion_09_cross_oracle(capsys):
    window = fock.Window(6, 4)
    points = octahedron_points(quotient_map(SQUARE))
    rng = random.Random(6_2024)
    failures = 0
    for _ in range(50):
        g = fock.random_group_element(window, rng)
        values = [Fraction(fock.tau_discrete(g, pt, window))
                  for pt, _ in points]
        signed = (values[0] * values[1] - values[2] * values[3]
                  + values[4] * values[5])
        if signed != 0:
            failures += 1
    report(capsys, 9, "derived index bookkeeping agrees with determinantal tau",
           failures == 0, "50 random covacuum blocks at cutoff 6")


BOUND5_SHA256 = \
    "ecc35b0335b7ebb293aaf743ec6ceabdd4ac83c5c88e5979e6938654632a97c0"
BOUND5_SUMMARY = {"degenerate": 0, "duplicates": 16657, "integral": 940,
                  "matched": 1, "non_integral": 0,
                  "skipped": {"torsion": 11581}, "total": 29178,
                  "unique": 940, "unmatched": 939}


def test_criterion_10_scan_hermetic(capsys, tmp_path):
    cfg = ScanConfig(bound=5, terms=24)
    db = load_fixture()
    records1, summary1 = run_scan(cfg, db, workers=1)
    records2, summary2 = run_scan(cfg, db, workers=1)
    parallel, summary_p = run_scan(cfg, db, workers=2)

    byte_identical = (json.dumps(records1, sort_keys=True)
                      == json.dumps(records2, sort_keys=True)
                      and summary1 == summary2)
    parallel_agrees = records1 == parallel and summary1 == summary_p

    by_key = {r["dedup_key"]: r for r in records1}
    key1 = json.dumps([[0, 0], [4, -4], [3, -3]])
    key2 = json.dumps([list(p) for p in
                       derive_recurrence(HEX).pairs])
    square_hit = any(m["a_number"] == "A018896"
                     for m in by_key.get(key1, {}).get("matches", []))
    hex_unmatched = (key2 in by_key and by_key[key2]["matches"] == []
                     and by_key[key2]["status"] == "ok")

    jsonl = tmp_path / "records.jsonl"
    write_jsonl(records1, str(jsonl))
    golden = (hashlib.sha256(jsonl.read_bytes()).hexdigest() == BOUND5_SHA256
              and summary1 == BOUND5_SUMMARY)

    ok = (byte_identical and parallel_agrees and square_hit and hex_unmatched
          and golden)
    report(capsys, 10, "bound-5 scan: reference hit, second record unmatched, "
           "deterministic, parallel-consistent, golden output", ok,
           f"{summary1['total']} bases, {summary1['unique']} unique")
