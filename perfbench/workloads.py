"""The four workloads of the tauseq benchmark.

Every workload runs in one process as a closed loop with one client: the
next operation starts only when the previous one has finished.  The only
other processes are the program's own pool in the 2-worker scan, and the
fresh interpreters that time the import for ``setup_s``.

Each workload names the two timings it reports as ``primary_s`` and
``secondary_s``, so that every workload reports the same end-to-end
metrics:

    workload        primary_s                 secondary_s
    scan-b5         scan.wall_s               scan.wall_s.w2
    match-100k      match.query_ms.p50 / 1e3  match.query_ms.tail / 1e3
    generate-long   generate.wall_s           generate.hex_s
    oracles         verify.octahedron_s       verify.kp_s

Every end-to-end timing is in calibrated seconds (see calibrate.py); the
run prints the raw wall-time medians beside them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

from calibrate import Calibrator
from checks import (GENERATE_TERMS, decimal_digest, load_golden,
                    residue_digest, scan_digest, scan_outputs)
from snapshot import A018896, MIN_MATCH, QueryStream, Snapshot

IMPORT_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import calibrate; calibrate.import_child(*sys.argv[2:])")
IMPORT_SAMPLES = 9
LOAD_SAMPLES = 3


class Run:
    """Operation accounting and timing samples of one benchmark run."""

    def __init__(self, seed: int, seconds: int, src: str, workdir: str,
                 calibration: str, traced: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.src = src
        self.workdir = workdir
        # a traced run times layers in wall seconds, with no chunks in
        # its spans
        self.cal = None if traced else Calibrator(calibration)
        self.calibration = calibration
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.defects: Counter = Counter()
        # key -> calibrated seconds of each operation, and wall seconds
        self.samples: dict[str, list[float]] = {}
        self.walls: dict[str, list[float]] = {}

    def check(self, passed: bool, what: str) -> None:
        """One operation whose output was checked for exactness."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.correct = False
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def known_defect(self, what: str) -> None:
        """One operation that failed the way a known defect makes it fail."""
        self.attempted += 1
        self.failed += 1
        self.defects[what] += 1

    def record(self, key: str, calibrated: float, wall: float) -> None:
        self.samples.setdefault(key, []).append(calibrated)
        self.walls.setdefault(key, []).append(wall)

    def timed(self, key: str, fn, *args):
        if self.cal is None:
            start = time.perf_counter()
            result = fn(*args)
            wall = calibrated = time.perf_counter() - start
        else:
            result, wall, calibrated = self.cal.timed(fn, *args)
        self.record(key, calibrated, wall)
        return result

    def median(self, key: str) -> float:
        return statistics.median(self.samples[key])

    def line(self, label: str, key: str, note: str = "") -> str:
        """One report line: calibrated and wall medians of key."""
        return (f"{label:20} {self.median(key):.4f} s calibrated, "
                f"{statistics.median(self.walls[key]):.4f} s wall  "
                f"(n={len(self.samples[key])}{note})")

    def closed_loop(self, iteration, at_least: int) -> None:
        """Repeat iteration for --seconds: at least `at_least` times, and
        never start one that the last one's length says would overrun."""
        start = time.perf_counter()
        for done in itertools.count(1):
            began = time.perf_counter()
            iteration()
            now = time.perf_counter()
            if done >= at_least and now - start + (now - began) > self.seconds:
                return

    def import_s(self) -> float:
        """Median calibrated time to import tauseq.cli in a fresh
        interpreter."""
        here = os.path.dirname(os.path.abspath(__file__))
        for _ in range(IMPORT_SAMPLES):
            out = subprocess.run(
                [sys.executable, "-c", IMPORT_CODE, here, self.src,
                 self.calibration],
                capture_output=True, text=True, timeout=120, check=True)
            calibrated, wall = map(float, out.stdout.split())
            self.record("import", calibrated, wall)
        return self.median("import")


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile
    that has ten samples beyond it; the maximum when there are ten samples
    or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


class Workload:
    """Defaults shared by the workloads."""

    min_iterations = 1
    calibration = "interp"  # the chunk of calibrate.py its work resembles

    def setup(self, run: Run) -> float:
        """Set-up time: the import, plus any load the workload repeats."""
        return run.import_s()

    def layer_extra(self) -> dict:
        """Per-layer metrics the workload measures itself, not via spans."""
        return {}


class ScanB5(Workload):
    """The paper's bound-5 reproduction against the vendored fixture,
    with 1 worker and with 2 in turn, each followed by serialisation."""

    name = "scan-b5"
    min_iterations = 2

    def __init__(self, run: Run) -> None:
        from tauseq import scan
        self.golden = load_golden()["scan_b5"]
        self.cfg = scan.ScanConfig(bound=5)
        self.workdir = run.workdir
        self.db = None
        self.summary: dict = {}
        self.first: str | None = None  # digest of the last 1-worker scan

    def setup(self, run: Run) -> float:
        from tauseq import oeis
        for _ in range(LOAD_SAMPLES):
            self.db = run.timed("load", oeis.load_fixture)
        return run.import_s() + run.median("load")

    def _scan(self, workers: int) -> None:
        from tauseq import scan
        records, self.summary = scan.run_scan(self.cfg, self.db,
                                              workers=workers)
        jsonl, summary = scan_outputs(self.workdir)
        scan.write_jsonl(records, jsonl)
        scan.write_summary(self.summary, summary)

    def _check(self, run: Run, workers: int, first: str | None) -> str:
        digest, summary = scan_digest(self.workdir)
        run.check(digest == self.golden["jsonl_sha256"]
                  and summary == self.golden["summary"]
                  and first in (None, digest),
                  f"{workers}-worker scan output differs from the golden "
                  f"or from the 1-worker run")
        return digest

    def iteration(self, run: Run) -> None:
        # one scan per iteration, alternating 1 and 2 workers, so that a
        # run fits two 1-worker scans even when the machine is slow
        if self.first is None:
            run.timed("scan.wall_s", self._scan, 1)
            self.first = self._check(run, 1, None)
        else:
            run.timed("scan.wall_s.w2", self._scan, 2)
            self._check(run, 2, self.first)
            self.first = None

    def trace_pass(self, run: Run) -> None:
        # the pool's workers cannot report spans, so the traced pass is
        # the 1-worker scan only
        from tauseq import oeis
        self.db = oeis.load_fixture()
        self._scan(1)
        self._check(run, 1, None)

    def layer_extra(self) -> dict:
        s = self.summary
        done = s["total"] - sum(s["skipped"].values())
        return {"scan.skipped.torsion": s["skipped"].get("torsion", 0),
                "scan.useful_ratio": s["unique"] / done if done else 0.0}

    def report(self, run: Run) -> tuple[float, float, list[str]]:
        w1, w2 = run.median("scan.wall_s"), run.median("scan.wall_s.w2")
        s = self.summary
        return w1, w2, [
            run.line("scan.wall_s", "scan.wall_s"),
            run.line("scan.wall_s.w2", "scan.wall_s.w2"),
            f"summary           total={s['total']} skipped={s['skipped']} "
            f"unique={s['unique']} matched={s['matched']}",
        ]


class Match100k(Workload):
    """A stream of queries against a seeded 100 000-entry snapshot."""

    name = "match-100k"
    TRACE_QUERIES = 8

    def __init__(self, run: Run) -> None:
        from tauseq import oeis
        self.snapshot = Snapshot(run.seed)
        self.scan_pairs = load_golden()["scan_b5_pairs"]
        self.queries = QueryStream(self.snapshot, self.scan_pairs, run.seed)
        self.policy = oeis.MatchPolicy(min_match_terms=MIN_MATCH)
        self.db = None
        self.kinds: Counter = Counter()

    def _load(self, run: Run):
        from tauseq import oeis
        self.db = None  # one snapshot in memory at a time
        db = run.timed("load", oeis.load_stripped,
                       io.BytesIO(self.snapshot.data))
        run.check(len(db.entries) == self.snapshot.entries
                  and len(db.malformed) == self.snapshot.malformed,
                  f"snapshot loaded {len(db.entries)} entries and "
                  f"{len(db.malformed)} malformed lines")
        self.db = db

    def setup(self, run: Run) -> float:
        for _ in range(LOAD_SAMPLES):
            self._load(run)
        return run.import_s() + run.median("load")

    def _query(self, run: Run, stream: QueryStream) -> None:
        from tauseq import oeis
        query, kind = stream.next()
        expected = self.snapshot.expected_hits(query)
        hits = run.timed("match.query_s", oeis.match_sequence, self.db,
                         query, self.policy)
        run.check(hits == expected,
                  f"{kind} query {query} gave {hits}, expected {expected}")
        self.kinds[kind, bool(hits)] += 1

    def iteration(self, run: Run) -> None:
        self._query(run, self.queries)

    def trace_pass(self, run: Run) -> None:
        self._load(run)
        stream = QueryStream(self.snapshot, self.scan_pairs, run.seed)
        for _ in range(self.TRACE_QUERIES):
            self._query(run, stream)

    def report(self, run: Run) -> tuple[float, float, list[str]]:
        samples = run.samples["match.query_s"]
        p50 = statistics.median(samples)
        value, pct, beyond = tail(samples)
        mix = ", ".join(f"{kind} {'hit' if hit else 'miss'} {n}"
                        for (kind, hit), n in sorted(self.kinds.items()))
        return p50, value, [
            f"match.query_ms.p50   {1e3 * p50:.3f} ms calibrated, "
            f"{1e3 * statistics.median(run.walls['match.query_s']):.3f} ms "
            f"wall  (n={len(samples)})",
            f"match.query_ms.tail  {1e3 * value:.3f} ms calibrated  "
            f"(p{pct:.1f}, n={len(samples)}, {beyond} beyond)",
            f"queries           {mix}",
            f"snapshot          sha256={self.snapshot.sha256} "
            f"bytes={len(self.snapshot.data)} entries={self.snapshot.entries} "
            f"malformed={self.snapshot.malformed}",
        ]


class GenerateLong(Workload):
    """The two reference recurrences to 1000 terms each; every run is then
    serialised with SequenceRun.to_json_dict(), timed apart from
    generate.wall_s so that fixing serialisation is not scored as a
    slowdown of generate."""

    name = "generate-long"
    calibration = "bigint"

    def __init__(self, run: Run) -> None:
        from tauseq.recurrence import BilinearRecurrence
        self.cases = [(BilinearRecurrence(tuple(map(tuple, g["pairs"]))), g)
                      for g in load_golden()["generate_long"]]

    def iteration(self, run: Run) -> None:
        from tauseq import recurrence
        calibrated = wall = 0.0
        for index, (rec, golden) in enumerate(self.cases):
            key = ("generate.somos_s", "generate.hex_s")[index]
            result = run.timed(key, recurrence.generate, rec, GENERATE_TERMS)
            calibrated += run.samples[key][-1]
            wall += run.walls[key][-1]
            terms = result.terms
            exact = (result.status == "ok" and len(terms) == GENERATE_TERMS
                     and all(type(t) is int for t in terms)
                     and residue_digest(terms) == golden["residues_sha256"]
                     and max(abs(t).bit_length() for t in terms) ==
                     golden["max_bits"])
            if index == 0:  # the Somos-type sequence is A018896
                exact = exact and tuple(terms[:len(A018896)]) == A018896
            run.check(exact,
                      f"generate {rec.pairs} differs from the golden residues")
            self._serialise(run, result, golden)
        run.record("generate.wall_s", calibrated, wall)

    def _serialise(self, run: Run, result, golden: dict) -> None:
        start = time.perf_counter()
        try:
            out = result.to_json_dict()
        except ValueError:
            # CPython's int-to-str digit limit: a known defect of the
            # program; counted as a failed operation, never worked around
            run.known_defect("serialise: int-to-str digit limit")
            return
        finally:
            run.samples.setdefault("serialise_s", []).append(
                time.perf_counter() - start)
        run.check(out["status"] == "ok"
                  and decimal_digest(out["terms"]) == golden["residues_sha256"],
                  "serialised terms differ from the golden residues")

    trace_pass = iteration

    def report(self, run: Run) -> tuple[float, float, list[str]]:
        wall, hex_s = run.median("generate.wall_s"), run.median("generate.hex_s")
        return wall, hex_s, [
            run.line("generate.wall_s", "generate.wall_s"),
            run.line("generate.hex_s", "generate.hex_s"),
            f"serialise            {run.median('serialise_s'):.4f} s wall "
            f"per run (not in generate.wall_s)",
        ]


class Oracles(Workload):
    """The octahedron oracle through the CLI, then the KP residual of every
    Schur function of weight <= 10 in 10 variables plus the negative
    control 1 + t1^4."""

    name = "oracles"
    VARS = 10
    MAX_WEIGHT = 10

    def __init__(self, run: Run) -> None:
        from tauseq import kp
        self.partitions = kp.partitions_up_to(self.MAX_WEIGHT)
        zero = (0,) * self.VARS
        t1_4 = (4,) + zero[1:]
        self.control = {zero: Fraction(1), t1_4: Fraction(1)}
        self.control_residual = {zero: Fraction(24), t1_4: Fraction(72)}

    def _octahedron(self, run: Run) -> tuple[int, str]:
        from tauseq import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "octahedron", "--trials", "100",
                             "--cutoff", "5", "--seed", str(run.seed)])
        return code, out.getvalue()

    def _kp(self) -> list:
        from tauseq import kp
        residuals = [kp.kp_bilinear_residual(kp.schur(lam, self.VARS),
                                             self.VARS)
                     for lam in self.partitions]
        residuals.append(kp.kp_bilinear_residual(self.control, self.VARS))
        return residuals

    def iteration(self, run: Run) -> None:
        code, out = run.timed("verify.octahedron_s", self._octahedron, run)
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            report = {}
        run.check(code == 0 and report.get("failures") == 0
                  and report.get("trials") == 100,
                  f"verify octahedron exited {code}: {out[:200]}")
        residuals = run.timed("verify.kp_s", self._kp)
        for lam, residual in zip(self.partitions, residuals):
            run.check(residual == {}, f"KP residual of {lam} is nonzero")
        run.check(residuals[-1] == self.control_residual,
                  f"KP negative control gave {residuals[-1]}")

    trace_pass = iteration

    def report(self, run: Run) -> tuple[float, float, list[str]]:
        octa, kp_s = (run.median("verify.octahedron_s"),
                      run.median("verify.kp_s"))
        return octa, kp_s, [
            run.line("verify.octahedron_s", "verify.octahedron_s"),
            run.line("verify.kp_s", "verify.kp_s",
                     f", {len(self.partitions)} Schur functions + "
                     f"negative control"),
        ]


WORKLOADS = {w.name: w for w in (ScanB5, Match100k, GenerateLong, Oracles)}
