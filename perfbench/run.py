"""tauseq benchmark: run one workload and print its metrics.

Run from the root of a checkout (stdlib only, nothing to build):

    python3 perfbench/run.py --workload scan-b5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With --trace 0 the workload runs untraced and reports the end-to-end
metrics, timings in calibrated seconds (see calibrate.py).  With --trace 1
it runs one untraced and one traced pass and reports the per-layer metrics
in wall seconds; the spans of the traced pass are written to
perfbench/traces/.  Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  --workload all runs
every workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

import spans
from workloads import WORKLOADS, Run

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TRACES = os.path.join(HERE, "traces")

# name -> unit; every workload reports all of them (see workloads.py)
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB",
              "primary_s": "s", "secondary_s": "s"}
WORKLOAD_NAMES = tuple(WORKLOADS)


def measure(workload, run) -> dict:
    setup_s = workload.setup(run)
    run.closed_loop(lambda: workload.iteration(run), workload.min_iterations)
    primary, secondary, lines = workload.report(run)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for line in lines:
        print("  " + line)
    print(f"  setup_s              {setup_s:.4f} s calibrated  (import + "
          f"load, medians; {run.calibration} calibration chunk)")
    print(f"  peak_rss_mb       {peak:.1f} MB  (this process)")
    values = {"setup_s": setup_s, "peak_rss_mb": peak,
              "primary_s": primary, "secondary_s": secondary}
    return {k: {"value": values[k], "unit": unit}
            for k, unit in END_TO_END.items()}


def measure_layers(workload, run) -> dict:
    start = time.perf_counter()
    workload.trace_pass(run)
    untraced = time.perf_counter() - start
    tracer = spans.Tracer()
    with tracer:
        start = time.perf_counter()
        tracer.span("op", workload.trace_pass, run)
        traced = time.perf_counter() - start
    values = spans.layer_metrics(tracer, workload.layer_extra())
    values["trace.overhead_ratio"] = traced / untraced
    values["trace.wall_s"] = traced
    os.makedirs(TRACES, exist_ok=True)
    path = os.path.join(TRACES, f"{workload.name}-seed{run.seed}.jsonl")
    tracer.write(path)
    for name, value in values.items():
        if value:
            print(f"  {name:36} {value:.6g} {spans.PER_LAYER[name]}")
    counters = tracer.counters
    print(f"  distinct recurrences generated {len(counters.recurrences)}, "
          f"match calls with a hit {counters.match_hits}")
    self_total = sum(row["self_s"] for row in tracer.aggregate().values())
    print(f"  traced wall {traced:.4f} s, untraced {untraced:.4f} s; "
          f"layer self times {self_total - values['trace.remainder_s']:.4f} s"
          f" + remainder {values['trace.remainder_s']:.4f} s")
    if tracer.missing:
        print(f"  missing (not traced): {', '.join(tracer.missing)}")
    print("  unmeasured: maya, cli (negligible work in every workload)")
    print(f"  spans: {len(tracer.spans)} written to "
          f"{os.path.relpath(path, os.path.dirname(HERE))}")
    return {k: {"value": values[k], "unit": unit}
            for k, unit in spans.PER_LAYER.items()}


def declared_mismatch() -> str | None:
    """Why BENCHMARK.json and the metrics this file prints disagree."""
    try:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            declared = json.load(fh)
    except FileNotFoundError:
        return None
    for key, ours in (("end_to_end", END_TO_END),
                      ("per_layer", spans.PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in declared[key]}
        if theirs != ours:
            return f"BENCHMARK.json {key} differs from perfbench's metrics"
    return None


def run_one(name: str, seed: int, seconds: int, traced: bool) -> int:
    problem = declared_mismatch()
    if problem is None and not os.path.isfile(
            os.path.join(SRC, "tauseq", "__init__.py")):
        problem = "src/tauseq not found; run from the root of a checkout"
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        run = Run(seed, seconds, SRC, workdir, WORKLOADS[name].calibration,
                  traced)
        workload = WORKLOADS[name](run)
        print(f"perfbench workload={name} seed={seed} seconds={seconds} "
              f"trace={int(traced)}")
        metrics = (measure_layers if traced else measure)(workload, run)
    print(f"  fail_rate         {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:.4f}"
          + "".join(f"; {n} x {what}" for what, n in run.defects.items()))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int, traced: bool) -> int:
    """Every workload in its own process; one table of their metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print()
    print(f"{'workload':15} {'ok':>3} {'fail_rate':>10} " + " ".join(
        f"{m:>14}" for m in END_TO_END if not traced))
    for name, r in results.items():
        cells = "" if traced else " ".join(
            f"{r['metrics'][m]['value']:>11.4f} {r['metrics'][m]['unit']:2}"
            for m in END_TO_END)
        print(f"{name:15} {'yes' if r['correct'] else 'NO':>3} "
              f"{r['failed']:>4}/{r['attempted']:<5} {cells}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
