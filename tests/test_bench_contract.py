"""The benchmark's span tracer still sees the scan and oracle layers it can.

perfbench/spans.py wraps tauseq's functions by module attribute, so a
restructure that stops calling them through those attributes would leave
the per-layer metrics silently empty.  The targets it no longer finds are
pinned, so each is a known gap.  The tracer is loaded from its file and
used as the benchmark uses it; the file itself is not changed.
"""

import sys
import types
from pathlib import Path

from tauseq import kp, scan, verify
from tauseq.kp import add, diff, pack, scale
from tauseq.oeis import load_fixture

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the known dead targets: scan_slice enumerates and keys in one loop, so
# enumerate_edge_cycles and scan_one left scan, and rank left intlinalg
# with its caller
MISSING = ["scan.enumerate", "scan.scan_one", "intlinalg.rank"]


def load_spans():
    """Run the tracer's source as a module; no bytecode cache is written."""
    module = types.ModuleType("perfbench_spans")
    sys.modules[module.__name__] = module  # dataclasses look it up
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_counts_every_enumerated_and_derived_cycle():
    spans = load_spans()
    db = load_fixture()
    with spans.Tracer() as tracer:
        _, summary = scan.run_scan(scan.ScanConfig(bound=2), db, workers=1)
    assert tracer.missing == MISSING
    assert summary["total"] == 194
    layers = tracer.aggregate()
    assert layers["scan.run_scan"]["calls"] == 1
    # scan_slice keys each cycle from its minors, and each kept key is the
    # argument tuple of its recurrence's closed form: the scan builds no
    # basis and derives nothing, and generates once per kept key
    assert summary["unique"] == 8
    assert layers["recurrence.generate"]["calls"] == summary["unique"]
    for layer in ("lattice.basis", "lattice.quotient_map",
                  "recurrence.derive"):
        assert layers[layer]["calls"] == 0, layer
    # a record takes its terms from SequenceRun.term_texts, never through
    # to_json_dict, which would also build a seed-window text per record
    assert layers["recurrence.serialise"]["calls"] == 0


def test_tracer_counts_octahedron_oracle_calls():
    # one covacuum block and one shared elimination per trial: the
    # insertions call pair_minors directly, so no determinant is left
    spans = load_spans()
    trials = 3
    with spans.Tracer() as tracer:
        report = verify.verify_octahedron(trials=trials, seed=1, cutoff=4)
    assert report["failures"] == 0
    assert tracer.missing == MISSING
    layers = tracer.aggregate()
    assert layers["fock.random_group_element"]["calls"] == trials
    assert layers["fock.tau_with_insertions"]["calls"] == trials
    assert layers["intlinalg.det"]["calls"] == 0


def residual_factors(tau: dict) -> list[tuple[dict, dict]]:
    """The three factor pairs of the KP residual, on packed keys:
    tau (tau_xxxx - 4 tau_xt + 3 tau_yy), tau_x (tau_xxx - tau_t) and
    (tau_xx - tau_y)(tau_xx + tau_y)."""
    t = {pack(exp): c for exp, c in tau.items()}
    t_x, t_y, t_t = diff(t, 1), diff(t, 2), diff(t, 3)
    t_xx = diff(t_x, 1)
    t_xxx = diff(t_xx, 1)
    return [(t, add(diff(t_xxx, 1), scale(diff(t_x, 3), -4),
                    scale(diff(t_y, 2), 3))),
            (t_x, add(t_xxx, scale(t_t, -1))),
            (add(t_xx, scale(t_y, -1)), add(t_xx, t_y))]


def test_tracer_counts_kp_residual_products():
    # kp.mul is called once per factor pair, with the two factors as its
    # first two arguments, which is what the tracer's term count reads
    spans = load_spans()
    m = 6
    taus = [kp.schur(lam, m) for lam in kp.partitions_up_to(6)]
    with spans.Tracer() as tracer:
        residuals = [kp.kp_bilinear_residual(tau, m) for tau in taus]
    assert residuals == [{}] * len(taus)
    assert tracer.missing == MISSING
    layers = tracer.aggregate()
    assert layers["kp.residual"]["calls"] == len(taus)
    assert layers["kp.mul"]["calls"] == 3 * len(taus)
    assert tracer.counters.mul_term_products == sum(
        len(p) * len(q) for tau in taus for p, q in residual_factors(tau))
