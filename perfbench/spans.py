"""Outside-in span tracing of tauseq's public functions.

The benchmark wraps the module attributes that callers actually look up
(both ``recurrence.generate`` and ``scan.generate``, for example), so no
file of the program changes.  Spans live in memory as
``(name, parent, start, end)``; they are aggregated and written out when
the traced run ends.  A layer's self time is its span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

# layer name -> (defining module, attribute path); every module of tauseq
# that holds the same function object under the same name is wrapped too.
TARGETS = {
    "scan.run_scan": ("tauseq.scan", "run_scan"),
    "scan.enumerate": ("tauseq.scan", "enumerate_edge_cycles"),
    "scan.scan_one": ("tauseq.scan", "scan_one"),
    "scan.serialise": ("tauseq.scan", "write_jsonl"),
    "scan.serialise.summary": ("tauseq.scan", "write_summary"),
    "lattice.basis": ("tauseq.lattice", "SublatticeBasis.__post_init__"),
    "lattice.quotient_map": ("tauseq.lattice", "quotient_map"),
    "intlinalg.rank": ("tauseq.intlinalg", "rank"),
    "intlinalg.det": ("tauseq.intlinalg", "det_exact"),
    "recurrence.derive": ("tauseq.recurrence", "derive_recurrence"),
    "recurrence.generate": ("tauseq.recurrence", "generate"),
    "recurrence.serialise": ("tauseq.recurrence", "SequenceRun.to_json_dict"),
    "oeis.load": ("tauseq.oeis", "load_stripped"),
    "oeis.match": ("tauseq.oeis", "match_sequence"),
    "fock.random_group_element": ("tauseq.fock", "random_group_element"),
    "fock.tau_with_insertions": ("tauseq.fock", "tau_with_insertions"),
    "kp.schur": ("tauseq.kp", "schur"),
    "kp.residual": ("tauseq.kp", "kp_bilinear_residual"),
    "kp.mul": ("tauseq.kp", "mul"),
}

# spans reported under another layer's name
ALIASES = {"scan.serialise.summary": "scan.serialise"}

MODULES = ("tauseq.scan", "tauseq.lattice", "tauseq.intlinalg",
           "tauseq.recurrence", "tauseq.oeis", "tauseq.fock", "tauseq.kp",
           "tauseq.cli")


def _max_bits(terms) -> int:
    best = 0
    for t in terms:
        if isinstance(t, int):
            best = max(best, abs(t).bit_length())
        else:
            best = max(best, abs(t.numerator).bit_length(),
                       t.denominator.bit_length())
    return best


@dataclass
class Counters:
    """Exact work counts taken at the wrapped boundaries."""

    enumerate_cycles: int = 0
    generate_terms: int = 0
    generate_max_bits: int = 0
    serialise_failed: int = 0
    load_entries: int = 0
    load_malformed: int = 0
    load_bytes: int = 0
    match_hits: int = 0
    mul_term_products: int = 0
    recurrences: set = field(default_factory=set)


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.counters = Counters()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span; the span is kept even when fn raises."""
        spans, stack = self.spans, self.stack
        sid = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[sid] = (name, parent, start, end)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        counters, span, after = self.counters, self.span, _AFTER.get(name)
        if name == "recurrence.serialise":
            def traced(*args, **kwargs):
                try:
                    return span(name, fn, *args, **kwargs)
                except ValueError:
                    counters.serialise_failed += 1
                    raise
        elif after is None:
            def traced(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                result = span(name, fn, *args, **kwargs)
                after(counters, args, result)
                return result
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = []
        for mod_name in MODULES:
            try:
                modules.append(importlib.import_module(mod_name))
            except ImportError:
                continue
        for name, (mod_name, path) in TARGETS.items():
            try:
                owner = importlib.import_module(mod_name)
                for part in path.split(".")[:-1]:
                    owner = getattr(owner, part)
                attr = path.split(".")[-1]
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            traced = self._wrapper(name, original)
            self._patch(owner, attr, traced)
            if "." in path:
                continue  # a method: the class is the only binding
            for module in modules:
                if module is not owner and \
                        getattr(module, attr, None) is original:
                    self._patch(module, attr, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per layer: calls, total seconds and self seconds."""
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, (name, parent, start, end) in enumerate(self.spans):
            row = out[ALIASES.get(name, name)]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += (end - start) - child_time[sid]
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")


def _after_enumerate(c: Counters, args, result) -> None:
    c.enumerate_cycles += len(result)


def _after_generate(c: Counters, args, result) -> None:
    c.generate_terms += len(result.terms)
    c.generate_max_bits = max(c.generate_max_bits, _max_bits(result.terms))
    c.recurrences.add(args[0].pairs)


def _after_load(c: Counters, args, result) -> None:
    source = args[0]  # bytes, str, or a binary file read to its end
    c.load_bytes += len(source) if isinstance(source, (bytes, str)) \
        else source.tell()
    c.load_entries += len(result.entries)
    c.load_malformed += len(result.malformed)


def _after_mul(c: Counters, args, result) -> None:
    c.mul_term_products += len(args[0]) * len(args[1])


def _after_match(c: Counters, args, result) -> None:
    if result:
        c.match_hits += 1


_AFTER = {
    "scan.enumerate": _after_enumerate,
    "recurrence.generate": _after_generate,
    "oeis.load": _after_load,
    "oeis.match": _after_match,
    "kp.mul": _after_mul,
}


# per-layer metric -> unit; every workload reports all of them, with 0 for
# a layer it does not exercise
PER_LAYER = {
    "scan.enumerate.s": "s", "scan.enumerate.cycles": "count",
    "scan.scan_one.calls": "count", "scan.scan_one.self_s": "s",
    "scan.merge.s": "s", "scan.serialise.s": "s",
    "scan.skipped.torsion": "count", "scan.useful_ratio": "ratio",
    "lattice.basis.calls": "count", "lattice.basis.self_s": "s",
    "intlinalg.rank.calls": "count", "intlinalg.rank.self_s": "s",
    "lattice.quotient_map.calls": "count",
    "lattice.quotient_map.self_s": "s",
    "recurrence.derive.calls": "count", "recurrence.derive.self_s": "s",
    "recurrence.generate.calls": "count", "recurrence.generate.s": "s",
    "recurrence.generate.terms": "count",
    "recurrence.generate.distinct_ratio": "ratio",
    "recurrence.generate.max_bits": "bits",
    "recurrence.serialise.calls": "count", "recurrence.serialise.s": "s",
    "recurrence.serialise.failed": "count",
    "oeis.load.s": "s", "oeis.load.entries": "count",
    "oeis.load.malformed": "count", "oeis.load.bytes": "bytes",
    "oeis.match.calls": "count", "oeis.match.s": "s",
    "oeis.match.hit_ratio": "ratio",
    "fock.random_group_element.calls": "count",
    "fock.random_group_element.self_s": "s",
    "fock.tau_with_insertions.calls": "count",
    "fock.tau_with_insertions.self_s": "s",
    "intlinalg.det.calls": "count", "intlinalg.det.self_s": "s",
    "kp.schur.calls": "count", "kp.schur.self_s": "s",
    "kp.residual.calls": "count", "kp.residual.self_s": "s",
    "kp.mul.calls": "count", "kp.mul.s": "s", "kp.mul.term_products": "count",
    "trace.overhead_ratio": "ratio", "trace.wall_s": "s",
    "trace.remainder_s": "s", "trace.missing": "count",
}


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Every PER_LAYER value except the two the caller measures itself
    (trace.overhead_ratio and trace.wall_s)."""
    agg = tracer.aggregate()
    c = tracer.counters

    def get(layer: str, key: str):
        return agg[layer][key] if layer in agg else 0

    values = {}
    for name in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if key in ("calls", "s", "self_s"):
            values[name] = get(layer, key)
    generates = get("recurrence.generate", "calls")
    matches = get("oeis.match", "calls")
    values.update({
        "scan.enumerate.cycles": c.enumerate_cycles,
        "scan.merge.s": get("scan.run_scan", "self_s"),
        "scan.skipped.torsion": 0,
        "scan.useful_ratio": 0.0,
        "recurrence.generate.terms": c.generate_terms,
        "recurrence.generate.distinct_ratio":
            len(c.recurrences) / generates if generates else 0.0,
        "recurrence.generate.max_bits": c.generate_max_bits,
        "recurrence.serialise.failed": c.serialise_failed,
        "oeis.load.entries": c.load_entries,
        "oeis.load.malformed": c.load_malformed,
        "oeis.load.bytes": c.load_bytes,
        "oeis.match.hit_ratio": c.match_hits / matches if matches else 0.0,
        "kp.mul.term_products": c.mul_term_products,
        "trace.remainder_s": get("op", "self_s"),
        "trace.missing": len(tracer.missing),
    })
    values.update(extra)
    return values
