"""Regenerate perfbench/golden.json from the program in this checkout.

Run from the root of a checkout:  python3 perfbench/make_golden.py

The goldens pin the outputs of the commit that defined the benchmark: the
bound-5 scan JSONL digest and summary, the 940 distinct bound-5
recurrences (used to build match-100k queries), and the residues of the
two 1000-term reference sequences modulo a 61-bit prime.  The residues
are checked against the benchmark's own pure-int reference generator
before they are written.  Only regenerate them when an intended change
of output is being accepted.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tauseq import oeis, scan  # noqa: E402
from tauseq.recurrence import BilinearRecurrence, generate  # noqa: E402

from checks import (GENERATE_PAIRS, GENERATE_TERMS, residue_digest,  # noqa: E402
                    scan_digest, scan_outputs)
from snapshot import int_terms  # noqa: E402


def main() -> int:
    records, summary = scan.run_scan(scan.ScanConfig(bound=5),
                                     oeis.load_fixture())
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        jsonl, summary_path = scan_outputs(tmp)
        scan.write_jsonl(records, jsonl)
        scan.write_summary(summary, summary_path)
        digest = scan_digest(tmp)[0]
    golden = {
        "scan_b5": {"jsonl_sha256": digest, "summary": summary},
        "scan_b5_pairs": [r["recurrence"]["pairs"] for r in records],
        "generate_long": [],
    }
    for pairs in GENERATE_PAIRS:
        run = generate(BilinearRecurrence(pairs), GENERATE_TERMS)
        if run.terms != int_terms(pairs, GENERATE_TERMS):
            raise SystemExit(f"program and reference disagree on {pairs}")
        golden["generate_long"].append({
            "pairs": [list(p) for p in pairs],
            "residues_sha256": residue_digest(run.terms),
            "max_bits": max(abs(t).bit_length() for t in run.terms),
        })
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(golden.items())) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
