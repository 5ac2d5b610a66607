"""Exactness checks shared by the workloads and the golden generator.

Big terms are compared through their residues modulo a 61-bit prime, so
no check converts an integer of more than 4300 digits to or from a
decimal string in one piece (CPython refuses that by default).
"""

from __future__ import annotations

import hashlib
import json
import os

PRIME = (1 << 61) - 1
GENERATE_TERMS = 1000
# the Somos-type reference recurrence and the HEX matrix's recurrence
GENERATE_PAIRS = (((0, 0), (4, -4), (3, -3)), ((3, -3), (6, -6), (5, -5)))
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _digest(residues) -> str:
    h = hashlib.sha256()
    for r in residues:
        h.update(r.to_bytes(8, "big"))
    return h.hexdigest()


def residue_digest(terms) -> str:
    """sha256 over the terms' residues modulo PRIME."""
    return _digest(t % PRIME for t in terms)


def decimal_residue(text: str) -> int:
    """Residue modulo PRIME of a decimal integer string, read in chunks."""
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = (value * pow(10, len(chunk), PRIME) + int(chunk)) % PRIME
    return (sign * value) % PRIME


def decimal_digest(texts) -> str:
    """residue_digest of integers given as decimal strings."""
    return _digest(decimal_residue(t) for t in texts)


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def scan_outputs(directory: str) -> tuple[str, str]:
    """Paths of the scan's JSONL and summary files in a work directory."""
    jsonl = os.path.join(directory, "records.jsonl")
    return jsonl, jsonl + ".summary.json"


def scan_digest(directory: str) -> tuple[str, dict]:
    """(sha256 of the JSONL, parsed summary) written by one scan."""
    jsonl, summary = scan_outputs(directory)
    with open(summary, encoding="utf-8") as fh:
        return file_sha256(jsonl), json.load(fh)
