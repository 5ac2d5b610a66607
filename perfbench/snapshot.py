"""Seeded inputs for the match-100k workload.

The snapshot is a stripped-format OEIS file that the benchmark writes
itself from a seed, so the workload needs no download.  Queries are drawn
as a stream: planted hits are windows cut from random rows at random
offsets, and the rest are windows of distinct bound-5 scan sequences
(mostly misses).  The expected hit list of every query comes from a
reference search over the row texts, independent of ``tauseq.oeis``.
"""

from __future__ import annotations

import bisect
import hashlib
import random

ENTRIES = 100_000
TERMS = 40
MALFORMED = 100
MIN_MATCH = 10
# every query has this length, the trimmed length of a 24-term scan
# sequence with a window of 8, so that all queries cost about the same
# and the median latency does not depend on the seed's mix of lengths
QUERY_LENGTH = 16

A018896 = (1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 9, 18, 34, 93, 180, 348, 724,
           3033, 9666, 24986, 83761, 261033, 1023728, 3923791, 26128126,
           105734485)
SQUARE_PAIRS = ((0, 0), (4, -4), (3, -3))


def int_terms(pairs, count: int) -> list[int]:
    """Reference generator: pure-int recurrence from an all-ones window.

    Raises ArithmeticError when a division is not exact or by zero.
    """
    low = min(x for pair in pairs for x in pair)
    pairs = [(p - low, q - low) for p, q in pairs]
    top = max(x for pair in pairs for x in pair)
    owner = next(i for i, pair in enumerate(pairs) if top in pair)
    p_o, q_o = pairs[owner]
    partner = q_o if p_o == top else p_o
    signs = (1, -1, 1)
    others = [(signs[i], p, q) for i, (p, q) in enumerate(pairs) if i != owner]
    terms = [1] * top
    for j in range(top, count):
        l = j - top
        acc = sum(s * terms[l + p] * terms[l + q] for s, p, q in others)
        value, rem = divmod(-acc, signs[owner] * terms[l + partner])
        if rem:
            raise ArithmeticError("non-integral term")
        terms.append(value)
    return terms


class Snapshot:
    """A seeded snapshot: the file bytes plus the rows for reference search."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        a_numbers = rng.sample(range(100_000, 1_000_000), ENTRIES + MALFORMED)
        names, texts = [], []
        for i in range(ENTRIES - 1):
            kind = i % 10
            if kind < 4:  # small values: every anchor repeats everywhere
                terms = rng.choices((0, 1, 2), (5, 3, 2), k=TERMS)
            elif kind < 7:  # fast growth: long decimal terms
                x, m = rng.randint(1, 9), rng.randint(2, 12)
                terms = []
                for _ in range(TERMS):
                    terms.append(x)
                    x = x * m + rng.randrange(10)
            else:
                terms = rng.choices(range(-999, 10_000), k=TERMS)
            names.append("A%06d" % a_numbers[i])
            texts.append("," + ",".join(map(str, terms)) + ",")
        at = rng.randrange(len(names) + 1)
        names.insert(at, "A018896")
        texts.insert(at, "," + ",".join(map(str, A018896)) + ",")

        lines = [f"{a} {text}" for a, text in zip(names, texts)]
        for k in range(MALFORMED):
            a = a_numbers[ENTRIES + k]
            bad = (f"A{a % 100_000:05d} ,1,2,3,",   # five-digit A-number
                   f"A{a:06d} 1,2,3,",              # no " ," separator
                   f"A{a:06d} ,1,x,3,",             # non-integer term
                   f"A{a:06d} ,,")[k % 4]           # no terms
            lines.insert(rng.randrange(len(lines) + 1), bad)
        lines.insert(0, "# synthetic stripped snapshot, seed %d" % seed)
        self.data = ("\n".join(lines) + "\n").encode()
        del lines
        self.sha256 = hashlib.sha256(self.data).hexdigest()
        self.entries = len(names)
        self.malformed = MALFORMED

        self.a_numbers = names
        self.haystack = "\n".join(texts)
        self.starts = []
        pos = 0
        for text in texts:
            self.starts.append(pos)
            pos += len(text) + 1

    def row_terms(self, row: int) -> list[int]:
        start = self.starts[row]
        end = self.haystack.index("\n", start) if row + 1 < len(self.starts) \
            else len(self.haystack)
        return [int(x) for x in self.haystack[start + 1:end - 1].split(",")]

    def expected_hits(self, query: list[int]) -> list[tuple[str, int]]:
        """(A-number, first position) of every row holding the trimmed query."""
        i = 0
        while i < len(query) and query[i] == 1:
            i += 1
        needle = "," + ",".join(map(str, query[i:])) + ","
        hay, starts = self.haystack, self.starts
        hits = []
        at = hay.find(needle)
        while at >= 0:
            row = bisect.bisect_right(starts, at) - 1
            hits.append((self.a_numbers[row], hay.count(",", starts[row], at)))
            nxt = starts[row + 1] if row + 1 < len(starts) else len(hay)
            at = hay.find(needle, nxt)
        return sorted(hits)


class QueryStream:
    """Endless seeded queries: even ones are planted hits, odd ones are
    windows of bound-5 scan sequences; the first scan window is the
    reference square sequence, which hits A018896."""

    def __init__(self, snapshot: Snapshot, scan_pairs: list, seed: int):
        self.snapshot = snapshot
        self.rng = random.Random(seed * 7919 + 1)
        self.scan_pairs = [tuple(map(tuple, p)) for p in scan_pairs]
        self.count = 0

    def next(self) -> tuple[list[int], str]:
        k = self.count
        self.count += 1
        if k % 2 == 0:
            return self._planted(), "planted"
        pairs = SQUARE_PAIRS if k == 1 else self.rng.choice(self.scan_pairs)
        while True:
            offsets = [x for pair in pairs for x in pair]
            terms = int_terms(pairs, max(offsets) - min(offsets) + 48)
            i = 0
            while i < len(terms) and terms[i] == 1:
                i += 1
            if len(terms) - i >= QUERY_LENGTH:
                return terms[i:i + QUERY_LENGTH], "scan"
            pairs = self.rng.choice(self.scan_pairs)

    def _planted(self) -> list[int]:
        while True:
            row = self.snapshot.row_terms(
                self.rng.randrange(len(self.snapshot.starts)))
            if len(row) < QUERY_LENGTH:
                continue
            start = self.rng.randrange(len(row) - QUERY_LENGTH + 1)
            if row[start] != 1:
                return row[start:start + QUERY_LENGTH]
