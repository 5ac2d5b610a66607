"""Offline matching against an OEIS "stripped" snapshot, plus an opt-in
live search client.

The stripped format is one sequence per line: "A000045 ,0,1,1,2,3,...,".
Loading keeps each entry as its canonical row text ",t0,t1,...,". One
regex pass walks the text line by line: a line already in that form is
stored as it stands, and any other line takes the slow path, which makes an
accepted line (leading zeros, "+5", "-0", spaces, "_" separators, empty
fields, no trailing comma, Unicode digits) canonical as text: int() never
reads a term, being quadratic in its length.
A query is matched by one text search: the first match against a
snapshot joins the rows, in A-number order, into one text, and every
query then looks for ",q0,q1,...," in it.
Matching is hermetic by design; the online client is advisory only and is
never consulted by tests or acceptance runs.
"""

from __future__ import annotations

import bisect
import itertools
import json
import re
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import eq
from typing import BinaryIO

from . import exact_int_str

A_NUMBER_RE = re.compile(r"A[0-9]{6}")
# each line, in one of two forms: a stripped line ("\r\n" ends too) whose
# terms are already canonical (0, or an optional minus and digits without a
# leading zero; possessive, so the pass is faster), or any other line
LINE_RE = re.compile(
    r"^(?:(A[0-9]{6}) (,(?:[1-9][0-9]*+,|0,|-[1-9][0-9]*+,)++)\r?$|(.*))", re.M)
INT_TERM_RE = re.compile(r"[+-]?\d+(?:_\d+)*")  # what int() reads
DEFAULT_ENDPOINT = "https://oeis.org/search"


class OeisError(Exception):
    pass


class QueryTooShort(OeisError):
    pass


@dataclass
class StrippedDb:
    """Well-formed entries, each the canonical row text ",t0,t1,...," of
    its terms, by A-number, and malformed lines as (line number, text).

    The first match builds a text index of `entries` and keeps it, so
    `entries` must not change once the db has been matched.
    """

    entries: dict[str, str]
    malformed: list[tuple[int, str]] = field(default_factory=list)

    @cached_property
    def _index(self) -> tuple[list[str], str, list[int]]:
        """(A-numbers in order, their rows joined by newlines, and the
        offset where each row starts, plus one past the end of the text)."""
        a_numbers = sorted(self.entries)
        rows = [self.entries[a] for a in a_numbers]
        starts = list(itertools.accumulate((len(row) + 1 for row in rows),
                                           initial=0))
        return a_numbers, "\n".join(rows), starts


@dataclass(frozen=True)
class MatchPolicy:
    trim_leading_ones: bool = True
    min_match_terms: int = 10

    def __post_init__(self) -> None:
        if self.min_match_terms < 4:
            raise ValueError("min_match_terms must be >= 4")


def _canonical_term(field: str) -> str:
    """str(int(field)), by text: int() is quadratic in the term's length.

    A term int() accepts, with `_` between digits or Unicode digits, is
    brought to ASCII digits first; any other term is malformed.
    """
    term = field.strip()
    if not INT_TERM_RE.fullmatch(term):
        raise ValueError("malformed term")
    term = term.replace("_", "")
    if not term.isascii():
        import unicodedata
        term = "".join(ch if ch in "+-" else str(unicodedata.decimal(ch))
                       for ch in term)
    digits = term.lstrip("+-").lstrip("0") or "0"
    return "-" + digits if term[0] == "-" and digits != "0" else digits


def load_stripped(source: BinaryIO | bytes) -> StrippedDb:
    """Parse a stripped file; gzip input is detected by magic bytes.

    One `finditer` walks the lines: a canonical line is stored as it
    stands, any other takes the per-line path. Malformed lines (a byte that
    is not UTF-8 makes one) are recorded with their line numbers and
    skipped. Terms of any size are accepted.
    """
    data = source if isinstance(source, bytes) else source.read()
    if data[:2] == b"\x1f\x8b":
        import gzip
        import zlib
        try:
            data = gzip.decompress(data)
        except (EOFError, zlib.error) as exc:  # truncated or corrupt
            raise ValueError(f"unreadable gzip snapshot: {exc}") from exc
    # U+FFFD, never a digit, makes the line of a bad byte malformed
    text = data.decode("utf-8", errors="replace")
    entries: dict[str, str] = {}
    malformed: list[tuple[int, str]] = []
    # "^" and "." end a line at "\n" only; splitlines() would also split at
    # "\r", "\x85", "\u2028" and others, and so move malformed line numbers
    for lineno, match in enumerate(LINE_RE.finditer(text), start=1):
        a_number, row, line = match.groups()
        if line is not None:  # the per-line path: a canonical line reaches
            line = line.strip()  # it only padded, and gets the same row here
            if not line or line.startswith("#"):
                continue
            a_number, sep, rest = line.partition(" ,")
            try:
                row = ",".join(_canonical_term(x) for x in rest.split(",") if x)
            except ValueError:
                row = ""
            if not (sep and row and A_NUMBER_RE.fullmatch(a_number)):
                malformed.append((lineno, line))
                continue
            row = "," + row + ","
        entries[a_number] = row
    return StrippedDb(entries=entries, malformed=malformed)


def load_fixture() -> StrippedDb:
    """The small vendored snapshot used by hermetic tests and scans."""
    from importlib import resources
    data = resources.files("tauseq.data").joinpath("oeis_fixture.txt").read_bytes()
    return load_stripped(data)


def trim_query(terms: list[int], policy: MatchPolicy) -> list[int]:
    """The terms as a new list, without their leading ones if the policy
    trims them (counted at C speed: 1 == t, as (1).__eq__(t) is the truthy
    NotImplemented for a Fraction t)."""
    ones = 0
    if policy.trim_leading_ones:
        ones = len(list(itertools.takewhile(partial(eq, 1), terms)))
    query = terms[ones:]
    if len(query) < policy.min_match_terms:
        raise QueryTooShort(
            f"query has {len(query)} terms after trimming; "
            f"need >= {policy.min_match_terms}")
    return query


def match_sequence(db: StrippedDb, terms: list[int],
                   policy: MatchPolicy) -> list[tuple[str, int]]:
    """All (A-number, position) whose entry contains the query contiguously.

    Each entry gives its first position, and hits come in A-number order.
    """
    query = trim_query(terms, policy)
    with exact_int_str():
        needle = "," + ",".join(map(str, query)) + ","
    a_numbers, text, starts = db._index
    hits = []
    at = text.find(needle)
    while at >= 0:
        row = bisect.bisect_right(starts, at) - 1
        hits.append((a_numbers[row], text.count(",", starts[row], at)))
        at = text.find(needle, starts[row + 1])
    return hits


def search_online(terms: list[int], endpoint: str,
                  retries: int = 2, delay: float = 1.0) -> dict:
    """Query the live OEIS JSON search endpoint, advisory only.  Network
    failures, non-success statuses and payloads not of the shape {"count":
    int, "results": [{"number": int, "name": str, ...}] or null} raise
    distinct errors; retries are bounded with a politeness delay."""
    import urllib.request
    from http.client import HTTPException
    from urllib.error import HTTPError
    from urllib.parse import urlencode

    query = ",".join(str(t) for t in terms)
    url = endpoint + "?" + urlencode({"q": query, "fmt": "json"})
    last_error: Exception | None = None
    for attempt in range(retries + 1):
        if attempt:
            time.sleep(delay)
        try:
            with urllib.request.urlopen(url, timeout=30) as resp:
                status, body = resp.status, resp.read()
        except HTTPError as exc:
            status, body = exc.code, b""
        except (OSError, HTTPException) as exc:  # URLError is an OSError
            last_error = OeisError(f"network failure: {exc}")
            continue
        if status != 200:
            last_error = OeisError(f"search returned status {status}")
            continue
        try:
            payload = json.loads(body)
            results = payload.get("results") or []
            hits = [r for r in results if "number" in r]
            count = payload.get("count", len(results))
            if type(results) is not list or type(count) is not int or any(
                    type(r["number"]) is not int
                    or type(r.get("name", "")) is not str for r in hits):
                raise TypeError("not {'count': int, 'results': "
                                "[{'number': int, 'name': str, ...}]}")
        except (ValueError, TypeError, AttributeError, RecursionError) as exc:
            raise OeisError(f"malformed search payload: {exc}") from exc
        return {"advisory": True, "count": count,
                "matches": [{"a_number": f"A{r['number']:06d}",
                             "name": r.get("name", "")} for r in hits]}
    raise last_error  # type: ignore[misc]
