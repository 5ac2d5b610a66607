"""Offline matching against an OEIS "stripped" snapshot, plus an opt-in
live search client.

The stripped format is one sequence per line: "A000045 ,0,1,1,2,3,...,".
Loading keeps each entry as its canonical row text ",t0,t1,...,": a line
already in that form is stored as it stands, and any other accepted line
(leading zeros, "+5", "-0", spaces, "_" separators, empty fields, no
trailing comma) is made canonical once, at load: a plain ASCII term as
text, any other term through int() and str().  A query is matched by one
text search: the first match against a snapshot joins the rows, in
A-number order, into one text, and every query then looks for
",q0,q1,...," in it.
Matching is hermetic by design; the online client is advisory only and is
never consulted by tests or acceptance runs.
"""

from __future__ import annotations

import bisect
import gzip
import itertools
import json
import re
import sys
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import BinaryIO

A_NUMBER_RE = re.compile(r"A[0-9]{6}")
# a whole stripped line whose terms are already canonical: 0, or an
# optional minus and digits without a leading zero
CANONICAL_LINE_RE = re.compile(r"(A[0-9]{6}) (,(?:(?:0|-?[1-9][0-9]*),)+)")
ASCII_TERM_RE = re.compile(r"[+-]?[0-9]+")
DEFAULT_ENDPOINT = "https://oeis.org/search"


class OeisError(Exception):
    pass


class QueryTooShort(OeisError):
    pass


@contextmanager
def exact_int_str():
    """Lift CPython's int <-> str digit limit (3.10.7+, 4300 digits by
    default) for the block, so an int of any size converts exactly; the old
    limit is restored afterwards."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


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
    """str(int(field)), by text for a plain ASCII term: int() is quadratic."""
    term = field.strip()
    if not ASCII_TERM_RE.fullmatch(term):
        return str(int(field))
    digits = term.lstrip("+-").lstrip("0") or "0"
    return "-" + digits if term[0] == "-" and digits != "0" else digits


def load_stripped(source: BinaryIO | bytes | str) -> StrippedDb:
    """Parse a stripped file; gzip input is detected by magic bytes.

    Malformed lines are recorded with their line numbers and skipped.
    Terms of any size are accepted.
    """
    if isinstance(source, str):
        data = source.encode()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (EOFError, zlib.error) as exc:  # truncated or corrupt
            raise ValueError(f"unreadable gzip snapshot: {exc}") from exc
    entries: dict[str, str] = {}
    malformed: list[tuple[int, str]] = []
    # split on "\n" only: splitlines() would also split at "\r", "\x85",
    # "\u2028" and others, and so move the line numbers of malformed lines
    for lineno, raw in enumerate(data.decode("utf-8").split("\n"), start=1):
        line = raw.strip()
        canonical = CANONICAL_LINE_RE.fullmatch(line)
        if canonical:
            entries[canonical[1]] = canonical[2]
            continue
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(" ,")
        if not sep or not A_NUMBER_RE.fullmatch(head):
            malformed.append((lineno, line))
            continue
        try:
            with exact_int_str():
                row = ",".join(_canonical_term(x)
                               for x in rest.rstrip(",").split(",") if x != "")
        except ValueError:
            malformed.append((lineno, line))
            continue
        if not row:
            malformed.append((lineno, line))
            continue
        entries[head] = "," + row + ","
    return StrippedDb(entries=entries, malformed=malformed)


def load_fixture() -> StrippedDb:
    """The small vendored snapshot used by hermetic tests and scans."""
    data = resources.files("tauseq.data").joinpath("oeis_fixture.txt").read_bytes()
    return load_stripped(data)


def trim_query(terms: list[int], policy: MatchPolicy) -> list[int]:
    query = list(terms)
    if policy.trim_leading_ones:
        i = 0
        while i < len(query) and query[i] == 1:
            i += 1
        query = query[i:]
    if len(query) < policy.min_match_terms:
        raise QueryTooShort(
            f"query has {len(query)} terms after trimming; "
            f"need >= {policy.min_match_terms}")
    return query


def match_sequence(db: StrippedDb, terms: list[int],
                   policy: MatchPolicy | None = None
                   ) -> list[tuple[str, int]]:
    """All (A-number, position) whose entry contains the query contiguously.

    Each entry gives its first position, and hits come in A-number order.
    """
    policy = policy or MatchPolicy()
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


def search_online(terms: list[int], endpoint: str = DEFAULT_ENDPOINT,
                  retries: int = 2, delay: float = 1.0) -> dict:
    """Query the live OEIS JSON search endpoint.  Advisory only.

    Network failures, non-success statuses and malformed payloads raise
    distinct errors; retries are bounded with a politeness delay.
    """
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
        except ValueError as exc:
            raise OeisError(f"malformed search payload: {exc}") from exc
        results = payload.get("results") or []
        return {
            "advisory": True,
            "count": payload.get("count", len(results)),
            "matches": [{"a_number": f"A{r['number']:06d}",
                         "name": r.get("name", "")}
                        for r in results if "number" in r],
        }
    raise last_error  # type: ignore[misc]


def advisory_search(terms: list[int], endpoint: str = DEFAULT_ENDPOINT
                    ) -> dict:
    """search_online as an advisory: {"online": result} or, when the search
    fails, {"online_error": message}."""
    try:
        return {"online": search_online(terms, endpoint)}
    except OeisError as exc:
        return {"online_error": str(exc)}
