"""Reference OEIS snapshot loader: every term parsed to an int.

This is the loader that kept each entry as a list of ints and built the
match index by turning every int back into text, with two fixes: the
A-number is six ASCII digits, and int() and str() run without CPython's
int <-> str digit limit.  `tauseq.oeis.load_stripped` keeps canonical rows
as text instead, and the tests compare the two.  `stripped_db` builds a
db from int rows for tests that need hand-made entries.

`load_stripped_by_line` is the text loader that fullmatched every stripped
line on its own, before one regex pass over the whole text found the
canonical lines; the tests compare it with `tauseq.oeis.load_stripped`.
Its other lines take each term as str(int(term)) without the digit limit,
the rule the text loader's term canonicaliser is specified against.

`trim_query` is the query trim that stepped over the leading ones in a
Python loop, before `tauseq.oeis.trim_query` counted them at C speed; the
tests compare the two.
"""

import gzip
import itertools
import re
import zlib

from tauseq import exact_int_str, oeis
from tauseq.oeis import QueryTooShort, StrippedDb

A_NUMBER_RE = re.compile(r"^A[0-9]{6}$")
CANONICAL_LINE_RE = re.compile(r"(A[0-9]{6}) (,(?:(?:0|-?[1-9][0-9]*),)+)")


def load_stripped(source) -> tuple[dict[str, list[int]],
                                   list[tuple[int, str]]]:
    """(entries as int lists by A-number, malformed (line number, text))."""
    if isinstance(source, str):
        data = source.encode()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (EOFError, zlib.error) as exc:
            raise ValueError(f"unreadable gzip snapshot: {exc}") from exc
    entries: dict[str, list[int]] = {}
    malformed: list[tuple[int, str]] = []
    for lineno, raw in enumerate(data.decode("utf-8").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(" ,")
        if not sep or not A_NUMBER_RE.match(head):
            malformed.append((lineno, line))
            continue
        try:
            with exact_int_str():
                terms = [int(x) for x in rest.rstrip(",").split(",")
                         if x != ""]
        except ValueError:
            malformed.append((lineno, line))
            continue
        if not terms:
            malformed.append((lineno, line))
            continue
        entries[head] = terms
    return entries, malformed


def index(entries: dict[str, list[int]]) -> tuple[list[str], str, list[int]]:
    """(A-numbers in order, rows ",t0,t1,...," joined by newlines, and the
    offset where each row starts, plus one past the end of the text)."""
    a_numbers = sorted(entries)
    with exact_int_str():
        rows = ["," + ",".join(map(str, entries[a])) + "," for a in a_numbers]
    starts = list(itertools.accumulate((len(row) + 1 for row in rows),
                                       initial=0))
    return a_numbers, "\n".join(rows), starts


def stripped_db(rows: dict[str, list[int]]) -> StrippedDb:
    """The db that loading these int rows, in stripped format, gives."""
    with exact_int_str():
        text = "".join(f"{a} ,{','.join(map(str, terms))},\n"
                       for a, terms in rows.items())
    return oeis.load_stripped(text.encode())


def load_stripped_by_line(source) -> StrippedDb:
    """The text loader with one fullmatch per stripped line."""
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
        if not sep or not oeis.A_NUMBER_RE.fullmatch(head):
            malformed.append((lineno, line))
            continue
        try:
            with exact_int_str():
                row = ",".join(str(int(x)) for x in rest.rstrip(",").split(",")
                               if x != "")
        except ValueError:
            malformed.append((lineno, line))
            continue
        if not row:
            malformed.append((lineno, line))
            continue
        entries[head] = "," + row + ","
    return StrippedDb(entries=entries, malformed=malformed)


def trim_query(terms, policy) -> list:
    """The terms as a new list, without their leading ones if the policy
    trims them, stepped over one at a time."""
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
