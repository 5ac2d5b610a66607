import gzip
import json
import sys
import urllib.error
import urllib.parse
import urllib.request

import pytest

from reference_oeis import stripped_db
from tauseq import oeis
from tauseq.oeis import (MatchPolicy, OeisError, QueryTooShort, StrippedDb,
                         load_fixture, load_stripped, match_sequence,
                         search_online, trim_query)

SAMPLE = """\
# comment line
A000045 ,0,1,1,2,3,5,8,13,21,34,55,89,144,
A000290 ,0,1,4,9,16,25,36,49,64,81,100,121,144,

not a line
A00004 ,1,2,3,
A999999 ,1,x,3,
A111111 ,,
"""


def test_load_stripped_parses_and_records_malformed():
    db = load_stripped(SAMPLE.encode())
    assert set(db.entries) == {"A000045", "A000290"}
    assert db.entries["A000045"].startswith(",0,1,1,2,3,")
    assert [lineno for lineno, _ in db.malformed] == [5, 6, 7, 8]
    # lines end at "\n" only: "\r\n" ends and a "\x85" or "\r" inside a
    # line leave the line numbers as they are
    odd = SAMPLE.replace("\n", "\r\n").replace("not a line", "not\x85a\rline")
    again = load_stripped(odd.encode())
    assert again.entries == db.entries
    assert [lineno for lineno, _ in again.malformed] == [5, 6, 7, 8]
    # a canonical line padded with blanks takes the per-line path to the
    # same row as the bare line
    line = SAMPLE.splitlines()[1]
    padded = load_stripped(f" {line}\t\n".encode())
    assert padded.entries == {"A000045": db.entries["A000045"]}
    assert padded.malformed == []


def test_load_stripped_gzip_detection():
    raw = SAMPLE.encode()
    assert load_stripped(gzip.compress(raw)).entries == \
        load_stripped(raw).entries


def serialize(db: StrippedDb) -> str:
    """Re-emit the well-formed entries in stripped format."""
    lines = [f"{a} {row}" for a, row in sorted(db.entries.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def test_serialize_roundtrip():
    db = load_stripped(SAMPLE.encode())
    again = load_stripped(serialize(db).encode())
    assert again.entries == db.entries
    assert again.malformed == []
    assert serialize(StrippedDb(entries={})) == ""


def test_fixture_loads_clean():
    db = load_fixture()
    assert db.malformed == []
    assert "A018896" in db.entries
    assert db.entries["A018896"].count(",") - 1 >= 24  # terms


def test_trim_query_policy():
    policy = MatchPolicy(min_match_terms=4)
    assert trim_query([1, 1, 1, 2, 3, 4, 5], policy) == [2, 3, 4, 5]
    keep = MatchPolicy(trim_leading_ones=False, min_match_terms=4)
    assert trim_query([1, 1, 2, 3], keep) == [1, 1, 2, 3]
    with pytest.raises(QueryTooShort):
        trim_query([1, 1, 1, 2, 3], policy)
    with pytest.raises(ValueError):
        MatchPolicy(min_match_terms=3)


def test_match_sequence_positions():
    db = load_stripped(SAMPLE.encode())
    # the leading 1 is trimmed, so the query starts at 2 (position 3)
    hits = match_sequence(db, [1, 2, 3, 5, 8, 13, 21, 34, 55, 89],
                          MatchPolicy(min_match_terms=8))
    assert hits == [("A000045", 3)]
    # whole terms only: 5 is not found inside -5 or 15
    signed = stripped_db({"A000001": [-5, 6, 7, 8],
                          "A000002": [15, 6, 7, 8],
                          "A000003": [0, 5, 6, 7, 8]})
    assert match_sequence(signed, [5, 6, 7, 8],
                          MatchPolicy(min_match_terms=4)) == [("A000003", 1)]
    # a term past the int-to-str digit limit is in no entry
    assert match_sequence(db, [2, 3, 5, 8, 10 ** 4300, 21, 34, 55],
                          MatchPolicy(min_match_terms=8)) == []


def test_index_holds_terms_past_int_str_digit_limit():
    limit = sys.get_int_max_str_digits()
    db = stripped_db({"A000001": [2, 3, 4, 5, 10 ** 4300]})
    policy = MatchPolicy(min_match_terms=4)
    assert match_sequence(db, [2, 3, 4, 5], policy) == [("A000001", 0)]
    assert match_sequence(db, [3, 4, 5, 10 ** 4300], policy) == \
        [("A000001", 1)]
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("big", ["1" + "0" * 4300, "+01" + "0" * 4300])
def test_load_stripped_terms_past_int_str_digit_limit(big):
    # canonical text is kept as it stands; "+01..." is rewritten as text
    limit = sys.get_int_max_str_digits()
    db = load_stripped(f"A000001 ,2,3,4,5,{big},\n".encode())
    assert db.malformed == []
    assert db.entries == {"A000001": ",2,3,4,5,1" + "0" * 4300 + ","}
    assert match_sequence(db, [3, 4, 5, 10 ** 4300],
                          MatchPolicy(min_match_terms=4)) == [("A000001", 1)]
    assert sys.get_int_max_str_digits() == limit


def test_byte_not_utf8_makes_one_malformed_line():
    data = (b"A000045 ,0,1,1,2,3,5,8,13,\n"
            b"A000290 ,0,1,4,\xff9,16,\n"
            b"A000079 ,1,2,4,8,16,\n")
    db = load_stripped(data)
    assert db.entries == {"A000045": ",0,1,1,2,3,5,8,13,",
                          "A000079": ",1,2,4,8,16,"}
    assert db.malformed == [(2, "A000290 ,0,1,4,\ufffd9,16,")]


def test_a_number_digits_are_ascii():
    text = ("A000045 ,0,1,1,2,3,5,8,13,21,34,55,89,\n"
            "A٠٠٠٠٤٥ ,1,2,3,5,8,13,21,34,55,89,\n")
    db = load_stripped(text.encode())
    assert set(db.entries) == {"A000045"}
    assert db.malformed == [(2, text.splitlines()[1])]
    assert match_sequence(db, [1, 2, 3, 5, 8, 13, 21, 34, 55, 89],
                          MatchPolicy(trim_leading_ones=False)) == \
        [("A000045", 2)]


def test_match_reports_first_position_once():
    # found at 0 and again at 4: position 0, once
    twice = stripped_db({"A000007": [2, 3, 4, 5, 2, 3, 4, 5, 2]})
    assert match_sequence(twice, [2, 3, 4, 5],
                          MatchPolicy(min_match_terms=4)) == [("A000007", 0)]


def test_match_reference_sequence_in_fixture():
    db = load_fixture()
    terms = [1] * 8 + [2, 3, 4, 5, 9, 18, 34, 93, 180, 348, 724,
                       3033, 9666, 24986, 83761, 261033]
    hits = match_sequence(db, terms, MatchPolicy())
    assert ("A018896", 8) in hits


def test_match_empty_db():
    assert match_sequence(StrippedDb(entries={}), list(range(2, 20)),
                          MatchPolicy()) == []


class FakeResponse:
    """Stands in for the response object urllib.request.urlopen returns."""

    def __init__(self, payload=None, body=None):
        self.status = 200
        self._body = json.dumps(payload).encode() if body is None else body

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_search_online_success(monkeypatch):
    calls = []

    def fake_urlopen(url, timeout=None):
        parts = urllib.parse.urlsplit(url)
        query = urllib.parse.parse_qs(parts.query)
        calls.append((f"{parts.scheme}://{parts.netloc}{parts.path}",
                      query["q"][0]))
        return FakeResponse(payload={
            "count": 1,
            "results": [{"number": 18896, "name": "a(n)*a(n-8)=..."}]})

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    out = search_online([2, 3, 4, 5, 9], endpoint="https://example.test")
    assert out["advisory"] is True
    assert out["matches"] == [{"a_number": "A018896",
                               "name": "a(n)*a(n-8)=..."}]
    assert calls == [("https://example.test", "2,3,4,5,9")]


def test_search_online_retries_then_fails(monkeypatch):
    attempts = []

    def fake_urlopen(url, timeout=None):
        attempts.append(1)
        raise urllib.error.HTTPError(url, 503, "Service Unavailable",
                                     None, None)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setattr("time.sleep", lambda s: None)
    with pytest.raises(OeisError, match="status 503"):
        search_online([1, 2, 3], "https://example.test", retries=2,
                      delay=0)
    assert len(attempts) == 3


# search bodies not of the shape {"results": [{"number": int, ...}, ...]}
MALFORMED_PAYLOADS = {
    "not-json": b"{not json",
    "list": b"[]",
    "int-result": b'{"results": [5]}',
    "deep": b"[" * 100_000,
    "str-number": b'{"results": [{"number": "x"}]}',
    "bool-number": b'{"results": [{"number": true}]}',
    "str-results": b'{"results": "number"}',
    "int-name-str-count": b'{"results": [{"number": 5, "name": 7}], '
                          b'"count": "x"}',
    "int-name": b'{"results": [{"number": 5, "name": 7}], "count": 1}',
    "str-count": b'{"results": [{"number": 5, "name": "a"}], "count": "1"}',
    "bool-count": b'{"results": null, "count": false}',
}


def test_search_online_malformed_payload(monkeypatch):
    for body in MALFORMED_PAYLOADS.values():
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda *a, body=body, **k: FakeResponse(body=body))
        with pytest.raises(OeisError, match="malformed search payload"):
            search_online([1, 2, 3], "https://example.test", retries=0)


def test_search_online_network_failure(monkeypatch):
    def fake_urlopen(url, timeout=None):
        raise urllib.error.URLError("connection refused")

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setattr("time.sleep", lambda s: None)
    with pytest.raises(OeisError, match="network failure"):
        search_online([1, 2, 3], "https://example.test", retries=1,
                      delay=0)


def test_load_stripped_long_terms_by_text(monkeypatch):
    # a term with "_" loads as its digits and a malformed one is rejected,
    # both without int(), which is quadratic in the term's length
    def no_int(*args):
        raise AssertionError(f"int() called on a {len(args[0])}-char term")

    monkeypatch.setattr(oeis, "int", no_int, raising=False)
    ones = "1" * 200_000
    db = load_stripped(f"A000001 ,2,{ones}_1,\nA000002 ,2,{ones}x,\n".encode())
    assert db.entries == {"A000001": f",2,{ones}1,"}
    assert [lineno for lineno, _ in db.malformed] == [2]
