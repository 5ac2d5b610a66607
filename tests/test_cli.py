import argparse
import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauseq import exact_int_str, oeis, scan, verify
from tauseq.cli import (CEILINGS, EXIT_CODES, EXIT_INTERNAL, EXIT_OK,
                        EXIT_PARSE, EXIT_VERIFY_FAIL, SUBCOMMANDS,
                        build_parser, main)
from test_oeis import MALFORMED_PAYLOADS, SAMPLE, FakeResponse

SQUARE = "5,-2,-2,-1;1,1,-1,-1"
HEX = "1,3,-3,-1;0,1,2,-3"
SOMOS = '{"pairs": [[0,0],[4,-4],[3,-3]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


# ------------------------------------------------------------ derive


def test_derive_square(capsys):
    code, obj = run_json(capsys, "derive", "--matrix", SQUARE)
    assert code == 0
    assert obj["recurrence"]["pairs"] == [[0, 0], [4, -4], [3, -3]]
    assert obj["quotient"]["torsion_free"] is True
    assert len(obj["octahedron_points"]) == 6


def test_derive_hex_polygon_equals_matrix(capsys):
    code1, obj1 = run_json(capsys, "derive", "--matrix", HEX)
    code2, obj2 = run_json(capsys, "derive", "--polygon",
                           "0,0 1,0 4,1 1,3")
    assert code1 == code2 == 0
    assert obj1["recurrence"] == obj2["recurrence"]


def test_derive_torsion_exit_code(capsys):
    code, obj = run_json(capsys, "derive", "--matrix", "2,-2,0,0;0,0,1,-1")
    assert code == 3
    assert obj["invariant_factors"] == [1, 2]


def test_derive_rank_exit_code(capsys):
    # quotients of rank 0 and rank 2, and two linearly dependent rows
    for matrix in ("1,-1,0;0,1,-1", "1,-1,0,0,0;0,0,1,0,-1",
                   "1,1,-1,-1;2,2,-2,-2"):
        code, obj = run_json(capsys, "derive", "--matrix", matrix)
        assert code == 4
        assert "error" in obj


def test_derive_star_polygon_is_usage_error(capsys):
    # every turn is left, but the boundary winds twice: not convex (2); a
    # convex pentagon still gets as far as the rank check (4)
    code, obj = run_json(capsys, "derive", "--polygon", "0,0 2,0 0,1 1,-1 2,1")
    assert code == 2
    assert obj["error"] == "polygon must be strictly convex and ccw"
    code, obj = run_json(capsys, "derive", "--polygon", "0,0 2,0 3,1 1,2 -1,1")
    assert code == 4
    assert "unsupported rank" in obj["error"]


def test_derive_parse_exit_code(capsys):
    code, obj = run_json(capsys, "derive", "--matrix", "1,x;2,3")
    assert code == 2
    assert "error" in obj


def test_derive_bad_vertex_is_named(capsys):
    # a vertex with three coordinates, one or empty ones is a usage error
    # that names the vertex, not Python's unpack text
    for polygon, vertex in (("0,0,1 1,0 1,1", "0,0,1"), ("1", "1"),
                            ("0,0 , 1,1", ",")):
        code, obj = run_json(capsys, "derive", "--polygon", polygon)
        assert code == 2
        assert obj["error"] == f"bad vertex {vertex!r}: expected x,y"


def test_derive_empty_matrix_entry_is_named(capsys):
    for matrix, where in (("1,,2,3;1,2,3,4", "row 1, place 2"),
                          ("1,2,3,4;5,6,7,", "row 2, place 4")):
        code, obj = run_json(capsys, "derive", "--matrix", matrix)
        assert code == 2
        assert obj["error"] == \
            f"bad matrix entry '' at {where}: expected a,b,...;c,d,..."


# ------------------------------------------------------------ generate


def test_generate_square_terms(capsys):
    code, obj = run_json(capsys, "generate", "--matrix", SQUARE,
                         "--terms", "24")
    assert code == 0
    assert obj["status"] == "ok"
    assert obj["terms"][-1] == "261033"
    assert obj["terms"][:9] == ["1"] * 8 + ["2"]


def test_generate_from_recurrence_json(capsys):
    rec = {"pairs": [[0, 0], [4, -4], [3, -3]], "signs": [1, -1, 1]}
    code, obj = run_json(capsys, "generate", "--recurrence-json",
                         json.dumps(rec), "--terms", "24")
    assert code == 0
    assert obj["terms"][-1] == "261033"


def test_generate_unsolvable_exit_code(capsys):
    for pairs in ([[2, 0], [2, -2], [1, -1]], [[2, 2], [1, 1], [0, 0]]):
        code, obj = run_json(capsys, "generate", "--recurrence-json",
                             json.dumps({"pairs": pairs}), "--terms", "16")
        assert code == 5
        assert obj["error"].startswith("degenerate recurrence")


def test_generate_past_int_str_digit_limit(capsys):
    # the last of 600 terms has more digits than CPython's default limit
    # of 4300 for int <-> str; the CLI lifts it for the command only
    limit = sys.get_int_max_str_digits()
    code, obj = run_json(capsys, "generate", "--recurrence-json", SOMOS,
                         "--terms", "600")
    assert code == 0
    assert len(obj["terms"][-1]) == 5143
    assert sys.get_int_max_str_digits() == limit


def test_match_terms_past_int_str_digit_limit(capsys, tmp_path):
    big = "9" * 4400
    snapshot = tmp_path / "big.txt"
    snapshot.write_text(f"A000001 ,2,3,4,5,{big},\n")
    code, obj = run_json(capsys, "match", "--terms-list", f"2,3,4,5,{big}",
                         "--oeis", str(snapshot), "--min-match", "4")
    assert code == 0
    assert obj["matches"] == [{"a_number": "A000001", "position": 0}]


def test_generate_negative_init_equals_form(capsys):
    # "--init -1,..." would be read as an option; the "=" form is the way
    code, obj = run_json(capsys, "generate", "--matrix", SQUARE,
                         "--terms", "12", "--init=-1,1,1,1,1,1,1,1")
    assert code == 0
    assert obj["seed_window"] == ["-1"] + ["1"] * 7
    assert obj["terms"][:8] == obj["seed_window"]
    assert len(obj["terms"]) == 12


def test_generate_deterministic(capsys):
    _, out1, _ = run(capsys, "generate", "--matrix", HEX, "--terms", "28")
    _, out2, _ = run(capsys, "generate", "--matrix", HEX, "--terms", "28")
    assert out1 == out2


# ---------------------------------------------------------------- maya


def test_maya_roundtrip_via_two_invocations(capsys):
    code, obj = run_json(capsys, "maya", "--young", "4,2,2,1",
                         "--charge", "-1")
    assert code == 0
    code2, back = run_json(capsys, "maya", "--from-maya", json.dumps(obj))
    assert code2 == 0
    assert back == {"young": [4, 2, 2, 1], "charge": -1}


def test_maya_parse_error(capsys):
    code, _ = run_json(capsys, "maya", "--young", "2,x")
    assert code == 2


MAYA_C = CEILINGS["maya"]["charge"]


@pytest.mark.parametrize("maya", [
    '{"charge": %s, "added": [], "removed": []}' % ("9" * 19),
    '{"charge": %s, "added": [], "removed": []}' % ("9" * 5000),
    # a 5 000-digit position, which would print a 5 000-digit part
    '{"charge": 0, "added": ["%s/2"], "removed": ["-1/2"]}' % ("9" * 5001),
    '{"charge": 0, "added": ["%d/2"], "removed": ["-1/2"]}' % (2 * MAYA_C + 1),
    '{"charge": 0, "added": ["1/2"], "removed": ["%d/2"]}' % (-2 * MAYA_C - 1),
], ids=["charge-19-digits", "charge-5000-digits", "added-5001-digits",
        "added-past-ceiling", "removed-past-ceiling"])
def test_maya_json_past_ceiling_exits(capsys, maya):
    # --charge's ceiling holds a Maya JSON's charge and positions too
    code, obj = run_json(capsys, "maya", "--from-maya", maya)
    assert code == EXIT_PARSE
    assert obj == {"error": f"charge and positions must lie between "
                   f"{-MAYA_C} and {MAYA_C}, the ceiling of --charge"}


def test_maya_json_ignores_digits_outside_its_numbers(capsys):
    # a digit run in a string that is no position is not read, as the
    # key that holds it is not
    maya = ('{"charge": 0, "added": [], "removed": [], '
            '"note": "12345678901234567890"}')
    assert run_json(capsys, "maya", "--from-maya", maya) == (
        EXIT_OK, {"young": [], "charge": 0})


def test_maya_json_at_ceiling_prints_64_bit_ints(capsys):
    # the largest part, from the top position and the least charge, is
    # 2 MAYA_C - 1
    for maya, want in [
            ('{"charge": %d, "added": [], "removed": []}' % MAYA_C,
             {"young": [], "charge": MAYA_C}),
            ('{"charge": %d, "added": ["%d/2"], "removed": ["%d/2"]}'
             % (1 - MAYA_C, 2 * MAYA_C - 1, 1 - 2 * MAYA_C),
             {"young": [2 * MAYA_C - 1], "charge": 1 - MAYA_C})]:
        code, obj = run_json(capsys, "maya", "--from-maya", maya)
        assert (code, obj) == (EXIT_OK, want)
        assert all(abs(n) < 2 ** 63 for n in [obj["charge"], *obj["young"]])


# a --young part has at most as many digits as the charge ceiling
MAYA_PARTS, MAYA_DIGITS = CEILINGS["maya"]["parts"], len(str(MAYA_C))
# a million digits and an "x", which int() took 5.7-8.1 s to refuse
NOT_AN_INT = "9" * 1_000_000 + "x"


@pytest.mark.parametrize("line,error", [
    # 10^7 parts, which took 10.8 s and 847 MB without the parts ceiling
    ('from_maya = {"charge": 0, "added": ["1/2"], "removed": ["-19999999/2"]}',
     "the partition would have 10000000 parts, past the ceiling of "
     f"{MAYA_PARTS}"),
    # numbers of 200 000 digits, which int() and json.loads read in
    # quadratic time
    ("young = " + "9" * 200_000,
     f"a part has more than {MAYA_DIGITS} digits, the ceiling"),
    ('from_maya = {"charge": %s, "added": [], "removed": []}' % ("9" * 200_000),
     f"charge and positions must lie between {-MAYA_C} and {MAYA_C}, the "
     "ceiling of --charge"),
    ("young = " + ",".join(["1"] * (MAYA_PARTS + 1)),
     f"the partition would have {MAYA_PARTS + 1} parts, past the ceiling "
     f"of {MAYA_PARTS}"),
    # 10^6 digits in groups of three, which took 5.1 s to end in a 1.3 MB
    # "not a half-integer" error when int() read them
    ('from_maya = {"charge": 0, "added": ["1%s/2"], "removed": ["-1/2"]}'
     % ("_000" * 333_333),
     f"charge and positions must lie between {-MAYA_C} and {MAYA_C}, the "
     "ceiling of --charge"),
    ("young = 1," + NOT_AN_INT,
     f"invalid literal for int() with base 10: {NOT_AN_INT!r:.200}"),
], ids=["maya-10^7-parts", "young-200000-digits", "charge-200000-digits",
        "young-past-parts", "position-10^6-grouped-digits",
        "young-not-an-int"])
def test_maya_past_parts_or_digits_exits_promptly(capsys, tmp_path, line,
                                                   error):
    config = tmp_path / "maya.cfg"
    config.write_text(line + "\n")
    start = time.perf_counter()
    code, obj = run_json(capsys, "--config", str(config), "maya")
    assert time.perf_counter() - start < 1
    assert (code, obj) == (EXIT_PARSE, {"error": error})


def test_maya_parts_and_digits_ceilings_are_inclusive(capsys, monkeypatch):
    monkeypatch.setitem(CEILINGS["maya"], "parts", 3)
    part = "9" * MAYA_DIGITS
    for argv, want in [
            (["--young", f"{part},2,1"], EXIT_OK),
            (["--young", f"00{part},2,1"], EXIT_OK),  # leading zeros
            (["--young", f"1{part},2,1"], EXIT_PARSE),
            # 10^18: 19 digits once the separators are dropped
            (["--young", "1" + "_000" * 6 + ",2,1"], EXIT_OK),
            (["--young", "4,3,2,1"], EXIT_PARSE),
            (["--from-maya", '{"charge": 0, "added": ["1/2"], '
              '"removed": ["-5/2"]}'], EXIT_OK),  # parts 1, 1, 1
            (["--from-maya", '{"charge": 0, "added": ["1/2"], '
              '"removed": ["-7/2"]}'], EXIT_PARSE)]:
        assert run_json(capsys, "maya", *argv)[0] == want, argv


# -------------------------------------------------------------- verify


def test_verify_octahedron_small(capsys):
    code, obj = run_json(capsys, "verify", "octahedron", "--trials", "3",
                         "--seed", "7")
    assert code == 0
    assert obj["failures"] == 0
    assert obj["trials"] == 3


def test_verify_global_seed_flows_to_subcommand(capsys):
    _, obj1 = run_json(capsys, "--seed", "11", "verify", "plucker",
                       "--trials", "2")
    _, obj2 = run_json(capsys, "verify", "plucker", "--trials", "2",
                       "--seed", "11")
    assert obj1 == obj2


def test_verify_states(capsys):
    code, obj = run_json(capsys, "verify", "states")
    assert code == 0
    assert obj["trials"] == len(obj["partitions"]) == 30
    assert obj["failures"] == 0


def test_verify_plucker4_verdict(capsys):
    code, obj = run_json(capsys, "verify", "plucker4", "--trials", "5",
                         "--seed", "1")
    assert code == 0
    assert obj["verdict"] == \
        "symmetric reading holds; verbatim printed form fails"


def test_verify_kp_small(capsys):
    code, obj = run_json(capsys, "verify", "kp", "--max-weight", "3")
    assert code == 0
    assert obj["failures"] == 0


def test_verify_kp_takes_variables_from_max_weight(capsys):
    # weight 9 needs t_1..t_9, one more than kp's default of 8 variables
    code, obj = run_json(capsys, "verify", "kp", "--max-weight", "9")
    assert code == 0
    assert (obj["trials"], obj["failures"]) == (97, 0)


def test_verify_octahedron_smallest_cutoff(capsys):
    # cutoff 3 leaves headroom |n_c| <= 1 for every drawn base point
    code, obj = run_json(capsys, "verify", "octahedron", "--trials", "2",
                         "--cutoff", "3")
    assert code == 0
    assert (obj["trials"], obj["failures"]) == (2, 0)


def test_verify_permutation_smallest_cutoff(capsys):
    # cutoff 3 leaves the six base points that permute (-1, -1, 0, 0)
    code, obj = run_json(capsys, "verify", "permutation", "--trials", "2",
                         "--cutoff", "3")
    assert code == 0
    assert (obj["trials"], obj["failures"]) == (2, 0)


# ------------------------------------------------------------- match/scan


def test_match_fixture(capsys):
    terms = "1,1,1,1,1,1,1,1,2,3,4,5,9,18,34,93,180,348,724,3033"
    code, obj = run_json(capsys, "match", "--terms-list", terms)
    assert code == 0
    assert {"a_number": "A018896", "position": 8} in obj["matches"]


def test_match_negative_terms_equals_form(capsys):
    # the tail alone is in A018896; with the leading -1 it is in no entry
    tail = "2,3,4,5,9,18,34,93,180,348"
    code, obj = run_json(capsys, "match", "--terms-list=" + tail)
    assert code == 0
    assert {"a_number": "A018896", "position": 8} in obj["matches"]
    code, obj = run_json(capsys, "match", "--terms-list=-1," + tail)
    assert code == 0
    assert obj["matches"] == []


def test_match_online_failure_is_advisory(capsys, monkeypatch):
    def offline(terms, endpoint):
        raise oeis.OeisError("network failure: offline")

    monkeypatch.setattr(oeis, "search_online", offline)
    code, obj = run_json(capsys, "match", "--terms-list",
                         "2,3,4,5,9,18,34,93,180,348", "--online")
    assert code == 0
    assert {"a_number": "A018896", "position": 8} in obj["matches"]
    assert obj["online_error"] == "network failure: offline"


@pytest.mark.parametrize("body", MALFORMED_PAYLOADS.values(),
                         ids=MALFORMED_PAYLOADS.keys())
def test_match_online_malformed_payload_is_advisory(capsys, monkeypatch,
                                                    body):
    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda *a, **k: FakeResponse(body=body))
    code, obj = run_json(capsys, "match", "--terms-list",
                         "2,3,4,5,9,18,34,93,180,348", "--online")
    assert code == 0
    assert {"a_number": "A018896", "position": 8} in obj["matches"]
    assert obj["online_error"].startswith("malformed search payload: ")


@pytest.mark.parametrize("argv", [
    ["match", "--terms-list", "1,2,3,5,8,13,21,34,55,89", "--min-match", "8"],
    ["scan", "--bound", "1", "--terms", "16"],
], ids=lambda argv: argv[0])
def test_skipped_malformed_lines_reported_on_stderr(capsys, tmp_path, argv):
    dirty, clean = tmp_path / "dirty.txt", tmp_path / "clean.txt"
    dirty.write_text(SAMPLE)
    clean.write_text("".join(line for line in SAMPLE.splitlines(True)
                             if line.startswith(("A000045", "A000290"))))
    code, out, err = run(capsys, *argv, "--oeis", str(dirty))
    want_code, want_out, want_err = run(capsys, *argv, "--oeis", str(clean))
    assert code == want_code == 0
    assert out == want_out
    assert err == "oeis: skipped 4 malformed lines (first: line 5)\n" \
        + want_err
    assert "oeis:" not in want_err


def test_byte_not_utf8_skips_its_line(capsys, tmp_path):
    dirty = tmp_path / "dirty.txt"
    dirty.write_bytes(b"A000045 ,0,1,1,2,3,5,8,13,21,34,55,89,144,\n"
                      b"A000290 ,0,1,4,\xff9,16,\n")
    code, out, err = run(capsys, "match", "--terms-list",
                         "1,2,3,5,8,13,21,34,55,89", "--min-match", "8",
                         "--oeis", str(dirty))
    assert code == 0
    assert [hit["a_number"] for hit in json.loads(out)["matches"]] == \
        ["A000045"]
    assert err == "oeis: skipped 1 malformed line (first: line 2)\n"


def test_match_too_short_exit_code(capsys):
    code, _ = run_json(capsys, "match", "--terms-list", "1,1,1,1,2,3")
    assert code == 2


def test_scan_bound_one(capsys):
    code, out, err = run(capsys, "scan", "--bound", "1", "--terms", "16")
    assert code == 0
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["total"] == 6
    for line in out.splitlines():
        json.loads(line)


def test_scan_output_files(capsys, tmp_path):
    out_path = tmp_path / "scan.jsonl"
    code, out, _ = run(capsys, "scan", "--bound", "2", "--terms", "16",
                       "--output", str(out_path))
    assert code == 0
    assert out_path.read_text() == out
    summary = json.loads((tmp_path / "scan.jsonl.summary.json").read_text())
    assert summary["total"] > 0


def test_scan_output_file_is_stdout_serialised_once(capsys, tmp_path,
                                                    monkeypatch):
    # each record is turned into JSON once, and the --output file holds
    # exactly the bytes printed on stdout
    lines = []  # the records serialised, by scan.jsonl_line
    line = scan.jsonl_line

    def counting_line(record):
        lines.append(record)
        return line(record)

    monkeypatch.setattr(scan, "jsonl_line", counting_line)
    out_path = tmp_path / "scan.jsonl"
    code, out, _ = run(capsys, "scan", "--bound", "2", "--terms", "16",
                       "--output", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == out.encode("utf-8")
    records = out.splitlines()
    assert records
    assert len(lines) == len(records)


@pytest.mark.parametrize("output", ["outd/", "outd", "missing/scan.jsonl",
                                    "clash"],
                         ids=["directory/", "directory", "missing parent",
                              "summary path a directory"])
def test_scan_output_that_cannot_be_written_leaves_no_file(
        capsys, tmp_path, monkeypatch, output):
    # both paths are opened before the walk, so no scan runs, and the file
    # opened before the one that failed is removed again
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outd").mkdir()
    (tmp_path / "clash.summary.json").mkdir()
    before = sorted(tmp_path.rglob("*"))

    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before its output was opened")

    monkeypatch.setattr(scan, "run_scan", no_scan)
    code, out, err = run(capsys, "scan", "--bound", "1", "--output", output)
    assert code == 2
    assert "error" in json.loads(out)  # the only document on stdout
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_scan_removes_only_the_files_it_created(capsys, tmp_path,
                                                       monkeypatch):
    # an --output file that was there before keeps its bytes; the summary
    # file the run created is removed
    out_path = tmp_path / "scan.jsonl"
    out_path.write_text("old records\n")

    def failing_scan(*args, **kwargs):
        raise ValueError("scan failed")

    monkeypatch.setattr(scan, "run_scan", failing_scan)
    code, out, _ = run(capsys, "scan", "--bound", "1", "--output",
                       str(out_path))
    assert code == 2
    assert json.loads(out) == {"error": "scan failed"}
    assert list(tmp_path.iterdir()) == [out_path]
    assert out_path.read_text() == "old records\n"


# ------------------------------------------------------ error handling


@pytest.mark.parametrize("argv", [
    ["derive"],
    ["generate", "--terms", "5"],
    ["generate", "--recurrence-json", "{}"],
    ["generate", "--recurrence-json", "[1]"],
    ["generate", "--recurrence-json", '{"pairs": [1,2,3]}'],
    ["generate", "--recurrence-json", '{"pairs": [[0.9,0],[4,-4],[3,-3]]}'],
    ["generate", "--recurrence-json", '{"pairs": [[true,0],[4,-4],[3,-3]]}'],
    ["generate", "--recurrence-json", '{"pairs": [["0",0],[4,-4],[3,-3]]}'],
    ["generate", "--recurrence-json",
     '{"pairs": [[0,0],[4,-4],[3,-3]], "signs": [true, -1, 1]}'],
    ["generate", "--recurrence-json",
     '{"pairs": [[0,0],[4,-4],[3,-3]], "signs": [1, -1.0, 1]}'],
    ["generate", "--recurrence-json",
     '{"pairs": [[0,0],[4,-4],[3,-3]], "signs": [1, -1, "1"]}'],
    ["maya", "--from-maya", "[1]"],
    ["maya", "--from-maya", '{"charge": 0}'],
    ["maya", "--from-maya", '{"charge": 1e999, "added": [], "removed": []}'],
    ["maya", "--from-maya", '{"charge": 0.5, "added": [], "removed": []}'],
    ["maya", "--from-maya", '{"charge": true, "added": [], "removed": []}'],
    ["match", "--terms-list", "2,3,4,5,9,18,34,93,180,348",
     "--oeis", "TRUNCATED"],
    ["scan", "--bound", "1", "--oeis", "TRUNCATED"],
    ["scan", "--bound", "1", "--output", "MISSING"],
    ["scan", "--bound", "0", "--min-match", "3"],
    ["verify", "octahedron", "--cutoff", "0"],
    ["verify", "octahedron", "--cutoff", "2", "--trials", "0"],
    ["verify", "octahedron", "--cutoff", "2", "--trials", "1"],
    ["verify", "states", "--max-weight", "-1"],
    ["verify", "permutation", "--cutoff", "0"],
    ["verify", "permutation", "--cutoff", "2"],
    ["verify", "plucker", "--dim", "0"],
    ["verify", "plucker4", "--dim", "0"],
    ["verify", "plucker", "--trials", "0", "--dim", "5"],
    ["verify", "plucker4", "--trials", "0", "--dim", "5"],
    ["verify", "plucker", "--trials", "-5"],
    ["verify", "kp", "--trials", "-1"],
    ["verify", "kp", "--max-weight", "-1"],
], ids=lambda argv: " ".join(argv))
def test_malformed_input_is_usage_error(capsys, tmp_path, argv):
    truncated = tmp_path / "truncated.gz"
    truncated.write_bytes(b"\x1f\x8b\x08\x00abc")
    paths = {"TRUNCATED": str(truncated),
             "MISSING": str(tmp_path / "missing" / "x")}
    argv = [paths.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "error" in json.loads(out)  # the only document on stdout
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["generate", "--init", "", "--matrix", SQUARE],
    ["maya", "--from-maya", ""],
    ["generate", "--recurrence-json", "", "--matrix", SQUARE],
    ["derive", "--matrix", "", "--polygon", "0,0 1,0 4,1 1,3"],
    ["match", "--terms-list", "2,3,4,5,9,18,34,93,180,348", "--oeis", ""],
    ["scan", "--bound", "1", "--oeis", ""],
    ["scan", "--bound", "1", "--output", ""],
], ids=lambda argv: f"{argv[0]} {argv[argv.index('') - 1]}")
def test_empty_option_value_is_usage_error(capsys, tmp_path, monkeypatch,
                                           argv):
    # an empty value is a value: it is not the option left out, and scan
    # writes no file (".summary.json") before it fails
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "error" in json.loads(out)  # the only document on stdout
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["generate", "--recurrence-json"],
                                  ["maya", "--from-maya"]],
                         ids=lambda argv: argv[0])
def test_deeply_nested_json_argument_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "[" * 100_000)
    assert code == 2
    assert json.loads(out) == {"error": "JSON argument nested too deeply"}
    assert "Traceback" not in err


def test_exit_code_names_are_exception_types():
    # each "module.Name" in EXIT_CODES is an exception type of that module
    # of tauseq, and no row names a subclass of a type in an earlier row,
    # which would win over it
    def resolve(kind):
        if isinstance(kind, type):
            return kind
        module, _, name = kind.partition(".")
        return getattr(importlib.import_module(f"tauseq.{module}"), name)

    rows = [[resolve(kind) for kind in kinds] for kinds, _ in EXIT_CODES]
    assert all(issubclass(kind, Exception) for row in rows for kind in row)
    assert not any(issubclass(later, kind)
                   for i, row in enumerate(rows) for kind in row
                   for below in rows[i + 1:] for later in below)


# one run for each exit code reachable offline, each in a fresh
# interpreter: in-process runs have every module of tauseq loaded already,
# so they cannot see a handler, or a _fail lookup, whose deferred import
# is missing
COLD_START = [
    (["generate", "--matrix", SQUARE, "--terms", "24"], EXIT_OK),
    (["scan", "--bound", "x"], EXIT_PARSE),
    (["match", "--terms-list", "1,2,3"], EXIT_PARSE),  # oeis.QueryTooShort
    (["generate", "--matrix", SQUARE, "--terms", "1001"], EXIT_PARSE),
    (["derive", "--matrix", "2,-2,0,0;0,0,1,-1"], 3),
    (["derive", "--matrix", "1,-1,0;0,1,-1"], 4),
    (["generate", "--recurrence-json", '{"pairs": [[2,0],[2,-2],[1,-1]]}',
      "--terms", "16"], 5),
]


@pytest.mark.parametrize("argv,code", COLD_START,
                         ids=[" ".join(argv)[:40] for argv, _ in COLD_START])
def test_cold_start_exit_codes(tmp_path, argv, code):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    child = subprocess.run([sys.executable, "-m", "tauseq.cli", *argv],
                           cwd=tmp_path, env=env, capture_output=True,
                           text=True, timeout=60)
    assert child.returncode == code, child.stderr
    assert type(json.loads(child.stdout)) is dict
    assert "Traceback" not in child.stderr


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(**options):
        raise RuntimeError("boom")

    monkeypatch.setitem(verify.ORACLES, "kp", broken)
    code, out, err = run(capsys, "verify", "kp")
    assert code == 70
    assert json.loads(out)["error"].startswith("internal error")
    assert "Traceback" in err and "RuntimeError: boom" in err


# The text drawn for each option, by dest: mostly valid, and small enough
# that one run takes milliseconds (scan bound <= 3, trials <= 3, max weight
# <= 4, cutoff <= 5, terms <= 64, one worker), or past its ceiling in
# every subcommand, which exits with 2 before any work.  Paths are relative
# to the run's own directory, which holds "snapshot.txt" and nothing else.
# The options whose defaults cost more than that are always drawn.
ALWAYS_DRAWN = {"trials", "max_weight"}


def or_past_ceiling(option: str,
                    text: st.SearchStrategy) -> st.SearchStrategy:
    """text, or one draw in eight a value past the option's every ceiling,
    positive or negative: one more than the largest in absolute value, or
    one of 4 300 or more digits, at and past CPython's default limit on int
    text."""
    top = max(ceilings.get(option, 0) for ceilings in CEILINGS.values())
    over = st.sampled_from([sign + digits for sign in ("", "-")
                            for digits in (str(top + 1), "9" * 4300,
                                           "1" + "0" * 5000)])
    return st.integers(0, 7).flatmap(lambda i: over if i == 0 else text)


OPTION_TEXT = {
    "global_seed": or_past_ceiling("seed",
                                   st.integers(-5, 2 ** 40).map(str)),
    "young": st.sampled_from(["", "4,2,2,1", "1", "3,3", "1,2", "x"]),
    "charge": or_past_ceiling("charge", st.integers(-4, 4).map(str)),
    "from_maya": st.sampled_from([
        '{"charge": 1, "added": ["5/2"], "removed": ["-1/2"]}',
        '{"charge": 0, "added": [], "removed": []}', "[1]", "{}", "null",
        ""]),
    "matrix": st.sampled_from([SQUARE, HEX, "2,-2,0,0;0,0,1,-1",
                               "1,-1,0;0,1,-1", "1,1,-1,-1;2,2,-2,-2",
                               "1,x;2,3", ""]),
    "polygon": st.sampled_from(["0,0 1,0 4,1 1,3", "0,0 5,1 3,2 1,1",
                                "0,0 2,0 0,1 1,-1 2,1", "0,0 1,0", "x", ""]),
    "recurrence_json": st.sampled_from([
        SOMOS, '{"pairs": [[0,0],[3,-3],[2,-2]]}',
        '{"pairs": [[2,2],[1,1],[0,0]]}', "{}", "[1]", ""]),
    "terms": or_past_ceiling("terms", st.integers(-2, 64).map(str)),
    "init": st.sampled_from(["1,1,1,1,1,1,1,1", "2,1,1,1,1,1,1,1", "1,1",
                             "0,0,0,0,0,0,0,0", "x", ""]),
    "trials": or_past_ceiling("trials", st.integers(-1, 3).map(str)),
    "seed": or_past_ceiling("seed", st.integers(-5, 2 ** 40).map(str)),
    "cutoff": or_past_ceiling("cutoff", st.integers(-1, 5).map(str)),
    "dim": or_past_ceiling("dim", st.integers(0, 10).map(str)),
    "max_weight": or_past_ceiling("max_weight", st.integers(-1, 4).map(str)),
    "bound": or_past_ceiling("bound", st.integers(-1, 3).map(str)),
    "min_match": or_past_ceiling("min_match", st.integers(0, 8).map(str)),
    "oeis": st.sampled_from(["snapshot.txt"] * 3 + ["missing.txt", ".", ""]),
    "output": st.sampled_from(["out.jsonl"] * 3
                              + ["missing/out.jsonl", ".", ""]),
    "workers": st.just("1"),
    "terms_list": st.sampled_from(["2,3,4,5,9,18,34,93,180,348",
                                   "1,1,1,2,3,4,5,9,18,34,93", "1,2,3",
                                   "x", ""]),
}


def _options(draw, parser: argparse.ArgumentParser) -> list[str]:
    """The positionals of a parser and a subset of its options, the
    required ones and ALWAYS_DRAWN always, each with a value drawn from
    OPTION_TEXT."""
    argv = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction,
                               argparse._SubParsersAction)):
            continue
        if not action.option_strings:
            argv.append(draw(st.sampled_from(sorted(action.choices))))
        elif (action.required or action.dest in ALWAYS_DRAWN
              or draw(st.booleans())):
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                argv.append(draw(OPTION_TEXT[action.dest]))
    return argv


@st.composite
def cli_argv(draw) -> list[str]:
    # main builds the parser of the subcommand it finds in argv alone
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    parser = build_parser(command)
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return [*_options(draw, parser), command,
            *_options(draw, sub.choices[command])]


def _offline(terms, endpoint):
    raise oeis.OeisError("network failure: offline")


def is_past_ceiling(argv: list[str]) -> bool:
    """Whether argv gives a numeric option a value past its ceiling in
    absolute value: a global option before the subcommand, or one of the
    subcommand after it."""
    at = next(i for i, arg in enumerate(argv) if arg in SUBCOMMANDS)
    scopes = ((argv[:at], CEILINGS["tauseq"]),
              (argv[at:], CEILINGS.get(argv[at], {})))
    with exact_int_str():
        return any(part[i] == "--" + option.replace("_", "-")
                   and abs(int(part[i + 1])) > ceiling
                   for part, ceilings in scopes
                   for i in range(len(part) - 1)
                   for option, ceiling in ceilings.items())


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_exit_code_contract(argv):
    # every exit code is a documented one, never the internal error; stdout
    # is one JSON document, a usage error's too (a scan's records are JSON
    # Lines); no traceback reaches stderr; a run that fails leaves its
    # directory as it found it; and a value past its ceiling exits with 2
    # within a second
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            patch.object(oeis, "search_online", _offline):
        Path(tmp, "snapshot.txt").write_text(SAMPLE)
        before = sorted(Path(tmp).rglob("*"))
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter()
                code = main(argv)
                elapsed = time.perf_counter() - start
        finally:
            os.chdir(cwd)
        after = sorted(Path(tmp).rglob("*"))
    codes = {EXIT_OK, EXIT_VERIFY_FAIL, *(code for _, code in EXIT_CODES)}
    assert code in codes and code != EXIT_INTERNAL, err.getvalue()
    if is_past_ceiling(argv):
        assert code == EXIT_PARSE and elapsed < 1, (code, elapsed)
    assert "Traceback" not in err.getvalue()
    if out.getvalue() and "scan" in argv and code == EXIT_OK:
        assert all(type(json.loads(line)) is dict
                   for line in out.getvalue().splitlines())
    elif out.getvalue() or code != EXIT_OK:
        assert type(json.loads(out.getvalue())) is dict
    if code != EXIT_OK:
        assert after == before


# what each subcommand needs besides the option under test (the last
# --bound given wins); a global option comes before the subcommand
NEEDS = {"tauseq": ["maya"], "maya": [], "generate": ["--matrix", SQUARE],
         "verify": ["permutation"],
         "scan": ["--bound", "1", "--output", "out.jsonl"],
         "match": ["--terms-list", "1,2,3,4"]}


def past_ceiling(command: str, option: str, value: int) -> list[str]:
    flag = ["--" + option.replace("_", "-"), str(value)]
    if command == "tauseq":
        return [*flag, *NEEDS[command]]
    return [command, *NEEDS[command], *flag]


# the ceiling that no option has: maya's bound on the parts --young and
# --from-maya hold, which test_maya_past_parts_or_digits_exits_promptly
# and test_maya_parts_and_digits_ceilings_are_inclusive test
NOT_OPTIONS = {("maya", "parts")}

PAST_CEILING = [
    ["generate", "--matrix", SQUARE, "--terms", "100000000000000000000"],
    ["verify", "plucker", "--trials", "100000000000"],
    ["scan", "--output", "out.jsonl", "--bound", "100000"],
    ["scan", "--bound", "1", "--terms", "9" * 4300],
    ["scan", "--bound", "1", "--terms", "-" + "9" * 4300],
    ["maya", "--charge", "9" * 5000],
    ["--seed", "9" * 5000, "verify", "plucker", "--trials", "1"],
    *(past_ceiling(command, option, sign * (ceiling + 1))
      for command, ceilings in CEILINGS.items()
      for option, ceiling in ceilings.items()
      if (command, option) not in NOT_OPTIONS
      for sign in (1, -1)),
]


@pytest.mark.parametrize("argv", PAST_CEILING,
                         ids=lambda argv: " ".join(argv)[:48])
def test_value_past_ceiling_exits_promptly(capsys, tmp_path, monkeypatch,
                                           argv):
    # the error names the ceiling, and scan writes no file
    monkeypatch.chdir(tmp_path)
    command, flag, value = ((argv[0], *argv[-2:]) if argv[0] in CEILINGS
                            else ("tauseq", *argv[:2]))
    ceiling = CEILINGS[command][flag[2:].replace("-", "_")]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == EXIT_PARSE
    assert json.loads(out) == {"error": f"argument {flag}: " + (
        f"must be >= {-ceiling}, minus its ceiling" if value[0] == "-"
        else f"must be <= {ceiling}, its ceiling")}
    assert list(tmp_path.iterdir()) == []


# a subcommand that reads each key, and what else it needs
READS_KEY = {"bound": ["scan"], "terms": ["scan", "--bound", "1"],
             "min_match": ["scan", "--bound", "1"], "seed": ["maya"],
             **dict.fromkeys(["trials", "cutoff", "dim", "max_weight"],
                             ["verify", "permutation"]),
             "charge": ["maya"], "init": ["generate", "--matrix", SQUARE],
             "terms_list": ["match"], "matrix": ["generate"],
             "polygon": ["derive"]}
# where the text goes: the last matrix entry and the last coordinate
NOT_AN_INT_VALUE = {"matrix": "5,-2,-2,-1;1,1,-1," + NOT_AN_INT,
                    "polygon": "0,0 1,0 4,1 1," + NOT_AN_INT}


@pytest.mark.parametrize("key, value", [
    *(pytest.param("bound", value, id=value)
      for value in ["15", "9" * 1_000_000, "1_" + "0" * 1_000_000,
                    "-" + "9" * 1_000_000]),
    pytest.param("workers", "9" * 1_000_000, id="workers"),
    *(pytest.param(key, NOT_AN_INT_VALUE.get(key, NOT_AN_INT),
                   id=f"{key}-not-an-int") for key in READS_KEY)])
def test_config_value_past_ceiling_exits(capsys, tmp_path, key, value):
    # a million digits, past the command line's length limit, are judged
    # by their count, not parsed, also with an underscore or a minus; a
    # text that is no int is refused in linear time, and echoed cut to
    # 200 characters, as int() cuts it
    config = tmp_path / "tauseq.conf"
    config.write_text(f"{key} = {value}\n")
    argv = READS_KEY.get(key, ["scan", "--json"])
    start = time.perf_counter()
    code, out, _ = run(capsys, "--config", str(config), *argv)
    assert time.perf_counter() - start < 1
    assert code == EXIT_PARSE and len(out.encode()) < 300
    flag = "argument --" + key.replace("_", "-")
    if value.endswith("x"):
        want = (f"invalid literal for int() with base 10: {NOT_AN_INT!r:.200}"
                if key in ("init", "terms_list", "matrix", "polygon")
                else f"{flag}: invalid int value: {NOT_AN_INT!r:.200}")
    elif key == "workers":
        want = (f"{flag}: expected 1 to {os.cpu_count() or 1} (the CPU "
                f"count), got {value!r:.200}")
    else:
        want = flag + (": must be >= -14, minus its ceiling"
                       if value[0] == "-" else ": must be <= 14, its ceiling")
    assert json.loads(out) == {"error": want}


def test_unused_verify_option_is_ignored(capsys):
    _, plain = run_json(capsys, "verify", "plucker", "--trials", "2")
    code, obj = run_json(capsys, "verify", "plucker", "--trials", "2",
                         "--cutoff", "9")
    assert code == 0
    assert obj == plain


def test_verify_zero_trials_is_empty_run(capsys):
    code, obj = run_json(capsys, "verify", "plucker", "--trials", "0")
    assert code == 0
    assert (obj["trials"], obj["failures"]) == (0, 0)


# (exit code, stdout) of each command, pinned by sha256
TRANSCRIPT = [
    (["derive", "--matrix", SQUARE],
     "123584203d701e298683959ec3f1ad266a12135f61b7f8ef684e4d4dd2e6c026"),
    (["derive", "--polygon", "0,0 1,0 4,1 1,3"],
     "7f2aab6342e484da73ff4ce4fe946dc3105f630a3adf7b9196b81ae6e90d207c"),
    (["derive", "--matrix", HEX],
     "7f2aab6342e484da73ff4ce4fe946dc3105f630a3adf7b9196b81ae6e90d207c"),
    (["derive", "--matrix", "2,-2,0,0;0,0,1,-1"],
     "42a1b57647cfa6de460b79cda907ca25ffbe7e90f700fd6e99db941795def086"),
    (["derive", "--matrix", "1,-1,0,0,0;0,0,1,0,-1"],
     "06b7b3a4c1a06bd6d73f57cf15094a6c82eb2529e224585a764bd4e40751322f"),
    (["derive", "--matrix", "1,x;2,3"],
     "8f15c26f9600280457b02f15aabadffe36c8e098c54f545eda5036eb1c95d886"),
    (["derive", "--matrix", "1,1,-1,-1;2,2,-2,-2"],
     "08fcb1ce838c6fffe60a602ac44075740e209a2643ce414999c3b1d303aa291c"),
    (["derive", "--polygon", "0,0 1,0 0,1 1,1"],
     "260b1f3e737f6977c542e48a969c67f8e131dbd64739545d1fce5797b8383500"),
    (["generate", "--matrix", SQUARE, "--terms", "24"],
     "61e29cb91b55a2d4dcce96db4112118b912b20ad0d0b3eac535e2e503fe37838"),
    (["generate", "--polygon", "0,0 1,0 4,1 1,3", "--terms", "28"],
     "75e67dc95b72adf36016b448acf314ec9d407360f4e743cf86528ee5b83bed31"),
    (["generate", "--recurrence-json", SOMOS, "--terms", "24"],
     "61e29cb91b55a2d4dcce96db4112118b912b20ad0d0b3eac535e2e503fe37838"),
    (["generate", "--matrix", SQUARE, "--terms", "12",
      "--init=-1,1,1,1,1,1,1,1"],
     "42d817356f2672d848b177d5b0462094b2ea0beeea6b4f9474415ab5c91891a1"),
    (["generate", "--recurrence-json", '{"pairs": [[2,0],[2,-2],[1,-1]]}',
      "--terms", "16"],
     "f9c87f7d696a914f2ddbc57783ecab897d045621f30894eef6e6239195b6b74a"),
    (["generate", "--matrix", "2,-2,0,0;0,0,1,-1"],
     "42a1b57647cfa6de460b79cda907ca25ffbe7e90f700fd6e99db941795def086"),
    (["generate", "--matrix", "1,1,-1,-1;2,2,-2,-2"],
     "08fcb1ce838c6fffe60a602ac44075740e209a2643ce414999c3b1d303aa291c"),
    (["generate", "--matrix", SQUARE, "--init", "1,2"],
     "390fe779361006dc48eb82ffdacc917473d0d01eefa79799a9d493b8de65c8ef"),
    (["generate", "--recurrence-json", SOMOS, "--terms", "20",
      "--init", "2,1,1,1,1,1,1,3"],
     "47b04041a77f67af414b973d4f75600ab5de9c03949012bc7a82597ace653a7a"),
    (["maya", "--young", "4,2,2,1", "--charge", "-1"],
     "73f9acbc83a42a1bf4fabef9f437bd7cd4250ab0157f5f66603eb26a747b4077"),
    (["maya", "--from-maya", '{"added": ["7/2", "1/2"], "charge": -1, '
      '"removed": ["-5/2", "-7/2"]}'],
     "40c032a36a52b5096e07e9a1836b9411e11b80bc5443c563f51f7e8da343939b"),
    (["maya", "--young", "2,x"],
     "8f15c26f9600280457b02f15aabadffe36c8e098c54f545eda5036eb1c95d886"),
    (["maya", "--young", "", "--charge", "3"],
     "005bd80432be35c20c4d5488fbbe9e2e89a4976a5e877c10300bfa5177d330d6"),
    (["maya", "--from-maya", '{"charge": 0}'],
     "9c3c4bb96ac0c07698cc82fbdb908eb918a4e1610b0f2a8a5613f9c6e71b6ebd"),
    (["verify", "octahedron", "--trials", "3", "--seed", "7"],
     "bd8e468ccab9fc92f6082afb872b3d1bed61d82c5b0d2596c561914501aecf4a"),
    (["verify", "plucker", "--trials", "3"],
     "39b645717283aa497a5d7d694b0328f6ba8cc902874ccb91890de942a7ed5cc2"),
    (["verify", "plucker4", "--trials", "3", "--seed", "1"],
     "1181eaf718d4b4b637cde215b480ee665c8a613bea3eb51ff17a87cd568a864f"),
    (["verify", "states"],
     "3c82ca34828928e3d9074cc6962b1e6a104aaf5e4d07cfd7fd417c4ab1b01301"),
    (["verify", "states", "--max-weight", "8"],
     "1f319de866a38e93d0ba942d1cf9a33a992b81ebb12189bdf4357a2ff243e09c"),
    (["verify", "kp", "--max-weight", "3"],
     "839ffe5ad73e9efd80ab2449835b559a597216a400f85ad6251e8935e4299e67"),
    (["verify", "permutation", "--trials", "1", "--seed", "2"],
     "3d5fb3277361c2e66d415ad652a23a2f1f62d63c2edb18733ad23ba69c1d6c68"),
    (["verify", "plucker", "--cutoff", "9", "--trials", "2"],
     "dccf88b220d783cfe29374cb92ccce29c92b18998bfbe0d91dbff22ffe05a6c9"),
    (["verify", "states", "--cutoff", "2"],
     "3c82ca34828928e3d9074cc6962b1e6a104aaf5e4d07cfd7fd417c4ab1b01301"),
    (["match", "--terms-list",
      "1,1,1,1,1,1,1,1,2,3,4,5,9,18,34,93,180,348,724,3033"],
     "9de77c1b2f1ae7c0fe8d25ee9684e7c7278bab7ed3c48868af9b7bcf1a55e14b"),
    (["match", "--terms-list=2,3,4,5,9,18,34,93,180,348"],
     "9de77c1b2f1ae7c0fe8d25ee9684e7c7278bab7ed3c48868af9b7bcf1a55e14b"),
    (["match", "--terms-list=-1,2,3,4,5,9,18,34,93,180,348"],
     "01ae780eef92e6c84ef4dc9c9b752b7280a6188cc25a1323530d1664b736ba13"),
    (["match", "--terms-list", "1,1,1,1,2,3"],
     "2ed082509ac09750e09ce800c7b6458e771c2652334bb1b4a1c2b31c1c3f9840"),
    (["match", "--terms-list", "1,x"],
     "8f15c26f9600280457b02f15aabadffe36c8e098c54f545eda5036eb1c95d886"),
    (["--json", "derive", "--matrix", SQUARE],
     "4749269a757a537e0bde6f276ef52a92cc6de389b03b8b9d46c1171751a7188d"),
    (["--json", "--seed", "11", "verify", "plucker", "--trials", "2"],
     "b94c7b754a30efc24fd0a70b2360bbf53479c6a83f544a9c2a0e9f35d3dc6633"),
    (["scan", "--bound", "x"],
     "ec462549def84d2de53ee82ea305c68dc8f54c128c98b7a05a1dc088eff1eb95"),
    (["verify", "nosuch"],
     "746957877bcab3142366f573350aa02a71bda83e97682dfe4e737ca798beca0f"),
    (["nosuch"],
     "4282efd9f27ddd2ce0fdfc91318feed1fcbdfeb74a35c338ddd41194a3aae4d9"),
]


def test_golden_transcript(capsys):
    changed = []
    for argv, digest in TRANSCRIPT:
        code, out, _ = run(capsys, *argv)
        if hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() != digest:
            changed.append((argv, code, out[:200]))
    assert changed == []


def test_invalid_choice_text_does_not_follow_argparse(capsys, monkeypatch):
    # argparse on CPython 3.13.13 lists the choices of an invalid subcommand
    # or oracle unquoted; the parser's own check keeps the transcript's text
    def unquoted(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(
                action, "invalid choice: %r (choose from %s)" % (
                    value, ", ".join(action.choices)))

    monkeypatch.setattr(argparse.ArgumentParser, "_check_value", unquoted)
    for argv, digest in TRANSCRIPT:
        if "nosuch" in argv:
            code, out, _ = run(capsys, *argv)
            assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() \
                == digest, argv


# feeds the argv lists on stdin to main, one digest of (code, stdout) a line
TRANSCRIPT_CHILD = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
from tauseq.cli import main
for argv in json.load(sys.stdin):
    with redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    print(hashlib.sha256(f"{code}\\n{out.getvalue()}".encode()).hexdigest())
"""


def newer_interpreters() -> list[str]:
    """Each python3.N on PATH, N >= 12, that starts and is that new; pytest
    runs on one interpreter, and the package claims every CPython >= 3.11."""
    probe = "import sys; sys.exit(sys.version_info < (3, 12))"
    found = []
    for name in (f"python3.{minor}" for minor in range(12, 30)):
        exe = shutil.which(name)
        if exe and subprocess.run([exe, "-c", probe],
                                  capture_output=True).returncode == 0:
            found.append(exe)
    return found


def test_golden_transcript_on_newer_interpreters(tmp_path, monkeypatch,
                                                  capsys):
    pythons = newer_interpreters()
    if not pythons:
        pytest.skip("no CPython >= 3.12 starts here")
    # and one --config run, whose reader uses argparse internals, against
    # its result on this interpreter
    (tmp_path / "gen.cfg").write_text("terms = 12\njson = true\n")
    config_argv = ["--config", "gen.cfg", "generate", "--matrix", SQUARE]
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *config_argv)
    assert code == 0 and len(json.loads(out)["terms"]) == 12
    golden = [*TRANSCRIPT, (config_argv, hashlib.sha256(
        f"{code}\n{out}".encode()).hexdigest())]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for exe in pythons:
        child = subprocess.run(
            [exe, "-c", TRANSCRIPT_CHILD], cwd=tmp_path, env=env, text=True,
            input=json.dumps([argv for argv, _ in golden]),
            capture_output=True, timeout=300)
        assert child.returncode == 0, (exe, child.stderr[-2000:])
        digests = child.stdout.split()
        assert len(digests) == len(golden), (exe, child.stderr[-2000:])
        assert [argv for (argv, digest), got in zip(golden, digests)
                if got != digest] == [], exe


# ------------------------------------------------------- global options


def test_json_flag_echoes_config(capsys):
    code, obj = run_json(capsys, "--json", "derive", "--matrix", SQUARE)
    assert code == 0
    assert obj["config"]["matrix"] == SQUARE
    # and the flag does not leak into later invocations
    _, plain = run_json(capsys, "derive", "--matrix", SQUARE)
    assert "config" not in plain


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("# defaults\nterms = 16\nmin_match = 10\n")
    code, out, err = run(capsys, "scan", "--config", str(cfg),
                         "--bound", "1")
    assert code == 0
    assert json.loads(err.strip().splitlines()[-1])["total"] == 6


def test_config_file_flag_wins(capsys, tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("terms = 20\n")
    _, obj = run_json(capsys, "generate", "--config", str(cfg),
                      "--matrix", SQUARE, "--terms", "24")
    assert len(obj["terms"]) == 24


def test_missing_config_file(capsys):
    code, obj = run_json(capsys, "generate", "--config", "/nonexistent",
                         "--matrix", SQUARE)
    assert code == 2
    assert obj["error"].startswith("config error: /nonexistent: ")


def test_config_flag_without_path_is_usage_error(capsys):
    code, obj = run_json(capsys, "scan", "--bound", "1", "--config")
    assert code == 2
    assert obj == {"error": "argument --config: expected one argument"}


def test_config_sets_global_seed(capsys, tmp_path):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 5\n")
    code, obj = run_json(capsys, "verify", "plucker", "--trials", "2",
                         "--config", str(cfg))
    assert code == 0
    assert obj["seed"] == 5
    _, flag = run_json(capsys, "--seed", "5", "verify", "plucker",
                       "--trials", "2")
    assert obj == flag


@pytest.mark.parametrize("value,echoed", [("true", True), ("false", False)])
def test_config_switch_takes_true_false(capsys, tmp_path, value, echoed):
    cfg = tmp_path / "json.cfg"
    cfg.write_text(f"json = {value}\n")
    code, obj = run_json(capsys, "--config", str(cfg), "derive",
                         "--matrix", SQUARE)
    assert code == 0
    assert ("config" in obj) is echoed


def test_config_unknown_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("terms = 16\nno_such_option = 3\n")
    code, obj = run_json(capsys, "scan", "--bound", "1", "--config", str(cfg))
    assert code == 2
    assert obj == {"error": f"config {cfg}: unknown key 'no_such_option'"}


@pytest.mark.parametrize("workers", ["0", "-3", str((os.cpu_count() or 1) + 1)])
def test_scan_workers_out_of_range(capsys, workers):
    # rejected while parsing, before any pool is started
    code, obj = run_json(capsys, "scan", "--bound", "1", "--workers", workers)
    assert code == 2
    assert obj["error"].startswith("argument --workers: expected 1 to ")


@pytest.mark.parametrize("workers", ["+1", " 1"])
def test_scan_workers_take_what_int_takes(capsys, workers):
    # as --bound +1 does
    _, one, _ = run(capsys, "scan", "--bound", "1")
    assert run(capsys, "scan", "--bound", "1", "--workers", workers)[:2] \
        == (EXIT_OK, one)


def test_scan_workers_bound_an_unknown_cpu_count_by_one(capsys, monkeypatch):
    # os.cpu_count() is None where the count is unknown; one worker is
    # allowed then, and the message names that bound
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_json(capsys, "scan", "--bound", "1", "--workers", "2") == (
        EXIT_PARSE, {"error": "argument --workers: expected 1 to 1 (the CPU "
                     "count), got '2'"})
