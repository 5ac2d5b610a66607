import json
import os

import pytest

from tauseq.cli import main

SQUARE = "5,-2,-2,-1;1,1,-1,-1"
HEX = "1,3,-3,-1;0,1,2,-3"


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
    code, _ = run_json(capsys, "derive", "--matrix",
                       "1,-1,0,0,0;0,0,1,0,-1")
    assert code == 4


def test_derive_parse_exit_code(capsys):
    code, obj = run_json(capsys, "derive", "--matrix", "1,x;2,3")
    assert code == 2
    assert "error" in obj


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
    assert len(obj["identities"]) == 6


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
    code, _, err = run(capsys, "generate", "--config", "/nonexistent",
                       "--matrix", SQUARE)
    assert code == 2
    assert "config error" in err


def test_config_flag_without_path_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--bound", "1", "--config"])
    assert exc.value.code == 2


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
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--bound", "1", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "no_such_option" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3", str((os.cpu_count() or 1) + 1)])
def test_scan_workers_out_of_range(capsys, workers):
    # rejected while parsing, before any pool is started
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--bound", "1", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
