"""Command-line interface, driven through main(argv)."""

import json

import pytest
from conftest import MALFORMED_SECTIONS, SCENARIOS_DIR, load_fixture

from stave import CaptureLog, CaptureRecord
from stave.capture import KIND_CAN
from stave.cli import main


@pytest.fixture
def scenario_path(tmp_path):
    """A small runnable scenario with one declared output."""
    doc = {
        "schema": "stave-scenario/1",
        "seed": 7,
        "duration_s": 1.0,
        "outputs": {"summary": "out/summary.json",
                    "captures": {"vehicle0": "out/vehicle0.log"}},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_log(path, rows) -> None:
    log = CaptureLog()
    for ts, can_id, data in rows:
        log.append(CaptureRecord(timestamp_us=ts, interface="vehicle0",
                                 kind=KIND_CAN, data=data, can_id=can_id))
    log.save(path)


def test_run_prints_summary_and_writes_outputs(tmp_path, scenario_path, capsys) -> None:
    out = tmp_path / "results"
    assert main(["run", str(scenario_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary["schema"] == "stave-summary/1"
    assert summary["seed"] == 7
    assert "wrote summary:" in captured.err
    assert (out / "out" / "summary.json").is_file()
    assert json.loads((out / "out" / "summary.json").read_text()) == summary
    CaptureLog.load(out / "out" / "vehicle0.log")


def test_run_seed_flag_overrides_file(tmp_path, scenario_path, capsys) -> None:
    main(["run", str(scenario_path), "--seed", "99", "--out", str(tmp_path / "a")])
    assert json.loads(capsys.readouterr().out)["seed"] == 99


def test_run_missing_file_is_io_error(tmp_path, capsys) -> None:
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_ok(capsys) -> None:
    path = SCENARIOS_DIR / "baseline.json"
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: ok\n"


def test_validate_reports_every_error(tmp_path, capsys) -> None:
    doc = load_fixture("baseline.json")
    del doc["seed"]
    doc["duration_s"] = -1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: seed: required" in err
    assert "error: duration_s:" in err


@pytest.mark.parametrize("token", ["Infinity", "NaN"])
def test_validate_non_finite_duration_exits_2(tmp_path, capsys, token) -> None:
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "stave-scenario/1", "seed": 0, "duration_s": %s}' % token,
                    encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: duration_s: expected a finite number")
    assert "Traceback" not in err


@pytest.mark.parametrize(("sections", "error"), MALFORMED_SECTIONS)
def test_validate_malformed_scenario_exits_2(tmp_path, capsys, sections, error) -> None:
    path = tmp_path / "bad.json"
    doc = {"schema": "stave-scenario/1", "seed": 0, "duration_s": 2.0, **sections}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_validate_rejects_malformed_json(tmp_path, capsys) -> None:
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_diff_writes_report(tmp_path, capsys) -> None:
    pre = tmp_path / "pre.log"
    post = tmp_path / "post.log"
    write_log(pre, [(t, 0x0CFF1028, bytes((125,))) for t in range(0, 300, 100)])
    write_log(post, [(t, 0x0CFF1028, bytes((v,))) for t, v in ((0, 25), (100, 225), (200, 90))])
    report_path = tmp_path / "report.json"
    assert main(["diff", str(pre), str(post), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["schema"] == "stave-diff/1"
    assert report["flagged"][0]["can_id"] == "0x0CFF1028"
    assert "wrote report:" in capsys.readouterr().err


def test_diff_empty_baseline_exits_2(tmp_path, capsys) -> None:
    pre = tmp_path / "pre.log"
    post = tmp_path / "post.log"
    pre.write_text("", encoding="utf-8")
    write_log(post, [(0, 0x100, b"\x01")])
    assert main(["diff", str(pre), str(post), "--report", str(tmp_path / "r.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_diff_bad_capture_line_exits_2(tmp_path, capsys) -> None:
    pre = tmp_path / "pre.log"
    pre.write_text("(0.000000) vehicle0 NOT-A-RECORD\n", encoding="utf-8")
    post = tmp_path / "post.log"
    write_log(post, [(0, 0x100, b"\x01")])
    assert main(["diff", str(pre), str(post), "--report", str(tmp_path / "r.json")]) == 2
    assert "line 1" in capsys.readouterr().err


def test_occupancy_stdout_and_file(tmp_path, capsys) -> None:
    run_out = tmp_path / "run"
    scenario = {
        "schema": "stave-scenario/1", "seed": 1, "duration_s": 1.0,
        "taps": [{"name": "air", "channels": "all"}],
        "outputs": {"captures": {"air": "air.log"}},
    }
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(scenario), encoding="utf-8")
    main(["run", str(spath), "--out", str(run_out)])
    capsys.readouterr()

    assert main(["occupancy", str(run_out / "air.log")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "stave-occupancy/1"
    assert doc["channels"][0]["channel"] == 0
    assert doc["total_packets"] > 0

    report = tmp_path / "occ.json"
    assert main(["occupancy", str(run_out / "air.log"), "--report", str(report)]) == 0
    assert json.loads(report.read_text(encoding="utf-8")) == doc | {"capture": str(run_out / "air.log")}


def test_replay_plan_roundtrip(tmp_path, capsys) -> None:
    cap = tmp_path / "cap.log"
    write_log(cap, [
        (1_000, 0x0CFF1028, bytes((25, 125, 0, 255, 255, 255, 255, 255))),
        (51_000, 0x0CFF1028, bytes((30, 125, 0, 255, 255, 255, 255, 255))),
        (60_000, 0x18FF1213, bytes(8)),
    ])
    out = tmp_path / "sched.json"
    assert main(["replay-plan", str(cap), "--match-pgn", "0xFF10",
                 "--mutate", "byte0=reflect(250)", "--timing", "preserve",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == "stave-replay/1"
    assert [e["delay_s"] for e in doc["entries"]] == [0.0, 0.05]
    assert doc["entries"][0]["data"].startswith("E1")

    # stdout variant, matching by exact identifier, no mutation
    assert main(["replay-plan", str(cap), "--match-id", "0x18FF1213"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["entries"]) == 1
    assert doc["entries"][0]["data"] == "00" * 8


def test_replay_plan_rejects_bad_hex(tmp_path, capsys) -> None:
    cap = tmp_path / "cap.log"
    write_log(cap, [(0, 0x100, b"\x01")])
    assert main(["replay-plan", str(cap), "--match-pgn", "zzz"]) == 2
    assert "error:" in capsys.readouterr().err
    # out of range: a pgn has 18 bits and an identifier 29
    for flag, value, error in (
        ("--match-pgn", "0x40000", "match pgn 262144 outside 0..262143"),
        ("--match-pgn", "-5", "match pgn -5 outside 0..262143"),
        ("--match-id", "-1", "match can_id -1 outside 0..536870911"),
        ("--match-id", "0x20000000", "match can_id 536870912 outside 0..536870911"),
    ):
        assert main(["replay-plan", str(cap), flag, value]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


def test_replay_plan_rejects_bad_mutation(tmp_path, capsys) -> None:
    cap = tmp_path / "cap.log"
    write_log(cap, [(0, 0x100, b"\x01")])
    assert main(["replay-plan", str(cap), "--match-pgn", "0xFF10",
                 "--mutate", "byte0=warp(1)"]) == 2
    assert "error:" in capsys.readouterr().err


def test_match_flags_are_mutually_exclusive(tmp_path, capsys) -> None:
    cap = tmp_path / "cap.log"
    write_log(cap, [(0, 0x100, b"\x01")])
    with pytest.raises(SystemExit):
        main(["replay-plan", str(cap), "--match-pgn", "0x100", "--match-id", "0x100"])
    with pytest.raises(SystemExit):
        main(["replay-plan", str(cap)])


def test_console_script_is_installed() -> None:
    import shutil
    assert shutil.which("stave") is not None
