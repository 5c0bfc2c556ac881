"""Command-line interface, driven through main(argv)."""

import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from typing import Iterator

import pytest
from conftest import MALFORMED_SECTIONS, REPO_ROOT, SCENARIOS_DIR, load_fixture
from test_golden import ALL_ATTACK_TYPES

from stave import (CaptureError, CaptureLog, CaptureRecord, FrameTally, MessageMatch, Mutation, SimClock, capture,
                   channel_occupancy, cli, diff_captures, load_scenario, plan_replay, run_scenario, validate_scenario)
from stave.cli import main
from stave.runner import json_text


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
                                 data=data, can_id=can_id))
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


def test_run_reports_every_file_it_wrote(tmp_path, capsys) -> None:
    # a capture may share its name with the summary's label; both files are reported
    doc = {"schema": "stave-scenario/1", "seed": 1, "duration_s": 0.5, "taps": [{"name": "summary"}],
           "outputs": {"summary": "s.json", "captures": {"summary": "t.log"}}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [f"wrote summary: {out / 's.json'}",
                                                    f"wrote summary: {out / 't.log'}"]


def test_run_seed_flag_overrides_file(tmp_path, scenario_path, capsys) -> None:
    main(["run", str(scenario_path), "--seed", "99", "--out", str(tmp_path / "a")])
    assert json.loads(capsys.readouterr().out)["seed"] == 99


def test_run_seed_flag_takes_hex(tmp_path, scenario_path, capsys) -> None:
    main(["run", str(scenario_path), "--seed", "0x63", "--out", str(tmp_path / "a")])
    assert json.loads(capsys.readouterr().out)["seed"] == 99


def test_run_seed_flag_is_checked_like_the_file_seed(tmp_path, scenario_path, capsys) -> None:
    assert main(["run", str(scenario_path), "--seed", "-7", "--out", str(tmp_path / "a")]) == 2
    assert capsys.readouterr().err == "error: --seed: must be >= 0, got -7\n"
    assert not (tmp_path / "a").exists()


def test_run_out_file_fails_before_the_clock_runs(tmp_path, scenario_path, capsys, monkeypatch) -> None:
    ran = []
    monkeypatch.setattr(SimClock, "run_until", lambda clock, t_us: ran.append(t_us))
    out = tmp_path / "file"
    out.write_text("x")
    assert main(["run", str(scenario_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: {str(out)!r}\n"
    assert ran == []
    assert out.read_text() == "x"


@pytest.mark.parametrize("blocked, kind, errno_text", [
    ("out", "file", "[Errno 20] Not a directory"),  # the directory both outputs go in
    ("out/summary.json", "dir", "[Errno 21] Is a directory"),  # an output itself
])
def test_run_blocked_output_path_fails_before_the_clock_runs(tmp_path, scenario_path, capsys, monkeypatch,
                                                             blocked, kind, errno_text) -> None:
    ran = []
    monkeypatch.setattr(SimClock, "run_until", lambda clock, t_us: ran.append(t_us))
    out = tmp_path / "results"
    path = out / blocked
    if kind == "file":
        path.parent.mkdir(parents=True)
        path.write_text("x")
    else:
        path.mkdir(parents=True)
    assert main(["run", str(scenario_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {errno_text}: {str(path)!r}\n"
    assert ran == []
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == sorted(
        {"out", blocked})  # nothing was written


def test_run_out_file_is_no_error_for_a_scenario_without_outputs(tmp_path, capsys) -> None:
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps({"schema": "stave-scenario/1", "seed": 7, "duration_s": 0.1}))
    out = tmp_path / "file"
    out.write_text("x")
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "quiet.json"]


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


# an input file that cannot be read, the command reading it (FILE: the file)
# and where the one error line locates the fault
UNREADABLE_INPUTS = {
    "malformed-json": (b"{", ["validate", "FILE"], "FILE: not valid JSON"),
    "deep-nesting": (b"[" * 100_000, ["validate", "FILE"], "FILE: not valid JSON"),
    "5000-digit-integer": (b'{"seed": ' + b"1" * 5000 + b"}", ["run", "FILE"], "FILE: not valid JSON"),
    "non-utf8-scenario": (b'{"seed": "\xff"}', ["validate", "FILE"], "FILE: not UTF-8"),
    "out-of-range-stamp": (b"(0.000000) air R:A55A00\n(9223372036854.775808) air R:A55A00\n",
                           ["occupancy", "FILE"], "line 2: timestamp_us 9223372036854775808 outside"),
    "over-long-stamp": (b"(" + b"1" * 5000 + b".000000) can0 00000100#AA\n",
                        ["replay-plan", "FILE", "--match-id", "0x100"], "line 1: malformed record"),
    "bad-capture-line": (b"(0.000000) vehicle0 NOT-A-RECORD\n",
                         ["diff", "FILE", "FILE", "--report", "report.json"], "line 1: unrecognized record body"),
}


@pytest.mark.parametrize("name", UNREADABLE_INPUTS)
def test_unreadable_input_file_is_one_located_error(tmp_path, capsys, monkeypatch, name) -> None:
    raw, argv, where = UNREADABLE_INPUTS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input").write_bytes(raw)
    assert main([arg.replace("FILE", "input") for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where.replace('FILE', 'input')}")
    assert err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


# a scenario or capture file, a command on it (FILE: the file) and the one
# error line it prints, naming the field or the flag at fault
CAPTURE = b"(0.000000) vehicle0 0CFF1028#01\n"
SCENARIO = b'{"schema": "stave-scenario/1", "seed": 0, "duration_s": 0.1}'
BAD_VALUES = {
    "nul-in-output-path": (b'{"schema": "stave-scenario/1", "seed": 0, "duration_s": 0.1, '
                           b'"outputs": {"summary": "a\\u0000b.json"}}',
                           ["run", "FILE", "--out", "out"],
                           "outputs.summary: must not contain a NUL character, got 'a\\x00b.json'"),
    "non-ascii-mutation-digit": (CAPTURE, ["replay-plan", "FILE", "--match-pgn", "0xFF10",
                                           "--mutate", "byte\u0663=add(1)"],
                                 "--mutate: cannot parse mutation 'byte\u0663=add(1)'; "
                                 "expected byte<K>=reflect(<max>)|const(<v>)|add(<n>)"),
    "5000-digit-mutation-offset": (CAPTURE, ["replay-plan", "FILE", "--match-pgn", "0xFF10",
                                             "--mutate", f"byte{'1' * 5000}=add(1)"],
                                   f"--mutate: cannot parse mutation {'byte' + '1' * 96!r}... "
                                   "(5011 characters); a decimal number has a leading zero or too many digits"),
    "bad-hex-match-pgn": (CAPTURE, ["replay-plan", "FILE", "--match-pgn", "0xZZ"],
                          "--match-pgn: expected an integer, got '0xZZ'"),
    # flags take the one integer grammar (errors.int_text): ASCII decimal or 0x hex
    "non-ascii-match-pgn": (CAPTURE, ["replay-plan", "FILE", "--match-pgn", "\u0666\u0665\u0662\u0669\u0666"],
                            "--match-pgn: expected an integer, got '\u0666\u0665\u0662\u0669\u0666'"),
    "non-ascii-seed": (SCENARIO, ["run", "FILE", "--seed", "\u0663", "--out", "out"],
                       "--seed: expected an integer, got '\u0663'"),
    "text-seed": (SCENARIO, ["run", "FILE", "--seed", "x", "--out", "out"], "--seed: expected an integer, got 'x'"),
    # the seed takes the hop seed's range, so the run's loss stream can be seeded from its text
    "16000-bit-seed": (SCENARIO, ["run", "FILE", "--seed", "0x" + "F" * 4000, "--out", "out"],
                       "--seed: must be <= 18446744073709551615, got <16000-bit integer>"),
    "5000-digit-match-id": (CAPTURE, ["replay-plan", "FILE", "--match-id", "1" * 5000],
                            f"--match-id: expected an integer, got {'1' * 100!r}... (5000 characters)"),
    # hex converts at any length, but the value has too many digits to print
    "5000-hex-digit-match-pgn": (CAPTURE, ["replay-plan", "FILE", "--match-pgn", "0x" + "F" * 5000],
                                 "--match-pgn: match pgn <20000-bit integer> outside 0..262143"),
    # valid scenarios whose attacks fail on what the run captured
    "diff-of-an-empty-baseline": (b'{"schema": "stave-scenario/1", "seed": 1, "duration_s": 1.0, '
                                  b'"attacks": [{"type": "diff", "start_s": 0.0, "pre": "vehicle0", '
                                  b'"post": "operator0", "save": "d"}]}',
                                  ["run", "FILE", "--out", "out"],
                                  "attacks[0].pre: baseline capture holds no frames; cannot establish constants"),
    "reflect-below-the-captured-value": (b'{"schema": "stave-scenario/1", "seed": 1, "duration_s": 1.0, '
                                         b'"attacks": [{"type": "replay", "start_s": 0.5, "capture": "vehicle0", '
                                         b'"match": {"pgn": "0xFF10"}, "mutate": "byte0=reflect(10)", '
                                         b'"save": "p"}]}',
                                         ["run", "FILE", "--out", "out"],
                                         "attacks[0].mutate: reflect(10) saw byte value 125; "
                                         "reflection max must bound the matched traffic"),
}


@pytest.mark.parametrize("name", BAD_VALUES)
def test_bad_value_is_one_located_error(tmp_path, capsys, monkeypatch, name) -> None:
    raw, argv, error = BAD_VALUES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input").write_bytes(raw)
    assert main([arg.replace("FILE", "input") for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()  # nothing was written


@pytest.mark.parametrize("argv", [["run", "PATH"], ["validate", "PATH"], ["diff", "PATH", "PATH", "--report", "r"],
                                  ["occupancy", "PATH"], ["replay-plan", "PATH", "--match-pgn", "0xFF10"]],
                         ids=lambda argv: argv[0])
def test_a_path_no_file_system_takes_is_one_error(tmp_path, capsys, monkeypatch, argv) -> None:
    # open() rejects a NUL byte with a ValueError, which no command turns into a StaveError
    monkeypatch.chdir(tmp_path)
    assert main([arg.replace("PATH", "a\x00b") for arg in argv]) == 2
    assert capsys.readouterr().err == "error: embedded null byte\n"
    assert list(tmp_path.iterdir()) == []


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
    log = str(run_out / "air.log")
    assert main(["occupancy", log, "--report", str(report)]) == 0
    assert json.loads(report.read_text(encoding="utf-8")) == doc | {"capture": log}
    # the command writes the library's document for the log, named by its path
    assert report.read_text(encoding="utf-8") == json_text(channel_occupancy(CaptureLog.load(log), log))


def test_occupancy_locates_bytes_that_are_not_utf8(tmp_path, capsys) -> None:
    cap = tmp_path / "cap.log"
    cap.write_bytes(b"(0.000001) air R:A55A00\n(0.000002) air\xff R:A55A00\n")
    assert main(["occupancy", str(cap)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: not UTF-8")


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


def test_replay_plan_drops_its_log_before_writing_its_entries(tmp_path, monkeypatch) -> None:
    cap = tmp_path / "cap.log"
    write_log(cap, [(t, 0x0CFF1028, bytes((t % 250, 125))) for t in range(0, 100_000, 1000)])
    plan_replay, write_json = cli.plan_replay, cli.write_json
    logs, seen = [], []

    def plan_spy(log, *rest):
        logs.append(weakref.ref(log))
        return plan_replay(log, *rest)

    def write_spy(path, doc):
        # the log is dead, and the entries come one at a time, not as a list
        seen.append((logs[0]() is None, isinstance(doc["entries"], Iterator)))
        write_json(path, doc)

    monkeypatch.setattr(cli, "plan_replay", plan_spy)
    monkeypatch.setattr(cli, "write_json", write_spy)
    out = tmp_path / "sched.json"
    assert main(["replay-plan", str(cap), "--match-pgn", "0xFF10", "--out", str(out)]) == 0
    assert seen == [(True, True)]
    assert len(json.loads(out.read_text(encoding="utf-8"))["entries"]) == 100


def test_in_run_reports_equal_the_offline_analyses_of_the_saved_logs(tmp_path) -> None:
    run_scenario(validate_scenario(ALL_ATTACK_TYPES), tmp_path)
    saved = tmp_path / "all"
    offline = tmp_path / "offline"
    offline.mkdir()
    assert main(["diff", str(saved / "pre.log"), str(saved / "post.log"), "--report", str(offline / "d.json")]) == 0
    assert main(["replay-plan", str(saved / "pre.log"), "--match-pgn", "0xFF10", "--mutate", "byte0=reflect(250)",
                 "--out", str(offline / "sched.json")]) == 0
    assert main(["replay-plan", str(saved / "aircap.log"), "--match-id", "0x0CFF1028", "--timing", "fast",
                 "--out", str(offline / "burst.json")]) == 0
    for name in ("d", "sched", "burst"):
        assert (offline / f"{name}.json").read_bytes() == (saved / f"{name}.json").read_bytes(), name
    # an in-run occupancy report names its capture by the save name, and the
    # narrow one ran at 2.5 s, before the end of the log the run saved
    aircap = CaptureLog.load(saved / "aircap.log")
    assert json_text(channel_occupancy(aircap, "aircap")) == (saved / "occ.json").read_text(encoding="utf-8")
    narrow = CaptureLog()
    for record in CaptureLog.load(saved / "narrow.log"):
        if record.timestamp_us < 2_500_000:
            narrow.append(record)
    assert json_text(channel_occupancy(narrow, "narrow")) == (saved / "occ_narrow.json").read_text(encoding="utf-8")


def test_replay_plan_rejects_bad_hex(tmp_path, capsys) -> None:
    cap = tmp_path / "cap.log"
    write_log(cap, [(0, 0x100, b"\x01")])
    assert main(["replay-plan", str(cap), "--match-pgn", "zzz"]) == 2
    assert "error:" in capsys.readouterr().err
    # out of range: a pgn has 18 bits and an identifier 29
    for flag, value, error in (
        ("--match-pgn", "0x40000", "--match-pgn: match pgn 262144 outside 0..262143"),
        ("--match-pgn", "-5", "--match-pgn: match pgn -5 outside 0..262143"),
        ("--match-id", "-1", "--match-id: match can_id -1 outside 0..536870911"),
        ("--match-id", "0x20000000", "--match-id: match can_id 536870912 outside 0..536870911"),
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


def _in_process(argv, capsys) -> tuple:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def _in_new_process(argv) -> tuple:
    proc = subprocess.run(
        [sys.executable, "-m", "stave.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_main_calls_behave_like_fresh_ones(tmp_path, capsys, monkeypatch) -> None:
    # the parser is built once per process; argparse wraps usage text to COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    pre, post, report = tmp_path / "pre.log", tmp_path / "post.log", tmp_path / "report.json"
    write_log(pre, [(t, 0x0CFF1028, bytes((125,))) for t in range(0, 300, 100)])
    write_log(post, [(t, 0x0CFF1028, bytes((v,))) for t, v in ((0, 25), (100, 225), (200, 90))])
    calls = [
        ["diff", str(pre), str(post), "--report", str(report)],
        ["replay-plan", str(post), "--match-pgn", "0x100", "--match-id", "0x100"],
        ["replay-plan", str(post), "--match-pgn", "0x40000"],
        ["diff", str(pre), str(post), "--report", str(report)],
    ]
    codes = []
    for argv in calls:
        report.unlink(missing_ok=True)
        got = _in_process(argv, capsys), report.read_bytes() if report.exists() else None
        report.unlink(missing_ok=True)
        want = _in_new_process(argv), report.read_bytes() if report.exists() else None
        assert got == want
        codes.append(got[0][0])
    assert codes == [0, 2, 2, 0]


def _files(root) -> dict[str, bytes]:
    """The bytes of every file under root, by relative path."""
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("name", sorted(path.name for path in SCENARIOS_DIR.glob("*.json")))
def test_a_bundled_scenario_writes_the_same_files_under_any_hash_seed(name, tmp_path) -> None:
    # criterion 7 across processes: each process hashes str with its own
    # seed unless PYTHONHASHSEED fixes one, so no output may depend on it
    scenario = SCENARIOS_DIR / name
    bed = run_scenario(load_scenario(scenario), tmp_path / "in-process")
    want = _files(tmp_path / "in-process")
    assert want
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"hash-seed-{hash_seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "stave.cli", "run", str(scenario), "--out", str(out)], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONHASHSEED": hash_seed},
        )
        assert (proc.returncode, proc.stdout) == (0, json_text(bed.summary)), proc.stderr
        assert _files(out) == want, hash_seed


# The offline commands fold each file's rows as they parse it: the same
# reports, the same errors, and memory that does not grow with the logs.

@pytest.fixture(scope="module")
def air_logs(tmp_path_factory):
    """The air and vehicle0 logs of an idle and an active 40 s run, 2,114 records each."""
    out = tmp_path_factory.mktemp("air")
    active = [{"t_s": round(1.0 + 0.4 * i, 3), "x": 37 * i % 251, "button": i % 2} for i in range(95)]
    for name, script in (("idle", []), ("active", active)):
        doc = {"schema": "stave-scenario/1", "seed": 11, "duration_s": 40.0,
               "joystick_script": [{"t_s": 0.0, "x": 125}, *script], "taps": [{"name": "air", "channels": "all"}],
               "outputs": {"captures": {"air": f"{name}/air.log", "vehicle0": f"{name}/vehicle0.log"}}}
        run_scenario(validate_scenario(doc), out)
    return out


def loaded_reports(logs) -> dict:
    """Each command's report text, as the analyses of CaptureLog.load give it."""
    pre, post, wired = (CaptureLog.load(logs / name)
                        for name in ("idle/air.log", "active/air.log", "active/vehicle0.log"))
    occupancy = str(logs / "active/air.log")
    return {
        "diff": json_text(diff_captures(FrameTally(pre), FrameTally(post))),
        "diff_mixed": json_text(diff_captures(FrameTally(wired), FrameTally(post))),
        "occupancy": json_text(channel_occupancy(post, occupancy)),
        "plan": json_text(plan_replay(wired, MessageMatch(pgn=0xFF10),
                                      Mutation.parse("byte0=reflect(250)")).to_json_dict()),
        "burst": json_text(plan_replay(post, MessageMatch(can_id=0x0CFF1028), None, "fast").to_json_dict()),
    }


def offline_commands(logs, out) -> dict:
    """Each command's argv, writing its report to out."""
    return {
        "diff": ["diff", str(logs / "idle/air.log"), str(logs / "active/air.log"), "--report", str(out / "diff")],
        "diff_mixed": ["diff", str(logs / "active/vehicle0.log"), str(logs / "active/air.log"),
                       "--report", str(out / "diff_mixed")],
        "occupancy": ["occupancy", str(logs / "active/air.log"), "--report", str(out / "occupancy")],
        "plan": ["replay-plan", str(logs / "active/vehicle0.log"), "--match-pgn", "0xFF10",
                 "--mutate", "byte0=reflect(250)", "--out", str(out / "plan")],
        "burst": ["replay-plan", str(logs / "active/air.log"), "--match-id", "0x0CFF1028", "--timing", "fast",
                  "--out", str(out / "burst")],
    }


@pytest.mark.parametrize("block", [7, 64])
def test_streamed_commands_write_the_analyses_of_the_loaded_logs(air_logs, tmp_path, monkeypatch, capsys, block):
    want = loaded_reports(air_logs)
    assert '"flagged": []' not in want["diff"] and '"entries": []' not in want["plan"] + want["burst"]
    # blocks of a line or two, cut inside lines: every row crosses or ends a block
    monkeypatch.setattr(capture, "_BLOCK", block)
    for name, argv in offline_commands(air_logs, tmp_path).items():
        assert main(argv) == 0, name
        assert (tmp_path / name).read_text(encoding="utf-8") == want[name], name
    # and to stdout, without --report or --out
    for name in ("occupancy", "plan"):
        assert main(offline_commands(air_logs, tmp_path)[name][:-2]) == 0
        assert capsys.readouterr().out == want[name]


def test_replay_plan_of_no_match_writes_an_empty_entry_list(tmp_path, capsys) -> None:
    cap = tmp_path / "cap.log"
    write_log(cap, [(0, 0x100, b"\x01")])
    for timing in ("preserve", "fast"):
        assert main(["replay-plan", str(cap), "--match-pgn", "0xFF10", "--timing", timing]) == 0
        assert capsys.readouterr().out == json_text({"entries": [], "schema": "stave-replay/1", "timing": timing})


GOOD_LINE = b"(0.000002) air R:A55A00\n"
# (a faulty log's bytes): a faulty line early and a byte that is not UTF-8 or a
# missing final LF blocks later, each of which load reports before the line, and a late faulty line
FAULTY_LOGS = {
    "late byte that is not UTF-8": b"garbage\n" + GOOD_LINE * 300 + b"(0.000003) air\xff R:A55A00\n",
    "missing final LF": b"garbage\n" + GOOD_LINE * 300 + GOOD_LINE[:-1],
    "late faulty line": GOOD_LINE * 300 + b"(0.000001) air R:A55A00\n" + GOOD_LINE,
}


@pytest.mark.parametrize("fault", FAULTY_LOGS)
def test_a_faulty_log_stops_each_command_with_the_error_of_load_and_no_report(tmp_path, capsys, fault) -> None:
    bad, good = tmp_path / "bad.log", tmp_path / "good.log"
    bad.write_bytes(FAULTY_LOGS[fault])
    good.write_bytes(GOOD_LINE)
    with pytest.raises(CaptureError) as err:
        CaptureLog.load(bad)
    report = tmp_path / "report.json"
    for argv in (["diff", str(bad), str(good), "--report", str(report)],
                 ["diff", str(good), str(bad), "--report", str(report)],
                 ["occupancy", str(bad), "--report", str(report)],
                 ["replay-plan", str(bad), "--match-pgn", "0xFF10", "--out", str(report)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {err.value}\n", argv
        assert not report.exists(), argv


def traced(call) -> tuple[int, int]:
    """(bytes call() leaves held, its peak above the bytes held before), traced in this process."""
    call()  # a first call sets up what every later one shares
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return held - before, peak - before


def test_diff_and_occupancy_peak_below_one_loaded_log(air_logs, tmp_path) -> None:
    log_held, _ = traced(lambda: CaptureLog.load(air_logs / "active/air.log"))
    assert log_held > 150_000  # 2,114 air records
    for name in ("diff", "occupancy"):
        argv = offline_commands(air_logs, tmp_path)[name]
        _, peak = traced(lambda: main(argv))
        assert peak < log_held, name  # reading both logs, or one whole, would hold more


def test_replay_plan_peaks_below_its_log_and_schedule_and_a_tenth_of_its_report(air_logs, tmp_path) -> None:
    path = air_logs / "active/vehicle0.log"
    match, mutation = MessageMatch(pgn=0xFF10), Mutation.parse("byte0=reflect(250)")
    log = CaptureLog.load(path)
    log_held, _ = traced(lambda: CaptureLog.load(path))
    # planning at its largest: the schedule and the list it is built from
    _, plan_peak = traced(lambda: plan_replay(log, match, mutation))
    del log
    argv = offline_commands(air_logs, tmp_path)["plan"]
    _, peak = traced(lambda: main(argv))
    report = (tmp_path / "plan").stat().st_size
    assert report > 60_000
    # the parent command held its whole document and text on top: more than the report's size again
    assert peak < log_held + plan_peak + report / 10
