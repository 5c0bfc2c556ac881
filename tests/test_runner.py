"""Scenario execution: wiring, summaries, output files, determinism."""

import enum
import json
import math
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from conftest import load_fixture, make_scenario
from test_golden import ALL_ATTACK_TYPES

from stave import (BusStats, CaptureLog, CaptureRecord, VehicleObservables, build_testbed, run_scenario, summarize,
                   validate_scenario)
from stave.capture import RADIO_ID
from stave.runner import json_text, write_json, write_outputs

JOY = 0x0CFF1028


def test_a_kept_recorder_log_holds_each_repeated_payload_once() -> None:
    # every fleet node sends a payload equal to its latest as that object
    log = run_scenario(make_scenario(duration_s=2.0, outputs={"captures": {"vehicle0": "v.log"}})).captures["vehicle0"]
    payloads = {}
    for _, can_id, data in log.rows():
        payloads.setdefault(can_id, []).append(data)
    engine = payloads[0x0CF00400]  # EEC1, a fixed engine speed
    assert len(engine) > 1 and len({id(data) for data in engine}) == 1


def test_summary_shape_and_consistency() -> None:
    result = run_scenario(make_scenario(duration_s=2.0, outputs={"captures": {"operator0": "operator0.log"}}))
    summary = result.summary
    assert summary["schema"] == "stave-summary/1"
    assert summary["seed"] == 0
    assert summary["duration_s"] == 2.0
    assert set(summary["buses"]) == {"operator0", "vehicle0"}
    for bus in summary["buses"].values():
        assert bus["frames_delivered"] > 0
        assert 0.0 < bus["bus_load"] < 1.0
    radio = summary["radio"]
    # lossless, non-hopping: every crossing is accepted by the far endpoint
    assert radio["packets_sent"] == radio["endpoint_delivered"] > 0
    assert radio["packets_lost"] == radio["channel_rejected"] == radio["crc_dropped"] == 0
    assert summary["captures"]["operator0"] == len(result.captures["operator0"])
    # a segment counts every delivered frame, whether a log keeps it
    # (operator0) or it only counts (vehicle0)
    assert "vehicle0" not in result.captures
    assert result.buses["vehicle0"].capture.sinks == []
    for seg in ("operator0", "vehicle0"):
        assert summary["captures"][seg] == summary["buses"][seg]["frames_delivered"]
    # and no node on the segment does the observing
    assert all(handle.name != "recorder" for bus in result.buses.values() for handle in bus._queues)
    assert summary["attacks"] == []
    assert summary["observables"]["wheel_angle_deg"] == 0.0


def test_summary_is_json_clean() -> None:
    result = run_scenario(make_scenario(duration_s=1.0))
    json.loads(json_text(result.summary))
    assert json_text({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'


_JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('\x00\x1f\x7f"\\/\u2028\xe9\U0001f600')))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
    st.floats(), st.sampled_from([-0.0, 1e308, -1e-308, 5e-324, 1e16, 1.5e300, math.nan, math.inf, -math.inf]),
    _JSON_TEXT,
)
_JSON_DOCS = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_JSON_TEXT, inner, max_size=4),
), max_leaves=20)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(doc=_JSON_DOCS)
def test_json_text_is_json_dumps(doc) -> None:
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class _Level(enum.IntEnum):
    HIGH = 1


@pytest.mark.parametrize("doc", [
    {1: "a"}, {"a": {None: 1}}, {"a": 1, 2: "b"}, {"a": {1, 2}}, [b"\x00"], {"a": _Level.HIGH},
])
def test_json_text_rejects_what_it_does_not_render(doc) -> None:
    # json.dumps would write a non-str key or an int subclass; json_text refuses them
    with pytest.raises(TypeError):
        json_text(doc)


_JSON_OBJECTS = st.dictionaries(_JSON_TEXT, _JSON_DOCS, max_size=5)


def _lazy(doc: dict) -> dict:
    """doc with each top-level list or tuple as an iterator over its items."""
    return {key: iter(value) if type(value) in (list, tuple) else value for key, value in doc.items()}


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_JSON_OBJECTS)
@example(doc={})
@example(doc={"a": [], "b": {}, "c": (), "d": [[], {}, ()], "e": {"f": [], "g": {}}})
@example(doc={"nan": math.nan, "inf": [math.inf, -math.inf], "deep": {"x": (math.nan, -math.inf)}})
@example(doc={"caf\xe9": "\u8eca\u4e21 \U0001f600", "entries": ({"\xe9": "\u2028"}, ["\x00", "/"])})
def test_write_json_writes_the_bytes_of_json_text(doc, tmp_path, capsys) -> None:
    text = json_text(doc)
    path = tmp_path / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == text.encode("utf-8")
    # a top-level list may arrive as an iterator, read an item at a time
    write_json(path, _lazy(doc))
    assert path.read_bytes() == text.encode("utf-8")
    capsys.readouterr()
    write_json(None, doc)
    write_json(None, _lazy(doc))
    assert capsys.readouterr().out == text * 2


@pytest.mark.parametrize("lazy", [False, True])
def test_write_json_peaks_a_fixed_few_kilobytes_above_what_is_held(lazy, tmp_path) -> None:
    # 5,000 entries of a replay report, 0.5 MB of text: a write that built
    # the text, or held the lines it had not yet written, would hold far more
    entries = [{"can_id": f"0x{i:08X}", "data": f"{i:016X}", "delay_s": i / 1000} for i in range(5000)]
    path = tmp_path / "report.json"

    def doc():
        return {"schema": "stave-replay/1", "timing": "preserve", "entries": iter(entries) if lazy else entries}

    write_json(path, doc())  # a first write sets up what every later one shares
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_json(path, doc())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 450_000
    assert peak - before < 16_000


def test_every_attack_type_in_one_run() -> None:
    scenario = make_scenario(
        duration_s=3.0,
        # steps land at 1.1/1.6 so bridge latency cannot smear a changed
        # frame back across the pre-window boundary at 1.05
        joystick_script=[
            {"t_s": 0.0, "x": 125},
            {"t_s": 1.1, "x": 25},
            {"t_s": 1.6, "x": 225},
        ],
        taps=[{"name": "air", "channels": "all"}],
        attacks=[
            {"type": "sniff", "start_s": 0.05, "duration_s": 1.0, "save": "pre",
             "attachment": {"kind": "wired-tap", "segment": "vehicle0"}},
            {"type": "sniff", "start_s": 1.05, "duration_s": 1.0, "save": "post",
             "attachment": {"kind": "wired-tap", "segment": "vehicle0"}},
            {"type": "diff", "start_s": 2.1, "pre": "pre", "post": "post", "save": "d"},
            {"type": "occupancy", "start_s": 2.1, "capture": "air", "save": "occ"},
            {"type": "replay", "start_s": 2.1, "capture": "pre",
             "match": {"pgn": "0xFF10"}, "mutate": "byte0=reflect(250)",
             "timing": "preserve", "save": "sched"},
            {"type": "inject", "start_s": 2.1, "schedule": "sched",
             "attachment": {"kind": "wired", "segment": "vehicle0"}},
        ],
        outputs={"captures": {"operator0": "operator0.log", "vehicle0": "vehicle0.log"}},
    )
    result = run_scenario(scenario)
    by_type = {entry["type"]: entry for entry in result.summary["attacks"]}
    assert set(by_type) == {"sniff", "diff", "occupancy", "replay", "inject"}

    # operator stick crosses the bridge, so its frames appear on vehicle0;
    # 20 per 1 s window at the 50 ms cycle
    assert by_type["replay"]["entries"] == 20
    report = result.reports["d"]
    assert [e["can_id"] for e in report["flagged"]] == ["0x0CFF1028"]
    (byte,) = report["flagged"][0]["bytes"]
    # post window still opens on one untouched frame, hence 3 distinct values
    assert byte == {"offset": 0, "pre_constant": 125, "post_distinct": 3,
                    "post_min": 25, "post_max": 225}
    assert report["ids_only_in_pre"] == [] and report["ids_only_in_post"] == []
    assert report["rate_changes"] == []

    # no hopping: every packet rides channel 0
    assert result.reports["occ"]["channels"] == [
        {"channel": 0, "count": result.reports["occ"]["total_packets"]}]
    assert result.reports["occ"]["total_packets"] > 0

    # one-shot injection starting at 2.1 s: entries 0..950 ms, horizon cuts at 3.0 s
    inject = by_type["inject"]
    assert inject["sent"] == 19
    assert inject["delivered"] == 19

    # captures kept for both sniffs plus live recorders and taps
    assert set(result.captures) == {"operator0", "vehicle0", "air", "pre", "post"}
    assert result.captures["pre"][0].timestamp_us >= 50_000


def test_repeat_of_an_empty_plan_runs_to_the_horizon(tmp_path) -> None:
    # PGN 0xEF00 matches nothing on vehicle0, so there is nothing to repeat
    scenario = make_scenario(
        duration_s=3.0,
        attacks=[
            {"type": "replay", "start_s": 1.0, "capture": "vehicle0",
             "match": {"pgn": "0xEF00"}, "timing": "preserve", "save": "plan"},
            {"type": "inject", "start_s": 1.0, "schedule": "plan", "repeat": True,
             "attachment": {"kind": "wired", "segment": "vehicle0"}},
        ],
        outputs={"summary": "summary.json"},
    )
    result = run_scenario(scenario, out_dir=tmp_path)
    assert result.summary["duration_s"] == 3.0
    assert result.summary["attacks"] == [
        {"type": "replay", "save": "plan", "entries": 0},
        {"type": "inject", "schedule": "plan", "sent": 0, "delivered": 0},
    ]
    assert [label for label, _ in result.written] == ["summary"]


def test_write_outputs_creates_declared_tree(tmp_path) -> None:
    scenario = make_scenario(
        duration_s=2.0,
        attacks=[
            {"type": "sniff", "start_s": 0.0, "duration_s": 1.0, "save": "cap",
             "attachment": {"kind": "wired-tap", "segment": "vehicle0"}},
            {"type": "occupancy", "start_s": 1.5, "capture": "vehicle0", "save": "occ"},
        ],
        outputs={
            "summary": "run/summary.json",
            "captures": {"cap": "run/cap.log", "vehicle0": "run/vehicle0.log"},
            "reports": {"occ": "run/reports/occ.json"},
        },
    )
    result = run_scenario(scenario, out_dir=tmp_path)
    assert result.written == [("summary", tmp_path / "run" / "summary.json"), ("cap", tmp_path / "run" / "cap.log"),
                              ("vehicle0", tmp_path / "run" / "vehicle0.log"),
                              ("occ", tmp_path / "run" / "reports" / "occ.json")]
    summary_path = tmp_path / "run" / "summary.json"
    assert summary_path.read_text(encoding="utf-8") == json_text(result.summary)
    parsed = CaptureLog.load(tmp_path / "run" / "cap.log")
    assert parsed.to_text() == result.captures["cap"].to_text()
    occ = json.loads((tmp_path / "run" / "reports" / "occ.json").read_text(encoding="utf-8"))
    assert occ == result.reports["occ"]


def test_a_sniff_save_is_a_capture_from_build_time() -> None:
    sniff = {"type": "sniff", "start_s": 0.2, "duration_s": 0.5, "save": "cap",
             "attachment": {"kind": "wired-tap", "segment": "vehicle0"}}
    outputs = {"captures": {"vehicle0": "vehicle0.log"}}
    bed = build_testbed(make_scenario(duration_s=1.0, attacks=[sniff], outputs=outputs))
    save = bed.captures["cap"]
    assert len(save) == 0
    # the sniff queues no event of its own
    assert len(bed.clock._queue) == len(build_testbed(make_scenario(duration_s=1.0, outputs=outputs)).clock._queue)
    bed.clock.run_until(1_000_000)
    assert list(save) == [r for r in bed.captures["vehicle0"] if 200_000 <= r.timestamp_us < 700_000]
    assert len(save) > 0


def test_no_out_dir_writes_nothing(tmp_path) -> None:
    before = sorted(tmp_path.iterdir())
    result = run_scenario(make_scenario(duration_s=1.0))
    assert result.written == []
    assert sorted(tmp_path.iterdir()) == before


def test_same_seed_reproduces_everything() -> None:
    scenario = validate_scenario(load_fixture("lossy_hopping.json"))
    a = run_scenario(scenario)
    b = run_scenario(scenario)
    assert a.summary == b.summary
    assert {n: log.to_text() for n, log in a.captures.items()} == \
           {n: log.to_text() for n, log in b.captures.items()}
    assert a.reports == b.reports


def test_a_shorter_run_is_a_prefix_of_a_longer_one() -> None:
    # no rule looks ahead to the horizon: cut at a shorter duration, every kept
    # log holds the longer run's rows up to that duration, and no other
    longest = run_scenario(validate_scenario(ALL_ATTACK_TYPES))
    assert len(longest.captures) == 7
    for duration_s in (2.95, 2.6):
        shorter = run_scenario(validate_scenario({**ALL_ATTACK_TYPES, "duration_s": duration_s}))
        horizon_us = round(duration_s * 1_000_000)
        assert shorter.captures.keys() == longest.captures.keys()
        assert len(shorter.captures["vehicle0"]) < len(longest.captures["vehicle0"])
        for name, log in shorter.captures.items():
            assert list(log) == [r for r in longest.captures[name] if r.timestamp_us <= horizon_us], name


def test_seed_changes_only_the_loss_stream() -> None:
    doc = load_fixture("lossy_hopping.json")
    doc["outputs"]["captures"]["vehicle0"] = "lossy/vehicle0.log"
    base = validate_scenario(doc)
    a = run_scenario(base.with_seed(42))
    b = run_scenario(base.with_seed(777))
    assert a.summary["radio"]["packets_lost"] == 17
    assert b.summary["radio"]["packets_lost"] == 15
    assert a.summary["radio"]["packets_sent"] == b.summary["radio"]["packets_sent"]
    # taps observe the air ideally, so their logs are seed-invariant
    assert a.captures["air"].to_text() == b.captures["air"].to_text()
    assert a.captures["vehicle0"].to_text() != b.captures["vehicle0"].to_text()


@pytest.fixture
def appended(monkeypatch) -> dict[int, list]:
    """id(log) -> the records appended to that log, filled in as a run goes.

    Spies on the row append that CaptureLog.append and the recorders and
    taps all go through.
    """
    seen: dict[int, list] = {}
    append_row = CaptureLog._append_row

    def spy(log, timestamp_us, interface, can_id, data):
        record = CaptureRecord(timestamp_us, interface, data, None if can_id == RADIO_ID else can_id)
        seen.setdefault(id(log), []).append(record)
        append_row(log, timestamp_us, interface, can_id, data)

    monkeypatch.setattr(CaptureLog, "_append_row", spy)
    return seen


def test_a_run_keeps_only_the_records_it_reads_or_writes(appended) -> None:
    # the paper demo: air is only sniffed for 2 s, operator0 is never read
    doc = load_fixture("replay_reverse_steer.json")
    result = run_scenario(validate_scenario(doc))
    assert set(result.captures) == {"vehicle0", "aircap"}
    assert appended == {id(log): list(log) for log in result.captures.values()}
    counts = result.summary["captures"]
    assert counts["aircap"] == len(result.captures["aircap"]) == 100
    assert counts["vehicle0"] == len(result.captures["vehicle0"])
    assert counts["operator0"] == counts["air"] == result.summary["radio"]["packets_sent"] > 0
    assert result.points["air"].sinks == []  # the 2 s sniff window closed and left the tap

    # the sniff kept exactly what a whole air log holds in its window
    doc["outputs"]["captures"]["air"] = "replay/air.log"
    whole = run_scenario(validate_scenario(doc))
    assert whole.summary == result.summary
    window = [r for r in whole.captures["air"] if r.timestamp_us < 2_000_000]
    assert window == list(result.captures["aircap"])


def test_an_occupancy_of_a_tap_keeps_its_whole_log(appended) -> None:
    scenario = make_scenario(
        duration_s=1.5,
        radio={"num_channels": 16, "hopping": True, "loss_probability": 0.1, "latency_s": 0.002},
        taps=[{"name": "air", "channels": "all"}, {"name": "quad", "channels": [0, 5, 9, 12]}],
        attacks=[{"type": "occupancy", "start_s": 1.0, "capture": "air", "save": "occ"}],
    )
    result = run_scenario(scenario)
    assert set(result.captures) == {"air"}
    air = result.captures["air"]
    assert appended == {id(air): list(air)}
    assert len(air) == result.summary["captures"]["air"] == result.summary["radio"]["packets_sent"] > 0
    # including the records after the occupancy report was made
    assert air[-1].timestamp_us > 1_000_000 > air[0].timestamp_us
    assert result.reports["occ"]["total_packets"] == sum(r.timestamp_us < 1_000_000 for r in air)


def test_summarize_rounds_observables() -> None:
    scenario = make_scenario(
        duration_s=2.0,
        fleet={"steer_enable": True, "engine_rpm": 800},
        joystick_script=[{"t_s": 0.0, "x": 25}],
    )
    bed = build_testbed(scenario)
    bed.clock.run_until(scenario.duration_us)
    bed.clock.finish()
    summary = summarize(bed)
    obs = bed.fleet.observables()
    assert summary["observables"]["wheel_angle_deg"] == round(obs.wheel_angle_deg, 6)
    assert summary["observables"]["steer_enabled"] is True
    assert summary["observables"]["wheel_angle_deg"] < -10
    # an int stays an int: rounding touches floats only
    assert '"engine_rpm": 800,' in json_text(summary)
    # each block is its layer's record, field for field
    assert set(summary["observables"]) == {f.name for f in fields(VehicleObservables)}
    for block in summary["buses"].values():
        assert set(block) == {f.name for f in fields(BusStats)}


def test_write_outputs_is_relative_to_out_dir(tmp_path) -> None:
    scenario = make_scenario(duration_s=1.0, outputs={"summary": "a/b/c/s.json"})
    result = run_scenario(scenario)
    written = write_outputs(result, tmp_path / "root")
    assert written == [("summary", tmp_path / "root" / "a" / "b" / "c" / "s.json")]
    assert written[0][1].is_file()
