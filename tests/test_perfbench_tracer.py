"""The benchmark tracer still finds the entry points it patches.

perfbench/tracer.py wraps module globals such as runner.plan_replay and
runner.schedule_injection; the runner must look them up through those
globals at call time, or the per-layer attack metrics silently read 0.
The tracer names a listener or an event after the module that defined it,
so the bridge's listener and the medium's deliveries must stay in radio.py.
"""

import importlib.util

from conftest import REPO_ROOT, make_scenario

from stave import CaptureLog, CaptureRecord, cli, run_scenario


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_replay_planning_and_injection() -> None:
    scenario = make_scenario(
        duration_s=3.0,
        attacks=[
            {"type": "replay", "start_s": 1.0, "capture": "vehicle0",
             "match": {"pgn": "0xFF10"}, "save": "sched"},
            {"type": "inject", "start_s": 1.0, "schedule": "sched", "repeat": True,
             "attachment": {"kind": "radio"}},
        ],
    )
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        bed = run_scenario(scenario)
    finally:
        tracer.uninstall()
    plan_calls, _, _, planned_records = tracer.stat("attack.plan")
    assert plan_calls == 1 and planned_records > 0
    assert tracer.stat("attack.inject_schedule")[0] == 1
    # a bridge endpoint is a radio injector whose send_frame listens to its segment:
    # its listener spans and the medium's delivery events keep the radio layer's names
    radio, inject = bed.medium.stats, bed.summary["attacks"][1]
    assert inject["delivered"] > 0
    assert tracer.stat("radio.on_frame")[0] == radio.packets_sent - inject["sent"]
    assert tracer.stat("attack.on_frame")[0] == 0
    # no loss and no rejection: one delivery event per delivered bridge packet, which
    # reaches the other endpoint, and per delivered injected packet, which reaches both
    assert tracer.stat("radio.event")[0] == radio.endpoint_delivered - inject["delivered"]


def test_tracer_sees_offline_diff_and_occupancy(tmp_path, capsys) -> None:
    pre, post = CaptureLog(), CaptureLog()
    for ts in (0, 100, 200):
        pre.append(CaptureRecord(ts, "vehicle0", b"\x01", 0x0CFF1028))
    for ts in (0, 100):
        post.append(CaptureRecord(ts, "air", b"\xa5\x5a\x03"))
    pre.save(tmp_path / "pre.log")
    post.save(tmp_path / "post.log")
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert cli.main(["diff", str(tmp_path / "pre.log"), str(tmp_path / "post.log"),
                         "--report", str(tmp_path / "diff.json")]) == 0
        assert cli.main(["occupancy", str(tmp_path / "post.log")]) == 0
    finally:
        tracer.uninstall()
    diff_calls, _, _, diffed_records = tracer.stat("attack.diff")
    assert (diff_calls, diffed_records) == (1, len(pre) + len(post))
    assert tracer.stat("attack.occupancy")[0] == 1

