"""The benchmark tracer still finds the entry points it patches.

perfbench/tracer.py wraps module globals such as runner.plan_replay and
runner.schedule_injection; the runner must look them up through those
globals at call time, or the per-layer attack metrics silently read 0.
"""

import importlib.util

from conftest import REPO_ROOT, make_scenario

from stave import run_scenario


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
        run_scenario(scenario)
    finally:
        tracer.uninstall()
    plan_calls, _, _, planned_records = tracer.stat("attack.plan")
    assert plan_calls == 1 and planned_records > 0
    assert tracer.stat("attack.inject_schedule")[0] == 1
