"""Count the calls the simulated frame path makes per delivered frame.

Runs three scenarios in-process under sys.setprofile and counts only
the run phase (SimClock.run_until), not the build or the outputs:

- the demo: scenarios/replay_reverse_steer.json run to 120 s, outputs off;
- each scenario workload of perfbench/workloads.py at seed 1, generated
  as the benchmark generates it.

Python calls are counted by the module of the called function, C calls
by the module that made them. The counts depend on the interpreter, so
compare only documents from one Python version. Wall time is not read,
so a document repeats exactly across runs and hash seeds. Run from the
root of a checkout:

    python3 ledger/calls.py

It prints one JSON document to standard output.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from stave import runner, scenario  # noqa: E402
import workloads  # noqa: E402

DEMO = ROOT / "scenarios" / "replay_reverse_steer.json"
DEMO_SECONDS = 120
SEED = 1
SCENARIO_WORKLOADS = ("replay_attack", "dense_hopping")  # the benchmark workloads that run a scenario


def count_run(scen) -> dict:
    """The calls of one run of scen, by kind and module, and per delivered frame."""
    bed = runner.build_testbed(scen)
    python, native = Counter(), Counter()

    def profile(frame, event, arg):
        if event == "call":
            python[frame.f_globals.get("__name__", "?")] += 1
        elif event == "c_call":
            native[frame.f_globals.get("__name__", "?")] += 1

    sys.setprofile(profile)
    try:
        bed.clock.run_until(scen.duration_us)
    finally:
        sys.setprofile(None)
    frames = sum(bus.stats.frames_delivered for bus in bed.buses.values())
    calls = sum(python.values()) + sum(native.values())
    return {
        "frames_delivered": frames,
        "python_calls": sum(python.values()),
        "c_calls": sum(native.values()),
        "calls_per_frame": round(calls / frames, 2) if frames else None,
        "python_by_module": dict(sorted(python.items())),
        "c_by_module": dict(sorted(native.items())),
    }


def demo_scenario():
    doc = json.loads(DEMO.read_text(encoding="utf-8"))
    doc["duration_s"] = DEMO_SECONDS
    del doc["outputs"]
    return scenario.validate_scenario(doc)


def workload_scenario(name: str):
    workload = workloads.WORKLOADS[name]()
    with tempfile.TemporaryDirectory() as tmp:
        return workload.setup(SEED, Path(tmp)).scenario


def main() -> int:
    doc = {
        "python": platform.python_version(),
        "demo": {"scenario": DEMO.name, "duration_s": DEMO_SECONDS, **count_run(demo_scenario())},
        "workloads": {name: {"seed": SEED, **count_run(workload_scenario(name))} for name in SCENARIO_WORKLOADS},
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
