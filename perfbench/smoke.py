"""Fast smoke check of the benchmark harness.

Runs every workload from BENCHMARK.json for one second,
with and without tracing, and checks that each run passes its
correctness checks and reports exactly the metric names BENCHMARK.json
declares. It checks no timing. Run from the root of a checkout:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload} --trace {trace}"
            before = len(failures)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{label}: no result line (exit {proc.returncode})\n{proc.stderr}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{label}: exit {proc.returncode}, result {lines[-1]}\n{proc.stderr}")
            if sorted(result["metrics"]) != sorted(expected[trace]):
                failures.append(f"{label}: metrics {sorted(result['metrics'])}, "
                                f"BENCHMARK.json declares {sorted(expected[trace])}")
            print(f"{label}: {'ok' if len(failures) == before else 'FAILED'}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
