"""stave benchmark: three seeded closed-loop workloads, one command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload replay_attack --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics, measured with no
tracing; with --trace 1 it prints the per-layer metrics from a traced
run, plus the tracing overhead. Either way every session's outputs are
checked, the details (seed, input digests, interpreter, sample counts,
failures, the profile of replay_attack) go to
.perfbench/results/<workload>-seed<seed>-trace<t>.json, and the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 only when every session passed its checks.
"""

from __future__ import annotations

import argparse
import cProfile
import gzip
import json
import os
import platform
import pstats
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up is repeated back to back before the timed loop, at least
# SETUP_MIN_REPEATS times and for at least SETUP_MIN_SECONDS, and
# setup_s is the median of the repeats.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0

END_TO_END_UNITS = {
    "sim_speed": "sim_s/s",
    "frames_per_s": "1/s",
    "session_p90_ms": "ms",
    "peak_heap_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.peak_pending": "count",
    "sim.dispatch_ns": "ns",
    "bus.frames": "count",
    "bus.load": "ratio",
    "bus.event_ns": "ns",
    "bus.submit_ns": "ns",
    "radio.transmit_ns": "ns",
    "radio.receive_ns": "ns",
    "radio.crc_ns": "ns",
    "radio.accept_ratio": "ratio",
    "capture.records": "count",
    "capture.append_ns": "ns",
    "capture.serialize_ns": "ns",
    "capture.parse_ns": "ns",
    "capture.heap_bytes_per_record": "B",
    "fleet.tick_ns": "ns",
    "fleet.on_frame_ns": "ns",
    "j1939.decode_id_ns": "ns",
    "j1939.decode_id_per_frame": "count",
    "j1939.frame_ns": "ns",
    "attack.inject_schedule_ms": "ms",
    "attack.inject_delivery_ratio": "ratio",
    "attack.diff_ns": "ns",
    "attack.plan_ns": "ns",
    "scenario.validate_ms": "ms",
    "runner.build_ms": "ms",
    "runner.write_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace.overhead": "ratio",
}


def import_stave():
    """Import stave from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stave
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import stave from {src}: {exc}")
    if Path(stave.__file__).resolve().parent != (src / "stave").resolve():
        raise SystemExit(f"perfbench: stave was imported from {stave.__file__}, not from {src}")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Ledger:
    """Every session attempted in a run, and what went wrong in any of them."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None

    def run(self, outdir: Path, session):
        """Run one session through `session(outdir)` and check what it wrote.

        Returns (wall seconds, SessionOutput), or None when it failed.
        """
        from workloads import reset_dir, tree_digest

        reset_dir(outdir)
        self.attempted += 1
        try:
            start = time.perf_counter()
            out = session(outdir)
            elapsed = time.perf_counter() - start
            problems = self.workload.check(self.inputs, out, outdir)
            digest = tree_digest(outdir)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append(f"output digest {digest[:12]} differs from {self.digest[:12]} "
                                "for the same inputs")
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 10 - len(self.problems))])
            return None
        return elapsed, out


class SetUp:
    """Generates a workload's inputs and times each generation.

    Every repeat must write the same files as the first.
    """

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.times: list[float] = []
        self.digests: set[str] = set()

    def once(self, name: str = "inputs"):
        from workloads import reset_dir

        workdir = reset_dir(self.workdir / name)
        start = time.perf_counter()
        inputs = self.workload.setup(self.seed, workdir)
        self.times.append(time.perf_counter() - start)
        inputs.facts.update(self.workload.expect(inputs))
        self.digests.add(json.dumps(inputs.digests(), sort_keys=True))
        return inputs

    def repeat(self) -> None:
        while len(self.times) < SETUP_MIN_REPEATS or sum(self.times) < SETUP_MIN_SECONDS:
            self.once("again")

    def problems(self) -> list[str]:
        if len(self.digests) > 1:
            return ["input generation differs between repeats of one seed"]
        return []


def closed_loop(ledger: Ledger, outdir: Path, seconds: float, sessions):
    """Run sessions back to back until `seconds` have passed.

    `sessions` is a list of (label, callable) taken in turn, always
    finishing a round; each callable runs one session into a directory.
    Yields (label, (wall seconds, SessionOutput)) for each that passed.
    """
    deadline = time.perf_counter() + seconds
    turn = 0
    while time.perf_counter() < deadline or turn % len(sessions):
        label, session = sessions[turn % len(sessions)]
        done = ledger.run(outdir, session)
        if done is not None:
            yield label, done
        turn += 1


def peak_heap(ledger: Ledger, outdir: Path, session) -> float:
    """tracemalloc peak of one session, in MB (an untimed pass).

    Only the session itself is traced, not the checks that follow it.
    """
    peaks = []

    def traced(outdir):
        tracemalloc.start()
        try:
            return session(outdir)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    ledger.run(outdir, traced)
    return peaks[0] / 1e6


def end_to_end(workload, inputs, ledger, setup: SetUp, work: Path, seconds: float) -> tuple[dict, dict]:
    session = lambda outdir: workload.session(inputs, outdir)
    outdir = work / "out"
    setup.repeat()
    ledger.run(outdir, session)  # warm-up, untimed
    times, out = [], None
    for _, (elapsed, out) in closed_loop(ledger, outdir, seconds, [("plain", session)]):
        times.append(elapsed)
    heap_mb = peak_heap(ledger, outdir, session)
    if not times:
        return {}, {}
    # Every timing comes from the 90th-percentile session, not the median.
    # On a shared host, session times fall into two groups about 1.7x
    # apart (core to ourselves or contended) and the median jumps between
    # them from run to run; the 90th percentile stays in one group.
    p90 = percentile(times, 90)
    metrics = {
        "sim_speed": out.sim_seconds / p90,
        "frames_per_s": out.frames / p90,
        "session_p90_ms": p90 * 1e3,
        "peak_heap_mb": heap_mb,
        "setup_s": statistics.median(setup.times),
    }
    details = {
        "sessions": len(times),
        "sessions_beyond_p90": sum(1 for t in times if t > p90),
        "session_min_ms": min(times) * 1e3,
        "session_p50_ms": statistics.median(times) * 1e3,
        "sim_seconds_per_session": out.sim_seconds,
        "frames_per_session": out.frames,
        "session_ms": [round(t * 1e3, 3) for t in times],
        "setup_s": [round(t, 6) for t in setup.times],
    }
    return metrics, details


def retained_bytes_per_record(workload, inputs, work: Path) -> float:
    """Heap held per capture record once a workload's logs exist."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        logs = workload.capture_logs(inputs, work / "heap")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    records = {id(record) for log in logs for record in log}
    return ratio(held, len(records))


def profile_top(workload, inputs, work: Path, limit: int = 10) -> list[dict]:
    """cProfile of one session, top functions by tottime."""
    profiler = cProfile.Profile()
    profiler.runcall(workload.session, inputs, work / "profile")
    stats = pstats.Stats(profiler)
    rows = sorted(stats.stats.items(), key=lambda item: item[1][2], reverse=True)[:limit]
    top = []
    for (filename, line, func), (_, ncalls, tottime, cumtime, _) in rows:
        path = Path(filename)
        where = path.relative_to(ROOT).as_posix() if path.is_relative_to(ROOT) else path.name
        top.append({"function": f"{where}:{line}({func})", "ncalls": ncalls,
                    "tottime_s": round(tottime, 6), "cumtime_s": round(cumtime, 6)})
    return top


def per_layer(workload, inputs, ledger, work: Path, seconds: float, seed: int) -> tuple[dict, dict]:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        workload.setup(seed, work / "traced-setup")
    finally:
        tracer.uninstall()
    validate_calls, _, validate_ns, _ = tracer.stat("scenario.validate")
    tracer.reset_totals()

    def traced(outdir):
        tracer.scheduled = tracer.dispatched = 0
        tracer.install()
        try:
            out = workload.session(inputs, outdir)
        finally:
            tracer.uninstall()
            tracer.keep_spans = False
        peaks.append(tracer.peak_pending)
        tracer.peak_pending = 0
        return out

    def plain(outdir):
        return workload.session(inputs, outdir)

    peaks: list[int] = []
    outdir = work / "out"
    ledger.run(outdir, plain)  # warm-up, untimed
    tracer.keep_spans = True
    times = {"plain": [], "traced": []}
    outs = []
    for label, (elapsed, out) in closed_loop(ledger, outdir, seconds,
                                             [("plain", plain), ("traced", traced)]):
        times[label].append(elapsed)
        if label == "traced":
            outs.append(out)
    if not outs:
        return {}, {}
    n = len(outs)
    summaries = [out.result.summary for out in outs if out.result is not None]
    frames = sum(sum(b["frames_delivered"] for b in s["buses"].values()) for s in summaries)
    radio = [s["radio"] for s in summaries]
    attempts = sum(r["endpoint_delivered"] + r["packets_lost"] + r["channel_rejected"]
                   + r["crc_dropped"] for r in radio)
    injects = [a for s in summaries for a in s["attacks"] if a["type"] == "inject"]

    def per_call(name, kind="self"):
        calls, self_ns, total_ns, _ = tracer.stat(name)
        return ratio(self_ns if kind == "self" else total_ns, calls)

    def per_work(name):
        _, _, total_ns, items = tracer.stat(name)
        return ratio(total_ns, items)

    appends, _, append_ns, _ = tracer.stat("capture.append")
    _, _, record_ns, _ = tracer.stat("capture.record")
    _, parsed_record_ns = tracer.nested("capture.parse", "capture.record")
    inits, _, init_ns, _ = tracer.stat("j1939.frame")
    copies, _, copy_ns, _ = tracer.stat("j1939.frame_at")
    copy_inits, copy_init_ns = tracer.nested("j1939.frame_at", "j1939.frame")
    run_until_self_ns = tracer.stat("sim.run_until")[1]
    events = sum(tracer.calls[nid] for nid, name in enumerate(tracer.names) if name.endswith(".event"))
    decode_calls = tracer.stat("j1939.decode_id")[0]

    metrics = {
        "sim.events": events / n,
        "sim.peak_pending": max(peaks, default=0),
        "sim.dispatch_ns": ratio(run_until_self_ns, events),
        "bus.frames": frames / n,
        "bus.load": max((b["bus_load"] for s in summaries for b in s["buses"].values()), default=0.0),
        "bus.event_ns": ratio(tracer.stat("bus.event")[1], frames),
        "bus.submit_ns": per_call("bus.submit"),
        "radio.transmit_ns": per_call("radio.transmit"),
        "radio.receive_ns": per_call("radio.event"),
        "radio.crc_ns": per_call("radio.crc", "total"),
        "radio.accept_ratio": ratio(sum(r["endpoint_delivered"] for r in radio), attempts),
        "capture.records": appends / n,
        "capture.append_ns": ratio(append_ns + record_ns - parsed_record_ns, appends),
        "capture.serialize_ns": per_call("capture.serialize", "total"),
        "capture.parse_ns": per_call("capture.parse", "total"),
        "capture.heap_bytes_per_record": retained_bytes_per_record(workload, inputs, work),
        "fleet.tick_ns": per_call("fleet.event"),
        "fleet.on_frame_ns": per_call("fleet.on_frame", "total"),
        "j1939.decode_id_ns": per_call("j1939.decode_id", "total"),
        "j1939.decode_id_per_frame": ratio(decode_calls, frames),
        "j1939.frame_ns": ratio(init_ns + copy_ns - copy_init_ns, inits + copies - copy_inits),
        "attack.inject_schedule_ms": per_call("attack.inject_schedule", "total") / 1e6,
        "attack.inject_delivery_ratio": ratio(sum(a["delivered"] for a in injects),
                                              sum(a["sent"] for a in injects)),
        "attack.diff_ns": per_work("attack.diff"),
        "attack.plan_ns": per_work("attack.plan"),
        "scenario.validate_ms": ratio(validate_ns, validate_calls) / 1e6,
        "runner.build_ms": per_call("runner.build", "total") / 1e6,
        "runner.write_ms": per_call("runner.write", "total") / 1e6,
        "cli.overhead_ms": per_call("cli.main") / 1e6,
        "trace.overhead": ratio(statistics.median(times["traced"]), statistics.median(times["plain"])),
    }
    spans = {name: {"calls": tracer.calls[nid], "self_ns": tracer.self_ns[nid],
                    "total_ns": tracer.total_ns[nid]}
             for nid, name in enumerate(tracer.names) if tracer.calls[nid]}
    details = {
        "traced_sessions": n,
        "plain_sessions": len(times["plain"]),
        "traced_ms_median": statistics.median(times["traced"]) * 1e3,
        "plain_ms_median": statistics.median(times["plain"]) * 1e3,
        "spans_checked": tracer.span_count,
        "span_violations": tracer.violations,
        "span_totals": spans,
    }
    if tracer.violations:
        ledger.failed += 1
        ledger.problems.append(f"{tracer.violations} spans end before they start or "
                               "hold more child time than their duration")
    spans_path = work.parent / "results" / f"{workload.name}-seed{seed}-spans.jsonl.gz"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        for row in tracer.span_rows():
            fh.write(json.dumps(row) + "\n")
    details["spans_file"] = spans_path.relative_to(ROOT).as_posix()
    if workload.name == "replay_attack":
        details["profile_top10_tottime"] = profile_top(workload, inputs, work)
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_stave()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    base = ROOT / ".perfbench"
    work = base / f"work-{os.getpid()}"
    try:
        setup = SetUp(workload, args.seed, work / "setup")
        inputs = setup.once()
        input_digests = inputs.digests()
        ledger = Ledger(workload, inputs)
        if args.trace:
            metrics, details = per_layer(workload, inputs, ledger, work, args.seconds, args.seed)
            units = PER_LAYER_UNITS
        else:
            metrics, details = end_to_end(workload, inputs, ledger, setup, work, args.seconds)
            units = END_TO_END_UNITS
        ledger.problems.extend(setup.problems())
        ledger.failed += len(setup.problems())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = ledger.failed == 0 and set(metrics) == set(units)
    results = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": input_digests,
        "output_sha256": ledger.digest,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_ratio": ratio(ledger.failed, ledger.attempted),
        "problems": ledger.problems,
        "metrics": metrics,
        **details,
    }
    results_path = base / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")

    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"inputs {json.dumps(results['inputs_sha256'])}")
    print(f"python {results['python']} nproc {results['nproc']}; "
          f"details in {results_path.relative_to(ROOT)}")
    for problem in ledger.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for row in details.get("profile_top10_tottime", []):
        print(f"profile {row['tottime_s']:10.6f} s {row['ncalls']:>8} {row['function']}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'fail_ratio':32s} {results['fail_ratio']:14.6g} ({ledger.failed}/{ledger.attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
