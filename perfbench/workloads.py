"""The three benchmark workloads: seeded inputs, one timed session, checks.

Each workload turns a seed into input files (a scenario or two capture
pairs), then runs closed-loop sessions on those files: the next session
starts only when the previous one has finished. stave sees only the
generated files. Every session's outputs are hashed, so repeats of one
seed must give the same digest, and checked against facts the generator
knows independently of stave.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

# Entry points are looked up through their modules at call time, so the
# tracer's patches on them take effect.
from stave import capture, cli, runner, scenario

JOY1_ID = 0x0CFF1028
JOY1_PGN = 0xFF10
JOYSTICK_CENTER = 125
STEER_GAIN = 0.28
STEER_LIMIT = 35.0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under root, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_log(path: Path) -> list[tuple[int, str, str]]:
    """(timestamp_us, interface, body) per line, parsed without stave."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        stamp, iface, body = line.split(" ")
        seconds, micros = stamp.strip("()").split(".")
        out.append((int(seconds) * 1_000_000 + int(micros), iface, body))
    return out


def pgn_of(can_id: int) -> int:
    pf = (can_id >> 16) & 0xFF
    pgn = (can_id >> 8) & 0x3FF00
    return pgn | ((can_id >> 8) & 0xFF) if pf >= 240 else pgn


@dataclass
class Inputs:
    """What set-up produced: the input files and what a session needs."""

    files: dict[str, Path]
    facts: dict = field(default_factory=dict)
    scenario: object = None

    def digests(self) -> dict[str, str]:
        return {name: sha256_file(path) for name, path in sorted(self.files.items())}


@dataclass
class SessionOutput:
    """What one session produced, for counting and checking."""

    sim_seconds: float
    frames: int
    result: object = None


class Workload:
    name = ""
    why = ""

    def setup(self, seed: int, workdir: Path) -> Inputs:
        raise NotImplementedError

    def expect(self, inputs: Inputs) -> dict:
        """Facts the checks need that take reading the inputs; not timed."""
        return {}

    def session(self, inputs: Inputs, outdir: Path) -> SessionOutput:
        raise NotImplementedError

    def check(self, inputs: Inputs, out: SessionOutput, outdir: Path) -> list[str]:
        """Problems found in one session's outputs; empty when correct."""
        raise NotImplementedError

    def capture_logs(self, inputs: Inputs, outdir: Path) -> list:
        """The capture logs a session holds in memory at its end."""
        raise NotImplementedError


class _ScenarioWorkload(Workload):
    """A workload whose session is `stave run` on one generated scenario."""

    def scenario_doc(self, rng: random.Random) -> tuple[dict, dict]:
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path) -> Inputs:
        doc, facts = self.scenario_doc(random.Random(f"{self.name}/{seed}"))
        path = workdir / "scenario.json"
        write_json(path, doc)
        facts["duration_s"] = doc["duration_s"]
        return Inputs(files={"scenario.json": path}, facts=facts,
                      scenario=scenario.load_scenario(path))

    def session(self, inputs: Inputs, outdir: Path) -> SessionOutput:
        result = runner.run_scenario(inputs.scenario, out_dir=outdir)
        frames = sum(bus["frames_delivered"] for bus in result.summary["buses"].values())
        return SessionOutput(inputs.facts["duration_s"], frames, result)

    def capture_logs(self, inputs, outdir):
        return list(self.session(inputs, outdir).result.captures.values())


REPLAY_DEMO = {
    "schema": "stave-scenario/1",
    "fleet": {"steer_enable": True},
    "taps": [{"name": "air", "channels": "all", "inside_faraday": True}],
    "attacks": [
        {"type": "sniff", "start_s": 0.0, "duration_s": 2.0, "save": "aircap",
         "attachment": {"kind": "radio-tap", "tap": "air"}},
        {"type": "replay", "start_s": 2.01, "capture": "aircap", "match": {"pgn": "0xFF10"},
         "mutate": "byte0=reflect(250)", "timing": "preserve", "save": "sched"},
        {"type": "inject", "start_s": 2.01, "schedule": "sched", "repeat": True,
         "attachment": {"kind": "radio", "strategy": {"mode": "fixed", "channel": 0},
                        "inside_faraday": True}},
    ],
    "outputs": {
        "summary": "replay/summary.json",
        "captures": {"aircap": "replay/sniffed.log", "vehicle0": "replay/vehicle0.log"},
        "reports": {"sched": "replay/schedule.json"},
    },
}


class ReplayAttack(_ScenarioWorkload):
    name = "replay_attack"
    why = ("The paper's demo, the headline use: every simulation layer runs, and the "
           "repeat injector pre-schedules O(duration) events on a lightly loaded bus.")

    def scenario_doc(self, rng):
        x = rng.randint(0, 110)
        doc = json.loads(json.dumps(REPLAY_DEMO))
        doc.update(seed=rng.randrange(2**31), duration_s=20.0,
                   joystick_script=[{"t_s": 0.0, "x": x, "y": 125, "button": 0}])
        mirrored = max(-STEER_LIMIT, min(STEER_LIMIT, (JOYSTICK_CENTER - x) * STEER_GAIN))
        return doc, {"x": x, "expected_wheel_deg": round(mirrored, 6)}

    def check(self, inputs, out, outdir):
        got = out.result.summary["observables"]["wheel_angle_deg"]
        want = inputs.facts["expected_wheel_deg"]
        if abs(got - want) > 1e-6:
            return [f"wheel ends at {got} deg, mirrored angle is {want} deg"]
        return []


DENSE_CYCLES_MS = {"JOY1": 5, "STR1": 5, "HYD1": 5, "EEC1": 5, "PWR1": 10, "LED1": 10}


class DenseHopping(_ScenarioWorkload):
    name = "dense_hopping"
    why = ("Shortened cycles give ~50% bus load and ~10x the frames per simulated second, "
           "with arbitration contention, 16-channel hopping, 10% loss, tap filtering, no attack.")

    def scenario_doc(self, rng):
        duration = 1.5
        script, t = [], 0.0
        while t < duration:
            script.append({"t_s": round(t, 3), "x": rng.randint(0, 250), "y": rng.randint(0, 250),
                           "button": rng.randint(0, 1)})
            t += rng.uniform(0.05, 0.5)
        quad = sorted(rng.sample(range(16), 4))
        occupancy_at = round(duration - 0.01, 3)
        doc = {
            "schema": "stave-scenario/1",
            "seed": rng.randrange(2**31),
            "duration_s": duration,
            "radio": {"num_channels": 16, "hopping": True, "hop_seed": rng.randrange(2**63),
                      "loss_probability": 0.1, "latency_s": 0.002},
            "fleet": {"steer_enable": True,
                      "catalog": {name: {"cycle_ms": ms} for name, ms in DENSE_CYCLES_MS.items()}},
            "joystick_script": script,
            "taps": [{"name": "air", "channels": "all"}, {"name": "quad", "channels": quad}],
            "attacks": [{"type": "occupancy", "start_s": occupancy_at, "capture": "air",
                         "save": "occ"}],
            "outputs": {
                "summary": "dense/summary.json",
                "captures": {"air": "dense/air.log", "quad": "dense/quad.log"},
                "reports": {"occ": "dense/occupancy.json"},
            },
        }
        return doc, {"quad": quad, "latency_us": round(doc["radio"]["latency_s"] * 1e6),
                     "occupancy_at_us": round(occupancy_at * 1e6)}

    def check(self, inputs, out, outdir):
        facts = inputs.facts
        radio = out.result.summary["radio"]
        air = read_log(outdir / "dense/air.log")
        quad = read_log(outdir / "dense/quad.log")
        occupancy = json.loads((outdir / "dense/occupancy.json").read_text(encoding="utf-8"))
        horizon_us = round(facts["duration_s"] * 1e6)
        problems = []
        # A packet sent less than one latency before the horizon is still in
        # flight when the run stops: sent but neither delivered nor dropped.
        in_flight = sum(1 for ts, _, _ in air if ts + facts["latency_us"] > horizon_us)
        unaccounted = radio["packets_sent"] - (radio["endpoint_delivered"] + radio["packets_lost"]
                                               + radio["channel_rejected"] + radio["crc_dropped"])
        if not 0 <= unaccounted <= in_flight:
            problems.append(f"radio counters leave {unaccounted} packets unaccounted "
                            f"({in_flight} in flight)")
        if len(air) != radio["packets_sent"]:
            problems.append(f"all-band tap heard {len(air)} of {radio['packets_sent']} packets")
        on_quad = [rec for rec in air if int(rec[2][6:8], 16) in facts["quad"]]
        if [(ts, body) for ts, _, body in on_quad] != [(ts, body) for ts, _, body in quad]:
            problems.append("4-channel tap log differs from the all-band log filtered to its channels")
        # the report event was queued before the run, so it fires ahead of
        # any packet sent at the same instant
        heard = sum(1 for ts, _, _ in air if ts < facts["occupancy_at_us"])
        if occupancy["total_packets"] != heard:
            problems.append(f"occupancy counts {occupancy['total_packets']} packets, air log has {heard}")
        return problems


def _capture_doc(seed: int, duration: float, script: list[dict], name: str) -> dict:
    return {
        "schema": "stave-scenario/1",
        "seed": seed,
        "duration_s": duration,
        "radio": {"num_channels": 16, "hopping": True, "hop_seed": seed},
        "fleet": {"steer_enable": False},
        "joystick_script": script,
        "taps": [{"name": "air", "channels": "all"}],
        "outputs": {"captures": {"vehicle0": f"{name}/vehicle0.log", "air": f"{name}/air.log"}},
    }


class OfflineToolkit(Workload):
    name = "offline_toolkit"
    why = ("The attack analyses read captures back from text: parsing, decapsulation, diff, "
           "occupancy and replay planning dominate, and no simulation layer runs.")

    def setup(self, seed, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        duration = 30.0
        stave_seed = rng.randrange(2**31)
        with_button = rng.random() < 0.5
        script, t, button_used = [{"t_s": 0.0, "x": JOYSTICK_CENTER, "button": 0}], 1.0, False
        while t < duration - 1.0:
            button = rng.randint(0, 1) if with_button else 0
            button_used = button_used or button == 1
            script.append({"t_s": round(t, 3),
                           "x": rng.choice([v for v in range(251) if v != JOYSTICK_CENTER]),
                           "button": button})
            t += rng.uniform(0.15, 0.5)
        files = {}
        for name, steps in (("idle", script[:1]), ("active", script)):
            path = workdir / f"{name}.json"
            write_json(path, _capture_doc(stave_seed, duration, steps, name))
            runner.run_scenario(scenario.load_scenario(path), out_dir=workdir)
            for log in ("vehicle0", "air"):
                files[f"{name}/{log}.log"] = workdir / name / f"{log}.log"
        flagged = [(f"0x{JOY1_ID:08X}", 0)] + ([(f"0x{JOY1_ID:08X}", 2)] if button_used else [])
        # a session reads four captures: both air logs, the active air log
        # again and the active wired log
        return Inputs(files=files, facts={"flagged": flagged, "capture_s": 4 * duration})

    def expect(self, inputs):
        logs = {name: read_log(path) for name, path in inputs.files.items()}
        plan = []
        for ts, _, body in logs["active/vehicle0.log"]:
            can_id, data = body.split("#")
            if pgn_of(int(can_id, 16)) == JOY1_PGN:
                raw = bytes.fromhex(data)
                plan.append((ts, can_id, bytes((250 - raw[0],)) + raw[1:]))
        return {
            "plan": plan,
            "air_packets": len(logs["active/air.log"]),
            "records": sum(len(logs[name]) for name in
                           ("idle/air.log", "active/air.log", "active/air.log", "active/vehicle0.log")),
        }

    def commands(self, inputs, outdir):
        f = {name: str(path) for name, path in inputs.files.items()}
        return [
            ["diff", f["idle/air.log"], f["active/air.log"], "--report", str(outdir / "diff.json")],
            ["occupancy", f["active/air.log"], "--report", str(outdir / "occupancy.json")],
            ["replay-plan", f["active/vehicle0.log"], "--match-pgn", "0xFF10",
             "--mutate", "byte0=reflect(250)", "--out", str(outdir / "plan.json")],
        ]

    def capture_logs(self, inputs, outdir):
        # one radio and one wired log, as a session parses them
        return [capture.CaptureLog.load(inputs.files[name])
                for name in ("active/air.log", "active/vehicle0.log")]

    def session(self, inputs, outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        codes = []
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in self.commands(inputs, outdir):
                codes.append(cli.main(argv))
        if any(codes):
            raise RuntimeError(f"stave exited with {codes}")
        return SessionOutput(inputs.facts["capture_s"], inputs.facts["records"])

    def check(self, inputs, out, outdir):
        facts = inputs.facts
        problems = []
        diff = json.loads((outdir / "diff.json").read_text(encoding="utf-8"))
        flagged = sorted((entry["can_id"], byte["offset"])
                         for entry in diff["flagged"] for byte in entry["bytes"])
        if flagged != facts["flagged"]:
            problems.append(f"diff flagged {flagged}, script varied {facts['flagged']}")
        if diff["rate_changes"] or diff["ids_only_in_pre"] or diff["ids_only_in_post"]:
            problems.append("diff reports rate changes or one-sided ids between equal-length captures")
        plan = json.loads((outdir / "plan.json").read_text(encoding="utf-8"))["entries"]
        t0 = facts["plan"][0][0] if facts["plan"] else 0
        want = [(round((ts - t0) / 1e6, 6), f"0x{can_id}", data.hex().upper())
                for ts, can_id, data in facts["plan"]]
        got = [(round(e["delay_s"], 6), e["can_id"], e["data"]) for e in plan]
        if got != want:
            problems.append(f"replay plan has {len(got)} entries that do not all carry "
                            f"byte0 = 250 - original ({len(want)} expected)")
        occupancy = json.loads((outdir / "occupancy.json").read_text(encoding="utf-8"))
        if occupancy["total_packets"] != facts["air_packets"]:
            problems.append(f"occupancy counts {occupancy['total_packets']} of "
                            f"{facts['air_packets']} packets")
        return problems


WORKLOADS = {cls.name: cls for cls in (ReplayAttack, DenseHopping, OfflineToolkit)}


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
