"""Scenario execution: build the virtual testbed, run it, collect outputs.

The wiring is fixed so that equal scenarios produce byte-identical
outputs: two CAN segments ("operator0" carrying joystick and display,
"vehicle0" carrying the five vehicle ECUs), a passive recorder on each
segment, a radio medium bridging the segments through two endpoints,
any declared taps, the vehicle itself, and finally the attack timeline.
The only randomness is the radio loss draw, seeded from the scenario
seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from .attack import (
    RadioInjector,
    ReplaySchedule,
    WiredInjector,
    channel_occupancy,
    diff_captures,
    plan_replay,
    schedule_injection,
    sniff,
)
from .bus import CanBus
from .capture import KIND_CAN, CaptureLog, CaptureRecord
from .fleet import Fleet, VehicleObservables
from .radio import RadioMedium, Tap
from .scenario import (
    SEGMENT_NAMES,
    DiffSpec,
    InjectSpec,
    OccupancySpec,
    ReplaySpec,
    Scenario,
    SniffSpec,
)
from .sim import SimClock, seconds_from_us

SUMMARY_SCHEMA = "stave-summary/1"
OCCUPANCY_SCHEMA = "stave-occupancy/1"


def json_text(doc: dict) -> str:
    """Canonical JSON rendering used for every report and summary file."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class _Recorder:
    """Passive bus node that logs every delivered frame."""

    def __init__(self, bus: CanBus):
        self.interface = bus.name
        self.log = CaptureLog()
        self.handle = bus.attach("recorder", on_frame=self._on_frame)

    def _on_frame(self, frame) -> None:
        self.log.append(CaptureRecord(
            timestamp_us=frame.timestamp_us,
            interface=self.interface,
            kind=KIND_CAN,
            data=frame.data,
            can_id=frame.can_id,
        ))


@dataclass
class Testbed:
    """A fully wired simulation, ready to run."""

    scenario: Scenario
    clock: SimClock
    buses: dict[str, CanBus]
    medium: RadioMedium
    fleet: Fleet
    captures: dict[str, CaptureLog]
    reports: dict[str, dict] = field(default_factory=dict)
    schedules: dict[str, ReplaySchedule] = field(default_factory=dict)
    # one per attack, in list order: builds its summary entry after the run
    attack_summaries: list[Callable[[], dict]] = field(default_factory=list)


def loss_rng(seed: int) -> random.Random:
    """The radio loss stream for a scenario seed.

    Seeded with a string so the stream is stable across processes and
    platforms regardless of hash randomization.
    """
    return random.Random(f"{seed}/radio-loss")


def build_testbed(scenario: Scenario) -> Testbed:
    """Construct buses, radio, vehicle, and attack timeline for a scenario."""
    clock = SimClock()
    buses = {name: CanBus(clock, name, scenario.bus) for name in SEGMENT_NAMES}
    recorders = [_Recorder(bus) for bus in buses.values()]

    medium = RadioMedium(clock, scenario.radio, rng=loss_rng(scenario.seed))
    captures: dict[str, CaptureLog] = {r.interface: r.log for r in recorders}
    for spec in scenario.taps:
        tap = medium.add_tap(Tap(name=spec.name, channels=spec.channels, inside_faraday=spec.inside_faraday))
        captures[spec.name] = tap.log
    medium.create_endpoint(buses["operator0"], "bridge_op")
    medium.create_endpoint(buses["vehicle0"], "bridge_veh")

    fleet = Fleet(
        clock,
        buses["operator0"],
        buses["vehicle0"],
        catalog=scenario.catalog,
        script=scenario.script,
        steer_enable=scenario.steer_enable,
        engine_rpm=scenario.engine_rpm,
        machine_voltage=scenario.machine_voltage,
    )

    bed = Testbed(
        scenario=scenario,
        clock=clock,
        buses=buses,
        medium=medium,
        fleet=fleet,
        captures=captures,
    )
    # list order breaks same-instant ties between attack events
    bed.attack_summaries = [_RUN_STEPS[type(spec)](bed, spec, index)
                            for index, spec in enumerate(scenario.attacks)]
    return bed


def occupancy_report(capture: str, counts: list[tuple[int, int]]) -> dict:
    """The stave-occupancy/1 document for a capture's per-channel counts."""
    return {
        "schema": OCCUPANCY_SCHEMA,
        "capture": capture,
        "channels": [{"channel": c, "count": n} for c, n in counts],
        "total_packets": sum(n for _, n in counts),
    }


# One run step per attack type: queue the attack's events on the clock
# and return the function that builds its summary entry after the run.

def _run_sniff(bed: Testbed, spec: SniffSpec, index: int) -> Callable[[], dict]:
    source = bed.captures[spec.source]

    def materialize():
        bed.captures[spec.save] = sniff(source, spec.start_us, spec.duration_us)

    bed.clock.schedule(spec.start_us + spec.duration_us, materialize)
    return lambda: {"type": "sniff", "save": spec.save, "records": len(bed.captures[spec.save])}


def _run_diff(bed: Testbed, spec: DiffSpec, index: int) -> Callable[[], dict]:
    def run_diff():
        report = diff_captures(bed.captures[spec.pre], bed.captures[spec.post])
        bed.reports[spec.save] = report.to_json_dict()

    def summary():
        report = bed.reports[spec.save]
        return {
            "type": "diff", "save": spec.save,
            "flagged_ids": len(report["flagged"]),
            "flagged_bytes": sum(len(entry["bytes"]) for entry in report["flagged"]),
            "ids_only_in_pre": len(report["ids_only_in_pre"]),
            "ids_only_in_post": len(report["ids_only_in_post"]),
            "rate_changes": len(report["rate_changes"]),
        }

    bed.clock.schedule(spec.start_us, run_diff)
    return summary


def _run_occupancy(bed: Testbed, spec: OccupancySpec, index: int) -> Callable[[], dict]:
    def run_occupancy():
        counts = channel_occupancy(bed.captures[spec.capture])
        bed.reports[spec.save] = occupancy_report(spec.capture, counts)

    def summary():
        report = bed.reports[spec.save]
        return {"type": "occupancy", "save": spec.save,
                "channels_seen": len(report["channels"]),
                "total_packets": report["total_packets"]}

    bed.clock.schedule(spec.start_us, run_occupancy)
    return summary


def _run_replay(bed: Testbed, spec: ReplaySpec, index: int) -> Callable[[], dict]:
    def run_plan():
        schedule = plan_replay(bed.captures[spec.capture], spec.match, spec.mutation, spec.timing)
        bed.schedules[spec.save] = schedule
        bed.reports[spec.save] = schedule.to_json_dict()

    bed.clock.schedule(spec.start_us, run_plan)
    return lambda: {"type": "replay", "save": spec.save,
                    "entries": len(bed.reports[spec.save]["entries"])}


def _run_inject(bed: Testbed, spec: InjectSpec, index: int) -> Callable[[], dict]:
    # The injector node must exist before the clock starts so the bus
    # topology never mutates mid-run.
    if spec.attachment.kind == "wired":
        injector = WiredInjector(bed.buses[spec.attachment.segment], name=f"attacker{index}")
    else:
        injector = RadioInjector(bed.medium,
                                 strategy=spec.attachment.strategy,
                                 inside_faraday=spec.attachment.inside_faraday)

    def run_inject():
        schedule_injection(
            bed.clock, injector, bed.schedules[spec.schedule], spec.start_us,
            repeat=spec.repeat, end_us=bed.scenario.duration_us,
        )

    bed.clock.schedule(spec.start_us, run_inject)
    return lambda: {"type": "inject", "schedule": spec.schedule,
                    "sent": injector.stats.sent, "delivered": injector.stats.delivered}


_RUN_STEPS = {
    SniffSpec: _run_sniff,
    DiffSpec: _run_diff,
    OccupancySpec: _run_occupancy,
    ReplaySpec: _run_replay,
    InjectSpec: _run_inject,
}


@dataclass
class SimulationResult:
    scenario: Scenario
    observables: VehicleObservables
    captures: dict[str, CaptureLog]
    reports: dict[str, dict]
    summary: dict
    written: dict[str, Path] = field(default_factory=dict)


def summarize(bed: Testbed) -> dict:
    """Deterministic end-of-run summary document."""
    obs = bed.fleet.observables()
    buses = {}
    for bus in bed.buses.values():
        stats = bus.stats
        buses[bus.name] = {
            "frames_delivered": stats.frames_delivered,
            "bus_load": round(stats.bus_load, 9),
        }
    return {
        "schema": SUMMARY_SCHEMA,
        "seed": bed.scenario.seed,
        "duration_s": seconds_from_us(bed.scenario.duration_us),
        "observables": {
            "wheel_angle_deg": round(obs.wheel_angle_deg, 6),
            "steer_enabled": obs.steer_enabled,
            "led_mask": obs.led_mask,
            "pump_pct": round(obs.pump_pct, 6),
            "engine_rpm": round(obs.engine_rpm, 6),
            "machine_voltage": round(obs.machine_voltage, 6),
        },
        "buses": buses,
        "radio": asdict(bed.medium.stats),
        "captures": {name: len(log) for name, log in bed.captures.items()},
        "attacks": [entry() for entry in bed.attack_summaries],
    }


def run_scenario(scenario: Scenario, out_dir: str | Path | None = None) -> SimulationResult:
    """Run a validated scenario to its horizon; optionally write outputs.

    Output paths from the scenario are resolved against out_dir; nothing
    is written when out_dir is None.
    """
    bed = build_testbed(scenario)
    bed.clock.run_until(scenario.duration_us)
    bed.clock.finish()
    summary = summarize(bed)
    result = SimulationResult(
        scenario=scenario,
        observables=bed.fleet.observables(),
        captures=bed.captures,
        reports=bed.reports,
        summary=summary,
    )
    if out_dir is not None:
        result.written = write_outputs(result, out_dir)
    return result


def write_outputs(result: SimulationResult, out_dir: str | Path) -> dict[str, Path]:
    """Write the scenario's declared output files under out_dir."""
    base = Path(out_dir)
    outputs = result.scenario.outputs
    written: dict[str, Path] = {}

    def target(rel: str) -> Path:
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    if outputs.summary is not None:
        path = target(outputs.summary)
        path.write_text(json_text(result.summary), encoding="utf-8", newline="\n")
        written["summary"] = path
    for name, rel in outputs.captures.items():
        path = target(rel)
        result.captures[name].save(path)
        written[name] = path
    for name, rel in outputs.reports.items():
        path = target(rel)
        path.write_text(json_text(result.reports[name]), encoding="utf-8", newline="\n")
        written[name] = path
    return written
