"""Scenario execution: build the virtual testbed, run it, collect outputs.

The wiring is fixed so that equal scenarios produce byte-identical
outputs: two CAN segments ("operator0" carrying joystick and display,
"vehicle0" carrying the five vehicle ECUs), each counting and capturing
its own traffic, a radio medium bridging the segments through two
endpoints, any declared taps, the vehicle itself, and finally the attack
timeline. The only randomness is the radio loss draw, seeded from the
scenario seed.
"""

from __future__ import annotations

import errno
import os
import random
import sys
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from itertools import chain, repeat
from typing import Callable, Iterator

from .attack import (
    FrameTally,
    ReplaySchedule,
    WiredInjector,
    channel_occupancy,
    diff_captures,
    plan_replay,
    schedule_injection,
)
from .bus import CanBus
from .capture import CaptureLog, CapturePoint, write_utf8
from .errors import BaselineError, ConfigurationError
from .fleet import Fleet
from .radio import RadioInjector, RadioMedium
from .scenario import (
    SEGMENT_NAMES,
    DiffSpec,
    InjectSpec,
    OccupancySpec,
    OutputSpec,
    ReplaySpec,
    Scenario,
    SniffSpec,
)
from .sim import SimClock, seconds_from_us

SUMMARY_SCHEMA = "stave-summary/1"


# json.dumps's text of the floats that are not finite (allow_nan)
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# the text of each scalar, keyed by its exact type: json's C string encoder,
# and int's and float's own repr, as json.dumps renders them
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _render(value, indent: str) -> str:
    """The JSON text of value, its nested lines indented past indent."""
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        # a key that is not a str fails in sorted or in the string encoder
        body = f",\n{inner}".join([f"{encode_basestring_ascii(key)}: {_render(item, inner)}"
                                   for key, item in sorted(value.items())])
        return f"{{\n{inner}{body}\n{indent}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        body = f",\n{inner}".join([_render(item, inner) for item in value])
        return f"[\n{inner}{body}\n{indent}]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _pieces(value, indent: str, depth: int) -> Iterator[str]:
    """_render's text of value in pieces: a container yields its punctuation
    and then each item, as the item's own pieces while depth is above 1 and
    as its _render text otherwise. In a container's place an iterator is the
    list of its items, read one at a time."""
    kind = type(value)
    if kind is dict:
        # a key that is not a str fails in sorted or in the string encoder
        items = ((f"{encode_basestring_ascii(key)}: ", item) for key, item in sorted(value.items()))
    elif kind is list or kind is tuple or isinstance(value, Iterator):
        items = zip(repeat(""), value)
    else:
        yield _render(value, indent)
        return
    opening, closing = "{}" if kind is dict else "[]"
    inner = indent + "  "
    separator = f"{opening}\n{inner}"
    for prefix, item in items:
        if depth > 1:
            yield separator + prefix
            yield from _pieces(item, inner, depth - 1)
        else:
            yield separator + prefix + _render(item, inner)
        separator = f",\n{inner}"
    yield f"\n{indent}{closing}" if separator[0] == "," else opening + closing


def json_text(doc: dict) -> str:
    """Canonical JSON rendering used for every report and summary file.

    The text is exactly ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``
    for documents of dicts with str keys, lists, tuples, str, int, float
    (NaN and infinities as json.dumps writes them), bool and None, built
    one join per container. Anything else raises TypeError: a dict key
    that is not a str, and a value of any other type, subclasses of the
    types above included.
    """
    return _render(doc, "") + "\n"


@dataclass
class Testbed:
    """A fully wired simulation, ready to run; after run_scenario, the run."""

    scenario: Scenario
    clock: SimClock
    buses: dict[str, CanBus]
    medium: RadioMedium
    fleet: Fleet
    # every segment's and tap's capture point, by log name; counts all it sees
    points: dict[str, CapturePoint]
    # the logs kept whole and each sniff save
    captures: dict[str, CaptureLog] = field(default_factory=dict)
    # the diff and occupancy reports; a replay save's is its schedule's, rendered when written
    reports: dict[str, dict] = field(default_factory=dict)
    schedules: dict[str, ReplaySchedule] = field(default_factory=dict)
    # one per attack, in list order: builds its summary entry after the run
    attack_summaries: list[Callable[[], dict]] = field(default_factory=list)
    # filled in by run_scenario
    summary: dict = field(default_factory=dict)
    # (label, path) of each output file
    written: list[tuple[str, Path]] = field(default_factory=list)


def build_testbed(scenario: Scenario) -> Testbed:
    """Construct buses, radio, vehicle, and attack timeline for a scenario."""
    clock = SimClock()
    buses = {name: CanBus(clock, name, scenario.bus) for name in SEGMENT_NAMES}
    points: dict[str, CapturePoint] = {name: bus.capture for name, bus in buses.items()}

    # a string seed keeps the loss stream stable across processes and
    # platforms regardless of hash randomization
    medium = RadioMedium(clock, scenario.radio, rng=random.Random(f"{scenario.seed}/radio-loss"))
    for tap in scenario.taps:
        points[tap.name] = medium.add_tap(tap)
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
        points=points,
    )
    # A run keeps the records it reads or writes and only counts the rest:
    # outputs and the run steps below ask for what they need.
    for name in scenario.outputs.captures:
        _keep_whole(bed, name)
    # list order breaks same-instant ties between attack events
    bed.attack_summaries = [_RUN_STEPS[type(spec)](bed, spec, index)
                            for index, spec in enumerate(scenario.attacks)]
    return bed


def _keep_whole(bed: Testbed, name: str) -> None:
    """Keep every record a segment or tap sees (a sniff save is kept anyway)."""
    point = bed.points.get(name)
    if point is not None and name not in bed.captures:
        point.keep(log := CaptureLog())
        bed.captures[name] = log


# One run step per attack type: say which logs the attack reads, queue its
# events on the clock and return the function that builds its summary
# entry after the run.

def _run_sniff(bed: Testbed, spec: SniffSpec, index: int) -> Callable[[], dict]:
    # validation starts every reader of the save after its window closes
    save = bed.captures[spec.save] = CaptureLog()
    bed.points[spec.source].keep(save, spec.start_us, spec.start_us + spec.duration_us)
    return lambda: {"type": "sniff", "save": spec.save, "records": len(save)}


def _run_diff(bed: Testbed, spec: DiffSpec, index: int) -> Callable[[], dict]:
    _keep_whole(bed, spec.pre)
    _keep_whole(bed, spec.post)

    def run_diff():
        try:
            bed.reports[spec.save] = diff_captures(FrameTally(bed.captures[spec.pre]),
                                                   FrameTally(bed.captures[spec.post]))
        except BaselineError as exc:
            raise BaselineError(f"attacks[{index}].pre: {exc}") from None

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
    _keep_whole(bed, spec.capture)

    def run_occupancy():
        bed.reports[spec.save] = channel_occupancy(bed.captures[spec.capture], spec.capture)

    def summary():
        report = bed.reports[spec.save]
        return {"type": "occupancy", "save": spec.save,
                "channels_seen": len(report["channels"]),
                "total_packets": report["total_packets"]}

    bed.clock.schedule(spec.start_us, run_occupancy)
    return summary


def _run_replay(bed: Testbed, spec: ReplaySpec, index: int) -> Callable[[], dict]:
    _keep_whole(bed, spec.capture)

    def run_plan():
        try:
            schedule = plan_replay(bed.captures[spec.capture], spec.match, spec.mutation, spec.timing)
        except ConfigurationError as exc:  # the mutation does not fit a matched payload
            raise ConfigurationError(f"attacks[{index}].mutate: {exc}") from None
        bed.schedules[spec.save] = schedule

    bed.clock.schedule(spec.start_us, run_plan)
    return lambda: {"type": "replay", "save": spec.save, "entries": len(bed.schedules[spec.save].entries)}


def _run_inject(bed: Testbed, spec: InjectSpec, index: int) -> Callable[[], dict]:
    # The injector node must exist before the clock starts so the bus
    # topology never mutates mid-run.
    if spec.segment is None:
        injector = RadioInjector(bed.medium, strategy=spec.strategy, inside_faraday=spec.inside_faraday)
    else:
        injector = WiredInjector(bed.buses[spec.segment], name=f"attacker{index}")

    def run_inject():
        schedule_injection(bed.clock, injector, bed.schedules[spec.schedule], spec.start_us,
                           repeat=spec.repeat, end_us=bed.scenario.duration_us)

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


def _rounded(record, places: int) -> dict:
    """A dataclass record's fields, each float rounded to places."""
    return {key: round(value, places) if type(value) is float else value
            for key, value in asdict(record).items()}


def summarize(bed: Testbed) -> dict:
    """Deterministic end-of-run summary document."""
    return {
        "schema": SUMMARY_SCHEMA,
        "seed": bed.scenario.seed,
        "duration_s": seconds_from_us(bed.scenario.duration_us),
        "observables": _rounded(bed.fleet.observables(), 6),
        "buses": {bus.name: _rounded(bus.stats, 9) for bus in bed.buses.values()},
        "radio": asdict(bed.medium.stats),
        "captures": {name: point.seen for name, point in bed.points.items()}
                    | {name: len(log) for name, log in bed.captures.items() if name not in bed.points},
        "attacks": [entry() for entry in bed.attack_summaries],
    }


def run_scenario(scenario: Scenario, out_dir: str | Path | None = None) -> Testbed:
    """Run a validated scenario to its horizon; optionally write outputs.

    Returns the testbed it ran, with its summary. Output paths from the
    scenario are resolved against out_dir; nothing is written when out_dir
    is None.
    """
    if out_dir is not None:
        _check_output_paths(Path(out_dir), scenario.outputs)
    bed = build_testbed(scenario)
    bed.clock.run_until(scenario.duration_us)
    bed.clock.finish()
    bed.summary = summarize(bed)
    if out_dir is not None:
        bed.written = write_outputs(bed, out_dir)
    return bed


def _check_output_paths(base: Path, outputs: OutputSpec) -> None:
    """Raise, before the run rather than after it, an OSError for an output
    write_outputs could not write: a directory a declared output goes in
    (base included) exists as a file, or the output exists as a directory."""
    for rel in (outputs.summary, *outputs.captures.values(), *outputs.reports.values()):
        if rel is None:
            continue
        for directory in reversed([base / parent for parent in Path(rel).parents]):
            if directory.exists() and not directory.is_dir():
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(directory))
        if (base / rel).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(base / rel))


def write_json(path: str | Path | None, doc: dict) -> None:
    """Write a report or summary document as its json_text, to stdout when
    path is None, never building the whole text: each top-level value, and
    each item of a top-level container, is rendered and written on its own.
    A top-level list may be an iterator, so its items need not exist at once."""
    pieces = chain(_pieces(doc, "", 2), ("\n",))
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        write_utf8(path, pieces)


def write_outputs(bed: Testbed, out_dir: str | Path) -> list[tuple[str, Path]]:
    """Write the scenario's declared output files under out_dir; returns
    (label, path) of each, where a label is "summary" or a capture's or
    report's name, so two files may share one."""
    base = Path(out_dir)
    outputs = bed.scenario.outputs
    written: list[tuple[str, Path]] = []

    def target(rel: str) -> Path:
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    if outputs.summary is not None:
        path = target(outputs.summary)
        write_json(path, bed.summary)
        written.append(("summary", path))
    for name, rel in outputs.captures.items():
        path = target(rel)
        bed.captures[name].save(path)
        written.append((name, path))
    for name, rel in outputs.reports.items():
        path = target(rel)
        schedule = bed.schedules.get(name)
        write_json(path, bed.reports[name] if schedule is None else schedule.json_doc())
        written.append((name, path))
    return written
