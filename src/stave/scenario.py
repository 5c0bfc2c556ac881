"""Scenario documents: schema, typed form, and full validation.

A scenario is a versioned JSON document (schema "stave-scenario/1")
that reaches every knob of the simulation:

    {
      "schema": "stave-scenario/1",
      "seed": 42,
      "duration_s": 5.0,
      "bus": {"bitrate": 250000, "frame_overhead_bits": 67},
      "radio": {"num_channels": 16, "hopping": false, "hop_seed": 0,
                "loss_probability": 0.0, "latency_s": 0.002,
                "faraday_mode": false},
      "fleet": {"steer_enable": true, "engine_rpm": 800.0,
                "machine_voltage": 12.6,
                "catalog": {"JOY1": {"cycle_ms": 50}}},
      "joystick_script": [{"t_s": 0.0, "x": 25, "y": 125, "button": 0}],
      "taps": [{"name": "air", "channels": "all", "inside_faraday": true}],
      "attacks": [
        {"type": "sniff", "start_s": 0.0, "duration_s": 2.0, "save": "cap",
         "attachment": {"kind": "radio-tap", "tap": "air"}},
        {"type": "replay", "start_s": 2.01, "capture": "cap",
         "match": {"pgn": "0xFF10"}, "mutate": "byte0=reflect(250)",
         "timing": "preserve", "save": "sched"},
        {"type": "inject", "start_s": 2.01, "schedule": "sched",
         "repeat": true,
         "attachment": {"kind": "radio",
                        "strategy": {"mode": "fixed", "channel": 0},
                        "inside_faraday": true}}
      ],
      "outputs": {"summary": "summary.json",
                  "captures": {"vehicle0": "vehicle.log"},
                  "reports": {"sched": "schedule.json"}}
    }

Every section except schema, seed, and duration_s is optional and
defaults sensibly. Capture sources usable by attacks and outputs are
the built-in segment recorders ("vehicle0", "operator0"), declared tap
names, and earlier sniff saves. Validation checks structure and
cross-references and reports every problem at once, each message
prefixed with its field path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .attack import ChannelStrategy, MessageMatch, Mutation, TIMING_FAST, TIMING_PRESERVE
from .bus import BusConfig
from .capture import valid_interface
from .errors import ConfigurationError, ScenarioValidationError, StaveError
from .fleet import CATALOG_FIELDS, PLANT_FIELDS, JoystickScript, MessageCatalog, ScriptEntry
from .j1939 import MAX_CAN_ID, MAX_PGN
from .radio import MASK64, RadioConfig
from .sim import us_from_seconds

SCENARIO_SCHEMA = "stave-scenario/1"
SEGMENT_NAMES = ("operator0", "vehicle0")
# attack type -> the fields its object accepts besides type and start_s
ATTACK_FIELDS = {
    "sniff": {"duration_s", "attachment", "save"},
    "diff": {"pre", "post", "save"},
    "replay": {"capture", "match", "mutate", "timing", "save"},
    "inject": {"schedule", "attachment", "repeat"},
    "occupancy": {"capture", "save"},
}
ATTACK_TYPES = tuple(ATTACK_FIELDS)
# one simulated day; the longest run anywhere in the repo or its benchmark is 600 s
MAX_TIME_S = 86_400.0


@dataclass(frozen=True)
class TapSpec:
    name: str
    channels: tuple[int, ...] | None  # None: all-band
    inside_faraday: bool = True


@dataclass(frozen=True)
class InjectAttachment:
    kind: str  # wired | radio
    segment: str | None = None
    strategy: ChannelStrategy | None = None
    inside_faraday: bool = True


@dataclass(frozen=True)
class SniffSpec:
    start_us: int
    duration_us: int
    source: str  # the log sniffed: a segment recorder or a tap
    save: str


@dataclass(frozen=True)
class DiffSpec:
    start_us: int
    pre: str
    post: str
    save: str


@dataclass(frozen=True)
class OccupancySpec:
    start_us: int
    capture: str
    save: str


@dataclass(frozen=True)
class ReplaySpec:
    start_us: int
    capture: str
    match: MessageMatch
    mutation: Mutation | None
    timing: str
    save: str


@dataclass(frozen=True)
class InjectSpec:
    start_us: int
    schedule: str
    attachment: InjectAttachment
    repeat: bool = False


AttackSpec = SniffSpec | DiffSpec | OccupancySpec | ReplaySpec | InjectSpec


@dataclass(frozen=True)
class OutputSpec:
    summary: str | None = None
    captures: dict[str, str] = field(default_factory=dict)
    reports: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    seed: int
    duration_us: int
    bus: BusConfig
    radio: RadioConfig
    catalog: MessageCatalog
    steer_enable: bool
    engine_rpm: float
    machine_voltage: float
    script: JoystickScript
    taps: tuple[TapSpec, ...]
    attacks: tuple[AttackSpec, ...]
    outputs: OutputSpec

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)


class _Check:
    """Accumulates path-prefixed validation errors."""

    def __init__(self):
        self.errors: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def required(self, path: str, value):
        """The value itself; reported as "required" when absent (None)."""
        if value is None:
            self.add(path, "required")
        return value

    def expect_keys(self, path: str, doc: dict, allowed: set[str]) -> None:
        for key in sorted(set(doc) - allowed):
            self.add(f"{path}.{key}" if path else key, "unknown field")

    def section(self, path: str, value, allowed: set[str] | None = None) -> dict:
        """An optional object: {} when absent or not an object (reported)."""
        if value is None:
            return {}
        if not isinstance(value, dict):
            self.add(path, f"expected an object, got {type(value).__name__}")
            return {}
        if allowed is not None:
            self.expect_keys(path, value, allowed)
        return value

    def items(self, path: str, value) -> list:
        """An optional list: [] when absent or not a list (reported)."""
        if value is None:
            return []
        if not isinstance(value, list):
            self.add(path, f"expected a list, got {type(value).__name__}")
            return []
        return value

    def number(self, path: str, value, *, lo=None, hi=None, default=None):
        if value is None:
            return default
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.add(path, f"expected a number, got {value!r}")
            return default
        if isinstance(value, float) and not math.isfinite(value):
            self.add(path, f"expected a finite number, got {value!r}")
            return default
        if lo is not None and value < lo:
            self.add(path, f"must be >= {lo}, got {value!r}")
            return default
        if hi is not None and value > hi:
            self.add(path, f"must be <= {hi}, got {value!r}")
            return default
        return value

    def integer(self, path: str, value, *, lo=None, hi=None, default=None):
        if value is None:
            return default
        if isinstance(value, bool) or not isinstance(value, int):
            self.add(path, f"expected an integer, got {value!r}")
            return default
        return self.number(path, value, lo=lo, hi=hi, default=default)

    def boolean(self, path: str, value, *, default=None):
        if value is None:
            return default
        if not isinstance(value, bool):
            self.add(path, f"expected a boolean, got {value!r}")
            return default
        return value

    def string(self, path: str, value, *, default=None):
        if value is None:
            return default
        if not isinstance(value, str) or not value:
            self.add(path, f"expected a non-empty string, got {value!r}")
            return default
        return value

    def seconds(self, path: str, value, *, lo=0.0, default=None) -> int | None:
        """A time in seconds, at most MAX_TIME_S, as integer microseconds."""
        seconds = self.number(path, value, lo=lo, hi=MAX_TIME_S)
        return default if seconds is None else us_from_seconds(seconds)


def _hex(value):
    """A string such as "0xFF10" as its integer; any other value as it is."""
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            pass
    return value


def _given(**fields) -> dict:
    """The fields that are set: the type's own default stands for a field the
    document omits, sets to null or sets to an invalid (reported) value."""
    return {key: value for key, value in fields.items() if value is not None}


def _relative_path(check: _Check, path: str, value) -> str | None:
    text = check.string(path, value)
    if text is None:
        return None
    p = Path(text)
    if p.is_absolute() or ".." in p.parts:
        check.add(path, f"must be a relative path without '..', got {text!r}")
        return None
    return text


def _validate_taps(check: _Check, doc, num_channels: int) -> tuple[TapSpec, ...]:
    taps = []
    names = set()
    for i, item in enumerate(check.items("taps", doc)):
        path = f"taps[{i}]"
        if not isinstance(item, dict):
            check.add(path, "expected an object")
            continue
        check.expect_keys(path, item, {"name", "channels", "inside_faraday"})
        name = check.string(f"{path}.name", item.get("name"))
        if name in SEGMENT_NAMES:
            check.add(f"{path}.name", f"{name!r} shadows a built-in segment recorder")
            name = None
        elif name is not None and not valid_interface(name):
            # the name is the interface column of the tap's capture log
            check.add(f"{path}.name", f"tap name {name!r} must not contain whitespace")
            name = None
        if name is not None:
            if name in names:
                check.add(f"{path}.name", f"duplicate tap name {name!r}")
            names.add(name)
        channels = item.get("channels", "all")
        parsed: tuple[int, ...] | None
        if channels == "all":
            parsed = None
        elif isinstance(channels, list) and channels:
            parsed = []
            for j, c in enumerate(channels):
                where = f"{path}.channels[{j}]"
                c = check.integer(where, _hex(check.required(where, c)), lo=0, hi=num_channels - 1)
                if c is not None:
                    parsed.append(c)
            parsed = tuple(parsed)
        else:
            check.add(f"{path}.channels", f'expected "all" or a non-empty channel list, got {channels!r}')
            parsed = None
        inside = check.boolean(f"{path}.inside_faraday", item.get("inside_faraday"))
        if name is not None:
            taps.append(TapSpec(name=name, channels=parsed, **_given(inside_faraday=inside)))
    return tuple(taps)


def _wired_segment(check: _Check, path: str, doc: dict) -> str | None:
    """The segment a wired attachment names, if it is a known one."""
    check.expect_keys(path, doc, {"kind", "segment"})
    segment = check.string(f"{path}.segment", doc.get("segment"))
    if segment is not None and segment not in SEGMENT_NAMES:
        check.add(f"{path}.segment", f"unknown segment {segment!r}; expected one of {SEGMENT_NAMES}")
        return None
    return segment


def _sniff_source(check: _Check, path: str, doc, tap_names: set[str]) -> str | None:
    """The log a sniff attachment reads: a wired-tap's segment or a radio-tap's tap."""
    doc = check.section(path, doc)
    kind = doc.get("kind")
    if kind == "wired-tap":
        return _wired_segment(check, path, doc)
    if kind == "radio-tap":
        check.expect_keys(path, doc, {"kind", "tap"})
        tap = check.string(f"{path}.tap", doc.get("tap"))
        if tap is not None and tap not in tap_names:
            check.add(f"{path}.tap", f"tap {tap!r} is not declared in taps")
            return None
        return tap
    check.add(f"{path}.kind", f"expected wired-tap or radio-tap, got {kind!r}")
    return None


def _validate_inject_attachment(check: _Check, path: str, doc, num_channels: int) -> InjectAttachment | None:
    doc = check.section(path, doc)
    kind = doc.get("kind")
    if kind == "wired":
        segment = _wired_segment(check, path, doc)
        return InjectAttachment(kind="wired", segment=segment) if segment else None
    if kind == "radio":
        check.expect_keys(path, doc, {"kind", "strategy", "inside_faraday"})
        strategy_doc = check.section(f"{path}.strategy", doc.get("strategy"), {"mode", "channel"})
        mode = strategy_doc.get("mode", ChannelStrategy.mode)
        where = f"{path}.strategy.channel"
        channel = strategy_doc.get("channel", ChannelStrategy.channel)
        # no endpoint listens past the last channel, so a fixed channel there
        # would lose every packet; follow_hops ignores the channel
        channel = check.integer(where, _hex(check.required(where, channel)),
                                lo=0, hi=num_channels - 1 if mode == "fixed" else None)
        strategy = None
        try:
            strategy = ChannelStrategy(mode=mode, **_given(channel=channel))
        except ConfigurationError as exc:
            check.add(f"{path}.strategy", str(exc))
        inside = check.boolean(f"{path}.inside_faraday", doc.get("inside_faraday"))
        if strategy is None:
            return None
        return InjectAttachment(kind="radio", strategy=strategy, **_given(inside_faraday=inside))
    check.add(f"{path}.kind", f"expected wired or radio, got {kind!r}")
    return None


def _validate_match(check: _Check, path: str, doc) -> MessageMatch | None:
    doc = check.section(path, doc, {"can_id", "pgn"})
    can_id = doc.get("can_id")
    pgn = doc.get("pgn")
    if (can_id is None) == (pgn is None):
        check.add(path, "exactly one of can_id or pgn must be given")
        return None
    if can_id is not None:
        value = check.integer(f"{path}.can_id", _hex(can_id), lo=0, hi=MAX_CAN_ID)
        return MessageMatch(can_id=value) if value is not None else None
    value = check.integer(f"{path}.pgn", _hex(pgn), lo=0, hi=MAX_PGN)
    return MessageMatch(pgn=value) if value is not None else None


def _validate_attacks(check: _Check, doc, duration_us: int, tap_names: set[str], num_channels: int):
    attacks: list[AttackSpec] = []
    # name -> time from which the named capture or schedule may be consumed
    capture_ready: dict[str, int] = {name: 0 for name in (*SEGMENT_NAMES, *tap_names)}
    schedule_ready: dict[str, int] = {}
    report_names: set[str] = set()

    def fresh_save(path: str, item: dict) -> str | None:
        name = check.string(f"{path}.save", item.get("save"))
        if name in capture_ready or name in schedule_ready or name in report_names:
            check.add(f"{path}.save", f"save name {name!r} is already taken")
            return None
        return name

    def reference(path: str, item: dict, role: str, start_us: int) -> str | None:
        """The capture (for role "schedule": the schedule) named by item[role],
        if it exists and is complete by start_us."""
        name = check.string(f"{path}.{role}", item.get(role))
        if name is None:
            return None
        if role == "schedule":
            ready, unknown = schedule_ready, f"unknown replay schedule {name!r}"
            late = f"schedule {name!r} is planned after this attack starts"
        else:
            ready, unknown = capture_ready, f"unknown capture {name!r}"
            late = f"capture {name!r} is not complete until after this attack starts"
        if name not in ready:
            check.add(f"{path}.{role}", unknown)
            return None
        if ready[name] > start_us:
            check.add(f"{path}.{role}", late)
            return None
        return name

    for i, item in enumerate(check.items("attacks", doc)):
        path = f"attacks[{i}]"
        if not isinstance(item, dict):
            check.add(path, "expected an object")
            continue
        kind = item.get("type")
        if kind not in ATTACK_TYPES:
            check.add(f"{path}.type", f"unknown attack type {kind!r}; expected one of {ATTACK_TYPES}")
            continue
        start_us = check.seconds(f"{path}.start_s", check.required(f"{path}.start_s", item.get("start_s")))
        if start_us is None:
            continue
        if start_us >= duration_us:
            check.add(f"{path}.start_s",
                      f"attack starts at {item['start_s']} s, at or past the scenario duration")
            continue
        check.expect_keys(path, item, {"type", "start_s", *ATTACK_FIELDS[kind]})

        if kind == "sniff":
            window_us = check.seconds(f"{path}.duration_s",
                                      check.required(f"{path}.duration_s", item.get("duration_s")))
            if window_us is None:
                continue
            if start_us + window_us > duration_us:
                check.add(f"{path}.duration_s", "sniff window runs past the scenario duration")
                continue
            source = _sniff_source(check, f"{path}.attachment", item.get("attachment"), tap_names)
            save = fresh_save(path, item)
            if source is None or save is None:
                continue
            capture_ready[save] = start_us + window_us
            attacks.append(SniffSpec(start_us=start_us, duration_us=window_us, source=source, save=save))
        elif kind == "diff":
            pre = reference(path, item, "pre", start_us)
            post = reference(path, item, "post", start_us)
            save = fresh_save(path, item)
            if pre is None or post is None or save is None:
                continue
            report_names.add(save)
            attacks.append(DiffSpec(start_us=start_us, pre=pre, post=post, save=save))
        elif kind == "occupancy":
            capture = reference(path, item, "capture", start_us)
            save = fresh_save(path, item)
            if capture is None or save is None:
                continue
            report_names.add(save)
            attacks.append(OccupancySpec(start_us=start_us, capture=capture, save=save))
        elif kind == "replay":
            capture = reference(path, item, "capture", start_us)
            match = _validate_match(check, f"{path}.match", item.get("match"))
            mutation = None
            text = check.string(f"{path}.mutate", item.get("mutate"))
            if text is not None:
                try:
                    mutation = Mutation.parse(text)
                except ConfigurationError as exc:
                    check.add(f"{path}.mutate", str(exc))
            timing = item.get("timing", TIMING_PRESERVE)
            if timing not in (TIMING_PRESERVE, TIMING_FAST):
                check.add(f"{path}.timing", f"expected preserve or fast, got {timing!r}")
                timing = TIMING_PRESERVE
            save = fresh_save(path, item)
            if capture is None or match is None or save is None:
                continue
            schedule_ready[save] = start_us
            report_names.add(save)
            attacks.append(ReplaySpec(start_us=start_us, capture=capture, match=match,
                                      mutation=mutation, timing=timing, save=save))
        else:  # inject
            schedule = reference(path, item, "schedule", start_us)
            attachment = _validate_inject_attachment(check, f"{path}.attachment", item.get("attachment"),
                                                     num_channels)
            repeat = check.boolean(f"{path}.repeat", item.get("repeat"))
            if schedule is None or attachment is None:
                continue
            attacks.append(InjectSpec(start_us=start_us, schedule=schedule,
                                      attachment=attachment, **_given(repeat=repeat)))
    return tuple(attacks), capture_ready, report_names


def _output_paths(check: _Check, outputs_doc: dict, section: str, known, noun: str) -> dict[str, str]:
    """outputs.<section>: known name -> relative output path."""
    paths = {}
    for name, rel in check.section(f"outputs.{section}", outputs_doc.get(section)).items():
        if name not in known:
            check.add(f"outputs.{section}.{name}", f"unknown {noun} {name!r}")
            continue
        rel = _relative_path(check, f"outputs.{section}.{name}", rel)
        if rel is not None:
            paths[name] = rel
    return paths


def validate_scenario(doc: dict) -> Scenario:
    """Check a scenario document completely; raise with every error found."""
    check = _Check()
    if not isinstance(doc, dict):
        raise ScenarioValidationError(["scenario: expected a JSON object"])
    check.expect_keys("", doc, {
        "schema", "seed", "duration_s", "bus", "radio", "fleet",
        "joystick_script", "taps", "attacks", "outputs",
    })
    if doc.get("schema") != SCENARIO_SCHEMA:
        check.add("schema", f"expected {SCENARIO_SCHEMA!r}, got {doc.get('schema')!r}")
    seed = check.integer("seed", check.required("seed", doc.get("seed")), lo=0)
    duration_us = check.seconds("duration_s", check.required("duration_s", doc.get("duration_s")),
                                lo=1e-6, default=1)

    bus_doc = check.section("bus", doc.get("bus"), {"bitrate", "frame_overhead_bits"})
    bus = BusConfig(**_given(
        bitrate=check.integer("bus.bitrate", bus_doc.get("bitrate"), lo=1),
        frame_overhead_bits=check.integer("bus.frame_overhead_bits", bus_doc.get("frame_overhead_bits"),
                                          lo=1),
    ))

    radio_doc = check.section("radio", doc.get("radio"), {
        "num_channels", "hopping", "hop_seed", "loss_probability", "latency_s", "faraday_mode",
    })
    radio = RadioConfig(**_given(
        num_channels=check.integer("radio.num_channels", radio_doc.get("num_channels"), lo=1, hi=256),
        hopping=check.boolean("radio.hopping", radio_doc.get("hopping")),
        hop_seed=check.integer("radio.hop_seed", radio_doc.get("hop_seed"), lo=0, hi=MASK64),
        loss_probability=check.number("radio.loss_probability", radio_doc.get("loss_probability"),
                                      lo=0.0, hi=1.0),
        latency_us=check.seconds("radio.latency_s", radio_doc.get("latency_s")),
        faraday_mode=check.boolean("radio.faraday_mode", radio_doc.get("faraday_mode")),
    ))

    fleet_doc = check.section("fleet", doc.get("fleet"),
                              {"steer_enable", "engine_rpm", "machine_voltage", "catalog"})
    steer_enable = check.boolean("fleet.steer_enable", fleet_doc.get("steer_enable"), default=False)
    plant = {}
    for key, default in (("engine_rpm", 800.0), ("machine_voltage", 12.6)):
        lo, hi = PLANT_FIELDS[key]
        plant[key] = check.number(f"fleet.{key}", fleet_doc.get(key), lo=lo, hi=hi, default=default)
    overrides = {}
    for name, fields in check.section("fleet.catalog", fleet_doc.get("catalog")).items():
        path = f"fleet.catalog.{name}"
        overrides[name] = {}
        for key, value in check.section(path, fields, CATALOG_FIELDS.keys()).items():
            if key not in CATALOG_FIELDS:
                continue
            lo, hi = CATALOG_FIELDS[key]
            # null passes to the catalog: for cycle_ms it means "sent on demand"
            if value is None or check.integer(f"{path}.{key}", value, lo=lo, hi=hi) is not None:
                overrides[name][key] = value
    catalog = MessageCatalog.default()
    try:
        catalog = catalog.with_overrides(overrides)
    except StaveError as exc:
        check.add("fleet.catalog", str(exc))

    script = JoystickScript()
    script_doc = check.items("joystick_script", doc.get("joystick_script"))
    entries = []
    for i, item in enumerate(script_doc):
        path = f"joystick_script[{i}]"
        if not isinstance(item, dict):
            check.add(path, "expected an object")
            continue
        check.expect_keys(path, item, {"t_s", "x", "y", "button"})
        t_us = check.seconds(f"{path}.t_s", check.required(f"{path}.t_s", item.get("t_s")))
        if t_us is not None:
            # ScriptEntry's defaults stand for absent fields; a null one is checked
            inputs = {key: item[key] for key in ("x", "y", "button") if key in item}
            entries.append(ScriptEntry(t_us, **inputs))
    if len(entries) == len(script_doc):  # entry i of the script is joystick_script[i]
        try:
            script = JoystickScript(tuple(entries))
        except ScenarioValidationError as exc:
            check.errors.extend(exc.errors)

    taps = _validate_taps(check, doc.get("taps"), radio.num_channels)
    tap_names = {t.name for t in taps}

    attacks, capture_ready, report_names = _validate_attacks(
        check, doc.get("attacks"), duration_us, tap_names, radio.num_channels)

    outputs_doc = check.section("outputs", doc.get("outputs"), {"summary", "captures", "reports"})
    summary = _relative_path(check, "outputs.summary", outputs_doc.get("summary"))
    captures = _output_paths(check, outputs_doc, "captures", capture_ready, "capture")
    reports = _output_paths(check, outputs_doc, "reports", report_names, "report")
    paths = [p for p in [summary, *captures.values(), *reports.values()] if p]
    if len(paths) != len(set(paths)):
        check.add("outputs", "two outputs share the same path")
    outputs = OutputSpec(summary=summary, captures=captures, reports=reports)

    if check.errors:
        raise ScenarioValidationError(check.errors)
    return Scenario(
        seed=seed,
        duration_us=duration_us,
        bus=bus,
        radio=radio,
        catalog=catalog,
        steer_enable=steer_enable,
        script=script,
        taps=taps,
        attacks=attacks,
        outputs=outputs,
        **plant,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError([f"{path}: not valid JSON: {exc}"]) from exc
    return validate_scenario(doc)
