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
defaults sensibly. Each declared name has one role: captures are the
segment recorders ("vehicle0", "operator0"), taps and sniff saves;
reports are diff, occupancy and replay saves; schedules are replay
saves. Validation checks structure and cross-references and reports
every problem at once, each message prefixed with its field path. Each
section lists its fields once, as a table of Field entries (TOP_FIELDS,
ATTACKS, ...) that _Check.fields reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

from .attack import MATCH_FIELDS, MessageMatch, Mutation, TIMING_FAST, TIMING_MODES, TIMING_PRESERVE
from .bus import BUS_FIELDS, BusConfig
from .capture import valid_interface
from .errors import ConfigurationError, ScenarioValidationError, StaveError, int_text, is_int, is_real, shown
from .fleet import (CATALOG_FIELDS, PLANT_FIELDS, SCRIPT_FIELDS, JoystickScript, MessageCatalog, ScriptEntry,
                    check_broadcast, check_cycle)
from .radio import RADIO_FIELDS, ChannelStrategy, RadioConfig, Tap
from .sim import us_from_seconds

SCENARIO_SCHEMA = "stave-scenario/1"
SEGMENT_NAMES = ("operator0", "vehicle0")
# one simulated day; the longest run anywhere in the repo or its benchmark is 600 s
MAX_TIME_S = 86_400.0
SEED_RANGE = RADIO_FIELDS["hop_seed"]  # a document's seed and with_seed's (inclusive), as the hop seed's


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
    save: str
    mutation: Mutation | None = None
    timing: str = TIMING_PRESERVE


@dataclass(frozen=True)
class InjectSpec:
    start_us: int
    schedule: str
    segment: str | None = None  # a wired injector's segment; None: a radio injector
    strategy: ChannelStrategy | None = None  # radio only, as is inside_faraday
    inside_faraday: bool = True
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
    bus: BusConfig = BusConfig()
    radio: RadioConfig = RadioConfig()
    catalog: MessageCatalog = field(default_factory=MessageCatalog)
    steer_enable: bool = False
    engine_rpm: float = 800.0
    machine_voltage: float = 12.6
    script: JoystickScript = field(default_factory=JoystickScript)
    taps: tuple[Tap, ...] = ()
    attacks: tuple[AttackSpec, ...] = ()
    outputs: OutputSpec = field(default_factory=OutputSpec)

    def with_seed(self, seed: int) -> "Scenario":
        """The same scenario with another seed, checked as a document's seed is."""
        check = _Check()
        if check.fields("", {"seed": seed}, {"seed": TOP_FIELDS["seed"]})["seed"] is None:
            raise ScenarioValidationError(check.errors)
        return replace(self, seed=seed)


class Field(NamedTuple):
    """How a document field is read: kind names the _Check method that reads a
    given value, with bounds as its further arguments; a required field may be
    neither absent nor null."""

    kind: str
    bounds: tuple = ()
    required: bool = False


# the fields of each section, in the order they are checked
TOP_FIELDS = {
    "seed": Field("integer", SEED_RANGE, required=True),
    "duration_s": Field("duration", (1e-6,), required=True),
    "bus": Field("bus"), "radio": Field("radio"), "fleet": Field("fleet"), "joystick_script": Field("script"),
    "taps": Field("taps"), "attacks": Field("attacks"), "outputs": Field("outputs"),
}
BUS_DOC = {key: Field("integer", bounds) for key, bounds in BUS_FIELDS.items()}
RADIO_DOC = {
    "num_channels": Field("integer", RADIO_FIELDS["num_channels"]), "hopping": Field("boolean"),
    "hop_seed": Field("integer", RADIO_FIELDS["hop_seed"]),
    "loss_probability": Field("number", RADIO_FIELDS["loss_probability"]),
    "latency_s": Field("seconds"), "faraday_mode": Field("boolean"),
}
FLEET_DOC = {"steer_enable": Field("boolean"), **{key: Field("number", bounds) for key, bounds in PLANT_FIELDS.items()},
             "catalog": Field("catalog")}
TAP_DOC = {"name": Field("tap_name", required=True), "channels": Field("channels"), "inside_faraday": Field("boolean")}
# the role of each declared name: a built-in segment recorder, a tap, or the type of the
# attack that saved it, a replay planned with fast timing (no gaps to repeat) having its own
CAPTURE_ROLES = ("segment", "tap", "sniff")
FAST_REPLAY = "fast replay"
SCHEDULE_ROLES = ("replay", FAST_REPLAY)
REPORT_ROLES = ("diff", "occupancy", *SCHEDULE_ROLES)
OUTPUT_DOC = {"summary": Field("relative_path"), "captures": Field("output_paths", (CAPTURE_ROLES, "capture")),
              "reports": Field("output_paths", (REPORT_ROLES, "report"))}
# read first: an attack that starts outside the run reads no further
START = {"start_s": Field("start", required=True)}
# a reference's bounds: the roles it accepts, its message for a name of none of them,
# and its message for a name not ready by the attack's start
CAPTURE = Field("reference", (CAPTURE_ROLES, "unknown capture {}",
                              "capture {} is not complete until after this attack starts"), required=True)
SAVE = Field("save", required=True)
WIRED = {"segment": Field("reference", (("segment",), f"unknown segment {{}}; expected one of {SEGMENT_NAMES}"),
                          required=True)}
# attachment kind -> the fields it takes besides kind
ATTACHMENTS = {"wired-tap": WIRED, "wired": WIRED,
               "radio-tap": {"tap": Field("reference", (("tap",), "tap {} is not declared in taps"), required=True)},
               "radio": {"strategy": Field("strategy"), "inside_faraday": Field("boolean")}}
# attack type -> (a builder of its spec from the fields read, keyed as in the document;
# the fields its object takes besides type and start_s)
ATTACKS = {
    "sniff": (lambda attachment, **read: SniffSpec(source=next(iter(attachment.values())), **read),
              {"duration_s": Field("window", required=True),
               "attachment": Field("attachment", ("wired-tap", "radio-tap"), required=True), "save": SAVE}),
    "diff": (DiffSpec, {"pre": CAPTURE, "post": CAPTURE, "save": SAVE}),
    "replay": (lambda mutate=None, **read: ReplaySpec(mutation=mutate, **read),
               {"capture": CAPTURE, "match": Field("match", required=True), "mutate": Field("mutation"),
                "timing": Field("timing"), "save": SAVE}),
    "inject": (lambda attachment, **read: InjectSpec(**attachment, **read),
               {"schedule": Field("reference", (SCHEDULE_ROLES, "unknown replay schedule {}",
                                                "schedule {} is planned after this attack starts"), required=True),
                "attachment": Field("attachment", ("wired", "radio"), required=True), "repeat": Field("boolean")}),
    "occupancy": (OccupancySpec, {"capture": CAPTURE, "save": SAVE}),
}
ATTACK_TYPES = tuple(ATTACKS)


def _given(**fields) -> dict:
    """The fields that are set: the type's own default stands for a field the
    document omits, sets to null or sets to an invalid (reported) value."""
    return {key: value for key, value in fields.items() if value is not None}


class _Check:
    """Accumulates path-prefixed validation errors. Each field kind is a method
    (path, value, *bounds) that reports what is wrong with the value and gives
    what it read: None, or for an object a part of it, when it reported an error."""

    # what later fields are checked against, set as the document is read
    duration_us: int | None = None
    channel_range = RadioConfig().channel_range
    start_us = 0  # the start of the attack being read

    def __init__(self):
        self.errors: list[str] = []
        # each declared name -> (its role, the time from which it may be consumed)
        self.names: dict[str, tuple[str, int]] = dict.fromkeys(SEGMENT_NAMES, ("segment", 0))

    def add(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def fields(self, path: str, doc: dict, table: dict[str, Field]) -> dict:
        """Each field of table read from doc, keyed as in the document except
        that a seconds field <x>_s is the type's <x>_us: a required field that is
        absent or null is reported, an absent optional one is None (the type's
        default stands), and any given value, null included, goes to its kind."""
        values = {}
        for key, (kind, bounds, required) in table.items():
            value = doc.get(key)
            if value is None and required:
                self.add(f"{path}.{key}" if path else key, "required")
            elif key in doc:
                value = getattr(self, kind)(f"{path}.{key}" if path else key, value, *bounds)
            values[key if key[-2:] != "_s" else f"{key[:-2]}_us"] = value
        return values

    def required(self, path: str, value):
        """The value itself; reported as "required" when absent (None)."""
        if value is None:
            self.add(path, "required")
        return value

    def expect_keys(self, path: str, doc: dict, allowed) -> None:
        for key in sorted(set(doc).difference(allowed)):
            self.add(f"{path}.{key}" if path else key, "unknown field")

    def section(self, path: str, value, allowed=None) -> dict:
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

    def objects(self, path: str, value):
        """(path, item) for each object of an optional list; any other item is reported."""
        for i, item in enumerate(self.items(path, value)):
            if isinstance(item, dict):
                yield f"{path}[{i}]", item
            else:
                self.add(f"{path}[{i}]", "expected an object")

    def number(self, path: str, value, lo=None, hi=None):
        if value is None:
            return None
        if not is_real(value):
            kind = "a finite number" if type(value) is float else "a number"
            self.add(path, f"expected {kind}, got {shown(value)}")
            return None
        if lo is not None and value < lo:
            self.add(path, f"must be >= {lo}, got {shown(value)}")
            return None
        if hi is not None and value > hi:
            self.add(path, f"must be <= {hi}, got {shown(value)}")
            return None
        return value

    def integer(self, path: str, value, lo=None, hi=None):
        if value is not None and not is_int(value):
            self.add(path, f"expected an integer, got {shown(value)}")
            return None
        return self.number(path, value, lo=lo, hi=hi)

    def hex(self, path: str, value, lo=None, hi=None) -> int | None:
        """An integer, also written as a string such as "0xFF10" (errors.int_text)."""
        if isinstance(value, str):
            try:
                value = int_text(value)
            except ValueError:
                pass
        return self.integer(path, value, lo, hi)

    def boolean(self, path: str, value):
        if value is not None and not isinstance(value, bool):
            self.add(path, f"expected a boolean, got {shown(value)}")
            return None
        return value

    def string(self, path: str, value):
        if value is not None and (not isinstance(value, str) or not value):
            self.add(path, f"expected a non-empty string, got {shown(value)}")
            return None
        return value

    def seconds(self, path: str, value, lo=0.0) -> int | None:
        """A time in seconds, at most MAX_TIME_S, as integer microseconds."""
        seconds = self.number(path, value, lo=lo, hi=MAX_TIME_S)
        return None if seconds is None else us_from_seconds(seconds)

    def duration(self, path: str, value, lo) -> int | None:
        """The run's duration, which every attack time is compared with."""
        self.duration_us = self.seconds(path, value, lo)
        return self.duration_us

    def relative_path(self, path: str, value) -> str | None:
        text = self.string(path, value)
        if text is None:
            return None
        if "\0" in text:  # no file system takes one in a name
            self.add(path, f"must not contain a NUL character, got {shown(text)}")
            return None
        p = Path(text)
        if p.is_absolute() or ".." in p.parts:
            self.add(path, f"must be a relative path without '..', got {shown(text)}")
            return None
        if not p.parts:
            self.add(path, f"must name a file, got {shown(text)}")
            return None
        return text

    def bus(self, path: str, value) -> BusConfig:
        return BusConfig(**_given(**self.fields(path, self.section(path, value, BUS_DOC), BUS_DOC)))

    def radio(self, path: str, value) -> RadioConfig:
        radio = RadioConfig(**_given(**self.fields(path, self.section(path, value, RADIO_DOC), RADIO_DOC)))
        self.channel_range = radio.channel_range
        return radio

    def fleet(self, path: str, value) -> dict:
        """The Scenario fields the fleet section sets."""
        return self.fields(path, self.section(path, value, FLEET_DOC), FLEET_DOC)

    def catalog(self, path: str, value) -> MessageCatalog | None:
        overrides = {}
        for name, fields in self.section(path, value).items():
            where = f"{path}.{name}"
            overrides[name] = {}
            for key, value in self.section(where, fields, CATALOG_FIELDS.keys()).items():
                # a null cycle_ms ("not broadcast on a cycle") passes; any other null is absent
                if key not in CATALOG_FIELDS or (not (key == "cycle_ms" and value is None)
                                                 and self.integer(f"{where}.{key}", value,
                                                                  *CATALOG_FIELDS[key]) is None):
                    continue
                try:  # then the message's own rule for the field; a rejected value is left out of the overrides
                    if key == "cycle_ms":
                        check_cycle(name, value)
                    elif key == "pgn":
                        check_broadcast(name, value)
                except ConfigurationError as exc:
                    self.add(f"{where}.{key}", str(exc))
                    continue
                overrides[name][key] = value
        try:
            return MessageCatalog().with_overrides(overrides)
        except StaveError as exc:
            self.add(path, str(exc))
            return None

    def script(self, path: str, value) -> JoystickScript | None:
        errors = len(self.errors)
        entries = []
        last_us, last_s = -1, None  # the largest valid entry time so far, and its document value
        for where, item in self.objects(path, value):
            self.expect_keys(where, item, {"t_s", *SCRIPT_FIELDS})
            t_us = self.seconds(f"{where}.t_s", self.required(f"{where}.t_s", item.get("t_s")))
            if t_us is not None and t_us <= last_us:
                self.add(f"{where}.t_s", f"must increase, got {shown(item['t_s'])} after {shown(last_s)}")
            elif t_us is not None:
                last_us, last_s = t_us, item["t_s"]
            # ScriptEntry's defaults stand for absent fields; a null one is an error
            inputs = {}
            for key, (lo, hi) in SCRIPT_FIELDS.items():
                if key in item:
                    inputs[key] = self.integer(f"{where}.{key}", self.required(f"{where}.{key}", item[key]), lo, hi)
            entries.append(ScriptEntry(t_us, **inputs))
        return JoystickScript(tuple(entries)) if len(self.errors) == errors else None

    def taps(self, path: str, value) -> tuple[Tap, ...]:
        """The valid taps; each valid name declares its tap, whatever else is wrong with it."""
        taps = []
        for where, item in self.objects(path, value):
            errors = len(self.errors)
            self.expect_keys(where, item, TAP_DOC)
            values = self.fields(where, item, TAP_DOC)
            if len(self.errors) == errors:
                taps.append(Tap(**_given(**values)))
        return tuple(taps)

    def tap_name(self, path: str, value) -> str | None:
        name = self.string(path, value)
        if name in SEGMENT_NAMES:
            self.add(path, f"{shown(name)} shadows a built-in segment recorder")
            return None
        if name is not None and not valid_interface(name):
            # the name is the interface column of the tap's capture log
            self.add(path, f"tap name {shown(name)} must not contain whitespace")
            return None
        if name in self.names:  # read before any attack: a segment or an earlier tap
            self.add(path, f"duplicate tap name {shown(name)}")
        elif name is not None:
            self.names[name] = ("tap", 0)
        return name

    def channels(self, path: str, value) -> tuple[int, ...] | None:
        """A tap's channel list; None for "all"."""
        if value == "all":
            return None
        if not isinstance(value, list) or not value:
            self.add(path, f'expected "all" or a non-empty channel list, got {shown(value)}')
            return None
        return tuple(self.hex(f"{path}[{j}]", self.required(f"{path}[{j}]", c), *self.channel_range)
                     for j, c in enumerate(value))

    def attacks(self, path: str, value) -> tuple[AttackSpec, ...]:
        """The valid attacks. A valid save name is declared even when its attack has
        another error, so a later reference to it adds no error of its own."""
        attacks = []
        for where, item in self.objects(path, value):
            kind = item.get("type")
            if kind not in ATTACK_TYPES:  # a tuple, which a list-valued type is compared with, not hashed
                self.add(f"{where}.type", f"unknown attack type {shown(kind)}; expected one of {ATTACK_TYPES}")
                continue
            self.start_us = self.fields(where, item, START)["start_us"]
            if self.start_us is None:
                continue
            build, table = ATTACKS[kind]
            self.expect_keys(where, item, {"type", *START, *table})
            errors = len(self.errors)
            values = self.fields(where, item, table)
            # a save is ready when its attack starts, a sniff's when its window ends
            save, window_us = values.get("save"), values.get("duration_us", 0)
            if save is not None and window_us is not None:  # a sniff without a valid window declares nothing
                role = FAST_REPLAY if values.get("timing") == TIMING_FAST else kind
                self.names[save] = (role, self.start_us + window_us)
            if kind == "inject" and values["repeat"] and self.names.get(values["schedule"], ("",))[0] == FAST_REPLAY:
                self.add(f"{where}.repeat",
                         f"schedule {shown(values['schedule'])} has fast timing, so it has no gaps to repeat")
            if len(self.errors) == errors:
                attacks.append(build(start_us=self.start_us, **_given(**values)))
        return tuple(attacks)

    def start(self, path: str, value) -> int | None:
        start_us = self.seconds(path, value)
        # with an invalid duration no attack time is compared with it, so its one error is the only one
        if start_us is not None and self.duration_us is not None and start_us >= self.duration_us:
            self.add(path, f"attack starts at {value} s, at or past the scenario duration")
            return None
        return start_us

    def window(self, path: str, value) -> int | None:
        window_us = self.seconds(path, value)
        if window_us is not None and self.duration_us is not None and self.start_us + window_us > self.duration_us:
            self.add(path, "sniff window runs past the scenario duration")
            return None
        return window_us

    def save(self, path: str, value) -> str | None:
        name = self.string(path, value)
        if name in self.names:
            self.add(path, f"save name {shown(name)} is already taken")
            return None
        return name

    def reference(self, path: str, value, roles: tuple[str, ...], unknown: str, late: str = "") -> str | None:
        """The name, if it is declared in one of roles and ready by the attack's start."""
        name = self.string(path, value)
        role, ready_us = self.names.get(name, ("", 0))
        if name is not None and role not in roles:
            self.add(path, unknown.format(shown(name)))
        elif name is not None and ready_us > self.start_us:
            self.add(path, late.format(shown(name)))
        else:
            return name
        return None

    def attachment(self, path: str, value, *kinds: str) -> dict | None:
        """The spec fields an attachment of one of kinds sets, as ATTACHMENTS lists them."""
        doc = self.section(path, value)
        kind = doc.get("kind")
        if kind not in kinds:  # a tuple, which a list-valued kind is compared with, not hashed
            self.add(f"{path}.kind", f"expected {' or '.join(kinds)}, got {shown(kind)}")
            return None
        self.expect_keys(path, doc, {"kind", *ATTACHMENTS[kind]})
        return _given(**self.fields(path, doc, ATTACHMENTS[kind]))

    def strategy(self, path: str, value) -> ChannelStrategy | None:
        """A radio injector's channel strategy: an absent mode is fixed, an absent channel 0."""
        doc = self.section(path, value, {"mode", "channel"})
        mode = doc.get("mode", ChannelStrategy.mode)
        where = f"{path}.channel"
        # no endpoint listens past the last channel, so a fixed channel there
        # would lose every packet; follow_hops ignores the channel
        lo, hi = self.channel_range
        channel = self.hex(where, self.required(where, doc.get("channel", ChannelStrategy.channel)),
                           lo, hi if mode == "fixed" else None)
        try:
            return ChannelStrategy(mode=mode, **_given(channel=channel))
        except ConfigurationError as exc:
            self.add(path, str(exc))
            return None

    def match(self, path: str, value) -> MessageMatch | None:
        doc = self.section(path, value, MATCH_FIELDS.keys())
        given = [key for key in MATCH_FIELDS if doc.get(key) is not None]
        if len(given) != 1:
            self.add(path, "exactly one of can_id or pgn must be given")
            return None
        key = given[0]
        value = self.hex(f"{path}.{key}", doc[key], *MATCH_FIELDS[key])
        return MessageMatch(**{key: value}) if value is not None else None

    def mutation(self, path: str, value) -> Mutation | None:
        text = self.string(path, value)
        if text is not None:
            try:
                return Mutation.parse(text)
            except ConfigurationError as exc:
                self.add(path, str(exc))
        return None

    def timing(self, path: str, value) -> str | None:
        if value in TIMING_MODES:
            return value
        self.add(path, f"expected preserve or fast, got {shown(value)}")
        return None

    def outputs(self, path: str, value) -> OutputSpec:
        outputs = OutputSpec(**_given(**self.fields(path, self.section(path, value, OUTPUT_DOC), OUTPUT_DOC)))
        texts = [p for p in [outputs.summary, *outputs.captures.values(), *outputs.reports.values()] if p]
        paths = [Path(text).parts for text in texts]  # "a/./b" and "a/b" are one path
        if len(paths) != len(set(paths)):
            self.add(path, "two outputs share the same path")
        for directory, directory_text in zip(paths, texts):
            for parts, text in zip(paths, texts):
                if len(directory) < len(parts) and parts[:len(directory)] == directory:
                    self.add(path, f"output path {shown(directory_text)} is a directory of {shown(text)}")
        return outputs

    def output_paths(self, path: str, value, roles: tuple[str, ...], noun: str) -> dict[str, str]:
        """A declared capture's or report's name -> relative output path."""
        paths = {}
        for name, rel in self.section(path, value).items():
            if self.names.get(name, ("",))[0] not in roles:
                self.add(f"{path}.{name}", f"unknown {noun} {shown(name)}")
                continue
            rel = self.relative_path(f"{path}.{name}", rel)
            if rel is not None:
                paths[name] = rel
        return paths


def validate_scenario(doc: dict) -> Scenario:
    """Check a scenario document completely; raise with every error found."""
    if not isinstance(doc, dict):
        raise ScenarioValidationError(["scenario: expected a JSON object"])
    check = _Check()
    check.expect_keys("", doc, {"schema", *TOP_FIELDS})
    if doc.get("schema") != SCENARIO_SCHEMA:
        check.add("schema", f"expected {shown(SCENARIO_SCHEMA)}, got {shown(doc.get('schema'))}")
    values = check.fields("", doc, TOP_FIELDS)
    if check.errors:
        raise ScenarioValidationError(check.errors)
    return Scenario(**_given(script=values.pop("joystick_script"), **(values.pop("fleet") or {}), **values))


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file; one that is not UTF-8 JSON is an error naming it."""
    raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioValidationError([f"{path}: not UTF-8: {exc.reason} at byte {exc.start}"]) from None
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past Python's digit limit or nesting past the recursion limit
        raise ScenarioValidationError([f"{path}: not valid JSON: {exc}"]) from exc
    return validate_scenario(doc)
