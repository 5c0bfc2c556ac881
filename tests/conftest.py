import json
from pathlib import Path

import pytest

from stave import Scenario, validate_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS_DIR = REPO_ROOT / "scenarios"

SNIFF = {"type": "sniff", "start_s": 0.0, "duration_s": 0.5, "save": "cap",
         "attachment": {"kind": "wired-tap", "segment": "vehicle0"}}
REPLAY = {"type": "replay", "start_s": 1.0, "capture": "vehicle0", "save": "plan"}
# each time field of a scenario, as the sections that set it to v
TIME_FIELDS = {
    "duration_s": lambda v: {"duration_s": v},
    "radio.latency_s": lambda v: {"radio": {"latency_s": v}},
    "joystick_script[0].t_s": lambda v: {"joystick_script": [{"t_s": v}]},
    "attacks[0].start_s": lambda v: {"attacks": [{**SNIFF, "start_s": v}]},
    "attacks[0].duration_s": lambda v: {"attacks": [{**SNIFF, "duration_s": v}]},
}
# (sections, the only error validation reports for them)
MALFORMED_SECTIONS = [
    ({"bus": []}, "bus: expected an object, got list"),
    ({"radio": False}, "radio: expected an object, got bool"),
    ({"fleet": 0}, "fleet: expected an object, got int"),
    ({"radio": {"hop_seed": 2**64}},
     "radio.hop_seed: must be <= 18446744073709551615, got 18446744073709551616"),
    ({"taps": [{"name": "a b"}]}, "taps[0].name: tap name 'a b' must not contain whitespace"),
    ({"fleet": {"catalog": {"JOY1": {"cycle_ms": True}}}},
     "fleet.catalog.JOY1.cycle_ms: expected an integer, got True"),
    ({"joystick_script": [{"t_s": 0.0, "button": True}]},
     "joystick_script[0].button: expected an integer, got True"),
    *((fields(v), f"{path}: must be <= 86400.0, got {v!r}")
      for path, fields in TIME_FIELDS.items() for v in (1e300, 1e308)),
    ({"attacks": [SNIFF,
                  {"type": "replay", "start_s": 0.5, "capture": "cap",
                   "match": {"pgn": "0xFF10"}, "save": "plan"},
                  {"type": "inject", "start_s": 0.5, "schedule": "plan",
                   "attachment": {"kind": "radio", "strategy": {"mode": "fixed", "channel": 200}}}]},
     "attacks[2].attachment.strategy.channel: must be <= 15, got 200"),
    ({"fleet": {"machine_voltage": 3276.75}}, "fleet.machine_voltage: must be <= 3276.7, got 3276.75"),
    # fields that also take hex strings report ranges like every other field
    ({"attacks": [{**REPLAY, "match": {"pgn": "0x40000"}}]},
     "attacks[0].match.pgn: must be <= 262143, got 262144"),
    ({"attacks": [{**REPLAY, "match": {"can_id": -1}}]}, "attacks[0].match.can_id: must be >= 0, got -1"),
    ({"attacks": [{**REPLAY, "match": {"can_id": "0x20000000"}}]},
     "attacks[0].match.can_id: must be <= 536870911, got 536870912"),
    ({"attacks": [{**REPLAY, "match": {"pgn": "0xZZ"}}]}, "attacks[0].match.pgn: expected an integer, got '0xZZ'"),
    ({"taps": [{"name": "air", "channels": ["0x3", "0x10"]}]}, "taps[0].channels[1]: must be <= 15, got 16"),
    ({"attacks": [{**REPLAY, "match": {"pgn": "0xFF10"}, "timing": "fast"},
                  {"type": "inject", "start_s": 1.0, "schedule": "plan", "repeat": True,
                   "attachment": {"kind": "wired", "segment": "vehicle0"}}]},
     "attacks[1].repeat: schedule 'plan' has fast timing, so it has no gaps to repeat"),
    # output paths are compared as paths, not as strings
    ({"outputs": {"summary": "out/s.json", "captures": {"vehicle0": "out/./s.json"}}},
     "outputs: two outputs share the same path"),
    ({"outputs": {"summary": "./"}}, "outputs.summary: must name a file, got './'"),
    ({"outputs": {"summary": "x", "captures": {"vehicle0": "x/v.log"}}},
     "outputs: output path 'x' is a directory of 'x/v.log'"),
    # a message the default catalog sends on demand only takes no cycle
    ({"fleet": {"catalog": {"DSP1": {"cycle_ms": 100}}}},
     "fleet.catalog.DSP1.cycle_ms: DSP1 is sent on demand only, so it takes no cycle, got 100"),
    # hex converts at any length, but the value has too many digits to print
    ({"attacks": [{**REPLAY, "match": {"pgn": "0x" + "F" * 5000}}]},
     "attacks[0].match.pgn: must be <= 262143, got <20000-bit integer>"),
    ({"outputs": {"summary": "a\u0000b.json"}},
     "outputs.summary: must not contain a NUL character, got 'a\\x00b.json'"),
    # mutation numbers take ASCII digits, and no more than int() converts
    ({"attacks": [{**REPLAY, "match": {"pgn": "0xFF10"}, "mutate": "byte\u0663=add(1)"}]},
     "attacks[0].mutate: cannot parse mutation 'byte\u0663=add(1)'; "
     "expected byte<K>=reflect(<max>)|const(<v>)|add(<n>)"),
    ({"attacks": [{**REPLAY, "match": {"pgn": "0xFF10"}, "mutate": f"byte0=add({'9' * 5000})"}]},
     f"attacks[0].mutate: cannot parse mutation {'byte0=add(' + '9' * 90!r}... (5011 characters); "
     "a decimal number has a leading zero or too many digits"),
    # an invalid duration is not compared with any attack time
    ({"duration_s": "x", "attacks": [{**SNIFF, "start_s": 0.5}]}, "duration_s: expected a number, got 'x'"),
    # script times are compared in the document's seconds, at the entry's own path
    ({"joystick_script": [{"t_s": 1.0}, {"t_s": 0.5}]}, "joystick_script[1].t_s: must increase, got 0.5 after 1.0"),
    # a null script input is an error; an absent one takes ScriptEntry's default
    *(({"joystick_script": [{"t_s": 0.0, key: None}]}, f"joystick_script[0].{key}: required")
      for key in ("x", "y", "button")),
    # a valid save name is declared even when its attack has another error, so a
    # later reference to it adds no error of its own
    ({"attacks": [{**SNIFF, "attachment": {"kind": "wired-tap", "segment": "canX"}},
                  {"type": "diff", "start_s": 0.5, "pre": "cap", "post": "cap", "save": "d"}]},
     "attacks[0].attachment.segment: unknown segment 'canX'; expected one of ('operator0', 'vehicle0')"),
    ({"attacks": [{**REPLAY, "match": {}},
                  {"type": "inject", "start_s": 1.0, "schedule": "plan",
                   "attachment": {"kind": "wired", "segment": "vehicle0"}}]},
     "attacks[0].match: exactly one of can_id or pgn must be given"),
    # each name is used only as its role allows: a sniff save is a capture, not a report,
    # and a diff save is a report, not a capture
    ({"attacks": [SNIFF], "outputs": {"reports": {"cap": "cap.json"}}}, "outputs.reports.cap: unknown report 'cap'"),
    ({"attacks": [SNIFF, {"type": "diff", "start_s": 0.5, "pre": "cap", "post": "cap", "save": "d"},
                  {"type": "occupancy", "start_s": 0.5, "capture": "d", "save": "o"}]},
     "attacks[2].capture: unknown capture 'd'"),
    # a sniff without a valid window declares nothing, so its name is free
    ({"attacks": [{**SNIFF, "duration_s": 5.0}, {**REPLAY, "match": {"pgn": "0xFF10"}, "save": "cap"}]},
     "attacks[0].duration_s: sniff window runs past the scenario duration"),
    ({"taps": [{"name": "air"}], "attacks": [{**REPLAY, "match": {"pgn": "0xFF10"}, "save": "air"}]},
     "attacks[0].save: save name 'air' is already taken"),
    # a capture may be consumed from the microsecond its sniff window ends, not before
    ({"attacks": [SNIFF, {"type": "occupancy", "start_s": 0.499999, "capture": "cap", "save": "early"},
                  {"type": "occupancy", "start_s": 0.5, "capture": "cap", "save": "on-time"}]},
     "attacks[1].capture: capture 'cap' is not complete until after this attack starts"),
]


@pytest.fixture
def scenarios_dir() -> Path:
    return SCENARIOS_DIR


def make_scenario(**sections) -> Scenario:
    """Validated scenario from keyword sections, with test-friendly defaults."""
    doc = {"schema": "stave-scenario/1", "seed": 0, "duration_s": 2.0}
    doc.update(sections)
    return validate_scenario(doc)


def load_fixture(name: str) -> dict:
    return json.loads((SCENARIOS_DIR / name).read_text(encoding="utf-8"))
