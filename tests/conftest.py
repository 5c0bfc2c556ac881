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
     "joystick_script entry 0: button True must be 0 or 1"),
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
