"""Scenario document validation."""

import copy

import pytest
from conftest import MALFORMED_SECTIONS, SCENARIOS_DIR, TIME_FIELDS, load_fixture, make_scenario
from hypothesis import given, settings
from hypothesis import strategies as st

from stave import ScenarioValidationError, load_scenario, validate_scenario
from stave.scenario import MAX_TIME_S


def errors_for(**sections) -> list[str]:
    with pytest.raises(ScenarioValidationError) as info:
        make_scenario(**sections)
    return info.value.errors


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS_DIR.glob("*.json")))
def test_bundled_fixtures_validate(name: str) -> None:
    validate_scenario(load_fixture(name))


def test_minimal_document() -> None:
    scenario = make_scenario()
    assert scenario.seed == 0
    assert scenario.duration_us == 2_000_000
    assert scenario.radio.num_channels == 16
    assert scenario.attacks == ()
    assert scenario.outputs.summary is None


def test_with_seed_swaps_only_the_seed() -> None:
    scenario = make_scenario()
    other = scenario.with_seed(99)
    assert other.seed == 99
    assert other.duration_us == scenario.duration_us
    assert scenario.seed == 0


def test_missing_required_fields_are_both_reported() -> None:
    with pytest.raises(ScenarioValidationError) as info:
        validate_scenario({"schema": "stave-scenario/1"})
    assert "seed: required" in info.value.errors
    assert "duration_s: required" in info.value.errors


def test_schema_tag_is_checked() -> None:
    with pytest.raises(ScenarioValidationError) as info:
        validate_scenario({"schema": "stave-scenario/2", "seed": 0, "duration_s": 1})
    assert any(e.startswith("schema:") for e in info.value.errors)


def test_non_object_document() -> None:
    with pytest.raises(ScenarioValidationError):
        validate_scenario(["not", "an", "object"])


def test_unknown_top_level_key() -> None:
    assert errors_for(frobnicate=1) == ["frobnicate: unknown field"]


def test_field_types_and_ranges() -> None:
    errors = errors_for(
        seed=-1,
        radio={"num_channels": 0, "loss_probability": 1.5, "hopping": "yes"},
        bus={"bitrate": 0},
    )
    joined = "\n".join(errors)
    assert "seed:" in joined
    assert "radio.num_channels:" in joined
    assert "radio.loss_probability:" in joined
    assert "radio.hopping:" in joined
    assert "bus.bitrate:" in joined


def test_fleet_section() -> None:
    scenario = make_scenario(fleet={
        "steer_enable": True,
        "engine_rpm": 1500.0,
        "machine_voltage": 13.2,
        "catalog": {"JOY1": {"cycle_ms": 20}},
    })
    assert scenario.steer_enable is True
    assert scenario.catalog["JOY1"].cycle_ms == 20


def test_fleet_catalog_errors_carry_paths() -> None:
    errors = errors_for(fleet={"catalog": {"NOPE": {"cycle_ms": 10}}})
    assert any("fleet.catalog" in e for e in errors)
    errors = errors_for(fleet={"catalog": {"JOY1": {"cycle_ms": True, "priority": True, "flavor": 1},
                                           "STR1": [100]}})
    assert errors == ["fleet.catalog.JOY1.flavor: unknown field",
                      "fleet.catalog.JOY1.cycle_ms: expected an integer, got True",
                      "fleet.catalog.JOY1.priority: expected an integer, got True",
                      "fleet.catalog.STR1: expected an object, got list"]
    errors = errors_for(fleet={"catalog": {"JOY1": {"pgn": -1, "source_address": 256},
                                           "PWR1": {"pgn": 1 << 18, "priority": 8},
                                           "STR1": {"cycle_ms": 0}}})
    assert errors == ["fleet.catalog.JOY1.pgn: must be >= 0, got -1",
                      "fleet.catalog.JOY1.source_address: must be <= 255, got 256",
                      "fleet.catalog.PWR1.pgn: must be <= 262143, got 262144",
                      "fleet.catalog.PWR1.priority: must be <= 7, got 8",
                      "fleet.catalog.STR1.cycle_ms: must be >= 1, got 0"]


def test_joystick_script_errors_bubble_up() -> None:
    errors = errors_for(joystick_script=[
        {"t_s": 0.5, "x": 300},
        {"t_s": 0.4, "x": 10},
    ])
    joined = "\n".join(errors)
    assert "x" in joined and "increase" in joined


def test_tap_rules() -> None:
    errors = errors_for(taps=[
        {"name": "operator0"},
        {"name": "air", "channels": [0, 1]},
        {"name": "air"},
        {"name": "narrow", "channels": [16]},
        {"name": "odd", "channels": "some"},
        {"name": "a b"},
    ])
    joined = "\n".join(errors)
    assert "shadows a built-in" in joined
    assert "duplicate tap name" in joined
    assert "taps[3].channels" in joined  # 16 is out of range for 16 channels
    assert "taps[4].channels" in joined
    # a tap's name is the interface column of its capture log
    assert "taps[5].name: tap name 'a b' must not contain whitespace" in errors


def test_tap_channels_all_is_none() -> None:
    scenario = make_scenario(taps=[{"name": "air", "channels": "all"}])
    assert scenario.taps[0].channels is None


def sniff(start_s: float, save: str, *, duration_s: float = 0.5, tap: str | None = None) -> dict:
    attachment = ({"kind": "radio-tap", "tap": tap} if tap
                  else {"kind": "wired-tap", "segment": "vehicle0"})
    return {"type": "sniff", "start_s": start_s, "duration_s": duration_s,
            "attachment": attachment, "save": save}


def test_attack_must_start_inside_run() -> None:
    errors = errors_for(attacks=[sniff(2.0, "cap")])
    assert any("at or past the scenario duration" in e for e in errors)


def test_sniff_window_must_fit() -> None:
    errors = errors_for(attacks=[sniff(1.8, "cap", duration_s=0.5)])
    assert any("runs past the scenario duration" in e for e in errors)


def test_unknown_attack_type() -> None:
    errors = errors_for(attacks=[{"type": "warp", "start_s": 0.1}])
    assert any("unknown attack type 'warp'" in e for e in errors)


def test_sniff_attachment_references() -> None:
    errors = errors_for(attacks=[
        {"type": "sniff", "start_s": 0.0, "duration_s": 0.1, "save": "a",
         "attachment": {"kind": "wired-tap", "segment": "canX"}},
        {"type": "sniff", "start_s": 0.0, "duration_s": 0.1, "save": "b",
         "attachment": {"kind": "radio-tap", "tap": "ghost"}},
    ])
    joined = "\n".join(errors)
    assert "attacks[0].attachment.segment" in joined
    assert "attacks[1].attachment.tap" in joined and "not declared" in joined


def test_save_name_collisions() -> None:
    errors = errors_for(attacks=[sniff(0.0, "cap"), sniff(0.6, "cap")])
    assert any("already taken" in e for e in errors)
    errors = errors_for(attacks=[sniff(0.0, "vehicle0")])
    assert any("already taken" in e for e in errors)


def test_diff_capture_readiness() -> None:
    # pre is ready at 0.5, post at 1.1; diff at 1.0 consumes post too early
    errors = errors_for(attacks=[
        sniff(0.0, "pre"),
        sniff(0.6, "post"),
        {"type": "diff", "start_s": 1.0, "pre": "pre", "post": "post", "save": "rep"},
    ])
    assert any("not complete until after this attack starts" in e for e in errors)

    make_scenario(attacks=[
        sniff(0.0, "pre"),
        sniff(0.6, "post"),
        {"type": "diff", "start_s": 1.1, "pre": "pre", "post": "post", "save": "rep"},
    ])

    # every capture consumer obeys the same rule, occupancy included
    errors = errors_for(attacks=[
        sniff(0.0, "cap"),
        {"type": "occupancy", "start_s": 0.4, "capture": "cap", "save": "occ"},
    ])
    assert errors == ["attacks[1].capture: capture 'cap' is not complete until after this attack starts"]


def test_diff_unknown_capture() -> None:
    errors = errors_for(attacks=[
        {"type": "diff", "start_s": 1.0, "pre": "nope", "post": "vehicle0", "save": "rep"},
    ])
    assert any("unknown capture 'nope'" in e for e in errors)


def test_segment_recorders_are_always_ready() -> None:
    make_scenario(attacks=[
        {"type": "diff", "start_s": 0.5, "pre": "operator0", "post": "vehicle0",
         "save": "rep"},
        {"type": "occupancy", "start_s": 0.5, "capture": "vehicle0", "save": "occ"},
    ])


def test_replay_match_and_mutate_validation() -> None:
    base = {"type": "replay", "start_s": 1.0, "capture": "vehicle0", "save": "s"}
    errors = errors_for(attacks=[{**base, "match": {"pgn": "0xFF10", "can_id": "0x0CFF1028"}}])
    assert any("exactly one of can_id or pgn" in e for e in errors)
    errors = errors_for(attacks=[{**base, "match": {}}])
    assert any("exactly one of can_id or pgn" in e for e in errors)
    errors = errors_for(attacks=[{**base, "match": {"pgn": "0xFF10"},
                                  "mutate": "byte9=warp(1)"}])
    assert any("attacks[0].mutate" in e for e in errors)
    errors = errors_for(attacks=[{**base, "match": {"pgn": "0xFF10"}, "timing": "warp"}])
    assert any("expected preserve or fast" in e for e in errors)


def test_inject_schedule_ordering() -> None:
    plan = {"type": "replay", "start_s": 1.0, "capture": "vehicle0",
            "match": {"pgn": "0xFF10"}, "save": "sched"}
    inject = {"type": "inject", "start_s": 0.5, "schedule": "sched",
              "attachment": {"kind": "wired", "segment": "vehicle0"}}
    errors = errors_for(attacks=[plan, inject])
    assert any("planned after this attack starts" in e for e in errors)
    make_scenario(attacks=[plan, {**inject, "start_s": 1.0}])


def test_inject_unknown_schedule_and_attachment() -> None:
    errors = errors_for(attacks=[
        {"type": "inject", "start_s": 0.5, "schedule": "ghost",
         "attachment": {"kind": "laser"}},
    ])
    joined = "\n".join(errors)
    assert "unknown replay schedule 'ghost'" in joined
    assert "attacks[0].attachment.kind" in joined


def test_inject_radio_attachment() -> None:
    plan = {"type": "replay", "start_s": 0.5, "capture": "vehicle0",
            "match": {"pgn": "0xFF10"}, "save": "sched"}
    scenario = make_scenario(attacks=[plan, {
        "type": "inject", "start_s": 0.5, "schedule": "sched", "repeat": True,
        "attachment": {"kind": "radio",
                       "strategy": {"mode": "fixed", "channel": 3},
                       "inside_faraday": True},
    }])
    attack = scenario.attacks[1]
    assert attack.attachment.strategy.channel == 3
    assert attack.attachment.inside_faraday is True
    assert attack.repeat is True


def test_outputs_validation() -> None:
    errors = errors_for(outputs={
        "summary": "/abs/summary.json",
        "captures": {"ghost": "a.log", "vehicle0": "../escape.log"},
        "reports": {"vehicle0": "r.json"},
    })
    joined = "\n".join(errors)
    assert "outputs.summary" in joined
    assert "outputs.captures.ghost" in joined and "unknown capture" in joined
    assert "'../escape.log'" in joined
    # a capture name is not a report
    assert "outputs.reports.vehicle0" in joined


def test_outputs_sections_must_be_objects() -> None:
    errors = errors_for(outputs={"captures": ["vehicle0"], "reports": "occ"})
    assert errors == ["outputs.captures: expected an object, got list",
                      "outputs.reports: expected an object, got str"]


NUMBER_FIELDS = {
    **TIME_FIELDS,
    "radio.loss_probability": lambda v: {"radio": {"loss_probability": v}},
    "fleet.engine_rpm": lambda v: {"fleet": {"engine_rpm": v}},
    "fleet.machine_voltage": lambda v: {"fleet": {"machine_voltage": v}},
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize("path", sorted(NUMBER_FIELDS))
def test_non_finite_numbers_are_located_errors(path: str, value: float) -> None:
    errors = errors_for(**NUMBER_FIELDS[path](value))
    assert f"{path}: expected a finite number, got {value!r}" in errors


@pytest.mark.parametrize(("sections", "error"), MALFORMED_SECTIONS)
def test_malformed_sections_are_located_errors(sections: dict, error: str) -> None:
    assert errors_for(**sections) == [error]


def test_duration_runs_up_to_one_day() -> None:
    assert make_scenario(duration_s=86_400).duration_us == 86_400_000_000
    assert errors_for(duration_s=86_400.000001) == ["duration_s: must be <= 86400.0, got 86400.000001"]


def test_null_required_fields_are_missing() -> None:
    errors = errors_for(seed=None, duration_s=None, attacks=[{"type": "diff", "start_s": None}])
    assert errors == ["seed: required", "duration_s: required", "attacks[0].start_s: required"]


def test_outputs_reject_shared_paths() -> None:
    errors = errors_for(outputs={
        "summary": "out.json",
        "captures": {"vehicle0": "out.json"},
    })
    assert any("share the same path" in e for e in errors)


def test_output_report_accepts_saved_reports() -> None:
    scenario = make_scenario(
        attacks=[
            {"type": "occupancy", "start_s": 0.5, "capture": "vehicle0", "save": "occ"},
        ],
        outputs={"reports": {"occ": "occ.json"}},
    )
    assert scenario.outputs.reports == {"occ": "occ.json"}


def test_hex_and_int_fields_are_interchangeable() -> None:
    a = make_scenario(attacks=[{"type": "replay", "start_s": 0.5,
                                "capture": "vehicle0", "match": {"pgn": "0xFF10"},
                                "save": "s"}])
    b = make_scenario(attacks=[{"type": "replay", "start_s": 0.5,
                                "capture": "vehicle0", "match": {"pgn": 65296},
                                "save": "s"}])
    assert a.attacks[0].match.pgn == b.attacks[0].match.pgn == 0xFF10


def test_load_scenario_rejects_bad_json(tmp_path) -> None:
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioValidationError) as info:
        load_scenario(bad)
    assert "not valid JSON" in info.value.errors[0]


def test_load_scenario_reads_fixture() -> None:
    scenario = load_scenario(SCENARIOS_DIR / "baseline.json")
    assert scenario.seed == 42
    assert scenario.outputs.summary == "baseline/summary.json"


def _subtree_paths(node, path=()):
    """The key/index path of every value in a JSON document, root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _subtree_paths(child, (*path, key))


FIXTURES = {p.name: load_fixture(p.name) for p in sorted(SCENARIOS_DIR.glob("*.json"))}
SUBTREES = [(name, path) for name, doc in FIXTURES.items() for path in _subtree_paths(doc)]
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.sampled_from([2**64, -(2**64), 10**400]),
        st.floats(), st.sampled_from([1e308, -1e308, 1e300, 86_400.5]), st.text(max_size=6),
    ),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(SUBTREES), JSON_VALUES)
def test_any_json_value_anywhere_is_a_scenario_or_a_validation_error(subtree, value) -> None:
    name, path = subtree
    doc = copy.deepcopy(FIXTURES[name])
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        scenario = validate_scenario(doc)
    except ScenarioValidationError:
        return
    for time_us in (scenario.duration_us, *(attack.start_us for attack in scenario.attacks)):
        assert type(time_us) is int and time_us <= MAX_TIME_S * 1e6
