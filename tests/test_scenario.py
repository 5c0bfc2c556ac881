"""Scenario document validation."""

import copy
import re

import pytest
from conftest import MALFORMED_SECTIONS, REPLAY, SCENARIOS_DIR, TIME_FIELDS, load_fixture, make_scenario
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import ALL_ATTACK_TYPES

from stave import MessageCatalog, Scenario, ScenarioValidationError, Tap, load_scenario, validate_scenario
from stave.errors import shown
from stave.scenario import ATTACHMENTS, ATTACKS, MAX_TIME_S, SEGMENT_NAMES, START, TAP_DOC, TOP_FIELDS
from stave.sim import us_from_seconds


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


def test_a_null_section_or_list_validates_as_if_absent() -> None:
    # "bus": null is an absent section and "taps": null an absent list, also where
    # a tap or attack reads them: a 2 s run on the default bus, and a tap named later
    doc = {"schema": "stave-scenario/1", "seed": 3, "duration_s": 2.0, "fleet": {"catalog": None},
           "attacks": [{**REPLAY, "match": {"pgn": "0xFF10"}}], "outputs": {"reports": {"plan": "p.json"}}}
    def fields(scenario: Scenario) -> dict:
        # a catalog and a script compare by what they hold
        return {**vars(scenario), "catalog": list(scenario.catalog), "script": scenario.script.entries}

    want = fields(validate_scenario(doc))
    for nulls in ({"bus": None}, {"taps": None}, {"radio": None}, {"joystick_script": None},
                  {"bus": None, "taps": None}):
        assert fields(validate_scenario({**doc, **nulls})) == want, nulls
    # and a null is no more an error than an absence next to a real one
    for bad in ({"duration_s": -1.0}, {"attacks": [{**REPLAY, "capture": "air"}]}):
        with pytest.raises(ScenarioValidationError) as absent:
            validate_scenario({**doc, **bad})
        with pytest.raises(ScenarioValidationError) as null:
            validate_scenario({**doc, **bad, "bus": None, "taps": None})
        assert null.value.errors == absent.value.errors


def test_with_seed_swaps_only_the_seed() -> None:
    scenario = make_scenario()
    other = scenario.with_seed(99)
    assert other.seed == 99
    assert other.duration_us == scenario.duration_us
    assert scenario.seed == 0


@pytest.mark.parametrize(("seed", "error"), [(-7, "seed: must be >= 0, got -7"), (None, "seed: required"),
                                             (True, "seed: expected an integer, got True")])
def test_with_seed_checks_the_seed_as_a_document_does(seed, error) -> None:
    with pytest.raises(ScenarioValidationError) as info:
        make_scenario().with_seed(seed)
    assert info.value.errors == [error]
    assert errors_for(seed=seed) == [error]


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
    # a catalog message is broadcast and has no destination, so a PDU1 pgn is the field's fault
    errors = errors_for(fleet={"catalog": {"JOY1": {"pgn": 0xEF00}, "PWR1": {"pgn": 0xEF01}}})
    assert errors == ["fleet.catalog.JOY1.pgn: JOY1 needs a broadcast pgn (PDU format >= 240), got 0x0EF00",
                      "fleet.catalog.PWR1.pgn: PWR1 needs a broadcast pgn (PDU format >= 240), got 0x0EF01"]


# strings that int(text, 0) reads but the one integer grammar (errors.int_text) does
# not: non-ASCII digits, 0b and 0o prefixes, a space, a plus sign and underscores
@pytest.mark.parametrize("sections, path, text", [
    *(({"taps": [{"name": "air", "channels": [text]}]}, "taps[0].channels[0]", text)
      for text in ("\u0663", "0b11", "0o3", " 3", "+3")),
    *(({"attacks": [{**REPLAY, "match": {"pgn": text}}]}, "attacks[0].match.pgn", text)
      for text in ("0x_FF10", "6_5296")),
])
def test_hex_fields_take_the_one_integer_grammar(sections, path, text) -> None:
    assert errors_for(**sections) == [f"{path}: expected an integer, got {text!r}"]


def test_null_catalog_fields_keep_the_catalog_default() -> None:
    # null means "not broadcast on a cycle" for cycle_ms only; elsewhere it is absent
    scenario = make_scenario(fleet={"catalog": {
        "JOY1": {"pgn": None, "priority": None, "source_address": None},
        "PWR1": {"pgn": None, "cycle_ms": None},
    }})
    default = MessageCatalog()
    assert scenario.catalog["JOY1"] == default["JOY1"]
    assert scenario.catalog["JOY1"].can_id == default["JOY1"].can_id
    assert scenario.catalog["PWR1"].can_id == default["PWR1"].can_id
    assert scenario.catalog["PWR1"].cycle_ms is None


def test_joystick_script_errors_bubble_up() -> None:
    errors = errors_for(joystick_script=[
        {"t_s": 0.5, "x": 300},
        {"t_s": 0.4, "x": 10},
    ])
    joined = "\n".join(errors)
    assert "x" in joined and "increase" in joined


def test_one_bad_script_time_hides_no_other_script_error() -> None:
    assert errors_for(joystick_script=[{"t_s": "x", "y": 999}, {"t_s": 1.0, "x": 999}]) == [
        "joystick_script[0].t_s: expected a number, got 'x'",
        "joystick_script[0].y: must be <= 250, got 999",
        "joystick_script[1].x: must be <= 250, got 999",
    ]


def test_script_times_are_compared_with_the_largest_earlier_valid_time() -> None:
    assert errors_for(joystick_script=[{"t_s": 1.0}, {"t_s": 0.5}, {"t_s": "x"}, {"t_s": 0.7}, {"t_s": 2.0}]) == [
        "joystick_script[1].t_s: must increase, got 0.5 after 1.0",
        "joystick_script[2].t_s: expected a number, got 'x'",
        "joystick_script[3].t_s: must increase, got 0.7 after 1.0",
    ]


def test_tap_rules() -> None:
    errors = errors_for(taps=[
        {"name": "operator0"},
        {"name": "air", "channels": [0, 1]},
        {"name": "air"},
        {"name": "narrow", "channels": [16]},
        {"name": "odd", "channels": "some"},
        {"name": "a b"},
    ], attacks=[sniff(0.0, "cap", tap="narrow")])
    joined = "\n".join(errors)
    assert "shadows a built-in" in joined
    assert "duplicate tap name" in joined
    assert "taps[3].channels" in joined  # 16 is out of range for 16 channels
    assert "attacks[0]" not in joined  # a tap with a bad channel is still declared
    assert "taps[4].channels" in joined
    # a tap's name is the interface column of its capture log
    assert "taps[5].name: tap name 'a b' must not contain whitespace" in errors


def test_tap_channels_all_is_none() -> None:
    scenario = make_scenario(taps=[{"name": "air", "channels": "all"},
                                   {"name": "quad", "channels": [5, "0x0", 5], "inside_faraday": False}])
    assert scenario.taps[0].channels is None
    # a scenario holds the taps a run listens with
    assert scenario.taps[1] == Tap("quad", frozenset({0, 5}), inside_faraday=False)


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
    assert attack.segment is None  # a radio injector
    assert attack.strategy.channel == 3
    assert attack.inside_faraday is True
    assert attack.repeat is True


def test_inject_wired_attachment() -> None:
    plan = {"type": "replay", "start_s": 0.5, "capture": "vehicle0",
            "match": {"pgn": "0xFF10"}, "save": "sched"}
    scenario = make_scenario(attacks=[plan, {
        "type": "inject", "start_s": 0.5, "schedule": "sched",
        "attachment": {"kind": "wired", "segment": "operator0"},
    }])
    attack = scenario.attacks[1]
    assert (attack.segment, attack.strategy, attack.repeat) == ("operator0", None, False)


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


def required_paths(doc: dict) -> list[tuple]:
    """The key/index path of each required field of doc's sections, as the scenario's tables list them."""
    tables = [((), TOP_FIELDS)] + [(("taps", i), TAP_DOC) for i in range(len(doc.get("taps", [])))]
    for i, attack in enumerate(doc.get("attacks", [])):
        tables.append((("attacks", i), {**START, **ATTACKS[attack["type"]][1]}))
        tables.append((("attacks", i, "attachment"), ATTACHMENTS.get(attack.get("attachment", {}).get("kind"), {})))
    return [(*path, key) for path, table in tables for key, field in table.items() if field.required]


def located(path: tuple) -> str:
    """An error's field path: ("attacks", 8, "schedule") is attacks[8].schedule."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


def test_every_name_field_is_required() -> None:
    names = {path[-1] for path in required_paths(ALL_ATTACK_TYPES) if path[0] == "attacks"}
    assert names >= {"save", "capture", "pre", "post", "schedule", "segment", "tap"}
    assert ("taps", 0, "name") in required_paths(ALL_ATTACK_TYPES)


@pytest.mark.parametrize("name", ["<all-attack-types>", *sorted(p.name for p in SCENARIOS_DIR.glob("*.json"))])
def test_a_required_field_absent_or_null_is_an_error(name: str) -> None:
    # an attack or tap whose required field is absent or null is reported, never left out of the run
    doc = ALL_ATTACK_TYPES if name == "<all-attack-types>" else load_fixture(name)
    for path in required_paths(doc):
        for remove in (True, False):
            faulted = copy.deepcopy(doc)
            parent = faulted
            for key in path[:-1]:
                parent = parent[key]
            if remove:
                del parent[path[-1]]
            else:
                parent[path[-1]] = None
            with pytest.raises(ScenarioValidationError) as info:
                validate_scenario(faulted)
            assert f"{located(path)}: required" in info.value.errors, (path, remove)


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


@pytest.mark.parametrize(("raw", "error"), [
    (b"[" * 100_000, "not valid JSON: maximum recursion depth exceeded"),
    (b'{"seed": ' + b"1" * 5000 + b"}", "not valid JSON: Exceeds the limit (4300 digits)"),
    (b'{"seed": "\xff"}', "not UTF-8: invalid start byte at byte 10"),
], ids=["deep-nesting", "5000-digit-integer", "not-utf8"])
def test_load_scenario_locates_an_unreadable_file(tmp_path, raw: bytes, error: str) -> None:
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(ScenarioValidationError) as info:
        load_scenario(path)
    (message,) = info.value.errors
    assert message.startswith(f"{path}: {error}")


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


# every attack type and both sniff attachments are in ALL_ATTACK_TYPES alone
FIXTURES = {"<all-attack-types>": ALL_ATTACK_TYPES,
            **{p.name: load_fixture(p.name) for p in sorted(SCENARIOS_DIR.glob("*.json"))}}
SUBTREES = [(name, path) for name, doc in FIXTURES.items() for path in _subtree_paths(doc)]


def declared_names(doc: dict) -> list[str]:
    """The names doc declares: the segment recorders, its taps and its saves."""
    return [*SEGMENT_NAMES, *(tap["name"] for tap in doc.get("taps", [])),
            *(attack["save"] for attack in doc.get("attacks", []) if "save" in attack)]


def json_values(names: list[str]):
    """Any JSON value; a string or key is sometimes one of names, since random text
    almost never equals a name the document declares."""
    text = st.text(max_size=6) | st.sampled_from(names)
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(), st.sampled_from([2**64, -(2**64), 10**400]),
        st.floats(), st.sampled_from([1e308, -1e308, 1e300, 86_400.5]), text,
    )
    return st.recursive(
        leaves, lambda children: st.lists(children, max_size=3) | st.dictionaries(text, children, max_size=3),
        max_leaves=6,
    )


JSON_VALUES = {name: json_values(declared_names(doc)) for name, doc in FIXTURES.items()}

# the name rules, stated apart from the validator. A reference: the roles of the names
# it accepts (a replay planned with fast timing is a replay here), its error for a name
# of another role and its error for a name not ready by its attack's start
CAPTURE = (("segment", "tap", "sniff"), "unknown capture {}",
           "capture {} is not complete until after this attack starts")
SCHEDULE = (("replay",), "unknown replay schedule {}", "schedule {} is planned after this attack starts")
# each attack type's references; every type but inject saves a name
REFERENCES = {"sniff": {}, "diff": {"pre": CAPTURE, "post": CAPTURE}, "occupancy": {"capture": CAPTURE},
              "replay": {"capture": CAPTURE}, "inject": {"schedule": SCHEDULE}}
OUTPUT_NAMES = {"captures": (CAPTURE[0], "capture"), "reports": (("diff", "occupancy", "replay"), "report")}
NAME_ERROR = re.compile(r": (unknown (capture|replay schedule|report) |(capture|schedule) .* is (not complete until|"
                        r"planned) after this attack starts$|save name .* is already taken$)")


def name_rule_errors(doc, errors: list[str]) -> set[str]:
    """The errors the name rules give doc, read from the document itself:
    - each capture, pre and post names a segment, a tap, or a sniff save whose
      window has closed by its attack's start;
    - each schedule names a replay save planned by then;
    - each key of outputs.captures is a segment, tap or sniff save, and each of
      outputs.reports a diff, occupancy or replay save;
    - no save takes the name of a segment, a tap or an earlier save.
    A name is declared only as validation read it: a tap whose name, an attack
    whose type or start, and a sniff whose window it refused (errors) declare nothing."""
    if not isinstance(doc, dict):
        return set()
    refused = {error.split(": ", 1)[0] for error in errors}
    names = dict.fromkeys(SEGMENT_NAMES, ("segment", 0))  # name -> (role, ready_us)
    found = set()
    taps, attacks, outputs = (doc.get(key) for key in ("taps", "attacks", "outputs"))
    for i, tap in enumerate(taps if isinstance(taps, list) else []):
        if isinstance(tap, dict) and f"taps[{i}].name" not in refused:
            names[tap["name"]] = ("tap", 0)
    for i, attack in enumerate(attacks if isinstance(attacks, list) else []):
        where = f"attacks[{i}]"
        if not isinstance(attack, dict) or {f"{where}.type", f"{where}.start_s"} & refused:
            continue
        kind, start_us = attack["type"], us_from_seconds(attack["start_s"])
        for key, (roles, unknown, late) in REFERENCES[kind].items():
            name = attack.get(key)
            if isinstance(name, str) and name:
                role, ready_us = names.get(name, ("", 0))
                if role not in roles:
                    found.add(f"{where}.{key}: {unknown.format(shown(name))}")
                elif ready_us > start_us:
                    found.add(f"{where}.{key}: {late.format(shown(name))}")
        save = attack.get("save")
        if kind != "inject" and isinstance(save, str) and save:
            if save in names:
                found.add(f"{where}.save: save name {shown(save)} is already taken")
            elif kind != "sniff":
                names[save] = (kind, start_us)
            elif f"{where}.duration_s" not in refused:
                names[save] = (kind, start_us + us_from_seconds(attack["duration_s"]))
    for section, (roles, noun) in OUTPUT_NAMES.items():
        paths = outputs.get(section) if isinstance(outputs, dict) else None
        for name in paths if isinstance(paths, dict) else ():
            if names.get(name, ("",))[0] not in roles:
                found.add(f"outputs.{section}.{name}: unknown {noun} {shown(name)}")
    return found


def assert_name_rules(doc) -> Scenario | None:
    """doc's scenario, or None when it is refused; either way validation reports
    exactly the name-rule errors name_rule_errors finds in the document."""
    try:
        scenario, errors = validate_scenario(doc), []
    except ScenarioValidationError as exc:
        scenario, errors = None, exc.errors
    assert {error for error in errors if NAME_ERROR.search(error)} == name_rule_errors(doc, errors)
    return scenario


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(SUBTREES), st.data())
def test_any_json_value_anywhere_is_a_scenario_or_a_validation_error(subtree, data) -> None:
    name, path = subtree
    value = data.draw(JSON_VALUES[name])
    doc = copy.deepcopy(FIXTURES[name])
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    scenario = assert_name_rules(doc)
    if scenario is None:
        return
    # an accepted document runs every attack and tap it lists
    assert len(scenario.attacks) == len(doc.get("attacks") or [])
    assert len(scenario.taps) == len(doc.get("taps") or [])
    for time_us in (scenario.duration_us, *(attack.start_us for attack in scenario.attacks)):
        assert type(time_us) is int and time_us <= MAX_TIME_S * 1e6


def _renamed(node, old: str, new: str):
    """node with each string old as new."""
    if isinstance(node, dict):
        return {key: _renamed(value, old, new) for key, value in node.items()}
    if isinstance(node, list):
        return [_renamed(value, old, new) for value in node]
    return new if node == old else node


def name_and_time_edits(doc: dict):
    """doc with one name or time changed to one that the name rules tell apart:
    - a reference or save set to a declared name;
    - a start or sniff window set to 1 µs before, at or after a time from which
      a name is ready, an attack's start or the run's end;
    - a key of outputs.captures or outputs.reports renamed to a declared name;
    - a tap or save renamed to another declared name wherever it appears."""
    names = declared_names(doc)
    attacks, outputs = doc.get("attacks", []), doc["outputs"]
    starts = [us_from_seconds(attack["start_s"]) for attack in attacks]
    ready = [start + us_from_seconds(attack.get("duration_s", 0)) for start, attack in zip(starts, attacks)]
    times = sorted({(t + d) / 1_000_000 for t in (*starts, *ready, us_from_seconds(doc["duration_s"]))
                    for d in (-1, 0, 1)})
    for i, attack in enumerate(attacks):
        for key, values in (("save", names), ("capture", names), ("pre", names), ("post", names),
                            ("schedule", names), ("start_s", times), ("duration_s", times)):
            for value in values if key in attack else ():
                yield {**doc, "attacks": [*attacks[:i], {**attack, key: value}, *attacks[i + 1:]]}
    for section, paths in outputs.items():
        for key in paths if isinstance(paths, dict) else ():
            for name in (name for name in names if name not in paths):
                yield {**doc, "outputs": {**outputs, section: {name if k == key else k: v for k, v in paths.items()}}}
    for old in names[len(SEGMENT_NAMES):]:
        for new in names:
            edited = _renamed(doc, old, new)
            edited["outputs"] = {section: {new if key == old else key: path for key, path in paths.items()}
                                 if isinstance(paths, dict) else paths for section, paths in edited["outputs"].items()}
            yield edited


@pytest.mark.parametrize("name", FIXTURES)
def test_every_name_and_time_edit_keeps_the_name_rules(name: str) -> None:
    for doc in name_and_time_edits(FIXTURES[name]):
        assert_name_rules(doc)
