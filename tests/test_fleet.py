"""Message catalog, steering model, and whole-vehicle behavior.

Identifier oracle: priority<<26 | pgn<<8 | source, computed by hand for
each catalog row. Steering oracle: 0.28 deg per joystick count around
center 125, clamped to 35 deg, slewed at 20 deg/s.
"""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stave import (
    CanBus,
    CanFrame,
    ConfigurationError,
    Fleet,
    JoystickScript,
    MessageCatalog,
    ScenarioValidationError,
    ScriptEntry,
    SignalError,
    SimClock,
    build_testbed,
    read_signal,
    run_scenario,
    steering_step,
    steering_target,
)
from stave.cli import main
from stave.fleet import ENGINE_SPEED_SIGNAL, PLANT_FIELDS, VOLTAGE_SIGNAL, WHEEL_ANGLE_SIGNAL
from stave.scenario import validate_scenario

from conftest import make_scenario


EXPECTED_IDS = {
    "JOY1": 0x0CFF1028,
    "PWR1": 0x18FF1130,
    "STR1": 0x18FF1213,
    "LED1": 0x18FF1380,
    "HYD1": 0x18FF1421,
    "EEC1": 0x0CF00400,
    "DSP1": 0x18FF1527,
}


def test_catalog_identifiers_frozen() -> None:
    assert {spec.name: spec.can_id for spec in MessageCatalog()} == EXPECTED_IDS


def test_catalog_rejects_pgn_collisions() -> None:
    with pytest.raises(ConfigurationError):
        MessageCatalog().with_overrides({"JOY1": {"pgn": 0xFF11}})


def test_catalog_rejects_a_duplicate_message_name() -> None:
    joy = MessageCatalog()["JOY1"]
    with pytest.raises(ConfigurationError) as raised:
        MessageCatalog([joy, joy])
    assert str(raised.value) == "duplicate catalog message 'JOY1'"


def test_catalog_rejects_a_destination_addressed_pgn() -> None:
    with pytest.raises(ConfigurationError) as raised:
        MessageCatalog().with_overrides({"JOY1": {"pgn": 0xEF00}})
    assert str(raised.value) == "JOY1 needs a broadcast pgn (PDU format >= 240), got 0x0EF00"


def test_catalog_override_cycle() -> None:
    catalog = MessageCatalog().with_overrides({"JOY1": {"cycle_ms": 20}})
    assert catalog["JOY1"].cycle_ms == 20
    assert catalog["JOY1"].can_id == EXPECTED_IDS["JOY1"]
    with pytest.raises(ConfigurationError):
        MessageCatalog().with_overrides({"JOY1": {"flavor": "grape"}})
    with pytest.raises(ConfigurationError):
        MessageCatalog().with_overrides({"NOPE": {"cycle_ms": 10}})


def test_steering_target_formula() -> None:
    assert steering_target(25) == pytest.approx(-28.0)
    assert steering_target(225) == pytest.approx(28.0)
    assert steering_target(125) == 0.0
    assert steering_target(0) == pytest.approx(-35.0)
    assert steering_target(250) == pytest.approx(35.0)
    assert steering_target(0xFF) is None  # hold marker


def test_steering_step_slews_without_overshoot() -> None:
    angle = 0.0
    for _ in range(13):
        angle = steering_step(angle, -28.0, 0.1)
    assert angle == pytest.approx(-26.0)
    angle = steering_step(angle, -28.0, 0.1)
    assert angle == pytest.approx(-28.0)
    angle = steering_step(angle, -28.0, 0.1)
    assert angle == pytest.approx(-28.0)  # settled, no oscillation


def test_steering_step_gates_and_staleness() -> None:
    # disabled: frozen wherever it is
    assert steering_step(-10.0, 20.0, 0.1, steer_enable=False) == -10.0
    # stale joystick: target snaps to center
    step = steering_step(-10.0, -28.0, 0.1, joystick_age_s=0.25)
    assert step == pytest.approx(-8.0)
    # hold marker (None target): keep the current angle
    assert steering_step(-10.0, None, 0.1) == -10.0


# a run keeps only the logs its scenario reads or writes: these tests read both segments
SEGMENT_LOGS = {"captures": {"operator0": "operator0.log", "vehicle0": "vehicle0.log"}}


def build(doc_sections: dict):
    return build_testbed(make_scenario(outputs=SEGMENT_LOGS, **doc_sections))


def run(bed, t_end_us: int) -> None:
    bed.clock.run_until(t_end_us)


def segment_frames(log) -> list[CanFrame]:
    return [CanFrame(r.can_id, r.data, r.timestamp_us) for r in log]


def joy_frames(bed) -> list[CanFrame]:
    out = []
    for name in ("operator0", "vehicle0"):
        out.extend(f for f in segment_frames(bed.captures[name])
                   if f.can_id == EXPECTED_IDS["JOY1"])
    return out


@pytest.fixture
def broadcast_times(monkeypatch) -> dict[str, list[int]]:
    """Message name -> the instants the fleet's own nodes submit it, filled
    in as a testbed runs (the bridges' re-sent copies are left out)."""
    names = {can_id: name for name, can_id in EXPECTED_IDS.items()}
    times: dict[str, list[int]] = {}
    submit = CanBus.submit

    def spy(bus, handle, frame):
        if not handle.name.startswith("bridge_"):
            times.setdefault(names[frame.can_id], []).append(bus.clock.now_us)
        submit(bus, handle, frame)

    monkeypatch.setattr(CanBus, "submit", spy)
    return times


def test_first_broadcast_lands_at_cycle_not_zero(broadcast_times) -> None:
    bed = build({})
    run(bed, 1_000_000)
    times = broadcast_times
    assert times["JOY1"][0] == 50_000
    assert times["STR1"][0] == 100_000
    assert times["PWR1"][0] == 1_000_000
    assert times["LED1"][0] == 500_000


def test_periodic_submissions_are_exactly_cycle_spaced(broadcast_times) -> None:
    bed = build({"duration_s": 4.0})
    run(bed, 4_000_000)
    joy = broadcast_times["JOY1"]
    assert joy == [50_000 * (i + 1) for i in range(len(joy))]
    eec = broadcast_times["EEC1"]
    assert eec == [100_000 * (i + 1) for i in range(len(eec))]


def test_one_second_carries_at_least_twenty_joystick_frames() -> None:
    # counted across both segments: the operator original plus the
    # bridged copy on the vehicle side
    bed = build({})
    run(bed, 1_000_000)
    assert len(joy_frames(bed)) >= 20


def test_vehicle_segment_carries_all_five_vehicle_ids() -> None:
    bed = build({})
    run(bed, 1_200_000)
    seen = {f.can_id for f in segment_frames(bed.captures["vehicle0"])}
    for name in ("STR1", "LED1", "HYD1", "EEC1", "PWR1"):
        assert EXPECTED_IDS[name] in seen
    fast_by_1s = {f.can_id for f in segment_frames(bed.captures["vehicle0"])
                  if f.timestamp_us < 1_000_000}
    for name in ("STR1", "HYD1", "EEC1"):
        assert EXPECTED_IDS[name] in fast_by_1s


def test_joystick_payload_carries_script_values() -> None:
    sections = {"joystick_script": [
        {"t_s": 0.0, "x": 25, "y": 200, "button": 1},
    ]}
    bed = build(sections)
    run(bed, 500_000)
    frame = joy_frames(bed)[0]
    assert frame.data[0] == 25
    assert frame.data[1] == 200
    assert frame.data[2] == 1
    assert frame.data[3:] == b"\xff" * 5


def test_steering_waits_for_power_ecu_enable() -> None:
    sections = {
        "duration_s": 2.0,
        "fleet": {"steer_enable": True},
        "joystick_script": [{"t_s": 0.0, "x": 25}],
    }
    bed = build(sections)
    run(bed, 1_000_000)
    # the first PWR1 lands just after 1.0 s, so nothing has moved yet
    assert bed.fleet.steering.angle_deg == 0.0
    run(bed, 2_000_000)
    assert bed.fleet.steering.angle_deg < -10.0


def test_steer_disable_freezes_wheel_mid_travel() -> None:
    sections = {
        "duration_s": 5.0,
        "fleet": {"steer_enable": True},
        "joystick_script": [{"t_s": 0.0, "x": 25}],
    }
    bed = build(sections)
    # power controller drops the enable line before its 2.0 s broadcast
    bed.clock.schedule(1_900_000, lambda: setattr(bed.fleet.power, "steer_enable", False))
    run(bed, 5_000_000)
    # ten enabled ticks (1.1 s .. 2.0 s) at 2 deg each, then frozen
    assert bed.fleet.steering.angle_deg == pytest.approx(-20.0)
    assert bed.fleet.observables().steer_enabled is False


def test_total_radio_loss_keeps_wheel_centered() -> None:
    sections = {
        "duration_s": 3.0,
        "radio": {"loss_probability": 1.0},
        "fleet": {"steer_enable": True},
        "joystick_script": [{"t_s": 0.0, "x": 25}],
    }
    bed = build(sections)
    run(bed, 3_000_000)
    # JOY1 never crosses the dead bridge; PWR1 is local, so the gate is
    # open, but with no joystick the steering holds center
    assert bed.fleet.steering.angle_deg == 0.0
    assert bed.fleet.power.steer_enable is True


def test_quiet_joystick_recenters_after_timeout() -> None:
    # stretch JOY1 to one frame at t = 2 s: the wheel starts moving,
    # goes stale 200 ms later, and recenters by the end
    sections = {
        "duration_s": 3.0,
        "fleet": {"steer_enable": True, "catalog": {"JOY1": {"cycle_ms": 2000}}},
        "joystick_script": [{"t_s": 0.0, "x": 25}],
    }
    bed = build(sections)
    run(bed, 3_000_000)
    assert bed.fleet.steering.angle_deg == 0.0
    angles = [
        read_signal(f, WHEEL_ANGLE_SIGNAL)
        for f in segment_frames(bed.captures["vehicle0"])
        if f.can_id == EXPECTED_IDS["STR1"]
    ]
    assert min(angles) <= -2.0  # it really did move before recentering


def test_pump_follows_joystick_y_axis() -> None:
    sections = {"joystick_script": [{"t_s": 0.0, "y": 200}]}
    bed = build(sections)
    run(bed, 2_000_000)
    assert bed.fleet.observables().pump_pct == pytest.approx(80.0)
    hyd = [f for f in segment_frames(bed.captures["vehicle0"])
           if f.can_id == EXPECTED_IDS["HYD1"]]
    assert hyd[-1].data[0] == 200


def test_engine_speed_payload() -> None:
    sections = {"fleet": {"engine_rpm": 1500.0}}
    bed = build(sections)
    run(bed, 300_000)
    eec = [f for f in segment_frames(bed.captures["vehicle0"])
           if f.can_id == EXPECTED_IDS["EEC1"]]
    raw = int.from_bytes(eec[0].data[3:5], "little")
    assert raw * 0.125 == pytest.approx(1500.0)


def test_led_command_round_trip_with_on_change_report() -> None:
    bed = build({"duration_s": 2.0})
    bed.clock.schedule(700_000, lambda: bed.fleet.display.send_led_command(0b101))
    run(bed, 2_000_000)
    assert bed.fleet.observables().led_mask == 0b101
    led = [(f.timestamp_us, f.data[0])
           for f in segment_frames(bed.captures["vehicle0"])
           if f.can_id == EXPECTED_IDS["LED1"]]
    # periodic zero at 0.5 s, on-change report shortly after 0.7 s
    assert led[0][1] == 0
    changed = [t for t, mask in led if mask == 0b101]
    assert changed and changed[0] < 800_000
    # the command itself crossed the bridge as a DSP1 frame
    vehicle_ids = {f.can_id for f in segment_frames(bed.captures["vehicle0"])}
    assert EXPECTED_IDS["DSP1"] in vehicle_ids
    with pytest.raises(ConfigurationError):
        bed.fleet.display.send_led_command(300)


@pytest.mark.parametrize("message", ["JOY1", "PWR1", "STR1", "LED1", "HYD1", "EEC1"])
def test_null_cycle_is_not_broadcast_on_a_cycle(message, tmp_path, broadcast_times) -> None:
    fleet = {"catalog": {message: {"cycle_ms": None}}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"schema": "stave-scenario/1", "seed": 0, "duration_s": 2.0, "fleet": fleet}))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path)]) == 0
    assert broadcast_times and message not in broadcast_times
    # an LED1 without a cycle still reports a change of the LED command
    broadcast_times.clear()
    bed = build({"fleet": fleet})
    bed.clock.schedule(700_000, lambda: bed.fleet.display.send_led_command(0b101))
    run(bed, 2_000_000)
    led = broadcast_times["LED1"]
    if message == "LED1":
        assert len(led) == 1 and 700_000 < led[0] < 800_000
    else:
        assert message not in broadcast_times and 500_000 in led


def test_every_delivered_frame_passes_the_frame_checks() -> None:
    # the fleet and the bus build their frames without re-checking them
    sections = {
        "duration_s": 2.0,
        "fleet": {"steer_enable": True, "engine_rpm": 1234.5, "catalog": {
            "JOY1": {"cycle_ms": 15}, "PWR1": {"cycle_ms": 90}, "STR1": {"cycle_ms": 20},
            "LED1": {"cycle_ms": 70}, "HYD1": {"cycle_ms": 35}, "EEC1": {"cycle_ms": 45},
        }},
        "joystick_script": [{"t_s": 0.0, "x": 25, "y": 200, "button": 1}, {"t_s": 1.0, "x": 240}],
    }
    bed = build(sections)
    bed.clock.schedule(600_000, lambda: bed.fleet.display.send_led_command(0b1011))
    run(bed, 2_000_000)
    for name in ("operator0", "vehicle0"):
        records = list(bed.captures[name])
        assert {r.can_id for r in records} >= {EXPECTED_IDS["JOY1"], EXPECTED_IDS["DSP1"]}
        for record in records:
            CanFrame(record.can_id, record.data, record.timestamp_us)  # the checked constructor accepts it
            assert type(record.data) is bytes and len(record.data) == 8
    assert bed.captures["vehicle0"][-1].timestamp_us > 1_900_000


def test_a_node_resubmits_one_frame_while_its_payload_repeats(monkeypatch) -> None:
    submitted: dict[int, list[CanFrame]] = {}  # by identifier, the frames the fleet's own nodes submit
    submit = CanBus.submit

    def spy(bus, handle, frame):
        if not handle.name.startswith("bridge_"):
            submitted.setdefault(frame.can_id, []).append(frame)
        submit(bus, handle, frame)

    monkeypatch.setattr(CanBus, "submit", spy)
    bed = build({"duration_s": 2.0, "fleet": {"steer_enable": True},
                 "joystick_script": [{"t_s": 0.0, "x": 25}, {"t_s": 1.0, "x": 240}]})
    delivered = []
    bed.buses["vehicle0"].attach("probe", lambda frame: delivered.append((bed.clock.now_us, frame)))
    run(bed, 2_000_000)
    for frames in submitted.values():
        runs = [list(group) for _, group in itertools.groupby(frames, key=lambda frame: frame.data)]
        assert len({id(frame) for frame in frames}) == len(runs)  # one object per run of equal payloads
        assert all(frame is group[0] for group in runs for frame in group)
    assert len({id(frame) for frame in submitted[EXPECTED_IDS["JOY1"]]}) == 2  # the script's two inputs
    assert len({id(frame) for frame in submitted[EXPECTED_IDS["STR1"]]}) > 2  # the wheel slews
    # every delivery is a frame of its own, stamped with the delivery time
    assert delivered and all(frame.timestamp_us == now > 0 for now, frame in delivered)
    assert not {id(frame) for _, frame in delivered} & {id(f) for frames in submitted.values() for f in frames}


def test_observables_shape() -> None:
    bed = build({"fleet": {"machine_voltage": 13.8, "engine_rpm": 900.0}})
    run(bed, 1_500_000)
    obs = bed.fleet.observables()
    assert obs.machine_voltage == pytest.approx(13.8)
    assert obs.engine_rpm == pytest.approx(900.0)
    assert obs.steer_enabled is False
    assert obs.wheel_angle_deg == 0.0
    assert not math.isnan(obs.pump_pct)


def test_script_validation_collects_all_errors() -> None:
    with pytest.raises(ScenarioValidationError) as err:
        validate_scenario({
            "schema": "stave-scenario/1", "seed": 0, "duration_s": 1.0,
            "joystick_script": [
                {"t_s": 0.5, "x": 300},
                {"t_s": 0.5, "y": -2},
                {"t_s": 0.6, "x": True, "button": True},
            ],
        })
    assert err.value.errors == [
        "joystick_script[0].x: must be <= 250, got 300",
        "joystick_script[1].t_s: must increase, got 0.5 after 0.5",
        "joystick_script[1].y: must be >= 0, got -2",
        "joystick_script[2].x: expected an integer, got True",
        "joystick_script[2].button: expected an integer, got True",
    ]


PLANT_SIGNALS = {"engine_rpm": ENGINE_SPEED_SIGNAL, "machine_voltage": VOLTAGE_SIGNAL}


def plant_fleet(steer_enable: bool = False, engine_rpm: float = 800.0, machine_voltage: float = 12.6) -> Fleet:
    """A fleet on two bare buses with these plant values, never run."""
    clock = SimClock()
    return Fleet(clock, CanBus(clock, "operator0"), CanBus(clock, "vehicle0"),
                 catalog=MessageCatalog(), script=JoystickScript(), steer_enable=steer_enable,
                 engine_rpm=engine_rpm, machine_voltage=machine_voltage)


@settings(derandomize=True, max_examples=300)
@given(st.data())
def test_every_plant_value_in_range_encodes(data) -> None:
    assert PLANT_SIGNALS.keys() == PLANT_FIELDS.keys()
    plant = {key: data.draw(st.one_of(st.sampled_from((lo, hi)), st.floats(lo, hi)), label=key)
             for key, (lo, hi) in PLANT_FIELDS.items()}
    steer_enable = data.draw(st.booleans(), label="steer_enable")
    fleet = plant_fleet(steer_enable, **plant)
    # the fleet encodes its plant values once, at construction: EEC1 is the
    # speed in an all-0xFF payload, PWR1 the voltage before the steer-enable
    # byte; broadcast pads each payload with 0xFF to 8 bytes
    sent = []
    for node in (fleet.engine, fleet.power):
        node.broadcast = sent.append
        node.tick()
    engine, power = (CanFrame(0, data.ljust(8, b"\xff")) for data in sent)
    # read back exactly: the raw value is the nearest integer of value / scale
    for frame, signal, value in ((engine, ENGINE_SPEED_SIGNAL, plant["engine_rpm"]),
                                 (power, VOLTAGE_SIGNAL, plant["machine_voltage"])):
        assert read_signal(frame, signal) == round(value / signal.scale) * signal.scale
    assert engine.data[:3] + engine.data[5:] == b"\xff" * 6
    assert power.data[2:] == bytes((steer_enable,)) + b"\xff" * 5


def test_voltage_sentinel_fails_in_the_fleet_constructor() -> None:
    # 3276.75 V is raw 0xFFFF, the not-available sentinel: refused when the
    # power controller is built, not at its first PWR1 tick
    with pytest.raises(SignalError, match="not-available sentinel"):
        plant_fleet(machine_voltage=3276.75)


def test_run_at_the_top_of_the_voltage_range_completes() -> None:
    # PWR1 first goes out at 1 s; 3276.75 would be raw 0xFFFF, not-available
    result = run_scenario(make_scenario(duration_s=1.5, fleet={"machine_voltage": 3276.7},
                                        outputs={"captures": {"vehicle0": "vehicle0.log"}}))
    frames = [f for f in segment_frames(result.captures["vehicle0"]) if f.can_id == EXPECTED_IDS["PWR1"]]
    assert len(frames) == 1 and read_signal(frames[0], VOLTAGE_SIGNAL) == pytest.approx(3276.7)


def test_on_demand_message_takes_no_cycle_in_the_fleet_constructor() -> None:
    # the scenario path reports the same rule at fleet.catalog.DSP1.cycle_ms
    clock = SimClock()
    catalog = MessageCatalog().with_overrides({"DSP1": {"cycle_ms": 100}})
    with pytest.raises(ConfigurationError) as raised:
        Fleet(clock, CanBus(clock, "operator0"), CanBus(clock, "vehicle0"),
              catalog=catalog, script=JoystickScript(), steer_enable=False,
              engine_rpm=800.0, machine_voltage=12.6)
    assert str(raised.value) == "DSP1 is sent on demand only, so it takes no cycle, got 100"


def _linear_value_at(script: JoystickScript, t_us: int) -> tuple[int, int, int]:
    """The lookup by a scan from the first entry: the last entry at or before t_us."""
    current = (125, 125, 0)
    for entry in script.entries:
        if entry.t_us <= t_us:
            current = (entry.x, entry.y, entry.button)
        else:
            break
    return current


_SCRIPTS = st.lists(
    st.tuples(st.integers(1, 500_000), st.integers(0, 250), st.integers(0, 250), st.integers(0, 1)),
    max_size=8,
).map(lambda rows: JoystickScript(tuple(
    ScriptEntry(sum(gap for gap, *_ in rows[:i + 1]) - 1, x, y, button)
    for i, (_, x, y, button) in enumerate(rows))))


@settings(derandomize=True, max_examples=200)
@given(script=_SCRIPTS, data=st.data())
def test_value_at_is_the_last_entry_at_or_before_t(script, data) -> None:
    times = [entry.t_us for entry in script.entries]
    # before the first entry, on each entry and either side of it, and after the last
    probes = {0, *times, *(t - 1 for t in times if t), *(t + 1 for t in times),
              data.draw(st.integers(0, 5_000_000), label="t_us")}
    for t_us in sorted(probes):
        assert script.value_at(t_us) == _linear_value_at(script, t_us)
