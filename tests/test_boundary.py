"""The library boundary: every public constructor takes exactly the
integers in its fields' ranges, the finite real numbers in its
real-valued fields, bytes or a bytearray in its payload fields and True
or False in its bool fields, and raises its own StaveError subclass
otherwise.

The rule lives in stave.errors (check_int, check_real, check_bytes,
check_bool); the guard test below keeps every other module from spelling
an integer check of its own.
"""

import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stave import (
    AddressError,
    BusConfig,
    CanFrame,
    CaptureError,
    CaptureRecord,
    ChannelStrategy,
    ConfigurationError,
    FrameError,
    IdentifierError,
    J1939Address,
    JoystickScript,
    MessageMatch,
    MessageSpec,
    Mutation,
    RadioConfig,
    RadioMedium,
    RadioPacket,
    ReplaySchedule,
    ScaledSignal,
    ScenarioValidationError,
    ScriptEntry,
    SignalError,
    SimClock,
    Tap,
    decode_id,
)
from stave.j1939 import MAX_CAN_ID, MAX_PGN
from stave.radio import MASK64

SRC = Path(__file__).resolve().parent.parent / "src" / "stave"
FRAME = CanFrame(0x0CFF1028, b"\x01")
ADDRESS = {"priority": 3, "pdu_format": 0xFF, "pdu_specific": 0x10, "source_address": 0x28}
SPEC = {"name": "JOY1", "pgn": 0xFF10, "source_address": 0x28, "priority": 3, "cycle_ms": 50}


def _tap_on(channel) -> None:
    RadioMedium(SimClock(), RadioConfig(num_channels=16)).add_tap(Tap("air", channels={channel}))


# field -> (build an object with the field set to v, error class, lo, hi);
# lo and hi inclusive, None unbounded
INT_FIELDS = {
    "CanFrame.can_id": (lambda v: CanFrame(v, b""), FrameError, 0, MAX_CAN_ID),
    "CanFrame.timestamp_us": (lambda v: CanFrame(1, b"", v), FrameError, 0, None),
    "CanFrame.at": (FRAME.at, FrameError, 0, None),
    **{f"J1939Address.{key}": (lambda v, key=key: J1939Address(**{**ADDRESS, key: v}), AddressError, 0, hi)
       for key, hi in (("priority", 7), ("pdu_format", 255), ("pdu_specific", 255),
                       ("source_address", 255), ("edp", 1), ("dp", 1))},
    # pgn 0 is destination-addressed (PDU1), MAX_PGN is broadcast (PDU2)
    "J1939Address.from_pgn.pgn": (lambda v: J1939Address.from_pgn(v, 0x28, destination=0 if v == 0 else None),
                                  AddressError, 0, MAX_PGN),
    "J1939Address.from_pgn.destination": (lambda v: J1939Address.from_pgn(0xEF00, 0x28, destination=v),
                                          AddressError, 0, 255),
    "decode_id": (decode_id, IdentifierError, 0, MAX_CAN_ID),
    "ScaledSignal.width_bytes": (lambda v: ScaledSignal(0, v, 1.0), SignalError, 1, 2),
    "ScaledSignal.byte_offset(width 1)": (lambda v: ScaledSignal(v, 1, 1.0), SignalError, 0, 7),
    "ScaledSignal.byte_offset(width 2)": (lambda v: ScaledSignal(v, 2, 1.0), SignalError, 0, 6),
    "CaptureRecord.timestamp_us": (lambda v: CaptureRecord(v, "vehicle0", "can", b"", 1), CaptureError, 0, None),
    "CaptureRecord.can_id": (lambda v: CaptureRecord(0, "vehicle0", "can", b"", v), CaptureError, 0, MAX_CAN_ID),
    "BusConfig.bitrate": (lambda v: BusConfig(bitrate=v), ConfigurationError, 1, None),
    "BusConfig.frame_overhead_bits": (lambda v: BusConfig(frame_overhead_bits=v), ConfigurationError, 1, None),
    "RadioConfig.num_channels": (lambda v: RadioConfig(num_channels=v), ConfigurationError, 1, 256),
    "RadioConfig.hop_seed": (lambda v: RadioConfig(hop_seed=v), ConfigurationError, 0, MASK64),
    "RadioConfig.latency_us": (lambda v: RadioConfig(latency_us=v), ConfigurationError, 0, None),
    "RadioPacket.channel": (lambda v: RadioPacket(v, 0, FRAME), ConfigurationError, 0, 255),
    "RadioPacket.seq": (lambda v: RadioPacket(0, v, FRAME), ConfigurationError, 0, 0xFFFF),
    "Tap.channels": (_tap_on, ConfigurationError, 0, 15),
    **{f"MessageSpec.{key}": (lambda v, key=key: MessageSpec(**{**SPEC, key: v}), ConfigurationError, lo, hi)
       for key, lo, hi in (("pgn", 0, MAX_PGN), ("source_address", 0, 255), ("priority", 0, 7),
                           ("cycle_ms", 1, None))},
    **{f"JoystickScript.{key}": (lambda v, key=key: JoystickScript((ScriptEntry(**{"t_us": 0, key: v}),)),
                                 ScenarioValidationError, 0, hi)
       for key, hi in (("t_us", None), ("x", 250), ("y", 250), ("button", 1))},
    "MessageMatch.can_id": (lambda v: MessageMatch(can_id=v), ConfigurationError, 0, MAX_CAN_ID),
    "MessageMatch.pgn": (lambda v: MessageMatch(pgn=v), ConfigurationError, 0, MAX_PGN),
    "Mutation.byte_offset": (lambda v: Mutation(v, "const", 0), ConfigurationError, 0, 7),
    "Mutation.operand(reflect)": (lambda v: Mutation(0, "reflect", v), ConfigurationError, 0, 255),
    "Mutation.operand(const)": (lambda v: Mutation(0, "const", v), ConfigurationError, 0, 255),
    # add wraps modulo 256: every integer is an operand
    "Mutation.operand(add)": (lambda v: Mutation(0, "add", v), ConfigurationError, None, None),
    "ChannelStrategy.channel": (lambda v: ChannelStrategy(channel=v), ConfigurationError, 0, 255),
    "ReplaySchedule.delay": (lambda v: ReplaySchedule(((v, FRAME),)), ConfigurationError, 0, None),
}

# field -> (build, error class, values accepted, finite values rejected)
REAL_FIELDS = {
    "RadioConfig.loss_probability": (lambda v: RadioConfig(loss_probability=v), ConfigurationError,
                                     (0, 0.0, 0.5, 1.0, 1), (-5e-324, math.nextafter(1.0, 2.0))),
    "ScaledSignal.scale": (lambda v: ScaledSignal(0, 1, v), SignalError,
                           (5e-324, 0.05, 1, 1e300), (0, 0.0, -0.05)),
}

NOT_INTEGERS = st.one_of(st.booleans(), st.floats(), st.text(max_size=3))
NOT_REALS = st.one_of(st.booleans(), st.sampled_from((math.nan, math.inf, -math.inf)), st.text(max_size=3))


def rejects(build, error, value) -> None:
    with pytest.raises(error) as raised:
        build(value)
    assert type(raised.value) is error, f"{value!r} raised {type(raised.value).__name__}"


@pytest.mark.parametrize("field", sorted(INT_FIELDS))
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_integer_fields_take_exactly_the_integers_in_range(field, data) -> None:
    build, error, lo, hi = INT_FIELDS[field]
    for value in (True, False, float(lo or 0), "1", data.draw(NOT_INTEGERS, label="not an integer")):
        rejects(build, error, value)
    if lo is None:
        build(data.draw(st.integers(), label="any integer"))
        return
    build(lo)
    rejects(build, error, lo - 1)
    if hi is not None:
        build(hi)
        rejects(build, error, hi + 1)


@pytest.mark.parametrize("field", sorted(REAL_FIELDS))
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_real_fields_take_exactly_the_finite_numbers_in_range(field, data) -> None:
    build, error, accepted, rejected = REAL_FIELDS[field]
    for value in accepted:
        build(value)
    for value in (*rejected, True, False, "0.5", data.draw(NOT_REALS, label="not a finite number")):
        rejects(build, error, value)


# field -> (build an object with the field set to v, error class)
BYTES_FIELDS = {
    "CanFrame.data": (lambda v: CanFrame(1, v), FrameError),
    "CaptureRecord.data": (lambda v: CaptureRecord(0, "vehicle0", "can", v, 1), CaptureError),
}

BOOL_FIELDS = {
    "RadioConfig.hopping": (lambda v: RadioConfig(hopping=v), ConfigurationError),
    "RadioConfig.faraday_mode": (lambda v: RadioConfig(faraday_mode=v), ConfigurationError),
    "ScaledSignal.signed": (lambda v: ScaledSignal(0, 1, 1.0, v), SignalError),
    "Tap.inside_faraday": (lambda v: Tap("air", inside_faraday=v), ConfigurationError),
}


@pytest.mark.parametrize("field", sorted(BYTES_FIELDS))
def test_bytes_fields_take_exactly_bytes_and_bytearrays(field) -> None:
    build, error = BYTES_FIELDS[field]
    for value in (b"\x01\x02", bytearray(b"\x01\x02")):
        data = build(value).data
        assert type(data) is bytes and data == b"\x01\x02"
    # an int used to become that many zero bytes, a str a bare TypeError
    for value in (3, 0, True, "ab", [1, 2], None, memoryview(b"\x01")):
        rejects(build, error, value)
    with pytest.raises(error, match=r"^data 3 must be bytes$"):
        build(3)


@pytest.mark.parametrize("field", sorted(BOOL_FIELDS))
def test_bool_fields_take_exactly_true_and_false(field) -> None:
    build, error = BOOL_FIELDS[field]
    build(True)
    build(False)
    # a non-empty str used to read as True
    for value in ("no", "", 0, 1, 1.0, None):
        rejects(build, error, value)
    with pytest.raises(error, match=r"'no' must be True or False$"):
        build("no")


def test_tap_channels_must_be_a_collection() -> None:
    with pytest.raises(ConfigurationError, match=r"^tap 'air' channels 5 must be a collection of channel numbers$"):
        Tap("air", channels=5)
    with pytest.raises(ConfigurationError):
        Tap("air", channels=[[1]])
    assert Tap("air", channels=[1, 1, 2]).channels == frozenset({1, 2})


def integer_checks(source: str) -> list[int]:
    """Lines of isinstance(_, int) (int alone or in a tuple) and of
    type(_) is / is not / == / != / in int."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1:]
            kinds = kinds[0].elts if kinds and isinstance(kinds[0], ast.Tuple) else kinds
            if any(isinstance(k, ast.Name) and k.id == "int" for k in kinds):
                lines.append(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            calls_type = any(isinstance(o, ast.Call) and isinstance(o.func, ast.Name) and o.func.id == "type"
                             for o in operands)
            names = [n for o in operands for n in ast.walk(o) if isinstance(n, ast.Name)]
            if calls_type and any(n.id == "int" for n in names):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source", [
    "isinstance(x, int)", "isinstance(x, (float, int))", "type(x) is int", "type(x) is not int",
    "type(x) == int", "type(x) in (int, float)",
])
def test_guard_sees_every_spelling_of_an_integer_check(source) -> None:
    assert integer_checks(source) == [1]


def test_only_errors_py_spells_an_integer_check() -> None:
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
             for line in integer_checks(path.read_text(encoding="utf-8"))]
    assert found == [], "use stave.errors.check_int or is_int instead"
