"""The library boundary: every public constructor takes exactly the
integers in its fields' ranges, the finite real numbers in its
real-valued fields, bytes or a bytearray in its payload fields and True
or False in its bool fields, and raises its own StaveError subclass
otherwise.

The rule lives in stave.errors (check_int, check_real, check_bytes,
check_bool); the guard test below keeps every other module from spelling
an integer check of its own. Every message echoes a rejected value through
stave.errors.shown, which keeps an echo short and printable; a second guard
keeps any other code from echoing one with !r. A third keeps every JSON
document file going through stave.runner.write_json. A fourth keeps
scenario validation from writing a limit of its own for a field that a
constructor bounds: both read the type's range table. A fifth keeps how a
radio numbers, channels and builds its packets inside stave.radio.
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
    ParseError,
    RadioConfig,
    RadioInjector,
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
    parse_record,
    validate_scenario,
)
from stave.capture import MAX_TIMESTAMP_US
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
    "CaptureRecord.timestamp_us": (lambda v: CaptureRecord(v, "vehicle0", b"", 1), CaptureError, 0,
                                   MAX_TIMESTAMP_US),
    "CaptureRecord.can_id": (lambda v: CaptureRecord(0, "vehicle0", b"", v), CaptureError, 0, MAX_CAN_ID),
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
                                 ConfigurationError, 0, hi)
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

# an int too long for str(): an error message shows its size
HUGE = 16**5000

# field -> (build, error class, values accepted, finite values rejected)
REAL_FIELDS = {
    "RadioConfig.loss_probability": (lambda v: RadioConfig(loss_probability=v), ConfigurationError,
                                     (0, 0.0, 0.5, 1.0, 1), (-5e-324, math.nextafter(1.0, 2.0), HUGE)),
    "ScaledSignal.scale": (lambda v: ScaledSignal(0, 1, v), SignalError,
                           (5e-324, 0.05, 1, 1e300), (0, 0.0, -0.05, -HUGE)),
    # raw 0..254 at 0.4 per bit; raw 255 is the not-available sentinel
    "ScaledSignal.encode value": (lambda v: ScaledSignal(0, 1, 0.4).encode(v), SignalError,
                                  (0, -0.0, 101.6, 1), (-0.4, 102.0, 103.0, 1e300)),
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


def test_integer_field_error_shows_a_value_too_long_to_print() -> None:
    for value, text in ((16**5000, "<20001-bit integer>"), ([16**5000], "<list>")):
        with pytest.raises(FrameError) as raised:
            CanFrame(value, b"")
        assert str(raised.value) == f"can_id {text} outside 0..536870911"


def test_scenario_error_caps_a_long_value() -> None:
    with pytest.raises(ScenarioValidationError) as raised:
        validate_scenario({"schema": "stave-scenario/1", "seed": [0] * 100_000, "duration_s": 1.0})
    assert raised.value.errors == [f"seed: expected an integer, got {'[' + '0, ' * 33}... (300000 characters)"]


def test_capture_error_caps_a_long_record() -> None:
    with pytest.raises(ParseError) as raised:
        parse_record("x" * 300 + "\ny")
    assert str(raised.value) == f"malformed record {'x' * 100!r}... (302 characters)"


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
    "CaptureRecord.data": (lambda v: CaptureRecord(0, "vehicle0", v, 1), CaptureError),
}

BOOL_FIELDS = {
    "RadioConfig.hopping": (lambda v: RadioConfig(hopping=v), ConfigurationError),
    "RadioConfig.faraday_mode": (lambda v: RadioConfig(faraday_mode=v), ConfigurationError),
    "ScaledSignal.signed": (lambda v: ScaledSignal(0, 1, 1.0, v), SignalError),
    "Tap.inside_faraday": (lambda v: Tap("air", inside_faraday=v), ConfigurationError),
    "RadioInjector.inside_faraday": (
        lambda v: RadioInjector(RadioMedium(SimClock()), inside_faraday=v), ConfigurationError),
}


@pytest.mark.parametrize("field", sorted(BYTES_FIELDS))
def test_bytes_fields_take_exactly_bytes_and_bytearrays(field) -> None:
    build, error = BYTES_FIELDS[field]
    for value in (b"\x01\x02", bytearray(b"\x01\x02")):
        data = build(value).data
        assert type(data) is bytes and data == b"\x01\x02"
    # an int used to become that many zero bytes, a str a bare TypeError
    for value in (3, 0, True, "ab", [1, 2], None, memoryview(b"\x01"), HUGE):
        rejects(build, error, value)
    with pytest.raises(error, match=r"^data 3 must be bytes$"):
        build(3)


@pytest.mark.parametrize("field", sorted(BOOL_FIELDS))
def test_bool_fields_take_exactly_true_and_false(field) -> None:
    build, error = BOOL_FIELDS[field]
    build(True)
    build(False)
    # a non-empty str used to read as True
    for value in ("no", "", 0, 1, 1.0, None, HUGE):
        rejects(build, error, value)
    with pytest.raises(error, match=r"'no' must be True or False$"):
        build("no")


def test_signal_encode_names_the_value_it_rejects() -> None:
    pump = ScaledSignal(0, 1, 0.4)
    for value in (math.nan, math.inf, "3", None, True):
        with pytest.raises(SignalError) as raised:
            pump.encode(value)
        assert str(raised.value) == f"value {value!r} is not a finite number"
    for value, message in ((103.0, "value 103.0 maps to raw 258, outside 0..255"),
                           (102.0, "value 102.0 maps to raw 255, the not-available sentinel"),
                           # value / scale is past the float range
                           (10**400, f"value 1{'0' * 99}... (401 characters) maps to a raw value outside 0..255"),
                           (1e308, "value 1e+308 maps to a raw value outside 0..255")):
        with pytest.raises(SignalError) as raised:
            pump.encode(value)
        assert str(raised.value) == message


def test_tap_channels_must_be_a_collection() -> None:
    with pytest.raises(ConfigurationError, match=r"^tap 'air' channels 5 must be a collection of channel numbers$"):
        Tap("air", channels=5)
    with pytest.raises(ConfigurationError,
                       match=r"^tap 'air' channels <20001-bit integer> must be a collection of channel numbers$"):
        Tap("air", channels=HUGE)
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


def repr_echoes(source: str) -> list[int]:
    """Lines of f-string fields with a !r conversion, outside a function named shown."""
    inside_shown = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "shown":
            inside_shown.update(id(n) for n in ast.walk(node))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.FormattedValue) and node.conversion == ord("r") and id(node) not in inside_shown]


@pytest.mark.parametrize("source, lines", [
    ('f"{x!r}"', [1]), ('f"a {x.y!r:>5} b"', [1]), ('f"{x!s} {x}"', []),
    ('def shown(x):\n    return f"{x!r}"', []), ('def show(x):\n    return f"{x!r}"', [2]),
])
def test_guard_sees_a_repr_echo(source, lines) -> None:
    assert repr_echoes(source) == lines


def test_every_echo_goes_through_shown() -> None:
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in repr_echoes(path.read_text(encoding="utf-8"))]
    assert found == [], "echo a value with stave.errors.shown instead of !r"


def json_text_calls(source: str) -> list[int]:
    """Lines of json_text calls outside a function named write_json that are
    not the whole argument of sys.stdout.write."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "write_json":
            allowed.update(id(n) for n in ast.walk(node))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.stdout.write":
            allowed.update(id(arg) for arg in node.args)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "json_text"
            and id(node) not in allowed]


@pytest.mark.parametrize("source, lines", [
    ("path.write_text(json_text(doc))", [1]), ("text = json_text(doc)", [1]),
    ("sys.stdout.write(json_text(doc))", []), ("sys.stderr.write(json_text(doc))", [1]),
    ("def write_json(path, doc):\n    path.write_text(json_text(doc))", []),
    ("def dump(path, doc):\n    path.write_text(json_text(doc))", [2]),
])
def test_guard_sees_a_json_text_call(source, lines) -> None:
    assert json_text_calls(source) == lines


def test_json_files_are_written_by_write_json() -> None:
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in json_text_calls(path.read_text(encoding="utf-8"))]
    assert found == [], "write a JSON document with stave.runner.write_json"


def literal_bounds(source: str) -> list[str]:
    """Each literal bound in source, as "<function>(<name or path>, <bound>)": a lo or hi
    given to a _Check method (integer, number, seconds) that holds a numeric literal, or a
    module-level name bound to one; the bounds of a Field that hold one, named by the field's
    key when the Field is a value in a dict display, else by its kind; and a lo or hi given
    to check_int or check_real, or to a name bound to either, that is a bare numeric literal
    other than 0."""
    tree = ast.parse(source)

    def a_check(node) -> bool:
        """Whether node is check_int or check_real, or a conditional choosing between them."""
        if isinstance(node, ast.IfExp):
            return a_check(node.body) or a_check(node.orelse)
        return isinstance(node, ast.Name) and node.id in ("check_int", "check_real")

    checks = {"check_int", "check_real"} | {target.id for node in ast.walk(tree)
                                             if isinstance(node, ast.Assign) and a_check(node.value)
                                             for target in node.targets if isinstance(target, ast.Name)}

    def numbers(node) -> bool:
        return any(isinstance(n, ast.Constant) and type(n.value) in (int, float) for n in ast.walk(node))

    constants = {target.id for node in tree.body if isinstance(node, ast.Assign) and numbers(node.value)
                 for target in node.targets if isinstance(target, ast.Name)}

    def literal(node) -> bool:
        return numbers(node) or any(isinstance(n, ast.Name) and n.id in constants for n in ast.walk(node))

    def bare(node) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value != 0

    def spread(args) -> list:
        """args with each *(a, b) written out as a, b."""
        return [e for a in args for e in (a.value.elts if isinstance(a, ast.Starred)
                                          and isinstance(a.value, ast.Tuple) else [a])]

    # each dict display value -> its key
    keys = {id(value): key for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for key, value in zip(node.keys, node.values) if key is not None}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Field":
            # Field(kind, bounds=(), required=False)
            kind = (node.args[:1] + [k.value for k in node.keywords if k.arg == "kind"])[0]
            bounds = node.args[1:2] + [k.value for k in node.keywords if k.arg == "bounds"]
            name = ast.unparse(keys.get(id(node), kind))
            found += [f"Field({name}, {ast.unparse(bound)})" for bound in bounds if literal(bound)]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("integer", "number", "seconds"):
            bounds = [ast.unparse(arg) for arg in node.args[2:] if literal(arg)]
            bounds += [f"{k.arg}={ast.unparse(k.value)}" for k in node.keywords
                       if k.arg in ("lo", "hi") and literal(k.value)]
            found += [f"{node.func.attr}({ast.unparse(node.args[0])}, {bound})" for bound in bounds]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in checks:
            # after the error type, the name and the value
            bounds = [ast.unparse(arg) for arg in spread(node.args[3:]) if bare(arg)]
            bounds += [f"{k.arg}={ast.unparse(k.value)}" for k in node.keywords
                       if k.arg in ("lo", "hi") and bare(k.value)]
            found += [f"{node.func.id}({ast.unparse(node.args[1])}, {bound})" for bound in bounds]
    return found


@pytest.mark.parametrize("source, found", [
    ('check.integer("bus.bitrate", v, lo=1)', ["integer('bus.bitrate', lo=1)"]),
    ('check.integer(p, v, 0, n - 1)', ["integer(p, 0)", "integer(p, n - 1)"]),
    ('check.number(p, v, hi=-0.5, default=3)', ["number(p, hi=-0.5)"]),
    ('LIMIT = 7\ncheck.integer(p, v, *(0, LIMIT))', ["integer(p, *(0, LIMIT))"]),
    ('RANGE = (0, None)\ncheck.integer(p, v, *RANGE)', ["integer(p, *RANGE)"]),
    ('check.integer(p, v, *BUS_FIELDS[key])', []), ('check.number(p, v, lo, hi, default=800.0)', []),
    ('check.integer(p, v, *radio.channel_range)', []), ('check.boolean(p, v, default=False)', []),
    # a bound written in a field table
    ('Field("integer", (1, 256))', ["Field('integer', (1, 256))"]),
    ('T = {"n": Field("integer", bounds=(0, 7), required=True)}', ["Field('n', (0, 7))"]),
    ('LIMIT = 7\nT = {"n": Field("integer", (0, LIMIT))}', ["Field('n', (0, LIMIT))"]),
    ('RANGE = (0, None)\nT = {"seed": Field("integer", RANGE)}', ["Field('seed', RANGE)"]),
    ('T = {"bitrate": Field("integer", BUS_FIELDS["bitrate"])}', []), ('Field("boolean")', []),
    ('T = {k: Field("integer", bounds) for k, bounds in BUS_FIELDS.items()}', []),
    ('Field(kind="seconds", bounds=(1e-6,))', ["Field('seconds', (1e-06,))"]),
])
def test_guard_sees_a_literal_bound(source, found) -> None:
    assert literal_bounds(source) == found


@pytest.mark.parametrize("source, found", [
    ('check_int(E, "channel", v, 0, 255)', ["check_int('channel', 255)"]),
    ('check_int(E, "dlc", v, 1, 0x8)', ["check_int('dlc', 1)", "check_int('dlc', 8)"]),
    ('check_real(E, "p", v, hi=1.0)', ["check_real('p', hi=1.0)"]),
    ('check_int(E, "n", v, -1)', ["check_int('n', -1)"]), ('check_int(E, "n", v, *(0, 7))', ["check_int('n', 7)"]),
    ('check_int(E, "t", v, 0)', []), ('check_int(E, "seq", v, 0, SEQ_MASK)', []),
    ('check_int(E, "offset", v, 0, MAX_DLC - 1)', []), ('check_int(E, "t", v, last_t + 1)', []),
    ('check_int(E, k, v, *ADDRESS_FIELDS[k])', []), ('check_int(E, k, v, lo, hi)', []),
    ('LIMIT = 7\ncheck_int(E, "n", v, 0, LIMIT)', []),
    ('check = check_real if k else check_int\ncheck(E, k, v, 0, 255)', ["check(k, 255)"]),
    ('def f():\n    bounded = check_int\n    bounded(E, "n", v, hi=9)', ["bounded('n', hi=9)"]),
    ('n = check_int(E, "n", v, 0)\nn(E, "m", v, 255)', []),
])
def test_guard_sees_a_literal_constructor_bound(source, found) -> None:
    assert literal_bounds(source) == found


# the only literal bounds scenario.py may give _Check or write in a Field: limits
# of the document alone, which no constructor checks
SCENARIO_OWN_BOUNDS = {
    "number(path, hi=MAX_TIME_S)": "a document time is at most one simulated day; constructors take microseconds",
    "Field('duration_s', (1e-06,))": "a run lasts at least one microsecond tick; no constructor takes a duration",
}
# the only bare literal bounds a check_int or check_real call in src/stave may hold:
# limits of one type alone, which no format or other type shares
CONSTRUCTOR_OWN_BOUNDS = {
    "check_int('width_bytes', 1)": "ScaledSignal's own rule: a signal field is one or two bytes wide",
    "check_int('width_bytes', 2)": "ScaledSignal's own rule: a signal field is one or two bytes wide",
    "check_int('led command', 255)": "DisplayNode's own rule: an LED command is one bitmask byte",
}


def test_every_limit_in_src_is_read_from_its_home() -> None:
    found = [bound for path in sorted(SRC.glob("*.py")) for bound in literal_bounds(path.read_text(encoding="utf-8"))
             if bound not in SCENARIO_OWN_BOUNDS and bound not in CONSTRUCTOR_OWN_BOUNDS]
    assert found == [], \
        "read the bound from its type's table (BUS_FIELDS, RADIO_FIELDS, ADDRESS_FIELDS, ...) or its format's " \
        "named limit (MAX_DLC, MAX_CHANNEL, SEQ_MASK, ...)"


RADIO_DECISIONS = {"_valid_packet", "hop_channel", "SEQ_MASK"}


def radio_decisions(source: str) -> list[int]:
    """Lines that read _valid_packet, hop_channel or SEQ_MASK: by its name, by an alias
    it was imported as, or as an attribute."""
    tree = ast.parse(source)
    aliases = {alias.asname: alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.asname}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and aliases.get(node.id, node.id) in RADIO_DECISIONS
            or isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in RADIO_DECISIONS]


@pytest.mark.parametrize("source, lines", [
    ("hop_channel(config, seq)", [1]), ("radio.hop_channel(config, seq)", [1]), ("_valid_packet(c, s, f)", [1]),
    ("seq = n & SEQ_MASK", [1]), ("pick = hop_channel", [1]),
    ("from .radio import hop_channel as pick\npick(config, seq)", [2]),
    ("from .radio import SEQ_MASK, hop_channel", []), ("SEQ_MASK = 0xFFFF", []),
    ("def hop_channel(config, seq):\n    return 0", []), ("strategy.channel_for(config, seq)", []),
])
def test_guard_sees_a_radio_decision(source, lines) -> None:
    assert radio_decisions(source) == lines


def test_only_radio_py_numbers_channels_and_builds_packets() -> None:
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) if path.name != "radio.py"
             for line in radio_decisions(path.read_text(encoding="utf-8"))]
    assert found == [], "send packets through a stave.radio.RadioInjector"
