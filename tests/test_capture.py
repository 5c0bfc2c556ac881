"""Capture log grammar: serialization, parsing, and the roundtrip law.

Line formats under test:
    (0.050524) vehicle0 0CFF1028#197D00FFFFFFFFFF
    (0.050524) air R:A55A000000010D...
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stave import (
    CaptureError,
    CaptureLog,
    CaptureRecord,
    MonotonicityError,
    ParseError,
    parse_record,
    serialize_record,
)
from stave.capture import KIND_CAN, KIND_RADIO


def can_record(ts: int = 50524, can_id: int = 0x0CFF1028,
               data: bytes = b"\x19\x7d\x00\xff\xff\xff\xff\xff") -> CaptureRecord:
    return CaptureRecord(timestamp_us=ts, interface="vehicle0", kind=KIND_CAN,
                         data=data, can_id=can_id)


def test_serialize_can_record_exact_text() -> None:
    line = serialize_record(can_record())
    assert line == "(0.050524) vehicle0 0CFF1028#197D00FFFFFFFFFF\n"


def test_serialize_radio_record_exact_text() -> None:
    record = CaptureRecord(timestamp_us=1_000_000, interface="air",
                           kind=KIND_RADIO, data=b"\xa5\x5a\x00\x01")
    assert serialize_record(record) == "(1.000000) air R:A55A0001\n"


def test_parse_serialized_can_line() -> None:
    record = parse_record("(0.050524) vehicle0 0CFF1028#197D00FFFFFFFFFF")
    assert record.timestamp_us == 50524
    assert record.interface == "vehicle0"
    assert record.kind == KIND_CAN
    assert record.can_id == 0x0CFF1028
    assert record.data == b"\x19\x7d\x00\xff\xff\xff\xff\xff"
    frame = record.frame()
    assert frame.can_id == 0x0CFF1028
    assert frame.timestamp_us == 50524


def test_parse_empty_payload_frame() -> None:
    record = parse_record("(0.000268) can0 00000100#")
    assert record.data == b""
    assert record.can_id == 0x100


def test_roundtrip_random_records() -> None:
    rng = random.Random(99)
    ts = 0
    for _ in range(2_000):
        ts += rng.randint(0, 100_000)
        if rng.random() < 0.5:
            record = CaptureRecord(
                timestamp_us=ts, interface=rng.choice(["vehicle0", "operator0"]),
                kind=KIND_CAN, can_id=rng.getrandbits(29),
                data=rng.randbytes(rng.randint(0, 8)),
            )
        else:
            record = CaptureRecord(
                timestamp_us=ts, interface="air", kind=KIND_RADIO,
                data=rng.randbytes(rng.randint(1, 22)),
            )
        assert parse_record(serialize_record(record).rstrip("\n")) == record


@pytest.mark.parametrize("line", [
    "",
    "garbage",
    "(1.5) can0 00000100#",             # timestamp needs 6 decimals
    "(0.000001) can0 100#AA",           # id must be 8 hex digits
    "(0.000001) can0 00000100#A",       # odd hex digit count
    "(0.000001) can0 00000100#aa",      # lowercase payload
    "(0.000001) can0 0cff1028#AA",      # lowercase id
    "(0.000001) can0 20000000#AA",      # beyond 29 bits
    "(0.000001) can0 00000100#AABBCCDDEEFF00112233",  # dlc over 8
    "(0.000001) air R:",                # empty radio payload
    "(0.000001) air R:ABC",             # odd hex digit count
    "(-0.000001) can0 00000100#AA",     # negative time
    "(01.000000) can0 0CFF1028#00",     # leading zero in the seconds
    "(1\u0660.000000) can0 0CFF1028#00",  # non-ASCII digit
    "(0.00000\u0665) can0 0CFF1028#00",  # non-ASCII digit
    "(0.000000) can0 0CFF1028#00\n\n",  # a second newline
])
def test_parse_rejects_malformed(line: str) -> None:
    with pytest.raises(ParseError):
        parse_record(line)


# a looser grammar than the log format's: any Unicode digits, leading
# zeros, any interface text, and an optional extra line end
_NEAR_LINES = st.from_regex(
    r"\A\(\d{1,3}\.\d{6}\) \S{1,4} (?:[0-9A-F]{8}#(?:[0-9A-F]{2}){0,9}|R:(?:[0-9A-F]{2}){0,3})(?:\n|\r\n|\n\n)?\Z"
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.one_of(_NEAR_LINES, st.text(max_size=30)))
def test_every_accepted_line_reserializes_identically(line: str) -> None:
    try:
        record = parse_record(line)
    except ParseError:
        return
    assert serialize_record(record) == line.removesuffix("\n") + "\n"


def test_parse_error_carries_line_number() -> None:
    with pytest.raises(ParseError) as err:
        parse_record("nope", lineno=7)
    assert "line 7" in str(err.value)


def test_from_text_reports_offending_line() -> None:
    text = "(0.000001) can0 00000100#AA\nbroken\n"
    with pytest.raises(ParseError) as err:
        CaptureLog.from_text(text)
    assert "line 2" in str(err.value)


def test_append_enforces_monotone_time() -> None:
    log = CaptureLog()
    log.append(can_record(ts=100))
    log.append(can_record(ts=100))  # equal is allowed
    with pytest.raises(MonotonicityError):
        log.append(can_record(ts=99))


def test_from_text_enforces_monotone_time() -> None:
    lines = (
        "(0.000200) can0 00000100#AA\n"
        "(0.000100) can0 00000100#AA\n"
    )
    with pytest.raises(MonotonicityError):
        CaptureLog.from_text(lines)


def test_window_is_half_open() -> None:
    log = CaptureLog()
    for ts in (100, 200, 300):
        log.append(can_record(ts=ts))
    selected = log.window(100, 300)
    assert [r.timestamp_us for r in selected] == [100, 200]


def test_span_us() -> None:
    log = CaptureLog()
    assert log.span_us == 0
    log.append(can_record(ts=100))
    assert log.span_us == 0
    log.append(can_record(ts=700))
    assert log.span_us == 600


def test_text_roundtrip_is_byte_identical(tmp_path) -> None:
    log = CaptureLog()
    rng = random.Random(3)
    ts = 0
    for _ in range(300):
        ts += rng.randint(1, 60_000)
        log.append(CaptureRecord(
            timestamp_us=ts, interface="vehicle0", kind=KIND_CAN,
            can_id=rng.getrandbits(29), data=rng.randbytes(8),
        ))
    path = tmp_path / "round.log"
    log.save(path)
    raw = path.read_bytes()
    assert CaptureLog.load(path).to_text().encode() == raw
    assert b"\r" not in raw


def test_record_validation() -> None:
    with pytest.raises(CaptureError):
        CaptureRecord(timestamp_us=0, interface="x", kind=KIND_CAN,
                      data=b"\x00" * 9, can_id=0x1)
    with pytest.raises(CaptureError):
        CaptureRecord(timestamp_us=0, interface="x", kind=KIND_RADIO, data=b"")
    with pytest.raises(CaptureError):
        CaptureRecord(timestamp_us=0, interface="x", kind=KIND_CAN, data=b"", can_id=None)
    with pytest.raises(CaptureError):
        CaptureRecord(timestamp_us=0, interface="", kind=KIND_CAN, data=b"", can_id=1)


def test_record_rejects_whitespace_anywhere_in_interface() -> None:
    code_points = [chr(c) for c in range(sys.maxunicode + 1)]
    for c in (c for c in code_points if c.isspace()):
        for name in (c, f"{c}air", f"a{c}ir", f"air{c}"):
            with pytest.raises(CaptureError):
                CaptureRecord(timestamp_us=0, interface=name, kind=KIND_CAN, data=b"", can_id=1)
    # every other code point is accepted, a thousand to a name
    others = [c for c in code_points if not c.isspace()]
    for i in range(0, len(others), 1000):
        CaptureRecord(timestamp_us=0, interface="".join(others[i:i + 1000]), kind=KIND_CAN,
                      data=b"", can_id=1)
