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
from stave.capture import KIND_CAN, KIND_RADIO, CapturePoint, valid_interface
from stave.j1939 import MAX_CAN_ID, CanFrame


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


# each malformed line, and the (line number, message) of the ParseError that
# CaptureLog.from_text raises for a log holding it as line 2 of 3
MALFORMED = {
    "": (2, "malformed record ''"),
    "garbage": (2, "malformed record 'garbage'"),
    # timestamp needs 6 decimals
    "(1.5) can0 00000100#": (2, "malformed record '(1.5) can0 00000100#'"),
    # id must be 8 hex digits
    "(0.000001) can0 100#AA": (2, "unrecognized record body '100#AA'"),
    # odd hex digit count
    "(0.000001) can0 00000100#A": (2, "unrecognized record body '00000100#A'"),
    # lowercase payload
    "(0.000001) can0 00000100#aa": (2, "unrecognized record body '00000100#aa'"),
    # lowercase id
    "(0.000001) can0 0cff1028#AA": (2, "unrecognized record body '0cff1028#AA'"),
    # beyond 29 bits
    "(0.000001) can0 20000000#AA": (2, "can record can_id 536870912 outside 0..536870911"),
    # dlc over 8
    "(0.000001) can0 00000100#AABBCCDDEEFF00112233": (2, "can record payload exceeds 8 bytes"),
    # empty radio payload
    "(0.000001) air R:": (2, "unrecognized record body 'R:'"),
    # odd hex digit count
    "(0.000001) air R:ABC": (2, "unrecognized record body 'R:ABC'"),
    # negative time
    "(-0.000001) can0 00000100#AA": (2, "malformed record '(-0.000001) can0 00000100#AA'"),
    # leading zero in the seconds
    "(01.000000) can0 0CFF1028#00": (2, "malformed record '(01.000000) can0 0CFF1028#00'"),
    # non-ASCII digit
    "(1\u0660.000000) can0 0CFF1028#00": (2, "malformed record '(1\u0660.000000) can0 0CFF1028#00'"),
    # non-ASCII digit
    "(0.00000\u0665) can0 0CFF1028#00": (2, "malformed record '(0.00000\u0665) can0 0CFF1028#00'"),
    # a second newline: in a log, an empty line after a good one
    "(0.000000) can0 0CFF1028#00\n\n": (3, "malformed record ''"),
}


@pytest.mark.parametrize("line", MALFORMED)
def test_parse_rejects_malformed(line: str) -> None:
    with pytest.raises(ParseError):
        parse_record(line)


@pytest.mark.parametrize("line", MALFORMED)
def test_from_text_pins_each_parse_error(line: str) -> None:
    lineno, message = MALFORMED[line]
    text = f"(0.000000) can0 00000100#AA\n{line}\n(9.000000) can0 00000100#AA\n"
    with pytest.raises(ParseError) as err:
        CaptureLog.from_text(text)
    assert str(err.value) == f"line {lineno}: {message}"
    assert err.value.lineno == lineno
    if lineno == 2:
        with pytest.raises(ParseError) as err:
            parse_record(line)
        assert (str(err.value), err.value.lineno) == (message, None)


def test_from_text_pins_order_and_framing_errors() -> None:
    with pytest.raises(MonotonicityError) as err:
        CaptureLog.from_text("(0.000002) can0 00000100#AA\n(0.000001) can0 00000100#AA\n"
                             "(0.000003) can0 00000100#AA\n")
    assert str(err.value) == "line 2: timestamp goes backwards (1 us after 2 us)"
    # the final LF is checked before any line is parsed
    for text, lineno in ((f"{LINE}\n{LINE}\n{LINE}", 3), ("garbage\nnope", 2), ("x", 1)):
        with pytest.raises(ParseError) as err:
            CaptureLog.from_text(text)
        assert str(err.value) == f"line {lineno}: last line lacks its LF terminator"
        assert err.value.lineno == lineno
    with pytest.raises(ParseError) as err:
        parse_record("(0.000000) can0 0CFF1028#00\n\n", lineno=4)
    assert str(err.value) == "line 4: malformed record '(0.000000) can0 0CFF1028#00\\n'"


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


# every line break str.splitlines knows; a log line ends at LF alone
_LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
LINE = "(0.000001) can0 00000100#AA"


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.one_of(
    st.lists(st.tuples(_NEAR_LINES, st.sampled_from(["", *_LINE_BREAKS])), max_size=3)
    .map(lambda parts: "".join(line + end for line, end in parts)),
    st.text(max_size=40),
))
def test_every_accepted_text_reserializes_identically(text: str) -> None:
    try:
        log = CaptureLog.from_text(text)
    except CaptureError:
        return
    assert log.to_text() == text


# every code point str.isspace() names, and so str.split() splits at
_SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
# log lines that are mostly valid, with interfaces of any code points,
# whitespace included, and bodies on and just off the grammar
_ANY_LINES = st.builds(
    "({}) {} {}".format,
    st.one_of(st.sampled_from([0, 1, 1_500_000]), st.integers(0, 99_999_999))
    .map(lambda us: f"{us // 1_000_000}.{us % 1_000_000:06d}"),
    st.one_of(
        st.sampled_from(["can0", "air"]),
        st.sampled_from(["can0", "air"]),
        st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3),
        st.tuples(st.text(max_size=2), st.sampled_from(_SPACES), st.text(max_size=2)).map("".join),
    ),
    st.one_of(
        st.builds("{:08X}#{}".format, st.integers(0, 2 * MAX_CAN_ID), st.binary(max_size=9).map(bytes.hex))
        .map(str.upper),
        st.binary(min_size=1, max_size=4).map(lambda data: "R:" + data.hex().upper()),
        st.text("0123456789ABCDEFR:#a ", max_size=12),
    ),
)


def reference_from_text(text: str) -> CaptureLog:
    """CaptureLog.from_text as one parse_record and one append per line,
    each record checked again by its validating constructor."""
    lines = text.split("\n")
    if lines[-1]:
        raise ParseError("last line lacks its LF terminator", len(lines))
    log = CaptureLog()
    for lineno, line in enumerate(lines[:-1], start=1):
        parsed = parse_record(line, lineno)
        record = CaptureRecord(parsed.timestamp_us, parsed.interface, parsed.kind, parsed.data,
                               parsed.can_id)
        try:
            log.append(record)
        except MonotonicityError:
            raise MonotonicityError(f"line {lineno}: timestamp goes backwards "
                                    f"({record.timestamp_us} us after {log[-1].timestamp_us} us)") from None
    return log


def _outcome(parse, text: str):
    try:
        return list(parse(text))
    except CaptureError as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(
    *[st.lists(st.tuples(lines, st.sampled_from(["\n"] * 6 + ["", "\r\n"])), max_size=4)
      .map(lambda parts: "".join(line + end for line, end in parts))
      for lines in (_ANY_LINES, _ANY_LINES, _ANY_LINES, _NEAR_LINES)],
    st.text(max_size=40),
))
def test_from_text_agrees_with_parsing_line_by_line(text: str) -> None:
    assert _outcome(CaptureLog.from_text, text) == _outcome(reference_from_text, text)


def test_grammar_takes_exactly_the_valid_interfaces() -> None:
    for c in _SPACES:
        name = f"a{c}b"
        assert not valid_interface(name)
        with pytest.raises(ParseError):
            CaptureLog.from_text(f"(0.000000) {name} 00000100#\n")
    others = [chr(c) for c in range(sys.maxunicode + 1) if not chr(c).isspace()]
    names = ["".join(others[i:i + 1000]) for i in range(0, len(others), 1000)]
    assert all(map(valid_interface, names))
    log = CaptureLog.from_text("".join(f"(0.000000) {name} 00000100#\n" for name in names))
    assert [record.interface for record in log] == names


@pytest.mark.parametrize("brk", _LINE_BREAKS[1:])
def test_from_text_splits_at_lf_only(brk: str) -> None:
    with pytest.raises(ParseError) as err:
        CaptureLog.from_text(f"{LINE}\n{LINE}{brk}{LINE}\n")
    assert err.value.lineno == 2


def test_from_text_needs_a_final_lf() -> None:
    assert len(CaptureLog.from_text("")) == 0
    with pytest.raises(ParseError) as err:
        CaptureLog.from_text(f"{LINE}\n{LINE}")
    assert err.value.lineno == 2


def test_load_reads_line_ends_untranslated(tmp_path) -> None:
    path = tmp_path / "crlf.log"
    path.write_bytes(f"{LINE}\r\n".encode())
    with pytest.raises(ParseError) as err:
        CaptureLog.load(path)
    assert err.value.lineno == 1


def test_load_reports_bytes_that_are_not_utf8_on_their_line(tmp_path) -> None:
    path = tmp_path / "latin1.log"
    path.write_bytes(f"{LINE}\n".encode() + "(0.000002) can\xe90 00000100#AA\n".encode("latin-1"))
    with pytest.raises(ParseError) as err:
        CaptureLog.load(path)
    assert err.value.lineno == 2
    assert "not UTF-8" in str(err.value)


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


def test_capture_point_keeps_half_open_window() -> None:
    point = CapturePoint("vehicle0", KIND_CAN)
    window = CaptureLog()
    point.keep(window, 100, 300)  # [100, 300)
    for ts in (99, 100, 200, 300):
        point.observe(ts, b"\x00", 0x100)
    assert [r.timestamp_us for r in window] == [100, 200]
    assert [r.timestamp_us for r in point.log] == [99, 100, 200, 300]
    assert point.seen == 4


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
        CaptureRecord(timestamp_us=0, interface="x", kind=KIND_CAN, data=b"", can_id=1.0)
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


def _model_record(timestamp_us: int, interface: str, can_id: int | None, data: bytes) -> CaptureRecord:
    if can_id is None:
        return CaptureRecord(timestamp_us=timestamp_us, interface=interface, kind=KIND_RADIO,
                             data=data or b"\x00")
    return CaptureRecord(timestamp_us=timestamp_us, interface=interface, kind=KIND_CAN,
                         data=data[:8], can_id=can_id)


def _model_records(rows) -> list[CaptureRecord]:
    records, ts = [], 0
    for gap, interface, can_id, data in rows:
        ts += gap
        records.append(_model_record(ts, interface, can_id, data))
    return records


# valid CAN and radio records in time order, ties included
_RECORDS = st.lists(st.tuples(
    st.one_of(st.just(0), st.integers(0, 3_000_000)),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3).filter(valid_interface),
    st.one_of(st.none(), st.integers(0, MAX_CAN_ID)),
    st.binary(max_size=12),
), max_size=12).map(_model_records)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(records=_RECORDS, data=st.data())
def test_log_reads_like_a_list_of_its_records(records, data, tmp_path_factory) -> None:
    log = CaptureLog()
    for record in records:
        log.append(record)
    n = len(records)
    assert len(log) == n
    assert list(log) == records
    assert [log[i] for i in range(-n, n)] == records + records
    for i in (-n - 1, n):
        with pytest.raises(IndexError):
            log[i]
    cut = data.draw(st.slices(n), label="slice")
    assert log[cut] == records[cut]
    assert list(log.rows()) == [(r.timestamp_us, r.can_id, r.data) for r in records]
    assert [r.frame() for r in log if r.kind == KIND_CAN] == [
        CanFrame(r.can_id, r.data, timestamp_us=r.timestamp_us) for r in records if r.kind == KIND_CAN]
    assert log.span_us == (records[-1].timestamp_us - records[0].timestamp_us if n > 1 else 0)
    assert log.to_text() == "".join(serialize_record(r) for r in records)
    path = tmp_path_factory.mktemp("model") / "log.txt"
    log.save(path)
    assert list(CaptureLog.load(path)) == records
