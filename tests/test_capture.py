"""Capture log grammar: serialization, parsing, and the roundtrip law.

Line formats under test:
    (0.050524) vehicle0 0CFF1028#197D00FFFFFFFFFF
    (0.050524) air R:A55A000000010D...
"""

import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stave import (
    CaptureError,
    CaptureFile,
    CaptureLog,
    CaptureRecord,
    FrameTally,
    MonotonicityError,
    ParseError,
    parse_record,
    serialize_record,
)
from stave import capture
from stave.capture import (_LINE_RE, MAX_TIMESTAMP_US, RADIO_ID, SHARED_IDS, CapturePoint, _rejected_line,
                           valid_interface)
from stave.j1939 import MAX_CAN_ID, CanFrame


def can_record(ts: int = 50524, can_id: int = 0x0CFF1028,
               data: bytes = b"\x19\x7d\x00\xff\xff\xff\xff\xff") -> CaptureRecord:
    return CaptureRecord(timestamp_us=ts, interface="vehicle0", data=data, can_id=can_id)


def test_serialize_can_record_exact_text() -> None:
    line = serialize_record(can_record())
    assert line == "(0.050524) vehicle0 0CFF1028#197D00FFFFFFFFFF\n"


def test_serialize_radio_record_exact_text() -> None:
    record = CaptureRecord(timestamp_us=1_000_000, interface="air",
                           data=b"\xa5\x5a\x00\x01")
    assert serialize_record(record) == "(1.000000) air R:A55A0001\n"


def test_parse_serialized_can_line() -> None:
    record = parse_record("(0.050524) vehicle0 0CFF1028#197D00FFFFFFFFFF")
    assert record.timestamp_us == 50524
    assert record.interface == "vehicle0"
    assert record.can_id == 0x0CFF1028
    assert record.data == b"\x19\x7d\x00\xff\xff\xff\xff\xff"
    frame = CanFrame(record.can_id, record.data, record.timestamp_us)
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
                can_id=rng.getrandbits(29),
                data=rng.randbytes(rng.randint(0, 8)),
            )
        else:
            record = CaptureRecord(
                timestamp_us=ts, interface="air", data=rng.randbytes(rng.randint(1, 22)),
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
    # a stamp past the log's 64-bit stamps column, on a CAN and on a radio line
    "(9223372036854.775808) can0 00000100#AA": (2, "timestamp_us 9223372036854775808 outside 0..9223372036854775807"),
    "(9223372036854.775808) air R:A55A00": (2, "timestamp_us 9223372036854775808 outside 0..9223372036854775807"),
    # seconds past 13 digits
    "(10000000000000.000000) can0 00000100#AA": (2, "malformed record '(10000000000000.000000) can0 00000100#AA'"),
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


def test_parse_error_quotes_at_most_100_characters_of_a_line() -> None:
    long_stamp = f"({'1' * 5000}.000000) can0 00000100#AA"
    for line, message in (
        (long_stamp, f"malformed record {long_stamp[:100]!r}... (5026 characters)"),
        ("(0.000001) can0 " + "Z" * 5000, f"unrecognized record body {'Z' * 100!r}... (5000 characters)"),
    ):
        with pytest.raises(ParseError) as err:
            CaptureLog.from_text(f"(0.000000) can0 00000100#AA\n{line}\n")
        assert (str(err.value), err.value.lineno) == (f"line 2: {message}", 2)
        assert len(str(err.value)) < 160


def test_the_latest_stamp_parses_and_round_trips() -> None:
    text = "(9223372036854.775807) can0 00000100#AA\n(9223372036854.775807) air R:A55A00\n"
    log = CaptureLog.from_text(text)
    assert [record.timestamp_us for record in log] == [MAX_TIMESTAMP_US] * 2
    assert log.to_text() == text
    assert parse_record(serialize_record(log[1])) == log[1]


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
        record = CaptureRecord(parsed.timestamp_us, parsed.interface, parsed.data,
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


def test_rejected_line_refuses_to_explain_a_valid_line() -> None:
    # the parse hands _rejected_line only the lines it refused; a valid one
    # has no error to report, and saying so beats raising a wrong one
    with pytest.raises(AssertionError, match="line 3 holds a valid record"):
        _rejected_line(CAN_LINE, 0, _LINE_RE.match(CAN_LINE), 3, 0)


def reference_load(raw: bytes) -> CaptureLog:
    """CaptureLog.load as one decode of the whole file and from_text."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}",
                         raw.count(b"\n", 0, exc.start) + 1) from None
    return CaptureLog.from_text(text)


# sequences that are not UTF-8: a stray continuation, a lead byte cut short
# (by an LF, a space or the file's end), a surrogate and a code point past U+10FFFF
_NOT_UTF8 = [b"\x80", b"\xff", b"\xe9", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]
_FILE_LINES = st.tuples(st.one_of(_ANY_LINES, _NEAR_LINES), st.sampled_from(["\n"] * 6 + ["", "\r\n"]))
# files of up to six parts, each a line five times as often as a sequence that is not UTF-8
_FILE_BYTES = st.lists(
    st.one_of(*[_FILE_LINES.map(lambda parts: "".join(parts).encode())] * 5, st.sampled_from(_NOT_UTF8)),
    max_size=6,
).map(b"".join)
MANY_LINES = f"{LINE}\n" * 200


@pytest.mark.parametrize("block", [1, 7, 64, capture._BLOCK])
@settings(max_examples=150, derandomize=True, deadline=None)
@given(raw=_FILE_BYTES)
# a read that ends inside a character: at byte 63 or 4095 of a line longer
# than any block, and at byte 0 or 6 of a line for 1- and 7-byte blocks
@example(raw=("(0.000001) " + "\u00e9" * 3000 + " 00000100#AA\n").encode())
@example(raw=f"{LINE}\n\u00e9\n{LINE}\n".encode())
@example(raw=f"{LINE}\nabcdef\u00e9\n".encode())
# time goes backwards at the first line of the second 4 KiB (and 64 B) block
@example(raw=("(0.000002) can0 00000100#AA\n" * 147 + "(0.000001) can0 00000100#AA\n").encode())
# CRLF line ends, and a missing final LF after a faulty line and many blocks
@example(raw=f"{LINE}\r\n{LINE}\r\n".encode())
@example(raw=f"garbage\n{MANY_LINES}{LINE}".encode())
# a faulty line, then a byte that is not UTF-8 many blocks later: the byte wins
@example(raw=f"garbage\n{MANY_LINES}".encode() + b"(0.000002) can\xe90 00000100#AA\n")
@example(raw=f"(0.000002) can0 00000100#AA\n{LINE}\n{MANY_LINES}".encode() + b"\xff")
def test_load_agrees_with_decoding_the_whole_file_at_any_block_size(block, raw, tmp_path_factory) -> None:
    path = tmp_path_factory.mktemp("blocks") / "log.txt"
    path.write_bytes(raw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(capture, "_BLOCK", block)
        assert _outcome(CaptureLog.load, path) == _outcome(reference_load, raw)


@pytest.mark.parametrize("block", [1, 64])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(raw=_FILE_BYTES)
@example(raw=f"garbage\n{MANY_LINES}{LINE}".encode())
@example(raw=f"garbage\n{MANY_LINES}".encode() + b"(0.000002) can\xe90 00000100#AA\n")
def test_a_capture_file_streams_the_rows_and_errors_of_load(block, raw, tmp_path_factory) -> None:
    path = tmp_path_factory.mktemp("stream") / "log.txt"
    path.write_bytes(raw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(capture, "_BLOCK", block)
        rows = CaptureFile(path).rows()
        assert _outcome(lambda _: rows, path) == _outcome(lambda p: CaptureLog.load(p).rows(), path)


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
    point = CapturePoint("vehicle0")
    point.keep(whole := CaptureLog())
    window = CaptureLog()
    point.keep(window, 100, 300)  # [100, 300)
    for ts in (99, 100, 200, 300):
        point.observe(ts, 0x100, b"\x00")
    assert [r.timestamp_us for r in window] == [100, 200]
    assert [r.timestamp_us for r in whole] == [99, 100, 200, 300]
    assert point.seen == 4


def test_a_window_leaves_the_point_at_its_first_observation_at_or_after_its_end() -> None:
    point = CapturePoint("air")
    point.keep(whole := CaptureLog())
    point.keep(window := CaptureLog(), 100, 300)  # [100, 300)
    for ts in (50, 100, 200, 299, 300, 300, 400):
        point.observe(ts, RADIO_ID, b"\xa5")
        assert [log for log, _, _ in point.sinks] == ([whole, window] if ts < 300 else [whole])
    assert [r.timestamp_us for r in window] == [100, 200, 299]
    assert point.seen == len(whole) == 7


@pytest.mark.parametrize("keeping", [True, False])
def test_a_point_refuses_an_observation_before_its_last(keeping) -> None:
    point = CapturePoint("air")
    if keeping:
        point.keep(window := CaptureLog(), 100, 300)
    point.observe(300, RADIO_ID, b"\xa5")
    with pytest.raises(MonotonicityError) as raised:
        point.observe(200, RADIO_ID, b"\xa5")  # inside the closed window
    assert str(raised.value) == "air: observation at 200 us is before the previous one at 300 us"
    point.observe(300, RADIO_ID, b"\xa5")  # an equal timestamp is in order
    assert (point.seen, point.sinks) == (2, [])
    if keeping:
        assert len(window) == 0


def test_text_roundtrip_is_byte_identical(tmp_path) -> None:
    log = CaptureLog()
    rng = random.Random(3)
    ts = 0
    for _ in range(300):
        ts += rng.randint(1, 60_000)
        log.append(CaptureRecord(
            timestamp_us=ts, interface="vehicle0", can_id=rng.getrandbits(29), data=rng.randbytes(8),
        ))
    path = tmp_path / "round.log"
    log.save(path)
    raw = path.read_bytes()
    assert CaptureLog.load(path).to_text().encode() == raw
    assert b"\r" not in raw


CAN_LINE = "(0.050524) vehicle0 0CFF1028#197D00FFFFFFFFFF\n"


def test_parse_holds_a_repeated_payload_and_interface_once() -> None:
    log = CaptureLog.from_text(CAN_LINE * 2000)
    assert len({id(data) for _, _, data in log.rows()}) == 1
    assert len({id(record.interface) for record in log}) == 1


def test_load_holds_a_repeated_payload_and_interface_once_across_blocks(tmp_path) -> None:
    path = tmp_path / "repeated.log"
    path.write_text(CAN_LINE * 2000, encoding="utf-8")
    assert path.stat().st_size > 20 * capture._BLOCK
    log = CaptureLog.load(path)
    assert len(log) == 2000
    assert len({id(data) for _, _, data in log.rows()}) == 1
    assert len({id(record.interface) for record in log}) == 1


def test_load_peaks_a_small_fraction_of_the_file_above_the_log(tmp_path) -> None:
    # 5,000 distinct records, 230 kB: a load that read the whole file, or
    # decoded it whole, would hold at least its size on top of the log
    path = tmp_path / "distinct.log"
    path.write_text("".join(f"(0.{i:06d}) vehicle0 0CFF1028#{i:016X}\n" for i in range(5000)),
                    encoding="utf-8")
    size = path.stat().st_size
    assert size >= 200_000
    CaptureLog.load(path)  # a first load sets up what every later one shares
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = CaptureLog.load(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log) == 5000
    assert peak - held < size / 8
    assert held - before > size  # the log itself is not what the bound leaves out


def test_a_log_of_repeated_payloads_holds_at_most_half_the_bytes_of_distinct_ones() -> None:
    def held(text: str) -> int:
        """Bytes the parsed log of text holds, traced in this process."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = CaptureLog.from_text(text)
            bytes_held = tracemalloc.get_traced_memory()[0] - before
            assert len(log) == 2000
            return bytes_held
        finally:
            tracemalloc.stop()

    distinct = "".join(f"(0.050524) vehicle0 0CFF1028#{i:016X}\n" for i in range(2000))
    assert held(CAN_LINE * 2000) <= held(distinct) / 2


def test_parse_keeps_every_value_past_the_shared_identifiers() -> None:
    # the latest payload is remembered for the first SHARED_IDS identifiers
    # only; a later identifier's equal payloads are equal objects of their own
    ids = range(SHARED_IDS + 8)
    text = "".join(f"(0.000001) vehicle0 {can_id:08X}#{can_id:04X}\n" for can_id in ids) * 2
    log = CaptureLog.from_text(text)
    assert log.to_text() == text
    rows = list(log.rows())
    first, second = rows[:len(ids)], rows[len(ids):]
    assert [a[2] is b[2] for a, b in zip(first, second)] == [True] * SHARED_IDS + [False] * 8
    assert [a[2] for a in first] == [b[2] for b in second]


def test_save_peaks_a_fixed_few_kilobytes_above_the_log(tmp_path) -> None:
    # 20,000 records, 0.9 MB of text: a save that held its text, or the
    # lines it had not yet written, would hold far more
    log = CaptureLog()
    for i in range(20_000):
        log.append(CaptureRecord(i * 100, "vehicle0", (i * 7919).to_bytes(8, "big"), 0x0CFF1028))
    path = tmp_path / "big.log"
    log.save(path)  # a first save sets up what every later one shares
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log.save(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 900_000
    assert peak - before < 16_000


def _runs_of(names: list[str]) -> list[CaptureRecord]:
    """One record per name, in order: CAN and radio records, some at one instant."""
    return [CaptureRecord(i // 2 * 1000, name, bytes((i % 256, 7)), None if i % 3 == 2 else 0x100 + i % 5)
            for i, name in enumerate(names)]


# an interface that changes at every record, and one that changes every few records
_INTERFACE_RUNS = {
    "every_record": _runs_of(["can0", "ca\u0301n1", "can0", "\u8eca\u4e21"] * 5 + ["air"]),
    "every_few": _runs_of(["vehicle0"] * 4 + ["\xe4ir"] + ["op\xe9rator0"] * 3 + ["vehicle0"] * 7 + ["air"] * 2),
}


@pytest.mark.parametrize("fill", ["append", "from_text"])
@pytest.mark.parametrize("runs", sorted(_INTERFACE_RUNS))
def test_a_log_of_interface_runs_reads_like_the_list_of_its_records(runs, fill, tmp_path) -> None:
    records = _INTERFACE_RUNS[runs]
    text = "".join(serialize_record(r) for r in records)
    if fill == "append":
        log = CaptureLog()
        for record in records:
            log.append(record)
    else:
        log = CaptureLog.from_text(text)
    n = len(records)
    # every index from either end, each run's first and last rows included
    assert [log[i] for i in range(-n, n)] == records + records
    for i in (-n - 1, n, n + 10**20):
        with pytest.raises(IndexError):
            log[i]
    for cut in (slice(0, 2), slice(None), slice(-1, None)):
        with pytest.raises(TypeError):
            log[cut]
    assert list(log) == records
    assert log.to_text() == text
    path = tmp_path / "runs.log"
    log.save(path)
    assert path.read_bytes() == text.encode("utf-8")
    assert list(CaptureLog.load(path)) == records


def test_a_log_holds_each_run_of_one_interface_once() -> None:
    point = CapturePoint("vehicle0")
    point.keep(fed := CaptureLog())
    for ts in range(500):
        point.observe(ts, 0x100, b"\x00")
    assert fed._run_names == ["vehicle0"]
    assert list(CaptureLog.from_text(fed.to_text())._run_starts) == [0]
    mixed = CaptureLog.from_text("(0.000001) a 00000100#\n" * 3 + "(0.000002) b R:00\n" * 2
                                 + "(0.000003) a 00000100#\n")
    assert (list(mixed._run_starts), mixed._run_names) == ([0, 3, 5], ["a", "b", "a"])


def test_record_validation() -> None:
    with pytest.raises(CaptureError):
        CaptureRecord(timestamp_us=0, interface="x", data=b"\x00" * 9, can_id=0x1)
    with pytest.raises(CaptureError):
        CaptureRecord(timestamp_us=0, interface="x", data=b"")
    with pytest.raises(CaptureError):
        CaptureRecord(timestamp_us=0, interface="x", data=b"", can_id=1.0)
    with pytest.raises(CaptureError):
        CaptureRecord(timestamp_us=0, interface="", data=b"", can_id=1)


def test_record_rejects_whitespace_anywhere_in_interface() -> None:
    code_points = [chr(c) for c in range(sys.maxunicode + 1)]
    for c in (c for c in code_points if c.isspace()):
        for name in (c, f"{c}air", f"a{c}ir", f"air{c}"):
            with pytest.raises(CaptureError):
                CaptureRecord(timestamp_us=0, interface=name, data=b"", can_id=1)
    # every other code point is accepted, a thousand to a name
    others = [c for c in code_points if not c.isspace()]
    for i in range(0, len(others), 1000):
        CaptureRecord(timestamp_us=0, interface="".join(others[i:i + 1000]), data=b"", can_id=1)


def _model_record(timestamp_us: int, interface: str, can_id: int | None, data: bytes) -> CaptureRecord:
    if can_id is None:
        return CaptureRecord(timestamp_us=timestamp_us, interface=interface, data=data or b"\x00")
    return CaptureRecord(timestamp_us=timestamp_us, interface=interface, data=data[:8], can_id=can_id)


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
    # one record at a time: a slice is refused, not read as a record of column slices
    with pytest.raises(TypeError):
        log[data.draw(st.slices(n), label="slice")]
    # rows are the stored columns: a radio record's identifier is RADIO_ID
    assert list(log.rows()) == [(r.timestamp_us, RADIO_ID if r.can_id is None else r.can_id, r.data)
                                for r in records]
    assert [CanFrame(r.can_id, r.data, r.timestamp_us) for r in log if r.can_id is not None] == [
        CanFrame(r.can_id, r.data, timestamp_us=r.timestamp_us) for r in records if r.can_id is not None]
    # a diff's tally reads every record, a failed packet's too
    tally = FrameTally(log)
    assert (len(tally), tally.span_us) == (n, records[-1].timestamp_us - records[0].timestamp_us if n else 0)
    assert log.to_text() == "".join(serialize_record(r) for r in records)
    path = tmp_path_factory.mktemp("model") / "log.txt"
    log.save(path)
    assert path.read_bytes() == log.to_text().encode()
    assert list(CaptureLog.load(path)) == records
