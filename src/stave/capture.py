"""Capture records and the text log format.

One record per line, UTF-8, every line LF terminated and split at LF
only (a CR or any other line break is part of a line, and so an error).
Two line kinds:

    (<ts>) <iface> <ID8>#<DATAHEX>     CAN frame
    (<ts>) <iface> R:<PACKETHEX>       radio packet

``ts`` is seconds with exactly six decimal digits. ``ID8`` is the
29-bit identifier as eight uppercase hex digits. Hex payloads are
uppercase with no separators; a dlc-0 frame has nothing after ``#``.
Parsing is the strict inverse of serialization: a parsed log
re-serializes byte-identically, and timestamps must be monotone
non-decreasing within a file. One line grammar serves both parsers:
CaptureLog.from_text reads a log straight into its columns with it, and
parse_record reads one line.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import CaptureError, MonotonicityError, ParseError, check_bytes, check_int
from .j1939 import MAX_CAN_ID, CanFrame, _valid_frame

KIND_CAN = "can"
KIND_RADIO = "radio"

# The grammar of one line, LF included. Groups: seconds, fraction,
# interface, then a CAN record's identifier and payload digits or a radio
# record's packet digits; any other body matches no group. Timestamps take
# ASCII digits and no leading zero: anything else would parse but
# re-serialize differently. Hex digits are matched as one run and their
# count checked even by the reader: a pairwise repeat doubles the regex
# engine's time per line. No part matches an LF, so a match is one line.
_LINE_RE = re.compile(
    r"\((0|[1-9][0-9]*)\.([0-9]{6})\) (\S+) (?:([0-9A-F]{8})#([0-9A-F]*)|R:([0-9A-F]+)|.+)\n"
)
# a radio record's entry in a log's identifier column
_RADIO_ID = -1


def valid_interface(name) -> bool:
    """Whether name can be a log line's interface column: a non-empty str
    without whitespace (str.split() splits at exactly the isspace() characters)."""
    return isinstance(name, str) and name.split() == [name]


@dataclass(frozen=True)
class CaptureRecord:
    """One observed frame or radio packet.

    For ``kind == "can"``, ``can_id`` holds the identifier and ``data``
    the payload. For ``kind == "radio"``, ``can_id`` is None and
    ``data`` holds the full packet bytes.
    """

    timestamp_us: int
    interface: str
    kind: str
    data: bytes
    can_id: int | None = None

    def __post_init__(self):
        check_int(CaptureError, "timestamp_us", self.timestamp_us, 0)
        if not valid_interface(self.interface):
            raise CaptureError(f"interface {self.interface!r} must be non-empty without spaces")
        if type(self.data) is not bytes:
            object.__setattr__(self, "data", check_bytes(CaptureError, "data", self.data))
        if self.kind == KIND_CAN:
            check_int(CaptureError, "can record can_id", self.can_id, 0, MAX_CAN_ID)
            if len(self.data) > 8:
                raise CaptureError("can record payload exceeds 8 bytes")
        elif self.kind == KIND_RADIO:
            if self.can_id is not None:
                raise CaptureError("radio record must not carry a can_id")
            if not self.data:
                raise CaptureError("radio record needs packet bytes")
        else:
            raise CaptureError(f"unknown record kind {self.kind!r}")

    def frame(self) -> CanFrame:
        if self.kind != KIND_CAN:
            raise CaptureError("not a can record")
        # a record's fields are already a valid frame's
        return _valid_frame(self.can_id, self.data, self.timestamp_us)


def _valid_record(timestamp_us: int, interface: str, kind: str, data: bytes,
                  can_id: int | None = None) -> CaptureRecord:
    """A CaptureRecord from fields already known to be valid, without re-checking them."""
    record = object.__new__(CaptureRecord)
    object.__setattr__(record, "timestamp_us", timestamp_us)
    object.__setattr__(record, "interface", interface)
    object.__setattr__(record, "kind", kind)
    object.__setattr__(record, "data", data)
    object.__setattr__(record, "can_id", can_id)
    return record


def _format_ts(us: int) -> str:
    return f"{us // 1_000_000}.{us % 1_000_000:06d}"


def serialize_record(record: CaptureRecord) -> str:
    """Render one record as its log line, newline terminated."""
    ts = _format_ts(record.timestamp_us)
    if record.kind == KIND_CAN:
        body = f"{record.can_id:08X}#{record.data.hex().upper()}"
    else:
        body = f"R:{record.data.hex().upper()}"
    return f"({ts}) {record.interface} {body}\n"


def parse_record(line: str, lineno: int | None = None) -> CaptureRecord:
    """Parse one log line, with or without its LF; raises ParseError on any
    deviation, numbered lineno when one is given."""
    text = line[:-1] if line.endswith("\n") else line
    if "\n" in text:
        raise ParseError(f"malformed record {text!r}", lineno)
    return CaptureLog._parse(text + "\n", lineno)[0]


def _rejected_line(text: str, pos: int, match, lineno: int | None) -> ParseError:
    """The ParseError for the line at text[pos:] that _parse refused; match
    is the line's grammar match, None when the grammar refused it."""
    if match is None:
        line = text[pos:text.index("\n", pos)]
        return ParseError(f"malformed record {line!r}", lineno)
    seconds, fraction, interface, can_hex, digits, _ = match.groups()
    if can_hex is None or len(digits) % 2:
        # a body of no record kind, or an odd number of hex digits
        body = text[match.end(3) + 1:match.end() - 1]
        return ParseError(f"unrecognized record body {body!r}", lineno)
    # a syntactically valid line carrying impossible values, such as an
    # identifier past 29 bits or a payload past 8 bytes: the record says which
    try:
        CaptureRecord(int(seconds + fraction), interface, KIND_CAN, bytes.fromhex(digits),
                      int(can_hex, 16))
    except CaptureError as exc:
        return ParseError(str(exc), lineno)
    raise AssertionError(f"line {lineno} holds a valid record")


class CaptureLog:
    """An append-only, time-ordered sequence of capture records.

    Stored column-wise: timestamps and identifiers in arrays (a radio
    record's identifier is -1), interfaces and payloads in lists. A
    CaptureRecord is built only when one is read.
    """

    def __init__(self):
        self._stamps = array("q")
        self._ids = array("i")
        self._interfaces: list[str] = []
        self._payloads: list[bytes] = []

    def append(self, record: CaptureRecord) -> None:
        stamps = self._stamps
        if stamps and record.timestamp_us < stamps[-1]:
            raise MonotonicityError(
                f"timestamp {record.timestamp_us} us is before previous {stamps[-1]} us"
            )
        stamps.append(record.timestamp_us)
        self._ids.append(_RADIO_ID if record.can_id is None else record.can_id)
        self._interfaces.append(record.interface)
        self._payloads.append(record.data)

    def __len__(self) -> int:
        return len(self._stamps)

    def __iter__(self) -> Iterator[CaptureRecord]:
        return map(_stored_record, self._stamps, self._interfaces, self._ids, self._payloads)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return _stored_record(self._stamps[index], self._interfaces[index],
                              self._ids[index], self._payloads[index])

    def rows(self) -> Iterator[tuple[int, int | None, bytes]]:
        """(timestamp_us, can_id, data) of each record, without building the
        records; can_id is None for a radio record."""
        for timestamp_us, can_id, data in zip(self._stamps, self._ids, self._payloads):
            yield timestamp_us, None if can_id == _RADIO_ID else can_id, data

    @property
    def span_us(self) -> int:
        """Time between first and last record; 0 for fewer than 2 records."""
        stamps = self._stamps
        return stamps[-1] - stamps[0] if len(stamps) > 1 else 0

    def to_text(self) -> str:
        return "".join(map(serialize_record, self))

    @classmethod
    def from_text(cls, text: str) -> "CaptureLog":
        """Parse log text: LF-terminated lines, split at LF only."""
        if text and not text.endswith("\n"):
            raise ParseError("last line lacks its LF terminator", text.count("\n") + 1)
        return cls._parse(text, 1)

    @classmethod
    def _parse(cls, text: str, lineno: int | None) -> "CaptureLog":
        """The log of text, whole LF-terminated lines, read straight into the
        columns. lineno numbers text's first line in errors; None: no numbers.

        One grammar match per line reads the fields, so no per-line record,
        string list or tuple list is built.
        """
        log = cls()
        stamps, ids, interfaces, payloads = log._stamps, log._ids, log._interfaces, log._payloads
        previous = 0
        match = _LINE_RE.match
        fromhex = bytes.fromhex
        pos, end = 0, len(text)
        # every break leaves the loop at a line the grammar or a limit refused
        while pos < end:
            m = match(text, pos)
            if m is None:
                break
            seconds, fraction, interface, can_hex, digits, packet = m.groups()
            if can_hex is not None:
                can_id = int(can_hex, 16)
                if len(digits) % 2 or can_id > MAX_CAN_ID or len(digits) > 16:
                    break
            elif packet is not None and not len(packet) % 2:
                can_id, digits = _RADIO_ID, packet
            else:
                break
            stamp = int(seconds + fraction)
            if stamp < previous:
                raise MonotonicityError(
                    f"line {_line_at(text, pos, lineno)}: timestamp goes backwards "
                    f"({stamp} us after {previous} us)"
                )
            stamps.append(stamp)
            ids.append(can_id)
            interfaces.append(interface)
            payloads.append(fromhex(digits))
            previous = stamp
            pos = m.end()
        else:
            return log
        raise _rejected_line(text, pos, m, _line_at(text, pos, lineno))

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(map(serialize_record, self))

    @classmethod
    def load(cls, path: str | Path) -> "CaptureLog":
        return cls.from_text(_decode(Path(path).read_bytes()))


def _line_at(text: str, pos: int, lineno: int | None) -> int | None:
    """The number of the line at text[pos:], when text's first is lineno."""
    return None if lineno is None else lineno + text.count("\n", 0, pos)


def _decode(raw: bytes) -> str:
    """A log file's text; bytes that are not UTF-8 are a ParseError on their line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}",
                         raw.count(b"\n", 0, exc.start) + 1) from None


def _stored_record(timestamp_us: int, interface: str, can_id: int, data: bytes) -> CaptureRecord:
    """The record one row of a log's columns holds."""
    if can_id == _RADIO_ID:
        return _valid_record(timestamp_us, interface, KIND_RADIO, data)
    return _valid_record(timestamp_us, interface, KIND_CAN, data, can_id)


class CapturePoint:
    """A place that observes traffic: a segment recorder or a radio tap.

    It counts every record it sees and hands each one to the logs that
    keep it. ``sinks`` holds (log, start_us, end_us) entries: a log keeps
    the records with start_us <= timestamp_us < end_us. A new point keeps
    everything in ``log``; a run keeps only what it reads or writes.
    """

    def __init__(self, interface: str, kind: str):
        self.interface = interface
        self.kind = kind
        self.log = CaptureLog()
        self.seen = 0
        self.sinks: list[tuple[CaptureLog, int, float]] = []
        self.keep(self.log)

    def keep(self, log: CaptureLog, start_us: int = 0, end_us: float = math.inf) -> None:
        """Also append the records seen in [start_us, end_us) to log."""
        self.sinks.append((log, start_us, end_us))

    def observe(self, timestamp_us: int, data: bytes, can_id: int | None = None) -> None:
        """Count one valid observation; build its record only if a sink keeps it."""
        self.seen += 1
        record = None
        for log, start_us, end_us in self.sinks:
            if start_us <= timestamp_us < end_us:
                if record is None:
                    record = _valid_record(timestamp_us, self.interface, self.kind, data, can_id)
                log.append(record)
