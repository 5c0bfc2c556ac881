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
non-decreasing within a file and at most MAX_TIMESTAMP_US. One parse
loop reads text into rows: CaptureLog.from_text and load append them all.

A file is read in blocks of whole lines, each parsed as it is read, so
a load holds the log and one block, and CaptureFile.rows() one block,
never the whole file. A file's first fault is reported in this order: a
byte that is not UTF-8 (anywhere in the file), then a last line without
its LF, then the first faulty line, so a fold over a file's rows ends in
that error before it has a result.
"""

from __future__ import annotations

import math
import operator
import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator

from .errors import CaptureError, MonotonicityError, ParseError, check_bytes, check_int, shown
from .j1939 import MAX_CAN_ID, MAX_DLC

# The grammar of one line, LF included. Groups: seconds, fraction,
# interface, then a CAN record's identifier and payload digits or a radio
# record's packet digits; any other body matches no group. Timestamps take
# ASCII digits, at most 13 in the seconds as in MAX_TIMESTAMP_US, and no
# leading zero: anything else would parse but re-serialize differently. Hex
# digits are matched as one run and their count checked even by the reader:
# a pairwise repeat doubles the regex engine's time per line. No part
# matches an LF, so a match is one line.
_LINE_RE = re.compile(
    r"\((0|[1-9][0-9]{0,12})\.([0-9]{6})\) (\S+) (?:([0-9A-F]{8})#([0-9A-F]*)|R:([0-9A-F]+)|.+)\n"
)
# a radio record's identifier in a log's columns and rows
RADIO_ID = -1
# the latest stamp a log's 64-bit stamps column holds
MAX_TIMESTAMP_US = 2**63 - 1
# how many CAN identifiers a parse remembers the latest payload of, so that
# equal payloads share one object; a vehicle bus carries a few hundred, and
# a log of ever-new identifiers pays for no more than this many entries
SHARED_IDS = 2048
# how many bytes a file's parse reads at a time before it completes the block
# to the next LF; it holds one block's bytes and text beside what it builds
_BLOCK = 4096


def valid_interface(name) -> bool:
    """Whether name can be a log line's interface column: a non-empty str
    without whitespace (str.split() splits at exactly the isspace() characters)."""
    return isinstance(name, str) and name.split() == [name]


@dataclass(frozen=True)
class CaptureRecord:
    """One observed frame or radio packet: a row of a capture log.

    A CAN record holds its identifier in ``can_id`` and its payload in
    ``data``. A radio record is one whose ``can_id`` is None; ``data``
    holds the full packet bytes.
    """

    timestamp_us: int
    interface: str
    data: bytes
    can_id: int | None = None

    def __post_init__(self):
        check_int(CaptureError, "timestamp_us", self.timestamp_us, 0, MAX_TIMESTAMP_US)
        if not valid_interface(self.interface):
            raise CaptureError(f"interface {shown(self.interface)} must be non-empty without spaces")
        if type(self.data) is not bytes:
            object.__setattr__(self, "data", check_bytes(CaptureError, "data", self.data))
        if self.can_id is None:
            if not self.data:
                raise CaptureError("radio record needs packet bytes")
        else:
            check_int(CaptureError, "can record can_id", self.can_id, 0, MAX_CAN_ID)
            if len(self.data) > MAX_DLC:
                raise CaptureError(f"can record payload exceeds {MAX_DLC} bytes")


def _format_row(timestamp_us: int, interface: str, can_id: int, data: bytes) -> str:
    """The log line of one row of a log's columns (can_id RADIO_ID: a radio record)."""
    ts = f"{timestamp_us // 1_000_000}.{timestamp_us % 1_000_000:06d}"
    if can_id == RADIO_ID:
        return f"({ts}) {interface} R:{data.hex().upper()}\n"
    return f"({ts}) {interface} {can_id:08X}#{data.hex().upper()}\n"


def _row(record: CaptureRecord) -> tuple[int, str, int, bytes]:
    """A record's fields in the order of a log's columns, a radio record's can_id as RADIO_ID."""
    return record.timestamp_us, record.interface, RADIO_ID if record.can_id is None else record.can_id, record.data


def serialize_record(record: CaptureRecord) -> str:
    """Render one record as its log line, newline terminated."""
    return _format_row(*_row(record))


def parse_record(line: str, lineno: int | None = None) -> CaptureRecord:
    """Parse one log line, with or without its LF; raises ParseError on any
    deviation, numbered lineno when one is given."""
    text = line[:-1] if line.endswith("\n") else line
    if "\n" in text:
        raise ParseError(f"malformed record {shown(text)}", lineno)
    return _stored_record(*next(_parse_rows([text + "\n"], lineno)))


def _rejected_line(text: str, pos: int, match, lineno: int | None, previous: int) -> CaptureError:
    """The error for the line at text[pos:] that _parse_rows refused after one stamped
    previous; match is the line's grammar match, None when the grammar refused it."""
    if match is None:
        line = text[pos:text.index("\n", pos)]
        return ParseError(f"malformed record {shown(line)}", lineno)
    seconds, fraction, interface, can_hex, digits, packet = match.groups()
    if can_hex is None:  # a radio record's packet, or a body of no record kind
        digits = packet
    if digits is None or len(digits) % 2:
        # a body of no record kind, or an odd number of hex digits
        body = text[match.end(3) + 1:match.end() - 1]
        return ParseError(f"unrecognized record body {shown(body)}", lineno)
    # a syntactically valid line carrying impossible values, such as a stamp
    # past MAX_TIMESTAMP_US, an identifier past 29 bits or a payload past 8
    # bytes: the record says which
    stamp = int(seconds + fraction)
    try:
        CaptureRecord(stamp, interface, bytes.fromhex(digits), None if can_hex is None else int(can_hex, 16))
    except CaptureError as exc:
        return ParseError(str(exc), lineno)
    if stamp < previous:
        return MonotonicityError(f"line {lineno}: timestamp goes backwards ({stamp} us after {previous} us)")
    raise AssertionError(f"line {lineno} holds a valid record")


def _parse_rows(blocks: Iterable[str], lineno: int | None) -> Iterator[tuple[int, str, int, bytes]]:
    """The rows (timestamp_us, interface, can_id, data) of blocks of whole
    LF-terminated lines, one after another. lineno numbers the first
    block's first line in errors; None: no numbers.

    One grammar match per line reads the fields. Equal values share one
    object: a row keeps the previous row's interface when it is equal, and
    a CAN payload the last payload of its identifier when that is equal
    (for the first SHARED_IDS identifiers), across blocks. A faulty line
    raises once every later block is read, so the blocks' own faults come first.
    """
    blocks = iter(blocks)
    previous = parsed = 0  # the last stamp; the lines of the blocks before this one
    iface = None
    last_payload: dict[int, bytes] = {}  # the latest payload of up to SHARED_IDS identifiers
    match = _LINE_RE.match
    fromhex = bytes.fromhex
    max_digits = 2 * MAX_DLC
    for text in blocks:
        pos, end = 0, len(text)
        # every break leaves the loop at a line the grammar or a limit refused
        while pos < end:
            m = match(text, pos)
            if m is None:
                break
            seconds, fraction, interface, can_hex, digits, packet = m.groups()
            if can_hex is not None:
                can_id = int(can_hex, 16)
                if len(digits) % 2 or can_id > MAX_CAN_ID or len(digits) > max_digits:
                    break
                data = fromhex(digits)
                kept = last_payload.get(can_id)
                if kept == data:
                    data = kept
                elif kept is not None or len(last_payload) < SHARED_IDS:
                    last_payload[can_id] = data
            elif packet is not None and not len(packet) % 2:
                # radio packets differ in seq and CRC, so only frames repeat
                can_id, data = RADIO_ID, fromhex(packet)
            else:
                break
            stamp = int(seconds + fraction)
            if not previous <= stamp <= MAX_TIMESTAMP_US:
                break
            if interface != iface:
                iface = interface
            yield stamp, iface, can_id, data
            previous = stamp
            pos = m.end()
        else:
            parsed += text.count("\n")
            continue
        if lineno is not None:
            lineno += parsed + text.count("\n", 0, pos)
        fault = _rejected_line(text, pos, m, lineno, previous)
        for _ in blocks:  # a byte that is not UTF-8 or a missing final LF later on is reported first
            pass
        raise fault


class CaptureLog:
    """An append-only, time-ordered sequence of capture records.

    Stored column-wise: timestamps and identifiers in arrays (a radio
    record's identifier is RADIO_ID), payloads in a list, and interfaces as
    runs: the first row of each run of equal interfaces in an array, its
    name in a list, so a log fed by one capture point holds one name. A
    CaptureRecord is built only when one is read.
    """

    def __init__(self):
        self._stamps = array("q")
        self._ids = array("i")
        self._payloads: list[bytes] = []
        self._run_starts = array("q")
        self._run_names: list[str] = []

    def append(self, record: CaptureRecord) -> None:
        self._append_row(*_row(record))

    def _append_row(self, timestamp_us: int, interface: str, can_id: int, data: bytes) -> None:
        """Append the row of the record with these fields, already known to be
        valid (can_id RADIO_ID: a radio record), without building it."""
        stamps = self._stamps
        if stamps and timestamp_us < stamps[-1]:
            raise MonotonicityError(f"timestamp {timestamp_us} us is before previous {stamps[-1]} us")
        names = self._run_names
        if not names or names[-1] != interface:
            self._run_starts.append(len(stamps))
            names.append(interface)
        stamps.append(timestamp_us)
        self._ids.append(can_id)
        self._payloads.append(data)

    def __len__(self) -> int:
        return len(self._stamps)

    def _interfaces(self) -> Iterator[str]:
        """Each row's interface, rebuilt from the runs."""
        starts = self._run_starts
        lengths = map(operator.sub, chain(islice(starts, 1, None), (len(self._stamps),)), starts)
        return chain.from_iterable(map(repeat, self._run_names, lengths))

    def __iter__(self) -> Iterator[CaptureRecord]:
        return map(_stored_record, self._stamps, self._interfaces(), self._ids, self._payloads)

    def __getitem__(self, index: int) -> CaptureRecord:
        # a log takes no slice (TypeError), and no index past either end (IndexError)
        index = range(len(self._stamps))[operator.index(index)]
        return _stored_record(self._stamps[index], self._run_names[bisect_right(self._run_starts, index) - 1],
                              self._ids[index], self._payloads[index])

    def rows(self) -> Iterator[tuple[int, int, bytes]]:
        """(timestamp_us, can_id, data) of each record, straight from the
        columns without building the records; a radio record's can_id is
        RADIO_ID (-1), below every CAN identifier."""
        return zip(self._stamps, self._ids, self._payloads)

    def _lines(self) -> Iterator[str]:
        return map(_format_row, self._stamps, self._interfaces(), self._ids, self._payloads)

    def to_text(self) -> str:
        return "".join(self._lines())

    @classmethod
    def from_text(cls, text: str) -> "CaptureLog":
        """Parse log text: LF-terminated lines, split at LF only."""
        if text and not text.endswith("\n"):
            raise _unterminated(text.count("\n") + 1)
        return cls._of_rows(_parse_rows([text], 1))

    @classmethod
    def _of_rows(cls, rows: Iterable[tuple[int, str, int, bytes]]) -> "CaptureLog":
        """The log of every row _parse_rows yields, appended straight to the columns;
        it repeats one interface object along a run, so identity finds each run's start."""
        log = cls()
        stamps, ids, payloads = log._stamps, log._ids, log._payloads
        starts, names = log._run_starts, log._run_names
        last = None
        for stamp, interface, can_id, data in rows:
            if interface is not last:
                starts.append(len(stamps))
                names.append(last := interface)
            stamps.append(stamp)
            ids.append(can_id)
            payloads.append(data)
        return log

    def save(self, path: str | Path) -> None:
        write_utf8(path, self._lines())

    @classmethod
    def load(cls, path: str | Path) -> "CaptureLog":
        """Parse a log file block by block, holding one block beside the log."""
        return cls._of_rows(_parse_rows(_file_blocks(path), 1))


class CaptureFile:
    """A log file read as rows, like a CaptureLog's: each rows() call parses
    it anew, a block at a time, so a fold over them never holds the log."""

    def __init__(self, path: str | Path):
        self.path = path

    def rows(self) -> Iterator[tuple[int, int, bytes]]:
        """(timestamp_us, can_id, data) of each record, as CaptureLog.rows() gives them."""
        return map(operator.itemgetter(0, 2, 3), _parse_rows(_file_blocks(self.path), 1))


def _unterminated(lineno: int) -> ParseError:
    """The ParseError of a log whose last line, line lineno, lacks its LF."""
    return ParseError("last line lacks its LF terminator", lineno)


def _file_blocks(path: str | Path) -> Iterator[str]:
    """The blocks of whole lines of a log file, each _BLOCK bytes completed
    to the next LF, decoded. A block splits no UTF-8 sequence, as none
    holds an LF byte. Bytes that are not UTF-8 are a ParseError on their
    line, and so is a last line without its LF: only these errors count
    the lines before them, reading the file again."""
    with open(path, "rb") as fh:
        offset = 0
        while block := fh.read(_BLOCK):
            if not block.endswith(b"\n"):
                block += fh.readline()
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8: {exc.reason} at byte {offset + exc.start}",
                                 _line_of_byte(fh, offset + exc.start)) from None
            offset += len(block)
            if not text.endswith("\n"):  # the file's end
                raise _unterminated(_line_of_byte(fh, offset))
            yield text


def _line_of_byte(fh, offset: int) -> int:
    """The number of the line holding byte offset of a file open for binary
    reading, counted from its start a block at a time."""
    fh.seek(0)
    lineno = 1
    while offset > 0 and (block := fh.read(min(offset, _BLOCK))):
        lineno += block.count(b"\n")
        offset -= len(block)
    return lineno


def write_utf8(path: str | Path, pieces: Iterable[str]) -> None:
    """Write the UTF-8 bytes of the text pieces make up to path, a piece at a
    time through one binary buffer: neither the text nor its lines are held."""
    with open(path, "wb") as fh:
        fh.writelines(map(str.encode, pieces))


def _stored_record(timestamp_us: int, interface: str, can_id: int, data: bytes) -> CaptureRecord:
    """The record one row of a log's columns holds, built without re-checking
    its fields (can_id RADIO_ID: a radio record)."""
    record = object.__new__(CaptureRecord)
    object.__setattr__(record, "timestamp_us", timestamp_us)
    object.__setattr__(record, "interface", interface)
    object.__setattr__(record, "data", data)
    object.__setattr__(record, "can_id", None if can_id == RADIO_ID else can_id)
    return record


class CapturePoint:
    """A place that observes traffic: a bus segment or a radio tap.

    It counts every record it sees in ``seen`` and hands each one to the
    logs that keep it. ``sinks`` holds the open (log, start_us, end_us)
    entries: a log keeps the records with start_us <= timestamp_us < end_us.
    A point observes in clock order and refuses an observation before the
    last one, so the first observation at or after end_us closes a sink and
    drops it. A new point keeps nothing; a run asks it to keep only what the
    run reads or writes. A segment observes CAN records and a tap radio
    records.
    """

    def __init__(self, interface: str):
        self.interface = interface
        self.seen = 0
        self._last_us = 0  # the latest observation's timestamp
        self.sinks: list[tuple[CaptureLog, int, float]] = []

    def keep(self, log: CaptureLog, start_us: int = 0, end_us: float = math.inf) -> None:
        """Also append the records seen in [start_us, end_us) to log."""
        self.sinks.append((log, start_us, end_us))

    def observe(self, timestamp_us: int, can_id: int, data: bytes | None) -> None:
        """Count one valid observation and append it to every sink that keeps
        it, dropping the sinks it closes; can_id RADIO_ID: a radio record.
        data is read only while a sink is open, and may be None otherwise."""
        if timestamp_us < self._last_us:
            raise MonotonicityError(f"{self.interface}: observation at {timestamp_us} us is before "
                                    f"the previous one at {self._last_us} us")
        self._last_us = timestamp_us
        self.seen += 1
        if not self.sinks:
            return
        closed = False
        for log, start_us, end_us in self.sinks:
            if timestamp_us >= end_us:
                closed = True
            elif timestamp_us >= start_us:
                log._append_row(timestamp_us, self.interface, can_id, data)
        if closed:
            self.sinks = [sink for sink in self.sinks if timestamp_us < sink[2]]
