"""Capture records and the text log format.

One record per line, UTF-8, LF terminated. Two line kinds:

    (<ts>) <iface> <ID8>#<DATAHEX>     CAN frame
    (<ts>) <iface> R:<PACKETHEX>       radio packet

``ts`` is seconds with exactly six decimal digits. ``ID8`` is the
29-bit identifier as eight uppercase hex digits. Hex payloads are
uppercase with no separators; a dlc-0 frame has nothing after ``#``.
Parsing is the strict inverse of serialization: a parsed log
re-serializes byte-identically, and timestamps must be monotone
non-decreasing within a file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import CaptureError, MonotonicityError, ParseError
from .j1939 import MAX_CAN_ID, CanFrame

KIND_CAN = "can"
KIND_RADIO = "radio"

# ASCII digits, no leading zero and no trailing newline: anything else
# would parse but re-serialize differently
_LINE_RE = re.compile(r"^\((0|[1-9][0-9]*)\.([0-9]{6})\) (\S+) (.+)\Z")
_CAN_BODY_RE = re.compile(r"^([0-9A-F]{8})#((?:[0-9A-F]{2})*)$")
_RADIO_BODY_RE = re.compile(r"^R:((?:[0-9A-F]{2})+)$")


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
        if not isinstance(self.timestamp_us, int) or self.timestamp_us < 0:
            raise CaptureError(f"timestamp_us {self.timestamp_us!r} must be a non-negative int")
        if not valid_interface(self.interface):
            raise CaptureError(f"interface {self.interface!r} must be non-empty without spaces")
        object.__setattr__(self, "data", bytes(self.data))
        if self.kind == KIND_CAN:
            if self.can_id is None or not 0 <= self.can_id <= MAX_CAN_ID:
                raise CaptureError(f"can record needs a 29-bit can_id, got {self.can_id!r}")
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
        return CanFrame(self.can_id, self.data, timestamp_us=self.timestamp_us)


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
    """Parse one log line; raises ParseError on any deviation."""
    text = line[:-1] if line.endswith("\n") else line
    m = _LINE_RE.match(text)
    if not m:
        raise ParseError(f"malformed record {text!r}", lineno)
    seconds, fraction, interface, body = m.groups()
    timestamp_us = int(seconds) * 1_000_000 + int(fraction)
    try:
        radio = _RADIO_BODY_RE.match(body)
        if radio:
            return CaptureRecord(
                timestamp_us=timestamp_us,
                interface=interface,
                kind=KIND_RADIO,
                data=bytes.fromhex(radio.group(1)),
            )
        can = _CAN_BODY_RE.match(body)
        if can:
            return CaptureRecord(
                timestamp_us=timestamp_us,
                interface=interface,
                kind=KIND_CAN,
                can_id=int(can.group(1), 16),
                data=bytes.fromhex(can.group(2)),
            )
    except ParseError:
        raise
    except CaptureError as exc:
        # a syntactically valid line carrying impossible values, such as
        # an identifier past 29 bits or a payload past 8 bytes
        raise ParseError(str(exc), lineno) from exc
    raise ParseError(f"unrecognized record body {body!r}", lineno)


class CaptureLog:
    """An append-only, time-ordered sequence of capture records."""

    def __init__(self, records: Iterable[CaptureRecord] = ()):
        self._records: list[CaptureRecord] = []
        for record in records:
            self.append(record)

    def append(self, record: CaptureRecord) -> None:
        if self._records and record.timestamp_us < self._records[-1].timestamp_us:
            raise MonotonicityError(
                f"timestamp {record.timestamp_us} us is before previous "
                f"{self._records[-1].timestamp_us} us"
            )
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[CaptureRecord]:
        return iter(self._records)

    def __getitem__(self, index):
        return self._records[index]

    @property
    def span_us(self) -> int:
        """Time between first and last record; 0 for fewer than 2 records."""
        if len(self._records) < 2:
            return 0
        return self._records[-1].timestamp_us - self._records[0].timestamp_us

    def window(self, start_us: int, end_us: int) -> "CaptureLog":
        """Records with start_us <= timestamp < end_us."""
        out = CaptureLog()
        for record in self._records:
            if start_us <= record.timestamp_us < end_us:
                out._records.append(record)
        return out

    def can_frames(self) -> list[CanFrame]:
        """The CAN frames in this log (radio records skipped)."""
        return [r.frame() for r in self._records if r.kind == KIND_CAN]

    def to_text(self) -> str:
        return "".join(serialize_record(r) for r in self._records)

    @classmethod
    def from_text(cls, text: str) -> "CaptureLog":
        log = cls()
        last = -1
        for lineno, line in enumerate(text.splitlines(), start=1):
            record = parse_record(line, lineno)
            if record.timestamp_us < last:
                raise MonotonicityError(
                    f"line {lineno}: timestamp goes backwards "
                    f"({record.timestamp_us} us after {last} us)"
                )
            last = record.timestamp_us
            log._records.append(record)
        return log

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8", newline="\n")

    @classmethod
    def load(cls, path: str | Path) -> "CaptureLog":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))
