"""Offensive tooling: differential analysis, mutated replay, injection.

The workflow this models is capture-driven: record baseline traffic,
record traffic while an actuator is exercised, diff the two captures to
locate the bytes that moved, then replay those frames with a targeted
mutation to drive the actuator from outside the cab.

Mutation mini-language (one byte per mutation):

    byte<K>=reflect(<max>)   byte' = max - byte   (its own inverse)
    byte<K>=const(<value>)   byte' = value        (value decimal or 0x hex)
    byte<K>=add(<n>)         byte' = (byte + n) mod 256

Captures fed to analysis may contain wired CAN records, radio records,
or a mix; radio records are decapsulated and contribute their embedded
frames (packets that fail verification are skipped).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Iterator

from .bus import CanBus, NodeHandle
from .capture import CaptureLog
from .errors import BaselineError, ConfigurationError, DecapsulationError, check_int
from .j1939 import MAX_CAN_ID, MAX_PGN, CanFrame, pgn_of
# Not called here: matching reads a frame's pgn with pgn_of. The name stays
# bound because perfbench/tracer.py counts decode_id calls at this lookup site.
from .j1939 import decode_id  # noqa: F401
from .radio import RadioConfig, RadioMedium, encapsulate, hop_channel, packet_frame
# Not called here: the analyses verify packets with packet_frame. The name stays
# bound because perfbench/tracer.py patches decapsulate at this lookup site.
from .radio import decapsulate  # noqa: F401
from .sim import SimClock, seconds_from_us

logger = logging.getLogger(__name__)

RATE_CHANGE_RATIO = 1.5


def _frame_rows(capture: CaptureLog) -> Iterator[tuple[int, int, bytes]]:
    """(timestamp_us, can_id, data) of each frame in a capture: a CAN record's
    own, a radio record's through packet_frame, which skips failed packets."""
    for timestamp_us, can_id, data in capture.rows():
        if can_id is None:
            try:
                can_id, data = packet_frame(data)
            except DecapsulationError:
                continue
        yield timestamp_us, can_id, data


def channel_occupancy(capture: CaptureLog) -> list[tuple[int, int]]:
    """(channel, packet count) sorted by count descending, channel ascending.

    Counts radio records only; CAN records have no channel.
    """
    counts: dict[int, int] = {}
    for _, can_id, data in capture.rows():
        if can_id is not None or len(data) < 3:
            continue
        channel = data[2]
        counts[channel] = counts.get(channel, 0) + 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


@dataclass(frozen=True)
class FlaggedByte:
    offset: int
    pre_constant: int
    post_distinct: int
    post_min: int
    post_max: int


@dataclass(frozen=True)
class RateChange:
    can_id: int
    pre_hz: float
    post_hz: float


@dataclass(frozen=True)
class DiffReport:
    """Where the two captures disagree.

    ``flagged`` maps can_id to byte findings: offsets constant across
    every baseline frame of that id but taking two or more distinct
    values afterwards.
    """

    flagged: dict[int, tuple[FlaggedByte, ...]]
    ids_only_in_pre: tuple[int, ...]
    ids_only_in_post: tuple[int, ...]
    rate_changes: tuple[RateChange, ...]

    def to_json_dict(self) -> dict:
        return {
            "schema": "stave-diff/1",
            "flagged": [
                {
                    "can_id": f"0x{can_id:08X}",
                    "bytes": [
                        {
                            "offset": fb.offset,
                            "pre_constant": fb.pre_constant,
                            "post_distinct": fb.post_distinct,
                            "post_min": fb.post_min,
                            "post_max": fb.post_max,
                        }
                        for fb in flags
                    ],
                }
                for can_id, flags in sorted(self.flagged.items())
            ],
            "ids_only_in_pre": [f"0x{i:08X}" for i in self.ids_only_in_pre],
            "ids_only_in_post": [f"0x{i:08X}" for i in self.ids_only_in_post],
            "rate_changes": [
                {"can_id": f"0x{rc.can_id:08X}", "pre_hz": rc.pre_hz, "post_hz": rc.post_hz}
                for rc in self.rate_changes
            ],
        }


def _payloads_by_id(capture: CaptureLog) -> dict[int, list[bytes]]:
    groups: dict[int, list[bytes]] = {}
    for _, can_id, data in _frame_rows(capture):
        groups.setdefault(can_id, []).append(data)
    return groups


def diff_captures(pre: CaptureLog, post: CaptureLog) -> DiffReport:
    """Locate signal bytes by differencing a baseline against an active capture.

    A byte offset of an id present in both captures is flagged iff it is
    constant across all baseline frames and takes >= 2 distinct values in
    the active capture. Ids present on one side only are listed. Message
    rates (count / capture span) are compared where both spans are
    positive; a max/min ratio above 1.5 is reported.
    """
    pre_groups = _payloads_by_id(pre)
    if not pre_groups:
        raise BaselineError("baseline capture holds no frames; cannot establish constants")
    post_groups = _payloads_by_id(post)

    shared = sorted(set(pre_groups) & set(post_groups))
    flagged: dict[int, tuple[FlaggedByte, ...]] = {}
    for can_id in shared:
        # zip(*payloads) yields one column of byte values per offset, up to the
        # shortest payload; zipping both sides stops at the shorter side's
        columns = zip(zip(*pre_groups[can_id]), zip(*post_groups[can_id]))
        findings = []
        for offset, (pre_column, post_column) in enumerate(columns):
            pre_values = set(pre_column)
            if len(pre_values) != 1:
                continue
            post_values = set(post_column)
            if len(post_values) >= 2:
                findings.append(FlaggedByte(
                    offset=offset,
                    pre_constant=next(iter(pre_values)),
                    post_distinct=len(post_values),
                    post_min=min(post_values),
                    post_max=max(post_values),
                ))
        if findings:
            flagged[can_id] = tuple(findings)

    rate_changes = []
    pre_span = pre.span_us
    post_span = post.span_us
    if pre_span > 0 and post_span > 0:
        for can_id in shared:
            pre_hz = len(pre_groups[can_id]) * 1e6 / pre_span
            post_hz = len(post_groups[can_id]) * 1e6 / post_span
            if max(pre_hz, post_hz) / min(pre_hz, post_hz) > RATE_CHANGE_RATIO:
                rate_changes.append(RateChange(can_id, pre_hz, post_hz))

    return DiffReport(
        flagged=flagged,
        ids_only_in_pre=tuple(sorted(set(pre_groups) - set(post_groups))),
        ids_only_in_post=tuple(sorted(set(post_groups) - set(pre_groups))),
        rate_changes=tuple(rate_changes),
    )


@dataclass(frozen=True)
class MessageMatch:
    """Select frames by exact identifier or by parameter group."""

    can_id: int | None = None
    pgn: int | None = None

    def __post_init__(self):
        if (self.can_id is None) == (self.pgn is None):
            raise ConfigurationError("match needs exactly one of can_id or pgn")
        for name, value, hi in (("can_id", self.can_id, MAX_CAN_ID), ("pgn", self.pgn, MAX_PGN)):
            if value is not None:
                check_int(ConfigurationError, f"match {name}", value, 0, hi)

    def matches(self, can_id: int) -> bool:
        """Whether a frame with this identifier is selected."""
        if self.can_id is not None:
            return can_id == self.can_id
        return pgn_of(can_id) == self.pgn


_MUTATION_RE = re.compile(r"^byte(\d+)=(reflect|const|add)\((-?(?:0[xX][0-9a-fA-F]+|\d+))\)$")


@dataclass(frozen=True)
class Mutation:
    """Single-byte payload transform applied during replay planning."""

    byte_offset: int
    rule: str  # reflect | const | add
    operand: int

    def __post_init__(self):
        check_int(ConfigurationError, "mutation byte offset", self.byte_offset, 0, 7)
        if self.rule not in ("reflect", "const", "add"):
            raise ConfigurationError(f"unknown mutation rule {self.rule!r}")
        # add wraps modulo 256, so any integer is an operand
        lo, hi = (None, None) if self.rule == "add" else (0, 255)
        check_int(ConfigurationError, f"{self.rule} operand", self.operand, lo, hi)

    @classmethod
    def parse(cls, text: str) -> "Mutation":
        """Parse ``byte<K>=rule(<operand>)``; operand may be 0x-hex."""
        m = _MUTATION_RE.match(text.strip())
        if not m:
            raise ConfigurationError(
                f"cannot parse mutation {text!r}; expected byte<K>=reflect(<max>)|const(<v>)|add(<n>)"
            )
        offset, rule, operand = m.groups()
        return cls(byte_offset=int(offset), rule=rule, operand=int(operand, 0))

    def apply(self, data: bytes) -> bytes:
        if self.byte_offset >= len(data):
            raise ConfigurationError(
                f"mutation targets byte {self.byte_offset} of a {len(data)}-byte payload"
            )
        value = data[self.byte_offset]
        if self.rule == "reflect":
            if value > self.operand:
                raise ConfigurationError(
                    f"reflect({self.operand}) saw byte value {value}; "
                    "reflection max must bound the matched traffic"
                )
            new = self.operand - value
        elif self.rule == "const":
            new = self.operand
        else:
            new = (value + self.operand) % 256
        out = bytearray(data)
        out[self.byte_offset] = new
        return bytes(out)


TIMING_PRESERVE = "preserve"
TIMING_FAST = "fast"


@dataclass(frozen=True)
class ReplaySchedule:
    """Ordered (delay from injection start, frame) pairs."""

    entries: tuple[tuple[int, CanFrame], ...]
    timing_mode: str = TIMING_PRESERVE

    def __post_init__(self):
        # schedule_injection sends the entries in list order, so each delay is
        # at least the one before it
        previous = 0
        for i, (delay, _) in enumerate(self.entries):
            previous = check_int(ConfigurationError, f"replay schedule entry {i} delay", delay, previous)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def span_us(self) -> int:
        return self.entries[-1][0] - self.entries[0][0] if len(self.entries) > 1 else 0

    def to_json_dict(self) -> dict:
        return {
            "schema": "stave-replay/1",
            "timing": self.timing_mode,
            "entries": [
                {
                    "delay_s": seconds_from_us(delay),
                    "can_id": f"0x{frame.can_id:08X}",
                    "data": frame.data.hex().upper(),
                }
                for delay, frame in self.entries
            ],
        }


def plan_replay(
    capture: CaptureLog,
    match: MessageMatch,
    mutation: Mutation | None,
    timing_mode: str = TIMING_PRESERVE,
) -> ReplaySchedule:
    """Turn matching captured frames into an injection schedule.

    ``preserve`` keeps the original inter-frame gaps (first frame at
    delay 0); ``fast`` collapses every delay to 0. An empty match yields
    an empty schedule and a warning, not an error.
    """
    if timing_mode not in (TIMING_PRESERVE, TIMING_FAST):
        raise ConfigurationError(f"timing mode {timing_mode!r} must be preserve or fast")
    matched = [row for row in _frame_rows(capture) if match.matches(row[1])]
    if not matched:
        logger.warning("replay plan matched no frames (match=%s)", match)
        return ReplaySchedule(entries=(), timing_mode=timing_mode)
    t0 = matched[0][0]
    entries = []
    for ts, can_id, data in matched:
        if mutation is not None:
            data = mutation.apply(data)
        delay = ts - t0 if timing_mode == TIMING_PRESERVE else 0
        entries.append((delay, CanFrame(can_id, data)))
    return ReplaySchedule(entries=tuple(entries), timing_mode=timing_mode)


@dataclass
class InjectionStats:
    sent: int = 0
    delivered: int = 0


@dataclass(frozen=True)
class ChannelStrategy:
    """How a radio injector picks its transmit channel.

    ``fixed`` pins one channel; ``follow_hops`` computes the hop channel
    for each of the injector's own sequence numbers, which requires
    knowing the hop seed (granted through the radio config).
    """

    mode: str = "fixed"
    channel: int = 0

    def __post_init__(self):
        if self.mode not in ("fixed", "follow_hops"):
            raise ConfigurationError(f"channel strategy {self.mode!r} must be fixed or follow_hops")
        check_int(ConfigurationError, "channel", self.channel, 0, 255)

    def channel_for(self, config: RadioConfig, seq: int) -> int:
        if self.mode == "follow_hops":
            return hop_channel(config, seq)
        return self.channel


class WiredInjector:
    """Attacker node physically attached to a bus segment."""

    def __init__(self, bus: CanBus, name: str = "attacker"):
        self.bus = bus
        self.handle: NodeHandle = bus.attach(name)
        self.stats = InjectionStats()

    def send_frame(self, frame: CanFrame) -> None:
        self.bus.submit(self.handle, frame)
        self.stats.sent += 1
        self.stats.delivered += 1  # a healthy bus accepts every queued frame


class RadioInjector:
    """Attacker radio transmitting forged packets into the medium.

    ``delivered`` counts packets accepted and re-emitted by at least one
    bridge endpoint (channel mismatch, loss, and the faraday barrier all
    prevent delivery).
    """

    def __init__(self, medium: RadioMedium, strategy: ChannelStrategy | None = None,
                 inside_faraday: bool = True):
        self.medium = medium
        self.strategy = strategy or ChannelStrategy()
        self.inside_faraday = inside_faraday
        self.seq_sent = 0
        self.stats = InjectionStats()

    def on_packet_delivered(self) -> None:
        self.stats.delivered += 1

    def send_frame(self, frame: CanFrame) -> None:
        seq = self.seq_sent & 0xFFFF
        self.seq_sent += 1
        channel = self.strategy.channel_for(self.medium.config, seq)
        self.stats.sent += 1
        self.medium.transmit(encapsulate(frame, channel, seq), sender=self)


def _send_times(schedule: ReplaySchedule, start_us: int, cycle_us: int | None,
                end_us: int | None):
    """(instant, frame) of every send, in time order; cycle_us None: one pass."""
    start = start_us
    while True:
        for delay, frame in schedule.entries:
            at = start + delay
            if end_us is not None and at > end_us:
                break
            yield at, frame
        if cycle_us is None:
            return
        start += cycle_us
        if start > end_us:
            return


def schedule_injection(
    clock: SimClock,
    injector,
    schedule: ReplaySchedule,
    start_us: int,
    *,
    repeat: bool = False,
    end_us: int | None = None,
) -> None:
    """Arrange for the injector to send the schedule starting at start_us.

    With ``repeat``, the schedule loops until ``end_us`` with an
    inter-cycle gap equal to its mean inter-frame gap; that needs at
    least two entries and a positive span (preserve timing).

    One send is queued at a time: each send queues the next, so a long
    repeat keeps one pending event instead of one per send up to end_us.
    Same-instant ties with other events break as if every send had been
    queued at once, by this call.
    """
    cycle_us = None
    if repeat:
        if end_us is None:
            raise ConfigurationError("repeat injection needs an end time")
        if len(schedule.entries) < 2 or schedule.span_us <= 0:
            raise ConfigurationError(
                "repeat injection needs >= 2 schedule entries with preserved gaps"
            )
        gap = schedule.span_us // (len(schedule.entries) - 1)
        cycle_us = schedule.span_us + gap
    clock.schedule_series(
        (at, lambda f=frame: injector.send_frame(f))
        for at, frame in _send_times(schedule, start_us, cycle_us, end_us)
    )
