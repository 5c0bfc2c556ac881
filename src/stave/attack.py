"""Offensive tooling: differential analysis, mutated replay, injection.

The workflow this models is capture-driven: record baseline traffic,
record traffic while an actuator is exercised, diff the two captures to
locate the bytes that moved, then replay those frames with a targeted
mutation to drive the actuator from outside the cab.

Mutation mini-language (one byte per mutation):

    byte<K>=reflect(<max>)   byte' = max - byte   (its own inverse)
    byte<K>=const(<value>)   byte' = value        (value decimal or 0x hex)
    byte<K>=add(<n>)         byte' = (byte + n) mod 256

An analysis folds a capture's rows(): a CaptureLog's, or a CaptureFile's
as the file is parsed. Captures may contain wired CAN records, radio
records, or a mix; radio records are decapsulated and contribute their
embedded frames (packets that fail verification are skipped). A schedule is
injected on a bus or, by a radio.RadioInjector, on the air.
"""

from __future__ import annotations

import logging
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterator

from .bus import CanBus, NodeHandle
from .capture import RADIO_ID, CaptureLog
from .errors import INT_TEXT, BaselineError, ConfigurationError, DecapsulationError, check_int, int_text, shown
from .j1939 import MAX_CAN_ID, MAX_DLC, MAX_PGN, CanFrame, _valid_frame, pgn_of
# Not called here: matching reads a frame's pgn with pgn_of. The name stays
# bound because perfbench/tracer.py counts decode_id calls at this lookup site.
from .j1939 import decode_id  # noqa: F401
from .radio import CHANNEL_OFFSET, InjectionStats, packet_frame
# Not called here: the analyses verify packets with packet_frame. The name stays
# bound because perfbench/tracer.py patches decapsulate at this lookup site.
from .radio import decapsulate  # noqa: F401
from .sim import SimClock, seconds_from_us

logger = logging.getLogger(__name__)

RATE_CHANGE_RATIO = 1.5
OCCUPANCY_SCHEMA = "stave-occupancy/1"
REPLAY_SCHEMA = "stave-replay/1"


def channel_occupancy(capture, name: str) -> dict:
    """The stave-occupancy/1 document of the capture called name: its radio
    packets per channel, by count descending, channel ascending.

    Counts radio records only; CAN records have no channel.
    """
    radio, channel = RADIO_ID, CHANNEL_OFFSET
    counts = Counter(data[channel] for _, can_id, data in capture.rows() if can_id == radio and len(data) > channel)
    return {
        "schema": OCCUPANCY_SCHEMA,
        "capture": name,
        "channels": [{"channel": c, "count": n}
                     for c, n in sorted(counts.items(), key=lambda item: (-item[1], item[0]))],
        "total_packets": sum(counts.values()),
    }


class FrameTally:
    """A capture's rows folded into what a diff reads: each can_id's distinct
    frame payloads with their frame counts, and the span of its stamps.
    len() is the number of records read, failed packets included."""

    def __init__(self, capture):
        self.groups = groups = defaultdict(dict)
        first = last = None
        failed = 0
        for last, can_id, data in capture.rows():  # after the loop, last is the last record's stamp
            if first is None:
                first = last
            if can_id == RADIO_ID:
                try:
                    can_id, data = packet_frame(data)
                except DecapsulationError:
                    failed += 1
                    continue
            group = groups[can_id]
            group[data] = group.get(data, 0) + 1
        self.span_us = 0 if first is None else last - first
        self._records = failed + sum(sum(group.values()) for group in groups.values())

    def __len__(self) -> int:
        return self._records


def diff_captures(pre: FrameTally, post: FrameTally) -> dict:
    """Locate signal bytes by differencing a baseline against an active
    capture, each given as its FrameTally: the stave-diff/1 document.

    A byte offset of an id present in both captures is flagged iff it is
    constant across all baseline frames and takes >= 2 distinct values in
    the active capture; ``flagged`` lists the ids with such bytes in id
    order. Ids present on one side only are listed. Message rates (count /
    capture span) are compared where both spans are positive; a max/min
    ratio above 1.5 is reported.

    The byte columns are read from each id's distinct payloads only: a
    column's value set, and so every finding, is the same over those as
    over every frame.
    """
    pre_groups = pre.groups
    if not pre_groups:
        raise BaselineError("baseline capture holds no frames; cannot establish constants")
    post_groups = post.groups

    shared = sorted(set(pre_groups) & set(post_groups))
    flagged = []
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
                findings.append({"offset": offset, "pre_constant": next(iter(pre_values)),
                                 "post_distinct": len(post_values),
                                 "post_min": min(post_values), "post_max": max(post_values)})
        if findings:
            flagged.append({"can_id": f"0x{can_id:08X}", "bytes": findings})

    rate_changes = []
    pre_span = pre.span_us
    post_span = post.span_us
    if pre_span > 0 and post_span > 0:
        for can_id in shared:
            pre_hz = sum(pre_groups[can_id].values()) * 1e6 / pre_span
            post_hz = sum(post_groups[can_id].values()) * 1e6 / post_span
            if max(pre_hz, post_hz) / min(pre_hz, post_hz) > RATE_CHANGE_RATIO:
                rate_changes.append({"can_id": f"0x{can_id:08X}", "pre_hz": pre_hz, "post_hz": post_hz})

    return {
        "schema": "stave-diff/1",
        "flagged": flagged,
        "ids_only_in_pre": [f"0x{i:08X}" for i in sorted(set(pre_groups) - set(post_groups))],
        "ids_only_in_post": [f"0x{i:08X}" for i in sorted(set(post_groups) - set(pre_groups))],
        "rate_changes": rate_changes,
    }


# each MessageMatch selector with its range (inclusive)
MATCH_FIELDS = {"can_id": (0, MAX_CAN_ID), "pgn": (0, MAX_PGN)}


@dataclass(frozen=True)
class MessageMatch:
    """Select frames by exact identifier or by parameter group."""

    can_id: int | None = None
    pgn: int | None = None

    def __post_init__(self):
        if (self.can_id is None) == (self.pgn is None):
            raise ConfigurationError("match needs exactly one of can_id or pgn")
        for key, (lo, hi) in MATCH_FIELDS.items():
            if getattr(self, key) is not None:
                check_int(ConfigurationError, f"match {key}", getattr(self, key), lo, hi)

    def matches(self, can_id: int) -> bool:
        """Whether a frame with this identifier is selected."""
        if self.can_id is not None:
            return can_id == self.can_id
        return pgn_of(can_id) == self.pgn


# each mutation rule -> (its operand's range, inclusive, None unbounded; the new byte
# value from the old one and the operand); add wraps modulo 256, so any integer is an operand
_MUTATION_RULES = {
    "reflect": ((0, 255), lambda value, operand: operand - value),
    "const": ((0, 255), lambda value, operand: operand),
    "add": ((None, None), lambda value, operand: (value + operand) % 256),
}
_MUTATION_RE = re.compile(rf"^byte([0-9]+)=({'|'.join(_MUTATION_RULES)})\(({INT_TEXT})\)$")


@dataclass(frozen=True)
class Mutation:
    """Single-byte payload transform applied during replay planning."""

    byte_offset: int
    rule: str  # a key of _MUTATION_RULES
    operand: int

    def __post_init__(self):
        check_int(ConfigurationError, "mutation byte offset", self.byte_offset, 0, MAX_DLC - 1)
        if self.rule not in tuple(_MUTATION_RULES):  # a tuple, which a list-valued rule is compared with, not hashed
            raise ConfigurationError(f"unknown mutation rule {shown(self.rule)}")
        check_int(ConfigurationError, f"{self.rule} operand", self.operand, *_MUTATION_RULES[self.rule][0])

    @classmethod
    def parse(cls, text: str) -> "Mutation":
        """Parse ``byte<K>=rule(<operand>)``; operand may be 0x-hex."""
        m = _MUTATION_RE.match(text.strip())
        if not m:
            raise ConfigurationError(
                f"cannot parse mutation {shown(text)}; expected byte<K>=reflect(<max>)|const(<v>)|add(<n>)"
            )
        offset, rule, operand = m.groups()
        try:
            return cls(byte_offset=int(offset), rule=rule, operand=int_text(operand))
        except ValueError:
            raise ConfigurationError(
                f"cannot parse mutation {shown(text)}; a decimal number has a leading zero or too many digits"
            ) from None

    def apply(self, data: bytes) -> bytes:
        if self.byte_offset >= len(data):
            raise ConfigurationError(
                f"mutation targets byte {self.byte_offset} of a {len(data)}-byte payload"
            )
        value = data[self.byte_offset]
        if self.rule == "reflect" and value > self.operand:
            raise ConfigurationError(
                f"reflect({self.operand}) saw byte value {value}; "
                "reflection max must bound the matched traffic"
            )
        out = bytearray(data)
        out[self.byte_offset] = _MUTATION_RULES[self.rule][1](value, self.operand)
        return bytes(out)


TIMING_PRESERVE = "preserve"
TIMING_FAST = "fast"
TIMING_MODES = (TIMING_PRESERVE, TIMING_FAST)


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

    @property
    def span_us(self) -> int:
        return self.entries[-1][0] - self.entries[0][0] if len(self.entries) > 1 else 0

    def json_entries(self) -> Iterator[dict]:
        """The stave-replay/1 document's entries, one at a time; entries of one frame share its strings."""
        frame = None
        for delay, entry_frame in self.entries:
            if entry_frame is not frame:
                frame = entry_frame
                can_id, data = f"0x{frame.can_id:08X}", frame.data.hex().upper()
            yield {"delay_s": seconds_from_us(delay), "can_id": can_id, "data": data}

    def json_doc(self) -> dict:
        """The stave-replay/1 document, its entries the iterator json_entries() (see runner.write_json)."""
        return {"schema": REPLAY_SCHEMA, "timing": self.timing_mode, "entries": self.json_entries()}

    def to_json_dict(self) -> dict:
        """The stave-replay/1 document."""
        return {"schema": REPLAY_SCHEMA, "timing": self.timing_mode, "entries": list(self.json_entries())}


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
    if timing_mode not in TIMING_MODES:
        raise ConfigurationError(f"timing mode {shown(timing_mode)} must be preserve or fast")
    entries = tuple(_replay_entries(capture, match, mutation, timing_mode))
    if not entries:
        logger.warning("replay plan matched no frames (match=%s)", match)
    return ReplaySchedule(entries=entries, timing_mode=timing_mode)


def _replay_entries(capture: CaptureLog, match: MessageMatch, mutation: Mutation | None,
                    timing_mode: str) -> Iterator[tuple[int, CanFrame]]:
    """plan_replay's entries one at a time, so that its tuple is built without a list."""
    selected: dict[int, bool] = {}  # match.matches of each distinct identifier
    t0 = None
    # the last entry's frame and the captured payload it was built from;
    # an equal frame after it reuses it
    frame = captured = None
    for ts, can_id, data in capture.rows():
        if can_id == RADIO_ID:  # a radio record's frame, as FrameTally reads it
            try:
                can_id, data = packet_frame(data)
            except DecapsulationError:
                continue
        hit = selected.get(can_id)
        if hit is None:
            hit = selected[can_id] = match.matches(can_id)
        if not hit:
            continue
        if t0 is None:
            t0 = ts
        if data != captured or can_id != frame.can_id:  # captured is None only before the first entry
            captured = data
            # the log checked can_id and data when it was parsed or built, and
            # a mutation keeps the payload's length
            frame = _valid_frame(can_id, data if mutation is None else mutation.apply(data), 0)
        yield ts - t0 if timing_mode == TIMING_PRESERVE else 0, frame


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


def _send_times(schedule: ReplaySchedule, start_us: int, cycle_us: int | None, end_us: int):
    """(instant, frame) of every send up to end_us, in time order; cycle_us None: one pass."""
    start = start_us
    while True:
        for delay, frame in schedule.entries:
            at = start + delay
            if at > end_us:
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
    end_us: int,
) -> None:
    """Arrange for the injector to send the schedule from start_us to end_us.

    With ``repeat``, a schedule with a positive span (two or more entries,
    preserve timing) loops until ``end_us`` with an inter-cycle gap equal
    to its mean inter-frame gap; any other schedule is sent once.

    One send is queued at a time: each send queues the next, so a long
    repeat keeps one pending event instead of one per send up to end_us.
    Same-instant ties with other events break as if every send had been
    queued at once, by this call.
    """
    cycle_us = None
    if repeat and schedule.span_us > 0:
        gap = schedule.span_us // (len(schedule.entries) - 1)
        cycle_us = schedule.span_us + gap
    clock.schedule_series(
        (at, lambda f=frame: injector.send_frame(f))
        for at, frame in _send_times(schedule, start_us, cycle_us, end_us)
    )
