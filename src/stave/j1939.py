"""CAN 2.0B frames, 29-bit identifier codec, and scaled payload signals.

The 29-bit extended identifier is laid out as:

    bit 28..26   priority (3 bits)
    bit 25       extended data page (edp)
    bit 24       data page (dp)
    bit 23..16   PDU format (pf)
    bit 15..8    PDU specific (ps)
    bit 7..0     source address (sa)

The parameter group number combines edp, dp, pf and, for broadcast
(PDU2, pf >= 240) formats only, ps:

    pgn = edp * 2**17 + dp * 2**16 + pf * 2**8 + (ps if pf >= 240 else 0)

PDU1 formats (pf < 240) are destination-addressed: ps carries the
destination address and is excluded from the pgn.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AddressError, FrameError, IdentifierError, SignalError, check_bool, check_bytes, check_int, check_real

MAX_CAN_ID = (1 << 29) - 1
MAX_PGN = (1 << 18) - 1
PDU2_THRESHOLD = 240


@dataclass(frozen=True)
class CanFrame:
    """One CAN data frame with an extended identifier.

    ``data`` carries the payload; the dlc is always ``len(data)`` so the
    two can never disagree. ``timestamp_us`` is simulation time in
    integer microseconds.
    """

    can_id: int
    data: bytes
    timestamp_us: int = 0

    def __post_init__(self):
        check_int(FrameError, "can_id", self.can_id, 0, MAX_CAN_ID)
        if type(self.data) is not bytes:
            object.__setattr__(self, "data", check_bytes(FrameError, "data", self.data))
        if len(self.data) > 8:
            raise FrameError(f"payload of {len(self.data)} bytes exceeds dlc 8")
        check_int(FrameError, "timestamp_us", self.timestamp_us, 0)

    @property
    def dlc(self) -> int:
        return len(self.data)

    def at(self, timestamp_us: int) -> "CanFrame":
        """Copy of this frame carrying a different timestamp."""
        check_int(FrameError, "timestamp_us", timestamp_us, 0)
        return _valid_frame(self.can_id, self.data, timestamp_us)


def _valid_frame(can_id: int, data: bytes, timestamp_us: int) -> CanFrame:
    """A CanFrame from fields already known to be valid, without re-checking them."""
    frame = object.__new__(CanFrame)
    # not frame.__dict__.update(...): touching __dict__ gives the frame a dict
    # of its own, which more than doubles its size
    object.__setattr__(frame, "can_id", can_id)
    object.__setattr__(frame, "data", data)
    object.__setattr__(frame, "timestamp_us", timestamp_us)
    return frame


@dataclass(frozen=True)
class J1939Address:
    """Decomposed form of a 29-bit identifier.

    ``destination_address`` is derived: the ps byte for PDU1 formats,
    ``None`` (broadcast) for PDU2.
    """

    priority: int
    pdu_format: int
    pdu_specific: int
    source_address: int
    edp: int = 0
    dp: int = 0

    def __post_init__(self):
        checks = (
            ("priority", self.priority, 7),
            ("pdu_format", self.pdu_format, 255),
            ("pdu_specific", self.pdu_specific, 255),
            ("source_address", self.source_address, 255),
            ("edp", self.edp, 1),
            ("dp", self.dp, 1),
        )
        for name, value, hi in checks:
            check_int(AddressError, name, value, 0, hi)

    @property
    def pgn(self) -> int:
        pgn = (self.edp << 17) | (self.dp << 16) | (self.pdu_format << 8)
        if self.pdu_format >= PDU2_THRESHOLD:
            pgn |= self.pdu_specific
        return pgn

    @property
    def destination_address(self) -> int | None:
        if self.pdu_format < PDU2_THRESHOLD:
            return self.pdu_specific
        return None

    @classmethod
    def from_pgn(
        cls,
        pgn: int,
        source_address: int,
        priority: int = 6,
        destination: int | None = None,
    ) -> "J1939Address":
        """Build an address from a pgn, applying the PDU1/PDU2 rules.

        A destination must be supplied exactly when the pgn names a PDU1
        (destination-addressed) format.
        """
        check_int(AddressError, "pgn", pgn, 0, MAX_PGN)
        edp = (pgn >> 17) & 1
        dp = (pgn >> 16) & 1
        pf = (pgn >> 8) & 0xFF
        group_ext = pgn & 0xFF
        if pf < PDU2_THRESHOLD:
            if group_ext:
                raise AddressError(f"PDU1 pgn 0x{pgn:05X} must have a zero low byte")
            if destination is None:
                raise AddressError(f"pgn 0x{pgn:05X} is destination-addressed; destination required")
            ps = check_int(AddressError, "destination", destination, 0, 255)
        else:
            if destination is not None:
                raise AddressError(f"pgn 0x{pgn:05X} is broadcast; destination must not be supplied")
            ps = group_ext
        return cls(
            priority=priority,
            pdu_format=pf,
            pdu_specific=ps,
            source_address=source_address,
            edp=edp,
            dp=dp,
        )


def decode_id(can_id: int) -> J1939Address:
    """Slice a 29-bit identifier into its address fields."""
    check_int(IdentifierError, "identifier", can_id, 0, MAX_CAN_ID)
    return J1939Address(
        priority=(can_id >> 26) & 0x7,
        edp=(can_id >> 25) & 0x1,
        dp=(can_id >> 24) & 0x1,
        pdu_format=(can_id >> 16) & 0xFF,
        pdu_specific=(can_id >> 8) & 0xFF,
        source_address=can_id & 0xFF,
    )


def pgn_of(can_id: int) -> int:
    """The pgn of a valid 29-bit identifier: ``decode_id(can_id).pgn``
    computed on the integer alone."""
    pgn = (can_id >> 8) & 0x3FFFF  # edp, dp, pf, ps
    return pgn if (pgn >> 8) & 0xFF >= PDU2_THRESHOLD else pgn & 0x3FF00


def encode_id(address: J1939Address) -> int:
    """Pack address fields back into a 29-bit identifier."""
    return (
        (address.priority << 26)
        | (address.edp << 25)
        | (address.dp << 24)
        | (address.pdu_format << 16)
        | (address.pdu_specific << 8)
        | address.source_address
    )


@dataclass(frozen=True)
class ScaledSignal:
    """A little-endian scaled integer field inside a CAN payload.

    value = raw * scale. Width is 1 or 2 bytes. Unsigned signals reserve
    the all-ones raw value (0xFF / 0xFFFF) as the not-available sentinel;
    signed signals have none because all ones is a legitimate negative
    sample.
    """

    byte_offset: int
    width_bytes: int
    scale: float
    signed: bool = False

    def __post_init__(self):
        check_int(SignalError, "width_bytes", self.width_bytes, 1, 2)
        # the signal ends at byte 7 at the latest
        check_int(SignalError, "byte_offset", self.byte_offset, 0, 8 - self.width_bytes)
        if check_real(SignalError, "scale", self.scale) <= 0:
            raise SignalError(f"scale {self.scale!r} must be positive")
        check_bool(SignalError, "signed", self.signed)

    @property
    def not_available_raw(self) -> int | None:
        return None if self.signed else (1 << (8 * self.width_bytes)) - 1

    @property
    def raw_bounds(self) -> tuple[int, int]:
        bits = 8 * self.width_bytes
        if self.signed:
            return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        return 0, (1 << bits) - 1


def read_signal(frame: CanFrame, signal: ScaledSignal) -> float | None:
    """Decode a signal from a frame; None when the raw value is the
    not-available sentinel."""
    end = signal.byte_offset + signal.width_bytes
    if end > frame.dlc:
        raise SignalError(
            f"signal bytes {signal.byte_offset}..{end - 1} outside dlc {frame.dlc}"
        )
    raw = int.from_bytes(frame.data[signal.byte_offset:end], "little")
    if signal.not_available_raw is not None and raw == signal.not_available_raw:
        return None
    if signal.signed:
        bits = 8 * signal.width_bytes
        if raw >= 1 << (bits - 1):
            raw -= 1 << bits
    return raw * signal.scale


def write_signal(frame: CanFrame, signal: ScaledSignal, value: float) -> CanFrame:
    """Encode a physical value into a copy of the frame.

    The raw value is the nearest integer of value / scale, so
    a read-back differs from ``value`` by at most scale/2.
    """
    end = signal.byte_offset + signal.width_bytes
    if end > frame.dlc:
        raise SignalError(
            f"signal bytes {signal.byte_offset}..{end - 1} outside dlc {frame.dlc}"
        )
    raw = round(value / signal.scale)
    lo, hi = signal.raw_bounds
    if not lo <= raw <= hi:
        raise SignalError(f"value {value!r} maps to raw {raw}, outside {lo}..{hi}")
    if signal.not_available_raw is not None and raw == signal.not_available_raw:
        raise SignalError(
            f"value {value!r} maps to raw {raw}, the not-available sentinel"
        )
    mask = (1 << (8 * signal.width_bytes)) - 1
    data = bytearray(frame.data)
    data[signal.byte_offset:end] = (raw & mask).to_bytes(signal.width_bytes, "little")
    # same length as frame.data, so still a valid payload
    return _valid_frame(frame.can_id, bytes(data), frame.timestamp_us)
