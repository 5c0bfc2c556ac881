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

from .errors import (AddressError, FrameError, IdentifierError, SignalError, check_bool, check_bytes, check_int,
                     check_real, shown)

MAX_CAN_ID = (1 << 29) - 1
MAX_PGN = (1 << 18) - 1
PDU2_THRESHOLD = 240
MAX_DLC = 8  # the most payload bytes a CAN 2.0B frame carries


@dataclass(frozen=True, slots=True)
class CanFrame:
    """One CAN data frame with an extended identifier.

    ``data`` carries the payload; the dlc is always ``len(data)`` so the
    two can never disagree. ``timestamp_us`` is simulation time in
    integer microseconds. A frame is slotted: it has no instance dict.
    """

    can_id: int
    data: bytes
    timestamp_us: int = 0

    def __post_init__(self):
        check_int(FrameError, "can_id", self.can_id, 0, MAX_CAN_ID)
        if type(self.data) is not bytes:
            object.__setattr__(self, "data", check_bytes(FrameError, "data", self.data))
        if len(self.data) > MAX_DLC:
            raise FrameError(f"payload of {len(self.data)} bytes exceeds dlc {MAX_DLC}")
        check_int(FrameError, "timestamp_us", self.timestamp_us, 0)

    @property
    def dlc(self) -> int:
        return len(self.data)

    def at(self, timestamp_us: int) -> "CanFrame":
        """Copy of this frame carrying a different timestamp."""
        check_int(FrameError, "timestamp_us", timestamp_us, 0)
        return _valid_frame(self.can_id, self.data, timestamp_us)


# each field's slot setter, which a frozen instance's __setattr__ does not reach
_set_id, _set_data, _set_stamp = (CanFrame.__dict__[key].__set__ for key in ("can_id", "data", "timestamp_us"))


def _valid_frame(can_id: int, data: bytes, timestamp_us: int) -> CanFrame:
    """A CanFrame from fields already known to be valid, without re-checking them."""
    frame = object.__new__(CanFrame)
    _set_id(frame, can_id)
    _set_data(frame, data)
    _set_stamp(frame, timestamp_us)
    return frame


# each J1939Address field with its range (inclusive): 0 up to all ones over its width, which is its mask
ADDRESS_FIELDS = {"priority": (0, 7), "pdu_format": (0, 255), "pdu_specific": (0, 255), "source_address": (0, 255),
                  "edp": (0, 1), "dp": (0, 1)}
# each field with its lowest bit in the 29-bit identifier (see the layout above) and its mask
_ID_FIELDS = tuple((key, shift, ADDRESS_FIELDS[key][1]) for key, shift in (
    ("priority", 26), ("edp", 25), ("dp", 24), ("pdu_format", 16), ("pdu_specific", 8), ("source_address", 0)))


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
        for key, (lo, hi) in ADDRESS_FIELDS.items():
            check_int(AddressError, key, getattr(self, key), lo, hi)

    @property
    def pgn(self) -> int:
        return pgn_of(encode_id(self))

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
            ps = check_int(AddressError, "destination", destination, *ADDRESS_FIELDS["pdu_specific"])
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
    """Slice a 29-bit identifier into its address fields. The masks bound
    every field, so the address is built without checking them again."""
    check_int(IdentifierError, "identifier", can_id, 0, MAX_CAN_ID)
    address = object.__new__(J1939Address)
    for key, shift, mask in _ID_FIELDS:
        object.__setattr__(address, key, can_id >> shift & mask)
    return address


def pgn_of(can_id: int) -> int:
    """The pgn of a valid 29-bit identifier: its edp, dp, pdu format and,
    for a PDU2 (broadcast) format, its pdu specific byte as group extension."""
    pgn = (can_id >> 8) & 0x3FFFF  # edp, dp, pf, ps
    return pgn if (pgn >> 8) & 0xFF >= PDU2_THRESHOLD else pgn & 0x3FF00


def encode_id(address: J1939Address) -> int:
    """Pack address fields back into a 29-bit identifier."""
    return sum(getattr(address, key) << shift for key, shift, _ in _ID_FIELDS)


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
        # the signal ends at the last payload byte at the latest
        check_int(SignalError, "byte_offset", self.byte_offset, 0, MAX_DLC - self.width_bytes)
        if check_real(SignalError, "scale", self.scale) <= 0:
            raise SignalError(f"scale {shown(self.scale)} must be positive")
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

    def encode(self, value: float) -> bytes:
        """The signal's field bytes for a physical value, little-endian.

        The raw value is the nearest integer of value / scale, so
        a read-back differs from ``value`` by at most scale/2. A value
        that is not a finite number (see check_real) is a SignalError.
        """
        lo, hi = self.raw_bounds
        try:
            raw = round(check_real(SignalError, "value", value) / self.scale)
        except OverflowError:  # value / scale is past the float range, and so past every raw range
            raise SignalError(f"value {shown(value)} maps to a raw value outside {lo}..{hi}") from None
        if not lo <= raw <= hi:
            raise SignalError(f"value {shown(value)} maps to raw {raw}, outside {lo}..{hi}")
        if raw == self.not_available_raw:
            raise SignalError(
                f"value {shown(value)} maps to raw {raw}, the not-available sentinel"
            )
        return raw.to_bytes(self.width_bytes, "little", signed=self.signed)


def read_signal(frame: CanFrame, signal: ScaledSignal) -> float | None:
    """Decode a signal from a frame; None when the raw value is the
    not-available sentinel."""
    end = signal.byte_offset + signal.width_bytes
    if end > frame.dlc:
        raise SignalError(
            f"signal bytes {signal.byte_offset}..{end - 1} outside dlc {frame.dlc}"
        )
    raw = int.from_bytes(frame.data[signal.byte_offset:end], "little", signed=signal.signed)
    if raw == signal.not_available_raw:  # a signed signal has none
        return None
    return raw * signal.scale
