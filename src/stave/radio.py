"""Wireless encapsulation of CAN frames and the shared radio medium.

Wire layout of one radio packet (integers big-endian):

    offset  size  field
    0       2     sync 0xA5 0x5A
    2       1     channel
    3       2     seq
    5       1     flags (bit0 = extended identifier, others 0)
    6       1     len   (= 5 + dlc: the can_id/dlc/data region)
    7       4     can_id
    11      1     dlc
    12      dlc   data
    12+dlc  2     crc   CRC-16/CCITT-FALSE over bytes 2 .. 11+dlc

CRC-16/CCITT-FALSE: polynomial 0x1021, init 0xFFFF, no reflection, no
final xor; check value over b"123456789" is 0x29B1.

The medium is a broadcast channel with a fixed propagation latency and
an optional per-packet loss draw (the only stochastic element, seeded).
Taps are ideal observers: they see packets at the transmit instant,
filtered by listened channels and, in faraday mode, by being on the
same side of the shield as the transmitter. Endpoints accept a packet
only when its channel matches the hop sequence position for its seq,
then re-emit the embedded frame onto their own bus segment; there is no
authentication, so a well-formed packet on the right channel is
indistinguishable from a legitimate one.
"""

from __future__ import annotations

import binascii
import random
from dataclasses import dataclass, field

from .bus import CanBus, NodeHandle
from .capture import KIND_RADIO, CaptureLog, CaptureRecord, valid_interface
from .errors import (
    ConfigurationError,
    DecapsulationError,
    FramingError,
    IntegrityError,
    LengthError,
)
from .j1939 import MAX_CAN_ID, CanFrame
from .sim import SimClock

SYNC = b"\xa5\x5a"
FLAG_EXTENDED_ID = 0x01
MIN_PACKET_SIZE = 14  # dlc 0


def crc16_ccitt_false(data: bytes) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, unreflected).

    binascii.crc_hqx is this CRC (the XMODEM family: poly 0x1021, no
    reflection, no final xor) started from the given initial value.
    """
    return binascii.crc_hqx(data, 0xFFFF)


MASK64 = (1 << 64) - 1  # the hop seed's range and the mixer's modulus
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    # splitmix64 finalizer: full-avalanche mix of a 64-bit word
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class RadioConfig:
    """Knobs of the wireless link."""

    num_channels: int = 16
    hopping: bool = False
    hop_seed: int = 0
    loss_probability: float = 0.0
    latency_us: int = 2000
    faraday_mode: bool = False

    def __post_init__(self):
        if not isinstance(self.num_channels, int) or not 1 <= self.num_channels <= 256:
            raise ConfigurationError(f"num_channels {self.num_channels!r} outside 1..256")
        if not isinstance(self.hop_seed, int) or not 0 <= self.hop_seed <= MASK64:
            raise ConfigurationError(f"hop_seed {self.hop_seed!r} must be a 64-bit non-negative int")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ConfigurationError(f"loss_probability {self.loss_probability!r} outside [0, 1]")
        if not isinstance(self.latency_us, int) or self.latency_us < 0:
            raise ConfigurationError(f"latency_us {self.latency_us!r} must be a non-negative int")


def hop_channel(config: RadioConfig, seq: int) -> int:
    """Channel used for the packet with the given sequence number.

    Deterministic in (hop_seed, seq) and uniform over the channel set;
    with hopping disabled the link sits on channel 0.
    """
    if not config.hopping:
        return 0
    x = _mix64(config.hop_seed ^ ((seq * _GOLDEN) & MASK64))
    return x % config.num_channels


@dataclass(frozen=True)
class RadioPacket:
    channel: int
    seq: int
    frame: CanFrame

    def __post_init__(self):
        if not isinstance(self.channel, int) or not 0 <= self.channel <= 255:
            raise ConfigurationError(f"channel {self.channel!r} outside 0..255")
        if not isinstance(self.seq, int) or not 0 <= self.seq <= 0xFFFF:
            raise ConfigurationError(f"seq {self.seq!r} outside 0..65535")

    def to_bytes(self) -> bytes:
        body = bytearray()
        body.append(self.channel)
        body += self.seq.to_bytes(2, "big")
        body.append(FLAG_EXTENDED_ID)
        body.append(5 + self.frame.dlc)
        body += self.frame.can_id.to_bytes(4, "big")
        body.append(self.frame.dlc)
        body += self.frame.data
        crc = crc16_ccitt_false(bytes(body))
        return SYNC + bytes(body) + crc.to_bytes(2, "big")


def encapsulate(frame: CanFrame, channel: int, seq: int) -> RadioPacket:
    return RadioPacket(channel=channel, seq=seq, frame=frame)


def decapsulate(buf: bytes) -> RadioPacket:
    """Parse and verify one radio packet.

    Check order matters: minimum size, sync, then CRC (its boundary
    comes from the buffer, not the len byte, so a corrupted len byte is
    caught by the CRC), then structural consistency.
    """
    buf = bytes(buf)
    if len(buf) < MIN_PACKET_SIZE:
        raise LengthError(f"packet of {len(buf)} bytes is below the {MIN_PACKET_SIZE}-byte minimum")
    if buf[0:2] != SYNC:
        raise FramingError(f"bad sync bytes {buf[0:2].hex().upper()}")
    crc_claimed = int.from_bytes(buf[-2:], "big")
    crc_actual = crc16_ccitt_false(buf[2:-2])
    if crc_claimed != crc_actual:
        raise IntegrityError(f"crc mismatch: packet says 0x{crc_claimed:04X}, computed 0x{crc_actual:04X}")
    length = buf[6]
    if length != len(buf) - 9:
        raise LengthError(f"len byte {length} disagrees with a {len(buf)}-byte packet")
    dlc = buf[11]
    if dlc != length - 5 or dlc > 8:
        raise LengthError(f"dlc {dlc} inconsistent with len byte {length}")
    if buf[5] != FLAG_EXTENDED_ID:
        raise FramingError(f"unsupported flags byte 0x{buf[5]:02X}")
    can_id = int.from_bytes(buf[7:11], "big")
    if can_id > MAX_CAN_ID:
        raise FramingError(f"identifier 0x{can_id:08X} exceeds 29 bits")
    return RadioPacket(
        channel=buf[2],
        seq=int.from_bytes(buf[3:5], "big"),
        frame=CanFrame(can_id, buf[12:12 + dlc]),
    )


@dataclass
class Tap:
    """Passive radio observer with a channel filter.

    ``channels`` is a set of channel indices, or None for all-band.
    """

    name: str
    channels: frozenset[int] | None = None
    inside_faraday: bool = True
    log: CaptureLog = field(default_factory=CaptureLog)

    def __post_init__(self):
        if not valid_interface(self.name):
            raise ConfigurationError(f"tap name {self.name!r} must be non-empty without whitespace")
        if self.channels is not None:
            self.channels = frozenset(self.channels)
            if not self.channels:
                raise ConfigurationError(f"tap {self.name!r} has an empty channel set")

    def hears(self, channel: int | None) -> bool:
        if self.channels is None:
            return True
        return channel is not None and channel in self.channels


class _DeliveryToken:
    """Tracks whether at least one endpoint accepted a transmitted packet."""

    __slots__ = ("sender", "delivered")

    def __init__(self, sender):
        self.sender = sender
        self.delivered = False

    def accept(self):
        if not self.delivered:
            self.delivered = True
            notify = getattr(self.sender, "on_packet_delivered", None)
            if notify is not None:
                notify()


@dataclass
class RadioStats:
    packets_sent: int = 0
    endpoint_delivered: int = 0
    packets_lost: int = 0
    channel_rejected: int = 0
    crc_dropped: int = 0


class RadioMedium:
    """Shared broadcast medium joining bridge endpoints, taps, injectors."""

    def __init__(self, clock: SimClock, config: RadioConfig | None = None,
                 rng: random.Random | None = None):
        self.clock = clock
        self.config = config or RadioConfig()
        self._rng = rng if rng is not None else random.Random(0)
        self._endpoints: list[BridgeEndpoint] = []
        self._taps: list[Tap] = []
        self.stats = RadioStats()

    def add_tap(self, tap: Tap) -> Tap:
        if any(t.name == tap.name for t in self._taps):
            raise ConfigurationError(f"tap name {tap.name!r} already registered")
        if tap.channels is not None:
            bad = [c for c in tap.channels if not 0 <= c < self.config.num_channels]
            if bad:
                raise ConfigurationError(
                    f"tap {tap.name!r} listens on channels {sorted(bad)} outside "
                    f"0..{self.config.num_channels - 1}"
                )
        self._taps.append(tap)
        return tap

    def create_endpoint(self, bus: CanBus, name: str, inside_faraday: bool = True) -> "BridgeEndpoint":
        endpoint = BridgeEndpoint(self, bus, name, inside_faraday)
        self._endpoints.append(endpoint)
        return endpoint

    def transmit(self, packet: RadioPacket | bytes, sender=None) -> None:
        """Put one packet on the air.

        Taps get a copy now (transmit instant); every endpoint other
        than the sender gets the bytes after the propagation latency,
        subject to the faraday barrier and an independent loss draw.
        """
        wire = packet.to_bytes() if isinstance(packet, RadioPacket) else bytes(packet)
        self.stats.packets_sent += 1
        channel = wire[2] if len(wire) > 2 else None
        sender_inside = getattr(sender, "inside_faraday", True)
        now = self.clock.now_us
        for tap in self._taps:
            if self.config.faraday_mode and tap.inside_faraday != sender_inside:
                continue
            if not tap.hears(channel):
                continue
            tap.log.append(CaptureRecord(
                timestamp_us=now, interface=tap.name, kind=KIND_RADIO, data=wire,
            ))
        token = _DeliveryToken(sender)
        for endpoint in self._endpoints:
            if endpoint is sender:
                continue
            if self.config.faraday_mode and endpoint.inside_faraday != sender_inside:
                continue
            if self.config.loss_probability > 0.0 and self._rng.random() < self.config.loss_probability:
                self.stats.packets_lost += 1
                continue
            self.clock.schedule_in(
                self.config.latency_us,
                lambda ep=endpoint: ep._receive(wire, token),
            )


class BridgeEndpoint:
    """One half of the wireless CAN bridge, attached to a bus segment.

    Every frame heard on the segment is encapsulated and transmitted
    with the next sequence number on the hop channel for that seq; every
    acceptable packet heard on the air is re-emitted onto the segment.
    """

    def __init__(self, medium: RadioMedium, bus: CanBus, name: str, inside_faraday: bool = True):
        self.medium = medium
        self.bus = bus
        self.name = name
        self.inside_faraday = inside_faraday
        self.seq_sent = 0
        self.handle: NodeHandle = bus.attach(name, self._on_bus_frame)

    def _on_bus_frame(self, frame: CanFrame) -> None:
        seq = self.seq_sent & 0xFFFF
        self.seq_sent += 1
        channel = hop_channel(self.medium.config, seq)
        self.medium.transmit(encapsulate(frame, channel, seq), sender=self)

    def _receive(self, wire: bytes, token: _DeliveryToken) -> None:
        stats = self.medium.stats
        try:
            packet = decapsulate(wire)
        except DecapsulationError:
            stats.crc_dropped += 1
            return
        if packet.channel != hop_channel(self.medium.config, packet.seq):
            stats.channel_rejected += 1
            return
        stats.endpoint_delivered += 1
        token.accept()
        self.bus.submit(self.handle, packet.frame)
