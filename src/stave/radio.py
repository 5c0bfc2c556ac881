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
from dataclasses import dataclass

from .bus import CanBus, NodeHandle
from .capture import KIND_RADIO, CapturePoint, valid_interface
from .errors import (
    ConfigurationError,
    DecapsulationError,
    FramingError,
    IntegrityError,
    LengthError,
    check_bool,
    check_int,
    check_real,
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
        check_int(ConfigurationError, "num_channels", self.num_channels, 1, 256)
        check_int(ConfigurationError, "hop_seed", self.hop_seed, 0, MASK64)
        check_real(ConfigurationError, "loss_probability", self.loss_probability, 0.0, 1.0)
        check_int(ConfigurationError, "latency_us", self.latency_us, 0)
        check_bool(ConfigurationError, "hopping", self.hopping)
        check_bool(ConfigurationError, "faraday_mode", self.faraday_mode)


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
        check_int(ConfigurationError, "channel", self.channel, 0, 255)
        check_int(ConfigurationError, "seq", self.seq, 0, 0xFFFF)

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
    """Parse and verify one radio packet (see packet_frame)."""
    buf = bytes(buf)
    can_id, data = packet_frame(buf)
    return RadioPacket(channel=buf[2], seq=int.from_bytes(buf[3:5], "big"), frame=CanFrame(can_id, data))


def packet_frame(buf: bytes) -> tuple[int, bytes]:
    """The (can_id, data) of the frame a radio packet carries, once the
    packet passes every check; raises DecapsulationError otherwise.

    Check order matters: minimum size, sync, then CRC (its boundary
    comes from the buffer, not the len byte, so a corrupted len byte is
    caught by the CRC), then structural consistency.
    """
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
    return can_id, buf[12:12 + dlc]


@dataclass(eq=False)
class Tap(CapturePoint):
    """Passive radio observer with a channel filter.

    ``channels`` is a set of channel indices, or None for all-band.
    """

    name: str
    channels: frozenset[int] | None = None
    inside_faraday: bool = True

    def __post_init__(self):
        if not valid_interface(self.name):
            raise ConfigurationError(f"tap name {self.name!r} must be non-empty without whitespace")
        check_bool(ConfigurationError, f"tap {self.name!r} inside_faraday", self.inside_faraday)
        if self.channels is not None:
            try:
                self.channels = frozenset(self.channels)
            except TypeError:
                raise ConfigurationError(
                    f"tap {self.name!r} channels {self.channels!r} must be a collection of channel numbers"
                ) from None
            if not self.channels:
                raise ConfigurationError(f"tap {self.name!r} has an empty channel set")
        CapturePoint.__init__(self, self.name, KIND_RADIO)


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
        for channel in tap.channels or ():
            check_int(ConfigurationError, f"tap {tap.name!r} channel", channel,
                      0, self.config.num_channels - 1)
        self._taps.append(tap)
        return tap

    def create_endpoint(self, bus: CanBus, name: str, inside_faraday: bool = True) -> "BridgeEndpoint":
        endpoint = BridgeEndpoint(self, bus, name, inside_faraday)
        self._endpoints.append(endpoint)
        return endpoint

    def transmit(self, packet: RadioPacket | bytes, sender=None) -> None:
        """Put one packet on the air.

        Taps get a copy now (transmit instant). Every endpoint other than
        the sender that the faraday barrier and an independent loss draw
        let through hears the packet in one event, after the propagation
        latency. Raw bytes are decoded once, in that event.
        """
        if isinstance(packet, RadioPacket):
            wire = packet.to_bytes()
        else:
            wire = packet = bytes(packet)
        self.stats.packets_sent += 1
        channel = wire[2] if len(wire) > 2 else None
        sender_inside = getattr(sender, "inside_faraday", True)
        now = self.clock.now_us
        for tap in self._taps:
            if self.config.faraday_mode and tap.inside_faraday != sender_inside:
                continue
            if tap.channels is not None and channel not in tap.channels:
                continue
            tap.observe(now, wire)
        reached = []
        for endpoint in self._endpoints:
            if endpoint is sender:
                continue
            if self.config.faraday_mode and endpoint.inside_faraday != sender_inside:
                continue
            if self.config.loss_probability > 0.0 and self._rng.random() < self.config.loss_probability:
                self.stats.packets_lost += 1
                continue
            reached.append(endpoint)
        if reached:
            self.clock.schedule(now + self.config.latency_us,
                                lambda: self._deliver(packet, reached, sender))

    def _deliver(self, packet: RadioPacket | bytes, endpoints: list[BridgeEndpoint], sender) -> None:
        """Hand one packet to every endpoint it reached, in endpoint order."""
        if not isinstance(packet, RadioPacket):
            try:
                packet = decapsulate(packet)
            except DecapsulationError:
                self.stats.crc_dropped += len(endpoints)
                return
        if packet.channel != hop_channel(self.config, packet.seq):
            self.stats.channel_rejected += len(endpoints)
            return
        self.stats.endpoint_delivered += len(endpoints)
        notify = getattr(sender, "on_packet_delivered", None)
        if notify is not None:
            notify()
        for endpoint in endpoints:
            endpoint.bus.submit(endpoint.handle, packet.frame)


class BridgeEndpoint:
    """One half of the wireless CAN bridge, attached to a bus segment.

    Every frame heard on the segment is encapsulated and transmitted
    with the next sequence number on the hop channel for that seq; every
    acceptable packet heard on the air is re-emitted onto the segment.
    """

    def __init__(self, medium: RadioMedium, bus: CanBus, name: str, inside_faraday: bool = True):
        self.medium = medium
        self.bus = bus
        self.inside_faraday = inside_faraday
        self.seq_sent = 0
        self.handle: NodeHandle = bus.attach(name, self._on_bus_frame)

    def _on_bus_frame(self, frame: CanFrame) -> None:
        seq = self.seq_sent & 0xFFFF
        self.seq_sent += 1
        channel = hop_channel(self.medium.config, seq)
        self.medium.transmit(encapsulate(frame, channel, seq), sender=self)
