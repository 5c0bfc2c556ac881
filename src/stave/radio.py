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
then re-emit the embedded frame onto their own bus segment. Every
transmitter is a RadioInjector, which numbers, channels and builds its
packets; a bridge endpoint is one inside the shield that follows the
hops. There is no authentication, so a well-formed packet on the right
channel is indistinguishable from a legitimate one.
"""

from __future__ import annotations

import binascii
import random
import struct
from dataclasses import dataclass

from .bus import CanBus, NodeHandle
from .capture import RADIO_ID, CapturePoint, valid_interface
from .errors import (
    ConfigurationError,
    DecapsulationError,
    FramingError,
    IntegrityError,
    LengthError,
    check_bool,
    check_int,
    check_real,
    shown,
)
from .j1939 import MAX_CAN_ID, MAX_DLC, CanFrame
from .sim import SimClock

SYNC = b"\xa5\x5a"
FLAG_EXTENDED_ID = 0x01
MIN_PACKET_SIZE = 14  # dlc 0
MAX_CHANNEL = 255  # the channel byte's range is 0..MAX_CHANNEL
CHANNEL_OFFSET = 2  # the channel byte's offset in a packet
SEQ_MASK = 0xFFFF  # seq is 16 bits: senders count modulo 2**16
# bytes 2 .. 11: channel, seq, flags, len, can_id, dlc
_HEADER = struct.Struct(">BHBBIB")


def crc16_ccitt_false(data: bytes) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, unreflected).

    binascii.crc_hqx is this CRC (the XMODEM family: poly 0x1021, no
    reflection, no final xor) started from the given initial value.
    """
    return binascii.crc_hqx(data, 0xFFFF)


MASK64 = (1 << 64) - 1  # the hop seed's range and the mixer's modulus
_GOLDEN = 0x9E3779B97F4A7C15
# the RadioConfig fields bounded on both sides, with their ranges (inclusive);
# latency_us is only bounded below, and a scenario's latency_s by its time limit
RADIO_FIELDS = {"num_channels": (1, MAX_CHANNEL + 1), "hop_seed": (0, MASK64), "loss_probability": (0.0, 1.0)}


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
        check_int(ConfigurationError, "num_channels", self.num_channels, *RADIO_FIELDS["num_channels"])
        check_int(ConfigurationError, "hop_seed", self.hop_seed, *RADIO_FIELDS["hop_seed"])
        check_real(ConfigurationError, "loss_probability", self.loss_probability, *RADIO_FIELDS["loss_probability"])
        check_int(ConfigurationError, "latency_us", self.latency_us, 0)
        check_bool(ConfigurationError, "hopping", self.hopping)
        check_bool(ConfigurationError, "faraday_mode", self.faraday_mode)

    @property
    def channel_range(self) -> tuple[int, int]:
        """The lowest and the highest channel of the link (inclusive)."""
        return 0, self.num_channels - 1


def hop_channel(config: RadioConfig, seq: int) -> int:
    """Channel used for the packet with the given sequence number.

    Deterministic in (hop_seed, seq) and uniform over the channel set;
    with hopping disabled the link sits on channel 0.
    """
    if not config.hopping:
        return 0
    x = _mix64(config.hop_seed ^ ((seq * _GOLDEN) & MASK64))
    return x % config.num_channels


@dataclass(frozen=True, slots=True)
class RadioPacket:
    channel: int
    seq: int
    frame: CanFrame

    def __post_init__(self):
        check_int(ConfigurationError, "channel", self.channel, 0, MAX_CHANNEL)
        check_int(ConfigurationError, "seq", self.seq, 0, SEQ_MASK)

    def to_bytes(self) -> bytes:
        frame = self.frame
        dlc = len(frame.data)
        body = _HEADER.pack(self.channel, self.seq, FLAG_EXTENDED_ID, 5 + dlc, frame.can_id, dlc) + frame.data
        return SYNC + body + crc16_ccitt_false(body).to_bytes(2, "big")


# each field's slot setter, which a frozen instance's __setattr__ does not reach
_set_channel, _set_seq, _set_frame = (RadioPacket.__dict__[key].__set__ for key in ("channel", "seq", "frame"))


def _valid_packet(channel: int, seq: int, frame: CanFrame) -> RadioPacket:
    """A RadioPacket from fields already known to be valid, without re-checking them."""
    packet = object.__new__(RadioPacket)
    _set_channel(packet, channel)
    _set_seq(packet, seq)
    _set_frame(packet, frame)
    return packet


def decapsulate(buf: bytes) -> RadioPacket:
    """Parse and verify one radio packet (see packet_frame)."""
    buf = bytes(buf)
    can_id, data = packet_frame(buf)
    return RadioPacket(channel=buf[CHANNEL_OFFSET], seq=int.from_bytes(buf[3:5], "big"), frame=CanFrame(can_id, data))


def packet_frame(buf: bytes) -> tuple[int, bytes]:
    """The (can_id, data) of the frame a radio packet carries, once the
    packet passes every check; raises DecapsulationError otherwise.

    Check order matters: minimum size, sync, then CRC (its boundary
    comes from the buffer, not the len byte, so a corrupted len byte is
    caught by the CRC), then structural consistency.
    """
    size = len(buf)
    if size < MIN_PACKET_SIZE:
        raise LengthError(f"packet of {size} bytes is below the {MIN_PACKET_SIZE}-byte minimum")
    if not buf.startswith(SYNC):
        raise FramingError(f"bad sync bytes {buf[0:2].hex().upper()}")
    crc_claimed = buf[-2] << 8 | buf[-1]
    crc_actual = crc16_ccitt_false(buf[2:-2])
    if crc_claimed != crc_actual:
        raise IntegrityError(f"crc mismatch: packet says 0x{crc_claimed:04X}, computed 0x{crc_actual:04X}")
    _, _, flags, length, can_id, dlc = _HEADER.unpack_from(buf, 2)
    if length != size - 9:
        raise LengthError(f"len byte {length} disagrees with a {size}-byte packet")
    if dlc != length - 5 or dlc > MAX_DLC:
        raise LengthError(f"dlc {dlc} inconsistent with len byte {length}")
    if flags != FLAG_EXTENDED_ID:
        raise FramingError(f"unsupported flags byte 0x{flags:02X}")
    if can_id > MAX_CAN_ID:
        raise FramingError(f"identifier 0x{can_id:08X} exceeds 29 bits")
    return can_id, buf[12:-2]


@dataclass(frozen=True)
class Tap:
    """The settings of a passive radio observer: its name (its log's
    interface), its channel filter and its side of the shield.

    ``channels`` is a set of channel indices, or None for all-band.
    """

    name: str
    channels: frozenset[int] | None = None
    inside_faraday: bool = True

    def __post_init__(self):
        if not valid_interface(self.name):
            raise ConfigurationError(f"tap name {shown(self.name)} must be non-empty without whitespace")
        check_bool(ConfigurationError, f"tap {shown(self.name)} inside_faraday", self.inside_faraday)
        if self.channels is not None:
            try:
                object.__setattr__(self, "channels", frozenset(self.channels))
            except TypeError:
                raise ConfigurationError(
                    f"tap {shown(self.name)} channels {shown(self.channels)} "
                    "must be a collection of channel numbers"
                ) from None
            if not self.channels:
                raise ConfigurationError(f"tap {shown(self.name)} has an empty channel set")


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
        self._taps: list[tuple[Tap, CapturePoint]] = []
        self.stats = RadioStats()

    def add_tap(self, tap: Tap) -> CapturePoint:
        """Listen with tap; returns the point that counts and keeps what it hears."""
        if any(t.name == tap.name for t, _ in self._taps):
            raise ConfigurationError(f"tap name {shown(tap.name)} already registered")
        for channel in tap.channels or ():
            check_int(ConfigurationError, f"tap {shown(tap.name)} channel", channel, *self.config.channel_range)
        point = CapturePoint(tap.name)
        self._taps.append((tap, point))
        return point

    def create_endpoint(self, bus: CanBus, name: str) -> "BridgeEndpoint":
        endpoint = BridgeEndpoint(self, bus, name)
        self._endpoints.append(endpoint)
        return endpoint

    def transmit(self, packet: RadioPacket | bytes, sender: RadioInjector | None = None) -> None:
        """Put one packet on the air; sender is the radio that built it,
        None for a packet from nowhere, which is inside the shield.

        Taps get a copy now (transmit instant), encoded once if any tap that
        hears it keeps it. Every endpoint other than the sender that an
        independent loss draw lets through hears the packet in one event,
        after the propagation latency; in faraday mode a sender outside the
        shield reaches none. Raw bytes are decoded once, in that event.
        """
        if isinstance(packet, RadioPacket):
            channel, wire = packet.channel, None
        else:
            wire = packet = bytes(packet)
            channel = wire[CHANNEL_OFFSET] if len(wire) > CHANNEL_OFFSET else None
        self.stats.packets_sent += 1
        sender_inside = True if sender is None else sender.inside_faraday
        now = self.clock.now_us
        faraday, loss = self.config.faraday_mode, self.config.loss_probability
        for tap, point in self._taps:
            if faraday and tap.inside_faraday != sender_inside:
                continue
            if tap.channels is not None and channel not in tap.channels:
                continue
            if wire is None and point.sinks:
                wire = packet.to_bytes()
            point.observe(now, RADIO_ID, wire)
        if faraday and not sender_inside:
            return
        reached = []
        for endpoint in self._endpoints:
            if endpoint is sender:
                continue
            if loss > 0.0 and self._rng.random() < loss:
                self.stats.packets_lost += 1
                continue
            reached.append(endpoint)
        if reached:
            self.clock.schedule(now + self.config.latency_us, lambda: self._deliver(packet, reached, sender))

    def _deliver(self, packet: RadioPacket | bytes, endpoints: list[BridgeEndpoint],
                 sender: RadioInjector | None) -> None:
        """Hand one packet to every endpoint it reached, in endpoint order;
        a follow_hops sender built its packet on its seq's hop channel, so
        only other packets are checked against the hop sequence."""
        if isinstance(packet, RadioPacket):
            on_hop = sender is not None and sender.strategy.mode == "follow_hops"
        else:
            try:
                packet = decapsulate(packet)
            except DecapsulationError:
                self.stats.crc_dropped += len(endpoints)
                return
            on_hop = False
        if not on_hop and packet.channel != hop_channel(self.config, packet.seq):
            self.stats.channel_rejected += len(endpoints)
            return
        self.stats.endpoint_delivered += len(endpoints)
        if sender is not None:
            sender.stats.delivered += 1
        for endpoint in endpoints:
            endpoint.bus.submit(endpoint.handle, packet.frame)


@dataclass
class InjectionStats:
    sent: int = 0
    delivered: int = 0


@dataclass(frozen=True)
class ChannelStrategy:
    """How a radio picks its transmit channel.

    ``fixed`` pins one channel; ``follow_hops`` computes the hop channel
    for each of the radio's own sequence numbers, which requires knowing
    the hop seed (granted through the radio config).
    """

    mode: str = "fixed"
    channel: int = 0

    def __post_init__(self):
        if self.mode not in ("fixed", "follow_hops"):
            raise ConfigurationError(f"channel strategy {shown(self.mode)} must be fixed or follow_hops")
        check_int(ConfigurationError, "channel", self.channel, 0, MAX_CHANNEL)

    def channel_for(self, config: RadioConfig, seq: int) -> int:
        if self.mode == "follow_hops":
            return hop_channel(config, seq)
        return self.channel


class RadioInjector:
    """A radio sending each frame in a packet with its next sequence
    number, on the channel its strategy picks for that seq.

    ``delivered`` counts packets accepted and re-emitted by at least one
    bridge endpoint (channel mismatch, loss, and the faraday barrier all
    prevent delivery).
    """

    def __init__(self, medium: RadioMedium, strategy: ChannelStrategy | None = None,
                 inside_faraday: bool = True):
        self.medium = medium
        self.strategy = ChannelStrategy() if strategy is None else strategy
        if not isinstance(self.strategy, ChannelStrategy):
            raise ConfigurationError(f"injector strategy {shown(strategy)} must be a ChannelStrategy")
        self.inside_faraday = check_bool(ConfigurationError, "injector inside_faraday", inside_faraday)
        self.stats = InjectionStats()

    def send_frame(self, frame: CanFrame) -> None:
        # the packets are numbered from 0, by the count sent before this one
        seq = self.stats.sent & SEQ_MASK
        self.stats.sent += 1
        # channel_for gives a channel in 0..MAX_CHANNEL, and seq is masked
        channel = self.strategy.channel_for(self.medium.config, seq)
        self.medium.transmit(_valid_packet(channel, seq, frame), sender=self)


class BridgeEndpoint(RadioInjector):
    """One half of the wireless CAN bridge: a radio injector inside the
    shield that follows the hops and sends every frame heard on its bus
    segment; every acceptable packet heard on the air is re-emitted onto
    the segment.
    """

    def __init__(self, medium: RadioMedium, bus: CanBus, name: str):
        super().__init__(medium, ChannelStrategy("follow_hops"))
        self.bus = bus
        self.handle: NodeHandle = bus.attach(name, self.send_frame)
