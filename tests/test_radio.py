"""Radio packet format, channel hopping, and medium semantics.

Independent oracles frozen here:
  * bit-serial CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF), checked
    against the published check value 0x29B1 for b"123456789"
  * splitmix64 finalizer reimplemented from its published constants
  * hand-assembled packet bytes for one known frame
"""

import random
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stave import (
    BusConfig,
    CanBus,
    CanFrame,
    CaptureLog,
    ChannelStrategy,
    ConfigurationError,
    DecapsulationError,
    FramingError,
    IntegrityError,
    LengthError,
    RadioConfig,
    RadioInjector,
    RadioMedium,
    RadioPacket,
    SimClock,
    Tap,
    crc16_ccitt_false,
    decapsulate,
    hop_channel,
)
from stave.j1939 import MAX_CAN_ID, _valid_frame
from stave.radio import MASK64, _valid_packet, packet_frame


def crc_oracle(data: bytes) -> int:
    """Bit-serial CRC-16/CCITT-FALSE, no tables."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc


def splitmix_oracle(x: int) -> int:
    mask = (1 << 64) - 1
    x &= mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


JOY_FRAME = CanFrame(0x0CFF1028, b"\x19\x7d\x00\xff\xff\xff\xff\xff")


def test_crc_check_value() -> None:
    assert crc16_ccitt_false(b"123456789") == 0x29B1
    assert crc_oracle(b"123456789") == 0x29B1


def test_crc_matches_bit_serial_oracle() -> None:
    rng = random.Random(16)
    for _ in range(500):
        data = rng.randbytes(rng.randint(0, 64))
        assert crc16_ccitt_false(data) == crc_oracle(data)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.binary(max_size=300))
@example(b"123456789")
def test_crc_equals_bit_serial_oracle_on_any_bytes(data: bytes) -> None:
    assert crc16_ccitt_false(data) == crc_oracle(data)


def test_packet_layout_hand_assembled() -> None:
    wire = RadioPacket(0, 0, JOY_FRAME).to_bytes()
    body = bytes([0x00]) + b"\x00\x00" + b"\x01" + bytes([5 + 8]) \
        + (0x0CFF1028).to_bytes(4, "big") + bytes([8]) + JOY_FRAME.data
    expected = b"\xa5\x5a" + body + crc_oracle(body).to_bytes(2, "big")
    assert wire == expected
    assert len(wire) == 14 + 8


def test_minimum_packet_is_empty_payload() -> None:
    wire = RadioPacket(7, 0xBEEF, CanFrame(0x1, b"")).to_bytes()
    assert len(wire) == 14
    packet = decapsulate(wire)
    assert packet.channel == 7
    assert packet.seq == 0xBEEF
    assert packet.frame.dlc == 0


def test_roundtrip_random_packets() -> None:
    rng = random.Random(2402)
    for _ in range(3_000):
        frame = CanFrame(rng.getrandbits(29), rng.randbytes(rng.randint(0, 8)))
        channel = rng.randrange(256)
        seq = rng.randrange(1 << 16)
        packet = decapsulate(RadioPacket(channel, seq, frame).to_bytes())
        assert (packet.channel, packet.seq) == (channel, seq)
        assert (packet.frame.can_id, packet.frame.data) == (frame.can_id, frame.data)


def test_packet_frame_carries_the_largest_identifier() -> None:
    wire = RadioPacket(0, 0, CanFrame(MAX_CAN_ID, b"\x01\x02")).to_bytes()
    assert packet_frame(wire) == (MAX_CAN_ID, b"\x01\x02")


def test_decapsulate_too_short() -> None:
    wire = RadioPacket(0, 0, JOY_FRAME).to_bytes()
    with pytest.raises(LengthError):
        decapsulate(wire[:13])
    with pytest.raises(LengthError):
        decapsulate(b"")


def test_decapsulate_bad_sync() -> None:
    wire = bytearray(RadioPacket(0, 0, JOY_FRAME).to_bytes())
    wire[0] ^= 0xFF
    with pytest.raises(FramingError):
        decapsulate(bytes(wire))


def test_decapsulate_corrupt_payload() -> None:
    wire = bytearray(RadioPacket(0, 0, JOY_FRAME).to_bytes())
    wire[9] ^= 0x01
    with pytest.raises(IntegrityError):
        decapsulate(bytes(wire))


def test_decapsulate_truncation_with_valid_prefix_length() -> None:
    # dropping trailing bytes leaves min size intact but breaks the CRC
    wire = RadioPacket(0, 0, JOY_FRAME).to_bytes()
    with pytest.raises(DecapsulationError):
        decapsulate(wire[:16])


def _reframe(body: bytes) -> bytes:
    """Wrap a raw body in sync and a correct CRC."""
    return b"\xa5\x5a" + body + crc_oracle(body).to_bytes(2, "big")


# body layout after sync: channel | seq(2) | flags | len | can_id(4) | dlc | data


def test_decapsulate_length_lies_detected_behind_valid_crc() -> None:
    # forge a len byte inconsistent with the byte count, CRC recomputed
    wire = RadioPacket(0, 0, JOY_FRAME).to_bytes()
    body = bytearray(wire[2:-2])
    body[4] = 5 + 7  # len field claims one byte fewer
    with pytest.raises(LengthError):
        decapsulate(_reframe(bytes(body)))


def test_decapsulate_dlc_lies_detected_behind_valid_crc() -> None:
    wire = RadioPacket(0, 0, JOY_FRAME).to_bytes()
    body = bytearray(wire[2:-2])
    body[9] = 9  # dlc field disagrees with len
    with pytest.raises(LengthError):
        decapsulate(_reframe(bytes(body)))


def test_decapsulate_unknown_flags_detected_behind_valid_crc() -> None:
    wire = RadioPacket(0, 0, JOY_FRAME).to_bytes()
    body = bytearray(wire[2:-2])
    body[3] = 0x03  # only the extended-id flag is defined
    with pytest.raises(FramingError):
        decapsulate(_reframe(bytes(body)))


def _framed(body: bytes) -> bytes:
    """body (the bytes between sync and crc) with the sync and a correct crc."""
    return b"\xa5\x5a" + body + crc_oracle(body).to_bytes(2, "big")


def _replace_byte(buf: bytes, index: int, value: int) -> bytes:
    index %= len(buf)
    return buf[:index] + bytes([value]) + buf[index + 1:]


_PACKETS = st.builds(
    lambda can_id, data, channel, seq: RadioPacket(channel, seq, CanFrame(can_id, data)).to_bytes(),
    st.integers(0, (1 << 29) - 1), st.binary(max_size=8), st.integers(0, 255), st.integers(0, 0xFFFF),
)
# any bytes, packets with a byte changed or cut off, and bodies with a correct
# sync and crc, so the checks made after the crc see malformed input too
_NEAR_PACKETS = st.one_of(
    st.binary(max_size=40),
    _PACKETS,
    st.builds(_replace_byte, _PACKETS, st.integers(0, 63), st.integers(0, 255)),
    st.builds(lambda p, n: p[:n], _PACKETS, st.integers(0, 22)),
    st.binary(max_size=24).map(_framed),
    st.builds(lambda p, i, v: _framed(_replace_byte(p[2:-2], i, v)),
              _PACKETS, st.integers(0, 63), st.integers(0, 255)),
)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(_NEAR_PACKETS)
def test_decapsulate_rejects_cleanly_or_reencodes_identically(buf: bytes) -> None:
    try:
        packet = decapsulate(buf)
    except DecapsulationError:
        return
    assert packet.to_bytes() == buf


@pytest.mark.parametrize("build, cls, values", [
    (_valid_frame, CanFrame, (0x0CFF1028, b"\x19\x7d", 524)),
    (_valid_packet, RadioPacket, (9, 0xFFFF, JOY_FRAME)),
])
def test_an_unchecked_build_is_the_checked_constructor_s(build, cls, values) -> None:
    built, checked = build(*values), cls(*values)
    assert (type(built), built, hash(built), repr(built)) == (cls, checked, hash(checked), repr(checked))
    assert not hasattr(built, "__dict__")  # slotted
    for field in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(built, field.name, getattr(checked, field.name))


def test_packet_field_validation() -> None:
    with pytest.raises(ConfigurationError):
        RadioPacket(channel=256, seq=0, frame=JOY_FRAME)
    with pytest.raises(ConfigurationError):
        RadioPacket(channel=0, seq=1 << 16, frame=JOY_FRAME)


# Hop sequence


def hop_oracle(config: RadioConfig, seq: int) -> int:
    if not config.hopping:
        return 0
    golden = 0x9E3779B97F4A7C15
    mixed = splitmix_oracle(config.hop_seed ^ ((seq * golden) & ((1 << 64) - 1)))
    return mixed % config.num_channels


def test_hop_channel_matches_oracle() -> None:
    for hop_seed in (0, 77, 2**64 - 1):
        config = RadioConfig(num_channels=16, hopping=True, hop_seed=hop_seed)
        for seq in range(2_000):
            assert hop_channel(config, seq) == hop_oracle(config, seq)


def test_hop_channel_off_is_always_zero() -> None:
    config = RadioConfig(hopping=False)
    assert {hop_channel(config, seq) for seq in range(100)} == {0}


def test_hop_distribution_roughly_uniform() -> None:
    config = RadioConfig(num_channels=16, hopping=True, hop_seed=9)
    counts = [0] * 16
    n = 20_000
    for seq in range(n):
        counts[hop_channel(config, seq)] += 1
    for c in counts:
        assert abs(c / n - 1 / 16) < 0.02


def test_radio_config_validation() -> None:
    with pytest.raises(ConfigurationError):
        RadioConfig(num_channels=0)
    with pytest.raises(ConfigurationError):
        RadioConfig(num_channels=257)
    with pytest.raises(ConfigurationError):
        RadioConfig(loss_probability=1.5)
    with pytest.raises(ConfigurationError):
        RadioConfig(latency_us=-1)


# Medium semantics


def two_segment_medium(config: RadioConfig, seed: int = 0):
    clock = SimClock()
    bus_a = CanBus(clock, "a", BusConfig())
    bus_b = CanBus(clock, "b", BusConfig())
    medium = RadioMedium(clock, config, rng=random.Random(seed))
    medium.create_endpoint(bus_a, "bridge_a")
    medium.create_endpoint(bus_b, "bridge_b")
    return clock, bus_a, bus_b, medium


def test_bridge_carries_frame_across_segments() -> None:
    clock, bus_a, bus_b, medium = two_segment_medium(RadioConfig())
    got: list[CanFrame] = []
    sender = bus_a.attach("ecu", None)
    bus_b.attach("sink", on_frame=got.append)
    bus_a.attach("watch_a")
    bus_b.attach("watch_b")
    bus_a.submit(sender, JOY_FRAME)
    clock.run_until(1_000_000)
    assert len(got) == 1
    assert got[0].can_id == JOY_FRAME.can_id
    assert got[0].data == JOY_FRAME.data
    # wire time + latency + wire time again on the far segment
    assert got[0].timestamp_us == 524 + 2_000 + 524
    assert medium.stats.packets_sent == 1
    assert medium.stats.endpoint_delivered == 1


def test_bridge_does_not_echo_frames_back() -> None:
    clock, bus_a, bus_b, medium = two_segment_medium(RadioConfig())
    back_on_a: list[CanFrame] = []
    sender = bus_a.attach("ecu")
    bus_a.attach("watch", on_frame=back_on_a.append)
    bus_b.attach("sink")
    bus_a.submit(sender, JOY_FRAME)
    clock.run_until(1_000_000)
    # the watcher sees only the original transmission, no bridge echo:
    # the far endpoint's re-emission stays on its own segment, and an
    # endpoint never hears its own bus submissions, so each original
    # frame crosses the air exactly once
    assert len(back_on_a) == 1
    assert medium.stats.packets_sent == 1
    assert medium.stats.endpoint_delivered == 1


def test_taps_observe_at_transmit_instant_without_loss() -> None:
    config = RadioConfig(loss_probability=1.0)
    clock, bus_a, bus_b, medium = two_segment_medium(config)
    medium.add_tap(Tap(name="air")).keep(tap := CaptureLog())
    got: list[CanFrame] = []
    sender = bus_a.attach("ecu")
    bus_b.attach("sink", on_frame=got.append)
    bus_a.submit(sender, JOY_FRAME)
    clock.run_until(1_000_000)
    assert got == []                       # total loss blocks the endpoint path
    assert len(tap) == 1                   # the ideal observer still hears it
    assert tap[0].timestamp_us == 524      # transmit instant, no latency
    assert medium.stats.packets_lost == 1


def test_faraday_blocks_cross_side_taps_and_endpoints() -> None:
    clock, bus_a, bus_b, medium = two_segment_medium(RadioConfig(faraday_mode=True))
    medium.add_tap(Tap(name="inside", inside_faraday=True)).keep(inside := CaptureLog())
    medium.add_tap(Tap(name="outside", inside_faraday=False)).keep(outside := CaptureLog())
    got_a: list[CanFrame] = []
    got_b: list[CanFrame] = []
    sender = bus_a.attach("ecu", on_frame=got_a.append)
    bus_b.attach("sink", on_frame=got_b.append)
    # the bridges are inside the shield: only the inside tap hears them
    bus_a.submit(sender, JOY_FRAME)
    clock.run_until(1_000_000)
    assert (len(inside), len(outside)) == (1, 0)
    assert (len(got_a), len(got_b)) == (0, 1)
    # an outside injector on the hop channel reaches no endpoint and no inside tap
    injector = RadioInjector(medium, inside_faraday=False)
    injector.send_frame(JOY_FRAME)
    clock.run_until(2_000_000)
    assert (len(inside), len(outside)) == (1, 1)
    assert (len(got_a), len(got_b)) == (0, 1)
    assert (injector.stats.sent, injector.stats.delivered) == (1, 0)
    assert medium.stats.endpoint_delivered == 1


def test_outside_sender_draws_no_loss_number() -> None:
    clock, bus_a, bus_b, medium = two_segment_medium(
        RadioConfig(faraday_mode=True, loss_probability=0.5))
    state = medium._rng.getstate()
    RadioInjector(medium, inside_faraday=False).send_frame(JOY_FRAME)
    assert medium._rng.getstate() == state
    # an inside sender draws once per endpoint
    RadioInjector(medium).send_frame(JOY_FRAME)
    assert medium._rng.getstate() != state


@pytest.mark.parametrize("follow_hops", [False, True])
def test_injector_packets_equal_checked_packets(follow_hops) -> None:
    config = RadioConfig(num_channels=16, hopping=True, hop_seed=5)
    clock = SimClock()
    medium = RadioMedium(clock, config)
    medium.add_tap(Tap(name="air")).keep(air := CaptureLog())
    strategy = ChannelStrategy("follow_hops") if follow_hops else ChannelStrategy("fixed", 9)
    injector = RadioInjector(medium, strategy)
    injector.stats.sent = 0xFFFE  # the sequence number wraps at 16 bits
    frames = [CanFrame(0x100 + i, bytes(range(i))) for i in range(5)]
    for frame in frames:
        injector.send_frame(frame)
    seqs = [0xFFFE, 0xFFFF, 0, 1, 2]
    assert [r.data for r in air] == [
        RadioPacket(hop_channel(config, seq) if follow_hops else 9, seq, frame).to_bytes()
        for seq, frame in zip(seqs, frames)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(hopping=st.booleans(), hop_seed=st.integers(0, MASK64), num_channels=st.integers(1, 256),
       seq=st.integers(0, 0x2FFFF), can_id=st.integers(0, MAX_CAN_ID), data=st.binary(max_size=8))
def test_bridge_and_follow_hops_injector_send_the_same_packet(hopping, hop_seed, num_channels, seq, can_id,
                                                              data) -> None:
    clock = SimClock()
    bus = CanBus(clock, "a", BusConfig())
    medium = RadioMedium(clock, RadioConfig(num_channels=num_channels, hopping=hopping, hop_seed=hop_seed))
    medium.add_tap(Tap(name="air")).keep(air := CaptureLog())
    bridge = medium.create_endpoint(bus, "bridge")
    injector = RadioInjector(medium, ChannelStrategy("follow_hops"))
    bridge.stats.sent = injector.stats.sent = seq
    frame = CanFrame(can_id, data)
    bus.submit(bus.attach("ecu"), frame)  # the bridge sends what its segment carries
    clock.run_until(1_000_000)
    injector.send_frame(frame)
    assert len(air) == 2
    assert air[0].data == air[1].data


@pytest.mark.parametrize("strategy, text", [
    ("follow_hops", "'follow_hops'"), (ChannelStrategy, "<class 'stave.radio.ChannelStrategy'>"), (0, "0"), ("", "''"),
])
def test_injector_strategy_must_be_a_channel_strategy(strategy, text) -> None:
    # rejected when built, not at the first send inside a clock event
    with pytest.raises(ConfigurationError) as raised:
        RadioInjector(RadioMedium(SimClock()), strategy)
    assert str(raised.value) == f"injector strategy {text} must be a ChannelStrategy"


def test_single_channel_tap_hears_only_its_channel() -> None:
    config = RadioConfig(num_channels=16, hopping=True, hop_seed=5)
    clock = SimClock()
    medium = RadioMedium(clock, config)
    medium.add_tap(Tap(name="narrow", channels=frozenset({3}))).keep(narrow := CaptureLog())
    medium.add_tap(Tap(name="wide")).keep(wide := CaptureLog())
    late = medium.add_tap(Tap(name="late"))
    n = 2_000
    expected = sum(1 for seq in range(n) if hop_channel(config, seq) == 3)
    for seq in range(n):
        if seq == n // 2:
            # a tap's point counts from the start but keeps nothing until asked
            assert (late.seen, late.sinks) == (n // 2, [])
            late.keep(late_log := CaptureLog())
        medium.transmit(RadioPacket(hop_channel(config, seq), seq, JOY_FRAME))
    assert len(wide) == n
    assert len(narrow) == expected
    assert (late.seen, len(late_log)) == (n, n - n // 2)


def test_a_packet_is_encoded_once_and_only_for_a_tap_that_keeps_it(monkeypatch) -> None:
    bodies: list[bytes] = []
    monkeypatch.setattr("stave.radio.crc16_ccitt_false", lambda body: bodies.append(body) or crc_oracle(body))
    config = RadioConfig(num_channels=16, hopping=True, hop_seed=5)
    medium = RadioMedium(SimClock(), config)
    idle = medium.add_tap(Tap(name="idle"))
    injector = RadioInjector(medium, ChannelStrategy("follow_hops"))
    for _ in range(50):
        injector.send_frame(JOY_FRAME)
    assert (idle.seen, bodies) == (50, [])  # counted, never encoded
    medium.add_tap(Tap(name="air")).keep(air := CaptureLog())
    medium.add_tap(Tap(name="also")).keep(also := CaptureLog())
    for _ in range(50):
        injector.send_frame(JOY_FRAME)
    assert (idle.seen, len(bodies)) == (100, 50)  # one encoding for both keeping taps
    want = [RadioPacket(hop_channel(config, seq), seq, JOY_FRAME).to_bytes() for seq in range(50, 100)]
    assert [r.data for r in air] == [r.data for r in also] == want


def test_endpoint_rejects_wrong_channel() -> None:
    config = RadioConfig(num_channels=16, hopping=True, hop_seed=5)
    clock, bus_a, bus_b, medium = two_segment_medium(config)
    got: list[CanFrame] = []
    bus_b.attach("sink", on_frame=got.append)
    # seq 0 hops somewhere; transmit on a deliberately different channel
    right = hop_channel(config, 0)
    wrong = (right + 1) % 16
    medium.transmit(RadioPacket(wrong, 0, JOY_FRAME))
    clock.run_until(1_000_000)
    assert got == []
    assert medium.stats.channel_rejected == 2  # both endpoints refused it
    assert medium.stats.endpoint_delivered == 0
    # an injector pinned to a channel off the hop is refused the same way
    injector = RadioInjector(medium, ChannelStrategy("fixed", wrong))
    injector.send_frame(JOY_FRAME)  # its own seq 0
    clock.run_until(2_000_000)
    assert got == []
    assert medium.stats.channel_rejected == 4
    assert medium.stats.endpoint_delivered == 0
    assert (injector.stats.sent, injector.stats.delivered) == (1, 0)


def test_bridge_packets_ride_the_hop_sequence() -> None:
    config = RadioConfig(num_channels=16, hopping=True, hop_seed=5)
    clock, bus_a, bus_b, medium = two_segment_medium(config)
    medium.add_tap(Tap(name="air")).keep(air := CaptureLog())
    got_a: list[CanFrame] = []
    got_b: list[CanFrame] = []
    ecu_a = bus_a.attach("ecu_a", on_frame=got_a.append)
    ecu_b = bus_b.attach("ecu_b", on_frame=got_b.append)
    for i in range(40):
        bus_a.submit(ecu_a, CanFrame(0x100 + i, bytes((i,))))
        bus_b.submit(ecu_b, CanFrame(0x200 + i, bytes((i,))))
    clock.run_until(1_000_000)
    assert medium.stats.channel_rejected == 0
    assert medium.stats.endpoint_delivered == medium.stats.packets_sent == 80
    assert [f.can_id for f in got_b] == [0x100 + i for i in range(40)]
    assert [f.can_id for f in got_a] == [0x200 + i for i in range(40)]
    # each bridge numbers its own packets from 0 and sends each on its hop channel
    packets = [decapsulate(record.data) for record in air]
    for prefix in (0x100, 0x200):
        own = [p for p in packets if p.frame.can_id & 0xF00 == prefix]
        assert [p.seq for p in own] == list(range(40))
        assert [p.channel for p in own] == [hop_channel(config, seq) for seq in range(40)]
    assert len({p.channel for p in packets}) > 1


@pytest.fixture
def decoded(monkeypatch) -> list[bytes]:
    """Every buffer the medium hands to stave.radio.decapsulate."""
    calls: list[bytes] = []

    def spy(buf: bytes) -> RadioPacket:
        calls.append(buf)
        return decapsulate(buf)

    monkeypatch.setattr("stave.radio.decapsulate", spy)
    return calls


def test_endpoint_drops_corrupt_packets(decoded) -> None:
    clock, bus_a, bus_b, medium = two_segment_medium(RadioConfig())
    got: list[CanFrame] = []
    bus_b.attach("sink", on_frame=got.append)
    wire = bytearray(RadioPacket(0, 0, JOY_FRAME).to_bytes())
    wire[10] ^= 0x40
    medium.transmit(bytes(wire))
    clock.run_until(1_000_000)
    assert got == []
    assert medium.stats.crc_dropped == 2
    assert medium.stats.endpoint_delivered == 0
    # raw bytes are decoded once for both endpoints that heard them
    assert decoded == [bytes(wire)]


def test_a_valid_raw_packet_is_delivered_on_its_hop_channel_only(decoded) -> None:
    # raw bytes carry no sender, so the hop check runs on the decoded packet
    config = RadioConfig(num_channels=16, hopping=True, hop_seed=5)
    clock, bus_a, bus_b, medium = two_segment_medium(config)
    got: list[CanFrame] = []
    bus_b.attach("sink", on_frame=got.append)
    right = hop_channel(config, 7)
    on_hop, off_hop = (RadioPacket(channel, 7, JOY_FRAME).to_bytes() for channel in (right, (right + 1) % 16))
    medium.transmit(on_hop)
    clock.run_until(1_000_000)
    assert [(frame.can_id, frame.data) for frame in got] == [(JOY_FRAME.can_id, JOY_FRAME.data)]
    assert (medium.stats.endpoint_delivered, medium.stats.channel_rejected, medium.stats.crc_dropped) == (2, 0, 0)
    medium.transmit(off_hop)
    clock.run_until(2_000_000)
    assert len(got) == 1
    assert (medium.stats.endpoint_delivered, medium.stats.channel_rejected, medium.stats.crc_dropped) == (2, 2, 0)
    assert decoded == [on_hop, off_hop]


def test_two_byte_packet_reaches_taps_and_is_dropped_by_endpoints() -> None:
    clock, bus_a, bus_b, medium = two_segment_medium(RadioConfig())
    medium.add_tap(Tap(name="air")).keep(tap := CaptureLog())
    medium.add_tap(Tap(name="narrow", channels={0})).keep(narrow := CaptureLog())
    medium.transmit(b"\xa5\x5a")
    clock.run_until(1_000_000)
    # an all-band tap keeps it; it has no channel byte for a channel filter
    assert [record.data for record in tap] == [b"\xa5\x5a"]
    assert len(narrow) == 0
    assert medium.stats.crc_dropped == 2


def test_injected_packet_reaches_all_endpoints_but_not_sender(decoded, monkeypatch) -> None:
    clock, bus_a, bus_b, medium = two_segment_medium(RadioConfig())
    scheduled: list[int] = []
    schedule = SimClock.schedule

    def spy_schedule(self, at_us, action) -> None:
        scheduled.append(at_us)
        schedule(self, at_us, action)

    monkeypatch.setattr(SimClock, "schedule", spy_schedule)
    got_a: list[CanFrame] = []
    got_b: list[CanFrame] = []
    bus_a.attach("sink_a", on_frame=got_a.append)
    bus_b.attach("sink_b", on_frame=got_b.append)

    injector = RadioInjector(medium, ChannelStrategy("fixed", 0))
    injector.send_frame(JOY_FRAME)
    assert scheduled == [2000]  # one delivery event, after the latency, for both endpoints
    clock.run_until(1_000_000)
    assert len(got_a) == 1 and len(got_b) == 1
    assert [(f.can_id, f.data) for f in got_a + got_b] == [(JOY_FRAME.can_id, JOY_FRAME.data)] * 2
    assert decoded == []  # the packet object itself is delivered, never re-decoded
    # one delivery per packet even though two endpoints accepted it
    assert (injector.stats.sent, injector.stats.delivered) == (1, 1)


def test_loss_draw_is_seeded_and_endpoint_only() -> None:
    def run(seed: int) -> tuple[int, int]:
        config = RadioConfig(loss_probability=0.3)
        clock, bus_a, bus_b, medium = two_segment_medium(config, seed=seed)
        medium.add_tap(Tap(name="air")).keep(tap := CaptureLog())
        for seq in range(500):
            medium.transmit(RadioPacket(0, seq, JOY_FRAME))
        clock.run_until(10_000_000)
        return medium.stats.packets_lost, len(tap)

    lost_a, heard_a = run(seed=1)
    lost_b, heard_b = run(seed=1)
    lost_c, _ = run(seed=2)
    assert (lost_a, heard_a) == (lost_b, heard_b)
    assert heard_a == 500                  # taps never lose packets
    assert 0 < lost_a < 1000               # two endpoints, 500 draws each
    assert lost_c != lost_a


def test_tap_names_unique_and_channels_in_range() -> None:
    clock = SimClock()
    medium = RadioMedium(clock, RadioConfig(num_channels=4))
    medium.add_tap(Tap(name="air"))
    with pytest.raises(ConfigurationError):
        medium.add_tap(Tap(name="air"))
    with pytest.raises(ConfigurationError):
        medium.add_tap(Tap(name="high", channels=frozenset({4})))
    with pytest.raises(ConfigurationError):
        Tap(name="empty", channels=frozenset())
    # the name is the interface column of the tap's log: checked when built
    for name in ("a b", "", "air\n", "\u3000air"):
        with pytest.raises(ConfigurationError, match="without whitespace"):
            Tap(name)
