"""Identifier codec and scaled-signal tests.

The independent oracle for the 29-bit layout is plain string slicing
over the binary expansion, written with no reference to the production
bit arithmetic.
"""

import random

import pytest

from stave import (
    AddressError,
    CanFrame,
    FrameError,
    IdentifierError,
    J1939Address,
    ScaledSignal,
    SignalError,
    decode_id,
    encode_id,
    pgn_of,
    read_signal,
    write_signal,
)


def slicer_oracle(can_id: int) -> dict:
    """Field extraction by positional string slicing of the 29 bits."""
    bits = format(can_id, "029b")
    priority = int(bits[0:3], 2)
    edp = int(bits[3], 2)
    dp = int(bits[4], 2)
    pf = int(bits[5:13], 2)
    ps = int(bits[13:21], 2)
    sa = int(bits[21:29], 2)
    pgn = (edp << 17) | (dp << 16) | (pf << 8) | (ps if pf >= 240 else 0)
    return {
        "priority": priority,
        "edp": edp,
        "dp": dp,
        "pdu_format": pf,
        "pdu_specific": ps,
        "source_address": sa,
        "pgn": pgn,
        "destination": None if pf >= 240 else ps,
    }


def assert_matches_oracle(can_id: int) -> None:
    addr = decode_id(can_id)
    want = slicer_oracle(can_id)
    assert addr.priority == want["priority"]
    assert addr.edp == want["edp"]
    assert addr.dp == want["dp"]
    assert addr.pdu_format == want["pdu_format"]
    assert addr.pdu_specific == want["pdu_specific"]
    assert addr.source_address == want["source_address"]
    assert addr.pgn == want["pgn"]
    assert addr.destination_address == want["destination"]
    assert encode_id(addr) == can_id


def test_worked_decomposition_pdu1() -> None:
    # 0x18EF0021: destination-addressed proprietary A
    addr = decode_id(0x18EF0021)
    assert addr.priority == 6
    assert addr.pgn == 0xEF00
    assert addr.destination_address == 0x00
    assert addr.source_address == 0x21
    assert not addr.is_broadcast
    assert_matches_oracle(0x18EF0021)


def test_worked_decomposition_pdu2() -> None:
    # 0x0CF00400: broadcast EEC1 from the engine controller
    addr = decode_id(0x0CF00400)
    assert addr.priority == 3
    assert addr.pgn == 0xF004
    assert addr.destination_address is None
    assert addr.is_broadcast
    assert addr.source_address == 0x00
    assert_matches_oracle(0x0CF00400)


def test_roundtrip_random_sample() -> None:
    rng = random.Random(1939)
    for _ in range(20_000):
        assert_matches_oracle(rng.getrandbits(29))


def test_roundtrip_edges() -> None:
    for can_id in (0, 1, (1 << 29) - 1, 0x00F00000, 0x03FFFF00, 0x1CEFFF21):
        assert_matches_oracle(can_id)


def test_decode_rejects_out_of_range() -> None:
    with pytest.raises(IdentifierError):
        decode_id(1 << 29)
    with pytest.raises(IdentifierError):
        decode_id(-1)


def test_address_field_validation() -> None:
    with pytest.raises(AddressError):
        J1939Address(priority=8, pdu_format=0, pdu_specific=0, source_address=0)
    with pytest.raises(AddressError):
        J1939Address(priority=0, pdu_format=256, pdu_specific=0, source_address=0)
    with pytest.raises(AddressError):
        J1939Address(priority=0, pdu_format=0, pdu_specific=0, source_address=999)


def test_from_pgn_pdu1_requires_destination() -> None:
    addr = J1939Address.from_pgn(0xEF00, source_address=0x21, priority=6, destination=0x00)
    assert encode_id(addr) == 0x18EF0021
    with pytest.raises(AddressError):
        J1939Address.from_pgn(0xEF00, source_address=0x21)  # no destination
    with pytest.raises(AddressError):
        J1939Address.from_pgn(0xEF05, source_address=0x21, destination=0x00)  # low byte set


def test_from_pgn_pdu2_forbids_destination() -> None:
    addr = J1939Address.from_pgn(0xF004, source_address=0x00, priority=3)
    assert encode_id(addr) == 0x0CF00400
    with pytest.raises(AddressError):
        J1939Address.from_pgn(0xF004, source_address=0x00, destination=0x10)


def test_pgn_boundary_pdu_format_240() -> None:
    # pf 239 is the last destination-addressed format, 240 the first broadcast
    below = J1939Address(priority=6, pdu_format=239, pdu_specific=0x42, source_address=1)
    above = J1939Address(priority=6, pdu_format=240, pdu_specific=0x42, source_address=1)
    assert below.pgn == 0xEF00
    assert below.destination_address == 0x42
    assert above.pgn == 0xF042
    assert above.destination_address is None


def test_frame_validation() -> None:
    frame = CanFrame(0x0CFF1028, b"\x19\x7d\x00\xff\xff\xff\xff\xff")
    assert frame.dlc == 8
    with pytest.raises(FrameError):
        CanFrame(0x0CFF1028, b"\x00" * 9)
    with pytest.raises(FrameError):
        CanFrame(1 << 29, b"")
    with pytest.raises(FrameError):
        CanFrame(0x100, b"\x00", timestamp_us=-1)


def test_frame_at_rebases_timestamp_only() -> None:
    frame = CanFrame(0x100, b"\x01\x02")
    moved = frame.at(524)
    assert moved.timestamp_us == 524
    assert (moved.can_id, moved.data) == (frame.can_id, frame.data)
    assert frame.timestamp_us == 0


@pytest.mark.parametrize("timestamp_us", [-1, 1.5])
def test_frame_at_rejects_bad_timestamp(timestamp_us) -> None:
    with pytest.raises(FrameError):
        CanFrame(0x100, b"\x01").at(timestamp_us)


def test_pgn_of_matches_oracle() -> None:
    rng = random.Random(1939)
    edges = [0, (1 << 29) - 1, 0x00EFAB00, 0x00F0AB00, 0x03EFFFFF, 0x03F00000]
    for can_id in edges + [rng.getrandbits(29) for _ in range(5_000)]:
        assert pgn_of(can_id) == slicer_oracle(can_id)["pgn"]


# Signal scaling: oracles are hand-computed from scale/offset.

VOLTAGE = ScaledSignal(byte_offset=0, width_bytes=2, scale=0.05)
ANGLE = ScaledSignal(byte_offset=0, width_bytes=2, scale=0.01, signed=True)
PUMP = ScaledSignal(byte_offset=0, width_bytes=1, scale=0.4)


def test_read_unsigned_voltage() -> None:
    # raw 252 = 0x00FC little-endian -> 12.6 V
    frame = CanFrame(0x18FF1130, b"\xfc\x00\x01\xff\xff\xff\xff\xff")
    assert read_signal(frame, VOLTAGE) == pytest.approx(12.6)


def test_read_signed_angle() -> None:
    # raw -2800 = 0xF510 little-endian -> -28.00 deg
    frame = CanFrame(0x18FF1213, b"\x10\xf5\xff\xff\xff\xff\xff\xff")
    assert read_signal(frame, ANGLE) == pytest.approx(-28.0)


def test_write_then_read_quantizes_within_half_scale() -> None:
    rng = random.Random(7)
    frame = CanFrame(0x18FF1130, b"\x00" * 8)
    for _ in range(2_000):
        value = rng.uniform(0.0, 3276.0)
        written = write_signal(frame, VOLTAGE, value)
        back = read_signal(written, VOLTAGE)
        assert back is not None
        assert abs(back - value) <= VOLTAGE.scale / 2 + 1e-9


def test_signed_write_read_roundtrip() -> None:
    frame = CanFrame(0x18FF1213, b"\x00" * 8)
    for value in (-35.0, -28.0, -0.01, 0.0, 0.01, 28.0, 35.0):
        back = read_signal(write_signal(frame, ANGLE, value), ANGLE)
        assert back == pytest.approx(value)


def test_not_available_sentinel_reads_none() -> None:
    frame8 = CanFrame(0x18FF1421, b"\xff" * 8)
    assert read_signal(frame8, PUMP) is None
    assert read_signal(frame8, VOLTAGE) is None
    # signed signals have no sentinel: 0xFFFF is a real value (-1 raw)
    assert read_signal(frame8, ANGLE) == pytest.approx(-0.01)


def test_write_rejects_out_of_range() -> None:
    frame = CanFrame(0x18FF1421, b"\x00" * 8)
    with pytest.raises(SignalError):
        write_signal(frame, PUMP, -0.5)
    with pytest.raises(SignalError):
        write_signal(frame, PUMP, 103.0)  # raw 257 exceeds one byte
    with pytest.raises(SignalError):
        write_signal(frame, PUMP, 102.0)  # raw 255 is the sentinel, not a value


def test_signal_beyond_frame_end() -> None:
    short = CanFrame(0x18FF1130, b"\x01")
    with pytest.raises(SignalError):
        read_signal(short, VOLTAGE)


def test_signal_definition_validation() -> None:
    with pytest.raises(SignalError):
        ScaledSignal(byte_offset=0, width_bytes=3, scale=1.0)
    with pytest.raises(SignalError):
        ScaledSignal(byte_offset=-1, width_bytes=1, scale=1.0)
    with pytest.raises(SignalError):
        ScaledSignal(byte_offset=0, width_bytes=1, scale=0.0)
