"""Differential analysis, mutation, replay, and injection."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stave import (
    BaselineError,
    BusConfig,
    CanBus,
    CanFrame,
    CaptureLog,
    CaptureRecord,
    ChannelStrategy,
    ConfigurationError,
    DecapsulationError,
    MessageMatch,
    Mutation,
    RadioConfig,
    RadioInjector,
    RadioMedium,
    ReplaySchedule,
    SimClock,
    WiredInjector,
    channel_occupancy,
    crc16_ccitt_false,
    decapsulate,
    diff_captures,
    encapsulate,
    hop_channel,
    pgn_of,
    plan_replay,
    schedule_injection,
)
from stave.capture import KIND_CAN, KIND_RADIO


def can_log(entries: list[tuple[int, int, bytes]]) -> CaptureLog:
    """Build a capture from (timestamp_us, can_id, data) rows."""
    log = CaptureLog()
    for ts, can_id, data in entries:
        log.append(CaptureRecord(timestamp_us=ts, interface="vehicle0",
                                 kind=KIND_CAN, data=data, can_id=can_id))
    return log


JOY = 0x0CFF1028
STR = 0x18FF1213


def test_plan_replay_mixes_wired_and_radio() -> None:
    frame = CanFrame(JOY, b"\x19\x7d\x00\xff\xff\xff\xff\xff")
    log = CaptureLog()
    log.append(CaptureRecord(timestamp_us=10, interface="v", kind=KIND_CAN,
                             data=frame.data, can_id=JOY))
    log.append(CaptureRecord(timestamp_us=20, interface="air", kind=KIND_RADIO,
                             data=encapsulate(frame, 0, 1).to_bytes()))
    log.append(CaptureRecord(timestamp_us=30, interface="air", kind=KIND_RADIO,
                             data=b"\xde\xad\xbe\xef"))  # garbage is skipped
    schedule = plan_replay(log, MessageMatch(can_id=JOY), None)
    assert schedule.entries == ((0, frame), (10, frame))


def test_channel_occupancy_matches_counter() -> None:
    rng = random.Random(6)
    log = CaptureLog()
    counts: Counter[int] = Counter()
    frame = CanFrame(JOY, b"\x01")
    for seq in range(400):
        channel = rng.randrange(16)
        counts[channel] += 1
        log.append(CaptureRecord(timestamp_us=seq, interface="air",
                                 kind=KIND_RADIO,
                                 data=encapsulate(frame, channel, seq).to_bytes()))
    got = channel_occupancy(log)
    assert dict(got) == dict(counts)
    # sorted by descending count, channel number breaking ties
    assert got == sorted(got, key=lambda cn: (-cn[1], cn[0]))


def test_occupancy_ignores_wired_records() -> None:
    log = can_log([(0, JOY, b"\x00")])
    assert channel_occupancy(log) == []


# Radio records that fail verification, in every way decapsulate names:
# each builds the packet bytes from a good packet's body (the bytes between
# sync and crc), behind a recomputed crc where a later check is the target
def _framed(body: bytes) -> bytes:
    return b"\xa5\x5a" + body + crc16_ccitt_false(body).to_bytes(2, "big")


def _flip(buf: bytes, index: int) -> bytes:
    return buf[:index] + bytes((buf[index] ^ 1,)) + buf[index + 1:]


# body layout: channel | seq(2) | flags | len | can_id(4) | dlc | data
CORRUPTIONS = {
    "sync": lambda body, rng: _flip(_framed(body), 1),
    "crc": lambda body, rng: _flip(_framed(body), 2),
    "len": lambda body, rng: _framed(_flip(body, 4)),
    "dlc": lambda body, rng: _framed(_flip(body, 9)),
    # len and dlc agree, but a CAN payload holds at most 8 bytes
    "dlc over 8": lambda body, rng: _framed(body[:4] + bytes((5 + 9,)) + body[5:9] + bytes((9,) * 10)),
    "flags": lambda body, rng: _framed(_flip(body, 3)),
    "id past 29 bits": lambda body, rng: _framed(body[:5] + bytes((body[5] | 0x20,)) + body[6:]),
    "short": lambda body, rng: _framed(body)[:rng.randrange(1, 14)],
}


def test_every_corruption_fails_verification() -> None:
    body = encapsulate(CanFrame(JOY, b"\x01\x02"), 3, 7).to_bytes()[2:-2]
    for name, corrupt in CORRUPTIONS.items():
        for seed in range(20):
            with pytest.raises(DecapsulationError):
                decapsulate(corrupt(body, random.Random(seed)))


def mixed_capture(rng: random.Random, active: bool) -> CaptureLog:
    """Wired and radio records of a few ids; a third of the radio records fail
    verification while carrying values that would change every analysis."""
    log = CaptureLog()
    for seq in range(300):
        can_id = rng.choice((JOY, STR, 0x18FEF100))
        dlc = {JOY: 8, STR: 3}.get(can_id) or rng.randint(0, 8)
        if active:
            data = bytes(rng.choice((5, 6, 7)) for _ in range(dlc))
        else:
            data = bytes((5, rng.choice((3, 4)), 2, 1, 1, 1, 1, 1)[:dlc])
        wire = encapsulate(CanFrame(can_id, data), rng.randrange(16), seq).to_bytes()
        if rng.random() < 0.25:
            log.append(CaptureRecord(seq * 1000, "vehicle0", KIND_CAN, data, can_id))
        elif rng.random() < 0.33:
            forged = encapsulate(CanFrame(rng.choice((can_id, 0x1ABCDE00)), bytes((99,) * 8)),
                                 rng.randrange(16), seq).to_bytes()
            corrupt = CORRUPTIONS[rng.choice(sorted(CORRUPTIONS))]
            log.append(CaptureRecord(seq * 1000, "air", KIND_RADIO, corrupt(forged[2:-2], rng)))
        else:
            log.append(CaptureRecord(seq * 1000, "air", KIND_RADIO, wire))
    return log


def reference_frames(capture: CaptureLog) -> list[tuple[int, CanFrame]]:
    """(timestamp_us, frame) of each record, one decapsulate per radio record."""
    frames = []
    for record in capture:
        if record.kind == KIND_CAN:
            frames.append((record.timestamp_us, record.frame()))
            continue
        try:
            frames.append((record.timestamp_us, decapsulate(record.data).frame))
        except DecapsulationError:
            pass
    return frames


def reference_diff(pre: CaptureLog, post: CaptureLog) -> dict:
    """diff_captures' report, computed one frame at a time."""
    groups = []
    for capture in (pre, post):
        by_id: dict[int, list[CanFrame]] = {}
        for _, frame in reference_frames(capture):
            by_id.setdefault(frame.can_id, []).append(frame)
        groups.append(by_id)
    pre_groups, post_groups = groups
    shared = sorted(set(pre_groups) & set(post_groups))
    flagged = []
    for can_id in shared:
        width = min(frame.dlc for frame in pre_groups[can_id] + post_groups[can_id])
        found = []
        for offset in range(width):
            pre_values = {frame.data[offset] for frame in pre_groups[can_id]}
            post_values = {frame.data[offset] for frame in post_groups[can_id]}
            if len(pre_values) == 1 and len(post_values) >= 2:
                found.append({"offset": offset, "pre_constant": pre_values.pop(),
                              "post_distinct": len(post_values),
                              "post_min": min(post_values), "post_max": max(post_values)})
        if found:
            flagged.append({"can_id": f"0x{can_id:08X}", "bytes": found})
    rates = []
    for can_id in shared:
        pre_hz = len(pre_groups[can_id]) * 1e6 / pre.span_us
        post_hz = len(post_groups[can_id]) * 1e6 / post.span_us
        if max(pre_hz, post_hz) / min(pre_hz, post_hz) > 1.5:
            rates.append({"can_id": f"0x{can_id:08X}", "pre_hz": pre_hz, "post_hz": post_hz})
    return {
        "schema": "stave-diff/1",
        "flagged": flagged,
        "ids_only_in_pre": [f"0x{i:08X}" for i in sorted(set(pre_groups) - set(post_groups))],
        "ids_only_in_post": [f"0x{i:08X}" for i in sorted(set(post_groups) - set(pre_groups))],
        "rate_changes": rates,
    }


@pytest.mark.parametrize("seed", range(8))
def test_analyses_skip_corrupted_radio_records_like_decapsulate(seed: int) -> None:
    rng = random.Random(seed)
    pre, post = mixed_capture(rng, active=False), mixed_capture(rng, active=True)
    assert diff_captures(pre, post).to_json_dict() == reference_diff(pre, post)

    radio = [record.data for record in post if record.kind == KIND_RADIO and len(record.data) >= 3]
    counts = Counter(data[2] for data in radio)
    assert channel_occupancy(post) == sorted(counts.items(), key=lambda item: (-item[1], item[0]))

    mutation = Mutation.parse("byte0=add(1)")
    for match in (MessageMatch(pgn=pgn_of(JOY)), MessageMatch(can_id=STR)):
        matched = [(ts, frame) for ts, frame in reference_frames(post) if match.matches(frame.can_id)]
        want = [(ts - matched[0][0], CanFrame(frame.can_id, mutation.apply(frame.data)))
                for ts, frame in matched]
        assert plan_replay(post, match, mutation).entries == tuple(want)


# Differential analysis


def test_diff_flags_only_constant_to_changing_bytes() -> None:
    pre = can_log([(t, JOY, bytes((125, 125, 0))) for t in range(0, 1000, 100)])
    post = can_log([
        (t, JOY, bytes((x, 125, 0)))
        for t, x in zip(range(0, 1000, 100), [25, 25, 225, 225, 90, 90, 25, 225, 90, 25])
    ])
    report = diff_captures(pre, post)
    assert set(report.flagged) == {JOY}
    (entry,) = report.flagged[JOY]
    assert entry.offset == 0
    assert entry.pre_constant == 125
    assert entry.post_distinct == 3
    assert (entry.post_min, entry.post_max) == (25, 225)


def test_diff_requires_two_distinct_post_values() -> None:
    pre = can_log([(t, JOY, bytes((125,))) for t in range(0, 500, 100)])
    post = can_log([(t, JOY, bytes((25,))) for t in range(0, 500, 100)])
    # one constant replaced by another constant is not a moving byte
    assert diff_captures(pre, post).flagged == {}


def test_diff_ignores_bytes_that_vary_in_baseline() -> None:
    pre = can_log([(t, JOY, bytes((125 + (t // 100) % 2,))) for t in range(0, 500, 100)])
    post = can_log([(t, JOY, bytes((t % 7,))) for t in range(0, 500, 100)])
    assert diff_captures(pre, post).flagged == {}


def test_diff_reports_ids_unique_to_each_side() -> None:
    pre = can_log([(0, JOY, b"\x01"), (100, 0x111, b"\x02")])
    post = can_log([(0, JOY, b"\x01"), (100, 0x222, b"\x02")])
    report = diff_captures(pre, post)
    assert report.ids_only_in_pre == (0x111,)
    assert report.ids_only_in_post == (0x222,)


def test_diff_rate_change_ratio() -> None:
    # same id at 10 Hz in pre, 2 Hz in post over equal 1 s spans
    pre = can_log([(t, STR, b"\x00\x00") for t in range(0, 1_000_001, 100_000)])
    post = can_log([(t, STR, b"\x00\x00") for t in range(0, 1_000_001, 500_000)])
    report = diff_captures(pre, post)
    (rate,) = report.rate_changes
    assert rate.can_id == STR
    assert rate.pre_hz == pytest.approx(11 / 1.0)
    assert rate.post_hz == pytest.approx(3 / 1.0)


def test_diff_rate_within_ratio_not_flagged() -> None:
    pre = can_log([(t, STR, b"\x00") for t in range(0, 1_000_001, 100_000)])
    post = can_log([(t, STR, b"\x00") for t in range(0, 1_000_001, 125_000)])
    assert diff_captures(pre, post).rate_changes == ()


def test_diff_empty_baseline_is_an_error() -> None:
    post = can_log([(0, JOY, b"\x01")])
    with pytest.raises(BaselineError):
        diff_captures(CaptureLog(), post)


def test_diff_json_shape() -> None:
    pre = can_log([(t, JOY, bytes((125,))) for t in range(0, 300, 100)])
    post = can_log([(t, JOY, bytes((v,))) for t, v in ((0, 1), (100, 2), (200, 3))])
    doc = diff_captures(pre, post).to_json_dict()
    assert doc["schema"] == "stave-diff/1"
    assert doc["flagged"][0]["can_id"] == "0x0CFF1028"
    assert doc["flagged"][0]["bytes"][0]["offset"] == 0


# Mutations


@pytest.mark.parametrize("text,data,expected", [
    ("byte0=reflect(250)", bytes((25, 7)), bytes((225, 7))),
    ("byte1=const(0x2A)", bytes((1, 2, 3)), bytes((1, 42, 3))),
    ("byte2=add(10)", bytes((0, 0, 250)), bytes((0, 0, 4))),  # wraps mod 256
    ("byte0=add(-1)", bytes((0,)), bytes((255,))),
])
def test_mutation_apply(text: str, data: bytes, expected: bytes) -> None:
    assert Mutation.parse(text).apply(data) == expected


def test_mutation_reflect_is_involutive() -> None:
    mutation = Mutation.parse("byte0=reflect(250)")
    rng = random.Random(12)
    for _ in range(500):
        data = bytes([rng.randint(0, 250)]) + rng.randbytes(7)
        assert mutation.apply(mutation.apply(data)) == data


def test_mutation_touches_only_its_byte() -> None:
    mutation = Mutation.parse("byte3=const(0)")
    data = bytes(range(8))
    mutated = mutation.apply(data)
    assert mutated[3] == 0
    assert mutated[:3] == data[:3] and mutated[4:] == data[4:]


@pytest.mark.parametrize("text", [
    "byte0=reflect", "byte=reflect(1)", "byte0=smash(1)", "byte0=const(0x)",
    "byte8=const(1)", "byte0=const(256)", "bytes0=add(1)", "",
])
def test_mutation_parse_rejects(text: str) -> None:
    with pytest.raises(ConfigurationError):
        Mutation.parse(text)


def test_mutation_reflect_range_guard() -> None:
    mutation = Mutation.parse("byte0=reflect(250)")
    with pytest.raises(ConfigurationError):
        mutation.apply(bytes((251,)))


def test_mutation_offset_beyond_payload() -> None:
    mutation = Mutation.parse("byte5=add(1)")
    with pytest.raises(ConfigurationError):
        mutation.apply(bytes((1, 2)))


# Replay planning


def test_plan_replay_preserve_keeps_gaps() -> None:
    log = can_log([
        (1_000, JOY, bytes((25,))),
        (1_050, STR, b"\x00\x00"),
        (51_000, JOY, bytes((30,))),
        (151_000, JOY, bytes((35,))),
    ])
    schedule = plan_replay(log, MessageMatch(pgn=0xFF10), Mutation.parse("byte0=reflect(250)"))
    assert [delay for delay, _ in schedule.entries] == [0, 50_000, 150_000]
    assert [f.data[0] for _, f in schedule.entries] == [225, 220, 215]
    assert schedule.span_us == 150_000


def test_plan_replay_fast_collapses_delays() -> None:
    log = can_log([(1_000, JOY, b"\x01"), (90_000, JOY, b"\x02")])
    schedule = plan_replay(log, MessageMatch(can_id=JOY), None, "fast")
    assert [delay for delay, _ in schedule.entries] == [0, 0]


def test_plan_replay_empty_match_warns(caplog) -> None:
    log = can_log([(0, STR, b"\x00\x00")])
    with caplog.at_level("WARNING"):
        schedule = plan_replay(log, MessageMatch(pgn=0xFF10), None)
    assert len(schedule) == 0
    assert any("matched no frames" in r.message for r in caplog.records)


def test_plan_replay_rejects_bad_timing() -> None:
    with pytest.raises(ConfigurationError):
        plan_replay(CaptureLog(), MessageMatch(pgn=1), None, "warp")


def test_message_match_needs_exactly_one_selector() -> None:
    with pytest.raises(ConfigurationError):
        MessageMatch()
    with pytest.raises(ConfigurationError):
        MessageMatch(can_id=1, pgn=1)
    # each selector within its range: 29-bit identifier, 18-bit pgn
    for fields in ({"can_id": -1}, {"can_id": 0x20000000}, {"can_id": True},
                   {"pgn": -5}, {"pgn": 0x40000}, {"pgn": 0xFF10 + 0.5}):
        with pytest.raises(ConfigurationError, match="outside"):
            MessageMatch(**fields)
    for fields in ({"can_id": 0}, {"can_id": 0x1FFFFFFF}, {"pgn": 0}, {"pgn": 0x3FFFF}):
        MessageMatch(**fields)


def test_match_by_pgn_spans_source_addresses() -> None:
    match = MessageMatch(pgn=0xFF10)
    assert match.matches(0x0CFF1028)
    assert match.matches(0x18FF10FE)  # other sender, same group
    assert not match.matches(0x18FF1130)
    # PDU1 (pf 0xEF < 240): the destination byte is not part of the pgn
    acknowledge = MessageMatch(pgn=0xEF00)
    assert acknowledge.matches(0x18EF4210)  # to 0x42 from 0x10
    assert acknowledge.matches(0x18EFFF27)  # to all from 0x27
    assert not MessageMatch(pgn=0xEF42).matches(0x18EF4210)


def test_replay_schedule_json_roundtrip() -> None:
    schedule = ReplaySchedule(entries=(
        (0, CanFrame(JOY, bytes((225, 125, 0)))),
        (50_000, CanFrame(JOY, bytes((226, 125, 0)))),
    ))
    doc = schedule.to_json_dict()
    assert doc["schema"] == "stave-replay/1"


# Injection


def test_wired_injector_submits_to_bus() -> None:
    clock = SimClock()
    bus = CanBus(clock, "vehicle0", BusConfig())
    got: list[CanFrame] = []
    bus.attach("sink", on_frame=got.append)
    injector = WiredInjector(bus)
    injector.send_frame(CanFrame(JOY, bytes((225,))))
    clock.run_until(10_000)
    assert [f.can_id for f in got] == [JOY]
    assert injector.stats.sent == 1
    assert injector.stats.delivered == 1


def _radio_rig(config: RadioConfig):
    clock = SimClock()
    bus = CanBus(clock, "vehicle0", BusConfig())
    medium = RadioMedium(clock, config, rng=random.Random(0))
    medium.create_endpoint(bus, "bridge")
    got: list[CanFrame] = []
    bus.attach("sink", on_frame=got.append)
    return clock, medium, got


def test_radio_injector_fixed_channel_under_hopping() -> None:
    config = RadioConfig(num_channels=16, hopping=True, hop_seed=3)
    clock, medium, got = _radio_rig(config)
    injector = RadioInjector(medium, ChannelStrategy(mode="fixed", channel=0))
    n = 800
    for _ in range(n):
        injector.send_frame(CanFrame(JOY, bytes((225,))))
    clock.run_until(10_000_000)
    # the endpoint only accepts when its hop sequence lands on channel 0
    expected = sum(1 for seq in range(n) if hop_channel(config, seq) == 0)
    assert injector.stats.sent == n
    assert injector.stats.delivered == expected
    assert len(got) == expected


def test_radio_injector_follow_hops_delivers_everything() -> None:
    config = RadioConfig(num_channels=16, hopping=True, hop_seed=3)
    clock, medium, got = _radio_rig(config)
    injector = RadioInjector(medium, ChannelStrategy(mode="follow_hops"))
    for _ in range(300):
        injector.send_frame(CanFrame(JOY, bytes((225,))))
    clock.run_until(10_000_000)
    assert injector.stats.delivered == 300
    assert len(got) == 300


def test_channel_strategy_validation() -> None:
    with pytest.raises(ConfigurationError):
        ChannelStrategy(mode="psychic")
    with pytest.raises(ConfigurationError):
        ChannelStrategy(channel=999)


class _RecordingInjector:
    def __init__(self, clock: SimClock):
        self.clock = clock
        self.sent_at: list[tuple[int, bytes]] = []

    def send_frame(self, frame: CanFrame) -> None:
        self.sent_at.append((self.clock.now_us, frame.data))


def test_schedule_injection_one_shot_times() -> None:
    clock = SimClock()
    injector = _RecordingInjector(clock)
    schedule = ReplaySchedule(entries=(
        (0, CanFrame(JOY, b"\x01")),
        (50_000, CanFrame(JOY, b"\x02")),
        (100_000, CanFrame(JOY, b"\x03")),
    ))
    schedule_injection(clock, injector, schedule, start_us=10_000)
    clock.run_until(1_000_000)
    assert [t for t, _ in injector.sent_at] == [10_000, 60_000, 110_000]


def test_schedule_injection_repeat_uses_mean_gap() -> None:
    clock = SimClock()
    injector = _RecordingInjector(clock)
    schedule = ReplaySchedule(entries=(
        (0, CanFrame(JOY, b"\x01")),
        (50_000, CanFrame(JOY, b"\x02")),
        (100_000, CanFrame(JOY, b"\x03")),
    ))
    # span 100 ms over 2 gaps: mean 50 ms, cycle 150 ms
    schedule_injection(clock, injector, schedule, start_us=0,
                       repeat=True, end_us=400_000)
    clock.run_until(1_000_000)
    assert [t for t, _ in injector.sent_at] == [
        0, 50_000, 100_000,
        150_000, 200_000, 250_000,
        300_000, 350_000, 400_000,
    ]


class _PeakClock(SimClock):
    """A clock that remembers the most events it ever held queued."""

    peak = 0

    def schedule(self, at_us, action):
        super().schedule(at_us, action)
        self.peak = max(self.peak, len(self._queue))


def repeat_sends(delays: list[int], start_us: int, end_us: int) -> list[tuple[int, int]]:
    """(instant, entry index) of every repeated send, cycle after cycle."""
    span = delays[-1] - delays[0]
    cycle = span + span // (len(delays) - 1)
    sends, start = [], start_us
    while True:
        for index, delay in enumerate(delays):
            if start + delay > end_us:
                break
            sends.append((start + delay, index))
        start += cycle
        if start > end_us:
            return sends


@st.composite
def _repeatable_delays(draw) -> list[int]:
    first = draw(st.integers(0, 50_000))
    span = draw(st.integers(10_000, 300_000))
    inner = draw(st.lists(st.integers(first, first + span), max_size=6))
    return [first, *sorted(inner), first + span]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_repeatable_delays(), st.integers(0, 1_000_000), st.integers(0, 3_000_000))
def test_repeat_injection_sends_at_closed_form_instants_from_a_short_queue(
        delays: list[int], start_us: int, end_us: int) -> None:
    clock = _PeakClock()
    injector = _RecordingInjector(clock)
    schedule = ReplaySchedule(entries=tuple((d, CanFrame(JOY, bytes([i]))) for i, d in enumerate(delays)))
    schedule_injection(clock, injector, schedule, start_us, repeat=True, end_us=end_us)
    clock.run_until(end_us + 1)
    assert [(t, data[0]) for t, data in injector.sent_at] == repeat_sends(delays, start_us, end_us)
    assert clock.peak <= 1


def test_repeat_sends_win_ties_with_events_queued_after_them() -> None:
    clock = SimClock()
    order = []

    class Injector:
        def send_frame(self, frame: CanFrame) -> None:
            order.append(("send", clock.now_us))

    def tick() -> None:
        order.append(("tick", clock.now_us))
        clock.schedule_in(100_000, tick)

    schedule = ReplaySchedule(entries=((0, CanFrame(JOY, b"\x01")), (50_000, CanFrame(JOY, b"\x02"))))
    schedule_injection(clock, Injector(), schedule, 0, repeat=True, end_us=300_000)
    clock.schedule(100_000, tick)
    clock.run_until(300_000)
    # every send counts as queued by schedule_injection, before any tick
    assert order == [("send", 0), ("send", 50_000),
                     ("send", 100_000), ("tick", 100_000), ("send", 150_000),
                     ("send", 200_000), ("tick", 200_000), ("send", 250_000),
                     ("send", 300_000), ("tick", 300_000)]


def test_replay_schedule_delays_must_not_decrease() -> None:
    frame = CanFrame(JOY, b"\x01")
    ReplaySchedule(entries=((0, frame), (0, frame), (5, frame)))
    for entries in (((10, frame), (5, frame)), ((-1, frame), (5, frame))):
        with pytest.raises(ConfigurationError):
            ReplaySchedule(entries=entries)


def test_schedule_injection_repeat_needs_span_and_end() -> None:
    clock = SimClock()
    injector = _RecordingInjector(clock)
    single = ReplaySchedule(entries=((0, CanFrame(JOY, b"\x01")),))
    with pytest.raises(ConfigurationError):
        schedule_injection(clock, injector, single, 0, repeat=True, end_us=100)
    pair = ReplaySchedule(entries=((0, CanFrame(JOY, b"\x01")),
                                   (10, CanFrame(JOY, b"\x02"))))
    with pytest.raises(ConfigurationError):
        schedule_injection(clock, injector, pair, 0, repeat=True)  # no end
