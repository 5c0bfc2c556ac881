"""Event clock and CAN segment behavior.

Transmission-time oracle: a frame occupies the wire for
(67 + 8 * dlc) bits at 250 kbit/s, so dlc 8 costs 524 us and dlc 0
costs 268 us. Arbitration oracle: brute-force minimum over the
pending identifiers.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stave import (
    ArbitrationCollisionError,
    BusConfig,
    CanBus,
    CanFrame,
    CaptureLog,
    ConfigurationError,
    NodeHandle,
    SimClock,
    SimulationError,
    TimeReversalError,
    arbitrate,
    seconds_from_us,
    us_from_seconds,
)


def test_time_conversions() -> None:
    assert us_from_seconds(0.050524) == 50524
    assert us_from_seconds(1.0) == 1_000_000
    assert seconds_from_us(50524) == pytest.approx(0.050524)


def test_clock_dispatches_in_time_order() -> None:
    clock = SimClock()
    seen: list[str] = []
    clock.schedule(300, lambda: seen.append("c"))
    clock.schedule(100, lambda: seen.append("a"))
    clock.schedule(200, lambda: seen.append("b"))
    clock.run_until(1_000)
    assert seen == ["a", "b", "c"]
    assert clock.now_us == 1_000


def test_clock_fifo_at_same_instant() -> None:
    clock = SimClock()
    seen: list[int] = []
    for i in range(5):
        clock.schedule(42, lambda i=i: seen.append(i))
    clock.run_until(42)
    assert seen == [0, 1, 2, 3, 4]


def test_clock_actions_may_schedule_more_work() -> None:
    clock = SimClock()
    seen: list[int] = []

    def chain(n: int) -> None:
        seen.append(n)
        if n < 3:
            clock.schedule(clock.now_us + 10, lambda: chain(n + 1))

    clock.schedule(0, lambda: chain(0))
    clock.run_until(100)
    assert seen == [0, 1, 2, 3]


def test_clock_rejects_past_and_finished() -> None:
    clock = SimClock()
    clock.run_until(500)
    with pytest.raises(TimeReversalError):
        clock.schedule(499, lambda: None)
    clock.schedule(500, lambda: None)  # "now" is still legal
    clock.finish()
    with pytest.raises(SimulationError):
        clock.schedule(600, lambda: None)


def _tie_order(clock: SimClock, queue_sends) -> list[str]:
    """Firing order of sends queued by queue_sends(clock, events) amid
    other events at the same instants, queued before, after and between."""
    order = []

    def note(name, then=None):
        def action():
            order.append(name)
            if then is not None:
                then()
        return action

    clock.schedule(100, note("before@100"))
    queue_sends(clock, [
        (50, note("s50", lambda: clock.schedule(200, note("by-s50@200")))),
        (100, note("s100a", lambda: clock.schedule(100, note("by-s100a@100")))),
        (100, note("s100b")),
        (200, note("s200")),
    ])
    clock.schedule(100, note("after@100"))
    clock.schedule(200, note("after@200"))
    clock.run_until(1_000)
    return order


def test_series_breaks_ties_as_if_queued_at_once() -> None:
    def queue_all(clock, events):
        for at_us, action in events:
            clock.schedule(at_us, action)

    assert _tie_order(SimClock(), lambda clock, events: clock.schedule_series(events)) == \
        _tie_order(SimClock(), queue_all)
    clock = SimClock()
    clock.schedule_series((t, lambda: None) for t in range(0, 100_000, 10))
    assert len(clock._queue) == 1


def test_a_series_event_reports_its_action_s_module() -> None:
    # tools that attribute events by module (perfbench/tracer.py) read __module__
    clock = SimClock()
    queued = []
    schedule = clock.schedule
    clock.schedule = lambda at_us, action: (queued.append(action), schedule(at_us, action))
    untagged = itertools.count().__next__  # a callable without a __module__
    clock.schedule_series([(0, lambda: None), (1, CaptureLog().__len__), (2, untagged)])
    clock.run_until(10)
    assert [action.__module__ for action in queued] == [__name__, "stave.capture", "stave.sim"]


def test_run_until_does_not_go_backwards() -> None:
    clock = SimClock()
    clock.run_until(100)
    with pytest.raises(TimeReversalError):
        clock.run_until(50)


def test_frame_time_oracle() -> None:
    config = BusConfig()
    assert config.frame_time_us(8) == 524
    assert config.frame_time_us(0) == 268
    assert config.frame_time_us(3) == (67 + 24) * 1_000_000 // 250_000


def test_bus_config_validation() -> None:
    with pytest.raises(ConfigurationError):
        BusConfig(bitrate=0)
    with pytest.raises(ConfigurationError):
        BusConfig(frame_overhead_bits=0)


def test_arbitrate_matches_bruteforce_minimum() -> None:
    rng = random.Random(4)
    for _ in range(2_000):
        count = rng.randint(1, 24)
        ids = rng.sample(range(1 << 29), count)
        pending = [
            (NodeHandle(node_id=i, name=f"n{i}"), CanFrame(can_id, b""))
            for i, can_id in enumerate(ids)
        ]
        rng.shuffle(pending)
        _, winner = arbitrate(pending)
        assert winner.can_id == min(ids)


def test_arbitrate_same_id_from_two_nodes_collides() -> None:
    a = NodeHandle(node_id=0, name="a")
    b = NodeHandle(node_id=1, name="b")
    with pytest.raises(ArbitrationCollisionError):
        arbitrate([(a, CanFrame(0x100, b"")), (b, CanFrame(0x100, b""))])


def test_arbitrate_same_node_same_id_is_fine() -> None:
    # one node retrying its own identifier is not a collision
    a = NodeHandle(node_id=0, name="a")
    _, winner = arbitrate([(a, CanFrame(0x100, b"")), (a, CanFrame(0x100, b"\x01"))])
    assert winner.can_id == 0x100


def test_arbitrate_empty_is_an_error() -> None:
    with pytest.raises(ValueError):
        arbitrate([])


def _sorted_arbitrate(pending):
    """The rule arbitrate keeps: a stable sort by identifier, the first entry
    wins, and the second collides with it when it shares the identifier
    from another node."""
    entries = sorted(pending, key=lambda e: e[1].can_id)
    if not entries:
        raise ValueError("arbitrate() needs at least one pending frame")
    (winner, frame), rest = entries[0], entries[1:]
    if rest and rest[0][1].can_id == frame.can_id and rest[0][0].node_id != winner.node_id:
        raise ArbitrationCollisionError(
            f"nodes {winner.name!r} and {rest[0][0].name!r} both transmitting id 0x{frame.can_id:08X}"
        )
    return winner, frame


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0x100, 0x101, 0x102, 0x0CFF1028])), max_size=8))
def test_arbitrate_agrees_with_the_sorted_rule(contenders) -> None:
    """(node, id) contenders with duplicate ids, repeated nodes and same-id
    pairs from distinct nodes: the same winner, or the same error message."""
    handles = [NodeHandle(node_id=i, name=f"n{i}") for i in range(4)]
    # a distinct frame per entry, so the winner is told apart by identity
    pending = [(handles[node], CanFrame(can_id, bytes([i]))) for i, (node, can_id) in enumerate(contenders)]

    def outcome(rule):
        try:
            return rule(iter(pending))
        except (ValueError, ArbitrationCollisionError) as exc:
            return type(exc), str(exc)

    got, want = outcome(arbitrate), outcome(_sorted_arbitrate)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert got[0] is want[0] and got[1] is want[1]


def _bus() -> tuple[SimClock, CanBus]:
    clock = SimClock()
    return clock, CanBus(clock, "can0")


def test_delivery_excludes_sender_and_stamps_time() -> None:
    clock, bus = _bus()
    got_a: list[CanFrame] = []
    got_b: list[CanFrame] = []
    a = bus.attach("a", on_frame=got_a.append)
    bus.attach("b", on_frame=got_b.append)
    bus.submit(a, CanFrame(0x123, b"\x01" * 8))
    clock.run_until(10_000)
    assert got_a == []
    assert len(got_b) == 1
    assert got_b[0].timestamp_us == 524


def test_node_attached_mid_run_hears_later_frames_in_attach_order() -> None:
    clock, bus = _bus()
    got: list[tuple[str, int]] = []

    def listener(name: str):
        return lambda frame: got.append((name, frame.can_id))

    a = bus.attach("a", on_frame=listener("a"))
    b = bus.attach("b", on_frame=listener("b"))
    bus.submit(a, CanFrame(0x100, b""))
    clock.run_until(1_000)
    assert got == [("b", 0x100)]
    got.clear()
    c = bus.attach("c", on_frame=listener("c"))
    d = bus.attach("d")  # sends only
    for t_end, sender, can_id in ((2_000, a, 0x101), (3_000, b, 0x102), (4_000, c, 0x103), (5_000, d, 0x104)):
        bus.submit(sender, CanFrame(can_id, b""))
        clock.run_until(t_end)
    assert got == [
        ("b", 0x101), ("c", 0x101),
        ("a", 0x102), ("c", 0x102),
        ("a", 0x103), ("b", 0x103),
        ("a", 0x104), ("b", 0x104), ("c", 0x104),
    ]


def test_lower_id_wins_then_loser_follows() -> None:
    clock, bus = _bus()
    got: list[CanFrame] = []
    a = bus.attach("a")
    b = bus.attach("b")
    bus.attach("watch", on_frame=got.append)
    bus.submit(a, CanFrame(0x200, b"\xaa" * 8))
    bus.submit(b, CanFrame(0x100, b"\xbb" * 8))
    clock.run_until(10_000)
    assert [f.can_id for f in got] == [0x100, 0x200]
    assert [f.timestamp_us for f in got] == [524, 1048]


def test_per_node_queue_is_fifo_even_with_lower_id_waiting() -> None:
    clock, bus = _bus()
    got: list[int] = []
    a = bus.attach("a")
    bus.attach("watch", on_frame=lambda f: got.append(f.can_id))
    bus.submit(a, CanFrame(0x300, b""))
    bus.submit(a, CanFrame(0x100, b""))  # queued behind 0x300 on the same node
    clock.run_until(10_000)
    assert got == [0x300, 0x100]


def test_same_id_contention_raises_collision() -> None:
    clock, bus = _bus()
    a = bus.attach("a")
    b = bus.attach("b")
    bus.submit(a, CanFrame(0x100, b""))
    bus.submit(b, CanFrame(0x100, b""))
    with pytest.raises(ArbitrationCollisionError):
        clock.run_until(10_000)


class _CountingClock(SimClock):
    def __init__(self):
        super().__init__()
        self.scheduled = 0

    def schedule(self, at_us, action):
        self.scheduled += 1
        super().schedule(at_us, action)


def test_backlog_arbitrates_inline_when_nothing_else_is_due() -> None:
    clock = _CountingClock()
    bus = CanBus(clock, "can0")
    got: list[tuple[int, int]] = []
    a = bus.attach("a")
    bus.attach("watch", on_frame=lambda f: got.append((f.can_id, f.timestamp_us)))
    for i in range(10):
        bus.submit(a, CanFrame(0x100 + i, b""))
    clock.run_until(10_000)
    assert got == [(0x100 + i, 268 * (i + 1)) for i in range(10)]
    # one kick from the first submit and one completion per frame; the
    # next arbitration runs inside each completion
    assert clock.scheduled == 11


def test_kick_stays_an_event_when_another_is_due_at_completion() -> None:
    clock, bus = _bus()
    got: list[tuple[int, int]] = []
    a = bus.attach("a")
    b = bus.attach("b")
    bus.attach("watch", on_frame=lambda f: got.append((f.can_id, f.timestamp_us)))
    bus.submit(a, CanFrame(0x300, b""))  # on the wire 0..268
    bus.submit(a, CanFrame(0x301, b""))
    # queued after the first frame's completion, at its instant: the
    # completion fires first and must leave the next arbitration to a kick
    # that fires after this submit
    clock.schedule(0, lambda: clock.schedule(268, lambda: bus.submit(b, CanFrame(0x100, b""))))
    clock.run_until(10_000)
    assert got == [(0x300, 268), (0x100, 536), (0x301, 804)]


def test_bus_load_single_frame() -> None:
    clock, bus = _bus()
    a = bus.attach("a")
    bus.submit(a, CanFrame(0x123, b"\x00" * 8))
    clock.run_until(1_000_000)
    stats = bus.stats
    assert stats.frames_delivered == 1
    assert stats.bus_load == pytest.approx(524 / 1_000_000)


def test_bus_load_is_zero_before_the_clock_moves() -> None:
    clock, bus = _bus()
    assert (bus.stats.frames_delivered, bus.stats.bus_load) == (0, 0.0)


def test_bus_load_saturates_under_backlog() -> None:
    clock, bus = _bus()
    a = bus.attach("a")
    for i in range(200):
        bus.submit(a, CanFrame(0x100 + i, b"\x00" * 8))
    clock.run_until(52_400)  # exactly 100 frames worth of wire time
    stats = bus.stats
    assert stats.frames_delivered == 100
    assert stats.bus_load == pytest.approx(1.0)


def test_submit_checks_handle_and_frame() -> None:
    clock, bus = _bus()
    other_clock = SimClock()
    other = CanBus(other_clock, "can1")
    foreign = other.attach("x")
    a = bus.attach("a")
    with pytest.raises(ConfigurationError):
        bus.submit(NodeHandle(node_id=99, name="ghost"), CanFrame(0x1, b""))
    with pytest.raises(ConfigurationError):
        bus.submit(a, b"raw bytes")
    with pytest.raises(ConfigurationError):
        bus.submit(foreign, CanFrame(0x1, b""))
    # equal in node_id and name to `a`, but issued by another bus
    twin = CanBus(SimClock(), "can2").attach("a")
    with pytest.raises(ConfigurationError):
        bus.submit(twin, CanFrame(0x1, b""))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3_000), st.integers(0, 8)), max_size=24))
def test_bus_matches_reference_model(sends) -> None:
    """(node, submit instant, dlc) sends with distinct ids 0x100 + i, against
    a reference model: the next frame starts at the later of the bus going
    idle and the earliest unsent submit, the lowest id among the node-queue
    heads submitted by then wins, and it arrives one frame time later."""
    frames = sorted(
        ((at_us, node, CanFrame(0x100 + i, bytes(dlc))) for i, (node, at_us, dlc) in enumerate(sends)),
        key=lambda send: send[0],
    )
    clock, bus = _bus()
    handles = [bus.attach(f"n{node}") for node in range(4)]
    got: list[tuple[int, int]] = []
    bus.attach("watch", on_frame=lambda f: got.append((f.can_id, f.timestamp_us)))
    for at_us, node, frame in frames:
        clock.schedule(at_us, lambda node=node, frame=frame: bus.submit(handles[node], frame))
    clock.run_until(100_000)

    queues = [[(at_us, frame) for at_us, n, frame in frames if n == node] for node in range(4)]
    expected = []
    idle_us = 0
    while any(queues):
        start_us = max(idle_us, min(queue[0][0] for queue in queues if queue))
        winner = min(
            (queue for queue in queues if queue and queue[0][0] <= start_us),
            key=lambda queue: queue[0][1].can_id,
        )
        _, frame = winner.pop(0)
        idle_us = start_us + bus.config.frame_time_us(frame.dlc)
        expected.append((frame.can_id, idle_us))
    assert got == expected


def test_attach_names_unique_per_bus() -> None:
    clock, bus = _bus()
    bus.attach("a")
    with pytest.raises(ConfigurationError):
        bus.attach("a")


def test_no_traffic_after_finish() -> None:
    clock, bus = _bus()
    a = bus.attach("a")
    clock.finish()
    with pytest.raises(SimulationError):
        bus.submit(a, CanFrame(0x1, b""))
    with pytest.raises(SimulationError):
        bus.attach("late")
