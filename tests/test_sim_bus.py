"""Event clock and CAN segment behavior.

Transmission-time oracle: a frame occupies the wire for
(67 + 8 * dlc) bits at 250 kbit/s, so dlc 8 costs 524 us and dlc 0
costs 268 us. Arbitration oracle: brute-force minimum over the
pending identifiers.
"""

import random

import pytest

from stave import (
    ArbitrationCollisionError,
    BusConfig,
    CanBus,
    CanFrame,
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
            clock.schedule_in(10, lambda: chain(n + 1))

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


def test_bus_load_single_frame() -> None:
    clock, bus = _bus()
    a = bus.attach("a")
    bus.submit(a, CanFrame(0x123, b"\x00" * 8))
    stats = bus.run_until(1.0)
    assert stats.frames_delivered == 1
    assert stats.bus_load == pytest.approx(524 / 1_000_000)


def test_bus_load_saturates_under_backlog() -> None:
    clock, bus = _bus()
    a = bus.attach("a")
    for i in range(200):
        bus.submit(a, CanFrame(0x100 + i, b"\x00" * 8))
    stats = bus.run_until(0.0524)  # exactly 100 frames worth of wire time
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
    del foreign


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
