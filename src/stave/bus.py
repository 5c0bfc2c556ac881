"""Virtual CAN segment: arbitration, transmission timing, delivery.

One frame occupies the bus at a time. When the bus goes idle and
several nodes hold pending frames, the numerically lowest identifier
wins arbitration (dominant-bit semantics). Delivery happens one frame
time after transmission starts:

    frame_time = (frame_overhead_bits + 8 * dlc) / bitrate

and every attached node except the transmitter gets the frame with the
delivery time as its timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .capture import CapturePoint
from .errors import (
    ArbitrationCollisionError,
    ConfigurationError,
    SimulationError,
    check_int,
    shown,
)
from .j1939 import MAX_DLC, CanFrame, _valid_frame
from .sim import US_PER_SECOND, SimClock

# each BusConfig field with its range (inclusive; None is unbounded)
BUS_FIELDS = {"bitrate": (1, None), "frame_overhead_bits": (1, None)}


@dataclass(frozen=True)
class BusConfig:
    bitrate: int = 250_000
    frame_overhead_bits: int = 67

    def __post_init__(self):
        for key, (lo, hi) in BUS_FIELDS.items():
            check_int(ConfigurationError, key, getattr(self, key), lo, hi)

    def frame_time_us(self, dlc: int) -> int:
        bits = self.frame_overhead_bits + 8 * dlc
        return bits * US_PER_SECOND // self.bitrate


@dataclass(frozen=True, eq=False)
class NodeHandle:
    """A node's token on the bus that issued it; equal only to itself."""

    node_id: int
    name: str


@dataclass(frozen=True)
class BusStats:
    frames_delivered: int
    bus_load: float


def arbitrate(pending: Iterable[tuple[NodeHandle, CanFrame]]) -> tuple[NodeHandle, CanFrame]:
    """Pick the arbitration winner from (node, frame) contenders.

    Lowest identifier wins. Two *distinct* nodes presenting the same
    identifier is a fault: on real hardware both would see themselves
    win and collide with an error frame.
    """
    # one pass: the first contender with the lowest identifier wins, and
    # the second one with that identifier, if any, is the one it may collide with
    winner = runner = None
    for entry in pending:
        can_id = entry[1].can_id
        if winner is None or can_id < winner_id:
            winner, winner_id, runner = entry, can_id, None
        elif can_id == winner_id and runner is None:
            runner = entry
    if winner is None:
        raise ValueError("arbitrate() needs at least one pending frame")
    if runner is not None and runner[0].node_id != winner[0].node_id:
        raise ArbitrationCollisionError(
            f"nodes {shown(winner[0].name)} and {shown(runner[0].name)} both transmitting id 0x{winner_id:08X}"
        )
    return winner


class CanBus:
    """A single CAN segment driven by a shared SimClock."""

    def __init__(self, clock: SimClock, name: str = "can0", config: BusConfig | None = None):
        self.clock = clock
        self.name = name
        self.config = config or BusConfig()
        self._queues: dict[NodeHandle, list[CanFrame]] = {}  # in node_id order, each head first
        # on_frame of every node that listens, in attach order
        self._listeners: list[Callable[[CanFrame], None]] = []
        # by sender node_id: the on_frame of every other listener, in attach order
        self._fanout: list[tuple[Callable[[CanFrame], None], ...]] = []
        self._waiting = 0  # frames in all queues together
        self._claimed = False  # an arbitration is queued or a frame is on the wire
        self._on_wire: tuple[NodeHandle, CanFrame, int] | None = None  # (sender, frame, frame time)
        self._frame_us = [self.config.frame_time_us(dlc) for dlc in range(MAX_DLC + 1)]  # by dlc
        # counts every delivered frame; keeps the ones a caller asks it to
        self.capture = CapturePoint(name)
        self._busy_us = 0

    def attach(self, name: str, on_frame: Callable[[CanFrame], None] | None = None) -> NodeHandle:
        """Join the segment. Node names must be unique per bus."""
        if self.clock.finished:
            raise SimulationError("simulation has ended; cannot attach nodes")
        if any(handle.name == name for handle in self._queues):
            raise ConfigurationError(f"node name {shown(name)} already attached to {self.name}")
        handle = NodeHandle(node_id=len(self._queues), name=name)
        self._queues[handle] = []
        # the new node's frames reach every earlier listener; if it listens,
        # every earlier node's frames reach it
        self._fanout.append(tuple(self._listeners))
        if on_frame is not None:
            self._listeners.append(on_frame)
            for node_id in range(handle.node_id):
                self._fanout[node_id] += (on_frame,)
        return handle

    def submit(self, handle: NodeHandle, frame: CanFrame) -> None:
        """Queue a frame for transmission from the given node (FIFO per node)."""
        if self.clock.finished:
            raise SimulationError("simulation has ended; frame rejected")
        queue = self._queues.get(handle)
        if queue is None:
            raise ConfigurationError(f"unknown node handle {shown(handle)} on bus {self.name}")
        if not isinstance(frame, CanFrame):
            raise ConfigurationError(f"submit() wants a CanFrame, got {type(frame).__name__}")
        queue.append(frame)
        self._waiting += 1
        if not self._claimed:
            self._claimed = True
            self.clock.schedule(self.clock.now_us, self._kick)

    def _kick(self) -> None:
        winner, frame = arbitrate([(handle, queue[0]) for handle, queue in self._queues.items() if queue])
        del self._queues[winner][0]
        self._waiting -= 1
        frame_us = self._frame_us[len(frame.data)]
        self._on_wire = winner, frame, frame_us
        self.clock.schedule(self.clock.now_us + frame_us, self._complete)

    def _complete(self) -> None:
        sender, frame, frame_us = self._on_wire
        now = self.clock.now_us
        self._claimed = False
        self._busy_us += frame_us
        self.capture.observe(now, frame.can_id, frame.data)
        # the frame passed submit's checks and now is never negative
        delivered = _valid_frame(frame.can_id, frame.data, now)
        for callback in self._fanout[sender.node_id]:
            callback(delivered)
        if not self._claimed and self._waiting:
            self._claimed = True
            # A queued kick would fire after every event already due now and
            # before any other; with none due it is the next event, so
            # arbitrating here gives the same order without the event.
            if self.clock.due(now):
                self.clock.schedule(now, self._kick)
            else:
                self._kick()

    @property
    def stats(self) -> BusStats:
        elapsed = self.clock.now_us
        load = self._busy_us / elapsed if elapsed > 0 else 0.0
        return BusStats(frames_delivered=self.capture.seen, bus_load=load)
