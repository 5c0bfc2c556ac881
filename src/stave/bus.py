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

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import (
    ArbitrationCollisionError,
    ConfigurationError,
    SimulationError,
)
from .j1939 import CanFrame
from .sim import US_PER_SECOND, SimClock, us_from_seconds


@dataclass(frozen=True)
class BusConfig:
    bitrate: int = 250_000
    frame_overhead_bits: int = 67

    def __post_init__(self):
        if not isinstance(self.bitrate, int) or self.bitrate <= 0:
            raise ConfigurationError(f"bitrate {self.bitrate!r} must be a positive int")
        if not isinstance(self.frame_overhead_bits, int) or self.frame_overhead_bits <= 0:
            raise ConfigurationError(
                f"frame_overhead_bits {self.frame_overhead_bits!r} must be a positive int"
            )

    def frame_time_us(self, dlc: int) -> int:
        bits = self.frame_overhead_bits + 8 * dlc
        return bits * US_PER_SECOND // self.bitrate


@dataclass(frozen=True)
class NodeHandle:
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
    entries = list(pending)
    if not entries:
        raise ValueError("arbitrate() needs at least one pending frame")
    entries.sort(key=lambda e: e[1].can_id)
    winner_handle, winner_frame = entries[0]
    if len(entries) > 1:
        runner_handle, runner_frame = entries[1]
        if runner_frame.can_id == winner_frame.can_id and runner_handle.node_id != winner_handle.node_id:
            raise ArbitrationCollisionError(
                f"nodes {winner_handle.name!r} and {runner_handle.name!r} "
                f"both transmitting id 0x{winner_frame.can_id:08X}"
            )
    return winner_handle, winner_frame


class CanBus:
    """A single CAN segment driven by a shared SimClock."""

    def __init__(self, clock: SimClock, name: str = "can0", config: BusConfig | None = None):
        self.clock = clock
        self.name = name
        self.config = config or BusConfig()
        self._nodes: dict[int, NodeHandle] = {}
        # (node_id, on_frame) of every node that listens, in attach order
        self._listeners: list[tuple[int, Callable[[CanFrame], None]]] = []
        self._names: set[str] = set()
        self._queues: dict[int, deque[CanFrame]] = {}
        self._waiting = 0  # frames in all queues together
        self._busy = False
        self._kick_scheduled = False
        self._frames_delivered = 0
        self._busy_us = 0

    def attach(self, name: str, on_frame: Callable[[CanFrame], None] | None = None) -> NodeHandle:
        """Join the segment. Node names must be unique per bus."""
        if self.clock.finished:
            raise SimulationError("simulation has ended; cannot attach nodes")
        if name in self._names:
            raise ConfigurationError(f"node name {name!r} already attached to {self.name}")
        handle = NodeHandle(node_id=len(self._nodes), name=name)
        self._nodes[handle.node_id] = handle
        if on_frame is not None:
            self._listeners.append((handle.node_id, on_frame))
        self._names.add(name)
        self._queues[handle.node_id] = deque()
        return handle

    def submit(self, handle: NodeHandle, frame: CanFrame) -> None:
        """Queue a frame for transmission from the given node (FIFO per node)."""
        if self.clock.finished:
            raise SimulationError("simulation has ended; frame rejected")
        if self._nodes.get(handle.node_id) != handle:
            raise ConfigurationError(f"unknown node handle {handle!r} on bus {self.name}")
        if not isinstance(frame, CanFrame):
            raise ConfigurationError(f"submit() wants a CanFrame, got {type(frame).__name__}")
        self._queues[handle.node_id].append(frame)
        self._waiting += 1
        if not self._busy and not self._kick_scheduled:
            self._kick_scheduled = True
            self.clock.schedule(self.clock.now_us, self._kick)

    def _pending(self) -> list[tuple[NodeHandle, CanFrame]]:
        return [
            (self._nodes[node_id], queue[0])
            for node_id, queue in self._queues.items()
            if queue
        ]

    def _kick(self) -> None:
        self._kick_scheduled = False
        if self._busy:
            return
        pending = self._pending()
        if not pending:
            return
        winner, frame = arbitrate(pending)
        self._queues[winner.node_id].popleft()
        self._waiting -= 1
        self._busy = True
        duration = self.config.frame_time_us(frame.dlc)
        self.clock.schedule(
            self.clock.now_us + duration,
            lambda: self._complete(winner, frame, duration),
        )

    def _complete(self, sender: NodeHandle, frame: CanFrame, duration: int) -> None:
        self._busy = False
        self._busy_us += duration
        self._frames_delivered += 1
        delivered = frame.at(self.clock.now_us)
        for node_id, callback in self._listeners:
            if node_id != sender.node_id:
                callback(delivered)
        if not self._kick_scheduled and self._waiting:
            self._kick_scheduled = True
            self.clock.schedule(self.clock.now_us, self._kick)

    @property
    def stats(self) -> BusStats:
        elapsed = self.clock.now_us
        load = self._busy_us / elapsed if elapsed > 0 else 0.0
        return BusStats(frames_delivered=self._frames_delivered, bus_load=load)

    def run_until(self, t_end_s: float) -> BusStats:
        """Advance the shared clock to t_end_s and report this bus's stats."""
        self.clock.run_until(us_from_seconds(t_end_s))
        return self.stats
