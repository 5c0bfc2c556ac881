"""Deterministic discrete-event clock.

All times are integer microseconds. Events fire in (time, insertion
order): ties are FIFO, so a run is reproducible from its inputs alone.
"""

from __future__ import annotations

import heapq
from functools import wraps
from itertools import count
from typing import Callable, Iterable

from .errors import SimulationError, TimeReversalError

US_PER_SECOND = 1_000_000


def us_from_seconds(seconds: float) -> int:
    """Convert seconds to integer microseconds (nearest)."""
    return round(seconds * US_PER_SECOND)


def seconds_from_us(us: int) -> float:
    return us / US_PER_SECOND


class SimClock:
    """Event queue with a monotone virtual clock."""

    def __init__(self):
        self._now_us = 0
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = count()
        self._series_seq: int | None = None  # set while schedule_series queues an event
        self._finished = False

    @property
    def now_us(self) -> int:
        return self._now_us

    @property
    def finished(self) -> bool:
        return self._finished

    def finish(self) -> None:
        """Mark the simulation as ended; further submits are rejected."""
        self._finished = True

    def schedule(self, at_us: int, action: Callable[[], None]) -> None:
        if self._finished:
            raise SimulationError("simulation has ended; cannot schedule events")
        if at_us < self._now_us:
            raise TimeReversalError(f"cannot schedule at {at_us} us; now is {self._now_us} us")
        seq = next(self._seq) if self._series_seq is None else self._series_seq
        heapq.heappush(self._queue, (at_us, seq, action))

    def schedule_series(self, events: Iterable[tuple[int, Callable[[], None]]]) -> None:
        """Queue (time, action) events given in time order, one at a time.

        Each event is scheduled when the one before it fires, so a long
        series keeps one event pending. Ties break as if the whole series
        had been scheduled by this call: at an equal time its events fire
        after those already queued and before those queued later.
        """
        seq = next(self._seq)
        events = iter(events)

        def queue_next() -> None:
            for at_us, action in events:
                # wraps: tools that attribute events by their action's module
                # (perfbench/tracer.py) see the action's module, not this one
                @wraps(action)
                def fire(action=action):
                    action()
                    queue_next()

                self._series_seq = seq
                try:
                    self.schedule(at_us, fire)
                finally:
                    self._series_seq = None
                return

        queue_next()

    def schedule_in(self, delay_us: int, action: Callable[[], None]) -> None:
        self.schedule(self._now_us + delay_us, action)

    def run_until(self, t_end_us: int) -> None:
        """Dispatch every event with time <= t_end_us, then advance now.

        Raises TimeReversalError when asked to run into the past. Events
        an action schedules during the run are dispatched too if they
        fall inside the window.
        """
        if t_end_us < self._now_us:
            raise TimeReversalError(f"run_until({t_end_us}) is before now ({self._now_us})")
        queue = self._queue
        while queue and queue[0][0] <= t_end_us:
            at_us, _, action = heapq.heappop(queue)
            self._now_us = at_us
            action()
        self._now_us = t_end_us
