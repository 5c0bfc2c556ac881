"""Outside-in tracing of stave's layers for the per-layer metrics.

The tracer patches stave's public entry points where the package looks
them up (module globals, class attributes), so no file under src/
changes and nothing is patched once `uninstall` has run. Every clock
event's action is wrapped when it is scheduled and attributed to the
module that defined it (`bus.event`, `fleet.event`, ...).

A span is a name, a start, an end and its parent. Self time is a span's
duration minus the time its child spans cover; it is computed as each
span closes, and every span is checked on the way: start <= end, and
its children's time does not exceed its own duration. The spans of the
first traced session are kept in memory and written out when the
benchmark ends; later sessions only add to the per-name totals.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import wraps

from stave import attack, bus, capture, cli, fleet, j1939, radio, runner, scenario, sim

clock_ns = time.perf_counter_ns


def _layer(fn) -> str:
    module = getattr(fn, "__module__", None) or "unknown"
    return module.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, name id, start, child ns]
        self.keep_spans = False
        self.spans: list[tuple[int, int, int, int, int]] = []  # (index, name id, parent, start, end)
        self._next_index = 0
        self.violations = 0
        self.span_count = 0
        self._patches: list[tuple[object, str, object]] = []
        self.reset_totals()

    def reset_totals(self) -> None:
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.work: Counter = Counter()  # input items handed to a span, where counted
        self.nested_calls: Counter = Counter()  # (parent id, name id) -> calls
        self.nested_ns: Counter = Counter()  # (parent id, name id) -> inclusive ns
        self.scheduled = 0
        self.dispatched = 0
        self.peak_pending = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> None:
        self._stack.append([self._next_index, nid, clock_ns(), 0])
        self._next_index += 1

    def close(self) -> None:
        end = clock_ns()
        index, nid, start, child_ns = self._stack.pop()
        duration = end - start
        if duration < 0 or child_ns > duration:
            self.violations += 1
        self.span_count += 1
        self.self_ns[nid] += duration - child_ns
        self.total_ns[nid] += duration
        self.calls[nid] += 1
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[3] += duration
            parent = top[0]
            self.nested_calls[(top[1], nid)] += 1
            self.nested_ns[(top[1], nid)] += duration
        if self.keep_spans:
            self.spans.append((index, nid, parent, start, end))

    def wrap(self, name: str, fn, work=None):
        """fn traced as a span; work(*args) counts the items it was handed."""
        nid = self.name_id(name)
        open_, close, tally = self.open, self.close, self.work

        @wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                tally[nid] += work(*args)
            open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return traced

    # -- patching -----------------------------------------------------

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        """Replace owner.attr with a traced version, keeping descriptors."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, work))
        else:
            replacement = self.wrap(name, original, work)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _replace(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        tracer = self
        schedule = sim.SimClock.schedule
        event_ids: dict[str, int] = {}

        def traced_schedule(clock, at_us, action):
            layer = _layer(action)
            nid = event_ids.get(layer)
            if nid is None:
                nid = event_ids[layer] = tracer.name_id(f"{layer}.event")
            tracer.scheduled += 1
            pending = tracer.scheduled - tracer.dispatched
            if pending > tracer.peak_pending:
                tracer.peak_pending = pending

            def event():
                tracer.dispatched += 1
                tracer.open(nid)
                try:
                    action()
                finally:
                    tracer.close()

            schedule(clock, at_us, event)

        attach = bus.CanBus.attach

        def traced_attach(self_bus, name, on_frame=None):
            if on_frame is not None:
                on_frame = tracer.wrap(f"{_layer(on_frame)}.on_frame", on_frame)
            return attach(self_bus, name, on_frame)

        self._replace(sim.SimClock, "schedule", traced_schedule)
        self._replace(bus.CanBus, "attach", traced_attach)
        self.patch(sim.SimClock, "run_until", "sim.run_until")
        self.patch(bus.CanBus, "submit", "bus.submit")
        self.patch(radio.RadioMedium, "transmit", "radio.transmit")
        self.patch(radio, "crc16_ccitt_false", "radio.crc")
        self.patch(radio, "decapsulate", "radio.decapsulate")
        self.patch(attack, "decapsulate", "radio.decapsulate")
        self.patch(j1939.CanFrame, "__init__", "j1939.frame")
        self.patch(j1939.CanFrame, "at", "j1939.frame_at")
        self.patch(fleet, "decode_id", "j1939.decode_id")
        self.patch(attack, "decode_id", "j1939.decode_id")
        self.patch(capture.CaptureRecord, "__init__", "capture.record")
        self.patch(capture.CaptureLog, "append", "capture.append")
        self.patch(capture, "serialize_record", "capture.serialize")
        self.patch(capture, "parse_record", "capture.parse")
        self.patch(capture.CaptureLog, "load", "capture.load")
        self.patch(scenario, "validate_scenario", "scenario.validate")
        self.patch(scenario, "load_scenario", "scenario.load")
        self.patch(runner, "run_scenario", "runner.run")
        self.patch(runner, "build_testbed", "runner.build")
        self.patch(runner, "write_outputs", "runner.write")
        self.patch(runner, "schedule_injection", "attack.inject_schedule")
        for module in (runner, cli):
            self.patch(module, "diff_captures", "attack.diff",
                       work=lambda pre, post: len(pre) + len(post))
            self.patch(module, "channel_occupancy", "attack.occupancy")
            self.patch(module, "plan_replay", "attack.plan", work=lambda log, *rest: len(log))
        self.patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading totals -----------------------------------------------

    def stat(self, name: str) -> tuple[int, int, int, int]:
        """(calls, self ns, inclusive ns, work items) for a span name."""
        nid = self._ids.get(name, -1)
        return self.calls[nid], self.self_ns[nid], self.total_ns[nid], self.work[nid]

    def nested(self, parent: str, name: str) -> tuple[int, int]:
        """(calls, inclusive ns) of name spans opened directly inside parent spans."""
        key = (self._ids.get(parent, -1), self._ids.get(name, -1))
        return self.nested_calls[key], self.nested_ns[key]

    def span_rows(self):
        """The kept spans as dicts, times relative to the first span."""
        base = min((s[3] for s in self.spans), default=0)
        for index, nid, parent, start, end in sorted(self.spans):
            yield {"id": index, "parent": parent, "name": self.names[nid],
                   "start_ns": start - base, "end_ns": end - base}
