"""The simulated vehicle: ECU nodes, message catalog, steering model.

Seven nodes across two bridged segments. The operator segment carries
the joystick and the display; the vehicle segment carries the implement
(LED) controller, the hydraulics controller, the engine controller, the
power controller, and the steering controller.

Default message catalog:

    name  pgn     src   prio  cycle    payload
    JOY1  0xFF10  0x28  3     50 ms    b0 = X (0..250, center 125),
                                       b1 = Y, b2 bit0 = button, b3..b7 = 0xFF
    PWR1  0xFF11  0x30  6     1000 ms  b0..b1 = machine voltage (0.05 V/bit LE),
                                       b2 bit0 = steer_enable
    STR1  0xFF12  0x13  6     100 ms   b0..b1 = wheel angle (signed 16 LE, 0.01 deg/bit)
    LED1  0xFF13  0x80  6     500 ms   b0 = 8-LED bitmask (also sent on change)
    HYD1  0xFF14  0x21  6     100 ms   b0 = pump command (0.4 %/bit)
    EEC1  0xF004  0x00  3     100 ms   b3..b4 = engine speed (0.125 rpm/bit LE)
    DSP1  0xFF15  0x27  6     demand   b0 = operator LED command bitmask

Periodic broadcasts start at t = cycle, not t = 0, so the fleet does
not burst at power-on. Steering behavior: target angle is
(x_raw - 125) * 0.28 clamped to +/-35 deg (x_raw 0xFF means hold), the
wheel slews at 20 deg/s without overshoot, a steer_enable of false
freezes the wheel, and a JOY1 older than 200 ms snaps the target to
center as a safety.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace

from .bus import CanBus, NodeHandle
from .errors import ConfigurationError, check_int, shown
from .j1939 import (ADDRESS_FIELDS, MAX_DLC, MAX_PGN, PDU2_THRESHOLD, CanFrame, J1939Address, ScaledSignal,
                     _valid_frame, encode_id, pgn_of)
# Not called here: the ECUs read a frame's pgn with pgn_of. The name stays
# bound because perfbench/tracer.py counts decode_id calls at this lookup site.
from .j1939 import decode_id  # noqa: F401
from .sim import SimClock

JOYSTICK_CENTER = 125
JOYSTICK_MAX = 250
HOLD_MARKER = 0xFF
STEER_GAIN_DEG_PER_COUNT = 0.28
STEER_LIMIT_DEG = 35.0
STEER_SLEW_DEG_PER_S = 20.0
JOYSTICK_TIMEOUT_US = 200_000

VOLTAGE_SIGNAL = ScaledSignal(byte_offset=0, width_bytes=2, scale=0.05)
WHEEL_ANGLE_SIGNAL = ScaledSignal(byte_offset=0, width_bytes=2, scale=0.01, signed=True)
PUMP_SIGNAL = ScaledSignal(byte_offset=0, width_bytes=1, scale=0.4)
ENGINE_SPEED_SIGNAL = ScaledSignal(byte_offset=3, width_bytes=2, scale=0.125)
# the plant values a scenario may set, with the ranges (inclusive) their signals
# encode: EEC1 speed up to raw 0xFAFF, PWR1 voltage up to raw 0xFFFE (0xFFFF: n/a)
PLANT_FIELDS = {"engine_rpm": (0.0, 8031.875), "machine_voltage": (0.0, 3276.7)}
# the MessageSpec fields a catalog override may set, with their ranges
# (inclusive; None is unbounded)
CATALOG_FIELDS = {
    "pgn": (0, MAX_PGN),
    "source_address": ADDRESS_FIELDS["source_address"],
    "priority": ADDRESS_FIELDS["priority"],
    "cycle_ms": (1, None),
}


@dataclass(frozen=True)
class MessageSpec:
    """Catalog entry: identity and cadence of one broadcast."""

    name: str
    pgn: int
    source_address: int
    priority: int
    cycle_ms: int | None  # None: not broadcast on a cycle

    def __post_init__(self):
        for key, (lo, hi) in CATALOG_FIELDS.items():
            value = getattr(self, key)
            if not (key == "cycle_ms" and value is None):
                check_int(ConfigurationError, f"{self.name}: {key}", value, lo, hi)

    @property
    def can_id(self) -> int:
        return encode_id(J1939Address.from_pgn(self.pgn, self.source_address, self.priority))


_DEFAULT_SPECS = (
    MessageSpec("JOY1", pgn=0xFF10, source_address=0x28, priority=3, cycle_ms=50),
    MessageSpec("PWR1", pgn=0xFF11, source_address=0x30, priority=6, cycle_ms=1000),
    MessageSpec("STR1", pgn=0xFF12, source_address=0x13, priority=6, cycle_ms=100),
    MessageSpec("LED1", pgn=0xFF13, source_address=0x80, priority=6, cycle_ms=500),
    MessageSpec("HYD1", pgn=0xFF14, source_address=0x21, priority=6, cycle_ms=100),
    MessageSpec("EEC1", pgn=0xF004, source_address=0x00, priority=3, cycle_ms=100),
    MessageSpec("DSP1", pgn=0xFF15, source_address=0x27, priority=6, cycle_ms=None),
)


class MessageCatalog:
    """The fleet's broadcast table, overridable per message."""

    def __init__(self, specs=_DEFAULT_SPECS):
        self._specs: dict[str, MessageSpec] = {}
        for spec in specs:
            if spec.name in self._specs:
                raise ConfigurationError(f"duplicate catalog message {shown(spec.name)}")
            self._specs[spec.name] = spec
        seen_pgns: dict[int, str] = {}
        for spec in self._specs.values():
            if spec.pgn in seen_pgns:
                raise ConfigurationError(
                    f"catalog pgn collision: {spec.name} and {seen_pgns[spec.pgn]} "
                    f"both use pgn 0x{spec.pgn:04X}"
                )
            seen_pgns[spec.pgn] = spec.name
            check_broadcast(spec.name, spec.pgn)

    def with_overrides(self, overrides: dict[str, dict]) -> "MessageCatalog":
        """New catalog with per-message field overrides applied."""
        specs = dict(self._specs)
        for name, fields in overrides.items():
            if name not in specs:
                raise ConfigurationError(f"catalog override for unknown message {shown(name)}")
            unknown = set(fields) - CATALOG_FIELDS.keys()
            if unknown:
                raise ConfigurationError(f"{name}: unknown catalog fields {sorted(unknown)}")
            specs[name] = replace(specs[name], **fields)
        return MessageCatalog(tuple(specs.values()))

    def __getitem__(self, name: str) -> MessageSpec:
        return self._specs[name]

    def __iter__(self):
        return iter(self._specs.values())


# the ScriptEntry inputs with their ranges (inclusive)
SCRIPT_FIELDS = {"x": (0, JOYSTICK_MAX), "y": (0, JOYSTICK_MAX), "button": (0, 1)}


@dataclass(frozen=True)
class ScriptEntry:
    t_us: int
    x: int = JOYSTICK_CENTER
    y: int = JOYSTICK_CENTER
    button: int = 0


class JoystickScript:
    """Step timeline of operator inputs; the last entry at or before t holds."""

    def __init__(self, entries: tuple[ScriptEntry, ...] = ()):
        last_t = -1  # each entry's time is later than the one before it
        for i, entry in enumerate(entries):
            last_t = check_int(ConfigurationError, f"script entry {i} t_us", entry.t_us, last_t + 1)
            for key, (lo, hi) in SCRIPT_FIELDS.items():
                check_int(ConfigurationError, f"script entry {i} {key}", getattr(entry, key), lo, hi)
        self.entries = tuple(entries)
        # the entry times, increasing, and the value from each entry on; the
        # value before the first entry is center, center, button 0
        self._times = [entry.t_us for entry in self.entries]
        self._values = [(JOYSTICK_CENTER, JOYSTICK_CENTER, 0)]
        self._values += [(entry.x, entry.y, entry.button) for entry in self.entries]

    def value_at(self, t_us: int) -> tuple[int, int, int]:
        """(x, y, button) of the last entry at or before t_us."""
        return self._values[bisect_right(self._times, t_us)]


def steering_target(x_raw: int) -> float | None:
    """Map a joystick X sample to a wheel angle target in degrees.

    0xFF is the hold marker (None: keep the current angle). Any other
    value maps linearly around center and clamps to the steering limit.
    """
    if x_raw == HOLD_MARKER:
        return None
    angle = (x_raw - JOYSTICK_CENTER) * STEER_GAIN_DEG_PER_COUNT
    return max(-STEER_LIMIT_DEG, min(STEER_LIMIT_DEG, angle))


def steering_step(
    angle_deg: float,
    target_deg: float | None,
    dt_s: float,
    *,
    steer_enable: bool = True,
    joystick_age_s: float = 0.0,
) -> float:
    """Advance the wheel angle one control step.

    steer_enable false freezes the wheel regardless of target; a stale
    joystick (older than 200 ms) retargets to center; a None target
    holds. Movement is rate-limited and never overshoots the target.
    """
    if not steer_enable:
        return angle_deg
    if joystick_age_s > JOYSTICK_TIMEOUT_US / 1e6:
        target_deg = 0.0
    elif target_deg is None:
        return angle_deg
    max_step = STEER_SLEW_DEG_PER_S * dt_s
    delta = target_deg - angle_deg
    if delta > max_step:
        delta = max_step
    elif delta < -max_step:
        delta = -max_step
    return angle_deg + delta


@dataclass(frozen=True)
class VehicleObservables:
    """Physical state a test (or an attacker) cares about."""

    wheel_angle_deg: float
    steer_enabled: bool
    led_mask: int
    pump_pct: float
    engine_rpm: float
    machine_voltage: float


class _Node:
    """A fleet node, which sends one catalog message. It attaches to its bus
    and then, when the catalog gives its message a cycle, ticks at t = cycle
    and every cycle after. A node without a tick sends on demand only, and
    its message takes no cycle (check_cycle)."""

    node_name: str  # each node sets its name on the bus
    message: str  # and the catalog message it sends
    on_frame = None  # nodes that listen override this with a method
    tick = None  # nodes that send on a cycle override this with a method

    def __init__(self, fleet: "Fleet", bus: CanBus):
        self.fleet = fleet
        self.bus = bus
        self.clock: SimClock = fleet.clock
        self.spec: MessageSpec = fleet.catalog[self.message]
        check_cycle(self.message, self.spec.cycle_ms)
        self.can_id = self.spec.can_id
        self.handle: NodeHandle = bus.attach(self.node_name, self.on_frame)
        if self.spec.cycle_ms is not None:  # then the node has a tick (check_cycle)
            tick = self.tick
            cycle_us = self.spec.cycle_ms * 1000

            def fire():
                tick()
                self.clock.schedule(self.clock.now_us + cycle_us, fire)

            self.clock.schedule(self.clock.now_us + cycle_us, fire)

    last_frame = None  # the frame of the latest broadcast

    def broadcast(self, data: bytes) -> None:
        """Send the node's message with data, padded with 0xFF to MAX_DLC
        bytes as every fleet frame is."""
        data = data.ljust(MAX_DLC, b"\xff")
        frame = self.last_frame
        if frame is None or frame.data != data:  # else resend it, so logs share its payload
            # the identifier comes from the validated catalog and the payload is
            # MAX_DLC bytes, so the frame is valid without re-checking it
            frame = self.last_frame = _valid_frame(self.can_id, data, 0)
        self.bus.submit(self.handle, frame)


class JoystickNode(_Node):
    """Operator joystick: plays a scripted timeline at the JOY1 cadence."""

    node_name, message = "joystick", "JOY1"

    def tick(self):
        x, y, button = self.fleet.script.value_at(self.clock.now_us)
        self.broadcast(bytes((x, y, button)))


class DisplayNode(_Node):
    """Operator display; sends LED commands on demand."""

    node_name, message = "display", "DSP1"

    def send_led_command(self, mask: int) -> None:
        check_int(ConfigurationError, "led command", mask, 0, 0xFF)
        self.broadcast(bytes((mask,)))


class PowerEcu(_Node):
    """Transmits machine voltage and the steer-enable line."""

    node_name, message = "power_ecu", "PWR1"

    def __init__(self, fleet, bus, steer_enable: bool, machine_voltage: float):
        super().__init__(fleet, bus)
        self.steer_enable = steer_enable
        self.machine_voltage = machine_voltage
        self.voltage_bytes = VOLTAGE_SIGNAL.encode(machine_voltage)

    def tick(self):
        self.broadcast(self.voltage_bytes + bytes((1 if self.steer_enable else 0,)))


class SteeringEcu(_Node):
    """Electric steer motor controller: slews toward the joystick target."""

    node_name, message = "steering_ecu", "STR1"

    def __init__(self, fleet, bus):
        super().__init__(fleet, bus)
        self.angle_deg = 0.0
        self.steer_enable = False  # off until PWR1 says otherwise
        self.last_joy_us: int | None = None
        self.last_x = JOYSTICK_CENTER
        self._joy_pgn = fleet.catalog["JOY1"].pgn
        self._pwr_pgn = fleet.catalog["PWR1"].pgn

    def on_frame(self, frame: CanFrame) -> None:
        pgn = pgn_of(frame.can_id)
        if pgn == self._joy_pgn and len(frame.data) >= 1:
            self.last_joy_us = frame.timestamp_us
            self.last_x = frame.data[0]
        elif pgn == self._pwr_pgn and len(frame.data) >= 3:
            self.steer_enable = bool(frame.data[2] & 0x01)

    def tick(self):
        now = self.clock.now_us
        if self.last_joy_us is None:
            age_s = float("inf")
            target = None
        else:
            age_s = (now - self.last_joy_us) / 1e6
            target = steering_target(self.last_x)
        self.angle_deg = steering_step(
            self.angle_deg, target, self.spec.cycle_ms / 1000,
            steer_enable=self.steer_enable, joystick_age_s=age_s,
        )
        self.broadcast(WHEEL_ANGLE_SIGNAL.encode(self.angle_deg))


class HydraulicsEcu(_Node):
    """Maps the joystick Y axis onto the pump command."""

    node_name, message = "hydraulics_ecu", "HYD1"

    def __init__(self, fleet, bus):
        super().__init__(fleet, bus)
        self.pump_raw = JOYSTICK_CENTER
        self._joy_pgn = fleet.catalog["JOY1"].pgn

    def on_frame(self, frame: CanFrame) -> None:
        if pgn_of(frame.can_id) == self._joy_pgn and len(frame.data) >= 2:
            self.pump_raw = frame.data[1]

    @property
    def pump_pct(self) -> float:
        return self.pump_raw * PUMP_SIGNAL.scale

    def tick(self):
        self.broadcast(bytes((self.pump_raw,)))


class EngineEcu(_Node):
    """Broadcasts a fixed engine speed."""

    node_name, message = "engine_ecu", "EEC1"

    def __init__(self, fleet, bus, engine_rpm: float):
        super().__init__(fleet, bus)
        self.engine_rpm = engine_rpm
        self.payload = b"\xff" * ENGINE_SPEED_SIGNAL.byte_offset + ENGINE_SPEED_SIGNAL.encode(engine_rpm)

    def tick(self):
        self.broadcast(self.payload)


class ImplementEcu(_Node):
    """Drives the LED bank from operator commands; reports on change."""

    node_name, message = "implement_ecu", "LED1"

    def __init__(self, fleet, bus):
        super().__init__(fleet, bus)
        self.led_mask = 0
        self._dsp_pgn = fleet.catalog["DSP1"].pgn

    def on_frame(self, frame: CanFrame) -> None:
        if pgn_of(frame.can_id) == self._dsp_pgn and len(frame.data) >= 1:
            if frame.data[0] != self.led_mask:
                self.led_mask = frame.data[0]
                self.tick()

    def tick(self):
        self.broadcast(bytes((self.led_mask,)))


# the messages whose node has no tick, so that no node sends them on a cycle
ON_DEMAND = frozenset(node.message for node in _Node.__subclasses__() if node.tick is None)


def check_cycle(message: str, cycle_ms: int | None) -> None:
    """Raise ConfigurationError when a catalog gives a message sent on demand
    only (ON_DEMAND) a cycle: no node would ever send on it."""
    if cycle_ms is not None and message in ON_DEMAND:
        raise ConfigurationError(f"{message} is sent on demand only, so it takes no cycle, got {shown(cycle_ms)}")


def check_broadcast(message: str, pgn: int) -> None:
    """Raise ConfigurationError when a catalog gives a message a PDU1 pgn: catalog messages have no destination."""
    if (pgn >> 8) & 0xFF < PDU2_THRESHOLD:
        raise ConfigurationError(f"{message} needs a broadcast pgn (PDU format >= 240), got 0x{pgn:05X}")


class Fleet:
    """The whole vehicle wired to its two segments.

    Args:
        clock: shared simulation clock.
        operator_bus: segment carrying joystick and display.
        vehicle_bus: segment carrying the five vehicle ECUs.
        catalog: message catalog.
        script: joystick timeline.
        steer_enable: power controller's steer-enable line.
        engine_rpm / machine_voltage: fixed plant values.
    """

    def __init__(
        self,
        clock: SimClock,
        operator_bus: CanBus,
        vehicle_bus: CanBus,
        *,
        catalog: MessageCatalog,
        script: JoystickScript,
        steer_enable: bool,
        engine_rpm: float,
        machine_voltage: float,
    ):
        self.clock = clock
        self.catalog = catalog
        self.script = script
        self.joystick = JoystickNode(self, operator_bus)
        self.display = DisplayNode(self, operator_bus)
        self.implement = ImplementEcu(self, vehicle_bus)
        self.hydraulics = HydraulicsEcu(self, vehicle_bus)
        self.engine = EngineEcu(self, vehicle_bus, engine_rpm)
        self.power = PowerEcu(self, vehicle_bus, steer_enable, machine_voltage)
        self.steering = SteeringEcu(self, vehicle_bus)

    def observables(self) -> VehicleObservables:
        return VehicleObservables(
            wheel_angle_deg=self.steering.angle_deg,
            steer_enabled=self.power.steer_enable,
            led_mask=self.implement.led_mask,
            pump_pct=self.hydraulics.pump_pct,
            engine_rpm=self.engine.engine_rpm,
            machine_voltage=self.power.machine_voltage,
        )
