"""Exception types shared across the package, and the one rule for each
kind of field of every public constructor: integer, real number, bytes
and bool."""

import math


class StaveError(Exception):
    """Base class for every error this package raises deliberately."""


class FrameError(StaveError):
    """A CAN frame field violates its structural constraints."""


class IdentifierError(StaveError):
    """A value does not fit the 29-bit extended identifier space."""


class AddressError(StaveError):
    """Identifier fields are inconsistent or out of range."""


class SignalError(StaveError):
    """A payload signal access falls outside the frame or its raw range."""


class ConfigurationError(StaveError):
    """A component was wired up with conflicting or unknown settings."""


class SimulationError(StaveError):
    """An operation is not legal in the simulation's current state."""


class TimeReversalError(SimulationError):
    """Attempt to run or schedule into the past."""


class ArbitrationCollisionError(SimulationError):
    """Two distinct nodes contended with identical identifiers."""


class DecapsulationError(StaveError):
    """A received radio packet failed verification and was dropped."""


class FramingError(DecapsulationError):
    """Sync bytes or structural flags are wrong."""


class LengthError(DecapsulationError):
    """Packet too short, or its length fields disagree with the buffer."""


class IntegrityError(DecapsulationError):
    """CRC mismatch over the protected region."""


class CaptureError(StaveError):
    """Base for capture log format violations."""


class ParseError(CaptureError):
    """A capture log line does not match the grammar."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class MonotonicityError(CaptureError):
    """Timestamps in a capture log went backwards."""


class BaselineError(StaveError):
    """Differential analysis was given an empty baseline capture."""


class ScenarioValidationError(StaveError):
    """One or more scenario fields failed validation.

    The full list of messages (each prefixed with a field path) is kept
    on ``errors`` so callers can report everything at once.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def is_int(value) -> bool:
    """Whether value is an integer; a bool is not one."""
    return type(value) is int


def is_real(value) -> bool:
    """Whether value is a finite real number: an int or a finite float, not a bool."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


def check_int(error: type[StaveError], name: str, value, lo: int | None = None,
              hi: int | None = None) -> int:
    """value, if it is an integer (not a bool) in lo..hi; otherwise raise
    error, naming the field and the value.

    Both bounds are inclusive. hi None means no upper bound; lo None too
    means no bound at all.
    """
    # is_int inlined: constructors on the per-frame path call this
    if type(value) is int and (lo is None or lo <= value) and (hi is None or value <= hi):
        return value
    if hi is None:
        rule = "an integer" if lo is None else f"an integer >= {lo}"
        raise error(f"{name} {value!r} must be {rule}")
    if hi == lo + 1:
        raise error(f"{name} {value!r} must be {lo} or {hi}")
    raise error(f"{name} {value!r} outside {lo}..{hi}")


def check_real(error: type[StaveError], name: str, value, lo: float = -math.inf,
               hi: float = math.inf) -> float:
    """value, if it is a finite real number (see is_real) in [lo, hi];
    otherwise raise error, naming the field and the value."""
    if is_real(value) and lo <= value <= hi:
        return value
    bounds = "" if lo == -math.inf and hi == math.inf else f" in [{lo}, {hi}]"
    raise error(f"{name} {value!r} is not a finite number{bounds}")


def check_bytes(error: type[StaveError], name: str, value) -> bytes:
    """value as bytes, if it is bytes or a bytearray; otherwise raise error,
    naming the field and the value."""
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    raise error(f"{name} {value!r} must be bytes")


def check_bool(error: type[StaveError], name: str, value) -> bool:
    """value, if it is True or False; otherwise raise error, naming the
    field and the value."""
    if value is True or value is False:
        return value
    raise error(f"{name} {value!r} must be True or False")
