"""Exception types shared across the repro library.

Having a small hierarchy of library-specific exceptions lets callers
distinguish configuration mistakes (bad arguments, impossible shapes) from
numerical problems detected at runtime (overflow in an integer pipeline,
invalid calibration state) without catching built-in exceptions too broadly.
:func:`require_count` is the one check integer options pass where they are set.
"""

from __future__ import annotations

import numbers


class ReproError(Exception):
    """Base class for all exceptions raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when a user-supplied configuration value is invalid."""


class ShapeError(ReproError):
    """Raised when tensor shapes are incompatible for an operation."""


class CalibrationError(ReproError):
    """Raised when calibration state is missing or inconsistent."""


class QuantizationError(ReproError):
    """Raised when a quantization step cannot be performed safely."""


class SimulationError(ReproError):
    """Raised by the accelerator simulator for inconsistent hardware state."""


class ResourceExhaustedError(ReproError):
    """Raised when a bounded runtime resource pool (e.g. KV blocks) runs dry."""


class ReplicaFailureError(ReproError):
    """Raised when a serving replica crashes (or is chaos-killed) mid-iteration."""


class ShardFailureError(ReplicaFailureError):
    """Raised when a tensor-parallel shard dies, taking its whole group down.

    Subclasses :class:`ReplicaFailureError` on purpose: a shard group is one
    fault unit to the replica pool, so a dead shard rides the same
    checkpoint-and-recover sweep as a whole-replica crash.
    """


class CollectiveTransportError(ReplicaFailureError):
    """Raised when a collective call cannot complete within its retry budget.

    Dropped or endlessly-corrupted messages exhaust the bounded retries of
    :class:`repro.serve.collective.CollectiveGroup`; the group then counts as
    failed and the pool recovers its in-flight requests elsewhere.
    """


def require_count(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``, or a :class:`ConfigurationError` naming ``name``, ``value`` and ``minimum``.

    ``numbers.Integral`` — Python and NumPy integers, bools — passes if it is
    at least ``minimum``; a float is refused rather than truncated by ``int()``.
    """
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
