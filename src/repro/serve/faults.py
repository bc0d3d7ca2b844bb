"""One seeded fault schedule for both chaos layers.

A :class:`FaultSchedule` names its ``KINDS`` and takes ``{kind}_rate`` (per
draw), ``{kind}_at`` (a scripted ``{key: victim}`` map) and ``max_kills``.
One rule draws for :class:`FaultInjector` and :class:`CollectiveFaultInjector`:

* scripted faults fire on a key's first attempt only, in ``KINDS`` order,
  and win over random ones;
* every draw reads ``len(KINDS)`` uniforms, whatever fires, and tries the
  kinds with a nonzero rate in ``KINDS`` order (one generator call reads
  ``_DRAW_BLOCK`` draws ahead: the same doubles as one call per draw);
* kills stop at ``max_kills`` (``None`` = unbounded); a capped kill falls
  through to the next kind.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, require_count

#: Draws whose uniforms one generator call reads ahead.
_DRAW_BLOCK = 64


def require_rate(name: str, rate) -> float:
    """``rate`` as a ``float`` in ``[0, 1]`` (not NaN), or a :class:`ConfigurationError` naming both."""
    if not isinstance(rate, numbers.Real) or not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"{name} must be a real number in [0, 1], got {rate!r}")
    return float(rate)


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault: the ``key`` (pool iteration or collective) and ``victim`` it hit, on retry ``attempt``."""

    key: int
    victim: int
    kind: str
    attempt: int = 0


class FaultSchedule:
    """Seeded scripted and random faults over ``KINDS`` (see the module docstring)."""

    #: Fault kinds in the order they are tried, and what a draw's key and victim count.
    KINDS: Tuple[str, ...] = ()
    KEY, VICTIM = "key", "victim"

    def __init__(self, seed: int = 0, *, max_kills: Optional[int] = None, **options) -> None:
        unknown = sorted(set(options) - {f"{kind}_{part}" for kind in self.KINDS for part in ("rate", "at")})
        if unknown:
            raise TypeError(f"{type(self).__name__}() got unexpected keyword arguments {unknown}")
        rates = [require_rate(f"{kind}_rate", options.get(f"{kind}_rate", 0.0)) for kind in self.KINDS]
        #: ``(uniform offset, kind, rate)`` of each kind that can fire at random.
        self._random = tuple((i, kind, rate) for i, (kind, rate) in enumerate(zip(self.KINDS, rates)) if rate)
        self.max_kills = None if max_kills is None else require_count("max_kills", max_kills, 0)
        self._kills_left = math.inf if max_kills is None else self.max_kills
        #: ``{key: ((kind, victim), ...)}`` in ``KINDS`` order: one lookup resolves every script.
        self._scripted: Dict[int, Tuple[Tuple[str, int], ...]] = {}
        for kind in self.KINDS:
            for key, victim in (options.get(f"{kind}_at") or {}).items():
                key = require_count(f"{kind}_at key", key, 0)
                self._scripted[key] = self._scripted.get(key, ()) + ((kind, victim),)
        self._rng = np.random.default_rng(seed)
        self._uniforms: List[float] = []
        self._cursor, self._stride = 0, len(self.KINDS)
        #: Every fault fired, in firing order (the chaos audit log).
        self.events: List[FaultEvent] = []

    def require_victims(self, count: int) -> None:
        """Refuse a scripted victim that is not one of the ``count`` replicas or shards drawn for."""
        for key, scripted in self._scripted.items():
            for kind, victim in scripted:
                if not (isinstance(victim, numbers.Integral) and 0 <= victim < count):
                    message = f"names {self.VICTIM} {victim!r}, not an integer in [0, {count})"
                    raise ConfigurationError(f"scripted {kind} at {self.KEY} {key} {message}")

    def draw(self, key: int, victim: int, attempt: int = 0) -> Optional[str]:
        """The fault kind to inject into ``victim`` at ``key`` on retry ``attempt``, or ``None``."""
        cursor, uniforms = self._cursor, self._uniforms
        if cursor == len(uniforms):
            uniforms = self._uniforms = self._rng.random(self._stride * _DRAW_BLOCK).tolist()
            cursor = 0
        self._cursor = cursor + self._stride
        for kind, target in self._scripted.get(key, ()) if attempt == 0 and self._scripted else ():
            if target == victim and (kind != "kill" or self._kills_left):
                break
        else:
            for offset, kind, rate in self._random:
                if uniforms[cursor + offset] < rate and (kind != "kill" or self._kills_left):
                    break
            else:
                return None
        self._kills_left -= kind == "kill"
        self.events.append(FaultEvent(key, victim, kind, attempt))
        return kind


class FaultInjector(FaultSchedule):
    """Replica-pool chaos per (pool iteration, replica); a stall skips ``stall_steps`` iterations."""

    KINDS = ("kill", "exhaust", "stall")
    KEY, VICTIM = "pool iteration", "replica"

    def __init__(self, seed: int = 0, *, stall_steps: int = 3, **options) -> None:
        super().__init__(seed, **options)
        self.stall_steps = require_count("stall_steps", stall_steps, 1)


class CollectiveFaultInjector(FaultSchedule):
    """Collective chaos per message attempt; shared across rebuilt groups, ``max_kills`` bounds a run."""

    KINDS = ("kill", "drop", "corrupt", "delay", "duplicate")
    KEY, VICTIM = "collective", "shard"
