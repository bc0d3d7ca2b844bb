"""Serving counter records: one fold rule, and the scheduler's record.

:class:`Counters` is the base of every serving counter record
(:class:`SchedulerStats` here, ``ClusterStats`` and ``CollectiveStats``
beside their owners).  The dataclass attributes are the store and the
export: a hot path's ``stats.<field> += n`` is a plain attribute add, a
reader reads the attribute, and what the base adds is how two records fold
(``total += other``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np


def _samples(by_class: Dict[int, List[float]], priority: Optional[int]) -> List[float]:
    """The samples of one priority class, or of every class merged."""
    if priority is not None:
        return list(by_class.get(int(priority), []))
    return [value for values in by_class.values() for value in values]


class Counters:
    """The fold rule shared by the serving counter records (dataclasses).

    ``a += b`` folds ``b``, a record of the same type, into ``a`` field by
    field: a field in :attr:`HIGH_WATER` keeps the larger value, a dict adds
    per key (a ``str -> int`` tally sums, an ``int -> list`` of samples
    concatenates into fresh lists, so ``a`` never aliases ``b``), and every
    other number adds.  Folding in any other type is a ``TypeError``.
    """

    #: High-water marks: a fold keeps the larger value instead of the sum.
    HIGH_WATER: ClassVar[Tuple[str, ...]] = ()

    def __iadd__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if spec.name in self.HIGH_WATER:
                setattr(self, spec.name, max(mine, theirs))
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    # ``type(value)()`` is 0 for a tally and a fresh [] for samples.
                    mine[key] = mine.get(key, type(value)()) + value
            else:
                setattr(self, spec.name, mine + theirs)
        return self


@dataclass
class SchedulerStats(Counters):
    """Iteration accounting of one scheduler run (deterministic, not wall time)."""

    HIGH_WATER = ("peak_active",)

    #: Prefill chunks computed (one forward each but the ridden; a riding resume is none).
    prefill_iterations: int = 0
    #: Chunks that rode a decode forward: prefill forwards are ``prefill_iterations - ridden_chunks``.
    ridden_chunks: int = 0
    #: Prompt / replay tokens computed rather than served from the prefix cache
    #: (every runner row is one, a decode slot step or a proposed draft token).
    prefill_tokens: int = 0
    #: The part of ``prefill_tokens`` resumes caught up on inside a decode
    #: forward (:meth:`Scheduler._admit_next`).
    resume_tail_rows: int = 0
    #: Prompt tokens served from the prefix cache instead of being computed.
    prefix_hit_tokens: int = 0
    #: Batched decode forward passes executed.
    decode_iterations: int = 0
    #: Sum over decode iterations of the number of active slots.
    decode_slot_steps: int = 0
    #: Tokens sampled (across prefill, decode, and verification logits).
    generated_tokens: int = 0
    #: Draft tokens proposed by the speculative drafter (0 when disabled).
    spec_proposed_tokens: int = 0
    #: Draft tokens the target model's sampling rule accepted.
    spec_accepted_tokens: int = 0
    #: Multi-token verification forwards executed (a subset of
    #: ``decode_iterations``).
    spec_verify_iterations: int = 0
    #: Token rows those verification forwards computed: every participating
    #: request's pending token plus its own drafts, nothing else — so
    #: ``1 - committed / spec_verify_rows`` is the share of verify work the
    #: drafter wasted.
    spec_verify_rows: int = 0
    #: Requests completed (finish reason ``"eos"`` or ``"length"``).
    completed_requests: int = 0
    #: Largest number of concurrently admitted requests (prefilling + decoding).
    peak_active: int = 0
    #: Clock ticks spent with an empty batch waiting for the next arrival.
    idle_time: float = 0.0
    #: Requests evicted mid-flight to make room for a higher-priority head
    #: (each re-queued for prompt replay; counts evictions, not requests).
    preemptions: int = 0
    #: Requests that expired waiting (deadline passed before admission).
    expired_requests: int = 0
    #: Requests withdrawn via :meth:`Scheduler.cancel`.
    cancelled_requests: int = 0
    #: Requests shed under resource pressure via :meth:`Scheduler.shed`.
    degraded_requests: int = 0
    #: ``"degraded"`` finishes tallied by structured failure cause
    #: (``"shed"`` here; the replica pool adds its recovery causes).
    degraded_causes: Dict[str, int] = field(default_factory=dict)
    #: Per-priority-class time-to-first-token samples, in scheduler ticks
    #: (``first_token_at - arrival_time``), appended as requests finish.
    ttft_by_class: Dict[int, List[float]] = field(default_factory=dict)
    #: Per-priority-class time-per-output-token samples, in scheduler ticks
    #: (``(finished_at - first_token_at) / (num_steps - 1)``; single-token
    #: requests contribute no sample).
    tpot_by_class: Dict[int, List[float]] = field(default_factory=dict)

    @property
    def total_iterations(self) -> int:
        """Model forward passes executed (prefill + decode, a ridden chunk none of its own)."""
        return self.prefill_iterations - self.ridden_chunks + self.decode_iterations

    def tokens_per_iteration(self) -> float:
        """Generated tokens per forward pass — the batching-efficiency metric.

        A scheduler that has not run a forward yet reports ``0.0`` rather
        than dividing by zero, matching :meth:`prefix_hit_rate`.
        """
        if self.total_iterations == 0:
            return 0.0
        return self.generated_tokens / self.total_iterations

    def prefix_hit_rate(self) -> float:
        """Fraction of prompt tokens served from the prefix cache.

        A scheduler that has not prefilled anything yet (fresh, or idle
        between traces) reports ``0.0`` rather than dividing by zero.
        """
        looked_up = self.prefill_tokens + self.prefix_hit_tokens
        if looked_up == 0:
            return 0.0
        return self.prefix_hit_tokens / looked_up

    def spec_accept_rate(self) -> float:
        """Fraction of proposed draft tokens accepted (0.0 before any draft)."""
        if self.spec_proposed_tokens == 0:
            return 0.0
        return self.spec_accepted_tokens / self.spec_proposed_tokens

    def ttft_values(self, priority: Optional[int] = None) -> List[float]:
        """TTFT samples in scheduler ticks (one class, or all classes merged)."""
        return _samples(self.ttft_by_class, priority)

    def ttft_percentile(self, q: float, priority: Optional[int] = None) -> float:
        """The ``q``-th percentile TTFT of a class in ticks.

        ``q`` is a fraction in [0, 1] (0 = minimum, 0.5 = median, 1 =
        maximum, linear interpolation between samples).  Edge semantics are
        explicit rather than inherited from numpy quirks: with **no
        samples** — an empty class filter included — the result is ``0.0``
        (matching :meth:`mean_ttft`); with a **single sample** every ``q``
        returns that sample.

        Raises
        ------
        ValueError
            If ``q`` is outside [0, 1].
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile fraction q must be in [0, 1], got {q}")
        values = self.ttft_values(priority)
        if not values:
            return 0.0
        if len(values) == 1:
            return float(values[0])
        return float(np.percentile(np.asarray(values, dtype=np.float64), 100.0 * q))

    def mean_ttft(self, priority: Optional[int] = None) -> float:
        """Mean TTFT of a class in scheduler ticks (0.0 if no samples)."""
        values = self.ttft_values(priority)
        if not values:
            return 0.0
        return float(np.mean(values))

    def mean_tpot(self, priority: Optional[int] = None) -> float:
        """Mean time-per-output-token of a class in ticks (0.0 if no samples)."""
        values = _samples(self.tpot_by_class, priority)
        if not values:
            return 0.0
        return float(np.mean(values))
