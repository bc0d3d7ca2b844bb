"""What a request is, from :meth:`Scheduler.submit` to its :class:`RequestOutput`.

:class:`Request` is what a caller submits, :class:`RequestCheckpoint` the one
record a scheduler keeps of it all the way to its :class:`RequestOutput`,
and :class:`GenerationConfig` the decoding rule they share.
:func:`_as_request` is the one argument normaliser behind every front door
(:class:`~repro.serve.scheduler.Scheduler`,
:class:`~repro.serve.cluster.ReplicaPool`,
:class:`~repro.serve.async_engine.AsyncEngine`): what it refuses, none of
them accepts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError, require_count
from repro.serve.spec import _SpecState


@dataclass(frozen=True)
class GenerationConfig:
    """Decoding parameters shared by every request of a scheduler or batch.

    Parameters
    ----------
    max_new_tokens : int
        Token budget per request (capped by the model's ``max_seq_len``).
        Individual requests may lower it via ``Request.max_new_tokens``.
    top_k : int
        ``0`` for greedy argmax decoding, ``k > 0`` to sample from the ``k``
        highest-probability tokens after ``temperature`` scaling.
    temperature : float
        Softmax temperature applied before top-k sampling.
    seed : int
        Seed of each request's private sampling generator: a continuation
        replays deterministically *and* is independent of how it was batched.
    eos_token : int, optional
        Token id that terminates a request early (kept in the output); a
        :class:`Scheduler` refuses one outside its model's vocabulary.

    Raises
    ------
    ConfigurationError
        If any field is outside its valid range.
    """

    max_new_tokens: int = 32
    top_k: int = 0
    temperature: float = 1.0
    seed: int = 0
    eos_token: Optional[int] = None

    def __post_init__(self) -> None:
        require_count("max_new_tokens", self.max_new_tokens, 1)
        require_count("top_k", self.top_k, 0)
        require_count("seed", self.seed, 0)
        if not (isinstance(self.temperature, numbers.Real) and 0.0 < self.temperature < math.inf):
            raise ConfigurationError(f"temperature must be a finite number > 0, got {self.temperature!r}")
        if self.eos_token is not None:
            require_count("eos_token", self.eos_token, 0)


@dataclass(eq=False)  # compared by identity: the ndarray prompt has no truth value
class Request:
    """One generation request submitted to a :class:`Scheduler`.

    Parameters
    ----------
    prompt : ndarray
        Token ids, shape ``(prompt_len,)``.
    max_new_tokens : int, optional
        Per-request budget override of the scheduler's
        :attr:`GenerationConfig.max_new_tokens`.
    arrival_time : float
        Scheduler-clock tick at which the request becomes admissible (the
        clock advances by one per model forward pass).  ``0.0`` means
        "available immediately".
    request_id : int, optional
        Set on the scheduler's internal copy by :meth:`Scheduler.submit`
        (which also returns it); a caller-constructed request is never
        mutated and may be resubmitted freely.
    priority : int
        Priority class: **lower values are more urgent**.  Admission is
        ordered by ``(priority, arrival_time, request_id)``, and with
        ``preemption=True`` an inadmissible head may evict a strictly
        lower-priority (higher-valued) victim.  Default ``0``.
    deadline : float, optional
        Absolute scheduler-clock tick by which admission must have begun.
        A request still waiting when the clock passes its deadline finishes
        with ``finish_reason="expired"`` and no generated tokens.  Deadlines
        never cancel a request that already started (or was preempted after
        starting) — its partial work is kept.  ``None`` (default) never
        expires.
    """

    prompt: np.ndarray
    max_new_tokens: Optional[int] = None
    arrival_time: float = 0.0
    request_id: Optional[int] = None
    priority: int = 0
    deadline: Optional[float] = None


@dataclass
class RequestOutput:
    """Everything the scheduler produced for one finished request."""

    #: Id assigned at submission (submission order).
    request_id: int
    #: The request's prompt, as submitted.
    prompt: np.ndarray
    #: Prompt followed by the kept continuation.
    sequence: np.ndarray
    #: Only the generated tokens (truncated at eos, inclusive).
    generated: np.ndarray
    #: Number of prompt tokens.
    prompt_length: int
    #: Logits behind each generated token, ``(num_steps, vocab)`` — empty
    #: when the scheduler was built with ``record_logits=False``.
    step_logits: np.ndarray
    #: Decode steps this request took (``len(generated)``).
    num_steps: int
    #: ``"eos"``, ``"length"``, ``"expired"`` (deadline passed while still
    #: waiting), ``"cancelled"`` (caller withdrew the request), or
    #: ``"degraded"`` (shed under resource pressure instead of crashing the
    #: serving loop — see :meth:`Scheduler.shed` and ``repro.serve.cluster``).
    finish_reason: str
    #: Scheduler-clock ticks at admission (prefill start) and completion.
    #: ``admitted_at`` is ``-1.0`` for requests that expired unadmitted.
    admitted_at: float = 0.0
    finished_at: float = 0.0
    #: Prompt tokens whose KV came from the prefix cache (0 when disabled).
    prefix_hit_tokens: int = 0
    #: Draft tokens proposed / accepted for this request (0 when speculation
    #: is disabled).
    spec_proposed_tokens: int = 0
    spec_accepted_tokens: int = 0
    #: Priority class the request was submitted with (lower = more urgent).
    priority: int = 0
    #: Scheduler-clock tick the request arrived, as submitted.
    arrival_time: float = 0.0
    #: Tick the first token was committed (``-1.0`` if none ever was).
    first_token_at: float = -1.0
    #: Times the request was preempted and replayed before finishing.
    preemptions: int = 0
    #: Structured terminal reason behind a ``"degraded"`` finish —
    #: ``"shed"`` (dropped under resource pressure),
    #: ``"retry_budget_exhausted"`` (recovery attempts ran out), or
    #: ``"no_healthy_replica"`` (nowhere left to recover to).  ``None`` for
    #: every healthy finish.
    failure_cause: Optional[str] = None
    #: Recovery attempts the request consumed before this output (pool
    #: replays after replica/shard failures; 0 on an undisturbed path).
    retries: int = 0


@dataclass(eq=False)
class RequestCheckpoint(Request):
    """The one record of an in-flight request, from submit to output.

    :meth:`Scheduler.submit` creates it, the waiting heaps hold it,
    admission fills in its ``slot``, and every way out of a slot — finish,
    preemption, cancellation, checkpointing — *detaches* the same object
    (``slot == -1``, no views) instead of copying it.  Callers only ever
    hold it detached, which is why it is exported under this name:
    :meth:`Scheduler.checkpoint` returns the record itself, and it is
    everything another :class:`Scheduler` needs to continue the request
    *bit-identically* — the prompt, the tokens committed so far, the logits
    behind them, and the request's private sampling generator — its seed,
    and the generator itself once a top-k draw has built it (the object
    moves with the record; the source scheduler has relinquished it).
    Re-admission (:meth:`Scheduler.submit_checkpoint`) rides the same
    free-then-replay path preemption uses — re-prefill
    ``prompt + generated[:-1]``, keep the final sampled token pending, never
    re-sample — so a request recovered onto a healthy replica after a crash
    produces exactly the tokens (and committed-position logits) an
    uninterrupted run would have.

    The :class:`Request` fields are the scheduler's own copy of the
    submission; ``request_id`` is the id on the scheduler that currently (or
    last) held the record, and ``arrival_time`` is re-timed by
    :meth:`Scheduler.submit_checkpoint`.
    """

    #: Tokens committed so far (possibly empty).
    generated: List[int] = field(default_factory=list)
    #: Recorded logits behind each committed token (empty when the
    #: scheduler runs with ``record_logits=False``).
    step_logits: List[np.ndarray] = field(default_factory=list)
    #: Seed of the request's private sampling generator: the
    #: :attr:`GenerationConfig.seed` it was submitted under.
    seed: int = 0
    #: The request's private sampling generator, built from ``seed`` on the
    #: first top-k draw (:meth:`sampler`); greedy decoding never builds one.
    rng: Optional[np.random.Generator] = None
    #: Token budget: the per-request override, clipped at ``max_seq_len``.
    budget: int = 0
    #: KV slot while admitted, ``-1`` while queued or detached.
    slot: int = -1
    #: Tick of the first admission on the current scheduler (-1.0 before);
    #: survives preemption, restarts on another scheduler's clock.
    admitted_at: float = -1.0
    #: Tick the first token was committed (-1.0 until then); survives
    #: preemption and recovery so TTFT reflects the *first* admission.
    first_token_at: float = -1.0
    #: Times this request has been preempted and re-queued.
    preemptions: int = 0
    #: Prefix-cache hits accumulated over every admission.
    prefix_hit_tokens: int = 0
    #: Recovery attempts already spent on this request (bumped by the
    #: replica pool each time it re-admits the record after a failure).
    retries: int = 0
    #: Tokens the cache must hold before decoding (see :meth:`replay_tokens`):
    #: set while the record is prefilling, or sits in the decode set with a
    #: resume tail for this step's forward to compute; ``None`` otherwise.
    replay: Optional[np.ndarray] = None
    #: Leading ``replay`` tokens already in the KV cache (prefix hits plus
    #: prefilled chunks).
    prefill_pos: int = 0
    #: Per-request adaptive speculation state (None until a speculating
    #: scheduler admits the record); counters and EMA ride along.
    spec: Optional[_SpecState] = None
    #: Correlation id stamped on this request's trace events.
    trace_corr: str = ""
    #: Key the speculative drafter knows the request by on its current
    #: scheduler: fresh at every acceptance, never shared by two requests
    #: in flight, kept across preemption.
    draft_key: int = -1

    @property
    def started(self) -> bool:
        """True once the request has committed at least one token."""
        return bool(self.generated)

    def sampler(self) -> np.random.Generator:
        """The private sampling generator, built from ``seed`` on first use; it moves with the record."""
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)
        return self.rng

    def replay_tokens(self) -> np.ndarray:
        """Tokens the next prefill must cover when this record is admitted.

        A fresh request replays its prompt.  A request detached after
        sampling ``G`` tokens replays ``prompt + generated[:G-1]``: the KV
        cache of an active request always trails its sampled stream by one
        token (the newest token is fed by the *next* decode step), so the
        final sampled token stays pending rather than being recomputed —
        resuming never re-samples, which is what keeps preempted and
        recovered outputs bit-identical to undisturbed runs.
        """
        if not self.generated:
            return self.prompt
        return np.concatenate(
            [self.prompt, np.asarray(self.generated[:-1], dtype=np.int64)]
        )


def _as_request(
    request: Union[Request, np.ndarray],
    max_new_tokens: Optional[int],
    arrival_time: float,
    priority: int,
    deadline: Optional[float],
) -> Request:
    """The argument normaliser behind every ``submit()``.

    Accepts a full :class:`Request` or a bare prompt plus keywords (never
    both, so overrides cannot be silently dropped) and returns a fresh
    :class:`Request` over a flat int64 prompt — the caller's object is
    never kept or mutated, so it can be resubmitted freely.  Everything a
    request can get wrong without a model to measure it against is a
    :class:`~repro.errors.ConfigurationError` here, before the caller has
    touched any state of its own: a tick that is not finite or a count that
    is not an integer (naming field and value), a budget below one, a
    deadline before the arrival, a prompt that is not one row of integer
    token ids (naming its dtype and shape: floats, bools and matrices are
    refused, never truncated or flattened).
    """
    if isinstance(request, Request):
        if (
            max_new_tokens is not None
            or arrival_time != 0.0
            or priority != 0
            or deadline is not None
        ):
            raise ConfigurationError(
                "pass max_new_tokens/arrival_time/priority/deadline on the "
                "Request itself, not as submit() keywords alongside one"
            )
        max_new_tokens = request.max_new_tokens
        arrival_time = request.arrival_time
        priority = request.priority
        deadline = request.deadline
        request = request.prompt
    for name, count in (("max_new_tokens", max_new_tokens), ("priority", priority)):
        if count is not None and not isinstance(count, numbers.Integral):  # int() would round it
            raise ConfigurationError(f"{name} must be an integer, got {count!r}")
    for name, tick in (("arrival_time", arrival_time), ("deadline", deadline)):
        if tick is not None and not math.isfinite(tick):  # no clock orders or reaches it
            raise ConfigurationError(f"{name} must be a finite tick, got {tick!r}")
    if max_new_tokens is not None and max_new_tokens < 1:
        raise ConfigurationError("max_new_tokens must be >= 1")
    if deadline is not None and deadline < arrival_time:
        raise ConfigurationError("deadline must not precede arrival_time")
    prompt = np.asarray(request)
    # An empty prompt is float64 to ``asarray``: the scheduler refuses it for its length.
    if prompt.ndim != 1 or (prompt.dtype.kind not in "iu" and prompt.size):
        raise ConfigurationError(
            f"prompt must be a 1-D array of integer token ids, got dtype {prompt.dtype} shape {prompt.shape}"
        )
    return Request(
        prompt=prompt.astype(np.int64, copy=False),
        max_new_tokens=max_new_tokens,
        arrival_time=arrival_time,
        priority=int(priority),
        deadline=None if deadline is None else float(deadline),
    )


def _request_output(
    record: RequestCheckpoint,
    reason: str,
    finished_at: float,
    vocab_size: int,
    failure_cause: Optional[str] = None,
) -> RequestOutput:
    """The terminal :class:`RequestOutput` of a record, whatever state it is in."""
    continuation = np.array(record.generated, dtype=np.int64)
    return RequestOutput(
        request_id=int(record.request_id),
        prompt=record.prompt,
        sequence=np.concatenate([record.prompt, continuation]),
        generated=continuation,
        prompt_length=len(record.prompt),
        step_logits=(
            np.stack(record.step_logits)
            if record.step_logits
            else np.zeros((0, vocab_size), dtype=np.float64)
        ),
        num_steps=len(continuation),
        finish_reason=reason,
        admitted_at=record.admitted_at,
        finished_at=finished_at,
        prefix_hit_tokens=record.prefix_hit_tokens,
        spec_proposed_tokens=record.spec.proposed_tokens if record.spec else 0,
        spec_accepted_tokens=record.spec.accepted_tokens if record.spec else 0,
        priority=record.priority,
        arrival_time=record.arrival_time,
        first_token_at=record.first_token_at,
        preemptions=record.preemptions,
        failure_cause=failure_cause,
        retries=record.retries,
    )

