"""Continuous-batching scheduler: the serving loop behind every frontend.

No request waits for the slowest member of a fixed batch: the
:class:`Scheduler` treats the batch as a set of *slots* over a shared
:class:`~repro.serve.paged_kv_cache.PagedKVCache`:

* requests are **admitted** from a FIFO queue the moment a slot and enough
  KV blocks are free,
* each **decode iteration** runs one batched
  :meth:`~repro.models.inference.TransformerRunner.decode_step` over exactly
  the currently active slots (ragged positions are fine — every slot sits at
  its own sequence position; for Tender runners this scattered-position
  batch is exactly the shape the fast Index-Buffer kernels of
  :mod:`repro.core.kernels` are built for, so the decode loop pays one
  packed-table gather per projection instead of a Python loop over row
  chunks), and
* finished requests are **evicted mid-flight**, their blocks are reclaimed
  immediately, and the freed slot is backfilled by the next waiting request
  on the following iteration.

Two serving-cost levers ride on top of that loop:

* ``prefix_cache=True`` — **shared-prompt KV reuse**.  At admission the
  prompt is matched against the pool's radix of published block identities
  (:meth:`PagedKVCache.match_prefix`); every fully matched block is mapped
  into the new slot by reference instead of being recomputed, the head the
  next block shares with a published one is copied into the slot's first
  fresh block, and only the prompt *suffix* (always at least the final
  token, whose logits seed sampling) is prefilled.  Completed prefills
  publish their blocks back into the radix, freed requests leave them
  matchable on the LRU free-list, and writes into still-shared blocks fork a
  private copy (copy-on-write).
* ``prefill_chunk=N`` — **chunked prefill**.  Every :meth:`Scheduler.step`
  has one prefill budget of ``N`` prompt tokens — unbounded when ``None`` —
  spent on the records already prefilling, oldest first, then on each
  admission as it is admitted; whatever it does not cover waits for the next
  step's, so a small ``N`` keeps active requests decoding every step while
  long prompts trickle in.

One request is one record from :meth:`Scheduler.submit` to its
:class:`~repro.serve.request.RequestOutput` (see :mod:`repro.serve.request`),
and :class:`~repro.serve.stats.SchedulerStats` counts what serving it cost.

A **resume** is the admission of a record that already holds sampled tokens
(a preemption replay, a :meth:`Scheduler.submit_checkpoint` recovery): it
replays ``prompt + generated[:-1]`` into the cache and samples nothing.
Rows nobody samples *ride* the step's decode forward instead of running one
of their own: a chunk that leaves its prompt or replay unfinished, as a
sequence of its own (:meth:`Scheduler._advance_prefill`), and a resume left
with less than one block to compute, in front of its pending token
(:meth:`Scheduler._admit_next`).

Determinism and parity are load-bearing: each request samples from its *own*
``numpy`` generator seeded with :attr:`GenerationConfig.seed` (built on its
first top-k draw), and a row's result depends on its position, not on the
rows sharing its forward, so a request's output is independent of what it
happens to share the batch with.  For Tender's
integer pipeline the per-request outputs are bit-identical to running the
request alone — *including* with ``prefix_cache=True``: cached KV blocks
hold exactly the values a cold prefill would recompute (integer kernels are
exact and row-independent), so hits, copy-on-write forks, and
evicted-then-recomputed prefixes all leave the token stream unchanged
(``tests/serve/test_prefix_cache.py``).  The FP baseline's logits differ
only by BLAS row-blocking noise (~1e-15) while its sampled tokens stay
identical; Tender ``quantize_attention=True`` derives *dynamic* attention
statistics whose operands legitimately depend on the prefill partitioning,
so under prefix hits or chunking it follows a (deliberately) different
per-chunk quantization schedule — the same scoped exception
``tests/serve/test_decode_parity.py`` documents for decode vs full forward.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, ResourceExhaustedError, require_count
from repro.models.inference import TransformerRunner
from repro.serve.paged_kv_cache import PagedKVCache, PrefixMatch, SlotBatchView
from repro.serve.request import (
    GenerationConfig,
    Request,
    RequestCheckpoint,
    RequestOutput,
    _as_request,
    _request_output,
)
from repro.serve.spec import SpecConfig, _SpecState
from repro.serve.stats import SchedulerStats


#: The rows of a request with no replay tail to catch up on, or no proposal.
_NO_TOKENS = np.empty(0, dtype=np.int64)
#: Drafter keys (``RequestCheckpoint.draft_key``): one count for every
#: scheduler in the process, so schedulers sharing a drafter never collide.
_DRAFT_KEYS = itertools.count()


def _committed(record: RequestCheckpoint) -> np.ndarray:
    """The record's prompt followed by every token it committed (the drafter's view)."""
    return np.concatenate([record.prompt, np.array(record.generated, dtype=np.int64)])


def _token_budget(prompt_len: int, max_new_tokens: int, max_seq_len: int) -> int:
    """Per-request token budget: the configured budget, clipped at max_seq_len."""
    return int(min(max_new_tokens, max_seq_len - prompt_len))


def _reserved_positions(prompt_len: int, budget: int) -> int:
    """Cache positions a request can ever write (prompt + budget - 1, >= 1)."""
    return max(prompt_len + budget - 1, 1)


def _sample_token(logits_row: np.ndarray, config: GenerationConfig, rng: np.random.Generator) -> int:
    """Draw one token for one request (greedy or seeded top-k).

    The top-k cut uses a stable descending sort (equal logits keep ascending
    token order), so which tokens sit at a tied k-boundary — and which token
    a given RNG draw yields — is a function of the logits alone, never of
    partition order.  Bit-identical-across-paths guarantees would otherwise
    silently depend on ties not happening.
    """
    if config.top_k == 0:
        return int(np.argmax(logits_row))
    scaled = logits_row / config.temperature
    k = min(config.top_k, scaled.shape[-1])
    top_indices = np.argsort(-scaled, kind="stable")[:k]
    top_scores = scaled[top_indices] - scaled[top_indices].max()
    probabilities = np.exp(top_scores)
    probabilities /= probabilities.sum()
    return int(top_indices[rng.choice(k, p=probabilities)])


class Scheduler:
    """Continuous-batching serving loop over a paged KV cache.

    Parameters
    ----------
    runner : TransformerRunner
        The executor-backed model (any quantization scheme).
    config : GenerationConfig, optional
        Decoding parameters shared by all requests (default: greedy, 32
        tokens).
    max_batch_size : int
        Maximum concurrently admitted requests (prefilling + decoding).
    block_size : int
        Token positions per KV block (see :class:`PagedKVCache`).
    num_blocks : int, optional
        KV pool size; defaults to enough blocks for ``max_batch_size``
        requests at ``max_seq_len``.
    record_logits : bool
        Keep per-step logits in each :class:`RequestOutput` (disable for
        long benchmark traces to save memory).
    prefix_cache : bool
        Reuse published KV blocks across requests that share a prompt
        prefix (see the module docstring).  Off by default; for Tender's
        integer pipeline outputs are bit-identical either way.
    prefill_chunk : int, optional
        The prefill budget of each :meth:`step`, in prompt tokens (see the
        module docstring).  ``None`` (default) is no bound: every admitted
        prompt is prefilled whole, in one forward, at admission.
    speculation : SpecConfig, optional
        Enable speculative decoding (see :mod:`repro.serve.spec`): each
        decode iteration consults the configured drafter per request and
        verifies whole draft runs in its one forward (see
        :meth:`_decode_iteration`), committing through the request's
        ordinary sampling rule so the token stream (and the logits behind
        every committed token) match non-speculative decoding exactly for
        Tender implicit/explicit.
    preemption : bool
        Allow admission to evict a strictly lower-priority victim when the
        head of the queue cannot start (no free slot, or
        :class:`ResourceExhaustedError` from the block pool).  The victim is
        re-queued, and its resume (see the module docstring) is bit-identical
        to an unpreempted run.
    on_token : callable, optional
        ``on_token(request_id, token)`` invoked synchronously for every
        committed token, in commit order — the streaming hook
        :class:`~repro.serve.async_engine.AsyncEngine` feeds per-request
        iterators from.
    tracer : repro.obs.Tracer, optional
        Opt-in request-lifecycle tracing (see :mod:`repro.obs`).  When set,
        the scheduler emits ``request.*`` instants and ``prefill_chunk`` /
        ``decode_step`` / ``verify_step`` spans onto ``trace_track``, and
        shares the tracer with its :class:`PagedKVCache` for ``cache.*``
        events.  The default ``None`` disables tracing completely — every
        emit site is guarded, so the disabled path builds no spans and no
        attribute dicts (counted and gated in ``tools/check_perf_smoke.py``).
    trace_track : str, optional
        Trace track (Perfetto process row) this scheduler emits onto;
        defaults to ``"scheduler"``.  The replica pool names one track per
        replica so fleet traces keep replicas on separate rows.

    Raises
    ------
    ConfigurationError
        For invalid parameters or un-servable requests at :meth:`submit`.

    Examples
    --------
    >>> scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=16))
    >>> scheduler.submit(prompt_tokens)
    0
    >>> outputs = scheduler.run()
    >>> outputs[0].generated
    array([...])
    """

    def __init__(
        self,
        runner: TransformerRunner,
        config: Optional[GenerationConfig] = None,
        max_batch_size: int = 8,
        block_size: int = 16,
        num_blocks: Optional[int] = None,
        record_logits: bool = True,
        prefix_cache: bool = False,
        prefill_chunk: Optional[int] = None,
        speculation: Optional[SpecConfig] = None,
        preemption: bool = False,
        on_token: Optional[Callable[[int, int], None]] = None,
        tracer=None,
        trace_track: Optional[str] = None,
    ) -> None:
        max_batch_size = require_count("max_batch_size", max_batch_size, 1)
        block_size = require_count("block_size", block_size, 1)
        if num_blocks is not None:
            num_blocks = require_count("num_blocks", num_blocks, 1)
        if prefill_chunk is not None:
            prefill_chunk = require_count("prefill_chunk", prefill_chunk, 1)
        if speculation is not None and not isinstance(speculation, SpecConfig):
            raise ConfigurationError("speculation must be a SpecConfig (or None)")
        config, model_config = config or GenerationConfig(), runner.config
        eos, vocab = config.eos_token, model_config.vocab_size
        if eos is not None and eos >= vocab:
            raise ConfigurationError(f"eos_token {eos!r} is outside the model's vocabulary [0, {vocab})")
        self.preemption = bool(preemption)
        self.on_token = on_token
        self.runner = runner
        self.config = config
        self.max_batch_size = max_batch_size
        self.record_logits = record_logits
        self.prefix_cache = bool(prefix_cache)
        self.prefill_chunk = prefill_chunk
        self.speculation = speculation
        if num_blocks is None:
            self.cache = PagedKVCache.for_model(model_config, max_batch_size, block_size)
        else:
            self.cache = PagedKVCache(
                num_layers=model_config.num_layers,
                num_heads=model_config.num_heads,
                d_head=model_config.d_head,
                block_size=block_size,
                num_blocks=num_blocks,
            )
        self.tracer = tracer
        self.trace_track = trace_track if trace_track is not None else "scheduler"
        # The cache reports prefix hits and block allocations onto the same
        # track, so a replica's cache activity renders beside its requests.
        self.cache.tracer = tracer
        self.cache.trace_track = self.trace_track
        self.now = 0.0
        self.stats = SchedulerStats()
        #: Every in-flight request's record by id — queued, prefilling, or
        #: decoding; :meth:`_detach` is the one way out.
        self._requests: Dict[int, RequestCheckpoint] = {}
        #: Min-heap of (priority, arrival_time, request_id, record) over
        #: *arrived* requests: most-urgent class first, FIFO by arrival
        #: within a class, submission order breaking ties.
        self._waiting: List[Tuple[int, float, int, RequestCheckpoint]] = []
        #: Min-heap of (arrival_time, request_id, record) over requests whose
        #: arrival lies in the future; promoted into ``_waiting`` (and into
        #: priority order) once the clock reaches them.
        self._future: List[Tuple[float, int, RequestCheckpoint]] = []
        #: Admitted requests whose prompts are not fully prefilled yet, FIFO.
        self._prefilling: List[RequestCheckpoint] = []
        #: Decoding requests by slot, in the order they finished prefilling.
        self._active: Dict[int, RequestCheckpoint] = {}
        #: The decode forward's view (decoding slots, then the riding one) reused
        #: while its slot list is unchanged (lengths and block index persist).
        self._decode_view: Optional[SlotBatchView] = None
        #: This step's riding chunk: its record and where the chunk ends.
        self._ride: Optional[Tuple[RequestCheckpoint, int]] = None
        self._next_request_id = 0

    # ------------------------------------------------------------------
    # Queue interface
    # ------------------------------------------------------------------
    def submit(
        self,
        request: Union[Request, np.ndarray],
        *,
        max_new_tokens: Optional[int] = None,
        arrival_time: float = 0.0,
        priority: int = 0,
        deadline: Optional[float] = None,
        trace_corr: Optional[str] = None,
    ) -> int:
        """Enqueue a request (or a bare prompt) and return its request id.

        Parameters
        ----------
        request : Request or ndarray
            A full :class:`Request`, or just its prompt token array.
        max_new_tokens, arrival_time, priority, deadline
            Conveniences for the bare-prompt form; passing any alongside
            a full :class:`Request` is rejected (set the fields on the
            request instead) so overrides can never be silently dropped.
        trace_corr : str, optional
            Correlation id stamped on every trace event this request emits
            (default ``"r<request_id>"``).  The replica pool passes its
            pool-level id here so one request's lifecycle stays traceable
            across replica hops.  Ignored while tracing is disabled.

        Returns
        -------
        int
            The request id (monotonically increasing submission order).

        Raises
        ------
        ConfigurationError
            If the prompt is empty, contains out-of-vocabulary ids, leaves
            no room below ``max_seq_len``, can never fit the KV pool, the
            deadline precedes the arrival, a tick is not finite, or a count
            is not an integer (see :func:`~repro.serve.request._as_request`).
        """
        request = _as_request(request, max_new_tokens, arrival_time, priority, deadline)
        prompt = request.prompt
        model_config = self.runner.config
        if prompt.size == 0:
            raise ConfigurationError("prompts must contain at least one token")
        if prompt.min() < 0 or prompt.max() >= model_config.vocab_size:
            raise ConfigurationError("prompt tokens must be valid vocabulary ids")
        if len(prompt) >= model_config.max_seq_len:
            raise ConfigurationError(
                f"prompt ({len(prompt)} tokens) leaves no room below "
                f"max_seq_len {model_config.max_seq_len}"
            )
        record = RequestCheckpoint(**vars(request), seed=self.config.seed)
        return self._accept(record, trace_corr)

    def _accept(self, record: RequestCheckpoint, trace_corr: Optional[str]) -> int:
        """Take ownership of a detached record: id, correlation id, queue.

        The shared tail of :meth:`submit` and :meth:`submit_checkpoint`.
        """
        record.budget = _token_budget(
            len(record.prompt),
            record.max_new_tokens or self.config.max_new_tokens,
            self.runner.config.max_seq_len,
        )
        needed = self.cache.blocks_needed(_reserved_positions(len(record.prompt), record.budget))
        if needed > self.cache.num_blocks:
            raise ConfigurationError(
                f"request needs {needed} KV blocks but the pool only has "
                f"{self.cache.num_blocks}; enlarge num_blocks or block_size"
            )
        record.request_id = self._next_request_id
        self._next_request_id += 1
        record.draft_key = next(_DRAFT_KEYS)
        record.trace_corr = trace_corr if trace_corr is not None else f"r{record.request_id}"
        if self.tracer is not None:
            self.tracer.instant(
                "request.queued",
                self.trace_track,
                record.trace_corr,
                priority=record.priority,
                prompt_len=int(record.prompt.size),
                **({"resumed": True} if record.generated else {}),
            )
        self._requests[record.request_id] = record
        self._enqueue(record)
        return record.request_id

    def _enqueue(self, record: RequestCheckpoint) -> None:
        """Push a record onto the arrived or future heap, as appropriate."""
        if record.arrival_time > self.now:
            heapq.heappush(self._future, (record.arrival_time, record.request_id, record))
        else:
            heapq.heappush(
                self._waiting,
                (record.priority, record.arrival_time, record.request_id, record),
            )

    @property
    def has_pending(self) -> bool:
        """True while any request is waiting, prefilling, or decoding."""
        return bool(self._waiting or self._future or self._prefilling or self._active)

    @property
    def num_active(self) -> int:
        """Requests currently holding a slot (prefilling or decoding)."""
        return len(self._active) + len(self._prefilling)

    @property
    def num_waiting(self) -> int:
        """Requests queued (arrived or future) but not yet admitted."""
        return len(self._waiting) + len(self._future)

    def waiting_requests(self) -> List[Request]:
        """The queued (not yet admitted) requests, in submission order.

        A read-only snapshot for policy layers — the replica-pool router
        reads it to pick the lowest-priority victim when shedding load under
        memory pressure.  Mutate the queue only through :meth:`cancel`,
        :meth:`expire`, :meth:`shed`, or :meth:`checkpoint`.
        """
        queued = [item[-1] for item in self._waiting + self._future]
        return sorted(queued, key=lambda record: record.request_id)

    @classmethod
    def blocks_for_requests(
        cls,
        model_config,
        prompts,
        config: GenerationConfig,
        block_size: int = 16,
        prefix_cache: bool = False,
    ) -> int:
        """KV blocks an exactly-sized pool needs to hold all requests at once.

        Uses the same budget/reservation formulas as admission, so a pool of
        this size can never be under-provisioned for the given prompts.
        With ``prefix_cache=True`` (and actual token arrays in ``prompts``)
        blocks holding a shared, fully-covered prompt prefix are counted
        once — matching the sharing the scheduler achieves when requests are
        admitted in submission order — instead of being over-reserved per
        request.

        Parameters
        ----------
        model_config : TransformerConfig
            Supplies ``max_seq_len``.
        prompts : iterable of (int or ndarray)
            One prompt length — or, for prefix-cache sizing, the prompt
            token array itself — per request.
        config : GenerationConfig
            Supplies the shared ``max_new_tokens`` budget.
        block_size : int
            Token positions per block.
        prefix_cache : bool
            Deduplicate shared prompt-prefix blocks across requests.

        Returns
        -------
        int
        """
        total = 0
        seen: set = set()
        for prompt in prompts:
            tokens: Optional[np.ndarray] = None
            if np.ndim(prompt) == 0:
                prompt_len = int(prompt)
            else:
                tokens = np.ascontiguousarray(np.asarray(prompt, dtype=np.int64).reshape(-1))
                prompt_len = len(tokens)
            budget = _token_budget(prompt_len, config.max_new_tokens, model_config.max_seq_len)
            needed = -(-_reserved_positions(prompt_len, budget) // block_size)
            if prefix_cache and tokens is not None:
                # Blocks fully covered by the prompt *and* not holding its
                # final token (which is always recomputed, forcing a private
                # copy) are shared with any earlier identical prefix.
                for full in range(1, (prompt_len - 1) // block_size + 1):
                    key = tokens[: full * block_size].tobytes()
                    if key in seen:
                        needed -= 1
                    else:
                        seen.add(key)
            total += needed
        return max(total, 1)

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------
    def step(self) -> List[RequestOutput]:
        """Run one scheduler iteration: the phases below, top to bottom.

        The only method a forward is reached from.  Wake (with nothing to
        serve the clock jumps to the next arrival, so a ``while
        scheduler.has_pending: scheduler.step()`` loop always makes
        progress), expire, spend the one prefill budget (see the module
        docstring) on continuing prefills and then on admissions, and run
        the decode half: every active request's rows and the riding chunk's
        in one forward.  The clock ticks once per chunk, as it is decided,
        and once per decode iteration, and no pending ride outlives the step.

        Returns
        -------
        list of RequestOutput
            Requests that finished during this iteration (possibly empty).
        """
        finished: List[RequestOutput] = []
        self._wake()
        self._expire_deadlines(finished)
        budget = self._continue_prefills(self.prefill_chunk or math.inf, finished)
        self._promote_arrivals()  # the continuing chunks ticked the clock
        self._prefill_admissions(budget, finished)
        if self._active or self._ride is not None:
            self._decode_iteration(finished)
        return finished

    def run(self) -> List[RequestOutput]:
        """Serve until every submitted request has finished.

        Returns
        -------
        list of RequestOutput
            All outputs, in completion order (sort by ``request_id`` for
            submission order).
        """
        outputs: List[RequestOutput] = []
        while self.has_pending:
            before = self._progress()
            outputs.extend(self.step())
            if self._progress() == before:  # pragma: no cover - defensive livelock guard
                raise ResourceExhaustedError(
                    "scheduler made no progress; the KV pool is too small for "
                    "the waiting request"
                )
        return outputs

    def _progress(self) -> Tuple:
        """What any step that did something changes (the livelock guard's signature)."""
        queues = (self._waiting, self._future, self._prefilling, self._active)
        return (self.now, self.stats.total_iterations, *map(len, queues))

    # ------------------------------------------------------------------
    # The phases of a step, in the order step() reaches them
    # ------------------------------------------------------------------
    def _promote_arrivals(self) -> None:
        """Move future-queue records whose arrival has come into priority order."""
        while self._future and self._future[0][0] <= self.now:
            self._enqueue(heapq.heappop(self._future)[-1])

    def _wake(self) -> None:
        """Promote arrivals; with nothing to serve, jump to the next one (``stats.idle_time``)."""
        self._promote_arrivals()
        if not (self._active or self._prefilling or self._waiting) and self._future:
            next_arrival = self._future[0][0]
            self.stats.idle_time += next_arrival - self.now
            self.now = next_arrival
            self._promote_arrivals()

    def _expire_deadlines(self, finished: List[RequestOutput]) -> None:
        """Retire waiting requests whose admission deadline has passed.

        Only never-started requests expire (``now > deadline``): a preempted
        request already held a slot (and usually sampled tokens), and
        dropping it would turn a scheduling decision into data loss.  Expiry
        is evaluated once per step, before the step's first forward, so a
        request whose deadline tick is *reachable* is always offered
        admission by the step that begins at that tick before it can expire.
        """
        overdue = [
            record
            for *_, record in self._waiting
            if record.deadline is not None
            and self.now > record.deadline
            and record.admitted_at < 0
            and not record.generated
        ]
        finished.extend(self.expire(record.request_id) for record in overdue)

    def _continue_prefills(self, budget: float, finished: List[RequestOutput]) -> float:
        """Spend ``budget`` on the records already prefilling, oldest first; return what is left."""
        while budget > 0 and self._prefilling:
            budget -= self._advance_prefill(self._prefilling[0], budget, finished)
        return budget

    def _prefill_admissions(self, budget: float, finished: List[RequestOutput]) -> None:
        """Admit while the head of the queue can start, prefilling each as it is admitted.

        Interleaved on purpose: a prefill that completes publishes its
        blocks before the next admission's ``match_prefix``, and a request
        that finishes on its first token frees its slot within the pass.  An
        admission that finds ``budget`` spent waits in ``_prefilling`` for
        the next step's; a rider (:meth:`_admit_next`) never draws on it.
        Arrivals are not re-promoted between admissions.
        """
        while (record := self._admit_next()) is not None:
            if budget > 0 and record.slot not in self._active:
                budget -= self._advance_prefill(record, budget, finished)

    def _admit_next(self) -> Optional[RequestCheckpoint]:
        """Admit the head of the waiting queue; ``None`` when nothing can start.

        A decision, never a forward.  Admission is strictly in (priority,
        arrival_time, request_id) order and stops at the first request that
        cannot start — a head-of-line request waiting for blocks is never
        overtaken by a cheaper same-priority later one, which is what makes
        starvation within a class impossible.  With ``prefix_cache`` the
        prompt is matched against the radix of published block identities
        first, so a request may need far fewer fresh blocks than its
        reservation suggests, and the prefill starts past the matched blocks
        *and* the partial head :meth:`PagedKVCache.reserve` copies into the
        first fresh one (``prefix_hit_tokens`` counts both).  With
        ``preemption=True`` a head that cannot start evicts strictly
        lower-priority victims (worst first) until it fits or none remain.

        A resume (see the module docstring) left with fewer than
        ``block_size`` replay rows after the match *rides*: it joins the
        decode set with that tail pending (``replay[prefill_pos:]``) — no
        forward, no clock tick, none of the prefill budget.  The threshold
        is the pool's granularity, not a knob: a ride adds at most one
        block's rows to a decode forward, which is what a resume leaves when
        every whole block of its replay hit (a copied head only shortens
        it), while one that missed a whole block (evicted prefix, cache off,
        another replica's record) mostly has a block or more to recompute
        and is the prefill it always was.  A ride evicted again later in the
        same pass goes back to the queue with nothing forwarded: its cache
        length never advanced.
        """
        block_size = self.cache.block_size
        while self._waiting:
            record = self._waiting[0][-1]
            if self.num_active >= self.max_batch_size:
                if not self._preempt_for(record):
                    break
                continue  # a slot freed; retry the same head
            tokens = record.replay_tokens()
            matched = self.cache.match_prefix(tokens) if self.prefix_cache else PrefixMatch()
            # The final replayed token is always recomputed — its logits (or,
            # on resume, its KV write position) seed the next step — so a hit
            # is capped at len(tokens) - 1 (the partial head stops short of it)
            # and a fully-matched final block must become a private (COW) copy.
            start = min(len(matched) * block_size, len(tokens) - 1) + matched.partial_tokens
            try:
                slot = self.cache.reserve(
                    _reserved_positions(len(record.prompt), record.budget),
                    shared=matched,
                    private_tail=start < len(matched) * block_size,
                    partial=matched.partial,
                )
            except ResourceExhaustedError:
                if self._preempt_for(record):
                    continue  # victim blocks went back to the pool; retry
                break
            heapq.heappop(self._waiting)
            self.cache.set_length(slot, start)
            record.slot = slot
            if record.admitted_at < 0:
                # The first admission on this scheduler; preempted records
                # keep their original tick.
                record.admitted_at = self.now
            if self.speculation is not None and record.spec is None:
                record.spec = _SpecState(draft_len=self.speculation.draft_tokens)
            record.replay = tokens
            record.prefill_pos = start
            record.prefix_hit_tokens += start
            self.stats.prefix_hit_tokens += start
            if self.tracer is not None:
                self.tracer.instant(
                    "request.admitted",
                    self.trace_track,
                    record.trace_corr,
                    slot=slot,
                    prefix_hit=start,
                    replay=bool(record.preemptions or record.generated),
                )
            if record.generated and len(tokens) - start < block_size:
                self._active[slot] = record  # rides this step's decode forward
            else:
                self._prefilling.append(record)
            self.stats.peak_active = max(self.stats.peak_active, self.num_active)
            return record
        return None

    def _preempt_for(self, head: Request) -> bool:
        """Evict one strictly lower-priority victim to make room for ``head``.

        The victim is the *worst* active request — highest priority value,
        then latest admission, then latest id — so repeated calls while one
        head retries its reservation peel victims in least-valuable-first
        order.  Returns False (and preempts nothing) when preemption is
        disabled or no strictly lower-priority victim exists; admission then
        stops exactly as without preemption.  A victim's pending ride runs
        first, alone, so :meth:`_preempt` publishes what the chunk computed.
        """
        if not self.preemption:
            return False
        candidates = [
            record
            for record in list(self._active.values()) + self._prefilling
            if record.priority > head.priority
        ]
        if not candidates:
            return False
        victim = max(candidates, key=lambda r: (r.priority, r.admitted_at, r.request_id))
        if self._ride is not None and self._ride[0] is victim:
            self._decode_iteration([], decoding=False)
        self._preempt(victim)
        return True

    def _preempt(self, record: RequestCheckpoint) -> None:
        """Detach one admitted request from its slot and re-queue it for replay.

        The record itself goes back on the waiting heap — generated tokens,
        recorded logits, RNG, speculation counters and all — which is what
        keeps the eventual output bit-identical to an unpreempted run.
        """
        if self.prefix_cache:
            # Publish every fully-committed block — including blocks the
            # victim *generated*, which ordinary serving never publishes —
            # right before freeing them.  They land at the matchable back of
            # the LRU, so the replay re-maps the victim's whole context (bar
            # the partial tail block) instead of re-prefilling it; the
            # content is a pure function of the tokens, so sharers and the
            # resumed victim alike read exactly the bytes a cold prefill
            # would produce.
            committed = self.cache.length_of(record.slot)
            if committed:
                self.cache.publish_prefix(record.slot, record.replay_tokens()[:committed])
        self._vacate(record)
        record.preemptions += 1
        self.stats.preemptions += 1
        if self.tracer is not None:
            self.tracer.instant(
                "request.preempted",
                self.trace_track,
                record.trace_corr,
                committed=len(record.generated),
                preemptions=record.preemptions,
            )
        self._enqueue(record)

    def _advance_prefill(
        self, record: RequestCheckpoint, budget: float, finished: List[RequestOutput]
    ) -> int:
        """Prefill up to ``budget`` prompt tokens of one request; return how many.

        A chunk that leaves the replay unfinished samples nothing: it spends
        the budget and rides this step's decode forward.  The last chunk is
        one batch-of-one forward: the prefix blocks are published, a fresh
        prompt's first token is sampled, and the request joins the decode
        batch.  Either way the clock ticks as the chunk is decided.
        """
        tokens = record.replay
        begin = record.prefill_pos
        end = min(len(tokens), begin + budget)
        tracer = self.tracer
        if end < len(tokens):
            self._ride = (record, end)
            if tracer is not None:
                tracer.instant("prefill_chunk", self.trace_track, record.trace_corr, start=begin, tokens=end - begin)
            self.stats.prefill_iterations += 1
            self.stats.prefill_tokens += end - begin
            self.now += 1.0
            return end - begin
        view = self.cache.view([record.slot])
        samples = not record.generated
        if tracer is not None:
            tracer.begin(
                "prefill_chunk",
                self.trace_track,
                record.trace_corr,
                start=begin,
                tokens=int(end - begin),
            )
        try:
            logits = self.runner.prefill(
                tokens[None, begin:],
                np.array([end - begin]),
                view,
                start_positions=np.array([begin]),
                return_logits=samples,
            )
            view.commit()
        finally:
            if tracer is not None:
                tracer.end(self.trace_track)
        self.stats.prefill_iterations += 1
        self.stats.prefill_tokens += end - begin
        self.now += 1.0
        self._prefilling.remove(record)
        self._replay_complete(record)
        self._active[record.slot] = record
        self._decode_view = None  # the cached view may hold this slot as a rider, at its ride's length
        if samples:
            reason = self._commit(record, logits, self._picks(logits))[1]
            if reason is not None:
                self._finalize(record, reason, finished)
        return end - begin

    def _replay_complete(self, record: RequestCheckpoint) -> None:
        """The cache now holds all of ``record.replay``: publish it for sharing, drop it."""
        if self.prefix_cache:
            self.cache.publish_prefix(record.slot, record.replay)
        record.replay = None

    def _draft(self, state: RequestCheckpoint) -> np.ndarray:
        """``state``'s proposal for this iteration: up to ``draft_len`` tokens, possibly none.

        ``remaining - 1`` caps it: accepting every draft plus the sampled
        bonus commits at most ``remaining`` new tokens, and the admission-time
        reservation holds exactly that many writes.
        """
        cap = min(state.spec.draft_len, state.budget - len(state.generated) - 1)
        if cap < 1:
            return _NO_TOKENS
        proposal = self.speculation.drafter.propose(state.draft_key, _committed(state), cap)
        return np.asarray(proposal, dtype=np.int64).reshape(-1)[:cap]

    def _decode_iteration(self, finished: List[RequestOutput], decoding: bool = True) -> None:
        """The decode half of a step: assemble rows, one forward, commit.

        Every sequence contributes ``[owed..., pending, drafts...]``: the
        rows it owes the cache (a riding resume's tail, :meth:`_admit_next`;
        the riding chunk, a sequence of nothing else), its already-sampled
        next token, and — under speculation — its *own* proposal
        (:meth:`_draft`; none is a plain decode row).  No row is computed,
        or written to the cache, for another row's depth.  One row each is an
        ordinary batched
        :meth:`~repro.models.inference.TransformerRunner.decode_step`, so
        neither speculation nor riding costs traffic that has neither;
        anything else is one ragged
        :meth:`~repro.models.inference.TransformerRunner.verify` over exactly
        those rows, asked (``logit_rows``) only for the logits something is
        sampled from when rows are owed.  With no active request (or
        ``decoding=False``: :meth:`_preempt_for`) the chunk runs alone and
        books no decode iteration.

        A tail completes its replay as a prefill's last chunk would —
        publish, then commit — so a request that finishes in the forward it
        rode publishes before its slot is freed.  Rejected draft positions
        are rolled back with :meth:`PagedKVCache.truncate`: blocks are kept
        (``min_capacity`` = the reservation, so reserve-once survives) and
        only the slot's length moves — no row sees the rolled-back bytes.
        """
        states = list(self._active.values()) if decoding else []
        ride, self._ride = self._ride, None
        batch, slots = len(states), [state.slot for state in states]
        if ride is not None:
            slots.append(ride[0].slot)
        view = self._decode_view
        if view is None or view.slot_ids != slots:  # rebuilt only when the slot list changed
            view = self._decode_view = self.cache.view(slots)
        riders = [state for state in states if state.replay is not None]
        drafts, rows, tail_rows = [_NO_TOKENS] * batch, batch, 0
        if riders or ride is not None or self.speculation is not None:  # else one row each: nothing to lay out
            owed = [_NO_TOKENS if s.replay is None else s.replay[s.prefill_pos :] for s in states]
            if self.speculation is not None:
                drafts = [self._draft(state) for state in states]
            pieces = [piece for s, tail, draft in zip(states, owed, drafts) for piece in (tail, s.generated[-1:], draft)]
            lengths = [len(tail) + 1 + len(draft) for tail, draft in zip(owed, drafts)]
            if ride is not None:  # one more sequence: the chunk's rows, nothing sampled
                pieces.append(ride[0].replay[ride[0].prefill_pos : ride[1]])
                lengths.append(len(pieces[-1]))
            rows, tail_rows = sum(lengths), sum(map(len, owed))
        drafted = sum(map(len, drafts))
        tracer = self.tracer
        if tracer is not None:
            ragged = {"rows": rows} if rows > batch else {}
            tracer.begin(
                "verify_step" if drafted else "decode_step", self.trace_track, batch=batch, **ragged
            )
        try:
            if rows == batch:
                tokens = np.array([state.generated[-1] for state in states], dtype=np.int64)
                logits = self.runner.decode_step(tokens, view)
            else:
                tokens = np.concatenate(pieces)
                # Nothing is sampled from an owed row; without one every row's logits are wanted.
                read = {}
                if tail_rows or ride is not None:
                    read["logit_rows"] = [len(draft) + 1 for draft in drafts] + [0] * (ride is not None)
                # Handed over as one (1, rows) row, which verify() flattens: the
                # benchmark's span probe reads a 2-D np.shape() off this argument.
                logits = self.runner.verify(
                    tokens[None, :],
                    view,
                    view.lengths.copy(),
                    lengths=np.array(lengths, dtype=np.int64),
                    **read,
                )
            # The runner advanced every row by its own length; commit that
            # high-water mark first so truncate() knows how far the optimistic
            # writes reached, then roll each row back to what its sampling
            # rule actually committed.
            view.commit()
        finally:
            if tracer is not None:
                tracer.end(self.trace_track)
        if ride is not None:
            ride[0].prefill_pos = ride[1]
        self.stats.prefill_tokens += tail_rows
        self.stats.resume_tail_rows += tail_rows
        if not batch:
            return
        self.stats.decode_iterations += 1
        self.stats.decode_slot_steps += batch
        self.stats.ridden_chunks += ride is not None
        if drafted:
            self.stats.spec_verify_iterations += 1
            self.stats.spec_verify_rows += batch + drafted
        self.now += 1.0
        for state in riders:
            self._replay_complete(state)
        picks = self._picks(logits)
        stop = 0
        for row, (state, draft) in enumerate(zip(states, drafts)):
            width = len(draft) + 1
            start, stop = stop, stop + width
            committed, reason = self._commit(
                state, logits[start:stop], None if picks is None else picks[start:stop], draft
            )
            if reason is not None:
                self._finalize(state, reason, finished)
            elif committed < width:
                kept = int(view.lengths[row]) - (width - committed)
                self.cache.truncate(
                    state.slot, kept, min_capacity=self.cache.capacity_of(state.slot)
                )
                view.lengths[row] = kept

    def _picks(self, logits: np.ndarray) -> Optional[List[int]]:
        """Every row's greedy token from one ``argmax`` (ties: the first index); ``None`` under top-k."""
        return logits.argmax(axis=-1).tolist() if self.config.top_k == 0 else None

    def _commit(
        self, record: RequestCheckpoint, logits_rows: np.ndarray, picks: Optional[List[int]], draft: Sequence[int] = ()
    ) -> Tuple[int, Optional[str]]:
        """Sample and commit tokens for one request, left to right.

        The one commit path: a prefill's final logits and a plain decode
        step commit one row with no draft; a verification forward commits a
        run.  Position ``j``'s token is ``picks[j]`` under greedy decoding
        (:meth:`_picks` of the rows), else sampled from ``logits_rows[j]``
        exactly as a sequential decode step would have sampled it (same
        logits, same per-request generator state) — so the committed stream
        is identical to non-speculative decoding, and the run simply stops
        at the first token the drafter failed to predict.  Every position
        of ``draft`` is a genuine proposal and feeds the accept-rate EMA and
        the ``spec_*`` statistics.

        Returns
        -------
        tuple of (int, str or None)
            Committed token count and the finish reason (``None`` while the
            request stays active; the caller finalizes).
        """
        proposed = len(draft)
        committed = 0
        accepted = 0
        reason: Optional[str] = None
        eos = self.config.eos_token
        for position in range(proposed + 1):
            if picks is None:
                token = _sample_token(logits_rows[position], self.config, record.sampler())
            else:
                token = picks[position]
            record.generated.append(token)
            self.stats.generated_tokens += 1
            if record.first_token_at < 0:
                record.first_token_at = self.now
                if self.tracer is not None:
                    self.tracer.instant(
                        "request.first_token", self.trace_track, record.trace_corr
                    )
            if self.on_token is not None:
                self.on_token(int(record.request_id), int(token))
            if self.record_logits:
                record.step_logits.append(
                    np.asarray(logits_rows[position], dtype=np.float64).copy()
                )
            committed += 1
            matched = position < proposed and token == int(draft[position])
            accepted += matched
            if eos is not None and token == eos:
                reason = "eos"
                break
            if len(record.generated) >= record.budget:
                reason = "length"
                break
            if not matched:
                break
        if proposed:
            self.stats.spec_proposed_tokens += proposed
            self.stats.spec_accepted_tokens += accepted
            record.spec.observe(proposed, accepted, self.speculation)
            if self.tracer is not None:
                self.tracer.instant(
                    "spec.accept",
                    self.trace_track,
                    record.trace_corr,
                    proposed=proposed,
                    accepted=accepted,
                )
        return committed, reason

    def _finalize(
        self, record: RequestCheckpoint, reason: str, finished: List[RequestOutput]
    ) -> None:
        """Evict a finished request: free its blocks, emit its output."""
        self._detach(record.request_id)
        self.stats.completed_requests += 1
        if record.first_token_at >= 0:
            self.stats.ttft_by_class.setdefault(record.priority, []).append(
                record.first_token_at - record.arrival_time
            )
            steps = len(record.generated)
            if steps > 1:
                self.stats.tpot_by_class.setdefault(record.priority, []).append(
                    (self.now - record.first_token_at) / (steps - 1)
                )
        finished.append(self._finish(record, reason))

    def _finish(
        self, record: RequestCheckpoint, reason: str, failure_cause: Optional[str] = None
    ) -> RequestOutput:
        """Terminal output of a detached record (emits ``request.finished``)."""
        if self.tracer is not None:
            self.tracer.instant(
                "request.finished",
                self.trace_track,
                record.trace_corr,
                reason=reason,
                tokens=len(record.generated),
            )
        return _request_output(
            record, reason, self.now, self.runner.config.vocab_size, failure_cause
        )

    # ------------------------------------------------------------------
    # Leaving the scheduler
    # ------------------------------------------------------------------
    def _detach(self, request_id: int) -> RequestCheckpoint:
        """Take a request out of the scheduler, wherever it is.

        The one exit shared by completion, cancel / expire / shed, and
        checkpointing.  A queued record leaves its heap; an admitted one is
        vacated (:meth:`_vacate`).  Either way the drafter releases the
        request's key — once: preemption vacates without leaving — and
        the record comes back with ``slot == -1`` and no views, ready to be
        finished or handed to another scheduler.

        Raises
        ------
        ConfigurationError
            If the request is not in flight — already finished, already
            detached, or unknown.
        """
        request_id = int(request_id)
        record = self._requests.pop(request_id, None)
        if record is None:
            raise ConfigurationError(
                f"request {request_id} is not in flight (already finished, "
                "already released, or never submitted)"
            )
        if record.slot >= 0:
            self._vacate(record)
        else:
            for queue in (self._waiting, self._future):
                kept = [item for item in queue if item[-1] is not record]
                if len(kept) != len(queue):
                    queue[:] = kept
                    heapq.heapify(queue)
                    break
        if self.speculation is not None:
            self.speculation.drafter.release(record.draft_key, _committed(record))
        return record

    def _vacate(self, record: RequestCheckpoint) -> None:
        """Free an admitted record's slot: its KV blocks go back to the pool.

        The record leaves the prefill queue or the decode set, published
        blocks stay LRU-matchable, and the cached batch views are
        invalidated; the freed slot is backfilled by the next admission.
        """
        if self._active.pop(record.slot, None) is None:
            self._prefilling.remove(record)
        self._decode_view = None
        self.cache.free(record.slot)
        record.slot = -1
        record.replay = None
        record.prefill_pos = 0

    def release_request(self, request_id: int) -> RequestCheckpoint:
        """Evict an admitted request from its slot, freeing all its KV blocks.

        :meth:`_detach` restricted to requests that hold a slot: the caller
        takes the record and the scheduler forgets the request.

        Returns
        -------
        RequestCheckpoint
            The request's record (its ``slot`` is reset to ``-1``).

        Raises
        ------
        ConfigurationError
            If the request is not currently admitted — already finished,
            already released (double release), still waiting, or unknown.
        """
        record = self._requests.get(int(request_id))
        if record is None or record.slot < 0:
            raise ConfigurationError(
                f"request {request_id} is not admitted (already finished, "
                "already released, still waiting, or never submitted)"
            )
        return self._detach(request_id)

    def cancel(self, request_id: int) -> RequestOutput:
        """Withdraw a request wherever it is and free everything it holds.

        A waiting request is removed from its queue; an admitted one is
        evicted from its slot (all KV blocks freed).  Either way the
        returned output carries ``finish_reason="cancelled"`` and whatever
        tokens were committed before the cancellation — cancelled outputs
        are returned here, never from :meth:`step`.

        Raises
        ------
        ConfigurationError
            If the request is unknown or already finished.
        """
        output = self._finish(self._detach(request_id), "cancelled")
        self.stats.cancelled_requests += 1
        return output

    def expire(self, request_id: int) -> RequestOutput:
        """Retire a request through the deadline path, keeping partial work.

        The caller-side twin of the admission-deadline sweep: the returned
        output carries ``finish_reason="expired"`` plus whatever tokens were
        committed before the expiry.  :class:`~repro.serve.async_engine.RequestStream`
        uses it when a per-token ``timeout=`` elapses, so a stalled serving
        loop can never hang a consumer.

        Raises
        ------
        ConfigurationError
            If the request is unknown or already finished.
        """
        output = self._finish(self._detach(request_id), "expired")
        self.stats.expired_requests += 1
        return output

    def shed(self, request_id: int, cause: str = "shed") -> RequestOutput:
        """Drop a request under resource pressure (``finish_reason="degraded"``).

        Graceful degradation: instead of crashing (or livelocking) when the
        pool cannot serve everyone, the caller — typically the replica-pool
        router — sheds the least valuable request.  Committed tokens are
        kept in the returned output, every block is freed, and the drop is
        tallied in ``stats.degraded_requests`` and, by structured ``cause``,
        in ``stats.degraded_causes``; the output carries the cause in its
        ``failure_cause`` field.

        Raises
        ------
        ConfigurationError
            If the request is unknown or already finished.
        """
        output = self._finish(self._detach(request_id), "degraded", failure_cause=cause)
        self.stats.degraded_requests += 1
        self.stats.degraded_causes[cause] = self.stats.degraded_causes.get(cause, 0) + 1
        return output

    # ------------------------------------------------------------------
    # Checkpoint / recovery interface
    # ------------------------------------------------------------------
    def checkpoint(self, request_id: int) -> RequestCheckpoint:
        """Detach one request and hand out its record for resumption elsewhere.

        An admitted request is evicted first (all its KV blocks return to
        the pool); a waiting one is removed from its queue.  The returned
        record carries the committed tokens, their recorded logits, and the
        sampling generator itself, so :meth:`submit_checkpoint` on *any*
        scheduler over the same model and :class:`GenerationConfig`
        continues the request bit-identically.  This scheduler forgets the
        request: a second checkpoint (or cancel) of the same id raises.

        Raises
        ------
        ConfigurationError
            If the request is unknown or already finished.
        """
        return self._detach(request_id)

    def checkpoint_all(self) -> List[RequestCheckpoint]:
        """Checkpoint every in-flight request, in submission (id) order.

        The replica pool's crash-recovery sweep: after this the scheduler
        holds no requests and every KV block is free, while each returned
        record can be re-admitted elsewhere via :meth:`submit_checkpoint`.
        """
        return [self.checkpoint(request_id) for request_id in sorted(self._requests)]

    def submit_checkpoint(
        self,
        checkpoint: RequestCheckpoint,
        *,
        delay: float = 0.0,
        trace_corr: Optional[str] = None,
    ) -> int:
        """Re-queue a checkpointed request on this scheduler; return its new id.

        The record joins the waiting heap like any other.  If it holds
        tokens its admission is a resume (see the module docstring), so the
        finished output is bit-identical to an uninterrupted run, and it
        keeps its place in class FIFO order (its original ``arrival_time``,
        pushed back only by ``delay``).  A record without tokens is re-timed
        on this scheduler's clock and keeps its original deadline (it can
        still expire — a crash does not extend an admission deadline).

        Parameters
        ----------
        checkpoint : RequestCheckpoint
            A record from :meth:`checkpoint` on a compatible scheduler
            (same model shape and :class:`GenerationConfig`).  This
            scheduler takes it over; the caller must not reuse it.
        delay : float
            Extra scheduler ticks before the re-admitted request becomes
            admissible — the replica pool's exponential-backoff knob.
        trace_corr : str, optional
            Correlation id for the re-admitted request's trace events (see
            :meth:`submit`) — the pool passes the original pool-level id so
            a recovery hop extends the request's existing lifecycle instead
            of starting a fresh one.

        Returns
        -------
        int
            The request id assigned on *this* scheduler.

        Raises
        ------
        ConfigurationError
            If ``delay`` is negative or not finite, or the request can never
            fit this scheduler's KV pool.
        """
        if not 0.0 <= delay < math.inf:  # nan fails both comparisons
            raise ConfigurationError(f"delay must be a finite tick >= 0, got {delay!r}")
        arrival = self.now + float(delay)
        checkpoint.arrival_time = (
            max(checkpoint.arrival_time, arrival) if checkpoint.started else arrival
        )
        if checkpoint.deadline is not None:
            checkpoint.deadline = max(checkpoint.deadline, checkpoint.arrival_time)
        checkpoint.admitted_at = -1.0  # restarts on this scheduler's clock
        return self._accept(checkpoint, trace_corr)
