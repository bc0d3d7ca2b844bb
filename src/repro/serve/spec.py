"""Speculative decoding: draft-and-verify serving over the paged KV cache.

Plain autoregressive decode advances one token per model forward — the
sequential bottleneck of serving.  Speculative decoding breaks it by
splitting each iteration into two asymmetric halves:

* a cheap **drafter** proposes ``k`` continuation tokens for a request, and
* the target model **verifies** the whole run in *one* forward
  (:meth:`repro.models.inference.TransformerRunner.verify`), scoring every
  draft position plus a *bonus* position after a fully accepted run.

Tokens are then committed left to right through the request's ordinary
sampling rule: position ``j``'s token is sampled (greedy or seeded top-k)
from the verified logits, and the run continues while the sampled token
equals the drafted one.  Because the verify forward reproduces the exact
per-position logits of the sequential decode steps it replaces (the same
position-calibrated partial-prefill machinery chunked prefill runs on), the
committed token stream — and the logits behind every committed token — is
*identical* to non-speculative decoding for executors with static matmul
parameters (Tender implicit/explicit); speculation only changes how many
forwards it takes.  Rejected draft positions are rolled back through
:meth:`repro.serve.paged_kv_cache.PagedKVCache.truncate`.

Two drafters ship here:

* :class:`PromptLookupDraft` — zero-cost lookup: the tokens that followed
  the request's context before are proposed, found in the request's own
  prompt + generated tokens (vLLM-style prompt lookup) or in any sequence
  the drafter served before or serves beside it (as SuffixDecoding and
  REST draft from earlier outputs).  Free to run, and extremely effective
  on extractive, repetitive or repeated generations.
* :class:`ModelDraft` — a smaller :class:`~repro.models.inference.TransformerRunner`
  (e.g. a truncated-layer copy, see :meth:`ModelDraft.truncated`) decodes
  the draft greedily over its own one-slot KV pool per request, catching up
  on committed tokens and rolling back rejected ones automatically.

:class:`SpecConfig` wires a drafter into the
:class:`~repro.serve.scheduler.Scheduler`, which adapts each request's
draft length with a per-request accept-rate EMA and interleaves speculative
decode with chunked prefill unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError, require_count
from repro.models.inference import TransformerRunner
from repro.models.weights import ModelWeights
from repro.serve.paged_kv_cache import PagedKVCache, SlotBatchView

__all__ = ["DraftProposer", "PromptLookupDraft", "ModelDraft", "SpecConfig"]


@runtime_checkable
class DraftProposer(Protocol):
    """What the scheduler needs from a speculative drafter.

    A drafter is consulted once per speculative decode iteration per
    request, with the request's full committed sequence (prompt followed by
    every sampled token, including the still-pending one), and returns up
    to ``max_tokens`` speculated continuations.  Returning an empty array
    is always legal — the request simply takes a plain decode step.

    The scheduler names each request by a ``key``: an integer no other
    request in flight shares, on any scheduler, so replicas of a
    :class:`~repro.serve.cluster.ReplicaPool` can share one drafter.  A
    key's sequence only grows from call to call, and it survives
    preemption; :meth:`release` is called exactly once per key, with the
    final committed sequence, when the request leaves the scheduler
    (finished, cancelled, expired, shed, checkpointed or released) — also
    if it never drafted.  A request re-admitted elsewhere gets a new key.
    """

    def propose(self, key: int, tokens: np.ndarray, max_tokens: int) -> np.ndarray:
        """Return up to ``max_tokens`` draft tokens continuing ``tokens``."""
        ...

    def release(self, key: int, tokens: np.ndarray) -> None:
        """The request ``key`` left its scheduler with ``tokens`` committed: drop or retire its state."""
        ...


class PromptLookupDraft:
    """Prompt-lookup drafting: propose what followed the request's context before.

    The drafter keeps every committed sequence it is asked to extend, live
    and retired, in one store, and drafts the continuation of the *longest
    matching context* in it.  Two kinds of match compete:

    * the request's own sequence: the longest suffix n-gram (``max_ngram``
      down to ``min_ngram`` tokens) with an earlier occurrence — the most
      recent one with a full draft's worth of continuation after it, else
      the earliest (whose continuation is the longest).  Extractive prompts
      (the continuation copies prompt spans) and repetitive generations
      (the continuation re-enters its own earlier output) draft this way;
    * any other stored sequence — a request served before, or one running
      beside it — that ends the same
      :data:`~repro.serve.lookup.SUFFIX_KEY` tokens somewhere: a request
      that repeats an earlier one drafts its whole answer.

    Each match's context is how far back (up to 64 tokens) its occurrence
    agrees with the request; the longer wins, the request's own sequence on
    ties.  A lookup is two dict probes (the own n-gram, the window) plus a
    backward extension over at most 32 recent sites — no scan — and a match
    in another sequence is followed while the request commits what it
    predicted, with no probe at all.  Retired sequences are kept up to
    :data:`~repro.serve.lookup.RETIRED_TOKENS` tokens, oldest dropped
    first; one that another stored sequence holds from its start is not
    kept twice.  So draft lengths (never tokens: verification commits each
    request's own sampling rule) depend on what the drafter served before.
    The store is :class:`~repro.serve.lookup.SequenceStore`.

    Parameters
    ----------
    max_ngram : int
        Longest suffix n-gram of the request's own sequence tried first
        (longer matches give more trustworthy continuations).
    min_ngram : int
        Shortest own n-gram worth matching before giving up.  The default
        of 2 deliberately skips unigram matches: on non-repetitive text they
        fire constantly with near-zero accept rates, paying verification
        width for nothing, while any genuinely repeating run still matches
        at bigram length.

    Raises
    ------
    ConfigurationError
        If the n-gram bounds are not integers ``1 <= min_ngram <= max_ngram``.
    """

    def __init__(self, max_ngram: int = 3, min_ngram: int = 2) -> None:
        self.max_ngram = require_count("max_ngram", max_ngram, 1)
        self.min_ngram = require_count("min_ngram", min_ngram, 1)
        if self.min_ngram > self.max_ngram:
            raise ConfigurationError(f"need min_ngram <= max_ngram, got {self.min_ngram} > {self.max_ngram}")
        # The store's code loads with the first drafter, so a process that
        # builds none allocates none of it: import-time allocations move the
        # garbage collector's schedule for everything that runs after them.
        from repro.serve.lookup import SequenceStore

        self._store = SequenceStore(self.min_ngram, self.max_ngram)

    def propose(self, key: int, tokens: np.ndarray, max_tokens: int) -> np.ndarray:
        """Store ``tokens`` as ``key``'s sequence; draft the continuation of its longest matching context."""
        return self._store.propose(key, tokens, max_tokens)

    def release(self, key: int, tokens: np.ndarray) -> None:
        """Retire ``key``'s sequence, grown to ``tokens``; drop the oldest retired past ``RETIRED_TOKENS``."""
        self._store.release(key, tokens)


class ModelDraft:
    """Draft with a smaller model decoding greedily over its own KV cache.

    Any :class:`~repro.models.inference.TransformerRunner` works as the
    drafter — typically a cheaper stand-in for the target such as a
    truncated-layer copy (:meth:`truncated`).  Per request key the drafter
    keeps a one-slot :class:`~repro.serve.paged_kv_cache.PagedKVCache` reserved at
    ``max_seq_len`` (seen through its view) plus the token history that
    cache covers; each :meth:`propose` call first
    reconciles that history against the committed sequence (rolling back
    drafts the target rejected, prefilling tokens the target added) and
    then greedily decodes the requested number of draft tokens.  The state
    outlives a preemption (the resumed request catches up on what it
    committed since, nothing more) and goes at :meth:`release`.

    Draft *quality* only affects the accept rate, never correctness: the
    target's verification commits exactly the tokens its own sampling rule
    produces regardless of what was proposed.

    Parameters
    ----------
    runner : TransformerRunner
        The draft model (any executor/quantization scheme).
    """

    def __init__(self, runner: TransformerRunner) -> None:
        self.runner = runner
        #: Per key: the request's one-slot view and the tokens its cache covers.
        self._states: Dict[int, Tuple[SlotBatchView, np.ndarray]] = {}

    @classmethod
    def truncated(cls, runner: TransformerRunner, num_layers: int) -> "ModelDraft":
        """Build a drafter from the first ``num_layers`` layers of ``runner``.

        The classic self-speculation draft model: same embeddings, final
        LayerNorm and LM head, but only a prefix of the Transformer stack —
        roughly ``num_layers / total`` of the target's cost per token.  The
        truncated copy shares the target's weight arrays (no copy) and runs
        on its own executor-default FP path.

        Parameters
        ----------
        runner : TransformerRunner
            The target model to truncate.
        num_layers : int
            Layers to keep (``1 <= num_layers <= target layers``).

        Returns
        -------
        ModelDraft

        Raises
        ------
        ConfigurationError
            If ``num_layers`` is not an integer within the target's layer count.
        """
        total = runner.config.num_layers
        if require_count("num_layers", num_layers, 1) > total:
            raise ConfigurationError(f"num_layers must lie in [1, {total}], got {num_layers}")
        weights = runner.weights
        draft_weights = ModelWeights(
            config=replace(weights.config, num_layers=int(num_layers)),
            token_embedding=weights.token_embedding,
            position_embedding=weights.position_embedding,
            blocks=list(weights.blocks[:num_layers]),
            ln_final=weights.ln_final,
            lm_head=weights.lm_head,
            classifier_weight=weights.classifier_weight,
            classifier_bias=weights.classifier_bias,
        )
        return cls(TransformerRunner(draft_weights))

    def propose(self, key: int, tokens: np.ndarray, max_tokens: int) -> np.ndarray:
        """Greedily decode up to ``max_tokens`` draft tokens after ``tokens``."""
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        # Drafting past the draft model's own max_seq_len is impossible; the
        # written positions reach len(tokens) - 1 + max_tokens - 1.
        max_tokens = min(int(max_tokens), self.runner.config.max_seq_len - len(tokens))
        if max_tokens < 1 or len(tokens) < 2:
            return np.empty(0, dtype=np.int64)
        state = self._states.get(key)
        if state is None:
            pool = PagedKVCache.for_model(self.runner.config, 1)
            cache = pool.view([pool.reserve(self.runner.config.max_seq_len)])
            history = np.empty(0, dtype=np.int64)
        else:
            cache, history = state
        # The cache must cover exactly tokens[:-1]; the shared prefix with
        # the previous call's history survives, everything after it (drafts
        # the target rejected) is rolled back by rewinding the view's length:
        # the slot is private and a row attends nothing past its own position,
        # so the stale rows above are overwritten before anything reads them.
        context = tokens[:-1]
        agree = min(len(history), len(context))
        mismatch = np.nonzero(history[:agree] != context[:agree])[0]
        prefix = int(mismatch[0]) if len(mismatch) else agree
        cache.lengths[:] = prefix
        if prefix < len(context):
            chunk = context[prefix:]
            self.runner.prefill(
                chunk[None, :],
                np.array([len(chunk)]),
                cache,
                start_positions=np.array([prefix]),
                return_logits=False,
            )
        draft: List[int] = []
        next_token = int(tokens[-1])
        for _ in range(max_tokens):
            logits = self.runner.decode_step(np.array([next_token]), cache)
            next_token = int(np.argmax(logits[0]))
            draft.append(next_token)
        proposal = np.array(draft, dtype=np.int64)
        self._states[key] = (cache, np.concatenate([tokens, proposal[:-1]]))
        return proposal

    def release(self, key: int, tokens: np.ndarray) -> None:
        """Drop the request's draft-model cache."""
        self._states.pop(key, None)


@dataclass(frozen=True)
class SpecConfig:
    """Speculation policy handed to ``Scheduler(speculation=...)``.

    Each request starts drafting ``draft_tokens`` per iteration and adapts
    within ``[min_draft, max_draft]`` by an exponential moving average of
    its own accept rate: a request whose drafts keep landing speculates
    deeper, one whose drafts keep missing falls back toward plain decode.
    Adaptation is per request and deterministic, so a request's tokens (and,
    for Tender, the logits behind them) never depend on what it was batched
    with.  Its draft lengths and ``spec_*`` counters may: a drafter that
    reads other sequences (:class:`PromptLookupDraft`) drafts from whatever
    it served before and beside the request.

    Parameters
    ----------
    drafter : DraftProposer
        The draft source (:class:`PromptLookupDraft`, :class:`ModelDraft`,
        or anything satisfying the protocol).
    draft_tokens : int
        Initial draft length per request per iteration.
    min_draft, max_draft : int
        Bounds the adaptive draft length moves in.
    adaptive : bool
        Disable to pin every request at ``draft_tokens`` forever.
    ema_decay : float
        Weight of the newest accept rate in the EMA (``1.0`` = no memory).
    grow_threshold : float
        EMA at or above which the draft length grows by one.
    shrink_threshold : float
        EMA at or below which the draft length shrinks by one.

    Raises
    ------
    ConfigurationError
        If a draft length is not an integer or a bound or threshold out of range.
    """

    drafter: DraftProposer
    draft_tokens: int = 4
    min_draft: int = 1
    max_draft: int = 8
    adaptive: bool = True
    ema_decay: float = 0.5
    grow_threshold: float = 0.6
    shrink_threshold: float = 0.3

    def __post_init__(self) -> None:
        if not require_count("min_draft", self.min_draft, 1) <= require_count("max_draft", self.max_draft, 1):
            raise ConfigurationError(f"need min_draft <= max_draft, got {self.min_draft} > {self.max_draft}")
        if not self.min_draft <= require_count("draft_tokens", self.draft_tokens, 1) <= self.max_draft:
            raise ConfigurationError(f"draft_tokens {self.draft_tokens} not in [{self.min_draft}, {self.max_draft}]")
        if not 0.0 < self.ema_decay <= 1.0:
            raise ConfigurationError(f"ema_decay must lie in (0, 1], got {self.ema_decay}")
        if not 0.0 <= self.shrink_threshold < self.grow_threshold <= 1.0:
            raise ConfigurationError("need 0 <= shrink_threshold < grow_threshold <= 1")


@dataclass
class _SpecState:
    """Per-request adaptive speculation state (owned by the scheduler)."""

    draft_len: int
    accept_ema: float = 1.0
    proposed_tokens: int = 0
    accepted_tokens: int = 0

    def observe(self, proposed: int, accepted: int, config: SpecConfig) -> None:
        """Fold one verify outcome into the EMA and adapt the draft length."""
        if proposed < 1:
            return
        self.proposed_tokens += proposed
        self.accepted_tokens += accepted
        rate = accepted / proposed
        self.accept_ema += config.ema_decay * (rate - self.accept_ema)
        if not config.adaptive:
            return
        if self.accept_ema >= config.grow_threshold:
            self.draft_len = min(self.draft_len + 1, config.max_draft)
        elif self.accept_ema <= config.shrink_threshold:
            self.draft_len = max(self.draft_len - 1, config.min_draft)
