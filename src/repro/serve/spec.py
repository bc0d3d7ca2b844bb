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

* :class:`PromptLookupDraft` — zero-cost n-gram lookup: the longest suffix
  n-gram of the request's prompt + generated tokens is searched for an
  earlier occurrence, and the tokens that followed it are proposed
  (vLLM-style prompt lookup).  Free to run, and extremely effective on
  extractive or repetitive generations.
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
    Drafters may keep per-request state keyed by ``request_id``;
    :meth:`release` is called exactly once when the request retires.
    """

    def propose(self, request_id: int, tokens: np.ndarray, max_tokens: int) -> np.ndarray:
        """Return up to ``max_tokens`` draft tokens continuing ``tokens``."""
        ...

    def release(self, request_id: int) -> None:
        """Drop any per-request drafting state."""
        ...


class PromptLookupDraft:
    """N-gram prompt-lookup drafting: propose what followed the suffix before.

    The longest suffix n-gram of the sequence (``max_ngram`` down to
    ``min_ngram`` tokens) is searched for its most recent earlier
    occurrence; the tokens that followed that occurrence become the draft.
    Matching runs over the *whole* committed sequence — prompt and generated
    tokens alike — so both extractive prompts (the continuation copies
    prompt spans) and repetitive generations (the continuation re-enters its
    own earlier output) draft well.  Costs one scan for the suffix's last
    token plus a few gathers over its hits, no model.

    Parameters
    ----------
    max_ngram : int
        Longest suffix n-gram tried first (longer matches give more
        trustworthy continuations).
    min_ngram : int
        Shortest n-gram worth matching before giving up.  The default of 2
        deliberately skips unigram matches: on non-repetitive text they
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

    def propose(self, request_id: int, tokens: np.ndarray, max_tokens: int) -> np.ndarray:
        """Draft the continuation of the most recent suffix n-gram match.

        An earlier occurrence of the suffix n-gram must end on the suffix's
        last token, so only those positions are candidates; each longer
        n-gram keeps the candidates whose preceding token matches too.  The
        longest n-gram that still has a candidate wins, as if every window
        of every length had been compared.
        """
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        length = len(tokens)
        if max_tokens < 1 or length < self.min_ngram + 1:
            return np.empty(0, dtype=np.int64)
        # Where an occurrence of the suffix could end (the suffix itself excluded).
        ends = np.flatnonzero(tokens[:-1] == tokens[-1])
        matched = None
        for ngram in range(1, min(self.max_ngram, length - 1) + 1):
            if ngram > 1:
                ends = ends[ends >= ngram - 1]
                ends = ends[tokens[ends - (ngram - 1)] == tokens[length - ngram]]
            if not len(ends):
                break
            if ngram >= self.min_ngram:
                matched = ends
        if matched is None:
            return np.empty(0, dtype=np.int64)
        # Prefer the most recent occurrence that still has a full draft's
        # worth of continuation after it (recent context drafts best); fall
        # back to the earliest occurrence, whose continuation is the longest
        # available.
        starts = matched + 1
        full = starts[length - starts >= max_tokens]
        start = int(full[-1]) if len(full) else int(starts[0])
        return tokens[start : start + max_tokens].copy()

    def release(self, request_id: int) -> None:
        """No per-request state to drop (lookup is stateless)."""


class ModelDraft:
    """Draft with a smaller model decoding greedily over its own KV cache.

    Any :class:`~repro.models.inference.TransformerRunner` works as the
    drafter — typically a cheaper stand-in for the target such as a
    truncated-layer copy (:meth:`truncated`).  Per request the drafter keeps
    a one-slot :class:`~repro.serve.paged_kv_cache.PagedKVCache` reserved at
    ``max_seq_len`` (seen through its view) plus the token history that
    cache covers; each :meth:`propose` call first
    reconciles that history against the committed sequence (rolling back
    drafts the target rejected, prefilling tokens the target added) and
    then greedily decodes the requested number of draft tokens.

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

    def propose(self, request_id: int, tokens: np.ndarray, max_tokens: int) -> np.ndarray:
        """Greedily decode up to ``max_tokens`` draft tokens after ``tokens``."""
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        # Drafting past the draft model's own max_seq_len is impossible; the
        # written positions reach len(tokens) - 1 + max_tokens - 1.
        max_tokens = min(int(max_tokens), self.runner.config.max_seq_len - len(tokens))
        if max_tokens < 1 or len(tokens) < 2:
            return np.empty(0, dtype=np.int64)
        state = self._states.get(request_id)
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
        self._states[request_id] = (cache, np.concatenate([tokens, proposal[:-1]]))
        return proposal

    def release(self, request_id: int) -> None:
        """Drop the request's draft-model cache."""
        self._states.pop(request_id, None)


@dataclass(frozen=True)
class SpecConfig:
    """Speculation policy handed to ``Scheduler(speculation=...)``.

    Each request starts drafting ``draft_tokens`` per iteration and adapts
    within ``[min_draft, max_draft]`` by an exponential moving average of
    its own accept rate: a request whose drafts keep landing speculates
    deeper, one whose drafts keep missing falls back toward plain decode.
    Adaptation is per request and deterministic, so outputs never depend on
    what a request was batched with.

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
