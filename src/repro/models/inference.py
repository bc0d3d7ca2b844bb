"""Executor-based Transformer inference.

All quantization schemes in this reproduction (FP baseline, per-tensor/row/
column PTQ, SmoothQuant, LLM.int8(), ANT, OliVe, MSFP, SMX/MX, and Tender)
plug into the same inference engine through the :class:`MatmulExecutor`
interface.  The engine performs every surrounding operation (embeddings,
LayerNorm, softmax, residual adds) in floating point — exactly as the paper's
accelerator does in its Vector Processing Unit — and delegates every matrix
multiplication to the executor:

* ``project(name, x, weight, bias)`` — activation x weight products
  (Q/K/V/output projections, FC1/FC2, LM head);
* ``attention_matmul(name, a, b)`` — activation x activation products
  (``X_Q @ X_K^T`` and ``X_S @ X_V``).

Executors receive a stable hierarchical ``name`` (e.g. ``block3.attn.q_proj``)
so static calibration data can be looked up per matmul site.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.core.kernels import ForwardPlan, paged_attention
from repro.errors import ConfigurationError
from repro.models.weights import ModelWeights
from repro.quant.observers import ActivationObserver
from repro.tensor.ops import gelu, log_softmax, relu, softmax


class KVCacheLike(Protocol):
    """What the incremental forward needs from the key/value cache.

    There is one cache — the block-allocated
    :class:`repro.serve.paged_kv_cache.PagedKVCache` — and the runner sees it
    through a :class:`repro.serve.paged_kv_cache.SlotBatchView` over whichever
    slots are in this forward; the protocol lives here only because models
    may not import the serving layer.  It lists exactly what
    :class:`TransformerRunner` calls, on one device or many.  Sequence
    ``b`` of every call is the one ``lengths[b]`` describes; consecutive
    forwards may map it to *different* requests as the scheduler evicts and
    backfills slots.
    """

    #: Committed tokens per sequence; the entry points advance it in place.
    lengths: np.ndarray

    def write(self, layer: int, keys: np.ndarray, values: np.ndarray, slots) -> None:
        """Store flat ``(heads, rows, d_head)`` payloads at each row's own slot.

        ``slots`` is the forward's :class:`~repro.core.kernels.ForwardPlan`
        (so layers after the first reuse the scatter targets): it names every
        flat row's sequence and token position.  The first layer's call
        checks each row against its own sequence's reservation before
        anything is written.
        """
        ...

    def view(self, layer: int, length: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dense ``(keys, values)`` copies over the first ``length`` slots of each sequence."""
        ...

    def attention_operands(self, layer: int) -> tuple:
        """``(key_pool, value_pool, runs, block_size)`` for :func:`~repro.core.kernels.paged_attention`."""
        ...


def dense_cached_attention(
    executor: "MatmulExecutor",
    prefix: str,
    queries: np.ndarray,
    cached_keys: np.ndarray,
    cached_values: np.ndarray,
    plan: ForwardPlan,
    d_head: int,
) -> np.ndarray:
    """Masked-softmax attention over densely gathered cache views.

    The reference (gather-then-dense) cached-attention core, and the only
    path for executors that quantize attention operands *dynamically*
    (Tender "all"): their per-head statistics want dense ``(batch, heads,
    new_len, d_head)`` operands, so the forward's flat query rows are laid
    back out as a right-padded rectangle here — and only here.  Padding
    queries duplicate their sequence's first row (duplicates never widen a
    max/min range) and padded probability rows are replaced by the first
    row's, so the statistics stay independent of batching.

    This is also the one place stale cache bytes are handled.  The gathered
    window is the forward's widest, so a shorter sequence's columns at or
    past its :attr:`~repro.core.kernels.ForwardPlan.reach` hold whatever the
    pool left there — a freed request's KV, rolled-back drafts — which no
    row can see but a dynamic per-column scale over ``X_V`` would still
    read.  Those columns are set to zero in both operands first, so the
    dense copy holds exactly what :func:`~repro.core.kernels.paged_attention`
    reads (its segments stop at each reach and its score buffer is zero
    past them), and the pool promises nothing about bytes no row can see.
    Then: scores through the executor's ``attention_matmul``, slot-visibility
    masking (a slot ``s`` is visible to a query at position ``p`` iff ``s <=
    p``), softmax, and the ``X_S @ X_V`` product.  Every step is independent
    per attention head, so calling it on a contiguous head slice of the
    operands would return exactly that slice of the full result; every
    runner, a tensor-parallel one included, passes all heads.  Takes
    flat ``(heads, rows, d_head)`` queries and, like
    :func:`~repro.core.kernels.paged_attention`, returns the context
    row-major: ``(rows, heads, d_head)``.
    """
    rows, bounds = plan.rows, plan.bounds
    columns = np.arange(bounds[-1]) - bounds[rows]
    width = int(plan.lengths.max())
    valid = np.zeros((plan.batch, width), dtype=bool)
    valid[rows, columns] = True
    dense = np.zeros((plan.batch, queries.shape[0], width, d_head), dtype=queries.dtype)
    dense[rows, :, columns] = queries.transpose(1, 0, 2)
    positions = plan.positions[bounds[:-1], None] + np.arange(width)
    padded = not valid.all()
    if padded:
        dense = np.where(valid[:, None, :, None], dense, dense[:, :, :1])
    attended = cached_keys.shape[-2]
    stale = (np.arange(attended) >= plan.reach[:, None])[:, None, :, None]
    cached_keys = np.where(stale, 0.0, cached_keys)
    cached_values = np.where(stale, 0.0, cached_values)
    scores = executor.attention_matmul(
        f"{prefix}.qk", dense, np.swapaxes(cached_keys, -1, -2)
    ) / np.sqrt(d_head)
    hidden_slots = np.arange(attended)[None, None, None, :] > positions[:, None, :, None]
    scores = np.where(hidden_slots, -1e9, scores)
    attention = softmax(scores, axis=-1)
    if padded:
        # Padded probability rows see a wider causal window than the row
        # they were duplicated from; replace them with the first (valid)
        # row's probabilities so dynamically-quantized X_S X_V statistics
        # stay independent of batching.
        attention = np.where(valid[:, None, :, None], attention, attention[:, :, :1, :])
    context = executor.attention_matmul(f"{prefix}.sv", attention, cached_values)
    return context[rows, :, columns]


class MatmulExecutor(Protocol):
    """Interface every quantization scheme implements."""

    def project(
        self, name: str, x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray]
    ) -> np.ndarray:
        """Compute ``x @ weight + bias`` for a 2-D activation ``x``."""
        ...

    def attention_matmul(self, name: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Compute the batched product ``a @ b`` between two activations."""
        ...


class FloatExecutor:
    """The FP16/FP32 baseline: plain floating-point matrix multiplication."""

    #: ``attention_matmul`` is a plain product, so the runner may replace the
    #: gather-then-dense attention with the fused paged kernel.
    plain_attention = True

    def project(self, name, x, weight, bias):
        out = x @ weight
        if bias is not None:
            out = out + bias
        return out

    def attention_matmul(self, name, a, b):
        return a @ b


class ObservingExecutor:
    """Wraps another executor and records activation statistics per site.

    Used during calibration: the paper computes scale factors, channel biases,
    and channel-group assignments offline from calibration samples
    (Section III-B, "Optimization").  Activation inputs of projections are
    recorded under the projection name; operands of activation-activation
    matmuls are recorded under ``<name>.a`` / ``<name>.b``.
    """

    def __init__(self, base: Optional[MatmulExecutor] = None) -> None:
        self.base = base if base is not None else FloatExecutor()
        self.observer = ActivationObserver()

    def project(self, name, x, weight, bias):
        self.observer.observe(name, x)
        return self.base.project(name, x, weight, bias)

    def attention_matmul(self, name, a, b):
        self.observer.observe(f"{name}.a", a.reshape(-1, a.shape[-1]))
        # The second operand's reduction axis is its second-to-last dimension;
        # record it transposed so the channel axis is always last.
        self.observer.observe(f"{name}.b", np.swapaxes(b, -1, -2).reshape(-1, b.shape[-2]))
        return self.base.attention_matmul(name, a, b)


class CapturingExecutor:
    """Stores the raw input of each site the first time it is seen.

    Used by the Figure 2 / Figure 3 reproductions, which visualise the actual
    activation values (channel-wise outliers) rather than summary statistics.
    """

    def __init__(self, base: Optional[MatmulExecutor] = None) -> None:
        self.base = base if base is not None else FloatExecutor()
        self.captured: Dict[str, np.ndarray] = {}

    def project(self, name, x, weight, bias):
        if name not in self.captured:
            self.captured[name] = x.copy()
        return self.base.project(name, x, weight, bias)

    def attention_matmul(self, name, a, b):
        return self.base.attention_matmul(name, a, b)


class TransformerRunner:
    """Runs a Transformer forward pass from :class:`ModelWeights` + executor."""

    #: Where per-head columns meet across devices (a tensor-parallel runner's
    #: ``all_gather``); ``None`` on one device.
    _meet_heads = None

    def __init__(self, weights: ModelWeights, executor: Optional[MatmulExecutor] = None) -> None:
        self.weights = weights
        self.config = weights.config
        self.executor = executor if executor is not None else FloatExecutor()
        #: Capabilities of the executor, resolved once: whether ``project``
        #: takes the forward's plan (``uses_positions``) and whether it takes
        #: a block's Q/K/V as one stacked call (``stacks_sites``).
        self._uses_positions = bool(getattr(self.executor, "uses_positions", False))
        self._stacks_qkv = bool(getattr(self.executor, "stacks_sites", False))
        #: Whether both attention products are plain matmuls (``plain_attention``).
        self._plain_attention = bool(getattr(self.executor, "plain_attention", False))
        #: ``(names, [wq|wk|wv], [bq|bk|bv])`` per block.
        self._qkv_stacks: Dict[int, tuple] = {}
        #: Read KV straight from paged-block storage during cached attention
        #: (see :func:`repro.core.kernels.paged_attention`).  Takes effect
        #: only when the executor's attention products are plain matmuls;
        #: clear it to force the gather-then-dense reference path.
        self.fused_paged_attention = True

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    @staticmethod
    def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
        """LayerNorm over the last axis, centring ``x`` once.

        The reductions are the ones ``ndarray.mean`` / ``ndarray.var`` run
        (``add.reduce`` then a divide by the count; ``var`` over the centred
        values squared), so the result is bit-identical to ``(x - x.mean()) /
        sqrt(x.var() + eps) * gain + bias`` — without centring twice.
        """
        count = x.shape[-1]
        centered = x - np.add.reduce(x, axis=-1, keepdims=True) / count
        var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / count
        return centered / np.sqrt(var + eps) * gain + bias

    def _project(
        self,
        name: str | Tuple[str, ...],
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        positions: Optional[ForwardPlan | np.ndarray] = None,
    ) -> np.ndarray:
        """Flatten leading dims, delegate to the executor, restore the shape.

        ``positions`` carries the token position of every row — the forward's
        :class:`~repro.core.kernels.ForwardPlan`, or a plain array — for
        executors that calibrate per row chunk (``uses_positions``); the
        incremental decode path needs it because a decoded token's flat row
        index no longer equals its position in the sequence.
        """
        leading = x.shape[:-1]
        flat = x.reshape(-1, x.shape[-1])
        if positions is not None and self._uses_positions:
            out = self.executor.project(name, flat, weight, bias, positions=positions)
        else:
            out = self.executor.project(name, flat, weight, bias)
        return out.reshape(*leading, weight.shape[-1])

    def _qkv_stack(self, index: int) -> tuple:
        """Block ``index``'s Q/K/V sites as one stacked ``project`` operand, cached."""
        stack = self._qkv_stacks.get(index)
        if stack is None:
            attn = self.weights.blocks[index].attn
            stack = self._qkv_stacks[index] = (
                tuple(f"block{index}.attn.{site}_proj" for site in "qkv"),
                np.concatenate([attn.wq, attn.wk, attn.wv], axis=1),
                np.concatenate([attn.bq, attn.bk, attn.bv]),
            )
        return stack

    @staticmethod
    def _split_qkv(stacked: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three equal-width column blocks of a stacked Q/K/V output, as views."""
        width = stacked.shape[-1] // 3
        return stacked[..., :width], stacked[..., width : 2 * width], stacked[..., 2 * width :]

    def _qkv(
        self, index: int, x: np.ndarray, positions: Optional[ForwardPlan | np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Query, key and value projections of block ``index`` over ``x``.

        One stacked call when the executor takes it (the three sites consume
        the same activation), split back into views; three calls otherwise.
        Always this class's :meth:`_project`: the runner attends over them
        itself, so no subclass's collective belongs here.
        """
        project = TransformerRunner._project
        if self._stacks_qkv:
            names, weight, bias = self._qkv_stack(index)
            return self._split_qkv(project(self, names, x, weight, bias, positions))
        attn = self.weights.blocks[index].attn
        prefix = f"block{index}.attn"
        return (
            project(self, f"{prefix}.q_proj", x, attn.wq, attn.bq, positions),
            project(self, f"{prefix}.k_proj", x, attn.wk, attn.bk, positions),
            project(self, f"{prefix}.v_proj", x, attn.wv, attn.bv, positions),
        )

    def _attention(
        self, index: int, x: np.ndarray, positions: Optional[ForwardPlan | np.ndarray] = None
    ) -> np.ndarray:
        block = self.weights.blocks[index]
        config = self.config
        batch, seq, _ = x.shape
        prefix = f"block{index}.attn"

        queries, keys, values = self._qkv(index, x, positions)

        def split(t: np.ndarray) -> np.ndarray:
            return t.reshape(batch, seq, config.num_heads, config.d_head).transpose(0, 2, 1, 3)

        queries, keys, values = split(queries), split(keys), split(values)
        scores = self.executor.attention_matmul(
            f"{prefix}.qk", queries, np.swapaxes(keys, -1, -2)
        ) / np.sqrt(config.d_head)
        if config.causal:
            mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
            scores = np.where(mask[None, None], -1e9, scores)
        attention = softmax(scores, axis=-1)
        context = self.executor.attention_matmul(f"{prefix}.sv", attention, values)
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq, config.d_model)
        if self._meet_heads is not None:
            context = self._meet_heads(context)
        return self._project(f"{prefix}.out_proj", context, block.attn.wo, block.attn.bo, positions)

    def _feed_forward(
        self, index: int, x: np.ndarray, positions: Optional[ForwardPlan | np.ndarray] = None
    ) -> np.ndarray:
        block = self.weights.blocks[index]
        prefix = f"block{index}.ffn"
        hidden = self._project(f"{prefix}.fc1", x, block.ffn.w1, block.ffn.b1, positions)
        hidden = relu(hidden) if self.config.activation == "relu" else gelu(hidden)
        return self._project(f"{prefix}.fc2", hidden, block.ffn.w2, block.ffn.b2, positions)

    def _backbone(self, tokens: np.ndarray) -> Tuple[np.ndarray, ForwardPlan]:
        """Final hidden states of a full-sequence forward, and the forward's plan."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        batch, seq = tokens.shape
        if seq > self.config.max_seq_len:
            raise ConfigurationError(
                f"sequence length {seq} exceeds max_seq_len {self.config.max_seq_len}"
            )
        # Token positions of every row, so position-calibrated executors
        # (Tender row chunks) see the same parameters for a token regardless
        # of its batch index — batched forwards, classification batches, and
        # the KV-cached decode path all agree per position.  One plan serves
        # every projection site of the forward, the LM head included.
        plan = ForwardPlan(np.broadcast_to(np.arange(seq, dtype=np.int64), (batch, seq)))
        x = self.weights.token_embedding[tokens] + self.weights.position_embedding[np.arange(seq)]
        for index, block in enumerate(self.weights.blocks):
            attn_input = self._layer_norm(x, block.ln_attn.gain, block.ln_attn.bias)
            x = x + self._attention(index, attn_input, plan)
            ffn_input = self._layer_norm(x, block.ln_ffn.gain, block.ln_ffn.bias)
            x = x + self._feed_forward(index, ffn_input, plan)
        return self._layer_norm(x, self.weights.ln_final.gain, self.weights.ln_final.bias), plan

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def logits(self, tokens: np.ndarray) -> np.ndarray:
        """Language-model logits of shape (batch, seq, vocab)."""
        if self.weights.lm_head is None:
            raise ConfigurationError("model has no LM head; use classify() instead")
        hidden, plan = self._backbone(tokens)
        return self._project("lm_head", hidden, self.weights.lm_head, None, plan)

    def log_probs(self, tokens: np.ndarray) -> np.ndarray:
        """Log-probabilities over the vocabulary for each position."""
        return log_softmax(self.logits(tokens), axis=-1)

    def classify(self, tokens: np.ndarray) -> np.ndarray:
        """Classification logits of shape (batch, num_classes)."""
        if self.weights.classifier_weight is None:
            raise ConfigurationError("model has no classifier head; use logits() instead")
        hidden, _ = self._backbone(tokens)
        pooled = hidden.mean(axis=1)
        return self.executor.project(
            "classifier", pooled, self.weights.classifier_weight, self.weights.classifier_bias
        )

    # ------------------------------------------------------------------
    # Incremental decoding over a KV-cache
    # ------------------------------------------------------------------
    def _row_heads(self, t: np.ndarray, num_heads: int) -> np.ndarray:
        """``(rows, num_heads * d_head)`` projections as flat ``(num_heads, rows, d_head)`` heads."""
        return t.reshape(t.shape[0], num_heads, self.config.d_head).transpose(1, 0, 2)

    def _attention_cached(
        self, index: int, x: np.ndarray, cache: KVCacheLike, plan: ForwardPlan, kept: Optional[ForwardPlan] = None
    ) -> Optional[np.ndarray]:
        """Attention where keys/values come from (and are written to) ``cache``.

        ``x`` is the forward's flat ``(rows, d_model)`` activations and
        ``plan`` holds each row's sequence and absolute position, which is
        also its cache slot.  A slot ``s`` is visible to a query at position
        ``p`` iff ``s <= p`` — this covers both causality and anything
        stale in the cache, because unwritten slots always sit strictly
        after the querying token's own position.  Every row is a real
        token: nothing is padded, so nothing needs neutralising on the
        fused path (the dense fallback re-pads for its own operands, see
        :func:`dense_cached_attention`).

        ``kept`` (a prefill's last block, see :meth:`_forward_rows`): every
        row's K/V is written, then only the kept queries attend and are
        projected — row-wise work, so theirs is unchanged; ``None`` if none.

        Across devices, K and V meet (:attr:`_meet_heads`) before the one
        cache write, and the kept rows' context before the output projection.
        """
        block = self.weights.blocks[index]
        config = self.config
        prefix = f"block{index}.attn"
        heads = config.num_heads
        queries, keys, values = self._qkv(index, x, plan)
        if self._meet_heads is not None:
            keys, values = self._meet_heads(keys), self._meet_heads(values)
        cache.write(index, self._row_heads(keys, heads), self._row_heads(values, heads), plan)
        if kept is not None:
            if not kept.positions.size:
                return None
            queries, plan = queries[kept.parent_rows], kept
        queries = self._row_heads(queries, heads)
        if self.fused_paged_attention and self._plain_attention:
            # Both attention products are plain matmuls, so read K/V straight
            # from block storage — no dense gather.  Operands are fetched
            # *after* the write: any copy-on-write fork the write triggered is
            # already reflected in the run table.
            key_pool, value_pool, runs, block_size = cache.attention_operands(index)
            context = paged_attention(queries, key_pool, value_pool, runs, block_size, plan)
        else:
            cached_keys, cached_values = cache.view(index, plan.attended)
            context = dense_cached_attention(
                self.executor, prefix, queries, cached_keys, cached_values, plan, config.d_head
            )
        context = context.reshape(-1, config.d_model)
        if self._meet_heads is not None:
            context = self._meet_heads(context)
        return self._project(f"{prefix}.out_proj", context, block.attn.wo, block.attn.bo, plan)

    def _forward_rows(
        self, tokens: np.ndarray, cache: KVCacheLike, plan: ForwardPlan, kept: Optional[ForwardPlan] = None
    ) -> Optional[np.ndarray]:
        """The one incremental forward: flat token rows in, flat hidden rows out.

        ``tokens`` is the concatenation of every sequence's new tokens and
        ``plan`` the forward's one :class:`~repro.core.kernels.ForwardPlan`
        over them: embeddings, LayerNorm, every projection site, every
        layer's cache write and attention, and the FFN run over exactly
        those rows.  :meth:`prefill`, :meth:`decode_step` and :meth:`verify`
        differ only in how they lay their arguments out as rows and in which
        rows they read: ``kept`` (``plan.select(...)``; default: every row)
        names those, and their hidden rows come back.  Past the last block's
        KV write an unread row feeds nothing, and positions — not company —
        pick a row's calibration, so on the fused path the rest of that block
        and the final LayerNorm run over ``kept`` alone (``None`` right after
        the write when it is empty); the gather-then-dense reference carries
        every row to the end and cuts ``kept`` out — the early exit's oracle.

        The batch is validated here, before any layer writes the cache — one
        sequence per cache row, one token per plan row, integer ids inside
        the vocabulary, every row within ``max_seq_len`` (the cache's first
        write validates each row against its own reservation).
        """
        if self.weights.lm_head is None:
            raise ConfigurationError("model has no LM head; generation requires one")
        rows, vocab = plan.positions.size, self.config.vocab_size
        if plan.batch != len(cache.lengths):
            raise ConfigurationError(f"{plan.batch} sequences, but {len(cache.lengths)} cache rows")
        if tokens.size != rows:
            raise ConfigurationError(f"{tokens.size} tokens for the batch's {rows} rows")
        if tokens.dtype.kind not in "iu":
            raise ConfigurationError(f"tokens must hold integers, got dtype {tokens.dtype}")
        if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= vocab:
            raise ConfigurationError(f"token ids {tokens.min()} .. {tokens.max()} outside [0, {vocab})")
        if plan.negative:
            raise ConfigurationError("start_positions must be >= 0")
        if plan.attended > self.config.max_seq_len:
            raise ConfigurationError(
                f"position {plan.attended - 1} exceeds max_seq_len {self.config.max_seq_len}"
            )
        early = kept is not None and self.fused_paged_attention and self._plain_attention
        x = self.weights.token_embedding[tokens] + self.weights.position_embedding[plan.positions]
        for index, block in enumerate(self.weights.blocks):
            attn_input = self._layer_norm(x, block.ln_attn.gain, block.ln_attn.bias)
            narrow = kept if early and block is self.weights.blocks[-1] else None
            attended = self._attention_cached(index, attn_input, cache, plan, narrow)
            if attended is None:
                return None
            if narrow is not None:
                x, plan = x[kept.parent_rows], kept
            x = x + attended
            ffn_input = self._layer_norm(x, block.ln_ffn.gain, block.ln_ffn.bias)
            x = x + self._feed_forward(index, ffn_input, plan)
        hidden = self._layer_norm(x, self.weights.ln_final.gain, self.weights.ln_final.bias)
        return hidden if kept is None or plan is kept else hidden[kept.parent_rows]

    @staticmethod
    def _per_sequence(name: str, values, batch: Optional[int] = None) -> np.ndarray:
        """Argument ``name`` as one int64 per sequence; a dtype the conversion would truncate is refused."""
        array = np.asarray(values)
        if array.dtype.kind not in "iu" or array.ndim != 1 or batch not in (None, array.size):
            raise ConfigurationError(f"{name} must be one integer per sequence, got {array.dtype} {array.shape}")
        return array.astype(np.int64, copy=False)

    def prefill(
        self,
        tokens: np.ndarray,
        lengths: np.ndarray,
        cache: KVCacheLike,
        start_positions: Optional[np.ndarray] = None,
        return_logits: bool = True,
    ) -> Optional[np.ndarray]:
        """Populate ``cache`` from right-padded prompts; return next-token logits.

        ``tokens`` is (batch, max_prompt_len) with each row holding a prompt of
        ``lengths[i]`` tokens followed by padding.  Only the real tokens run:
        the padding is dropped before the forward (see :meth:`_forward_rows`),
        so a short row costs its own length, writes nothing past it, and is
        validated against ``max_seq_len`` and its cache reservation on its
        own extent — not the rectangle's.  Returns the LM logits at each
        row's final provided position, shape (batch, vocab).

        ``start_positions`` makes this a *partial-prompt* prefill: row ``b``'s
        tokens are a chunk starting at absolute position ``start_positions[b]``
        and the cache is expected to already hold that row's earlier KV (the
        prefix-caching scheduler's prefix hits and chunked prefill both rely
        on this).  Each chunk row attends over the full cached history plus
        the chunk's own causal window, exactly as a whole-prompt prefill
        would, and ``cache.lengths`` advances to ``start + lengths`` per row.
        ``return_logits=False`` returns ``None``: only a prompt's final
        chunk is sampled from.  Either way :meth:`_forward_rows` is told
        which rows are read — each sequence's final one, or none — and on
        the fused path the others leave after the last block's KV write:
        logits and every layer's pool bytes are those of carrying them on.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ConfigurationError(f"tokens must be (batch, max_prompt_len), got shape {tokens.shape}")
        batch, max_len = tokens.shape
        lengths = self._per_sequence("lengths", lengths, batch)
        if np.any(lengths < 1) or np.any(lengths > max_len):
            raise ConfigurationError("prompt lengths must be in [1, max_prompt_len]")
        if start_positions is None:
            start = np.zeros(batch, dtype=np.int64)
        else:
            start = self._per_sequence("start_positions", start_positions, batch)
        plan = ForwardPlan.ragged(start, lengths)
        kept = None  # every row is read (one token each); else each sequence's final row, or none
        if not return_logits or plan.positions.size > batch:
            kept = plan.select(plan.bounds[1:] - 1 if return_logits else plan.bounds[:0])
        real = np.arange(max_len, dtype=np.int64)[None, :] < lengths[:, None]
        hidden = self._forward_rows(tokens[real], cache, plan, kept)
        cache.lengths[:] = start + lengths
        if not return_logits:
            return None
        return self._project("lm_head", hidden, self.weights.lm_head, None, plan if kept is None else kept)

    def verify(
        self,
        tokens: np.ndarray,
        cache: KVCacheLike,
        start_positions: np.ndarray,
        lengths: np.ndarray,
        logit_rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Score a run of draft tokens per sequence in one forward pass.

        The multi-token half of speculative decoding (``repro.serve.spec``):
        sequence ``b`` contributes ``[pending, draft_1, ..., draft_k_b]`` —
        its already-sampled next token followed by ``k_b`` speculated
        continuations — and ``start_positions[b]`` is its committed cache
        length (the position the pending token will occupy).  ``tokens`` is
        the *concatenation* of those runs and ``lengths[b] = k_b + 1`` the
        rows each sequence owns: every sequence is verified at its own depth
        in one incremental forward (:meth:`_forward_rows`) over exactly
        ``sum(lengths)`` rows, and ``k_b = 0`` is a plain decode row riding
        along.  The returned logits are flat, ``(rows, vocab)``, in the same
        order: the row of sequence ``b``'s ``j``-th token predicts the token
        at absolute position ``start_positions[b] + j + 1`` — rows
        ``0..k_b-1`` of a run verify its drafts and row ``k_b`` is the
        *bonus* distribution after a fully accepted run.  (``tokens`` may
        have any shape holding those ``sum(lengths)`` tokens in order; with
        every length 1 the forward is exactly :meth:`decode_step`.)

        ``logit_rows[b]`` (optional, one integer in ``[0, lengths[b]]`` per
        sequence) says how many *trailing* rows of sequence ``b`` need
        logits: every row still runs and writes its KV, and only those rows'
        logits come back, flat in order — ``(sum(logit_rows), vocab)``.  A
        resumed request catches up this way (:class:`repro.serve.Scheduler`):
        its rows are ``[replay tail..., pending, drafts...]`` and nothing is
        sampled from the tail.  The LM head is skipped when nothing is asked
        for; otherwise it runs over the forward's own plan and the rows are
        cut from its result — the tail is shorter than a KV block, and a
        second plan over the kept rows costs more than projecting them all.

        Every provided token's KV is written to the cache (positions
        ``start .. start + length - 1``, never past a short row's
        reservation) and ``cache.lengths`` advances to ``start + length``;
        the caller rolls rejected positions back (e.g.
        :meth:`repro.serve.paged_kv_cache.PagedKVCache.truncate`) after
        deciding how many drafts survived.  Because quantization parameters
        are looked up by *position* (see :meth:`decode_step`), the logits at
        every position are bit-identical to the sequential decode steps they
        replace — and independent of which rows share the forward — for
        executors with statically-determined parameters: greedy speculative
        decoding is therefore token-exact.
        """
        tokens = np.asarray(tokens)
        counts = self._per_sequence("lengths", lengths)
        if counts.size == 0 or counts.min() < 1 or counts.sum() != tokens.size:
            raise ConfigurationError(
                "verify() needs at least the pending token per row and exactly sum(lengths) tokens"
            )
        start = self._per_sequence("start_positions", start_positions, counts.size)
        if logit_rows is not None:
            wanted = np.asarray(logit_rows).reshape(-1)
            if wanted.dtype.kind not in "iu" or wanted.size != counts.size or np.any((wanted < 0) | (wanted > counts)):
                raise ConfigurationError(
                    f"logit_rows {wanted.tolist()} must be one integer in [0, lengths[b]] per sequence, "
                    f"lengths {counts.tolist()}"
                )
        plan = ForwardPlan.ragged(start, counts)
        hidden = self._forward_rows(tokens.reshape(-1), cache, plan)
        cache.lengths[:] = start + counts
        if logit_rows is not None and not wanted.any():
            return np.zeros((0, self.config.vocab_size), dtype=np.float64)
        logits = self._project("lm_head", hidden, self.weights.lm_head, None, plan)
        if logit_rows is not None:
            return logits[plan.positions >= (start + counts - wanted)[plan.rows]]
        return logits

    def decode_step(self, tokens: np.ndarray, cache: KVCacheLike) -> np.ndarray:
        """Append one token per sequence and return next-token logits.

        ``tokens`` is (batch,) — the token each sequence just produced (or the
        last prompt token when priming without :meth:`prefill`).  Rows are
        fully independent slots: each may sit at its own position (ragged
        prompts, mid-flight admission) and each writes its own next cache
        slot at ``cache.lengths[b]``.  Because quantization parameters are
        looked up by *position* (Tender's row chunks, see ``_project``), a
        row's logits do not depend on which physical slot or batch row it
        currently occupies — the property that makes the continuous
        scheduler's slot reuse safe.  This scattered-position batch is the
        hot path of Tender's fast kernels: ``TenderExecutor`` serves every
        projection here from packed calibration tables indexed by
        ``positions // chunk_size`` (one gather, no per-chunk Python loop —
        see :mod:`repro.core.kernels`).  The positions are fixed before the
        first layer runs, so one :class:`~repro.core.kernels.ForwardPlan`
        built here — one flat row per sequence — carries what every site and
        layer derives from them.  Returns logits of shape (batch, vocab).
        """
        tokens = np.asarray(tokens).reshape(-1)
        plan = ForwardPlan(cache.lengths.copy())
        hidden = self._forward_rows(tokens, cache, plan)
        cache.lengths += 1
        return self._project("lm_head", hidden, self.weights.lm_head, None, plan)


def run_calibration(
    weights: ModelWeights,
    samples: List[np.ndarray],
    classify: bool = False,
) -> ActivationObserver:
    """Run calibration samples through the FP model and collect statistics."""
    executor = ObservingExecutor()
    runner = TransformerRunner(weights, executor)
    for sample in samples:
        if classify:
            runner.classify(np.asarray(sample)[None, :])
        else:
            runner.logits(np.asarray(sample)[None, :])
    return executor.observer


def capture_activations(weights: ModelWeights, sample: np.ndarray) -> Dict[str, np.ndarray]:
    """Capture raw per-site input activations for one sample (Figures 2-3)."""
    executor = CapturingExecutor()
    runner = TransformerRunner(weights, executor)
    if weights.lm_head is not None:
        runner.logits(np.asarray(sample)[None, :])
    else:
        runner.classify(np.asarray(sample)[None, :])
    return executor.captured
