"""Tensor-parallel sharding: a runner-shaped façade over N model shards.

:class:`ShardedRunner` partitions one Transformer across ``num_shards``
simulated workers the way Megatron-style serving stacks do — **column
parallel**: every projection's *output* features are split into contiguous
per-shard column ranges (Q/K/V by attention-head blocks, FC1 by ``d_ff``
columns, output/FC2/LM-head by balanced column ranges), each shard computes
its slice against the full-width activation, and the slices meet at explicit
``all_gather`` collectives on a :class:`~repro.serve.collective.CollectiveGroup`.
Attention itself is head-parallel — each shard owns a contiguous head range
and every per-head step is independent per head — and the fused kernel runs
*once* per layer for the group: the shards' query slices side by side are the
solo runner's operand, and the context cuts back into the per-shard column
slices that gather to full width before the output projection.  What the
group simulates per shard is the transport (messages, bytes, faults, retries,
``simulated_ms``) and the weight side (each executor's GEMM and ``stats``),
not host dispatch: a device runs the N head slices concurrently, so N kernel
calls in turn over the same pool, plan and layout simulated nothing.  Only
the dense branch, where each shard's executor quantizes its own heads'
operands, attends shard by shard.

**Where Tender's calibration lives** (the decomposition decision, also in
architecture.md): every shard holds a *full replica* of the per-chunk
calibration tables and Index-Buffer channel orders, because column-parallel
sharding never splits the **channel (reduction) axis** those tables index —
a shard sees all ``d_model`` (or ``d_ff``) input channels and only slices
output columns.  Per-column weight scales and permuted-row weight caches are
re-derived per shard from the shared tables and the shard's own column
slice, which equals slicing the full-width result column-for-column; the
``bias @ W`` compensation, a GEMV whose BLAS blocking depends on the slice's
width, is derived once at full width and sliced (:meth:`ShardedRunner._compensate`).
What the tables make identical on every shard — the
forward's plan and each site's *quantized activation* — is derived once per
forward and handed to every shard executor, which runs only its own weight
side (``TenderExecutor.quantize`` / ``project``).  The alternative — row-parallel splits meeting at
``all_reduce`` — would partition the channel axis, split Tender's per-chunk
scale groups across shards, and break bit-exactness at the floating-point
partial-sum reduction; that is why the runner meets at gathers and
``all_reduce`` stays a transport-level primitive (priced by the analytic
model, exercised by the transport tests).

The façade is a drop-in for :class:`~repro.models.inference.TransformerRunner`
(it *is* one, by subclass): ``prefill`` / ``verify`` / ``decode_step`` /
``logits`` keep their exact contracts and — the house gate — produce
bit-identical tokens and logits to the solo runner for Tender implicit and
explicit requantization, including under injected collective faults, because
every surviving collective delivers pristine payloads (see
``repro.serve.collective``).  A shard death or exhausted retry budget raises
a ``ReplicaFailureError`` subclass mid-step, which the replica pool treats
as a whole-replica crash: in-flight requests are checkpointed and replayed
onto a rebuilt group.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.kernels import ForwardPlan, paged_attention
from repro.errors import ConfigurationError
from repro.models.inference import KVCacheLike, MatmulExecutor, TransformerRunner, dense_cached_attention
from repro.serve.collective import CollectiveGroup
from repro.tensor.ops import softmax

__all__ = ["ShardedRunner", "partition_bounds"]


def partition_bounds(total: int, num_parts: int) -> List[Tuple[int, int]]:
    """Contiguous balanced ``[start, stop)`` ranges splitting ``total`` columns.

    The first ``total % num_parts`` parts take one extra column, so any width
    splits without padding; concatenating the slices in part order always
    reassembles the original tensor exactly.
    """
    if num_parts < 1:
        raise ConfigurationError("cannot partition into fewer than one part")
    base, remainder = divmod(total, num_parts)
    bounds = []
    start = 0
    for part in range(num_parts):
        stop = start + base + (1 if part < remainder else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _clone_executor(executor: MatmulExecutor) -> MatmulExecutor:
    """A fresh executor of the same scheme for one shard.

    Tender-style executors (anything carrying ``site_params``) are rebuilt
    around the *shared* calibration tables with private weight/bias caches —
    sharing one executor across shards would collide its per-site caches,
    which are keyed by matmul name while each shard passes a different
    column slice.  Stateless executors are rebuilt via their no-argument
    constructor.
    """
    if hasattr(executor, "site_params"):
        return type(executor)(
            executor.site_params,
            executor.config,
            implicit=executor.implicit,
            fast_kernels=executor.fast_kernels,
        )
    try:
        return type(executor)()
    except TypeError as error:  # pragma: no cover - defensive
        raise ConfigurationError(
            f"cannot clone executor {type(executor).__name__} per shard; "
            "pass executor_factory explicitly"
        ) from error


def _share_activation_side(executors: List[MatmulExecutor]) -> bool:
    """Whether one executor's ``quantize`` yields what every other one's would.

    True when every executor has an activation side (``quantize``), holds
    the *same* calibration object and agrees on configuration and kernel
    choice: the quantized activation is then replicated by construction,
    like the tables it is derived from.  Executors with no activation-side
    work (FP, the baselines) and factories handing out their own
    calibration keep one whole ``project`` per shard.
    """
    first = executors[0]
    return hasattr(first, "quantize") and all(
        type(executor) is type(first)
        and executor.site_params is first.site_params
        and (executor.config, executor.implicit, executor.fast_kernels)
        == (first.config, first.implicit, first.fast_kernels)
        for executor in executors[1:]
    )


class ShardedRunner(TransformerRunner):
    """Column-parallel tensor sharding behind the ``TransformerRunner`` surface.

    Parameters
    ----------
    runner:
        The solo runner to shard.  Its weights stay shared (read-only); its
        executor is cloned per shard (see ``executor_factory``).
    num_shards:
        Number of shards; must satisfy ``1 <= num_shards <= num_heads`` so
        every shard owns at least one attention head.
    group:
        The :class:`~repro.serve.collective.CollectiveGroup` the shards meet
        on; a fresh fault-free group of matching size by default.
    executor_factory:
        Optional ``shard_id -> executor`` override; the default clones the
        solo runner's executor (Tender executors share ``site_params`` —
        the replicated calibration tables — with private caches).
    """

    def __init__(
        self,
        runner: TransformerRunner,
        num_shards: int,
        *,
        group: Optional[CollectiveGroup] = None,
        executor_factory: Optional[Callable[[int], MatmulExecutor]] = None,
    ) -> None:
        config = runner.config
        if not 1 <= num_shards <= config.num_heads:
            raise ConfigurationError(
                f"num_shards must be in [1, num_heads={config.num_heads}], "
                f"got {num_shards}"
            )
        if group is not None and group.num_shards != num_shards:
            raise ConfigurationError(
                f"collective group spans {group.num_shards} shards, "
                f"runner wants {num_shards}"
            )
        super().__init__(runner.weights, runner.executor)
        self.fused_paged_attention = runner.fused_paged_attention
        # The weights are shared read-only, so the stacked Q/K/V operands cut
        # from them are too: every replica's shards reuse one set.
        self._qkv_stacks = runner._qkv_stacks
        self.num_shards = num_shards
        self.group = group if group is not None else CollectiveGroup(num_shards)
        if executor_factory is None:
            executor_factory = lambda shard_id: _clone_executor(runner.executor)  # noqa: E731
        #: One executor per shard: same scheme and calibration, private caches.
        self.executors: List[MatmulExecutor] = [
            executor_factory(shard_id) for shard_id in range(num_shards)
        ]
        # The shard executors serve the projections, so their capabilities count.
        self._uses_positions = all(getattr(e, "uses_positions", False) for e in self.executors)
        self._stacks_qkv = all(getattr(e, "stacks_sites", False) for e in self.executors)
        self._plain_attention = all(getattr(e, "plain_attention", False) for e in self.executors)
        #: Whether shard 0's ``quantize`` serves the whole group.
        self._shares_activation = _share_activation_side(self.executors)
        #: Sites whose ``bias @ W`` compensation the shards took from the solo
        #: executor (:meth:`_compensate`); ``None`` when that one is not built
        #: on the calibration the shards share, and each shard derives its own.
        self._compensated: Optional[set] = set() if (
            self._shares_activation and _share_activation_side([runner.executor, self.executors[0]])
        ) else None
        #: Contiguous head ranges per shard (attention head parallelism).
        self.head_bounds = partition_bounds(config.num_heads, num_shards)
        self._column_bounds: Dict[int, List[Tuple[int, int]]] = {}

    @property
    def healthy(self) -> bool:
        """Whether every shard (and the transport) is still serviceable."""
        return self.group.healthy

    # ------------------------------------------------------------------
    # Column-parallel projection
    # ------------------------------------------------------------------
    def _bounds_for(self, width: int) -> List[Tuple[int, int]]:
        """Balanced per-shard column ranges for an output ``width``, cached."""
        bounds = self._column_bounds.get(width)
        if bounds is None:
            bounds = partition_bounds(width, self.num_shards)
            self._column_bounds[width] = bounds
        return bounds

    def _compensate(self, name: str, weight: np.ndarray, bounds: List[Tuple[int, int]]) -> None:
        """Hand every shard its slice of site ``name``'s ``bias @ W`` compensation.

        The solo executor derives it once at full width — the values a solo
        forward adds — and each shard executor adopts its column range before
        its first projection of the site.  Derived from a shard's own slice it
        is right column for column but not bit for bit: an uneven split (three
        shards of four heads) drifted ~1e-16 from solo.
        """
        self._compensated.add(name)
        for executor, columns in zip(self.executors, bounds):
            executor.adopt_bias_projection(name, self.executor, weight, columns)

    def _shard_projections(
        self,
        name: str | Tuple[str, ...],
        x: np.ndarray,
        operands: List[Tuple[np.ndarray, Optional[np.ndarray]]],
        positions: Optional[ForwardPlan | np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Every shard's slice of one projection: full-width input, sliced columns.

        ``operands`` holds one ``(weight, bias)`` column slice per shard.
        The activation side — identical on every shard, the calibration
        being replicated — runs once when the group shares it, and each
        shard executor runs its own weight side only.  ``positions`` is the
        forward's plan (or a plain array): one plan serves every shard
        executor, which all group rows the same way.
        """
        leading = x.shape[:-1]
        flat = x.reshape(-1, x.shape[-1])
        keywords = {}
        if self._shares_activation:
            flat = self.executors[0].quantize(name, flat, positions)
        elif positions is not None and self._uses_positions:
            keywords["positions"] = positions
        return [
            executor.project(name, flat, weight, bias, **keywords).reshape(*leading, weight.shape[-1])
            for executor, (weight, bias) in zip(self.executors, operands)
        ]

    def _project(
        self,
        name: str,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        positions: Optional[ForwardPlan | np.ndarray] = None,
    ) -> np.ndarray:
        """Column-parallel projection meeting at an ``all_gather``.

        Every shard computes ``x @ W[:, a_s:b_s] (+ bias[a_s:b_s])`` over the
        full-width activation; the group gathers the column slices back in
        shard order.  Because the reduction (channel) axis is never split,
        each output column is computed by exactly one shard with exactly the
        solo runner's operands — the concatenation is bit-identical to the
        unsharded projection.
        """
        bounds = self._bounds_for(weight.shape[-1])
        if self._compensated is not None and name not in self._compensated:
            self._compensate(name, weight, bounds)
        operands = [
            (weight[:, start:stop], None if bias is None else bias[start:stop]) for start, stop in bounds
        ]
        return self.group.all_gather(self._shard_projections(name, x, operands, positions), axis=-1)

    # ------------------------------------------------------------------
    # Head-parallel attention
    # ------------------------------------------------------------------
    def _qkv_shards(
        self,
        index: int,
        x: np.ndarray,
        positions: Optional[ForwardPlan | np.ndarray],
    ) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
        """Per-shard Q/K/V column slices aligned to each shard's head range.

        Each shard stacks its own three column blocks into one ``project``
        call when its executor takes that (see ``TransformerRunner._qkv``).
        """
        d_head = self.config.d_head
        columns = [(h0 * d_head, h1 * d_head) for h0, h1 in self.head_bounds]
        attn = self.weights.blocks[index].attn
        prefix = f"block{index}.attn"
        if self._compensated is not None and f"{prefix}.q_proj" not in self._compensated:
            for site, weight in zip("qkv", (attn.wq, attn.wk, attn.wv)):
                # Contiguous, as the solo runner's stacked path hands each site its block.
                self._compensate(f"{prefix}.{site}_proj", np.ascontiguousarray(weight), columns)
        if self._stacks_qkv:
            stacks = [self._qkv_stack(index, cut) for cut in columns]
            operands = [(weight, bias) for _, weight, bias in stacks]
            split = [
                self._split_qkv(part)
                for part in self._shard_projections(stacks[0][0], x, operands, positions)
            ]
            return tuple(list(parts) for parts in zip(*split))
        return tuple(
            self._shard_projections(
                f"{prefix}.{site}_proj",
                x,
                [(weight[:, c0:c1], bias[c0:c1]) for c0, c1 in columns],
                positions,
            )
            for site, weight, bias in (
                ("q", attn.wq, attn.bq), ("k", attn.wk, attn.bk), ("v", attn.wv, attn.bv)
            )
        )

    @staticmethod
    def _split_heads(t: np.ndarray, num_heads: int, d_head: int) -> np.ndarray:
        batch, new_len = t.shape[0], t.shape[1]
        return t.reshape(batch, new_len, num_heads, d_head).transpose(0, 2, 1, 3)

    def _attention_cached(
        self, index: int, x: np.ndarray, cache: KVCacheLike, plan: ForwardPlan, kept: Optional[ForwardPlan] = None
    ) -> Optional[np.ndarray]:
        """Head-parallel cached attention meeting at K/V and context gathers.

        Each shard projects Q/K/V for its own contiguous head range of the
        forward's flat rows; the full-width K/V gather feeds the *single*
        scheduler-owned cache (one write, exactly like the solo runner), and
        the per-shard contexts gather back to full width before the
        column-parallel output projection.  Every per-head step is
        independent per head, so the gathered result is bit-identical to the
        solo runner's — whether the fused kernel serves all heads in one
        call or, on the dense branch, each shard's executor its own.

        ``kept`` (as in the solo runner) cuts the query slices to the rows
        still read *after* the K/V gathers and the write, which carry every
        row: the later gathers move kept rows only, or none happen at all.
        """
        block = self.weights.blocks[index]
        config = self.config
        prefix = f"block{index}.attn"
        d_head = config.d_head

        q_parts, k_parts, v_parts = self._qkv_shards(index, x, plan)
        keys = self.group.all_gather(k_parts, axis=-1)
        values = self.group.all_gather(v_parts, axis=-1)
        cache.write(
            index,
            self._row_heads(keys, config.num_heads),
            self._row_heads(values, config.num_heads),
            plan,
        )
        if kept is not None:
            if not kept.positions.size:
                return None
            q_parts, plan = [part[kept.parent_rows] for part in q_parts], kept
        rows = plan.positions.size
        if self.fused_paged_attention and self._plain_attention:
            # One call for the group: head ranges are contiguous and in shard
            # order, so the query slices side by side are the solo runner's
            # operand.  Operands fetched after the write, same as the solo runner:
            # any copy-on-write fork is already reflected in the run table.
            key_pool, value_pool, runs, block_size = cache.attention_operands(index)
            queries = self._row_heads(np.concatenate(q_parts, axis=-1), config.num_heads)
            context = paged_attention(queries, key_pool, value_pool, runs, block_size, plan)
            context = context.reshape(rows, config.d_model)
            context_parts = [context[:, h0 * d_head : h1 * d_head] for h0, h1 in self.head_bounds]
        else:
            # Each shard's own executor quantizes (and counts) its own heads.
            cached_keys, cached_values = cache.view(index, plan.attended)
            context_parts = [
                dense_cached_attention(
                    executor,
                    prefix,
                    self._row_heads(q_part, h1 - h0),
                    cached_keys[:, h0:h1],
                    cached_values[:, h0:h1],
                    plan,
                    d_head,
                ).reshape(rows, (h1 - h0) * d_head)
                for executor, q_part, (h0, h1) in zip(self.executors, q_parts, self.head_bounds)
            ]
        context = self.group.all_gather(context_parts, axis=-1)
        return self._project(f"{prefix}.out_proj", context, block.attn.wo, block.attn.bo, plan)

    def _attention(
        self,
        index: int,
        x: np.ndarray,
        positions: Optional[ForwardPlan | np.ndarray] = None,
    ) -> np.ndarray:
        """Head-parallel full-sequence attention (the ``logits()`` path)."""
        block = self.weights.blocks[index]
        config = self.config
        batch, seq, _ = x.shape
        prefix = f"block{index}.attn"
        d_head = config.d_head

        q_parts, k_parts, v_parts = self._qkv_shards(index, x, positions)
        mask = (
            np.triu(np.ones((seq, seq), dtype=bool), k=1) if config.causal else None
        )
        context_parts: List[np.ndarray] = []
        for shard_id, (h0, h1) in enumerate(self.head_bounds):
            executor = self.executors[shard_id]
            queries = self._split_heads(q_parts[shard_id], h1 - h0, d_head)
            keys = self._split_heads(k_parts[shard_id], h1 - h0, d_head)
            values = self._split_heads(v_parts[shard_id], h1 - h0, d_head)
            scores = executor.attention_matmul(
                f"{prefix}.qk", queries, np.swapaxes(keys, -1, -2)
            ) / np.sqrt(d_head)
            if mask is not None:
                scores = np.where(mask[None, None], -1e9, scores)
            attention = softmax(scores, axis=-1)
            context = executor.attention_matmul(f"{prefix}.sv", attention, values)
            context_parts.append(
                context.transpose(0, 2, 1, 3).reshape(batch, seq, (h1 - h0) * d_head)
            )
        context = self.group.all_gather(context_parts, axis=-1)
        return self._project(f"{prefix}.out_proj", context, block.attn.wo, block.attn.bo, positions)
