"""Tensor-parallel sharding: a runner-shaped façade over N model shards.

:class:`ShardedRunner` partitions one Transformer across ``num_shards``
simulated workers the way Megatron-style serving stacks do — **column
parallel**: every projection's *output* features are split into contiguous
per-shard column ranges (K/V by attention-head blocks, the output projection,
FC1, FC2 and the LM head by balanced column ranges), each shard owns its
slice of the full-width activation's product, and the slices meet at explicit
``all_gather`` collectives on a :class:`~repro.serve.collective.CollectiveGroup`.
The reduction (channel) axis is never split, and Tender's projection is an
exact integer product followed by a per-column epilogue (the rescale, the
``bias @ W`` compensation, the layer bias) under implicit and explicit
requantization alike, so a column's bits do not depend on which call
computed it.  The group therefore projects each site **once**, at full
width, through the solo runner's own executor — the result N devices would
assemble, bit for bit — and cuts it into the per-shard column slices that
cross the transport.  Q is never gathered: attention is head-parallel and
the fused kernel runs *once* per layer for the group, over the full-width
queries, and its context cuts back into the per-shard slices that gather
before the output projection.

What the group simulates per shard is the transport — messages, bytes,
sequence numbers, checksums, faults, retries, ``simulated_ms`` — not host
dispatch or weight-side work: N devices run their slices concurrently, so N
calls in turn over the same operands simulated nothing.  Only the dense
attention branch (Tender ``quantize_attention=True``), where each shard's
own executor (:attr:`ShardedRunner.executors`) quantizes its own heads'
operands at run time, still runs shard by shard.

**Where Tender's calibration lives** (the decomposition decision, also in
architecture.md): every shard holds a *full replica* of the per-chunk
calibration tables and Index-Buffer channel orders, because column-parallel
sharding never splits the channel axis those tables index — a shard sees
all ``d_model`` (or ``d_ff``) input channels and owns only output columns.
Its per-column weight scales, permuted weights and ``bias @ W``
compensation are its columns of the full-width ones, which is why one
full-width derivation serves the whole group.  The alternative —
row-parallel splits meeting at ``all_reduce`` — would partition the channel
axis, split Tender's per-chunk scale groups across shards, and break
bit-exactness at the floating-point partial-sum reduction; that is why the
runner meets at gathers and ``all_reduce`` stays a transport-level primitive
(priced by the analytic model, exercised by the transport tests).

The façade is a drop-in for :class:`~repro.models.inference.TransformerRunner`
(it *is* one, by subclass): ``prefill`` / ``verify`` / ``decode_step`` /
``logits`` keep their exact contracts and — the house gate — produce
bit-identical tokens and logits to the solo runner for every executor,
including under injected collective faults, because every surviving
collective delivers pristine payloads (see ``repro.serve.collective``).  A
shard death or exhausted retry budget raises a ``ReplicaFailureError``
subclass mid-step, which the replica pool treats as a whole-replica crash:
in-flight requests are checkpointed and replayed onto a rebuilt group.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.kernels import ForwardPlan, paged_attention
from repro.errors import ConfigurationError, require_count
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
    """An executor of the same scheme for one shard's dense attention products.

    Tender-style executors (anything carrying ``site_params``) are rebuilt
    around the *shared* calibration tables with caches and ``stats`` of
    their own, so each shard counts the attention products it quantizes;
    any other executor is copied.
    """
    if hasattr(executor, "site_params"):
        return type(executor)(
            executor.site_params,
            executor.config,
            implicit=executor.implicit,
            fast_kernels=executor.fast_kernels,
        )
    return copy.copy(executor)


class ShardedRunner(TransformerRunner):
    """Column-parallel tensor sharding behind the ``TransformerRunner`` surface.

    Parameters
    ----------
    runner:
        The solo runner to shard.  Its weights and executor are shared: every
        projection runs through that executor at full width.
    num_shards:
        Number of shards; must satisfy ``1 <= num_shards <= num_heads`` so
        every shard owns at least one attention head.
    group:
        The :class:`~repro.serve.collective.CollectiveGroup` the shards meet
        on; a fresh fault-free group of matching size by default.
    """

    def __init__(
        self,
        runner: TransformerRunner,
        num_shards: int,
        *,
        group: Optional[CollectiveGroup] = None,
    ) -> None:
        config = runner.config
        num_shards = require_count("num_shards", num_shards, 1)
        if num_shards > config.num_heads:
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
        # from them are too: every replica reuses one set.
        self._qkv_stacks = runner._qkv_stacks
        self.num_shards = num_shards
        self.group = group if group is not None else CollectiveGroup(num_shards)
        #: One clone of the runner's executor per shard, for the dense
        #: attention branch: same scheme and calibration, its own ``stats``.
        self.executors: List[MatmulExecutor] = [_clone_executor(runner.executor) for _ in range(num_shards)]
        #: Contiguous head ranges per shard (attention head parallelism), and
        #: the column range each covers in a Q/K/V or context row.
        self.head_bounds = partition_bounds(config.num_heads, num_shards)
        self._head_columns = [(h0 * config.d_head, h1 * config.d_head) for h0, h1 in self.head_bounds]
        self._column_bounds: Dict[int, List[Tuple[int, int]]] = {}

    @property
    def healthy(self) -> bool:
        """Whether every shard (and the transport) is still serviceable."""
        return self.group.healthy

    # ------------------------------------------------------------------
    # Column-parallel projection
    # ------------------------------------------------------------------
    def _gather(self, output: np.ndarray, bounds: List[Tuple[int, int]]) -> np.ndarray:
        """``output``'s per-shard column slices, reassembled by an ``all_gather``."""
        return self.group.all_gather([output[..., start:stop] for start, stop in bounds], axis=-1)

    def _project(
        self,
        name: str,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        positions: Optional[ForwardPlan | np.ndarray] = None,
    ) -> np.ndarray:
        """Column-parallel projection meeting at an ``all_gather``.

        Shard ``s`` owns ``x @ W[:, a_s:b_s] (+ bias[a_s:b_s])`` over the
        full-width activation.  The solo runner's projection computes every
        such slice in one call: the reduction axis is never split and the
        epilogue is per column, so each column holds exactly the bits its
        shard's slice would.  The slices then cross the transport in shard
        order, balanced by :func:`partition_bounds`.
        """
        output = super()._project(name, x, weight, bias, positions)
        width = output.shape[-1]
        bounds = self._column_bounds.get(width)
        if bounds is None:
            bounds = self._column_bounds[width] = partition_bounds(width, self.num_shards)
        return self._gather(output, bounds)

    # ------------------------------------------------------------------
    # Head-parallel attention
    # ------------------------------------------------------------------
    @staticmethod
    def _split_heads(t: np.ndarray, num_heads: int, d_head: int) -> np.ndarray:
        batch, new_len = t.shape[0], t.shape[1]
        return t.reshape(batch, new_len, num_heads, d_head).transpose(0, 2, 1, 3)

    def _attention_cached(
        self, index: int, x: np.ndarray, cache: KVCacheLike, plan: ForwardPlan, kept: Optional[ForwardPlan] = None
    ) -> Optional[np.ndarray]:
        """Head-parallel cached attention meeting at K/V and context gathers.

        Q/K/V are the solo runner's projections of the forward's flat rows;
        K and V cross the transport as each shard's head range and feed the
        *single* scheduler-owned cache (one write, exactly like the solo
        runner), and the per-shard contexts gather back to full width before
        the column-parallel output projection.  Every per-head step is
        independent per head, so the result is bit-identical to the solo
        runner's — whether the fused kernel serves all heads in one call or,
        on the dense branch, each shard's executor its own.

        ``kept`` (as in the solo runner) cuts the queries to the rows still
        read *after* the K/V gathers and the write, which carry every row:
        the later gathers move kept rows only, or none happen at all.
        """
        block = self.weights.blocks[index]
        config = self.config
        heads = config.num_heads
        queries, keys, values = self._qkv(index, x, plan)
        keys = self._gather(keys, self._head_columns)
        values = self._gather(values, self._head_columns)
        cache.write(index, self._row_heads(keys, heads), self._row_heads(values, heads), plan)
        if kept is not None:
            if not kept.positions.size:
                return None
            queries, plan = queries[kept.parent_rows], kept
        prefix = f"block{index}.attn"
        if self.fused_paged_attention and self._plain_attention:
            # One call for the group: operands fetched after the write, same as
            # the solo runner, so any copy-on-write fork is in the run table.
            key_pool, value_pool, runs, block_size = cache.attention_operands(index)
            context = paged_attention(self._row_heads(queries, heads), key_pool, value_pool, runs, block_size, plan)
            context = self._gather(context.reshape(-1, config.d_model), self._head_columns)
        else:
            # Each shard's own executor quantizes (and counts) its own heads.
            cached_keys, cached_values = cache.view(index, plan.attended)
            context = self.group.all_gather(
                [
                    dense_cached_attention(
                        executor,
                        prefix,
                        self._row_heads(queries[:, c0:c1], h1 - h0),
                        cached_keys[:, h0:h1],
                        cached_values[:, h0:h1],
                        plan,
                        config.d_head,
                    ).reshape(-1, c1 - c0)
                    for executor, (h0, h1), (c0, c1) in zip(self.executors, self.head_bounds, self._head_columns)
                ],
                axis=-1,
            )
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

        queries, keys, values = self._qkv(index, x, positions)
        mask = (
            np.triu(np.ones((seq, seq), dtype=bool), k=1) if config.causal else None
        )
        context_parts: List[np.ndarray] = []
        for executor, (h0, h1), (c0, c1) in zip(self.executors, self.head_bounds, self._head_columns):
            scores = executor.attention_matmul(
                f"{prefix}.qk",
                self._split_heads(queries[..., c0:c1], h1 - h0, d_head),
                np.swapaxes(self._split_heads(keys[..., c0:c1], h1 - h0, d_head), -1, -2),
            ) / np.sqrt(d_head)
            if mask is not None:
                scores = np.where(mask[None, None], -1e9, scores)
            attention = softmax(scores, axis=-1)
            context = executor.attention_matmul(
                f"{prefix}.sv", attention, self._split_heads(values[..., c0:c1], h1 - h0, d_head)
            )
            context_parts.append(context.transpose(0, 2, 1, 3).reshape(batch, seq, c1 - c0))
        context = self.group.all_gather(context_parts, axis=-1)
        return self._project(f"{prefix}.out_proj", context, block.attn.wo, block.attn.bo, positions)
