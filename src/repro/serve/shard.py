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
cross the transport.  Q is never gathered: attention is head-parallel, and
the solo runner's own attention runs *once* per layer for the group, over
the full-width queries — on the fused kernel and on the dense branch alike,
whose run-time requantization (Tender ``quantize_attention=True``) is per
(batch, head).  K and V cut into the shards' head columns and gather before
the cache write, the context before the output projection
(:meth:`ShardedRunner._meet_heads`).

What the group simulates per shard is the transport — messages, bytes,
sequence numbers, checksums, faults, retries, ``simulated_ms`` — not host
dispatch, weight-side work or attention: N devices run their slices
concurrently, so N calls in turn over the same operands simulated nothing.

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

from repro.core.kernels import ForwardPlan
from repro.errors import ConfigurationError, require_count
from repro.models.inference import MatmulExecutor, TransformerRunner
from repro.serve.collective import CollectiveGroup

__all__ = ["ShardedRunner", "partition_bounds"]


def partition_bounds(total: int, num_parts: int) -> List[Tuple[int, int]]:
    """Contiguous balanced ``[start, stop)`` ranges splitting ``total`` columns.

    The first ``total % num_parts`` parts take one extra column, so any width
    splits without padding; concatenating the slices in part order always
    reassembles the original tensor exactly.  ``total`` must be an integer
    ``>= 0`` and ``num_parts`` one ``>= 1`` (``ConfigurationError`` otherwise).
    """
    total = require_count("total", total, 0)
    num_parts = require_count("num_parts", num_parts, 1)
    base, remainder = divmod(total, num_parts)
    bounds = []
    start = 0
    for part in range(num_parts):
        stop = start + base + (1 if part < remainder else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _clone_executor(executor: MatmulExecutor) -> MatmulExecutor:
    """An executor of the same scheme, with ``stats`` of its own, that the runner never calls.

    Kept only for :attr:`ShardedRunner.executors`, which the benchmark's
    probe (``bench/probes.py``) wraps.  Tender-style executors (anything
    carrying ``site_params``) are rebuilt around the *shared* calibration
    tables; any other executor is copied.
    """
    if hasattr(executor, "site_params"):
        return type(executor)(executor.site_params, executor.config, implicit=executor.implicit)
    return copy.copy(executor)


class ShardedRunner(TransformerRunner):
    """Column-parallel tensor sharding behind the ``TransformerRunner`` surface.

    Parameters
    ----------
    runner:
        The solo runner to shard.  Its weights and executor are shared: every
        projection and attention product runs through that executor at full width.
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
        #: One clone of the runner's executor per shard, which no forward
        #: calls (every product runs on :attr:`executor`): kept only because
        #: the benchmark's probe wraps ``runner.executors``.
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
    # Where the shards meet: projection columns and attention heads
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

    def _meet_heads(self, t: np.ndarray) -> np.ndarray:
        """``t``'s per-shard head columns, reassembled by an ``all_gather`` (K, V and the attention context).

        Every per-head step is independent per head, so each shard's columns
        hold exactly the bits its own heads' attention would.
        """
        return self.group.all_gather([t[..., c0:c1] for c0, c1 in self._head_columns], axis=-1)
