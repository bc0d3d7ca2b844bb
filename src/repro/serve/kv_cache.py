"""Per-layer key/value caches for incremental autoregressive decoding.

Full-sequence inference recomputes every key and value projection for every
token at every step — O(n^2) projection work over a generation of n tokens.
The KV-cache stores each layer's key/value head tensors once, so a decode step
only projects the *new* token and attends over the cached history.  This is
the serving regime in which Tender's runtime requantization matters most: the
activation-activation matmuls (``X_Q X_K^T`` and ``X_S X_V``) are recomputed
against the cache at every step, with operands that only exist at runtime
(Figures 12/13 of the paper).

The cache is batch-major and slot-addressed: slot ``s`` of sequence ``b``
holds the key/value of the token at absolute position ``s``.  Ragged batches
simply track a per-sequence ``lengths`` vector; slots past a sequence's length
may hold stale data and are masked out by the attention visibility rule
(``slot <= query position``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.kernels import ForwardPlan, flat_heads
from repro.errors import ConfigurationError


class KVCache:
    """Cached key/value tensors for every layer of one batched generation.

    This is the *dense* cache: one fixed batch lane per sequence, grown (but
    never reclaimed) until the whole batch drains.  The continuous-batching
    scheduler uses the block-allocated
    :class:`~repro.serve.paged_kv_cache.PagedKVCache` instead, which frees a
    request's memory the moment it finishes and can share prefix blocks
    across requests; both expose the same
    ``write``/``view``/``ensure_capacity``/``lengths`` interface consumed by
    :class:`~repro.models.inference.TransformerRunner` — including the
    partial-prompt ``prefill(..., start_positions=...)`` contract, which
    simply appends a later chunk at the positions it names.

    Parameters
    ----------
    num_layers : int
        Transformer layers (one key/value array pair each).
    batch_size : int
        Batch lanes (one per concurrently decoded sequence).
    num_heads : int
        Attention heads per layer.
    d_head : int
        Head dimension.
    capacity : int
        Token slots per lane (grown on demand by :meth:`ensure_capacity`).

    Attributes
    ----------
    keys, values : list of ndarray
        One ``(batch, num_heads, capacity, d_head)`` array per layer.
    lengths : ndarray
        Number of committed tokens per sequence.  ``decode_step`` writes each
        sequence's new token at slot ``lengths[b]`` and then advances it.

    Raises
    ------
    ConfigurationError
        If any dimension is < 1.
    """

    def __init__(self, num_layers: int, batch_size: int, num_heads: int, d_head: int, capacity: int) -> None:
        if min(num_layers, batch_size, num_heads, d_head, capacity) < 1:
            raise ConfigurationError("KVCache dimensions must all be >= 1")
        shape = (batch_size, num_heads, capacity, d_head)
        self.keys: List[np.ndarray] = [np.zeros(shape, dtype=np.float64) for _ in range(num_layers)]
        self.values: List[np.ndarray] = [np.zeros(shape, dtype=np.float64) for _ in range(num_layers)]
        self.lengths = np.zeros(batch_size, dtype=np.int64)

    @classmethod
    def for_model(cls, config, batch_size: int, capacity: int = 0) -> "KVCache":
        """Allocate a cache sized for a model architecture.

        Parameters
        ----------
        config : TransformerConfig
            Supplies layer count, head count, head dimension and the
            ``max_seq_len`` cap.
        batch_size : int
            Batch lanes to allocate.
        capacity : int, optional
            Initial token slots per lane; defaults to ``max_seq_len`` and is
            always capped there.

        Returns
        -------
        KVCache
        """
        capacity = capacity or config.max_seq_len
        return cls(
            num_layers=config.num_layers,
            batch_size=batch_size,
            num_heads=config.num_heads,
            d_head=config.d_head,
            capacity=min(capacity, config.max_seq_len),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        """Number of cached layers."""
        return len(self.keys)

    @property
    def batch_size(self) -> int:
        """Number of batch lanes."""
        return int(self.keys[0].shape[0])

    @property
    def capacity(self) -> int:
        """Token slots currently allocated per lane."""
        return int(self.keys[0].shape[2])

    @property
    def memory_bytes(self) -> int:
        """Total bytes held by the cached key/value arrays."""
        return sum(k.nbytes + v.nbytes for k, v in zip(self.keys, self.values))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def ensure_capacity(self, needed: int) -> None:
        """Grow every layer (by at least doubling) to hold ``needed`` slots."""
        current = self.capacity
        if needed <= current:
            return
        new_capacity = max(needed, 2 * current)
        for layer in range(self.num_layers):
            for arrays in (self.keys, self.values):
                old = arrays[layer]
                grown = np.zeros(old.shape[:2] + (new_capacity, old.shape[3]), dtype=old.dtype)
                grown[:, :, :current] = old
                arrays[layer] = grown

    def write(self, layer: int, keys: np.ndarray, values: np.ndarray, slots) -> None:
        """Store new head tensors at per-sequence slots.

        Parameters
        ----------
        layer : int
            Layer whose arrays receive the data.
        keys, values : ndarray
            Flat ``(num_heads, rows, d_head)`` payloads (see
            :class:`~repro.core.kernels.ForwardPlan`), or the rectangle
            ``(batch, num_heads, new_len, d_head)``.
        slots : ndarray or ForwardPlan
            The forward's plan — each flat row names its lane and its token
            slot, so sequences of a ragged batch write different slots (and
            different numbers of them) in the same step — or the
            ``(batch, new_len)`` slots it is built from.
        """
        plan = ForwardPlan.of(slots)
        self.ensure_capacity(plan.attended)
        # Advanced indices on axes 0 and 2 with a slice between: the head axis
        # moves last in the indexed view, so the payload is transposed to match.
        self.keys[layer][plan.rows, :, plan.positions] = flat_heads(keys).transpose(1, 0, 2)
        self.values[layer][plan.rows, :, plan.positions] = flat_heads(values).transpose(1, 0, 2)

    def view(self, layer: int, length: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cached key/value arrays truncated to the first ``length`` slots.

        Parameters
        ----------
        layer : int
            Layer to read.
        length : int
            Token slots to expose.

        Returns
        -------
        tuple of ndarray
            ``(keys, values)`` of shape ``(batch, num_heads, length, d_head)``.

        Raises
        ------
        ConfigurationError
            If ``length`` exceeds the current capacity.
        """
        if length > self.capacity:
            raise ConfigurationError(
                f"requested {length} cache slots but capacity is {self.capacity}"
            )
        return self.keys[layer][:, :, :length], self.values[layer][:, :, :length]
