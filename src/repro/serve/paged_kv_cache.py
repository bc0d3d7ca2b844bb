"""Block-allocated, slot-granular key/value cache with cross-request reuse.

Full-sequence inference recomputes every key and value projection for every
token at every step; a KV cache stores each layer's key/value head tensors
once, so a decode step only projects the *new* token and attends over the
cached history.  This is the serving regime in which Tender's runtime
requantization matters most: the activation-activation matmuls (``X_Q X_K^T``
and ``X_S X_V``) are recomputed against the cache at every step, with
operands that only exist at runtime (Figures 12/13 of the paper).

This is the repository's one KV cache.  Under continuous batching, requests
finish (and new ones arrive) mid-flight, so the cache must be able to free
one request's memory the moment it completes and hand it to the next
arrival.  :class:`PagedKVCache` does exactly that, following the paging
design popularised by vLLM: physical storage is a pool of fixed-size
*blocks*, and each live request (a *slot*) owns a block table mapping its
token positions onto blocks in the pool.  A fixed batch
(:class:`~repro.serve.engine.GenerationEngine`) and a per-request drafter
(:class:`~repro.serve.spec.ModelDraft`) are the same pool with as many slots
as they have sequences.

Since the prefix-caching PR, blocks additionally carry *identity*:

* every block has a **reference count** — several slots may map the same
  physical block when their prompts share a prefix;
* a block whose contents cover one full block of committed prompt tokens can
  be **published** into a radix index keyed by ``(parent block, token run)``
  — the chain of keys is exactly a content hash of the token prefix, so
  :meth:`match_prefix` finds the longest cached prefix of a new prompt in
  one walk;
* writes into a block shared with another slot trigger **copy-on-write**:
  the writer gets a private copy and the original keeps serving the other
  holders (and future prefix matches);
* freed *published* blocks stay **cached** with their bytes intact: they
  keep their index entry (and stay matchable) until memory pressure
  actually reclaims them, at which point the block — and every radix
  descendant, whose chained identity it anchored — is de-indexed.  They
  wait on two LRU lists: blocks no reservation has shared since they were
  published, reclaimed first, and blocks one has — so a scan of prompts
  nobody shares cannot flush a prefix somebody does (the segmented-LRU
  rule of 2Q, Johnson & Shasha, VLDB 1994);
* freed *unpublished* blocks — nothing can match them, so they are
  interchangeable — coalesce into a map of **free extents**, and every
  reservation is carved out of it as consecutive runs (the extent that
  continues the shared prefix, else the best fit, else the fewest extents
  that cover it): the fused attention kernel pays one matmul pair per run
  of a table, so *where* a table lands is a performance decision, while
  *which* cached block dies stays the LRU lists' — the extents are
  drained before any published block is reclaimed, exactly the order a
  single list with unpublished blocks at its front would give;
* a *cached* block — published, unreferenced — is in no table and is known
  by its radix key, not its address, so it can be **relocated**: when the
  free blocks are there but no extent is long enough (under eviction
  pressure the extents are a mosaic between cached blocks), or cached
  blocks sit right after the prefix a reservation shares, the reservation
  moves the cached blocks out of a window — bytes, radix identity, LRU
  list and position — and is still one run, continuing its prefix where
  that costs few moves; which prefix dies next is untouched.

The pool promises nothing about bytes no row can see: freed, reclaimed and
vacated blocks and rolled-back positions keep whatever they held, and
nothing is zeroed after construction.  A sequence only attends to positions
it has itself written (the visibility rule), so the fused kernel never reads
past them; the one reader that does — the dense copy under executors that
quantize attention operands dynamically (Tender ``quantize_attention=True``),
whose per-column scales span the forward's widest window — zeroes every
column past each sequence's reach itself
(:func:`repro.models.inference.dense_cached_attention`).
``tests/serve/test_stale_pool.py`` serves from a pool full of stale bytes to
pin this down.

Two pieces cooperate:

* :class:`PagedKVCache` — the physical pool plus per-slot block tables
  (``reserve`` / ``free`` / ``write`` / ``gather``), and
* :class:`SlotBatchView` — the whole runner-to-cache contract
  (:class:`~repro.models.inference.KVCacheLike`) over an arbitrary *subset*
  of slots, which is what lets
  :meth:`repro.models.inference.TransformerRunner.decode_step` run one
  batched iteration over whichever requests the scheduler has active without
  knowing anything about paging.  The view precomputes a dense
  ``(row, block index) -> physical block`` table so ``gather`` is one fancy
  index per layer and ``write`` one scatter — refreshed only when the pool's
  block topology actually changes (reserve/free/copy-on-write/truncate),
  never per decode iteration.

Since the fused-paged-attention PR the pool's physical layout is
``(num_heads, num_blocks, block_size, d_head)`` — heads outermost — so a run
of *consecutive* physical blocks is one zero-copy reshape away from the
``(num_heads, run_len x block_size, d_head)`` operand an attention matmul
wants.  :meth:`SlotBatchView.attention_operands` exposes the pool arrays
plus each row's maximal consecutive-block runs (cached on the block index),
letting :func:`repro.core.kernels.paged_attention` consume KV straight from
block storage; :meth:`PagedKVCache.gather` remains the retained
dense-copy reference path, and its traffic is tallied in
:attr:`PagedKVCache.gather_bytes` so serving gates can assert the fused
path truly never materializes a dense KV copy.
"""

from __future__ import annotations

import numbers
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.kernels import ForwardPlan
from repro.errors import ConfigurationError, ResourceExhaustedError, require_count

#: Radix-index parent of a prompt's first block (no preceding prefix).
_ROOT = -1


class _BlockIndex:
    """Precomputed physical-block lookup table over a fixed set of slots.

    ``tables[row, i]`` is the physical block backing block index ``i`` of
    ``slot_ids[row]`` (``-1`` padding past a shorter slot's reservation).
    Rebuilt from the pool only when the pool's ``table_version`` moves —
    i.e. on reserve/free/copy-on-write/truncate, not per decode iteration.

    ``runs[row]`` decomposes the row's table into maximal runs of
    *consecutive* physical blocks as ``(first_block_index, first_physical,
    num_blocks)`` triples: with the head-outermost pool layout each run is a
    zero-copy view of block storage, which is what the fused paged-attention
    kernel consumes instead of a gathered dense copy.
    """

    __slots__ = ("slot_ids", "version", "tables", "blocks_per_row", "runs")

    def __init__(self, paged: "PagedKVCache", slot_ids: Sequence[int]) -> None:
        self.slot_ids = [int(s) for s in slot_ids]
        self.refresh(paged)

    def refresh(self, paged: "PagedKVCache") -> None:
        """Re-read the slots' block tables from the pool."""
        try:
            tables = [paged._tables[slot] for slot in self.slot_ids]
        except KeyError as missing:
            raise ConfigurationError(
                f"slot {missing.args[0]} of {self.slot_ids} is not reserved (freed, or never was)"
            ) from None
        width = max(len(table) for table in tables)
        dense = np.full((len(tables), width), _ROOT, dtype=np.int64)
        for row, table in enumerate(tables):
            dense[row, : len(table)] = table
        self.tables = dense
        self.blocks_per_row = np.array([len(table) for table in tables], dtype=np.int64)
        self.runs = [_consecutive_runs(table) for table in tables]
        self.version = paged._table_version


def _consecutive_runs(table: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Maximal consecutive-physical-block runs of one slot's table.

    Returns ``(first_block_index, first_physical_block, num_blocks)``
    triples covering the table in position order.
    """
    runs: List[Tuple[int, int, int]] = []
    for index, block in enumerate(table):
        if runs and runs[-1][1] + runs[-1][2] == block:
            first_index, first_physical, count = runs[-1]
            runs[-1] = (first_index, first_physical, count + 1)
        else:
            runs.append((index, int(block), 1))
    return runs


class _FreeExtents:
    """Coalescing map of free, interchangeable blocks, handed out as runs.

    Holds the pool's unreferenced *unpublished* blocks — nothing can match
    them, so which one a reservation gets is free to choose — as maximal
    extents of consecutive ids, boundary-tagged both ways (``length`` by
    first block, ``start_of`` by one-past-the-last) so a released run
    coalesces with its neighbours without a search.  A pick scans extents —
    a handful, because they coalesce — never blocks.
    """

    __slots__ = ("length", "start_of", "blocks")

    def __init__(self, num_blocks: int) -> None:
        #: First block of every extent -> its number of blocks.
        self.length: Dict[int, int] = {}
        #: One past the last block of every extent -> its first block.
        self.start_of: Dict[int, int] = {}
        #: Blocks held, over all extents.
        self.blocks = 0
        self._insert(0, num_blocks)

    def _insert(self, start: int, end: int) -> None:
        """Register the extent ``[start, end)``."""
        self.length[start] = end - start
        self.start_of[end] = start
        self.blocks += end - start

    def _remove(self, start: int) -> int:
        """Unregister the extent beginning at ``start``; returns its end."""
        size = self.length.pop(start)
        del self.start_of[start + size]
        self.blocks -= size
        return start + size

    def add(self, first: int, count: int = 1) -> None:
        """Return the run ``[first, first + count)``, merging it with the extents it touches."""
        start, end = self.start_of.get(first, first), first + count
        if start != first:
            self._remove(start)
        if end in self.length:
            end = self._remove(end)
        self._insert(start, end)

    def _cut(self, start: int, first: int, count: int) -> Tuple[int, int]:
        """Take ``[first, first + count)`` out of the extent beginning at ``start``."""
        end = self._remove(start)
        if first > start:
            self._insert(start, first)
        if first + count < end:
            self._insert(first + count, end)
        return first, count

    def take(
        self, count: int, after: Optional[int] = None, before: Optional[int] = None
    ) -> List[Tuple[int, int]]:
        """Carve out ``count`` blocks as ``(first, count)`` runs, in table order.

        The blocks will sit between table neighbours ``after`` and
        ``before`` (either may be absent): the extent directly continuing
        ``after`` is used first and the one ending right at ``before`` last,
        so the new blocks extend the neighbours' runs.  What remains comes
        from the best-fitting single extent (smallest that holds it; ties to
        the lowest address), else largest-first with a best-fit remainder,
        laid out in ascending order.  The caller guarantees ``count`` blocks
        are held.
        """
        head: List[Tuple[int, int]] = []
        tail: List[Tuple[int, int]] = []
        if after is not None and after + 1 in self.length:
            head.append(self._cut(after + 1, after + 1, min(count, self.length[after + 1])))
            count -= head[0][1]
        if count and before in self.start_of:
            start = self.start_of[before]
            size = min(count, before - start)
            tail.append(self._cut(start, before - size, size))
            count -= size
        middle = []
        if count == self.blocks:  # everything left goes (a forced reclaim): nothing to fit
            middle, count, self.blocks = self.extents(), 0, 0
            self.length.clear()
            self.start_of.clear()
        while count:
            # One pass: the smallest extent that holds the rest, else the
            # largest; ties to the lowest address either way.
            start, size = -1, 0
            for first, length in self.length.items():
                if length >= count:
                    better = size < count or length < size
                else:
                    better = size < count and length > size
                if better or (length == size and first < start):
                    start, size = first, length
            middle.append(self._cut(start, start, min(count, size)))
            count -= middle[-1][1]
        return head + sorted(middle) + tail

    def extents(self) -> List[Tuple[int, int]]:
        """``(first block, number of blocks)`` of every extent, ascending."""
        return sorted(self.length.items())

    def reset(self, free: np.ndarray) -> None:
        """Rebuild the map from a boolean mask of the blocks it holds."""
        padded = np.zeros(len(free) + 2, dtype=bool)
        padded[1:-1] = free
        edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()  # starts and ends alternate
        self.length = {start: end - start for start, end in zip(edges[::2], edges[1::2])}
        self.start_of = dict(zip(edges[1::2], edges[::2]))
        self.blocks = sum(self.length.values())


class PagedKVCache:
    """A pool of fixed-size KV blocks shared by all live requests.

    Storage is one ``(num_heads, num_blocks, block_size, d_head)`` key array
    and one value array per layer — heads outermost, so consecutive physical
    blocks are contiguous per head and a consecutive-block run reshapes into
    an attention operand without copying — all of them views of a single
    allocation, so a block is copied in every layer by one assignment.  A
    *slot* (one live request) owns a list of block ids covering positions
    ``[0, capacity)``; :meth:`reserve` allocates the whole table up front so
    a request admitted by the scheduler can never run out of cache
    mid-decode.  Blocks are reference
    counted: a reservation may *share* published prefix blocks with other
    slots (see :meth:`match_prefix` / :meth:`publish_prefix`), writes into a
    shared block fork a private copy, and freed published blocks stay
    cached so their contents stay matchable until reclaimed: those no
    reservation has shared since they were published before those one
    has, the oldest released first within each (:meth:`cached_free_blocks`).

    Parameters
    ----------
    num_layers : int
        Transformer layers (one key/value pool pair each).
    num_heads : int
        Attention heads per layer.
    d_head : int
        Head dimension.
    block_size : int
        Token positions per block.
    num_blocks : int
        Blocks in the pool, shared across all slots and layers (a block id
        addresses the same region in every layer's pool).

    Raises
    ------
    ConfigurationError
        If any dimension is not an integer >= 1.
    """

    def __init__(
        self,
        num_layers: int,
        num_heads: int,
        d_head: int,
        block_size: int = 16,
        num_blocks: int = 64,
    ) -> None:
        num_layers = require_count("num_layers", num_layers, 1)
        num_heads = require_count("num_heads", num_heads, 1)
        d_head = require_count("d_head", d_head, 1)
        self.block_size = block_size = require_count("block_size", block_size, 1)
        num_blocks = require_count("num_blocks", num_blocks, 1)
        #: Every layer's pools are views of one array (block id on axis 2), so
        #: copying a block in all layers is a single assignment.
        self._pools = np.zeros((2 * num_layers, num_heads, num_blocks, block_size, d_head), dtype=np.float64)
        self.key_blocks: List[np.ndarray] = list(self._pools[0::2])
        self.value_blocks: List[np.ndarray] = list(self._pools[1::2])
        #: Bytes of dense KV copies materialised by :meth:`gather` — the
        #: traffic the fused paged-attention path exists to avoid.  Reset
        #: freely; the perf-smoke gate asserts it stays 0 on fused decodes.
        self.gather_bytes = 0
        #: Consecutive-block runs over every table :meth:`reserve` has built —
        #: the matmul pairs a full-length attention over each would pay.
        #: ``table_runs / reservations`` is the mean; 1.0 means no fragmentation.
        self.table_runs = 0
        #: Cached blocks :meth:`_open_window` has moved, and the reservations
        #: it moved them for.  Copy traffic of the reservation path, tallied
        #: apart from ``gather_bytes`` (per-forward dense copies) on purpose.
        self.relocated_blocks = 0
        self.compactions = 0
        self._refcounts = np.zeros(num_blocks, dtype=np.int64)
        #: Unreferenced *unpublished* blocks, as coalesced extents.
        self._extents = _FreeExtents(num_blocks)
        #: Unreferenced *published* blocks, oldest released first: those no
        #: reservation has shared since they were published, then those one
        #: has.  Reclaimed front first, ``_free_lru`` before ``_matched_lru``,
        #: and only once the extents are exhausted.
        self._free_lru: "OrderedDict[int, None]" = OrderedDict()
        self._matched_lru: "OrderedDict[int, None]" = OrderedDict()
        #: Published blocks a reservation has shared since they were published.
        self._matched: Set[int] = set()
        self._tables: Dict[int, List[int]] = {}
        self._lengths: Dict[int, int] = {}
        self._next_slot = 0
        #: Radix index: (parent block or _ROOT, token-run bytes) -> block id.
        self._prefix_index: Dict[Tuple[int, bytes], int] = {}
        self._block_key: Dict[int, Tuple[int, bytes]] = {}
        self._children: Dict[int, Set[int]] = {}
        self._table_version = 0
        #: Opt-in trace sink (plain attributes, not constructor params, so
        #: every existing construction site keeps working): the scheduler
        #: points these at its own tracer and track right after building the
        #: cache, and ``cache.*`` events render beside that replica's
        #: requests.  ``None`` — the default — emits nothing.
        self.tracer = None
        self.trace_track = "cache"

    @classmethod
    def for_model(cls, config, max_active: int, block_size: int = 16) -> "PagedKVCache":
        """Size a pool so ``max_active`` requests can each reach ``max_seq_len``.

        Parameters
        ----------
        config : TransformerConfig
            Model architecture (supplies layers/heads/head dim/max_seq_len).
        max_active : int
            Worst-case number of concurrently live slots.
        block_size : int
            Token positions per block.

        Returns
        -------
        PagedKVCache
        """
        blocks_per_request = -(-int(config.max_seq_len) // block_size)
        return cls(
            num_layers=config.num_layers,
            num_heads=config.num_heads,
            d_head=config.d_head,
            block_size=block_size,
            num_blocks=max(1, int(max_active)) * blocks_per_request,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        """Number of transformer layers the pool covers."""
        return len(self.key_blocks)

    @property
    def num_blocks(self) -> int:
        """Total blocks in the pool."""
        return int(self.key_blocks[0].shape[1])

    @property
    def free_block_count(self) -> int:
        """Blocks currently available for :meth:`reserve` (extents plus cached)."""
        return self._extents.blocks + len(self._free_lru) + len(self._matched_lru)

    @property
    def reservations(self) -> int:
        """Slots reserved over the pool's lifetime (the ``table_runs`` denominator)."""
        return self._next_slot

    @property
    def cached_block_count(self) -> int:
        """Blocks currently published in the prefix radix index."""
        return len(self._prefix_index)

    @property
    def table_version(self) -> int:
        """Counter bumped on every block-topology change (reserve/free/COW/truncate)."""
        return self._table_version

    @property
    def active_slots(self) -> List[int]:
        """Ids of currently reserved slots, in reservation order."""
        return list(self._tables)

    @property
    def memory_bytes(self) -> int:
        """Total bytes held by the block pools (allocated once, up front)."""
        return self._pools.nbytes

    def blocks_needed(self, capacity: int) -> int:
        """Blocks required to cover ``capacity`` token positions."""
        return -(-max(int(capacity), 1) // self.block_size)

    def length_of(self, slot: int) -> int:
        """Committed tokens of ``slot``."""
        return self._lengths[slot]

    def capacity_of(self, slot: int) -> int:
        """Reserved token positions of ``slot``."""
        return len(self._tables[slot]) * self.block_size

    def ref_count(self, block: int) -> int:
        """Number of slot tables currently mapping ``block``."""
        return int(self._refcounts[block])

    def block_table(self, slot: int) -> List[int]:
        """Physical block ids of ``slot``, in position order (a copy)."""
        return list(self._tables[slot])

    def free_blocks(self) -> List[int]:
        """Ids of unreferenced blocks, in the order memory pressure takes them (a copy).

        The unpublished blocks of :meth:`free_extents` first (ascending),
        then :meth:`cached_free_blocks`.  Introspection for invariant
        checkers (``repro.serve.stress``): together with :meth:`ref_count`
        this exposes the free side of the refcount/free-list duality
        without touching private state.
        """
        unpublished = [b for first, count in self.free_extents() for b in range(first, first + count)]
        return unpublished + self.cached_free_blocks()

    def free_extents(self) -> List[Tuple[int, int]]:
        """Unreferenced unpublished blocks as ascending ``(first, count)`` extents (a copy)."""
        return self._extents.extents()

    def cached_free_blocks(self) -> List[int]:
        """Unreferenced published blocks in the order memory pressure reclaims them (a copy).

        Those no reservation has shared since they were published, then
        those one has; the oldest released first within each.
        """
        return list(self._free_lru) + list(self._matched_lru)

    def _lru_of(self, block: int) -> "OrderedDict[int, None]":
        """The list published ``block`` waits on while unreferenced."""
        return self._matched_lru if block in self._matched else self._free_lru

    def radix_entries(self) -> Dict[Tuple[int, bytes], int]:
        """The prefix index as ``{(parent, token-run bytes): block}`` (a copy).

        ``parent`` is the physical block anchoring the previous run of the
        chain, or ``-1`` at a prompt's first block.  Introspection for
        invariant checkers; mutating the copy has no effect on the pool.
        """
        return dict(self._prefix_index)

    def radix_children(self, block: int) -> Set[int]:
        """Published radix children of ``block`` (``-1`` for roots; a copy)."""
        return set(self._children.get(block, ()))

    def block_key_of(self, block: int) -> Optional[Tuple[int, bytes]]:
        """The radix key ``block`` is published under, or None if unpublished."""
        return self._block_key.get(block)

    # ------------------------------------------------------------------
    # Prefix identity (radix of chained block hashes)
    # ------------------------------------------------------------------
    def match_prefix(self, tokens: np.ndarray) -> List[int]:
        """Longest chain of published blocks covering a prefix of ``tokens``.

        Walks the radix index block by block: a block matches when its
        parent matched (chained identity, so two different prompts sharing a
        token run mid-sequence can never alias) and its token run equals the
        prompt's next ``block_size`` tokens.  Pure lookup — reference counts
        are only taken when the chain is passed to :meth:`reserve`, and the
        chain is good only until the next :meth:`reserve`, which may evict or
        relocate its unreferenced members: match, then reserve, back to back.

        Parameters
        ----------
        tokens : ndarray
            Prompt token ids, shape ``(prompt_len,)``.

        Returns
        -------
        list of int
            Matched physical block ids, in position order (possibly empty).
        """
        tokens = np.ascontiguousarray(np.asarray(tokens, dtype=np.int64).reshape(-1))
        matched: List[int] = []
        parent = _ROOT
        full_blocks = len(tokens) // self.block_size
        for index in range(full_blocks):
            run = tokens[index * self.block_size : (index + 1) * self.block_size]
            block = self._prefix_index.get((parent, run.tobytes()))
            if block is None:
                break
            matched.append(block)
            parent = block
        if self.tracer is not None and matched:
            self.tracer.instant(
                "cache.prefix_hit",
                self.trace_track,
                blocks=len(matched),
                tokens=len(matched) * self.block_size,
            )
        return matched

    def publish_prefix(self, slot: int, tokens: np.ndarray) -> int:
        """Register ``slot``'s fully-covered prompt blocks in the radix index.

        Only blocks whose *entire* token run lies within ``tokens`` are
        published — their contents are a pure function of the token prefix
        and will never be written again by the owner (decode writes land at
        positions ``>= len(tokens)``).  A key that already maps to another
        block is left untouched (the first publisher wins; the duplicate
        block simply stays private).

        Parameters
        ----------
        slot : int
            The slot whose prefill just committed ``tokens``.
        tokens : ndarray
            The full prompt, shape ``(prompt_len,)``.

        Returns
        -------
        int
            Number of newly published blocks.
        """
        tokens = np.ascontiguousarray(np.asarray(tokens, dtype=np.int64).reshape(-1))
        table = self._tables[slot]
        parent = _ROOT
        published = 0
        for index in range(len(tokens) // self.block_size):
            run = tokens[index * self.block_size : (index + 1) * self.block_size]
            key = (parent, run.tobytes())
            existing = self._prefix_index.get(key)
            if existing is not None:
                parent = existing
                continue
            block = table[index]
            if block in self._block_key:  # already anchors a different chain
                parent = block
                continue
            self._prefix_index[key] = block
            self._block_key[block] = key
            self._children.setdefault(parent, set()).add(block)
            parent = block
            published += 1
        return published

    def _deindex(self, block: int) -> None:
        """Drop ``block`` and its radix descendants from the prefix index.

        A de-indexed block that is unreferenced — a descendant whose chained
        identity ``block`` anchored — has nothing left worth keeping, so it
        moves from its LRU list to the free extents, where the next
        reservation takes it before evicting anything still matchable.  A
        de-indexed block is no longer matched: published again, it starts
        on ``_free_lru``.
        """
        orphans: List[int] = []
        self._unindex(block, orphans)
        if orphans:
            self._recycle(orphans)

    def _unindex(self, block: int, orphans: List[int]) -> None:
        """:meth:`_deindex`, with the unreferenced blocks taken off the LRU lists left in ``orphans``."""
        key = self._block_key.pop(block, None)
        if key is None:
            return
        lru = self._lru_of(block)
        self._matched.discard(block)
        if block in lru:
            del lru[block]
            orphans.append(block)
        if self._prefix_index.get(key) == block:
            del self._prefix_index[key]
        parent_children = self._children.get(key[0])
        if parent_children is not None:
            parent_children.discard(block)
        for child in list(self._children.get(block, ())):
            self._unindex(child, orphans)
        self._children.pop(block, None)

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------
    def reserve(self, capacity: int, shared: Sequence[int] = (), private_tail: bool = False) -> int:
        """Reserve a fresh slot able to hold ``capacity`` token positions.

        The full block table is allocated here, so admission control happens
        exactly once per request: once reserved, every write within
        ``capacity`` is guaranteed to succeed — including the one
        copy-on-write fork a ``private_tail`` reservation may need.

        Parameters
        ----------
        capacity : int
            Maximum token positions the request will ever occupy.
        shared : sequence of int, optional
            A matched prefix chain from :meth:`match_prefix`; these blocks
            become the head of the new table with their reference counts
            incremented (revived from the cache if unreferenced) instead
            of being recomputed; the published ones count as matched from
            here on, so they outlive cached blocks nobody has shared.  An
            intervening ``reserve`` may have evicted or relocated a member,
            so a list naming any published block must still be a radix
            chain; one naming none is a share of live blocks.
        private_tail : bool
            Fork the last shared block eagerly when other slots still
            reference it.  The scheduler sets this when the prompt's final
            token lies inside the last matched block (it is always
            recomputed, so that block will be written).

        Returns
        -------
        int
            The new slot id.

        Raises
        ------
        ResourceExhaustedError
            If the pool does not currently hold enough free blocks.
        ConfigurationError
            If ``capacity`` is not an integer >= 0, or ``shared`` names a
            block outside the pool, holds more blocks than ``capacity``
            needs, or is a stale chain: it names an unreferenced block that
            is no longer published, or a published one among blocks that do
            not chain.  Nothing has changed when it is raised.
        """
        needed = self.blocks_needed(require_count("capacity", capacity, 0))
        shared = [int(b) for b in shared]
        outside = [block for block in shared if not 0 <= block < self.num_blocks]
        if outside:
            raise ConfigurationError(f"shared block {outside[0]} outside the pool's {self.num_blocks} blocks")
        if len(shared) > needed:
            raise ConfigurationError(
                f"{len(shared)} shared prefix blocks exceed the {needed} needed "
                f"for {capacity} positions"
            )
        fork_needed = bool(private_tail and shared and self._refcounts[shared[-1]] >= 1)
        revivals = [block for block in shared if self._refcounts[block] == 0]
        keys = [self._block_key.get(block) for block in shared]
        if any(block not in self._lru_of(block) for block in revivals) or (
            any(keys) and any(key is None or key[0] != parent for key, parent in zip(keys, [_ROOT] + shared))
        ):
            raise ConfigurationError(
                "shared prefix chain is stale (a member is unpublished, or no longer follows its "
                "predecessor); pass the chain match_prefix returned for this reservation"
            )
        fresh_needed = needed - len(shared) + (1 if fork_needed else 0)
        if fresh_needed > self.free_block_count - len(revivals):
            raise ResourceExhaustedError(
                f"need {fresh_needed} free KV blocks for {capacity} positions "
                f"({len(shared)} reused) but only {self.free_block_count - len(revivals)} "
                f"of {self.num_blocks} are free"
            )
        for block in revivals:
            del self._lru_of(block)[block]
        for block in shared:
            self._refcounts[block] += 1
        self._matched.update(block for block, key in zip(shared, keys) if key)
        # One pick for everything this table needs: the eager fork's private
        # copy takes the forked block's place, so it leads the fresh blocks.
        kept = shared[:-1] if fork_needed else shared
        picked = self._take(fresh_needed, after=kept[-1] if kept else None)
        fresh = [block for first, count in picked for block in range(first, first + count)]
        slot = self._next_slot
        self._next_slot += 1
        self._tables[slot] = shared + fresh[1:] if fork_needed else shared + fresh
        self._lengths[slot] = 0
        self._table_version += 1
        if fork_needed:
            self._copy_on_write(slot, len(shared) - 1, fresh[0])
        elif private_tail and shared:
            # Sole owner of the revived tail block: writing in place is safe
            # *now*, but the block must stop being matchable or a later
            # reservation could share it and force a copy-on-write fork no
            # admission ever budgeted a free block for.  De-indexing keeps
            # the write-within-capacity guarantee; the block is re-published
            # when this slot's prefill completes.
            self._deindex(shared[-1])
        # Runs of the finished table: the kept prefix's and the picked ones,
        # less one when the first pick continues the prefix.
        runs = len(picked)
        if kept:
            runs += len(_consecutive_runs(kept)) - (bool(picked) and picked[0][0] == kept[-1] + 1)
        self.table_runs += runs
        if self.tracer is not None:
            self.tracer.instant(
                "cache.block_alloc",
                self.trace_track,
                slot=slot,
                fresh=needed - len(shared),
                shared=len(shared),
                runs=runs,
            )
        return slot

    def _take(
        self, count: int, after: Optional[int] = None, before: Optional[int] = None
    ) -> List[Tuple[int, int]]:
        """Claim ``count`` free blocks for exclusive use, as few runs as possible.

        Unpublished blocks are interchangeable, so they are handed out as
        consecutive ``(first, count)`` runs placed against the table
        neighbours ``after`` / ``before`` (see :meth:`_FreeExtents.take`),
        with whatever bytes they last held.  Published blocks are reclaimed
        only when the extents cannot cover the request, one at a time in
        :meth:`cached_free_blocks` order — the oldest released of those no
        reservation has shared, and only then of those one has: the front
        of one of two lists, no scan — each dropping out of the prefix
        index with its now-unanchored radix descendants.  When the blocks
        are there but no single extent holds them, or no extent continues
        the table's prefix at ``after``, :meth:`_open_window` first moves
        cached blocks out of the way so the pick below is still one run
        (and, within its slack, continues the prefix).
        """
        if count > self.free_block_count:
            raise ResourceExhaustedError(
                f"need {count} free KV blocks but only {self.free_block_count} of "
                f"{self.num_blocks} are unreferenced; none can be reclaimed"
            )
        reclaimed: List[int] = []
        while self._extents.blocks + len(reclaimed) < count:
            self._unindex(next(iter(self._free_lru or self._matched_lru)), reclaimed)
        cached = self._free_lru or self._matched_lru
        picked: List[Tuple[int, int]] = []
        # No extent continues the prefix (cached blocks may sit right after it), or
        # none holds the request (unless the reclaimed blocks coalesce into one).
        stuck = after is not None and after + 1 not in self._extents.length
        if count > 1 and cached and (reclaimed or stuck or max(self._extents.length.values()) < count):
            picked = self._open_window(count, after, reclaimed)
        if not picked:
            if reclaimed:
                self._recycle(reclaimed)
            picked = self._extents.take(count, after, before)
        for first, run in picked:
            self._refcounts[first : first + run] = 1
        return picked

    def _open_window(self, count: int, after: Optional[int], reclaimed: List[int]) -> List[Tuple[int, int]]:
        """Clear ``count`` consecutive blocks by moving the cached blocks among them away.

        Among the windows of ``count`` consecutive blocks holding no
        referenced block, the one continuing ``after`` is opened when it costs
        at most ``count // 2`` more moves than the cheapest, else the cheapest
        (ties to the lowest address).  The move list is copy + rename: each
        run of consecutive cached blocks in the window is copied, K/V bytes
        in every layer, onto the free blocks outside it as
        :meth:`_FreeExtents.take` would hand them to a table (the smallest
        extent that holds the run: holes fill, and a moved chain stays one
        run), and their radix identity, matched flag and LRU position
        follow; the window is the run returned, and the free blocks left
        over — the ``reclaimed`` ones among them — are the new extents.
        Nothing a forward reads moves and both LRU lists keep their order.

        Returns no run, having changed nothing, when every window holds a
        referenced block (the fewest-extents split stands) or the one chosen
        is already free; ``reclaimed`` is then still the caller's to recycle.
        """
        # One weight per block: 0 free, 1 cached (a move), and for a referenced
        # block more than any clear window can total.
        weight = np.where(self._refcounts, 2 * count, 1)
        weight[reclaimed] = 0
        for start, length in self._extents.length.items():
            weight[start : start + length] = 0
        moves = np.convolve(weight, np.ones(count, dtype=np.int64), "valid")
        first = int(moves.argmin())
        cheapest = int(moves[first])
        if after is not None and after + 1 < len(moves) and moves[after + 1] <= cheapest + count // 2:
            first = after + 1
        if not 0 < moves[first] <= count:
            return []
        source = (first + weight[first : first + count].nonzero()[0]).tolist()
        free = weight == 0
        free[first : first + count] = False  # handed out right here, and no target lies inside
        self._extents.reset(free)
        target = [
            block
            for _, _, size in _consecutive_runs(source)
            for start, length in self._extents.take(size)
            for block in range(start, start + length)
        ]
        self._pools[:, :, target] = self._pools.take(source, axis=2)
        moved = dict(zip(source, target))
        for old, new in moved.items():
            self._rename(old, new)
        self._free_lru, self._matched_lru = (
            OrderedDict.fromkeys(moved.get(block, block) for block in lru)
            for lru in (self._free_lru, self._matched_lru)
        )
        self.compactions += 1
        self.relocated_blocks += len(source)
        if self.tracer is not None:
            self.tracer.instant("cache.compact", self.trace_track, count=count, moved=len(source), first=first)
        return [(first, count)]

    def _rename(self, old: int, new: int) -> None:
        """Move published block ``old``'s radix identity and matched flag to address ``new``.

        Chained keys embed the parent's physical id, so every child of
        ``old`` — live, cached, or itself moving in the same batch — is
        re-keyed ``(old, run) -> (new, run)``.  Each call leaves the index
        consistent, so a batch may rename parents and children in any order.
        """
        key = self._block_key[new] = self._block_key.pop(old)
        self._prefix_index[key] = new
        siblings = self._children[key[0]]
        siblings.remove(old)
        siblings.add(new)
        if old in self._matched:
            self._matched.remove(old)
            self._matched.add(new)
        children = self._children.pop(old, None)
        if children is not None:
            self._children[new] = children
            for child in children:
                run = self._block_key[child][1]
                del self._prefix_index[old, run]
                self._prefix_index[new, run] = child
                self._block_key[child] = (new, run)

    def _unref(self, blocks) -> None:
        """Drop one reference from each of ``blocks``; release those nobody holds.

        Published blocks keep their contents and index entry and join the
        *back* of their LRU list — ``_matched_lru`` if a reservation has
        shared them since they were published, else ``_free_lru`` — in the
        order given (reclaimed last on that list, least-recently-freed first
        among themselves); unpublished blocks carry nothing reusable and are
        recycled.
        """
        unpublished = []
        for block in blocks:
            self._refcounts[block] -= 1
            if self._refcounts[block] == 0:
                if block in self._block_key:
                    self._lru_of(block)[block] = None
                else:
                    unpublished.append(block)
        if unpublished:
            self._recycle(unpublished)

    def _recycle(self, blocks: List[int]) -> None:
        """Coalesce unreferenced unpublished ``blocks`` into the extents, bytes as they are."""
        for _, first, count in _consecutive_runs(sorted(blocks)):
            self._extents.add(first, count)

    def free(self, slot: int) -> None:
        """Drop ``slot``'s references; unreferenced blocks join the free-list.

        Released in reverse position order so a published prefix chain lands
        on the LRU leaf-first: memory pressure then shrinks the cached
        prefix one tail block at a time instead of reclaiming the chain's
        radix root (which would de-index every descendant at once).

        Raises
        ------
        ConfigurationError
            If ``slot`` is not reserved (freed, or never was).
        """
        if slot not in self._tables:
            raise ConfigurationError(f"slot {slot} is not reserved (freed, or never was)")
        self._unref(reversed(self._tables.pop(slot)))
        del self._lengths[slot]
        self._table_version += 1

    def truncate(self, slot: int, new_length: int, min_capacity: int = 0) -> int:
        """Roll ``slot`` back to ``new_length`` committed tokens.

        The rollback primitive of speculative decoding: a verification
        forward writes KV for every draft token optimistically, and the
        rejected tail must be withdrawn without disturbing anything the
        rollback does not cover.  Three cases compose:

        * **Tail blocks** no longer needed to cover ``new_length`` (nor
          ``min_capacity``) have their reference counts dropped; blocks that
          reach zero are released exactly as :meth:`free` releases them —
          published blocks stay matchable on their LRU list, unpublished ones
          coalesce back into the free extents (so a regrow gets the same
          consecutive run), and ancestors of a released block are never
          de-indexed.
        * **Retained blocks** at or beyond the cut will be rewritten by this
          slot's future decode steps.  A sole-owner (refcount 1) published
          block there is de-indexed — the same rule :meth:`reserve` applies
          to a revived ``private_tail``.  Every retained block keeps its
          bytes, the rolled-back positions included (no row can see them;
          see the module docstring), and no copy-on-write happens here: the
          rollback only moves this slot's length, and any later write into
          a *shared* (refcount > 1) block forks a private copy through the
          ordinary COW path.

        Parameters
        ----------
        slot : int
            The slot to roll back.
        new_length : int
            Committed tokens to keep; must not exceed the current length.
        min_capacity : int
            Keep enough blocks to cover this many positions even when
            ``new_length`` needs fewer.  The scheduler passes the slot's
            reserved capacity so a mid-decode rollback never surrenders
            blocks the admission-time reservation guaranteed.

        Returns
        -------
        int
            Number of block references released.

        Raises
        ------
        ConfigurationError
            If ``new_length`` is not an integer in ``[0, committed length]``,
            or ``min_capacity`` not one >= 0.
        """
        length = self._lengths[slot]
        new_length = require_count("new_length", new_length, 0)
        min_capacity = require_count("min_capacity", min_capacity, 0)
        if new_length > length:
            raise ConfigurationError(
                f"truncate target {new_length} outside slot {slot}'s committed "
                f"length {length} (truncate only rolls back)"
            )
        table = self._tables[slot]
        keep = min(self.blocks_needed(max(new_length, min_capacity, 1)), len(table))
        released = len(table) - keep
        self._unref(reversed(table[keep:]))
        del table[keep:]
        # Invalidate unconditionally, not just when blocks were released: a
        # cached _BlockIndex built before the rollback must never keep
        # addressing rolled-back positions once the freed blocks regrow into
        # another slot's reservation, and a rollback that releases nothing
        # still changes which positions of the retained blocks hold live data.
        self._table_version += 1
        if new_length < length:  # a shared block past the cut stays indexed: COW protects it
            for block in table[new_length // self.block_size :]:
                if self._refcounts[block] == 1 and block in self._block_key:
                    self._deindex(block)
        self._lengths[slot] = new_length
        return released

    def set_length(self, slot: int, length: int) -> None:
        """Record that ``slot`` now holds ``length`` committed tokens (an integer in ``[0, capacity]``)."""
        if not isinstance(length, numbers.Integral) or not 0 <= length <= self.capacity_of(slot):
            raise ConfigurationError(
                f"length {length!r} outside slot {slot}'s reserved capacity [0, {self.capacity_of(slot)}]"
            )
        self._lengths[slot] = int(length)

    # ------------------------------------------------------------------
    # Copy-on-write
    # ------------------------------------------------------------------
    def _copy_on_write(self, slot: int, block_index: int, copy: Optional[int] = None) -> int:
        """Give ``slot`` a private copy of its ``block_index``-th block.

        The copy lands in ``copy`` when :meth:`reserve` already claimed a
        block for it, else in the free neighbour of the table's adjacent
        blocks when there is one, so a fork does not split a run.
        """
        table = self._tables[slot]
        source = table[block_index]
        if copy is None:
            ((copy, _),) = self._take(
                1,
                after=table[block_index - 1] if block_index else None,
                before=table[block_index + 1] if block_index + 1 < len(table) else None,
            )
        self._pools[:, :, copy] = self._pools[:, :, source]
        table[block_index] = copy
        self._unref([source])
        self._table_version += 1
        if self.tracer is not None:
            self.tracer.instant(
                "cache.cow", self.trace_track, slot=slot, source=source, copy=copy
            )
        return copy

    def _fork_shared_targets(self, index: _BlockIndex, rows: np.ndarray, block_rows: np.ndarray) -> None:
        """Copy-on-write every ``(view row, block index)`` write target shared with another slot."""
        for row, block_index in sorted(set(zip(rows.tolist(), block_rows.tolist()))):
            slot = index.slot_ids[row]
            if self._refcounts[self._tables[slot][block_index]] > 1:
                self._copy_on_write(slot, block_index)
        index.refresh(self)

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------
    def _fresh_index(self, slot_ids: Sequence[int], index: Optional[_BlockIndex]) -> _BlockIndex:
        """Return an up-to-date block index for ``slot_ids``."""
        if index is None:
            return _BlockIndex(self, slot_ids)
        if index.version != self._table_version:
            index.refresh(self)
        return index

    def write(
        self,
        layer: int,
        slot_ids: Sequence[int],
        keys: np.ndarray,
        values: np.ndarray,
        positions,
        index: Optional[_BlockIndex] = None,
    ) -> None:
        """Scatter new head tensors into the blocks of the given slots.

        One vectorized scatter per call: the forward's flat rows (see
        :class:`~repro.core.kernels.ForwardPlan`) are mapped through the
        precomputed block table to ``(physical block, in-block offset)``
        pairs, validated, and assigned in a single fancy-index — each row
        against *its own* slot's reservation, so a one-token row batched
        beside a long one writes nothing outside its blocks.  Targets
        shared with another slot (reference count > 1) are forked first
        (copy-on-write), so a write can never leak into a prefix another
        request is still attending.

        The targets depend on the positions and the block topology, not on
        the layer: given the forward's plan and a view's ``index``, the
        first layer's call validates, forks, de-indexes and resolves them
        (:meth:`_scatter_targets`) and every later layer of that forward
        only assigns — unless the topology moved in between, which resolves
        them again.

        Parameters
        ----------
        layer : int
            Layer whose pools receive the data.
        slot_ids : sequence of int
            One slot per sequence of the forward.
        keys, values : ndarray
            Flat ``(num_heads, rows, d_head)`` payloads, one row per plan row.
        positions : ndarray or ForwardPlan
            The forward's plan, or the positions it is built from
            (``(len(slot_ids), new_len)``: ``new_len`` rows per slot).
        index : _BlockIndex, optional
            A view's cached block table (rebuilt here only if stale).

        Raises
        ------
        ConfigurationError
            If any position lies beyond its slot's reserved capacity (raised
            before anything is written).
        """
        plan = ForwardPlan.of(positions)
        scatter = plan.scatter
        if scatter is None or scatter[0] is not index or scatter[1] != self._table_version:
            index = self._fresh_index(slot_ids, index)
            targets, offsets = self._scatter_targets(index, plan)
            scatter = plan.scatter = (index, self._table_version, targets, offsets)
        _, _, targets, offsets = scatter
        # Adjacent advanced indices on the block/position axes keep the head
        # axis leading in the indexed view: exactly the flat payload layout.
        self.key_blocks[layer][:, targets, offsets] = keys
        self.value_blocks[layer][:, targets, offsets] = values

    def _scatter_targets(self, index: _BlockIndex, plan: ForwardPlan) -> Tuple[np.ndarray, np.ndarray]:
        """Validate a forward's write and make its target blocks safe to write.

        Returns the ``(physical block, in-block offset)`` of every flat row
        after checking each against its own slot's reservation, forking
        targets shared with another slot and dropping sole-owner targets
        from the prefix index.
        """
        positions, rows = plan.positions, plan.rows
        block_rows = positions // self.block_size
        beyond = block_rows >= index.blocks_per_row[rows]
        if plan.negative or beyond.any():
            bad = positions[(positions < 0) | beyond]
            raise ConfigurationError(
                f"position {int(bad[0])} outside the writing slot's reserved capacity"
            )
        targets = index.tables[rows, block_rows]
        shared = self._refcounts[targets] > 1
        if shared.any():
            self._fork_shared_targets(index, rows[shared], block_rows[shared])
            targets = index.tables[rows, block_rows]
        # A sole-owner target can still sit in the prefix index: published,
        # truncated past while a sharer pinned its bytes, then orphaned when
        # that sharer freed.  Its content is about to change, so its entry —
        # and every chain built on it — must drop, or a later match_prefix
        # would surface stale bytes under the old key.  Ascending, as a
        # de-index cascades to radix descendants: the re-check skips a
        # target an earlier one's cascade already dropped.
        for block in sorted(self._block_key.keys() & set(targets.tolist())):
            if block in self._block_key:
                self._deindex(block)
        return targets, positions - block_rows * self.block_size

    def gather(
        self,
        layer: int,
        slot_ids: Sequence[int],
        length: int,
        index: Optional[_BlockIndex] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble dense ``(len(slot_ids), num_heads, length, d_head)`` K/V.

        One fancy-index per layer over the precomputed block table — no
        per-row or per-block Python loop.  Positions beyond a slot's
        reserved capacity are zero-filled: they are only requested when a
        *longer* batch-mate pushes the dense view past a short slot's
        reservation, and the attention mask hides them from every query of
        that slot.  Positions inside the reservation but past the slot's
        length come back as the pool holds them, stale bytes included.

        Parameters
        ----------
        layer : int
            Layer to read.
        slot_ids : sequence of int
            Slots forming the dense batch, in row order.
        length : int
            Token positions to materialise per row.
        index : _BlockIndex, optional
            A view's cached block table (rebuilt here only if stale).

        Returns
        -------
        tuple of ndarray
            ``(keys, values)`` dense arrays.
        """
        index = self._fresh_index(slot_ids, index)
        rows = len(index.slot_ids)
        heads = self.key_blocks[layer].shape[0]
        d_head = self.key_blocks[layer].shape[3]
        num_blocks = self.blocks_needed(length) if length else 0
        width = index.tables.shape[1]
        if num_blocks <= width:
            blocks = index.tables[:, :num_blocks]
        else:
            blocks = np.full((rows, num_blocks), _ROOT, dtype=np.int64)
            blocks[:, :width] = index.tables
        missing = blocks < 0
        gathered_keys = self.key_blocks[layer][:, np.where(missing, 0, blocks)]
        gathered_values = self.value_blocks[layer][:, np.where(missing, 0, blocks)]
        if missing.any():
            gathered_keys[:, missing] = 0.0
            gathered_values[:, missing] = 0.0
        shape = (rows, heads, num_blocks * self.block_size, d_head)
        keys = np.ascontiguousarray(
            gathered_keys.transpose(1, 0, 2, 3, 4).reshape(shape)[:, :, :length]
        )
        values = np.ascontiguousarray(
            gathered_values.transpose(1, 0, 2, 3, 4).reshape(shape)[:, :, :length]
        )
        self.gather_bytes += keys.nbytes + values.nbytes
        return keys, values

    def view(self, slot_ids: Sequence[int]) -> "SlotBatchView":
        """The runner's view of ``slot_ids``, one sequence each (see :class:`SlotBatchView`)."""
        return SlotBatchView(self, slot_ids)


class SlotBatchView:
    """A subset of :class:`PagedKVCache` slots as the sequences of one forward.

    The whole runner-to-cache contract
    (:class:`~repro.models.inference.KVCacheLike`): ``write``, ``view``,
    ``attention_operands`` and a mutable ``lengths`` vector, so one batched
    ``prefill`` / ``decode_step`` / ``verify`` call runs over exactly the
    slots the scheduler currently has active.  Length updates made by the
    runner stay local to the view until :meth:`commit` copies them back to
    the pool (the scheduler commits after every successful forward).

    The view owns a cached block-index table (see ``_BlockIndex``): the
    scheduler keeps one view alive across decode iterations while its slot
    set is unchanged, so neither ``lengths`` nor the index is rebuilt per
    step — the index refreshes itself only when the pool's block topology
    changes underneath it (copy-on-write, unrelated reserve/free).

    Attributes
    ----------
    slot_ids : list of int
        The slot backing each sequence, in batch order.
    lengths : ndarray
        Per-sequence committed-token counts, advanced in place by the runner.

    Raises
    ------
    ConfigurationError
        If ``slot_ids`` is empty, repeats a slot (two sequences would write
        over each other) or names one that is not reserved — here, and from
        any later forward or commit through the view once one of its slots
        was freed.
    """

    def __init__(self, paged: PagedKVCache, slot_ids: Sequence[int]) -> None:
        self._paged = paged
        self.slot_ids = [int(s) for s in slot_ids]
        if not self.slot_ids:
            raise ConfigurationError("a SlotBatchView needs at least one slot")
        if len(set(self.slot_ids)) != len(self.slot_ids):
            repeated = sorted({s for s in self.slot_ids if self.slot_ids.count(s) > 1})
            raise ConfigurationError(f"slots {repeated} appear more than once in view {self.slot_ids}")
        self._index = _BlockIndex(paged, self.slot_ids)
        self.lengths = np.array([paged.length_of(s) for s in self.slot_ids], dtype=np.int64)

    def write(self, layer: int, keys: np.ndarray, values: np.ndarray, slots) -> None:
        """Scatter flat-row payloads (``slots``: the forward's plan, or positions) to the pool."""
        self._paged.write(layer, self.slot_ids, keys, values, slots, index=self._index)

    def view(self, layer: int, length: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dense (keys, values) over the first ``length`` positions of each slot."""
        return self._paged.gather(layer, self.slot_ids, length, index=self._index)

    def attention_operands(
        self, layer: int
    ) -> Tuple[np.ndarray, np.ndarray, List[List[Tuple[int, int, int]]], int]:
        """Block-table operands for gather-free attention over this view.

        Returns ``(key_pool, value_pool, runs, block_size)``: the layer's
        pool arrays (shape ``(num_heads, num_blocks, block_size, d_head)``,
        *not* copied) and each row's maximal consecutive-block runs as
        ``(first_block_index, first_physical_block, num_blocks)`` triples.
        The cached block index is freshness-checked first, so operands
        fetched after a ``write`` (which may have copy-on-write forked a
        block) always describe the current topology.
        """
        index = self._paged._fresh_index(self.slot_ids, self._index)
        return (
            self._paged.key_blocks[layer],
            self._paged.value_blocks[layer],
            index.runs,
            self._paged.block_size,
        )

    def commit(self) -> None:
        """Publish the view's per-row lengths back to the pool's slot table, all or nothing.

        Every row is checked against its slot's reserved capacity — read from
        the freshness-checked index, so a freed slot is the
        ``ConfigurationError`` every view operation raises — before any
        length is written.
        """
        paged = self._paged
        capacity = paged._fresh_index(self.slot_ids, self._index).blocks_per_row * paged.block_size
        bad = ((self.lengths < 0) | (self.lengths > capacity)).nonzero()[0]
        if bad.size:
            row = int(bad[0])
            raise ConfigurationError(
                f"length {int(self.lengths[row])} outside slot {self.slot_ids[row]}'s reserved "
                f"capacity [0, {int(capacity[row])}]"
            )
        paged._lengths.update(zip(self.slot_ids, self.lengths.tolist()))
