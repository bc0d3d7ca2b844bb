"""The paged KV pool's invariant oracle: the structural audit and the retired allocation policy.

The :class:`~repro.serve.paged_kv_cache.PagedKVCache` correctness story
spans reference counts, a radix prefix index, copy-on-write forks, a free
side split into coalesced extents of unpublished blocks and two LRU lists
whose published blocks stay matchable (never matched, then matched),
relocation of cached blocks, and speculative-rollback truncation.
:func:`check_pool_invariants` audits one pool's whole structure at any
moment:

* **Refcount duality** — every block's reference count equals its number of
  occurrences across live slot tables, and a block is free exactly when
  that count is zero.
* **Free-structure partition** — the free extents hold exactly the
  unreferenced *unpublished* blocks (disjoint, maximal runs), the LRU lists
  exactly the unreferenced *published* ones, never-matched before matched,
  and the two partition ``free_blocks()``; only published blocks are
  flagged matched.
* **Radix consistency** — the prefix index and reverse key map agree, and
  the per-parent run lists a partial match bisects mirror the index's keys
  exactly (sorted, one entry per key); every indexed block is live or
  cached; every non-root parent is itself indexed; a block holding a copied
  partial head is live and not yet published.
* **Version monotonicity** — ``table_version`` never moves backwards.

:class:`LruReferencePool` is the one-list policy the extent map replaced,
kept as the eviction oracle.  The randomized schedules that drive both —
a ``hypothesis`` state machine with one rule per pool op and an exact
content shadow — live in ``tools/stress_machine.py``, so importing
``repro`` never needs ``hypothesis``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ResourceExhaustedError
from repro.serve.paged_kv_cache import _ROOT, PagedKVCache


class InvariantViolation(AssertionError):
    """A global pool invariant failed after an operation."""


def check_pool_invariants(cache: PagedKVCache, last_version: Optional[int] = None) -> int:
    """Assert the structural invariant web of one pool; return its version.

    Parameters
    ----------
    cache : PagedKVCache
        The pool to audit.
    last_version : int, optional
        A previously observed ``table_version``; the current version must
        not be smaller (monotonicity).

    Returns
    -------
    int
        The pool's current ``table_version`` (pass it back next call).

    Raises
    ------
    InvariantViolation
        On any refcount, free-list, radix, or version inconsistency.
    """
    occurrences: Dict[int, int] = {}
    for slot in cache.active_slots:
        for block in cache.block_table(slot):
            occurrences[block] = occurrences.get(block, 0) + 1
    free = cache.free_blocks()
    free_set = set(free)
    if len(free) != len(free_set):
        raise InvariantViolation("free-list holds a duplicate block")
    for block in range(cache.num_blocks):
        refs = cache.ref_count(block)
        if refs != occurrences.get(block, 0):
            raise InvariantViolation(
                f"block {block} refcount {refs} != {occurrences.get(block, 0)} "
                "occurrences across live slot tables"
            )
        if (refs == 0) != (block in free_set):
            raise InvariantViolation(
                f"block {block} (refcount {refs}) and the free-list disagree"
            )
    # The free side is two structures: coalesced extents of unpublished
    # blocks, and the LRU lists of published ones.  Together they are exactly
    # ``free_blocks()``; apart, each holds exactly its own kind.
    extents = cache.free_extents()
    unpublished = [block for first, count in extents for block in range(first, first + count)]
    cached = cache.cached_free_blocks()
    published_free = set(cached)
    if free != unpublished + cached:
        raise InvariantViolation("free_blocks() is not the free extents followed by the cached blocks")
    stale = [block for block in cache._matched if cache.block_key_of(block) is None]
    if stale:
        raise InvariantViolation(f"unpublished block {stale[0]} is still flagged matched")
    if cached != sorted(cached, key=cache._matched.__contains__):
        raise InvariantViolation("a matched cached block would be reclaimed before a never-matched one")
    for (first, count), (following, _) in zip(extents, extents[1:] + [(cache.num_blocks + 1, 0)]):
        if count < 1 or first < 0 or first + count >= following:
            raise InvariantViolation(
                f"free extent ({first}, {count}) is empty, out of range, or overlaps/touches "
                f"the next one at {following} (extents must be disjoint and maximal)"
            )
    for block in free:
        if (cache.block_key_of(block) is not None) != (block in published_free):
            raise InvariantViolation(
                f"free block {block} sits in the wrong free structure: published blocks "
                "belong on the LRU lists, unpublished ones in the extents"
            )
    entries = cache.radix_entries()
    for (parent, run), block in entries.items():
        if cache.block_key_of(block) != (parent, run):
            raise InvariantViolation(f"radix reverse map disagrees for block {block}")
        if cache.ref_count(block) == 0 and block not in free_set:
            raise InvariantViolation(
                f"indexed block {block} is neither live nor cached"
            )
        if parent != _ROOT and cache.block_key_of(parent) is None:
            raise InvariantViolation(
                f"indexed block {block} has unindexed parent {parent}"
            )
    indexed = set(entries.values())
    if len(indexed) != len(entries):
        raise InvariantViolation("two radix keys map to the same block")
    # The per-parent run lists a partial match bisects mirror the index: sorted,
    # one entry per published key, no list left for a parent with no child.
    for parent, runs in cache._child_runs.items():
        if not runs or runs != sorted(set(runs)):
            raise InvariantViolation(f"the run list of {parent} is empty, unsorted or repeats a run")
    listed = sorted((parent, run) for parent, runs in cache._child_runs.items() for run in runs)
    if listed != sorted(entries):
        raise InvariantViolation("the per-parent run lists do not mirror the radix index's keys")
    unfit = [block for block in cache._seeded if cache.ref_count(block) == 0 or cache.block_key_of(block) is not None]
    if unfit:
        raise InvariantViolation(f"block {unfit[0]} holds a copied head but is free or already published")
    version = cache.table_version
    if last_version is not None and version < last_version:
        raise InvariantViolation(
            f"table_version moved backwards: {last_version} -> {version}"
        )
    return version


class LruReferencePool(PagedKVCache):
    """The retired one-list allocation policy, kept as the eviction oracle.

    Every unreferenced block no reservation has matched — published or not
    — sits on one LRU list: released unpublished blocks go to the front,
    published ones to the back, a block orphaned by :meth:`_unindex` stays
    where it was, and an allocation pops the head once per block, bytes as
    they are.  Matched published blocks wait on :class:`PagedKVCache`'s
    second list, popped the same way only once the first is empty.
    :class:`PagedKVCache` must evict the same published blocks in the same
    order (or spare one, when it spends an orphan this policy leaves deep
    in a list) — what ``tests/serve/test_block_allocator.py`` and the
    perf-smoke contiguity gate compare against.  Not a serving path: it
    fragments tables.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._extents.take(self.num_blocks)  # nothing lives in the extents here
        self._free_lru.update((block, None) for block in range(self.num_blocks))

    def _unindex(self, block: int, orphans: List[int]) -> None:
        """Drop ``block`` and its radix descendants from the index and their matched flags, in place on the lists."""
        key = self._block_key.pop(block, None)
        if key is None:
            return
        self._matched.discard(block)
        del self._prefix_index[key]
        self._drop_run(key)
        for run in self._child_runs.pop(block, ()):
            self._unindex(self._prefix_index[block, run], orphans)

    def _take(self, count: int, after=None, before=None):
        """Pop the head of the first non-empty list ``count`` times, wherever those blocks happen to lie."""
        if count > self.free_block_count:
            raise ResourceExhaustedError(f"need {count} free KV blocks, {self.free_block_count} left")
        blocks = [(self._free_lru or self._matched_lru).popitem(last=False)[0] for _ in range(count)]
        for block in blocks:
            self._deindex(block)
        self._refcounts[blocks] = 1
        return [(block, 1) for block in blocks]

    def _recycle(self, blocks: List[int]) -> None:
        """Unpublished blocks go to the front of the one list, as they are."""
        for block in blocks:
            self._free_lru[block] = None
            self._free_lru.move_to_end(block, last=False)
