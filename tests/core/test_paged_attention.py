"""Parity of the gather-free paged attention kernel with the dense reference.

``paged_attention`` reads K/V from ``PagedKVCache`` block storage through
zero-copy consecutive-run views and must reproduce the gather-then-dense
attention of ``TransformerRunner._attention_cached``: the attention
*probabilities* are bit-identical by construction (same assembled scores,
same mask, same shared softmax), single-run rows are bit-identical through
the SV product too, and multi-run rows may differ only by the final-sum
rounding of the context accumulation (~1e-15, squashed by Tender's static
requantization of every subsequent matmul — see the serving sweeps in
``tests/serve/test_fused_paged_attention.py`` for the end-to-end
bit-identical bar).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import ForwardPlan, flat_heads, paged_attention
from repro.serve import PagedKVCache
from repro.tensor.ops import softmax

BLOCK = 4


def dense_reference(queries, view, layer, positions, attended=None):
    """The gather-then-dense attention math, expression for expression."""
    d_head = queries.shape[-1]
    attended = int(positions.max()) + 1 if attended is None else attended
    cached_keys, cached_values = view.view(layer, attended)
    scores = (queries @ np.swapaxes(cached_keys, -1, -2)) / np.sqrt(d_head)
    hidden = np.arange(attended)[None, None, None, :] > positions[:, None, :, None]
    scores = np.where(hidden, -1e9, scores)
    attention = softmax(scores, axis=-1)
    return attention @ cached_values, attention


def fill_slots(pool, rng, lengths, *, fragment=False):
    """Reserve one slot per length (optionally on a fully fragmented pool)."""
    if fragment:
        # The allocator hands out consecutive runs whenever an extent can
        # hold the request, so pin every other block under a one-block
        # spacer: the free extents are all single blocks and each table
        # below is one run per block.
        spacers = [pool.reserve(BLOCK) for _ in range(pool.num_blocks)]
        for spacer in spacers[::2]:
            pool.free(spacer)
    slots = []
    for length in lengths:
        slot = pool.reserve(length)
        keys = rng.normal(size=(1, 2, length, BLOCK))
        values = rng.normal(size=(1, 2, length, BLOCK))
        pool.write(0, [slot], keys, values, np.arange(length)[None, :])
        pool.set_length(slot, length)
        slots.append(slot)
    return slots


def run_both(pool, slots, rng, positions, q_len=1):
    """The kernel on a rectangle's flat rows, laid back out as the rectangle."""
    view = pool.view(slots)
    queries = rng.normal(size=(len(slots), 2, q_len, BLOCK))
    key_pool, value_pool, runs, block_size = view.attention_operands(0)
    fused = paged_attention(flat_heads(queries), key_pool, value_pool, runs, block_size, positions)
    fused = fused.reshape(len(slots), q_len, 2, BLOCK).transpose(0, 2, 1, 3)
    reference, attention = dense_reference(queries, view, 0, positions)
    return fused, reference, attention, runs


class TestDecodeParity:
    @pytest.mark.parametrize("length", [BLOCK, BLOCK + 1, 3 * BLOCK, 3 * BLOCK + 1])
    def test_block_boundary_contexts_bitwise(self, rng, length):
        """Contexts exactly at and one past a block multiple, fresh slots.

        Fresh reservations get consecutive blocks (one run per row), so the
        whole context — not just the probabilities — is bit-identical.
        """
        pool = PagedKVCache(num_layers=1, num_heads=2, d_head=BLOCK, block_size=BLOCK, num_blocks=16)
        slots = fill_slots(pool, rng, [length, length])
        positions = np.full((2, 1), length - 1)
        fused, reference, _, runs = run_both(pool, slots, rng, positions)
        assert all(len(row_runs) == 1 for row_runs in runs)
        np.testing.assert_array_equal(fused, reference)

    def test_fragmented_tables_multi_run(self, rng):
        """Non-consecutive block tables: probabilities exact, context ~1e-15."""
        pool = PagedKVCache(num_layers=1, num_heads=2, d_head=BLOCK, block_size=BLOCK, num_blocks=16)
        slots = fill_slots(pool, rng, [3 * BLOCK, 2 * BLOCK + 2], fragment=True)
        positions = np.array([[3 * BLOCK - 1], [2 * BLOCK + 1]])
        fused, reference, _, runs = run_both(pool, slots, rng, positions)
        assert any(len(row_runs) > 1 for row_runs in runs)
        np.testing.assert_allclose(fused, reference, rtol=0.0, atol=1e-12)

    def test_ragged_batch(self, rng):
        """Short rows see zero-filled history past their reservation, masked."""
        pool = PagedKVCache(num_layers=1, num_heads=2, d_head=BLOCK, block_size=BLOCK, num_blocks=16)
        slots = fill_slots(pool, rng, [11, 5, 8])
        positions = np.array([[10], [4], [7]])
        fused, reference, _, _ = run_both(pool, slots, rng, positions)
        np.testing.assert_allclose(fused, reference, rtol=0.0, atol=1e-12)

    def test_masked_probabilities_are_exact_zero(self, rng):
        """Masked columns carry exactly-zero probability in both paths, so
        skipping them in the per-run SV product is an exact no-op."""
        pool = PagedKVCache(num_layers=1, num_heads=2, d_head=BLOCK, block_size=BLOCK, num_blocks=16)
        slots = fill_slots(pool, rng, [9, 5])
        positions = np.array([[8], [4]])
        _, _, attention, _ = run_both(pool, slots, rng, positions)
        assert (attention[1, :, :, 5:] == 0.0).all()


class TestMultiTokenQueries:
    def test_verify_shaped_window_bitwise(self, rng):
        """q_len > 1 with per-token positions — the speculative verify shape."""
        pool = PagedKVCache(num_layers=1, num_heads=2, d_head=BLOCK, block_size=BLOCK, num_blocks=16)
        slots = fill_slots(pool, rng, [10, 10])
        positions = np.stack([np.arange(7, 10), np.arange(7, 10)])
        fused, reference, _, _ = run_both(pool, slots, rng, positions, q_len=3)
        np.testing.assert_array_equal(fused, reference)

    @pytest.mark.parametrize("fragment", [False, True])
    def test_flat_ragged_rows_match_the_dense_reference_per_sequence(self, rng, fragment):
        """Mixed run lengths in one call — a 3-draft row, a plain decode row and
        a 1-draft row — score exactly their own rows: each sequence's rows
        equal the dense reference run on that sequence alone (same attended
        width), bit for bit on single-run tables and to the context's
        final-sum rounding on fragmented (multi-run) ones."""
        pool = PagedKVCache(num_layers=1, num_heads=2, d_head=BLOCK, block_size=BLOCK, num_blocks=16)
        slots = fill_slots(pool, rng, [3 * BLOCK, 6, 2 * BLOCK + 2], fragment=fragment)
        lengths = np.array([4, 1, 2])
        plan = ForwardPlan.ragged(np.array([3 * BLOCK - 4, 5, 2 * BLOCK]), lengths)
        np.testing.assert_array_equal(plan.positions, [8, 9, 10, 11, 5, 8, 9])
        view = pool.view(slots)
        queries = rng.normal(size=(2, int(lengths.sum()), BLOCK))
        key_pool, value_pool, runs, block_size = view.attention_operands(0)
        assert any(len(row_runs) > 1 for row_runs in runs) == fragment
        fused = paged_attention(queries, key_pool, value_pool, runs, block_size, plan)
        fused = fused.transpose(1, 0, 2)  # the kernel answers row-major
        assert fused.shape == queries.shape
        for sequence, slot in enumerate(slots):
            lo, hi = plan.bounds[sequence], plan.bounds[sequence + 1]
            reference, _ = dense_reference(
                queries[None, :, lo:hi],
                pool.view([slot]),
                0,
                plan.positions[None, lo:hi],
                attended=plan.attended,
            )
            if fragment:
                np.testing.assert_allclose(fused[:, lo:hi], reference[0], rtol=0.0, atol=1e-12)
            else:
                np.testing.assert_array_equal(fused[:, lo:hi], reference[0])


class TestStorageContract:
    def test_run_views_share_pool_memory(self, rng):
        """The kernel's per-run K/V views must alias pool storage (no copy)."""
        pool = PagedKVCache(num_layers=1, num_heads=2, d_head=BLOCK, block_size=BLOCK, num_blocks=16)
        slots = fill_slots(pool, rng, [3 * BLOCK])
        view = pool.view(slots)
        key_pool, _, runs, block_size = view.attention_operands(0)
        (first_index, first_physical, count) = runs[0][0]
        run_view = key_pool[:, first_physical : first_physical + count].reshape(
            2, count * block_size, BLOCK
        )
        assert np.shares_memory(run_view, pool.key_blocks[0])

    def test_gather_tallies_bytes_fused_path_does_not(self, rng):
        pool = PagedKVCache(num_layers=1, num_heads=2, d_head=BLOCK, block_size=BLOCK, num_blocks=16)
        slots = fill_slots(pool, rng, [8, 8])
        view = pool.view(slots)
        queries = rng.normal(size=(2, 2, BLOCK))
        positions = np.array([[7], [7]])
        assert pool.gather_bytes == 0
        key_pool, value_pool, runs, block_size = view.attention_operands(0)
        paged_attention(queries, key_pool, value_pool, runs, block_size, positions)
        assert pool.gather_bytes == 0
        view.view(0, 8)
        assert pool.gather_bytes == 2 * 2 * 2 * 8 * BLOCK * 8  # k+v, rows, heads, len, d, f64
