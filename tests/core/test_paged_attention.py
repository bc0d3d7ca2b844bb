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

from repro.core.kernels import ForwardPlan, paged_attention
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
        keys = rng.normal(size=(2, length, BLOCK))
        values = rng.normal(size=(2, length, BLOCK))
        pool.write(0, [slot], keys, values, np.arange(length)[None, :])
        pool.set_length(slot, length)
        slots.append(slot)
    return slots


def run_both(pool, slots, rng, positions, q_len=1):
    """The kernel on a rectangle's flat rows, laid back out as the rectangle."""
    view = pool.view(slots)
    queries = rng.normal(size=(len(slots), 2, q_len, BLOCK))
    key_pool, value_pool, runs, block_size = view.attention_operands(0)
    flat = queries.transpose(1, 0, 2, 3).reshape(2, len(slots) * q_len, BLOCK)  # sequence after sequence
    fused = paged_attention(flat, key_pool, value_pool, runs, block_size, positions)
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

    @pytest.mark.parametrize("fragment", [False, True])
    def test_a_split_part_computes_what_it_computes_alone(self, rng, fragment):
        """A shallow chunk split apart from deep decode rows (``ForwardPlan.split``):
        each part's rows equal the kernel run on that part alone, bit for bit,
        so neither is padded to the other's width."""
        pool = PagedKVCache(num_layers=1, num_heads=2, d_head=BLOCK, block_size=BLOCK, num_blocks=24)
        slots = fill_slots(pool, rng, [4 * BLOCK, 3 * BLOCK + 3, 2 * BLOCK], fragment=fragment)
        starts, lengths = np.array([4 * BLOCK - 1, 3 * BLOCK + 2, BLOCK // 2]), np.array([1, 1, BLOCK + 2])
        apart = np.array([False, False, True])
        plan = ForwardPlan.ragged(starts, lengths)
        kept = plan.split(apart)
        assert kept.attended == plan.attended == 4 * BLOCK and plan.parts[1][2].attended == 2 * BLOCK
        queries = rng.normal(size=(2, int(lengths.sum()), BLOCK))
        key_pool, value_pool, runs, block_size = pool.view(slots).attention_operands(0)
        split = paged_attention(queries, key_pool, value_pool, runs, block_size, plan)
        for group in (~apart, apart):
            rows = np.flatnonzero(group[plan.rows])
            alone = paged_attention(
                queries[:, rows], key_pool, value_pool, [runs[b] for b in group.nonzero()[0]], block_size,
                ForwardPlan.ragged(starts[group], lengths[group]),
            )  # fmt: skip
            np.testing.assert_array_equal(split[rows], alone)


HEADS, D_HEAD, WIDE_BLOCK = 4, 16, 8
#: ``(starts, lengths)`` of one forward's sequences, by the shape they exercise.
LATTICE = {
    "decode batch of mixed reach": ([3 + 7 * i for i in range(16)], [1] * 16),
    "one chunk at depth": ([128], [64]),
    "ragged verify": ([40, 9, 77, 30, 64, 5, 100, 18], [3, 1, 5, 1, 13, 2, 1, 1]),
    "a sequence with no rows": ([20, 33, 7], [2, 0, 4]),
    "a row at position 0": ([0, 12, 0], [1, 3, 9]),
}


def lattice_forward(rng, starts, lengths, extent=None, strided=False):
    """Kernel operands for one flat forward over freshly written sequences.

    With ``extent`` the free space is cut into extents of that many blocks
    first (one pinned spacer block between them), so a sequence needing
    ``k * extent`` blocks holds a ``k``-run table.
    """
    reaches = [start + length for start, length in zip(starts, lengths)]
    needed = sum(-(-reach // WIDE_BLOCK) for reach in reaches)
    pool = PagedKVCache(
        num_layers=1, num_heads=HEADS, d_head=D_HEAD, block_size=WIDE_BLOCK,
        num_blocks=needed if extent is None else 2 * needed + extent,
    )  # fmt: skip
    if extent is not None:
        spacers = [pool.reserve(WIDE_BLOCK) for _ in range(pool.num_blocks)]
        for index, spacer in enumerate(spacers):
            if index % (extent + 1) != extent:
                pool.free(spacer)
    slots = []
    for reach in reaches:
        slot = pool.reserve(reach)
        payload = rng.normal(size=(2, 1, HEADS, reach, D_HEAD))
        pool.write(0, [slot], payload[0], payload[1], np.arange(reach)[None, :])
        pool.set_length(slot, reach)
        slots.append(slot)
    plan = ForwardPlan.ragged(np.array(starts), np.array(lengths))
    rows = int(plan.positions.size)
    if strided:  # the runner's own operand: a head-split view of a (rows, d_model) projection
        queries = rng.normal(size=(rows, HEADS * D_HEAD)).reshape(rows, HEADS, D_HEAD).transpose(1, 0, 2)
        assert not queries.flags.c_contiguous
    else:
        queries = rng.normal(size=(HEADS, rows, D_HEAD))
    return pool, slots, plan, queries


def allocating_kernel(queries, key_pool, value_pool, runs, block_size, plan):
    """``paged_attention`` as it stood while every pass allocated its result, verbatim."""
    num_heads, rows, d_head = queries.shape
    segments, hidden_slots = plan.attention_layout(runs, block_size)
    flat_keys = key_pool.reshape(num_heads, -1, d_head)
    flat_values = value_pool.reshape(num_heads, -1, d_head)
    scores = np.zeros((num_heads, rows, plan.attended), dtype=np.float64)
    for lo, hi, start, stop, first, last in segments:
        scores[:, lo:hi, start:stop] = queries[:, lo:hi] @ flat_keys[:, first:last].transpose(0, 2, 1)
    scores = scores / np.sqrt(d_head)
    scores = np.where(hidden_slots, -1e9, scores)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    attention = exp / exp.sum(axis=-1, keepdims=True)
    context = np.zeros((rows, num_heads, d_head), dtype=np.float64)
    for lo, hi, start, stop, first, last in segments:
        context[lo:hi] += (attention[:, lo:hi, start:stop] @ flat_values[:, first:last]).transpose(1, 0, 2)
    return context


def dense_alone(queries, view, positions, attended):
    """Gather-then-dense attention on one sequence, with the products taken at
    the sequence's own reach — the columns past it hold gathered zeros and
    exactly-zero probabilities, which only BLAS's blocking of a wider product
    can tell from absent ones — and the softmax at the forward's width."""
    reach = int(positions.max()) + 1
    cached_keys, cached_values = view.view(0, reach)
    scores = np.zeros(queries.shape[:-1] + (attended,))
    scores[..., :reach] = queries @ np.swapaxes(cached_keys, -1, -2)
    scores = scores / np.sqrt(queries.shape[-1])
    hidden = np.arange(attended)[None, None, None, :] > positions[:, None, :, None]
    attention = softmax(np.where(hidden, -1e9, scores), axis=-1)
    return attention[..., :reach] @ cached_values


def assert_matches_references(pool, slots, plan, queries, single_run):
    """The kernel against the allocating kernel (every bit, on any table) and,
    sequence by sequence, against the gather-then-dense math on that sequence
    alone: bit for bit on single-run tables, and to the context's final-sum
    rounding against the full-width reference on any."""
    key_pool, value_pool, runs, block_size = pool.view(slots).attention_operands(0)
    assert all(len(row_runs) == 1 for row_runs in runs) == single_run
    context = paged_attention(queries, key_pool, value_pool, runs, block_size, plan)
    allocated = allocating_kernel(queries, key_pool, value_pool, runs, block_size, plan)
    # Every bit: the signs of zeros too, which value equality does not see.
    assert np.array_equal(context.view(np.uint64), allocated.view(np.uint64))
    for sequence, slot in enumerate(slots):
        lo, hi = plan.bounds[sequence], plan.bounds[sequence + 1]
        if lo == hi:
            continue
        ours = context[lo:hi].transpose(1, 0, 2)
        operands = (queries[None, :, lo:hi], pool.view([slot]))
        positions = plan.positions[None, lo:hi]
        reference, _ = dense_reference(*operands, 0, positions, attended=plan.attended)
        np.testing.assert_allclose(ours, reference[0], rtol=0.0, atol=1e-12)
        if single_run:
            np.testing.assert_array_equal(ours, dense_alone(*operands, positions, plan.attended)[0])
    return context, runs


def reference_layout(plan, runs, block_size):
    """``attention_layout``'s segments and mask, one sequence at a time by index."""
    reach = [int(plan.positions[lo:hi].max()) + 1 if hi > lo else 0 for lo, hi in zip(plan.bounds, plan.bounds[1:])]
    segments = []
    for sequence, row_runs in enumerate(runs):
        lo, hi = int(plan.bounds[sequence]), int(plan.bounds[sequence + 1])
        for first_index, first_physical, count in row_runs:
            start = first_index * block_size
            if start >= reach[sequence]:
                break
            stop = min(start + count * block_size, reach[sequence])
            first = first_physical * block_size
            segments.append((lo, hi, start, stop, first, first + stop - start))
    hidden = np.arange(plan.attended)[None, None, :] > plan.positions[None, :, None]
    return segments, hidden


class TestAttentionLayout:
    @staticmethod
    def random_runs(rng, blocks):
        """A run table over ``blocks`` block indices: 1-3 runs at scattered physical blocks."""
        cuts = sorted(rng.choice(np.arange(1, blocks), size=min(blocks - 1, rng.integers(0, 3)), replace=False))
        bounds = [0, *cuts, blocks]
        return [(lo, int(rng.integers(0, 50)), hi - lo) for lo, hi in zip(bounds, bounds[1:])]

    def test_segments_equal_the_reference_loop(self):
        """Random ragged plans and their selections, some sequences without rows, on multi-run tables."""
        empty_sequences = multi_run_segments = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            batch = int(rng.integers(1, 7))
            lengths = rng.integers(0, 5, size=batch)
            starts = rng.integers(0, 30, size=batch)
            plan = ForwardPlan.ragged(starts, lengths)
            runs = [self.random_runs(rng, -(-(start + length + 4) // BLOCK)) for start, length in zip(starts, lengths)]
            kept = np.sort(rng.choice(plan.positions.size, size=plan.positions.size // 2, replace=False))
            for layout_plan in (plan, plan.select(kept)):
                segments, hidden = layout_plan.attention_layout(runs, BLOCK)
                expected_segments, expected_hidden = reference_layout(layout_plan, runs, BLOCK)
                assert segments == expected_segments
                assert np.array_equal(hidden, expected_hidden)
                empty_sequences += int((layout_plan.lengths == 0).sum())
                sequence_lows = [segment[0] for segment in segments]
                multi_run_segments += len(sequence_lows) - len(set(sequence_lows))
        assert empty_sequences and multi_run_segments


class TestLattice:
    """The in-place kernel against the retained references, one lattice of shapes."""

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("shape", sorted(LATTICE))
    def test_single_run_tables_bitwise(self, rng, shape, strided):
        pool, slots, plan, queries = lattice_forward(rng, *LATTICE[shape], strided=strided)
        context, _ = assert_matches_references(pool, slots, plan, queries, single_run=True)
        assert context.shape == (plan.positions.size, HEADS, D_HEAD)
        # Row-major, so the runner's reshape to (rows, d_model) copies nothing.
        assert context.flags.c_contiguous
        assert np.shares_memory(context, context.reshape(plan.positions.size, HEADS * D_HEAD))

    @pytest.mark.parametrize("run_count", [2, 3])
    @pytest.mark.parametrize("shape", ["one chunk at depth", "ragged verify"])
    def test_two_and_three_run_tables(self, rng, shape, run_count):
        _, lengths = LATTICE[shape]
        # Every sequence reaches 24 blocks, and no free extent holds more than 24 / run_count.
        starts = [24 * WIDE_BLOCK - length for length in lengths]
        pool, slots, plan, queries = lattice_forward(
            rng, starts, lengths, extent=24 // run_count, strided=True
        )
        _, runs = assert_matches_references(pool, slots, plan, queries, single_run=False)
        assert {len(row_runs) for row_runs in runs} == {run_count}

    def test_the_operand_layout_changes_no_bit(self, rng):
        pool, slots, plan, queries = lattice_forward(rng, *LATTICE["ragged verify"], strided=True)
        operands = pool.view(slots).attention_operands(0)
        np.testing.assert_array_equal(
            paged_attention(queries, *operands, plan),
            paged_attention(np.ascontiguousarray(queries), *operands, plan),
        )

    def test_a_row_at_position_0_attends_to_its_own_value_only(self, rng):
        pool, slots, plan, queries = lattice_forward(rng, *LATTICE["a row at position 0"])
        key_pool, value_pool, runs, block_size = pool.view(slots).attention_operands(0)
        context = paged_attention(queries, key_pool, value_pool, runs, block_size, plan)
        np.testing.assert_array_equal(context[0], value_pool[:, runs[0][0][1], 0])

    def test_operands_are_left_untouched(self, rng):
        """In place means in the kernel's own buffer: the queries, the pools
        and the plan's mask (shared by every layer) come back as they went in."""
        pool, slots, plan, queries = lattice_forward(rng, *LATTICE["ragged verify"])
        key_pool, value_pool, runs, block_size = pool.view(slots).attention_operands(0)
        _, hidden_slots = plan.attention_layout(runs, block_size)
        operands = (queries, key_pool, value_pool, hidden_slots)
        kept = [array.copy() for array in operands]
        paged_attention(queries, key_pool, value_pool, runs, block_size, plan)
        for before, after in zip(kept, operands):
            np.testing.assert_array_equal(before, after)


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
