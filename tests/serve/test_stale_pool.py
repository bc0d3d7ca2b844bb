"""A pool full of stale bytes serves exactly what a zeroed one does.

``PagedKVCache`` promises nothing about bytes no row can see: freed blocks
and rolled-back positions keep whatever they held.  The one reader that
looks past a sequence's own positions is the dense copy Tender "all"
(``quantize_attention=True``) quantizes per column, and it zeroes every
column at or past each sequence's reach itself
(``dense_cached_attention``).  Under the ``stale_pool`` fixture every pool
starts, and refills each block it frees, with a large finite value; tokens
and logits must still equal the unpoisoned solo serve.

The Tender runner keeps ``subtract_bias=False``: with the default bias
subtraction a one-row decode query's ``X_S X_V`` is exact in float, stale
columns cancel, and these tests would pass with the mask removed.  With it
off, removing the mask changes the solo and the 2-shard logits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TenderConfig, TenderQuantizer
from repro.core.reference import ReferenceExecutor
from repro.models import TransformerRunner
from repro.serve import GenerationConfig, ModelDraft, PagedKVCache, Scheduler, ShardedRunner, SpecConfig

SCHEMES = ("tender-all", "tender-all-reference", "fp")


@pytest.fixture(scope="module")
def runners(outlier_weights, calibration):
    """Solo runners: Tender "all" and its oracle over the same calibration (dense attention), and FP (fused)."""
    config = TenderConfig(bits=8, num_groups=8, row_chunk_size=8, quantize_attention=True, subtract_bias=False)
    tender = TenderQuantizer(config).quantize(outlier_weights, calibration)
    return {
        "tender-all": tender,
        "tender-all-reference": TransformerRunner(outlier_weights, ReferenceExecutor(tender.executor.site_params, config)),
        "fp": TransformerRunner(outlier_weights),
    }


@pytest.fixture(scope="module")
def prompts(corpus_splits):
    """Ragged prompts: a short sequence batched beside a longer one gathers columns past its reach."""
    train_tokens, _ = corpus_splits
    return [train_tokens[i * 11 : i * 11 + 3 + (i * 5) % 9] for i in range(10)]


def serve(runner, prompts, speculate=False):
    """``(step_logits, generated)`` per request of a 2-slot, 4-position-block serve (heavy block reuse)."""
    speculation = SpecConfig(ModelDraft.truncated(runner, 1), draft_tokens=3) if speculate else None
    scheduler = Scheduler(
        runner, GenerationConfig(max_new_tokens=6), max_batch_size=2, block_size=4, speculation=speculation
    )
    for prompt in prompts:
        scheduler.submit(prompt)
    outputs = sorted(scheduler.run(), key=lambda output: output.request_id)
    return [(output.step_logits, output.generated) for output in outputs]


@pytest.fixture(scope="module")
def zeroed(runners, prompts):
    """The unpoisoned solo serves (module scope: built before any test's ``stale_pool``)."""
    return {
        (scheme, speculate): serve(runners[scheme], prompts, speculate)
        for scheme in SCHEMES
        for speculate in (False, True)
    }


def assert_same_serve(got, want):
    assert len(got) == len(want)
    for (logits, tokens), (want_logits, want_tokens) in zip(got, want):
        np.testing.assert_array_equal(logits, want_logits)
        np.testing.assert_array_equal(tokens, want_tokens)


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_stale_bytes_change_no_bit(scheme, shards, runners, prompts, zeroed, stale_pool):
    runner = runners[scheme] if shards == 1 else ShardedRunner(runners[scheme], shards)
    assert runner._plain_attention == (scheme == "fp")  # Tender "all" reads the dense copy
    assert_same_serve(serve(runner, prompts), zeroed[scheme, False])


@pytest.mark.parametrize("scheme", ["tender-all", "fp"])
def test_rolled_back_drafts_change_no_bit(scheme, runners, prompts, zeroed, stale_pool):
    """A warm ``ModelDraft`` rewinds its slot and the scheduler truncates rejected drafts: both leave bytes behind."""
    assert_same_serve(serve(runners[scheme], prompts, speculate=True), zeroed[scheme, True])


def test_the_fixture_poisons_fresh_and_freed_blocks(stale_pool):
    pool = PagedKVCache(num_layers=1, num_heads=1, d_head=2, block_size=4, num_blocks=2)
    assert (pool.key_blocks[0] == stale_pool).all()
    slot = pool.reserve(4)
    pool.write(0, [slot], np.ones((1, 4, 2)), np.ones((1, 4, 2)), np.arange(4)[None, :])
    pool.free(slot)
    assert (pool.key_blocks[0] == stale_pool).all() and (pool.value_blocks[0] == stale_pool).all()
