"""Shared fixtures: a tiny trained language model and calibration data.

The fixtures are session-scoped because training even a tiny Transformer takes
a couple of seconds and many test modules reuse the same checkpoint.  The
model is deliberately small (d_model 32, 2 layers) so the whole suite stays
fast; tests that need the full zoo models are marked ``slow`` and load them
through the on-disk checkpoint cache.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.baselines import UniformQuantExecutor
from repro.data import calibration_samples, load_corpus
from repro.models import OutlierSpec, extract_weights, inject_outliers, train_language_model
from repro.models.inference import TransformerRunner
from repro.nn import TransformerConfig
from repro.quant import Granularity
from repro.serve import PagedKVCache
from repro.serve.workloads import tiny_runner


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: tests that train or load zoo-sized checkpoints")


def pytest_generate_tests(metafunc):
    """Parametrize ``stress_seed`` from the ``REPRO_STRESS_SEEDS`` env knob.

    Tier-1 runs the randomized serving stress harness on 3 seeds by default;
    set ``REPRO_STRESS_SEEDS=50`` (or any N) for a deeper soak without
    touching the test code.
    """
    if "stress_seed" in metafunc.fixturenames:
        num_seeds = int(os.environ.get("REPRO_STRESS_SEEDS", "3"))
        metafunc.parametrize("stress_seed", range(num_seeds))


@pytest.fixture(scope="session")
def wiki_corpus():
    """A small wiki-like corpus shared by all tests."""
    return load_corpus("wiki", vocab_size=512, num_tokens=16_000)


@pytest.fixture(scope="session")
def corpus_splits(wiki_corpus):
    """(train_tokens, eval_tokens) of the shared corpus."""
    return wiki_corpus.split()


@pytest.fixture(scope="session")
def tiny_config():
    """Architecture of the tiny test model."""
    return TransformerConfig(
        vocab_size=512,
        d_model=32,
        num_heads=2,
        num_layers=2,
        d_ff=96,
        max_seq_len=128,
        activation="relu",
        seed=3,
    )


@pytest.fixture(scope="session")
def tiny_trained_model(tiny_config, corpus_splits):
    """A tiny TransformerLM trained for a handful of steps."""
    train_tokens, _ = corpus_splits
    model, result = train_language_model(
        tiny_config, train_tokens, steps=90, batch_size=8, seq_len=32, learning_rate=3e-3, seed=3
    )
    assert result.final_loss < result.losses[0], "training should reduce the loss"
    return model


@pytest.fixture(scope="session")
def tiny_weights(tiny_trained_model):
    """Inference weights extracted from the tiny trained model (no outliers)."""
    return extract_weights(tiny_trained_model)


@pytest.fixture(scope="session")
def outlier_spec():
    """Outlier-injection parameters used across the quantization tests."""
    return OutlierSpec(
        num_scale_channels=2,
        scale_magnitude=60.0,
        num_shift_channels=2,
        shift_magnitude=30.0,
        spread=2.0,
        seed=3,
    )


@pytest.fixture(scope="session")
def outlier_weights(tiny_weights, outlier_spec):
    """The tiny checkpoint with injected channel-wise outliers."""
    return inject_outliers(tiny_weights, spec=outlier_spec)


@pytest.fixture(scope="session")
def calibration(corpus_splits):
    """Calibration token sequences drawn from the training split."""
    train_tokens, _ = corpus_splits
    return calibration_samples(train_tokens, seq_len=48, num_samples=8, seed=11)


@pytest.fixture(scope="session")
def eval_tokens(corpus_splits):
    """Held-out evaluation tokens."""
    _, tokens = corpus_splits
    return tokens


@pytest.fixture
def rng():
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def four_head_runners():
    """Solo runners over the 4-head tiny model (2 / 3 / 4 shards are legal).

    FP, Tender implicit / explicit, Tender "all" (``"tender-all"``: implicit,
    attention operands requantized at run time, so it attends on the dense
    branch), and one baseline: per-row W8A8 (``"int8-row"``), which takes no
    positions, stacks no sites and attends on the dense branch.
    """
    runners = {scheme: tiny_runner(scheme, num_heads=4) for scheme in ("fp", "tender-implicit", "tender-explicit")}
    runners["tender-all"] = tiny_runner("tender-implicit", num_heads=4, quantize_attention=True)
    runners["int8-row"] = TransformerRunner(runners["fp"].weights, UniformQuantExecutor(8, Granularity.PER_ROW))
    return runners


@pytest.fixture
def stale_pool(monkeypatch):
    """Every ``PagedKVCache`` of the test is full of stale bytes; returns their value.

    Pools start filled with ``1e4`` instead of zeros, and every block a pool
    frees is refilled with it, so a reader that relies on bytes nobody
    wrote shows.  Patched on the class, with no hook in the package.  The
    value is large so a scale that reads it moves, and finite: the fused
    kernel multiplies masked probabilities of exactly ``0.0`` by whatever
    sits in V, and ``0.0 * inf`` is NaN.
    """
    stale = 1e4
    construct, recycle = PagedKVCache.__init__, PagedKVCache._recycle

    def filled_init(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        self._pools.fill(stale)

    def filled_recycle(self, blocks):
        self._pools[:, :, blocks] = stale
        recycle(self, blocks)

    monkeypatch.setattr(PagedKVCache, "__init__", filled_init)
    monkeypatch.setattr(PagedKVCache, "_recycle", filled_recycle)
    return stale


@pytest.fixture(scope="session")
def paged_view():
    """``paged_view(config, batch)``: a fresh pool's slots as the sequences of a runner forward.

    One slot per sequence, each reserved at ``max_seq_len`` — or at
    ``capacities[b]`` when given.  ``view._paged`` is the pool behind it.
    """

    def build(config, batch=1, block_size=16, capacities=None):
        capacities = [config.max_seq_len] * batch if capacities is None else capacities
        pool = PagedKVCache.for_model(config, max_active=len(capacities), block_size=block_size)
        return pool.view([pool.reserve(capacity) for capacity in capacities])

    return build
