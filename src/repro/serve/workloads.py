"""The tiny models and request traces every serving gate and test draws from.

One place builds the random-weight runner (no training, no checkpoint
cache) and the traces behind ``tools/check_perf_smoke.py``'s scenario table,
``BENCH_serving.json`` and the serving tests, so a gate, its recorded row and
its test serve the same requests.  A trace is a list of
:class:`~repro.serve.request.Request`; every builder is a pure function of
its arguments (fixed seeds, tokens in ``[0, VOCAB)``) and none reads a clock.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core import TenderConfig, TenderQuantizer
from repro.models.inference import TransformerRunner
from repro.models.weights import random_weights
from repro.nn import TransformerConfig
from repro.serve.engine import generate
from repro.serve.request import GenerationConfig, Request

VOCAB = 64


def tiny_runner(
    scheme: str = "fp",
    num_heads: int = 2,
    periodic: bool = False,
    quantize_attention: bool = False,
) -> TransformerRunner:
    """The 2-layer, 32-wide random-weight model, ``"fp"`` or ``"tender-implicit"`` / ``"-explicit"``.

    Four heads make it shardable at N=2/4; ``periodic`` makes greedy
    generation cycle with period 7 (:func:`repro.models.weights.random_weights`).
    The Tender schemes calibrate on six fixed random samples at row-chunk
    size 8, so a 40-token prompt spans five calibration chunks.
    """
    config = TransformerConfig(
        vocab_size=VOCAB, d_model=32, num_heads=num_heads, num_layers=2, d_ff=64,
        max_seq_len=128, seed=0,
    )  # fmt: skip
    cycle = dict(scale=0.05, position_scale=1.0, head_scale=0.5, position_period=7)
    weights = random_weights(config, **(cycle if periodic else {}))
    if scheme == "fp":
        return TransformerRunner(weights)
    rng = np.random.default_rng(3)
    calibration = [rng.integers(0, VOCAB, size=40) for _ in range(6)]
    tender = TenderConfig(bits=8, num_groups=8, row_chunk_size=8, quantize_attention=quantize_attention)
    return TenderQuantizer(tender, implicit=scheme == "tender-implicit").quantize(weights, calibration)


def _tokens(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.integers(0, VOCAB, size=size)


def shared_prefix_trace(requests: int = 8, template: int = 36, suffix: int = 10) -> List[Request]:
    """One shared template plus a unique suffix per request (78 % overlap)."""
    rng = np.random.default_rng(3)
    head = _tokens(rng, template)
    return [Request(np.concatenate([head, _tokens(rng, suffix)])) for _ in range(requests)]


def partial_prefix_trace() -> List[Request]:
    """Five prompts that share heads of one 20-token template and part from it inside a block of 8.

    Served one at a time on ``block_size=8``, each matches the blocks its
    predecessors published: whole blocks cover 0 / 16 / 8 / 0 / 0 of their
    tokens, and the heads inside the next block 0 / 4 / 5 / 5 / 2 more — the
    last capped short of its final token (40 hit tokens, 24 in whole blocks).
    Every cut is one token that differs from the template there, ``+ 1``.
    """
    rng = np.random.default_rng(31)
    template, tail = _tokens(rng, 20), _tokens(rng, 4)
    prompts = (
        np.concatenate([template, tail]),
        np.concatenate([template, (tail + 1) % VOCAB]),
        np.concatenate([template[:13], (template[13:19] + 1) % VOCAB]),
        np.concatenate([template[:5], (template[5:8] + 1) % VOCAB]),
        template[:3],
    )
    return [Request(prompt) for prompt in prompts]


def unshared_trace(sizes=(46,) * 8, seed: int = 29) -> List[Request]:
    """Random prompts of the given lengths with nothing in common (the no-hit control)."""
    rng = np.random.default_rng(seed)
    return [Request(_tokens(rng, size)) for size in sizes]


def extractive_trace(runner: TransformerRunner, budgets: Tuple[int, ...] = ()) -> List[Request]:
    """Prompts that embed the model's own greedy continuation (copy/summarize traffic).

    Six 8-token seeds are continued for 16 tokens; a prompt is its seed plus
    that continuation, so a prompt-lookup drafter reads the cycle at once.
    With ``budgets`` the trace is *mixed*: request 0 stays warm, the rest are
    bare seeds (cold until their own output repeats), and request ``i`` stops
    after ``budgets[i]`` tokens, so rows leave the batch at different steps.
    """
    rng = np.random.default_rng(11)
    seeds = [_tokens(rng, 8) for _ in range(6)]
    warm = generate(runner, seeds, GenerationConfig(max_new_tokens=16)).generated
    prompts = [np.concatenate([seed, body]) for seed, body in zip(seeds, warm)]
    if not budgets:
        return [Request(prompt) for prompt in prompts]
    return [Request(p, max_new_tokens=b) for p, b in zip([prompts[0]] + seeds[1:], budgets)]


def two_class_trace() -> List[Request]:
    """A background stream that saturates a batch of 2, then an urgent burst.

    Four long generations (priority 5, 24 tokens) arrive from ``t = 0``; four
    short urgent requests (priority 0, 3 tokens) land from ``t = 8`` — the
    traffic whose time to first token preemption protects.
    """
    rng = np.random.default_rng(13)
    low = [Request(_tokens(rng, 6 + i % 3), 24, 0.8 * i, priority=5) for i in range(4)]
    high = [Request(_tokens(rng, 4 + i % 2), 3, 8.0 + 0.5 * i, priority=0) for i in range(4)]
    return low + high


def templated_trace(seed: int = 17, requests: int = 8) -> List[Request]:
    """Two 10-token templates with 2-4 unique tokens each.

    Sticky routing keeps a template on one replica, so a request recovered
    from a dead replica replays over prefix hits on its failover target.
    """
    rng = np.random.default_rng(seed)
    templates = [_tokens(rng, 10) for _ in range(2)]
    return [Request(np.concatenate([templates[i % 2], _tokens(rng, 2 + i % 3)])) for i in range(requests)]


def churn_trace(shared: bool, requests: int = 48) -> List[Request]:
    """Mixed sizes (1-9 blocks of 8), budgets and staggered arrivals: the free space churns.

    ``shared`` draws every prompt from three templates cut at block
    boundaries plus a short unique tail, so published blocks are matched
    and, in a small pool, reclaimed.
    """
    rng = np.random.default_rng(23)
    sizes = rng.integers(3, 60, size=requests)
    budgets = rng.integers(2, 20, size=requests)
    prompts = [_tokens(rng, size) for size in sizes]
    if shared:
        templates = [_tokens(rng, size) for size in (40, 28, 52)]
        prompts = [
            np.concatenate(
                [templates[i % 3][: 8 * int(rng.integers(1, 7))], _tokens(rng, int(rng.integers(1, 12)))]
            )
            for i in range(requests)
        ]
    return [Request(prompts[i], int(budgets[i]), 1.5 * i) for i in range(requests)]


def poisson_trace(requests: int = 24, long_every: int = 6, budgets=(40, 2)) -> List[Request]:
    """Poisson arrivals, a long generation every ``long_every``: one long member pins a static gang."""
    rng = np.random.default_rng(23)
    arrivals = np.cumsum(rng.exponential(scale=1.5, size=requests))
    return [
        Request(_tokens(rng, 4 + i % 7), budgets[i % long_every != 0], float(arrivals[i]))
        for i in range(requests)
    ]
