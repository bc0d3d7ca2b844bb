"""Speculative decoding: draft-and-verify serving over the paged KV cache.

This example walks the speculative subsystem end to end:

1. load a cached zoo checkpoint (trains on first use) and quantize it with
   Tender,
2. build a repetition-heavy *extractive* trace — each prompt embeds the
   model's own greedy continuation, the summarization/copy pattern where
   the generation echoes prompt content,
3. serve it with ``Scheduler(speculation=SpecConfig(PromptLookupDraft()))``
   — a zero-cost n-gram drafter proposes continuation runs and the target
   model verifies every request's run, each at its own depth, in ONE ragged
   forward over flat rows (``TransformerRunner.verify(..., lengths=...)``),
   rolling rejected positions back through ``PagedKVCache.truncate``,
4. compare decode forwards and tokens-per-forward against plain decoding,
   next to the analytic prediction of ``repro.gpu.speculation``,
5. check parity: the speculative token streams are bit-identical to plain
   decoding (speculation changes how many forwards serving takes, never
   what it serves),
6. re-serve with a ``ModelDraft`` drafter — a truncated-layer copy of the
   target model drafting greedily over its own KV cache.

Run:  python examples/serve_speculative.py
"""

from __future__ import annotations

import numpy as np

from repro.core import TenderConfig, TenderQuantizer
from repro.data import calibration_samples, load_corpus
from repro.gpu import speculation
from repro.models import get_language_model
from repro.models.zoo import get_zoo_entry
from repro.serve import (
    GenerationConfig,
    GenerationEngine,
    ModelDraft,
    PromptLookupDraft,
    Scheduler,
    SpecConfig,
)

MAX_BATCH = 4
MAX_NEW = 48
NUM_REQUESTS = 8


def build_extractive_trace(runner, tokens: np.ndarray) -> list:
    """Prompts that embed the model's own continuation (two-pass)."""
    seeds = [tokens[i * 17 : i * 17 + 16] for i in range(4 * NUM_REQUESTS)]
    warm = GenerationEngine(runner).generate(
        seeds, GenerationConfig(max_new_tokens=56)
    )
    prompts = [np.concatenate([s, g]) for s, g in zip(seeds, warm.generated)]

    def solo_forwards(prompt) -> int:
        scheduler = Scheduler(
            runner,
            GenerationConfig(max_new_tokens=24),
            max_batch_size=1,
            record_logits=False,
            speculation=SpecConfig(drafter=PromptLookupDraft(), max_draft=12),
        )
        scheduler.submit(prompt)
        scheduler.run()
        return scheduler.stats.decode_iterations

    ranked = sorted((solo_forwards(p), i) for i, p in enumerate(prompts))
    return [prompts[i] for _, i in ranked[:NUM_REQUESTS]]


def serve(runner, prompts, speculation=None):
    scheduler = Scheduler(
        runner,
        GenerationConfig(max_new_tokens=MAX_NEW),
        max_batch_size=MAX_BATCH,
        record_logits=False,
        speculation=speculation,
    )
    for prompt in prompts:
        scheduler.submit(prompt)
    outputs = {output.request_id: output for output in scheduler.run()}
    return outputs, scheduler.stats


def main() -> None:
    weights = get_language_model("opt-6.7b-sim")
    corpus, _ = load_corpus("wiki", vocab_size=weights.config.vocab_size).split()
    calibration = calibration_samples(corpus, seq_len=48, num_samples=4, seed=7)
    runner = TenderQuantizer(
        TenderConfig(bits=8, num_groups=8, row_chunk_size=32), implicit=True
    ).quantize(weights, calibration)

    print("building extractive trace (two-pass, probe-ranked)...")
    prompts = build_extractive_trace(runner, corpus)

    baseline, base_stats = serve(runner, prompts)
    lookup, lookup_stats = serve(
        runner,
        prompts,
        SpecConfig(drafter=PromptLookupDraft(), max_draft=12),
    )
    for request_id, reference in baseline.items():
        assert np.array_equal(reference.generated, lookup[request_id].generated)
    print(
        f"prompt lookup : {base_stats.decode_iterations} -> "
        f"{lookup_stats.decode_iterations} decode forwards, "
        f"accept rate {lookup_stats.spec_accept_rate():.0%}, "
        f"{lookup_stats.generated_tokens / lookup_stats.decode_iterations:.1f} "
        f"tokens/forward (parity OK)"
    )
    wasted = lookup_stats.spec_proposed_tokens - lookup_stats.spec_accepted_tokens
    print(
        f"verify rows   : {lookup_stats.spec_verify_rows} over "
        f"{lookup_stats.spec_verify_iterations} ragged forwards = proposed drafts + one "
        f"pending token per request (no padding); "
        f"{wasted / lookup_stats.spec_verify_rows:.0%} were rejected drafts"
    )

    draft_model = ModelDraft.truncated(runner, 1)
    model_spec, model_stats = serve(
        runner, prompts, SpecConfig(drafter=draft_model, max_draft=8)
    )
    for request_id, reference in baseline.items():
        assert np.array_equal(reference.generated, model_spec[request_id].generated)
    print(
        f"model draft   : {base_stats.decode_iterations} -> "
        f"{model_stats.decode_iterations} decode forwards, "
        f"accept rate {model_stats.spec_accept_rate():.0%} (parity OK)"
    )

    analytic = speculation(
        shape=get_zoo_entry("opt-6.7b-sim").paper_shape,
        device_name="rtx3090",
        draft_tokens=8,
        accept_rate=lookup_stats.spec_accept_rate(),
        context=len(prompts[0]) + MAX_NEW,
        batch=MAX_BATCH,
    )["Tender SW"]
    print(
        f"analytic      : expected {analytic['expected_tokens_per_step']:.1f} "
        f"tokens/verify at this accept rate -> {analytic['speedup']:.1f}x modeled decode speedup"
    )


if __name__ == "__main__":
    main()
