"""Continuous batching: serve a Poisson arrival trace through the scheduler.

This example drives the serving layer the way a traffic generator would:

1. load a cached zoo checkpoint (trains on first use) and quantize it with
   Tender,
2. build a Poisson arrival trace of mostly-short requests with a heavy tail
   of long generations (chat-shaped traffic),
3. serve the trace with the continuous-batching ``Scheduler`` — requests are
   admitted FIFO as slots and KV blocks free up, finished requests are
   evicted mid-flight, and their paged KV blocks are reclaimed immediately,
4. serve the *same* trace as classic static batches — submit one batch of
   ``MAX_BATCH`` requests, drain it, submit the next — and compare
   tokens-per-forward-pass, next to the analytic prediction of
   ``repro.gpu.batching_occupancy`` (the harmonic number of the batch
   size, under saturation),
5. check per-request parity: scheduling never changes what any individual
   request generates,
6. re-serve a shared-template trace with ``prefix_cache=True`` — prompts
   sharing a few-shot template reuse its KV blocks instead of recomputing
   them (with chunked prefill bounding per-iteration prompt work), and the
   generated tokens stay bit-identical to cache-off serving.

Run:  python examples/serve_continuous.py
"""

from __future__ import annotations

import numpy as np

from repro.core import TenderConfig, TenderQuantizer
from repro.data import calibration_samples, load_corpus
from repro.gpu import batching_occupancy
from repro.models import TransformerRunner, get_language_model
from repro.serve import GenerationConfig, Scheduler

MAX_BATCH = 4


def build_trace(tokens: np.ndarray, num_requests: int, seed: int) -> list:
    """(prompt, budget, arrival) triples: Poisson arrivals, skewed lengths."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(scale=1.5, size=num_requests))
    trace = []
    for index in range(num_requests):
        start = (index * 17) % 300
        prompt = tokens[start : start + 5 + index % 6]
        budget = 32 if index % 5 == 0 else 3  # every 5th request is long
        trace.append((prompt, budget, float(arrivals[index])))
    return trace


def serve(runner, trace, static: bool = False, **scheduler_options):
    """Serve ``trace`` continuously, or (``static``) one drained batch at a time."""
    scheduler = Scheduler(
        runner,
        GenerationConfig(max_new_tokens=32),
        max_batch_size=MAX_BATCH,
        record_logits=False,
        **scheduler_options,
    )
    outputs = []
    step = MAX_BATCH if static else len(trace)
    for begin in range(0, len(trace), step):
        for prompt, budget, arrival in trace[begin : begin + step]:
            scheduler.submit(prompt, max_new_tokens=budget, arrival_time=arrival)
        outputs.extend(scheduler.run())
    return outputs, scheduler.stats


def demo_prefix_cache(runner, tokens: np.ndarray) -> None:
    """Serve a shared-template trace with and without the prefix cache."""
    template = tokens[:64]  # a shared few-shot template / system prompt
    trace = [
        (np.concatenate([template, tokens[300 + i * 23 : 312 + i * 23]]), 3, float(i))
        for i in range(10)
    ]
    cold_outputs, cold = serve(runner, trace)
    warm_outputs, warm = serve(runner, trace, prefix_cache=True, prefill_chunk=32)
    by_id = {output.request_id: output for output in cold_outputs}
    assert all(
        np.array_equal(output.generated, by_id[output.request_id].generated)
        for output in warm_outputs
    )
    print(
        f"\n  prefix cache: {cold.prefill_tokens} -> {warm.prefill_tokens} prompt "
        f"tokens prefilled ({warm.prefix_hit_rate():.0%} served from cache), "
        f"tokens bit-identical ✓"
    )


def main() -> None:
    print("loading checkpoint (trains on first use, then cached)...")
    weights = get_language_model("opt-6.7b-sim")
    train_tokens, _ = load_corpus("wiki", vocab_size=weights.config.vocab_size).split()
    calibration = calibration_samples(train_tokens, seq_len=48, num_samples=4, seed=7)
    runner = TenderQuantizer(TenderConfig(bits=8, num_groups=8)).quantize(weights, calibration)

    trace = build_trace(train_tokens, num_requests=20, seed=3)
    total_tokens = sum(budget for _, budget, _ in trace)
    print(f"\nserving {len(trace)} Poisson arrivals ({total_tokens} tokens, batch {MAX_BATCH})")

    continuous_outputs, continuous = serve(runner, trace)
    static_outputs, static = serve(runner, trace, static=True)

    print("\n  batching    forwards  tokens/forward  peak batch")
    for name, stats in [("continuous", continuous), ("static", static)]:
        print(
            f"  {name:<11s} {stats.total_iterations:>8d}  "
            f"{stats.tokens_per_iteration():>14.2f}  {stats.peak_active:>10d}"
        )
    measured = static.total_iterations / continuous.total_iterations
    analytic = batching_occupancy(max_batch=MAX_BATCH)["speedup"]
    print(f"\n  measured speedup : {measured:.2f}x")
    print(f"  analytic (H({MAX_BATCH}), saturated, memoryless lengths): {analytic:.2f}x")

    # Scheduling never changes what a request generates.
    by_id = {output.request_id: output for output in continuous_outputs}
    assert all(
        np.array_equal(output.generated, by_id[output.request_id].generated)
        for output in static_outputs
    )
    print("\n  per-request outputs are identical under both batchings ✓")

    sample = min(continuous_outputs, key=lambda output: output.request_id)
    print(
        f"\n  request 0: admitted at tick {sample.admitted_at:.0f}, finished at "
        f"tick {sample.finished_at:.0f} ({sample.finish_reason}), "
        f"continuation {np.array2string(sample.generated, separator=',')}"
    )

    demo_prefix_cache(runner, train_tokens)


if __name__ == "__main__":
    main()
