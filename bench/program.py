"""The program under test, as the benchmark builds it: model, runner, engines.

Everything here goes through ``repro``'s public constructors.  The only things
installed on the program's objects in *every* run are the integer-adding
wrappers of :func:`count_forwards` (two adds per forward) and
:func:`count_steps` (one add and one clock read per engine step, plus the
yardstick sample every :data:`bench.clock.SAMPLE_EVERY_S` seconds).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Callable, List, Optional

import numpy as np

from bench.clock import SAMPLE_EVERY_S, CalibratedClock
from bench.workloads import POOL_REPLICAS, PREFIX_CHUNK, Trace

MODEL_NAME = "opt-6.7b-sim"

#: Warm-up requests served after every rebuild: their prompts reach every row
#: chunk a workload touches, so the executor's lazy per-(site, chunk) weight
#: caches are full before anything is timed.
WARMUP_REQUESTS = 16
WARMUP_PROMPT = (8, 232)
WARMUP_OUTPUT = 8


class Counters:
    """Integer tallies the always-installed wrappers add to."""

    __slots__ = (
        "steps", "prefill_calls", "prefill_rows", "decode_calls", "decode_rows",
        "verify_calls", "verify_rows",
    )  # fmt: skip

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def load_model():
    """The committed checkpoint and the corpus prompts are cut from.

    A checkout without the cached checkpoint retrains it (deterministically,
    ~6 s) — in a child process, because training peaks at ~145 MiB and would
    otherwise be this process's ``peak_rss_mb``.
    """
    import repro
    from repro.data import load_corpus
    from repro.models import cache_directory, get_language_model

    if not any(cache_directory().glob(f"{MODEL_NAME}-*.npz")):
        train = f"from repro.models import get_language_model; get_language_model({MODEL_NAME!r})"
        source = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run([sys.executable, "-c", train], check=True, env={**os.environ, "PYTHONPATH": source})
    weights = get_language_model(MODEL_NAME)
    corpus, _ = load_corpus("wiki", vocab_size=weights.config.vocab_size).split()
    return weights, np.asarray(corpus, dtype=np.int64)


def build_runner(weights, corpus: np.ndarray):
    """Calibrate, quantize and pack: the Tender-implicit runner every workload serves."""
    from repro.core import TenderConfig, TenderQuantizer
    from repro.data import calibration_samples

    calibration = calibration_samples(corpus, seq_len=48, num_samples=4, seed=7)
    quantizer = TenderQuantizer(TenderConfig(bits=8, num_groups=8, row_chunk_size=32), implicit=True)
    return quantizer.quantize(weights, calibration)


def serve_all(scheduler, prompts, budgets=None) -> list:
    """Submit every prompt, step until drained; the terminal outputs in submission order."""
    budgets = [None] * len(prompts) if budgets is None else [int(budget) for budget in budgets]
    ids = [scheduler.submit(prompt, max_new_tokens=budget) for prompt, budget in zip(prompts, budgets)]
    outputs = {}
    while scheduler.has_pending:
        for output in scheduler.step():
            outputs[output.request_id] = output
    return [outputs[i] for i in ids]


def warm_up(runner, corpus: np.ndarray, clock: CalibratedClock) -> None:
    """Serve the fixed warm-up requests so lazy caches are full before timing."""
    from repro.serve import GenerationConfig, Scheduler

    lengths = np.linspace(*WARMUP_PROMPT, WARMUP_REQUESTS).astype(int)
    scheduler = Scheduler(
        runner, GenerationConfig(max_new_tokens=WARMUP_OUTPUT), max_batch_size=8, record_logits=False
    )
    count_steps(scheduler, Counters(), clock)  # set-up time is calibrated like serving time
    serve_all(scheduler, [corpus[index * 97 : index * 97 + length] for index, length in enumerate(lengths)])


def count_forwards(runner, counters: Counters) -> None:
    """Wrap the runner's three forward entry points with call and row tallies."""
    prefill, decode_step, verify = runner.prefill, runner.decode_step, runner.verify

    def counted_prefill(tokens, lengths, *args, **kwargs):
        counters.prefill_calls += 1
        counters.prefill_rows += int(np.sum(lengths))
        return prefill(tokens, lengths, *args, **kwargs)

    def counted_decode_step(tokens, *args, **kwargs):
        counters.decode_calls += 1
        counters.decode_rows += len(tokens)
        return decode_step(tokens, *args, **kwargs)

    def counted_verify(tokens, *args, **kwargs):
        counters.verify_calls += 1
        counters.verify_rows += int(np.size(tokens))
        return verify(tokens, *args, **kwargs)

    runner.prefill = counted_prefill
    runner.decode_step = counted_decode_step
    runner.verify = counted_verify


def count_steps(stepper, counters: Counters, clock: CalibratedClock, every_s: float = SAMPLE_EVERY_S) -> None:
    """Wrap ``stepper.step`` with the step tally and the periodic yardstick sample.

    A sample is taken at the first step boundary ``every_s`` raw seconds after
    the previous one (``inf``: never, for the call-counting profile pass).
    """
    step = stepper.step

    def counted_step():
        if time.perf_counter() - clock.ends[-1] >= every_s:
            clock.sample()
        counters.steps += 1
        return step()

    stepper.step = counted_step


def greedy_continuations(runner, prompts: List[np.ndarray], tokens: int) -> List[np.ndarray]:
    """Each prompt followed by the model's own ``tokens``-token greedy continuation."""
    from repro.serve import GenerationConfig, Scheduler

    scheduler = Scheduler(
        runner, GenerationConfig(max_new_tokens=tokens), max_batch_size=8, record_logits=False
    )
    return [np.concatenate([output.prompt, output.generated]) for output in serve_all(scheduler, prompts)]


def finalize_prompts(runner, trace: Trace) -> List[np.ndarray]:
    """The prompts actually served: ``trace.prompts``, extended where the workload says so."""
    if not trace.extend_tokens:
        return list(trace.prompts)
    distinct = {prompt.tobytes(): prompt for prompt in trace.prompts}
    extended = greedy_continuations(runner, list(distinct.values()), trace.extend_tokens)
    lookup = dict(zip(distinct, extended))
    return [lookup[prompt.tobytes()] for prompt in trace.prompts]


class Program:
    """One freshly built serving stack for one repeat of one workload."""

    def __init__(self, engine, stepper, *, is_async: bool = False) -> None:
        #: What the driver submits to (Scheduler, ReplicaPool or AsyncEngine).
        self.engine = engine
        #: The object whose ``step()`` is one engine step.
        self.stepper = stepper
        self.is_async = is_async
        #: Probe targets the traced repeat looks for (each may stay empty).
        self.drafter = None
        self.groups: List = []
        self.sharded_runners: List = []
        #: Called with every runner the pool's factory builds (probe hook).
        self.on_runner: Optional[Callable] = None


def build_program(
    name: str,
    runner,
    trace: Trace,
    counters: Counters,
    on_token: Optional[Callable[[int, int], None]],
    tracer=None,
) -> Program:
    """Construct workload ``name``'s engine exactly as ISSUE/README specify it."""
    from repro.serve import (
        AsyncEngine,
        CollectiveFaultInjector,
        CollectiveGroup,
        FaultInjector,
        GenerationConfig,
        PromptLookupDraft,
        ReplicaPool,
        Scheduler,
        ShardedRunner,
        SpecConfig,
    )

    config = GenerationConfig(max_new_tokens=64)
    common = dict(record_logits=False, on_token=on_token, tracer=tracer)
    if name == "decode_steady":
        engine = Scheduler(runner, config, max_batch_size=16, block_size=16, prefix_cache=True, **common)
        return Program(engine, engine)
    if name == "prefix_prefill":
        engine = Scheduler(
            runner, config, max_batch_size=8, num_blocks=160, prefix_cache=True, prefill_chunk=PREFIX_CHUNK, **common
        )
        return Program(engine, engine)
    if name == "spec_extractive":
        drafter = PromptLookupDraft()
        engine = Scheduler(
            runner, config, max_batch_size=8, prefix_cache=False,
            speculation=SpecConfig(drafter, max_draft=12), **common,
        )  # fmt: skip
        program = Program(engine, engine)
        program.drafter = drafter
        return program
    if name == "async_priority":
        engine = AsyncEngine(
            runner, config, max_batch_size=6, block_size=8, preemption=True, prefix_cache=True,
            max_waiting=32, tracer=tracer,
        )  # fmt: skip
        return Program(engine, engine.scheduler, is_async=True)
    if name == "pool_chaos":
        injector = CollectiveFaultInjector(trace.seed, corrupt_rate=0.002, drop_rate=0.002)
        program = Program(None, None)

        def sharded_replica(replica_id: int):
            group = CollectiveGroup(
                2, fault_injector=injector, tracer=tracer, trace_track=f"collective{replica_id}"
            )
            sharded = ShardedRunner(runner, 2, group=group)
            count_forwards(sharded, counters)
            program.groups.append(group)
            program.sharded_runners.append(sharded)
            if program.on_runner is not None:
                program.on_runner(sharded)
            return sharded

        # The pool builds its replicas in the constructor, so probes that want
        # the first three runners read ``program.sharded_runners`` afterwards.
        engine = ReplicaPool(
            runner, POOL_REPLICAS, config, runner_factory=sharded_replica, seed=trace.seed,
            fault_injector=FaultInjector(trace.seed, kill_at=trace.kill_at), max_batch_size=6, **common,
        )  # fmt: skip
        program.engine = program.stepper = engine
        return program
    raise ValueError(f"unknown workload {name!r}")


def build_oracle(runner):
    """The oracle: a plain scheduler that serves every request alone."""
    from repro.serve import GenerationConfig, Scheduler

    return Scheduler(
        runner, GenerationConfig(max_new_tokens=64), max_batch_size=1, prefix_cache=False, record_logits=False
    )
