"""One prefill budget, spent in one loop: ``Scheduler.step()`` as a pipeline.

A step has one prefill budget — ``prefill_chunk`` prompt tokens, unbounded
when ``None`` — spent first on the records already prefilling, then on each
admission as it is admitted; ``_admit_next`` only decides.  The properties
below are the unification's own: a budget nothing can exhaust *is* no budget
(same schedule, tick for tick), and under a finite one the order of a step
is continuing chunks, then admissions, then the shared forward — which a
chunk nobody samples rides instead of running a forward of its own.  The
gate at the bottom pins the structure itself over the class's AST.
"""

import ast
import dataclasses
import inspect

import numpy as np
import pytest

from repro.obs import CountingClock, Tracer
from repro.serve import GenerationConfig, PromptLookupDraft, Scheduler, SpecConfig, workloads
from repro.serve.workloads import VOCAB, tiny_runner

SCHEMES = ["tender-implicit", "tender-explicit"]
BLOCK = 8


@pytest.fixture(scope="module")
def runners():
    return {scheme: tiny_runner(scheme, num_heads=4) for scheme in SCHEMES}


def tokens(seed, size):
    return np.random.default_rng(seed).integers(0, VOCAB, size=size)


def traced(runner, **options):
    """A scheduler whose steps can be read back as ``[(event name, request)]``."""
    options = dict(dict(block_size=BLOCK, prefix_cache=True, max_batch_size=3), **options)
    tracer = Tracer(clock=CountingClock())
    return Scheduler(runner, GenerationConfig(max_new_tokens=6), tracer=tracer, **options)


def step_story(scheduler):
    """Run one step; return its chunks, admissions and forwards in order, and its outputs.

    A chunk's own forward is a ``prefill_chunk`` span; a chunk that rides the
    shared forward leaves a ``prefill_chunk`` instant, told here as ``ride``.
    """
    seen = len(scheduler.tracer.events)
    outputs = scheduler.step()
    story = [
        ("ride" if event.phase == "i" and event.name == "prefill_chunk" else event.name, event.corr)
        for event in scheduler.tracer.events[seen:]
        if event.phase != "E"
        and event.name in ("prefill_chunk", "request.admitted", "decode_step", "verify_step")
    ]
    return story, outputs


# ----------------------------------------------------------------------
# (a) unchunked is a chunk of infinity
# ----------------------------------------------------------------------
TRACES = {
    # Eight requests over one template, all at t0: a second admission policy for
    # the chunked case matches before its predecessor published (160 hits, not 224).
    "shared prefix": (
        lambda runner: workloads.shared_prefix_trace(),
        dict(max_batch_size=3, block_size=8, prefix_cache=True),
        3,
    ),
    "two-class preemption": (
        lambda runner: workloads.two_class_trace(),
        dict(max_batch_size=2, block_size=4, prefix_cache=True, preemption=True),
        24,
    ),
    "prompt-lookup speculation": (
        workloads.extractive_trace,
        dict(max_batch_size=3, block_size=8, prefix_cache=True, speculation=True),
        16,
    ),
}


def serve(runner, trace, options, max_new_tokens, prefill_chunk):
    options = dict(options, prefill_chunk=prefill_chunk)
    if options.pop("speculation", False):
        options["speculation"] = SpecConfig(PromptLookupDraft(), draft_tokens=4, max_draft=8)
    scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=max_new_tokens), **options)
    for request in trace:
        scheduler.submit(request)
    outputs = {output.request_id: output for output in scheduler.run()}
    return scheduler, outputs


@pytest.mark.parametrize("trace_name", list(TRACES))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_budget_nothing_can_exhaust_is_no_budget(runners, scheme, trace_name):
    runner = runners[scheme]
    build, options, max_new_tokens = TRACES[trace_name]
    trace = build(runner)
    unbounded, base = serve(runner, trace, options, max_new_tokens, None)
    whole, outputs = serve(runner, trace, options, max_new_tokens, runner.config.max_seq_len)
    assert dataclasses.asdict(whole.stats) == dataclasses.asdict(unbounded.stats)
    assert whole.now == unbounded.now
    assert outputs.keys() == base.keys() and len(base) == len(trace)
    for request_id, expected in base.items():
        output = outputs[request_id]
        for field in ("admitted_at", "first_token_at", "finished_at", "prefix_hit_tokens", "finish_reason"):
            assert getattr(output, field) == getattr(expected, field), (request_id, field)
        np.testing.assert_array_equal(output.generated, expected.generated)
        np.testing.assert_array_equal(output.step_logits, expected.step_logits)


# ----------------------------------------------------------------------
# (b)-(e) the order of a step under a finite budget
# ----------------------------------------------------------------------
def test_a_chunk_that_completes_is_matched_by_an_admission_of_the_same_step(runners):
    """The continuing chunk publishes before that step's admissions match."""
    scheduler = traced(runners["tender-implicit"], prefill_chunk=16)
    template = tokens(1, 3 * BLOCK)
    first = scheduler.submit(np.concatenate([template, tokens(2, 4)]))
    scheduler.step()  # 16 of 28 prompt tokens: the budget is spent, nothing is published yet
    assert scheduler._requests[first].replay is not None
    second = scheduler.submit(np.concatenate([template, tokens(3, 5)]), arrival_time=scheduler.now)
    story, _ = step_story(scheduler)
    # r0's last 12 tokens are its own forward; r1's first 4 ride the decode forward.
    assert story == [("prefill_chunk", "r0"), ("request.admitted", "r1"), ("ride", "r1"), ("decode_step", None)]
    assert scheduler._requests[first].replay is None  # completed, and published
    assert scheduler._requests[second].prefix_hit_tokens == 3 * BLOCK
    assert scheduler.stats.prefix_hit_tokens == 3 * BLOCK


def test_an_older_prefilling_record_is_served_before_a_same_step_admission(runners):
    scheduler = traced(runners["tender-implicit"], prefill_chunk=BLOCK)
    scheduler.submit(tokens(4, 30))
    scheduler.step()
    began = scheduler.now
    newcomer = scheduler.submit(tokens(5, 5), arrival_time=began)
    story, _ = step_story(scheduler)
    # The older record's chunk takes the whole budget (and its tick, though it
    # rides); the newcomer is admitted after it and waits for the next step's.
    assert story == [("ride", "r0"), ("request.admitted", "r1"), ("decode_step", None)]
    assert scheduler._requests[newcomer].admitted_at == began + 1.0
    story, _ = step_story(scheduler)
    assert story[0] == ("ride", "r0")  # still the oldest: FIFO


def test_a_rider_admitted_with_the_budget_spent_rides_this_steps_decode(runners):
    """No pending tail outlives the step, whatever the prefill budget did."""
    scheduler = traced(runners["tender-implicit"], prefill_chunk=BLOCK)
    resumed = scheduler.submit(tokens(6, 2 * BLOCK + 1), max_new_tokens=6)
    while len(scheduler._requests[resumed].generated) < 3:
        scheduler.step()
    record = scheduler.checkpoint(resumed)
    scheduler.submit(tokens(7, 30))
    scheduler.step()  # the long prompt's first chunk; 22 tokens to go
    resumed = scheduler.submit_checkpoint(record)
    committed = len(record.generated)
    story, _ = step_story(scheduler)
    # The continuing chunk spends the budget, the resume is admitted afterwards
    # with its two prompt blocks matched and 3 rows left: it rides, in this step.
    assert story == [("ride", "r1"), ("request.admitted", "r2"), ("decode_step", None)]
    assert scheduler.stats.resume_tail_rows == 3
    assert scheduler._active[record.slot] is record and record.replay is None
    assert len(record.generated) == committed + 1


def test_a_deadline_at_the_tick_a_step_begins_is_offered_admission_by_that_step(runners):
    """Expiry is evaluated before the step's first forward, not after the chunk's tick."""
    scheduler = traced(runners["tender-implicit"], prefill_chunk=BLOCK)
    scheduler.submit(tokens(8, 30))
    scheduler.step()
    began = scheduler.now
    punctual = scheduler.submit(tokens(9, 5), arrival_time=began, deadline=began)
    story, outputs = step_story(scheduler)
    assert outputs == [] and scheduler.stats.expired_requests == 0
    assert story[:2] == [("ride", "r0"), ("request.admitted", "r1")]
    assert scheduler._requests[punctual].admitted_at == began + 1.0
    # One that nobody could admit in time still expires, at the top of the next step.
    late = traced(runners["tender-implicit"], prefill_chunk=BLOCK, max_batch_size=1)
    late.submit(tokens(8, 30))
    late.step()
    late.submit(tokens(9, 5), arrival_time=late.now, deadline=late.now)
    assert late.step() == []
    assert [output.finish_reason for output in late.step()] == ["expired"]


# ----------------------------------------------------------------------
# The gate: structure, not prose
# ----------------------------------------------------------------------
FORWARDS = {"prefill": "_advance_prefill", "decode_step": "_decode_iteration", "verify": "_decode_iteration"}


def scheduler_methods():
    (cls,) = [
        node
        for node in ast.parse(inspect.getsource(inspect.getmodule(Scheduler))).body
        if isinstance(node, ast.ClassDef) and node.name == "Scheduler"
    ]
    return {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}


def self_attribute(node, of="self"):
    """``name`` when ``node`` is ``<of>.name`` (``of`` itself a dotted path from ``self``)."""
    if isinstance(node, ast.Attribute) and ast.unparse(node.value) == of:
        return node.attr
    return None


def test_step_is_the_only_way_to_a_forward_and_owns_the_budget():
    methods = scheduler_methods()
    calls = {name: set() for name in methods}  # the intra-class call graph
    forward_sites, budget_readers = set(), set()
    for name, method in methods.items():
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                if self_attribute(node.func) in methods:
                    calls[name].add(node.func.attr)
                entry = self_attribute(node.func, "self.runner")
                if entry is not None:
                    assert FORWARDS.get(entry) == name, f"{name} calls runner.{entry}"
                    forward_sites.add(name)
            if self_attribute(node) == "prefill_chunk" and isinstance(node.ctx, ast.Load):
                budget_readers.add(name)
    assert forward_sites == set(FORWARDS.values())
    assert budget_readers - {"__init__"} == {"step"}
    # The one forward a decision may run: a preemption victim's pending ride,
    # flushed through the shared forward before its blocks are published.
    assert {name for name, callees in calls.items() if "_decode_iteration" in callees} == {"step", "_preempt_for"}
    calls["_preempt_for"].remove("_decode_iteration")

    def reachable(start):
        found, frontier = set(), [start]
        while frontier:
            for callee in calls[frontier.pop()] - found:
                found.add(callee)
                frontier.append(callee)
        return found

    admitters = [name for name in methods if name.startswith("_admit")]
    assert admitters, "the decide-one admission method is gone"
    for name in admitters:
        assert not reachable(name) & forward_sites, f"{name} reaches a forward"
    # step() is the sole caller chain: whoever reaches a forward is step, a phase
    # step calls directly to spend the budget, or run() looping over step.
    reaches_forward = {name for name in methods if reachable(name) & forward_sites}
    assert reaches_forward == {"step", "run"} | (calls["step"] & reaches_forward)
    assert calls["run"] & (reaches_forward | forward_sites) == {"step"}
