"""Rows nobody samples ride the decode forward.

A record that already holds sampled tokens — a preemption replay, a
``submit_checkpoint`` recovery — and whose replay leaves less than one block
to compute after the prefix match gets no forward of its own: it joins the
decode set with that tail pending and the step's one decode-side forward
carries ``[tail..., pending, drafts...]`` as its rows.  A prefill chunk that
leaves its prompt or replay unfinished rides the same forward as a sequence
of its own.  One lattice per ride composes it with every other scheduler
feature; the corners pin the threshold, the fallbacks and the exits.
Everywhere the oracle is the plain, undisturbed serve on the solo runner:
tokens *and* committed logits, bit for bit.
"""

import numpy as np
import pytest

from repro.errors import ReplicaFailureError
from repro.serve import (
    FaultInjector,
    GenerationConfig,
    ModelDraft,
    PromptLookupDraft,
    ReplicaPool,
    Request,
    Scheduler,
    ShardedRunner,
    SpecConfig,
    check_pool_invariants,
)
from repro.serve.workloads import VOCAB, tiny_runner

BLOCK = 8
SCHEMES = ["tender-implicit", "tender-explicit"]


@pytest.fixture(scope="module")
def runners():
    return {scheme: tiny_runner(scheme, num_heads=4) for scheme in SCHEMES}


class Forwards:
    """What the scheduler asked of the runner: every forward, every row."""

    def __init__(self, runner):
        self.runner = runner
        self.prefills = []  # (rows, wants logits)
        self.decode_side = []  # (rows, resume-tail rows)
        self.chunk_rides = []  # rows of each chunk that rode a decode-side forward
        self.alone = 0  # decode-side forwards that carried a ride and nothing to sample
        prefill, decode_step, verify = runner.prefill, runner.decode_step, runner.verify

        def counted_prefill(tokens, lengths, *args, **kwargs):
            self.prefills.append((int(np.sum(lengths)), kwargs.get("return_logits", True)))
            return prefill(tokens, lengths, *args, **kwargs)

        def counted_decode_step(tokens, *args, **kwargs):
            self.decode_side.append((len(tokens), 0))
            return decode_step(tokens, *args, **kwargs)

        def counted_verify(tokens, *args, **kwargs):
            lengths = np.asarray(kwargs["lengths"])
            heads = np.asarray(kwargs.get("logit_rows", lengths))
            self.chunk_rides += lengths[heads == 0].tolist()
            self.alone += not heads.any()
            self.decode_side.append((int(np.size(tokens)), int((lengths - heads)[heads > 0].sum())))
            return verify(tokens, *args, **kwargs)

        runner.prefill, runner.decode_step, runner.verify = counted_prefill, counted_decode_step, counted_verify

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        del self.runner.prefill, self.runner.decode_step, self.runner.verify

    @property
    def tail_rows(self):
        return sum(tail for _, tail in self.decode_side)


def drain(scheduler, outputs=None):
    """Step to quiescence; after *every* step no record holds a pending tail."""
    outputs = {} if outputs is None else outputs
    version = None
    for _ in range(10_000):
        if not scheduler.has_pending:
            return outputs
        step(scheduler, outputs)
        version = check_pool_invariants(scheduler.cache, version)
    raise AssertionError("the scheduler stopped making progress")


def step(scheduler, outputs):
    for output in scheduler.step():
        outputs[output.request_id] = output
    assert all(record.replay is None for record in scheduler._active.values())


def assert_same(outputs, oracle):
    for request_id in oracle:
        np.testing.assert_array_equal(outputs[request_id].generated, oracle[request_id].generated)
        np.testing.assert_array_equal(outputs[request_id].step_logits, oracle[request_id].step_logits)
        assert outputs[request_id].finish_reason == oracle[request_id].finish_reason


def assert_rows_booked(stats, forwards):
    """Every row the runner saw is booked exactly once by the scheduler.

    A chunk nobody samples is no prefill forward: it rides a decode
    iteration's forward (``ridden_chunks``), or one of its own when nobody
    decodes.
    """
    ridden = len(forwards.chunk_rides)
    assert len(forwards.prefills) + ridden == stats.prefill_iterations
    assert ridden - forwards.alone == stats.ridden_chunks
    assert len(forwards.decode_side) - forwards.alone == stats.decode_iterations
    assert len(forwards.prefills) + len(forwards.decode_side) == stats.total_iterations
    assert forwards.tail_rows == stats.resume_tail_rows
    prefill_rows = sum(rows for rows, _ in forwards.prefills)
    assert prefill_rows + sum(forwards.chunk_rides) + forwards.tail_rows == stats.prefill_tokens
    assert sum(rows for rows, _ in forwards.decode_side) == (
        stats.decode_slot_steps + stats.spec_proposed_tokens + stats.resume_tail_rows + sum(forwards.chunk_rides)
    )


# ----------------------------------------------------------------------
# The lattice
# ----------------------------------------------------------------------
def two_class_requests():
    """Long background generations, then urgent bursts that preempt them."""
    rng = np.random.default_rng(13)
    low = [Request(rng.integers(0, VOCAB, size=3 + 4 * i), 20, 0.5 * i, priority=5) for i in range(4)]
    high = [Request(rng.integers(0, VOCAB, size=4 + i % 2), 3, 5.0 + 4.0 * i, priority=0) for i in range(5)]
    return low + high


@pytest.fixture(scope="module")
def oracle(runners):
    """The undisturbed serve: no preemption, no cache, no chunks, no drafts, no shards."""
    served = {}
    for scheme, runner in runners.items():
        scheduler = Scheduler(runner, GenerationConfig(), max_batch_size=2, block_size=BLOCK)
        for request in two_class_requests():
            scheduler.submit(request.prompt, max_new_tokens=request.max_new_tokens)
        served[scheme] = drain(scheduler)
    return served


DRAFTERS = {
    None: lambda runner: None,
    "lookup": lambda runner: SpecConfig(PromptLookupDraft(min_ngram=1), draft_tokens=4, max_draft=8),
    "model": lambda runner: SpecConfig(ModelDraft.truncated(runner, 1), draft_tokens=4, max_draft=8),
}


@pytest.mark.parametrize("shards", [0, 2])
@pytest.mark.parametrize("drafter", list(DRAFTERS), ids=lambda d: d or "plain")
@pytest.mark.parametrize("prefill_chunk", [None, 6])
@pytest.mark.parametrize("prefix_cache", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_preemption_lattice(runners, oracle, scheme, prefix_cache, prefill_chunk, drafter, shards):
    solo = runners[scheme]
    runner = ShardedRunner(solo, shards) if shards else solo
    scheduler = Scheduler(
        runner,
        GenerationConfig(),
        max_batch_size=2,
        block_size=BLOCK,
        preemption=True,
        prefix_cache=prefix_cache,
        prefill_chunk=prefill_chunk,
        speculation=DRAFTERS[drafter](solo),
    )
    for request in two_class_requests():
        scheduler.submit(request)
    with Forwards(runner) as forwards:
        outputs = drain(scheduler)
    assert_same(outputs, oracle[scheme])
    stats = scheduler.stats
    assert stats.preemptions >= 2
    assert sum(output.preemptions for output in outputs.values()) == stats.preemptions
    assert_rows_booked(stats, forwards)
    if prefix_cache:
        # Publish-at-preemption leaves every full block matchable: each resume rides.
        assert stats.resume_tail_rows > 0
        if prefill_chunk is None:
            assert all(logits or rows >= BLOCK for rows, logits in forwards.prefills)
    assert scheduler.cache.free_block_count == scheduler.cache.num_blocks


# ----------------------------------------------------------------------
# Recovery onto a second scheduler
# ----------------------------------------------------------------------
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_checkpoint_recovery_onto_second_scheduler(runners, scheme, warm):
    """A checkpoint resumed elsewhere rides when the target already holds its
    prompt's blocks, and is an ordinary prefill when it does not."""
    runner = runners[scheme]
    prompt = np.arange(19) % VOCAB  # two full blocks and three tokens
    config = GenerationConfig(max_new_tokens=12)
    alone = Scheduler(runner, config, block_size=BLOCK)
    alone.submit(prompt)
    expected = drain(alone)[0]

    source = Scheduler(runner, config, block_size=BLOCK, prefix_cache=True)
    source.submit(prompt)
    while len(source._requests[0].generated) < 4:
        step(source, {})
    record = source.checkpoint(0)
    assert source.cache.free_block_count == source.cache.num_blocks

    target = Scheduler(runner, config, block_size=BLOCK, prefix_cache=True)
    if warm:
        target.submit(prompt, max_new_tokens=1)
        drain(target)
    before = target.stats.prefill_iterations
    new_id = target.submit_checkpoint(record)
    with Forwards(runner) as forwards:
        outputs = drain(target)
    np.testing.assert_array_equal(outputs[new_id].generated, expected.generated)
    np.testing.assert_array_equal(outputs[new_id].step_logits, expected.step_logits)
    replay = len(prompt) + 3
    if warm:
        assert target.stats.prefill_iterations == before and not forwards.prefills
        assert forwards.decode_side[0] == (replay - 2 * BLOCK + 1, replay - 2 * BLOCK)
    else:
        assert forwards.prefills == [(replay, False)] and forwards.tail_rows == 0


# ----------------------------------------------------------------------
# Corners
# ----------------------------------------------------------------------
def resumed_after(runner, generated, *, prompt_len=4, budget=16, **options):
    """A scheduler whose one request was checkpointed after ``generated`` tokens and re-queued."""
    scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=budget), block_size=BLOCK, **options)
    scheduler.submit(np.arange(3, 3 + prompt_len))
    while len(scheduler._requests[0].generated) < generated:
        step(scheduler, {})
    return scheduler, scheduler.submit_checkpoint(scheduler.checkpoint(0))


def served_alone(runner, prompt_len=4, budget=16):
    scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=budget), block_size=BLOCK)
    scheduler.submit(np.arange(3, 3 + prompt_len))
    return drain(scheduler)[0]


@pytest.mark.parametrize("scheme", SCHEMES)
class TestCorners:
    def test_threshold_is_one_block(self, runners, scheme):
        """``block_size - 1`` rows ride; ``block_size`` rows are a prefill.  The
        prefix cache is off, so the tail is the whole replay: prompt + G - 1."""
        runner = runners[scheme]
        expected = served_alone(runner)
        for generated, rides in ((4, True), (5, False)):
            scheduler, request_id = resumed_after(runner, generated)
            ticks, prefills = scheduler.now, scheduler.stats.prefill_iterations
            with Forwards(runner) as forwards:
                outputs = {}
                step(scheduler, outputs)
                tail = 4 + generated - 1
                if rides:
                    assert forwards.prefills == [] and forwards.decode_side == [(tail + 1, tail)]
                    assert scheduler.stats.prefill_iterations == prefills
                    assert scheduler.now == ticks + 1  # the clock ticks per forward: once
                else:
                    assert forwards.prefills == [(tail, False)] and forwards.decode_side == [(1, 0)]
                    assert scheduler.stats.prefill_iterations == prefills + 1
                    assert scheduler.now == ticks + 2
                assert scheduler.stats.resume_tail_rows == (tail if rides else 0)
                drain(scheduler, outputs)
            assert_same(outputs, {request_id: expected})

    def test_evicted_prefix_falls_back_to_prefill(self, runners, scheme):
        """The victim's published blocks are reclaimed while it waits: its
        resume finds no prefix, so a whole replay is a prefill again."""
        runner = runners[scheme]
        expected = served_alone(runner, prompt_len=10, budget=12)
        scheduler = Scheduler(
            runner, GenerationConfig(max_new_tokens=12), max_batch_size=1, block_size=BLOCK,
            preemption=True, prefix_cache=True, num_blocks=6,
        )  # fmt: skip
        victim = scheduler.submit(np.arange(3, 13), priority=5)
        while len(scheduler._requests[victim].generated) < 8:
            step(scheduler, {})
        scheduler.submit(np.arange(40, 44), max_new_tokens=2, priority=0)
        outputs = {}
        step(scheduler, outputs)
        assert scheduler.stats.preemptions == 1
        cache = scheduler.cache
        assert len(cache.match_prefix(scheduler._requests[victim].replay_tokens())) == 2
        cache.free(cache.reserve(BLOCK * cache.free_block_count))  # reclaims every cached block
        assert cache.match_prefix(scheduler._requests[victim].replay_tokens()) == []
        with Forwards(runner) as forwards:
            drain(scheduler, outputs)
        assert (17, False) in forwards.prefills and forwards.tail_rows == 0
        assert_same(outputs, {victim: expected})

    def test_victim_preempted_again_before_its_tail_ran(self, runners, scheme):
        """Admitted as a ride, then evicted by a head that arrives later in the
        same admission pass: the tail was never forwarded, the cache length
        never advanced, and the record simply goes back to the queue.

        Heads are admitted in priority order, so only a submit from inside the
        pass can do this: here ``on_token`` answers the first token of a fresh
        request (admitted after the ride, same class) with an urgent one.
        """
        runner = runners[scheme]
        expected = served_alone(runner)
        submitted = []

        def on_token(request_id, token):
            if request_id == fresh and not submitted:
                submitted.append(scheduler.submit(np.arange(50, 54), max_new_tokens=2, priority=0))

        scheduler = Scheduler(
            runner, GenerationConfig(max_new_tokens=16), max_batch_size=3, block_size=BLOCK,
            preemption=True, prefix_cache=True, on_token=on_token,
        )  # fmt: skip
        fresh = None
        scheduler.submit(np.arange(3, 7), priority=5)
        while len(scheduler._requests[0].generated) < 4:
            step(scheduler, {})
        record = scheduler.checkpoint(0)
        scheduler.submit(np.arange(30, 36), max_new_tokens=40, priority=0)  # keeps the clock ticking
        step(scheduler, {})
        # Both arrive before the next pass, the recovered record first; the
        # fresh request was submitted first, so — equal in class and admission
        # tick — the ride is the worse victim by id.
        fresh = scheduler.submit(np.arange(20, 29), arrival_time=scheduler.now + 0.6, priority=5)
        ride = scheduler.submit_checkpoint(record, delay=0.4)
        step(scheduler, {})
        assert scheduler.num_waiting == 2 and not submitted
        outputs = {}
        with Forwards(runner) as forwards:
            step(scheduler, outputs)
            assert submitted and scheduler.stats.preemptions == 1
            assert scheduler._requests[ride].slot == -1 and scheduler._requests[ride].preemptions == 1
            assert [rows for rows, _ in forwards.prefills] == [9, 4]  # fresh, urgent: no replay forward
            assert forwards.tail_rows == 0 == scheduler.stats.resume_tail_rows
            check_pool_invariants(scheduler.cache)
            drain(scheduler, outputs)
            assert forwards.tail_rows == scheduler.stats.resume_tail_rows == 7
        assert_same(outputs, {ride: expected})

    def test_budget_hit_in_the_ridden_forward(self, runners, scheme):
        """The last budgeted token is sampled from the forward the resume rode:
        the request finishes there, its prefix published before its slot is freed."""
        runner = runners[scheme]
        expected = served_alone(runner, prompt_len=17, budget=6)
        scheduler, request_id = resumed_after(runner, 5, prompt_len=17, budget=6, prefix_cache=True)
        replay = scheduler._requests[request_id].replay_tokens()
        outputs = {}
        with Forwards(runner) as forwards:
            step(scheduler, outputs)
        assert forwards.prefills == [] and forwards.decode_side == [(6, 5)]
        assert outputs[request_id].finish_reason == "length" and not scheduler.has_pending
        assert_same(outputs, {request_id: expected})
        cache = scheduler.cache
        assert len(cache.match_prefix(replay)) == len(replay) // BLOCK == 2
        assert cache.free_block_count == cache.num_blocks
        check_pool_invariants(cache)

    def test_resume_into_an_empty_decode_set(self, runners, scheme):
        """Nobody else is decoding: the forward is the resume's rows alone."""
        runner = runners[scheme]
        expected = served_alone(runner, prompt_len=10)
        scheduler, request_id = resumed_after(runner, 5, prompt_len=10, prefix_cache=True)
        assert not scheduler._active
        with Forwards(runner) as forwards:
            outputs = drain(scheduler)
        assert forwards.prefills == [] and forwards.decode_side[0] == (7, 6)
        assert_same(outputs, {request_id: expected})

    @pytest.mark.parametrize("leave", ["cancel", "checkpoint_all"])
    def test_leaving_right_after_the_ridden_step(self, runners, scheme, leave):
        runner = runners[scheme]
        expected = served_alone(runner, prompt_len=10)
        scheduler, request_id = resumed_after(runner, 5, prompt_len=10, prefix_cache=True)
        step(scheduler, {})
        assert scheduler.stats.resume_tail_rows == 6
        if leave == "cancel":
            output = scheduler.cancel(request_id)
            np.testing.assert_array_equal(output.generated, expected.generated[:6])
            np.testing.assert_array_equal(output.step_logits, expected.step_logits[:6])
        else:
            (record,) = scheduler.checkpoint_all()
            assert record.slot == -1 and record.replay is None and len(record.generated) == 6
            outputs = drain(scheduler, {})
            assert outputs == {}
            resumed = scheduler.submit_checkpoint(record)
            assert_same(drain(scheduler), {resumed: expected})
        assert not scheduler.has_pending
        assert scheduler.cache.free_block_count == scheduler.cache.num_blocks
        check_pool_invariants(scheduler.cache)


# ----------------------------------------------------------------------
# Chunks nobody samples
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def every_runner(runners):
    return {**runners, "fp": tiny_runner("fp", num_heads=4)}


@pytest.fixture(scope="module")
def one_at_a_time(every_runner):
    """Each request served alone on a fresh scheduler: nothing shared, chunked, preempted or drafted."""
    served = {}
    for scheme, runner in every_runner.items():
        served[scheme] = {}
        for request_id, request in enumerate(two_class_requests()):
            scheduler = Scheduler(runner, GenerationConfig(), block_size=BLOCK)
            scheduler.submit(request.prompt, max_new_tokens=request.max_new_tokens)
            served[scheme][request_id] = drain(scheduler)[0]
    return served


def serve_two_class(runner, prefill_chunk, prefix_cache, drafter):
    """The two-class trace under preemption; also the steps where a riding chunk met a decode set."""
    scheduler = Scheduler(
        runner, GenerationConfig(), max_batch_size=2, block_size=BLOCK, preemption=True,
        prefix_cache=prefix_cache, prefill_chunk=prefill_chunk, speculation=DRAFTERS[drafter](runner),
    )  # fmt: skip
    for request in two_class_requests():
        scheduler.submit(request)
    with Forwards(runner) as forwards:
        outputs, meets, stats = {}, 0, scheduler.stats
        while scheduler.has_pending:
            before = (stats.prefill_iterations, len(forwards.prefills), forwards.alone, stats.decode_iterations)
            step(scheduler, outputs)
            chunks, prefills, alone, decodes = (
                now - then
                for now, then in zip(
                    (stats.prefill_iterations, len(forwards.prefills), forwards.alone, stats.decode_iterations), before
                )
            )
            meets += chunks > prefills + alone and decodes > 0
    return scheduler, outputs, forwards, meets


@pytest.mark.parametrize("drafter", [None, "lookup"], ids=lambda d: d or "plain")
@pytest.mark.parametrize("prefill_chunk", [5, 16])
@pytest.mark.parametrize("prefix_cache", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("scheme", SCHEMES + ["fp"])
def test_chunk_ride_lattice(every_runner, one_at_a_time, scheme, prefix_cache, prefill_chunk, drafter):
    """Tokens equal the unchunked serve's and the one-at-a-time serve's (Tender:
    committed logits bit for bit), every row is booked once, and a chunk that
    meets a decode set rides it."""
    runner = every_runner[scheme]
    _, unchunked, _, _ = serve_two_class(runner, None, prefix_cache, drafter)
    scheduler, outputs, forwards, meets = serve_two_class(runner, prefill_chunk, prefix_cache, drafter)
    for oracle in (unchunked, one_at_a_time[scheme]):
        assert outputs.keys() == oracle.keys()
        for request_id, expected in oracle.items():
            np.testing.assert_array_equal(outputs[request_id].generated, expected.generated)
            if scheme != "fp":
                np.testing.assert_array_equal(outputs[request_id].step_logits, expected.step_logits)
    stats = scheduler.stats
    assert stats.preemptions >= 2
    assert_rows_booked(stats, forwards)
    assert (stats.ridden_chunks > 0) == (meets > 0) and stats.ridden_chunks <= meets
    assert meets > 0 or prefill_chunk == 16  # five-token chunks always meet a decode set here
    assert scheduler.cache.free_block_count == scheduler.cache.num_blocks


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_sampling_chunk_never_rides(runners, scheme):
    """A prompt's last chunk samples the first token from a forward of its own,
    and a replay's last chunk is one too; only the chunks before them ride."""
    runner = runners[scheme]
    expected = served_alone(runner, prompt_len=20, budget=6)
    scheduler = Scheduler(runner, GenerationConfig(max_new_tokens=6), block_size=BLOCK, prefill_chunk=8)
    scheduler.submit(np.arange(3, 23))
    with Forwards(runner) as forwards:
        outputs = {}
        step(scheduler, outputs)
        step(scheduler, outputs)
        assert forwards.prefills == [] and forwards.chunk_rides == [8, 8]
        assert not scheduler._requests[0].generated
        step(scheduler, outputs)
        assert forwards.prefills == [(4, True)] and forwards.decode_side == [(8, 0), (8, 0), (1, 0)]
        # Each chunk ticked the clock once as it was decided, riding or not.
        assert scheduler._requests[0].first_token_at == 3.0
        assert len(scheduler._requests[0].generated) == 2  # and it decoded in the same step
        while len(scheduler._requests[0].generated) < 4:
            step(scheduler, outputs)
        resumed = scheduler.submit_checkpoint(scheduler.checkpoint(0))  # replays 23 rows, cache off
        del forwards.prefills[:], forwards.chunk_rides[:]
        drain(scheduler, outputs)
    assert forwards.chunk_rides == [8, 8] and forwards.prefills == [(7, False)]
    assert scheduler.stats.ridden_chunks == 0  # nobody was decoding: every ride ran alone
    assert_same(outputs, {resumed: expected})


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_preempted_pending_ride_flushes_first(runners, scheme):
    """The victim's chunk was decided this step and waits to ride: it runs first,
    alone, so preemption publishes the blocks it was charged for and the resume
    matches them — 32 prefix hits, not the 16 its cache held before the step."""
    runner = runners[scheme]
    expected = served_alone(runner, prompt_len=40, budget=4)
    scheduler = Scheduler(
        runner, GenerationConfig(max_new_tokens=4), max_batch_size=1, block_size=BLOCK,
        preemption=True, prefix_cache=True, prefill_chunk=16,
    )  # fmt: skip
    victim = scheduler.submit(np.arange(3, 43), priority=5)
    step(scheduler, {})  # its first 16 rows ride alone
    urgent = scheduler.submit(np.arange(50, 54), max_new_tokens=2, priority=0, arrival_time=scheduler.now)
    record = scheduler._requests[victim]
    with Forwards(runner) as forwards:
        outputs = {}
        step(scheduler, outputs)
        assert scheduler.stats.preemptions == 1 and record.slot == -1
        assert forwards.chunk_rides == [16] and forwards.alone == 1  # the flush
        # The victim's chunk spent the budget: the urgent head waits for the next step's.
        assert forwards.prefills == [] and scheduler._requests[urgent].replay is not None
        assert len(scheduler.cache.match_prefix(record.prompt)) == 32 // BLOCK
        drain(scheduler, outputs)
    assert scheduler.stats.ridden_chunks == 0
    assert outputs[victim].prefix_hit_tokens == 32
    assert_same(outputs, {victim: expected})


@pytest.mark.parametrize("when", ["before the step", "inside the shared forward"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_pool_kill_on_a_ride_step_serves_every_request(runners, scheme, when):
    """A replica killed on a step where a chunk rides — by the injector before
    the step, or by its runner inside the forward the chunk rides — is
    recovered, and every request ends with a fault-free run's tokens."""
    runner = runners[scheme]

    def pool(kill_at=None):
        built = ReplicaPool(
            runner, 2, GenerationConfig(), max_batch_size=2, block_size=BLOCK, prefill_chunk=5,
            fault_injector=FaultInjector(seed=0, kill_at=kill_at) if kill_at else None,
        )  # fmt: skip
        for request in two_class_requests():
            built.submit(request.prompt, max_new_tokens=request.max_new_tokens)
        return built

    fault_free, clean, ride_step = pool(), {}, None
    while fault_free.has_pending:
        iteration, ridden = fault_free.cluster_stats.iterations, fault_free.replicas[0].scheduler.stats.ridden_chunks
        clean.update((output.request_id, output) for output in fault_free.step())
        if ride_step is None and fault_free.replicas[0].scheduler.stats.ridden_chunks > ridden:
            ride_step = iteration
    assert ride_step is not None and len(clean) == len(two_class_requests())
    if when == "before the step":
        chaotic = pool({ride_step: 0})
        outputs = {output.request_id: output for output in chaotic.run()}
    else:
        chaotic, verify = pool(), runner.verify

        def killing_verify(tokens, *args, **kwargs):
            if 0 in kwargs.get("logit_rows", ()) and any(kwargs["logit_rows"]):
                del runner.verify  # one kill
                raise ReplicaFailureError("killed inside the forward a chunk rides")
            return verify(tokens, *args, **kwargs)

        runner.verify = killing_verify
        try:
            outputs = {output.request_id: output for output in chaotic.run()}
        finally:
            vars(runner).pop("verify", None)
    assert chaotic.cluster_stats.failures == 1 and chaotic.cluster_stats.recoveries >= 1
    assert chaotic.cluster_stats.degraded_requests == 0
    assert_same(outputs, clean)
