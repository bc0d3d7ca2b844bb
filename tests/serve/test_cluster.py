"""Tests of the fault-tolerant replica pool: chaos, recovery, degradation.

The anchor is the strongest guarantee the cluster layer makes: a replica
kill, stall, or breaker trip may move a request across engines, but it must
never change what the request generates.  Recovery replays checkpoints
``(prompt, generated, RNG state)`` through the same deterministic replay
path preemption uses, so recovered outputs are bit-identical — tokens *and*
committed-position logits — to a fault-free run for Tender's integer
pipeline.  Around that sit the robustness mechanics: sticky rendezvous
routing, the circuit breaker, the zero-progress watchdog, and graceful
degradation under memory pressure or an exhausted retry budget.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import re

import numpy as np
import pytest

from repro.core import TenderConfig, TenderQuantizer
from repro.errors import ConfigurationError, ResourceExhaustedError
from repro.models import TransformerRunner
from repro.serve import (
    AsyncEngine,
    FaultInjector,
    GenerationConfig,
    PromptLookupDraft,
    ReplicaPool,
    Request,
    Router,
    SchedulerStats,
    SpecConfig,
    generate,
)


@pytest.fixture()
def runner(tiny_weights):
    return TransformerRunner(tiny_weights)


@pytest.fixture(scope="module")
def template_prompts(corpus_splits):
    """Eight prompts over two shared 8-token templates (sticky-routable)."""
    train_tokens, _ = corpus_splits
    prompts = []
    for index in range(8):
        template = train_tokens[(index % 2) * 40 : (index % 2) * 40 + 8]
        suffix = train_tokens[120 + index * 6 : 120 + index * 6 + 2 + index % 3]
        prompts.append(np.concatenate([template, suffix]))
    return prompts


def tender_runner(weights, calibration, implicit):
    config = TenderConfig(bits=8, num_groups=8, row_chunk_size=8)
    return TenderQuantizer(config, implicit=implicit).quantize(weights, calibration)


@pytest.fixture(scope="module")
def parity_runners(outlier_weights, calibration):
    return {
        "tender-implicit": tender_runner(outlier_weights, calibration, implicit=True),
        "tender-explicit": tender_runner(outlier_weights, calibration, implicit=False),
    }


def pool_outputs(runner, prompts, *, injector=None, **kwargs):
    """Serve ``prompts`` through a fresh pool; outputs keyed by pool id."""
    pool = ReplicaPool(runner, fault_injector=injector, **kwargs)
    for prompt in prompts:
        pool.submit(prompt)
    outputs = {output.request_id: output for output in pool.run()}
    return outputs, pool


class TestRouter:
    def test_equal_templates_rank_identically(self, template_prompts):
        router = Router(num_replicas=4, template_window=8)
        assert router.rank(template_prompts[0]) == router.rank(template_prompts[2])
        assert router.place(template_prompts[0], [0, 1, 2, 3]) == router.place(
            template_prompts[2], [0, 1, 2, 3]
        )

    def test_failover_moves_only_the_dead_winner_traffic(self, template_prompts):
        router = Router(num_replicas=3, template_window=8)
        all_ids = [0, 1, 2]
        winner_a = router.place(template_prompts[0], all_ids)
        survivors = [rid for rid in all_ids if rid != winner_a]
        # Template A fails over to exactly its next-ranked replica.
        next_ranked = router.rank(template_prompts[0])[1]
        assert router.place(template_prompts[0], survivors) == next_ranked
        # Any template whose winner survived keeps its placement — failover
        # moves only the dead winner's traffic (no rehash storm).
        winner_b = router.place(template_prompts[1], all_ids)
        if winner_b != winner_a:
            assert router.place(template_prompts[1], survivors) == winner_b

    def test_no_healthy_replica_raises(self, template_prompts):
        router = Router(num_replicas=2)
        with pytest.raises(ResourceExhaustedError, match="no healthy replica"):
            router.place(template_prompts[0], [])

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="num_replicas"):
            Router(num_replicas=0)
        with pytest.raises(ConfigurationError, match="template_window"):
            Router(num_replicas=1, template_window=0)


class TestFaultInjector:
    def test_scripted_events_win_over_random_draws(self):
        injector = FaultInjector(seed=0, kill_rate=1.0, stall_at={3: 1})
        assert injector.draw(3, 1) == "stall"
        assert injector.draw(3, 0) == "kill"
        kinds = [event.kind for event in injector.events]
        assert kinds == ["stall", "kill"]

    def test_randomized_schedule_is_seed_deterministic(self):
        def schedule(seed):
            injector = FaultInjector(seed, kill_rate=0.3, stall_rate=0.3)
            return [injector.draw(i, r) for i in range(20) for r in range(3)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_max_kills_bounds_the_chaos(self):
        injector = FaultInjector(seed=0, kill_rate=1.0, max_kills=2)
        draws = [injector.draw(i, 0) for i in range(5)]
        assert draws.count("kill") == 2
        assert draws[2:] == [None, None, None]

    def test_validation(self):
        with pytest.raises(ConfigurationError, match=r"kill_rate must be a real number in \[0, 1\], got 1\.5"):
            FaultInjector(kill_rate=1.5)
        with pytest.raises(ConfigurationError, match=r"kill_rate .*, got '0\.5'"):  # was a bare TypeError
            FaultInjector(kill_rate="0.5")
        with pytest.raises(ConfigurationError, match=r"stall_rate .*, got nan"):
            FaultInjector(stall_rate=math.nan)
        with pytest.raises(ConfigurationError, match=r"kill_at key must be an integer >= 0, got 1\.5"):
            FaultInjector(kill_at={1.5: 0})  # was accepted and never fired
        with pytest.raises(ConfigurationError, match="stall_steps"):
            FaultInjector(stall_steps=0)
        with pytest.raises(TypeError, match="drop_rate"):  # a collective kind is not a replica option
            FaultInjector(drop_rate=0.5)


@pytest.mark.parametrize("name", ["tender-implicit", "tender-explicit"])
@pytest.mark.parametrize("prefix_cache", [True, False])
@pytest.mark.parametrize("preemption", [True, False])
class TestRecoveryParity:
    def test_recovered_outputs_are_bit_identical(
        self, name, prefix_cache, preemption, parity_runners, template_prompts
    ):
        """Seeded kills mid-trace change nothing a caller can observe.

        Tokens *and* committed-position logits must equal the fault-free
        pool run — recovery replays the checkpointed sampler state, it
        never re-samples.
        """
        runner = parity_runners[name]
        kwargs = dict(
            num_replicas=3,
            config=GenerationConfig(max_new_tokens=10),
            max_batch_size=2,
            block_size=4,
            prefix_cache=prefix_cache,
            preemption=preemption,
        )
        clean, _ = pool_outputs(runner, template_prompts, **kwargs)
        chaos, pool = pool_outputs(
            runner,
            template_prompts,
            injector=FaultInjector(seed=0, kill_at={2: 0, 5: 1}),
            **kwargs,
        )
        assert pool.cluster_stats.recoveries >= 1
        assert set(chaos) == set(clean)
        for request_id, output in clean.items():
            recovered = chaos[request_id]
            np.testing.assert_array_equal(recovered.generated, output.generated)
            np.testing.assert_array_equal(recovered.step_logits, output.step_logits)
            assert recovered.finish_reason == output.finish_reason


class TestRecoveryMechanics:
    def test_pool_ids_survive_recovery(self, runner, template_prompts):
        outputs, pool = pool_outputs(
            runner,
            template_prompts,
            injector=FaultInjector(seed=0, kill_at={2: 0}),
            num_replicas=3,
            config=GenerationConfig(max_new_tokens=6),
            max_batch_size=2,
            block_size=4,
        )
        assert pool.cluster_stats.recoveries >= 1
        assert sorted(outputs) == list(range(len(template_prompts)))

    def test_generated_tokens_survive_crash_rebuilds(self, runner, template_prompts):
        kwargs = dict(
            num_replicas=3,
            config=GenerationConfig(max_new_tokens=6),
            max_batch_size=2,
            block_size=4,
            breaker_cooldown=2,
        )
        _, clean_pool = pool_outputs(runner, template_prompts, **kwargs)
        _, chaos_pool = pool_outputs(
            runner,
            template_prompts,
            injector=FaultInjector(seed=0, kill_at={2: 0, 4: 1}),
            **kwargs,
        )
        # Retained counters: the chaos run's totals keep the pre-crash work
        # of rebuilt schedulers, so generated tokens are conserved and the
        # recovery recompute shows up as extra prefill rows.
        assert chaos_pool.stats.generated_tokens == clean_pool.stats.generated_tokens
        assert chaos_pool.stats.prefill_tokens >= clean_pool.stats.prefill_tokens

    def test_recovery_rides_prefix_hits_on_the_failover_replica(
        self, runner, template_prompts
    ):
        outputs, pool = pool_outputs(
            runner,
            template_prompts,
            injector=FaultInjector(seed=0, kill_at={3: 0}),
            num_replicas=3,
            config=GenerationConfig(max_new_tokens=8),
            max_batch_size=4,
            block_size=4,
        )
        assert pool.cluster_stats.recoveries >= 1
        recovered_hits = sum(output.prefix_hit_tokens for output in outputs.values())
        assert recovered_hits > 0

    def test_watchdog_moves_requests_off_a_stalled_replica(
        self, runner, template_prompts
    ):
        solo = generate(runner, list(template_prompts), GenerationConfig(max_new_tokens=6))
        outputs, pool = pool_outputs(
            runner,
            template_prompts,
            injector=FaultInjector(seed=0, stall_at={1: 0}, stall_steps=10),
            num_replicas=2,
            config=GenerationConfig(max_new_tokens=6),
            max_batch_size=4,
            block_size=4,
            watchdog_patience=2,
            breaker_cooldown=2,
        )
        assert pool.cluster_stats.watchdog_trips >= 1
        assert pool.cluster_stats.stalled_iterations >= 1
        for request_id in range(len(template_prompts)):
            np.testing.assert_array_equal(
                outputs[request_id].generated, solo[request_id].generated
            )


class TestCircuitBreaker:
    def test_killed_replica_cools_down_then_rejoins(self, runner, template_prompts):
        pool = ReplicaPool(
            runner,
            num_replicas=2,
            config=GenerationConfig(max_new_tokens=4),
            fault_injector=FaultInjector(seed=0, kill_at={1: 0}),
            max_batch_size=4,
            block_size=4,
            breaker_cooldown=2,
        )
        for prompt in template_prompts:
            pool.submit(prompt)
        crashed = pool.replicas[0].scheduler
        pool.step()
        pool.step()
        assert pool.healthy_ids() == [1]
        assert pool.cluster_stats.breaker_opens >= 1
        pool.run()
        # Past the cooldown the replica re-probes with a *fresh* engine.
        for _ in range(6):
            pool.step()
        assert 0 in pool.healthy_ids()
        assert pool.replicas[0].alive
        assert pool.replicas[0].scheduler is not crashed

    def test_unhealthy_replica_takes_no_new_traffic(self, runner, template_prompts):
        pool = ReplicaPool(
            runner,
            num_replicas=2,
            config=GenerationConfig(max_new_tokens=4),
            fault_injector=FaultInjector(seed=0, kill_at={0: 0}),
            max_batch_size=4,
            breaker_cooldown=50,
        )
        pool.submit(template_prompts[0])
        pool.step()
        assert pool.healthy_ids() == [1]
        pool_id = pool.submit(template_prompts[1])
        assert pool._placements[pool_id][0] == 1


class TestDegradation:
    def test_exhaustion_sheds_the_lowest_priority_waiting_request(
        self, runner, template_prompts
    ):
        pool = ReplicaPool(
            runner,
            num_replicas=1,
            config=GenerationConfig(max_new_tokens=5),
            fault_injector=FaultInjector(seed=0, exhaust_at={1: 0}),
            max_batch_size=1,
            block_size=4,
        )
        ids = [
            pool.submit(prompt, priority=priority)
            for prompt, priority in zip(template_prompts[:3], (0, 1, 5))
        ]
        outputs = {output.request_id: output for output in pool.run()}
        assert outputs[ids[2]].finish_reason == "degraded"
        assert len(outputs[ids[2]].generated) == 0
        assert outputs[ids[0]].finish_reason == "length"
        assert outputs[ids[1]].finish_reason == "length"
        assert pool.cluster_stats.degraded_requests == 1

    def test_exhausted_retry_budget_degrades_with_partial_tokens(
        self, runner, template_prompts
    ):
        outputs, pool = pool_outputs(
            runner,
            template_prompts[:4],
            injector=FaultInjector(seed=0, kill_at={2: 0}),
            num_replicas=2,
            config=GenerationConfig(max_new_tokens=6),
            max_batch_size=4,
            block_size=4,
            max_retries=0,
        )
        degraded = [o for o in outputs.values() if o.finish_reason == "degraded"]
        assert degraded
        assert pool.cluster_stats.recoveries == 0
        assert pool.cluster_stats.degraded_requests == len(degraded)
        # The checkpointed progress is returned, not discarded.
        assert any(len(output.generated) > 0 for output in degraded)

    def test_no_surviving_replica_degrades_in_flight_requests(
        self, runner, template_prompts
    ):
        outputs, pool = pool_outputs(
            runner,
            template_prompts[:2],
            injector=FaultInjector(seed=0, kill_at={1: 0}),
            num_replicas=1,
            config=GenerationConfig(max_new_tokens=8),
            max_batch_size=2,
            breaker_cooldown=50,
        )
        assert outputs
        assert all(o.finish_reason == "degraded" for o in outputs.values())
        assert pool.cluster_stats.degraded_requests == len(outputs)


class TestPoolSurface:
    def test_request_object_with_keywords_is_rejected(self, runner, template_prompts):
        pool = ReplicaPool(runner, num_replicas=2)
        request = Request(request_id=0, prompt=template_prompts[0])
        with pytest.raises(ConfigurationError, match="not as submit"):
            pool.submit(request, priority=1)
        assert isinstance(pool.submit(request), int)

    @pytest.mark.parametrize(
        "field, value",
        [("arrival_time", float("inf")), ("deadline", float("nan")), ("priority", 0.9), ("max_new_tokens", 2.7)],
    )
    def test_malformed_submission_leaves_the_pool_untouched(self, runner, template_prompts, field, value):
        pool = ReplicaPool(runner, num_replicas=2)
        with pytest.raises(ConfigurationError, match=f"{field} must be .* got {value!r}"):
            pool.submit(template_prompts[0], **{field: value})
        assert pool.num_waiting == 0 and not pool._placements and not pool._local_to_pool
        assert [replica.scheduler._next_request_id for replica in pool.replicas] == [0, 0]
        assert pool.submit(template_prompts[0]) == 0  # the next pool id was not burned

    def test_cancel_and_expire_translate_pool_ids(self, runner, template_prompts):
        pool = ReplicaPool(
            runner, num_replicas=2, config=GenerationConfig(max_new_tokens=8)
        )
        first = pool.submit(template_prompts[0])
        second = pool.submit(template_prompts[1])
        pool.step()
        cancelled = pool.cancel(first)
        assert cancelled.request_id == first
        assert cancelled.finish_reason == "cancelled"
        expired = pool.expire(second)
        assert expired.request_id == second
        assert expired.finish_reason == "expired"
        with pytest.raises(ConfigurationError, match="not in flight"):
            pool.cancel(first)
        with pytest.raises(ConfigurationError, match="not in flight"):
            pool.expire(99)

    def test_stats_merge_replicas(self, runner, template_prompts):
        outputs, pool = pool_outputs(
            runner,
            template_prompts,
            num_replicas=3,
            config=GenerationConfig(max_new_tokens=4),
            max_batch_size=2,
        )
        stats = pool.stats
        assert isinstance(stats, SchedulerStats)
        assert stats.completed_requests == len(template_prompts)
        assert stats.generated_tokens == sum(
            len(output.generated) for output in outputs.values()
        )
        assert stats.generated_tokens == sum(s.generated_tokens for s in pool.replica_stats())
        assert len(stats.ttft_values()) == len(template_prompts)

    def test_merged_stats_fold_every_integer_field_over_live_and_retired_schedulers(
        self, runner, template_prompts
    ):
        """A speculating pool with one kill and one shed: nothing ``SchedulerStats``
        records is dropped from the totals, the rebuilt replica's first scheduler included."""
        pool = ReplicaPool(
            runner,
            num_replicas=2,
            config=GenerationConfig(max_new_tokens=6),
            max_batch_size=2,
            block_size=4,
            breaker_cooldown=2,
            speculation=SpecConfig(PromptLookupDraft(min_ngram=1), draft_tokens=3),
            fault_injector=FaultInjector(seed=0, kill_at={2: 0}, exhaust_at={1: 0}),
        )
        schedulers = [replica.scheduler for replica in pool.replicas]
        build = pool._build_scheduler
        pool._build_scheduler = lambda replica_id: schedulers.append(build(replica_id)) or schedulers[-1]
        for prompt in template_prompts:
            pool.submit(prompt)
        outputs = pool.run()
        assert len(schedulers) == 3 and pool.cluster_stats.failures == 1
        merged = pool.stats
        counters = [f.name for f in dataclasses.fields(SchedulerStats) if f.type in ("int", "float")]
        for name in counters:
            fold = max if name == "peak_active" else sum
            assert getattr(merged, name) == fold(getattr(s.stats, name) for s in schedulers), name
        assert len(counters) == 19
        assert merged.spec_proposed_tokens > 0 and merged.decode_slot_steps > 0
        assert merged.generated_tokens == sum(len(output.generated) for output in outputs)
        every = [s.stats for s in schedulers]
        assert sorted(merged.ttft_values()) == sorted(v for s in every for v in s.ttft_values())
        assert len(merged.ttft_values()) == merged.completed_requests > 0
        assert merged.degraded_causes == {"shed": 1} == pool.cluster_stats.degraded_causes
        assert every[0].degraded_causes == {"shed": 1}  # booked on the scheduler the kill retired
        assert AsyncEngine(pool=pool).stats == merged

    def test_validation(self, runner):
        with pytest.raises(ConfigurationError, match="num_replicas"):
            ReplicaPool(runner, num_replicas=0)
        with pytest.raises(ConfigurationError, match="max_retries"):
            ReplicaPool(runner, max_retries=-1)

    @pytest.mark.parametrize(
        "build, option, value",
        [
            (ReplicaPool, "num_replicas", 0),
            (ReplicaPool, "max_retries", 1.5),
            (ReplicaPool, "breaker_cooldown", 2.7),
            (ReplicaPool, "breaker_cooldown", 0),
            (ReplicaPool, "watchdog_patience", 2.5),
            (ReplicaPool, "template_window", 3.5),
            (Router, "num_replicas", 2.0),
            (Router, "template_window", 3.5),
            (FaultInjector, "stall_steps", 2.5),
            (FaultInjector, "max_kills", -1),
            (FaultInjector, "max_kills", 1.5),
            (FaultInjector, "max_kills", "x"),
        ],
    )
    def test_count_options_are_refused_at_construction(self, runner, build, option, value):
        """``int()`` used to truncate 2.7 to 2, and ``max_kills=-1`` silently suppressed every kill."""
        required = {ReplicaPool: dict(runner=runner), Router: dict(num_replicas=2)}.get(build, {})
        message = rf"^{option} must be an integer >= \d, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigurationError, match=message):
            build(**{**required, option: value})

    def test_num_replicas_is_an_integer(self, runner):
        """``range()`` used to raise a bare ``TypeError`` for 1.5; NumPy integers pass."""
        with pytest.raises(ConfigurationError, match=r"num_replicas must be an integer >= 1, got 1\.5"):
            ReplicaPool(runner, num_replicas=1.5)
        assert len(ReplicaPool(runner, num_replicas=np.int64(3)).replicas) == 3


class TestPoolBackedAsyncEngine:
    def test_streams_chaos_run_to_solo_parity(self, runner, template_prompts):
        solo = generate(runner, list(template_prompts[:4]), GenerationConfig(max_new_tokens=6))

        async def main():
            pool = ReplicaPool(
                runner,
                num_replicas=2,
                config=GenerationConfig(max_new_tokens=6),
                fault_injector=FaultInjector(seed=0, kill_at={2: 0}),
                max_batch_size=2,
                block_size=4,
                breaker_cooldown=2,
            )
            async with AsyncEngine(pool=pool) as engine:
                streams = [await engine.submit(p) for p in template_prompts[:4]]
                collected = [[token async for token in s] for s in streams]
                outputs = [await s.result() for s in streams]
            return collected, outputs, pool

        collected, outputs, pool = asyncio.run(main())
        assert pool.cluster_stats.failures >= 1
        for index, (tokens, output) in enumerate(zip(collected, outputs)):
            np.testing.assert_array_equal(np.asarray(tokens), output.generated)
            np.testing.assert_array_equal(output.generated, solo[index].generated)

    def test_constructor_rejects_ambiguous_engines(self, runner):
        pool = ReplicaPool(runner, num_replicas=1)
        with pytest.raises(ConfigurationError, match="exactly one"):
            AsyncEngine(runner, pool=pool)
        with pytest.raises(ConfigurationError, match="exactly one"):
            AsyncEngine()
        with pytest.raises(ConfigurationError, match="config"):
            AsyncEngine(pool=pool, config=GenerationConfig())

    def test_scheduler_keywords_beside_a_pool_are_rejected_not_dropped(self, runner):
        """Every replica kept ``max_batch_size == 8`` and ``prefill_chunk is None``."""
        pool = ReplicaPool(runner, num_replicas=2)
        with pytest.raises(ConfigurationError, match="max_batch_size, num_blocks, prefill_chunk, tracer"):
            AsyncEngine(pool=pool, max_batch_size=1, prefill_chunk=4, num_blocks=3, tracer=object())
        for keyword in ("prefix_cache", "preemption", "record_logits", "block_size", "speculation"):
            with pytest.raises(ConfigurationError, match=keyword):
                AsyncEngine(pool=pool, **{keyword: None})
        assert pool.on_token is None  # a rejected engine never hooked itself in
        assert AsyncEngine(pool=pool).scheduler is pool


class TestRouterShortPrompts:
    """Prompts shorter than ``template_window`` must route first-class.

    The rendezvous key is the first ``template_window`` tokens; a shorter
    prompt's key is simply the whole prompt, so determinism, stickiness,
    and failover must hold all the way down to the empty prompt.
    """

    def test_short_prompt_routing_is_deterministic(self):
        prompt = np.array([5, 9, 2], dtype=np.int64)
        first = Router(num_replicas=4, template_window=16)
        second = Router(num_replicas=4, template_window=16)
        assert first.rank(prompt) == second.rank(prompt)
        assert first.place(prompt, [0, 1, 2, 3]) == first.place(prompt, [0, 1, 2, 3])
        # A short prompt and its window-truncated self share a key.
        assert first.rank(prompt) == first.rank(np.array([5, 9, 2]))

    def test_short_prompt_failover_is_stable(self):
        prompt = np.array([7, 7], dtype=np.int64)
        router = Router(num_replicas=3, template_window=16)
        all_ids = [0, 1, 2]
        winner = router.place(prompt, all_ids)
        survivors = [rid for rid in all_ids if rid != winner]
        failover = router.place(prompt, survivors)
        assert failover == router.rank(prompt)[1]
        # Recovery restores the original winner (no rehash drift).
        assert router.place(prompt, all_ids) == winner

    def test_empty_prompt_routes_without_crashing(self):
        empty = np.array([], dtype=np.int64)
        router = Router(num_replicas=3, template_window=8)
        ranked = router.rank(empty)
        assert sorted(ranked) == [0, 1, 2]
        assert router.place(empty, [0, 1, 2]) == ranked[0]
        assert router.place(empty, [0, 1, 2]) == router.place(empty, [0, 1, 2])

    def test_distinct_short_prompts_can_spread(self):
        router = Router(num_replicas=4, template_window=16)
        placements = {
            router.place(np.array([token], dtype=np.int64), [0, 1, 2, 3])
            for token in range(32)
        }
        assert len(placements) > 1


class TestBackoffJitter:
    def test_jitter_stream_is_seed_deterministic(self, runner):
        same_a = ReplicaPool(runner, num_replicas=1, seed=3)._backoff_rng.random(8)
        same_b = ReplicaPool(runner, num_replicas=1, seed=3)._backoff_rng.random(8)
        other = ReplicaPool(runner, num_replicas=1, seed=4)._backoff_rng.random(8)
        np.testing.assert_array_equal(same_a, same_b)
        assert not np.array_equal(same_a, other)

    def test_chaos_run_replays_identically_under_one_seed(self, runner, template_prompts):
        """Jittered backoff must not cost reproducibility: same seed, same run."""

        def run():
            return pool_outputs(
                runner,
                template_prompts[:4],
                injector=FaultInjector(seed=0, kill_at={2: 0, 5: 1}, max_kills=2),
                num_replicas=3,
                seed=9,
                config=GenerationConfig(max_new_tokens=6),
                max_batch_size=2,
                block_size=4,
            )

        first, first_pool = run()
        second, second_pool = run()
        assert first_pool.cluster_stats.recoveries >= 1
        assert set(first) == set(second)
        for request_id, output in first.items():
            np.testing.assert_array_equal(second[request_id].generated, output.generated)
            assert second[request_id].finished_at == output.finished_at
            assert second[request_id].retries == output.retries


class TestFailureCauses:
    """Degraded finishes carry a structured terminal cause and retry count."""

    def test_retry_budget_exhaustion_is_named(self, runner, template_prompts):
        outputs, pool = pool_outputs(
            runner,
            template_prompts[:4],
            injector=FaultInjector(seed=0, kill_at={2: 0}),
            num_replicas=2,
            config=GenerationConfig(max_new_tokens=6),
            max_batch_size=4,
            block_size=4,
            max_retries=0,
        )
        degraded = [o for o in outputs.values() if o.finish_reason == "degraded"]
        assert degraded
        for output in degraded:
            assert output.failure_cause == "retry_budget_exhausted"
        healthy = [o for o in outputs.values() if o.finish_reason != "degraded"]
        assert all(o.failure_cause is None for o in healthy)
        assert pool.cluster_stats.degraded_causes == {
            "retry_budget_exhausted": len(degraded)
        }

    def test_no_healthy_replica_is_named(self, runner, template_prompts):
        outputs, pool = pool_outputs(
            runner,
            template_prompts[:2],
            injector=FaultInjector(seed=0, kill_at={1: 0}),
            num_replicas=1,
            config=GenerationConfig(max_new_tokens=8),
            max_batch_size=2,
            breaker_cooldown=50,
        )
        assert outputs
        for output in outputs.values():
            assert output.failure_cause == "no_healthy_replica"
        assert pool.cluster_stats.degraded_causes.get("no_healthy_replica") == len(outputs)

    def test_shed_requests_are_named_and_tallied_per_replica(
        self, runner, template_prompts
    ):
        pool = ReplicaPool(
            runner,
            num_replicas=1,
            config=GenerationConfig(max_new_tokens=5),
            fault_injector=FaultInjector(seed=0, exhaust_at={1: 0}),
            max_batch_size=1,
            block_size=4,
        )
        ids = [
            pool.submit(prompt, priority=priority)
            for prompt, priority in zip(template_prompts[:3], (0, 1, 5))
        ]
        outputs = {output.request_id: output for output in pool.run()}
        assert outputs[ids[2]].failure_cause == "shed"
        assert pool.cluster_stats.degraded_causes.get("shed") == 1
        # The replica-local scheduler tallies the same cause.
        merged = {}
        for stats in pool.replica_stats():
            for cause, count in stats.degraded_causes.items():
                merged[cause] = merged.get(cause, 0) + count
        assert merged.get("shed") == 1

    def test_recovered_outputs_report_their_retry_count(self, runner, template_prompts):
        outputs, pool = pool_outputs(
            runner,
            template_prompts[:4],
            injector=FaultInjector(seed=0, kill_at={2: 0}),
            num_replicas=2,
            config=GenerationConfig(max_new_tokens=6),
            max_batch_size=2,
            block_size=4,
        )
        assert pool.cluster_stats.recoveries >= 1
        assert any(output.retries >= 1 for output in outputs.values())
        for output in outputs.values():
            assert output.finish_reason != "degraded"
            assert output.failure_cause is None

    @pytest.mark.parametrize(
        "max_retries, kill_at", [(0, {2: 0}), (1, {2: 0, 5: 1})], ids=["first-kill", "second-kill"]
    )
    def test_degraded_admitted_request_keeps_its_admission_tick_and_retries(
        self, runner, template_prompts, max_retries, kill_at
    ):
        """The degraded output is built from the same record a healthy finish
        would use, so an *admitted* request reports its real admission tick
        (not the never-admitted sentinel) and the retries it had consumed."""
        outputs, pool = pool_outputs(
            runner,
            template_prompts[:4],
            injector=FaultInjector(seed=0, kill_at=kill_at),
            num_replicas=2,
            config=GenerationConfig(max_new_tokens=12),
            max_batch_size=4,
            block_size=4,
            max_retries=max_retries,
        )
        started = [
            o
            for o in outputs.values()
            if o.failure_cause == "retry_budget_exhausted" and o.num_steps
        ]
        assert started
        for output in started:
            assert output.admitted_at >= 0.0
            assert output.retries == max_retries

    def test_cause_surfaces_through_the_async_stream(self, runner, template_prompts):
        pool = ReplicaPool(
            runner,
            num_replicas=1,
            config=GenerationConfig(max_new_tokens=6),
            fault_injector=FaultInjector(seed=0, kill_at={1: 0}),
            max_retries=0,
            max_batch_size=2,
            breaker_cooldown=50,
        )

        async def main():
            async with AsyncEngine(pool=pool) as engine:
                stream = await engine.submit(template_prompts[0])
                return await stream.result()

        output = asyncio.run(main())
        assert output.finish_reason == "degraded"
        assert output.failure_cause in {"retry_budget_exhausted", "no_healthy_replica"}
