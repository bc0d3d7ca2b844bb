"""Serving observability: lifecycle traces, chaos export, stats folding.

The acceptance scenario for the observability layer is a full chaos run —
two sharded replicas with collective corruption, a scripted replica kill,
and priority preemption — exported as one Chrome trace JSON in which a
preempted-and-recovered request's lifecycle is reconstructable *across
replicas* by filtering on its pool-level correlation id.  These tests run
that scenario and parse the export; the tracer primitives are pinned
separately in ``tests/obs/``.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from repro.obs import CountingClock, FlightRecorder, Tracer
from repro.serve import (
    CollectiveFaultInjector,
    CollectiveGroup,
    FaultInjector,
    GenerationConfig,
    ReplicaPool,
    Scheduler,
    SchedulerStats,
    ShardedRunner,
    SpecConfig,
)
from repro.serve.cluster import ClusterStats
from repro.serve.collective import CollectiveStats
from repro.serve.workloads import tiny_runner


@pytest.fixture(scope="module")
def chaos_runner():
    """The random-weight tiny runner (no training) for the chaos-trace scenario."""
    return tiny_runner()


def _chaos_prompts():
    """Six background prompts plus three urgent late arrivals (fixed seed)."""
    rng = np.random.default_rng(11)
    background = [rng.integers(0, 64, size=18) for _ in range(6)]
    urgent = [rng.integers(0, 64, size=14) for _ in range(3)]
    return background, urgent


def _run_chaos(solo, tracer):
    """One full chaos run: 2 sharded replicas, corruption, a kill, preemption."""

    def factory(replica_id: int):
        injector = CollectiveFaultInjector(seed=replica_id, corrupt_rate=0.05, max_kills=0)
        group = CollectiveGroup(
            2,
            fault_injector=injector,
            max_retries=4,
            tracer=tracer,
            trace_track=f"collective{replica_id}",
        )
        return ShardedRunner(solo, 2, group=group)

    pool = ReplicaPool(
        solo,
        num_replicas=2,
        config=GenerationConfig(max_new_tokens=6),
        runner_factory=factory,
        seed=0,
        fault_injector=FaultInjector(seed=0, kill_at={3: 0}),
        max_batch_size=2,
        block_size=8,
        prefix_cache=True,
        preemption=True,
        record_logits=False,
        tracer=tracer,
    )
    background, urgent = _chaos_prompts()
    for prompt in background:
        pool.submit(prompt, priority=1)
    for prompt in urgent:
        pool.submit(prompt, priority=0, arrival_time=3.0)
    outputs = pool.run()
    return pool, outputs


class TestChaosTraceAcceptance:
    def test_recovered_lifecycle_reconstructable_from_chrome_export(
        self, chaos_runner, tmp_path
    ):
        tracer = Tracer(clock=CountingClock(), recorder=FlightRecorder(capacity=128))
        pool, outputs = _run_chaos(chaos_runner, tracer)

        # The chaos actually happened: a kill, recoveries, preemptions, and
        # corrupted collectives caught on the wire.
        assert pool.cluster_stats.failures >= 1
        assert pool.cluster_stats.recoveries >= 1
        assert pool.stats.preemptions >= 1
        assert len(tracer.events_named("collective.corruption")) >= 1
        assert len(outputs) == 9

        path = tmp_path / "chaos_trace.json"
        tracer.export_chrome_trace(path)
        payload = json.loads(path.read_text())
        rows = payload["traceEvents"]

        # Track metadata: every replica renders as its own process row.
        track_by_pid = {
            row["pid"]: row["args"]["name"] for row in rows if row["ph"] == "M"
        }
        assert {"replica0", "replica1", "pool"} <= set(track_by_pid.values())

        # Reconstruct one preempted-and-recovered request purely from the
        # export: find a correlation id whose lifecycle crosses two replica
        # tracks through a preemption and a recovery.
        lifecycles = {}
        for row in rows:
            corr = row.get("args", {}).get("corr")
            if corr is not None and row["name"].startswith("request."):
                lifecycles.setdefault(corr, []).append(
                    (track_by_pid[row["pid"]], row["name"])
                )
        recovered = {
            corr: events
            for corr, events in lifecycles.items()
            if ("pool", "request.recovered") in events
            and any(name == "request.preempted" for _, name in events)
        }
        assert recovered, f"no preempted-and-recovered lifecycle in {sorted(lifecycles)}"
        corr, events = sorted(recovered.items())[0]
        names = [name for _, name in events]
        replicas = {track for track, _ in events if track.startswith("replica")}
        assert len(replicas) == 2, f"lifecycle {corr} stayed on {replicas}"
        # Causal order: queued before admitted before first token before the
        # preemption; the recovery re-queues it on the surviving replica and
        # it finishes there.
        assert names.index("request.queued") < names.index("request.admitted")
        assert names.index("request.admitted") < names.index("request.preempted")
        assert names.index("request.preempted") < names.index("request.recovered")
        assert names[-1] == "request.finished"
        first_replica = events[0][0]
        last_replica = events[-1][0]
        assert first_replica != last_replica

        # Timestamps are monotone within the lifecycle (CountingClock).
        stamps = [
            row["ts"]
            for row in rows
            if row.get("args", {}).get("corr") == corr and row["ph"] != "M"
        ]
        assert stamps == sorted(stamps)

    def test_chaos_export_is_byte_identical_across_runs(self, chaos_runner, tmp_path):
        def run(path):
            tracer = Tracer(clock=CountingClock(), recorder=FlightRecorder(capacity=128))
            _run_chaos(chaos_runner, tracer)
            tracer.export_chrome_trace(path)
            return path.read_bytes()

        first = run(tmp_path / "run_a.json")
        second = run(tmp_path / "run_b.json")
        assert first == second

    def test_flight_recorder_tape_is_bounded_and_newest(self, chaos_runner):
        tracer = Tracer(clock=CountingClock(), recorder=FlightRecorder(capacity=64))
        _run_chaos(chaos_runner, tracer)
        recorder = tracer.recorder
        assert recorder.recorded == len(tracer.events)
        assert recorder.recorded > 64  # the run overflows the ring...
        tape = recorder.events()
        assert len(tape) == 64  # ...which keeps exactly the newest 64
        assert tape == tracer.events[-64:]


class TestSchedulerLifecycle:
    """Single-scheduler tracing: parity, balance, and the span taxonomy."""

    def _prompts(self):
        rng = np.random.default_rng(5)
        return [rng.integers(0, 64, size=12) for _ in range(4)]

    def _serve(self, runner, tracer):
        scheduler = Scheduler(
            runner,
            GenerationConfig(max_new_tokens=4),
            max_batch_size=2,
            block_size=8,
            prefix_cache=True,
            prefill_chunk=8,
            record_logits=False,
            tracer=tracer,
        )
        for prompt in self._prompts():
            scheduler.submit(prompt)
        return {o.request_id: o.generated for o in scheduler.run()}

    def test_tracing_does_not_perturb_tokens(self, chaos_runner):
        untraced = self._serve(chaos_runner, None)
        traced = self._serve(chaos_runner, Tracer(clock=CountingClock()))
        assert set(untraced) == set(traced)
        for request_id in untraced:
            np.testing.assert_array_equal(untraced[request_id], traced[request_id])

    def test_lifecycle_and_cache_events_emitted(self, chaos_runner):
        tracer = Tracer(clock=CountingClock())
        self._serve(chaos_runner, tracer)
        for name in (
            "request.queued",
            "request.admitted",
            "request.first_token",
            "request.finished",
            "prefill_chunk",
            "decode_step",
            "cache.block_alloc",
        ):
            assert tracer.events_named(name), f"no {name} events"
        # Every request's lifecycle is complete and correlated.
        for request_id in range(4):
            names = [e.name for e in tracer.events_for(f"r{request_id}")]
            assert names[0] == "request.queued"
            assert "request.admitted" in names
            assert "request.first_token" in names
            assert names[-1] == "request.finished"

    def test_verify_step_spans_say_what_ran(self, chaos_runner):
        """``verify_step`` carries ``batch=`` and ``rows=`` (there is no shared
        depth any more), and the rows add up to the scheduler's counter — so
        the wasted-row share is computable from stats alone."""

        class RepeatLast:
            def propose(self, request_id, tokens, max_tokens):
                return np.full(max_tokens, tokens[-1])

            def release(self, request_id, tokens):
                pass

        tracer = Tracer(clock=CountingClock())
        scheduler = Scheduler(
            chaos_runner,
            GenerationConfig(max_new_tokens=6),
            max_batch_size=3,
            block_size=8,
            record_logits=False,
            speculation=SpecConfig(drafter=RepeatLast(), draft_tokens=3, max_draft=4),
            tracer=tracer,
        )
        for prompt in self._prompts():
            scheduler.submit(prompt)
        scheduler.run()
        spans = [e for e in tracer.events_named("verify_step") if e.phase == "B"]
        assert spans and all(sorted(e.args) == ["batch", "rows"] for e in spans)
        assert all(e.args["rows"] > e.args["batch"] for e in spans)
        stats = scheduler.stats
        assert sum(e.args["rows"] for e in spans) == stats.spec_verify_rows
        assert stats.spec_verify_rows == stats.spec_proposed_tokens + sum(e.args["batch"] for e in spans)
        wasted = stats.spec_proposed_tokens - stats.spec_accepted_tokens
        assert 0 < wasted / stats.spec_verify_rows < 1

    def test_spans_are_balanced_per_track(self, chaos_runner):
        tracer = Tracer(clock=CountingClock())
        self._serve(chaos_runner, tracer)
        for track in tracer.tracks():
            begins = sum(
                1 for e in tracer.events if e.track == track and e.phase == "B"
            )
            ends = sum(1 for e in tracer.events if e.track == track and e.phase == "E")
            assert begins == ends, f"unbalanced spans on {track}"


class TestTtftPercentileEdges:
    """Satellite: explicit quantile-edge semantics on SchedulerStats."""

    def _stats_with(self, samples_by_class):
        from repro.serve.stats import SchedulerStats

        stats = SchedulerStats()
        stats.ttft_by_class = {k: list(v) for k, v in samples_by_class.items()}
        return stats

    def test_edge_fractions_on_known_samples(self):
        stats = self._stats_with({0: [1.0, 2.0, 3.0, 4.0]})
        assert stats.ttft_percentile(0.0) == 1.0
        assert stats.ttft_percentile(0.5) == 2.5
        assert stats.ttft_percentile(1.0) == 4.0

    def test_single_sample_returns_it_for_any_fraction(self):
        stats = self._stats_with({1: [7.0]})
        for q in (0.0, 0.5, 0.99, 1.0):
            assert stats.ttft_percentile(q, priority=1) == 7.0

    def test_empty_and_missing_classes_return_zero(self):
        stats = self._stats_with({0: [5.0], 2: []})
        assert stats.ttft_percentile(0.5, priority=2) == 0.0
        assert stats.ttft_percentile(0.5, priority=9) == 0.0
        assert self._stats_with({}).ttft_percentile(1.0) == 0.0

    def test_fraction_out_of_range_raises(self):
        stats = self._stats_with({0: [1.0]})
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            stats.ttft_percentile(50.0)
        with pytest.raises(ValueError):
            stats.ttft_percentile(-0.1)

    def test_class_filter_separates_priorities(self):
        stats = self._stats_with({0: [1.0, 1.0], 1: [9.0, 9.0]})
        assert stats.ttft_percentile(0.5, priority=0) == 1.0
        assert stats.ttft_percentile(0.5, priority=1) == 9.0
        assert stats.ttft_percentile(1.0) == 9.0  # merged across classes


class TestStatsMergeAudit:
    """Satellite: pool stats merge-of-merges survives a second recovery cycle."""

    def test_pool_totals_conserve_retired_work_after_two_kills(self, chaos_runner):
        pool = ReplicaPool(
            chaos_runner,
            num_replicas=3,
            config=GenerationConfig(max_new_tokens=5),
            seed=0,
            fault_injector=FaultInjector(seed=0, kill_at={2: 0, 5: 1}, exhaust_at={0: 0}),
            max_batch_size=2,
            block_size=8,
            prefix_cache=True,
            preemption=True,
            record_logits=False,
        )
        schedulers = [replica.scheduler for replica in pool.replicas]
        build = pool._build_scheduler
        pool._build_scheduler = lambda replica_id: schedulers.append(build(replica_id)) or schedulers[-1]
        background, urgent = _chaos_prompts()
        for prompt in background:
            pool.submit(prompt, priority=1)
        for prompt in urgent:
            pool.submit(prompt, priority=0, arrival_time=3.0)
        outputs = pool.run()
        assert len(outputs) == 9
        assert pool.cluster_stats.failures >= 2 and len(schedulers) == 5  # both kills rebuilt

        # The merged view must equal every scheduler ever built, the two the
        # kills retired included — folding a second crash's retirement on top
        # of the first must not double-count or drop either.
        every = [scheduler.stats for scheduler in schedulers]
        merged = pool.stats
        for spec in dataclasses.fields(SchedulerStats):
            if spec.type in ("int", "float"):
                fold = max if spec.name == "peak_active" else sum  # a high-water mark, not a count
                assert getattr(merged, spec.name) == fold(getattr(s, spec.name) for s in every), spec.name
        assert sorted(merged.ttft_values()) == sorted(v for s in every for v in s.ttft_values())
        assert len(merged.ttft_values()) == merged.completed_requests
        assert merged.degraded_causes == dict(sum((Counter(s.degraded_causes) for s in every), Counter()))
        assert merged.degraded_causes == {"shed": 1} and every[0].degraded_causes == {"shed": 1}
        assert 0 < merged.resume_tail_rows < merged.prefill_tokens  # resumes rode here

    def test_replica_stats_fold_is_associative_across_replicas(self, chaos_runner):
        """Folding per-replica records through an intermediate total gives the pool's view."""
        pool = ReplicaPool(
            chaos_runner,
            num_replicas=3,
            config=GenerationConfig(max_new_tokens=4),
            seed=0,
            max_batch_size=2,
            block_size=8,
            record_logits=False,
        )
        background, _ = _chaos_prompts()
        for prompt in background:
            pool.submit(prompt)
        pool.run()
        r0, r1, r2 = pool.replica_stats()
        left = SchedulerStats()
        for stats in (r0, r1, r2):
            left += stats
        tail = SchedulerStats()
        tail += r1
        tail += r2
        right = SchedulerStats()
        right += r0
        right += tail
        assert left == right == pool.stats
        assert left.completed_requests == len(background) == sum(s.completed_requests for s in (r0, r1, r2))
        assert len(left.ttft_values()) == sum(len(s.ttft_values()) for s in (r0, r1, r2))

    def test_cluster_stats_fold(self):
        total = ClusterStats(
            iterations=10,
            failures=2,
            recoveries=3,
            degraded_requests=1,
            degraded_causes={"retry_budget_exhausted": 1},
        )
        total += ClusterStats(iterations=4, failures=1, degraded_requests=2, degraded_causes={"shed": 2})
        assert (total.iterations, total.failures, total.recoveries, total.degraded_requests) == (14, 3, 3, 3)
        assert total.degraded_causes == {"retry_budget_exhausted": 1, "shed": 2}


def _filled(record, seed):
    """A ``record`` whose every field holds a value derived from ``seed`` (floats exact in binary)."""
    values = {}
    for index, spec in enumerate(dataclasses.fields(record)):
        base = 10 * seed + index
        values[spec.name] = {
            "int": base,
            "float": base + 0.25,
            "Dict[str, int]": {"shed": seed, f"cause{seed}": 1},
            "Dict[int, List[float]]": {0: [float(base)], seed: [base + 0.5]},
        }[spec.type]
    return record(**values)


RECORDS = [SchedulerStats, ClusterStats, CollectiveStats]


class TestCollectiveStatsFold:
    """Every serving counter record folds with ``+=`` by one rule (``Counters``)."""

    @pytest.mark.parametrize("record", RECORDS)
    def test_iadd_folds_field_wise(self, record):
        left, right = _filled(record, 1), _filled(record, 2)
        total = _filled(record, 1)
        total += right
        for spec in dataclasses.fields(record):
            mine, theirs, folded = (getattr(r, spec.name) for r in (left, right, total))
            if spec.name in record.HIGH_WATER:
                assert folded == max(mine, theirs) == theirs, spec.name
            elif spec.type == "Dict[str, int]":
                assert folded == {"shed": 3, "cause1": 1, "cause2": 1}, spec.name
            elif spec.type == "Dict[int, List[float]]":
                assert folded == {0: mine[0] + theirs[0], 1: mine[1], 2: theirs[2]}, spec.name
            else:
                assert folded == mine + theirs, spec.name

    @pytest.mark.parametrize("record", RECORDS)
    def test_fold_is_associative(self, record):
        """``(a += b) += c`` equals ``a += (b += c)``."""
        b, c = _filled(record, 2), _filled(record, 3)
        left = _filled(record, 1)
        left += b
        left += c
        tail = _filled(record, 2)
        tail += c
        right = _filled(record, 1)
        right += tail
        assert left == right

    @pytest.mark.parametrize("record", RECORDS)
    def test_high_water_marks_name_numeric_fields(self, record):
        """A misspelt high-water name would silently turn its mark into a sum."""
        numbers = {spec.name for spec in dataclasses.fields(record) if spec.type in ("int", "float")}
        assert set(record.HIGH_WATER) <= numbers

    @pytest.mark.parametrize("record", RECORDS)
    def test_empty_record_is_the_fold_identity(self, record):
        """``record()`` folds in on either side without changing a value or sharing a container."""
        stats = _filled(record, 1)
        stats += record()
        assert stats == _filled(record, 1)
        fresh = record()
        fresh += stats
        assert fresh == stats
        for spec in dataclasses.fields(record):
            if isinstance(getattr(stats, spec.name), dict):
                assert getattr(fresh, spec.name) is not getattr(stats, spec.name), spec.name

    def test_peak_active_is_a_high_water_mark(self):
        total = SchedulerStats(peak_active=5)
        total += SchedulerStats(peak_active=3)
        assert total.peak_active == 5
        total += SchedulerStats(peak_active=7)
        assert total.peak_active == 7

    @pytest.mark.parametrize("record", [SchedulerStats, ClusterStats])
    def test_causes_add_per_key(self, record):
        total = record(degraded_causes={"shed": 1, "no_healthy_replica": 2})
        total += record(degraded_causes={"shed": 3, "retry_budget_exhausted": 1})
        assert total.degraded_causes == {"shed": 4, "no_healthy_replica": 2, "retry_budget_exhausted": 1}

    def test_samples_concatenate_without_aliasing(self):
        source = SchedulerStats(ttft_by_class={0: [1.0, 2.0]}, tpot_by_class={1: [0.5]})
        total = SchedulerStats(ttft_by_class={0: [3.0]})
        total += source
        fresh = SchedulerStats()
        fresh += source
        assert total.ttft_by_class == {0: [3.0, 1.0, 2.0]} and total.tpot_by_class == {1: [0.5]}
        assert fresh.ttft_by_class == {0: [1.0, 2.0]} and fresh.ttft_by_class[0] is not source.ttft_by_class[0]
        source.ttft_by_class[0].append(9.0)
        source.tpot_by_class[1].append(9.0)
        assert total.ttft_values() == [3.0, 1.0, 2.0] and fresh.ttft_values() == [1.0, 2.0]
        assert total.mean_tpot() == fresh.mean_tpot() == 0.5

    @pytest.mark.parametrize("record", RECORDS)
    def test_iadd_rejects_other_types(self, record):
        stats = record()
        with pytest.raises(TypeError):
            stats += 5
        for other in RECORDS:
            if other is not record:
                with pytest.raises(TypeError):
                    stats += other()
        assert stats == record()
