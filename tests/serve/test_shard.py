"""Tests of tensor-parallel sharding: parity, transport faults, recovery.

The anchor is the tentpole guarantee of the shard layer: a
``ShardedRunner`` over N shards serves **bit-identical** tokens and
committed-position logits to the solo runner for Tender implicit and
explicit requantization — including while the collective transport is
dropping, corrupting, delaying, and duplicating messages — because
column-parallel sharding never splits the channel (reduction) axis the
calibration tables index, and every surviving collective delivers a
pristine payload (corruption is *caught* by the CRC32 checksum and
retried, never silently reduced).  Around that sit the transport
mechanics (sequence-number dedup, bounded exponential-backoff retry,
straggler hedging, kill → group-unhealthy) and the cluster integration:
a replica that is a whole shard group dies as one fault unit and its
in-flight requests replay, bit-identically, onto a rebuilt group.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TenderExecutor
from repro.errors import (
    CollectiveTransportError,
    ConfigurationError,
    ShardFailureError,
)
from repro.models.inference import TransformerRunner
from repro.serve import (
    CollectiveFaultInjector,
    CollectiveGroup,
    GenerationConfig,
    PagedKVCache,
    ReplicaPool,
    Scheduler,
    ShardedRunner,
)
from repro.serve.collective import CollectiveFaultEvent, CollectiveStats
from repro.serve.shard import partition_bounds
from repro.serve.workloads import tiny_runner


@pytest.fixture(scope="module")
def shard_prompts():
    """Eight short prompts, two sharing a template (prefix-cache pressure)."""
    rng = np.random.default_rng(11)
    template = rng.integers(0, 64, size=6)
    prompts = [rng.integers(0, 64, size=4 + i % 5) for i in range(6)]
    prompts += [np.concatenate([template, rng.integers(0, 64, size=3)]) for _ in range(2)]
    return prompts


def _serve(runner, prompts, max_new_tokens=6):
    """One scheduler run with logit recording; outputs keyed by request id."""
    scheduler = Scheduler(
        runner,
        GenerationConfig(max_new_tokens=max_new_tokens),
        max_batch_size=3,
        block_size=8,
        record_logits=True,
    )
    for prompt in prompts:
        scheduler.submit(prompt)
    return {output.request_id: output for output in scheduler.run()}


def _assert_outputs_identical(actual, expected):
    assert set(actual) == set(expected)
    for request_id, output in expected.items():
        np.testing.assert_array_equal(actual[request_id].generated, output.generated)
        np.testing.assert_array_equal(actual[request_id].step_logits, output.step_logits)
        assert actual[request_id].finish_reason == output.finish_reason


class TestPartitionBounds:
    def test_even_split(self):
        assert partition_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_leading_parts(self):
        assert partition_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_slices_reassemble_exactly(self):
        data = np.arange(23)
        parts = [data[a:b] for a, b in partition_bounds(23, 5)]
        np.testing.assert_array_equal(np.concatenate(parts), data)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match=r"num_parts must be an integer >= 1, got 0"):
            partition_bounds(8, 0)

    @pytest.mark.parametrize(
        "total, num_parts, match",
        [
            (-4, 2, r"total must be an integer >= 0, got -4"),  # returned [(0, -2), (-2, -4)]
            (3.5, 2, r"total must be an integer >= 0, got 3\.5"),  # returned float bounds
            (10, 2.5, r"num_parts must be an integer >= 1, got 2\.5"),  # raised a bare TypeError
        ],
    )
    def test_inputs_are_integers_in_range(self, total, num_parts, match):
        with pytest.raises(ConfigurationError, match=match):
            partition_bounds(total, num_parts)


class TestCollectiveTransport:
    def payload(self, shard_id):
        return np.full((2, 3), float(shard_id))

    def test_fault_free_gather_concatenates_in_shard_order(self):
        group = CollectiveGroup(3)
        out = group.all_gather([self.payload(s) for s in range(3)], axis=-1)
        np.testing.assert_array_equal(
            out, np.concatenate([self.payload(s) for s in range(3)], axis=-1)
        )
        assert group.stats.collectives == 1
        assert group.stats.messages == 3
        assert group.stats.bytes_moved > 0

    def test_scripted_corruption_is_caught_and_retried(self):
        injector = CollectiveFaultInjector(corrupt_at={0: 1})
        group = CollectiveGroup(2, fault_injector=injector)
        out = group.all_gather([self.payload(0), self.payload(1)])
        np.testing.assert_array_equal(
            out, np.concatenate([self.payload(0), self.payload(1)], axis=-1)
        )
        assert group.stats.corruption_caught == 1
        assert group.stats.retries == 1

    def test_scripted_drop_times_out_then_retries(self):
        injector = CollectiveFaultInjector(drop_at={0: 0})
        group = CollectiveGroup(2, fault_injector=injector)
        out = group.all_gather([self.payload(0), self.payload(1)])
        np.testing.assert_array_equal(out[:, :3], self.payload(0))
        assert group.stats.timeouts == 1
        assert group.stats.retries == 1

    def test_straggler_policy_hedges_or_waits(self):
        for hedge in (True, False):
            injector = CollectiveFaultInjector(delay_at={0: 0})
            group = CollectiveGroup(2, fault_injector=injector, hedge=hedge)
            group.all_gather([self.payload(0), self.payload(1)])
            assert group.stats.stragglers == 1
            assert group.stats.hedges == (1 if hedge else 0)

    def test_duplicates_are_deduplicated(self):
        injector = CollectiveFaultInjector(duplicate_at={0: 1})
        group = CollectiveGroup(2, fault_injector=injector)
        out = group.all_gather([self.payload(0), self.payload(1)])
        assert out.shape == (2, 6)
        assert group.stats.duplicates_ignored == 1

    def test_retry_budget_exhaustion_raises(self):
        injector = CollectiveFaultInjector(drop_rate=1.0)
        group = CollectiveGroup(2, fault_injector=injector, max_retries=2)
        with pytest.raises(CollectiveTransportError, match="exceeded 2 retries"):
            group.all_gather([self.payload(0), self.payload(1)])

    def test_kill_trips_the_group_unhealthy(self):
        injector = CollectiveFaultInjector(kill_at={1: 0})
        group = CollectiveGroup(2, fault_injector=injector)
        group.all_gather([self.payload(0), self.payload(1)])
        with pytest.raises(ShardFailureError, match="died during collective"):
            group.all_gather([self.payload(0), self.payload(1)])
        assert not group.healthy
        # Once unhealthy, every further collective refuses outright.
        with pytest.raises(ShardFailureError, match="dead shards"):
            group.all_gather([self.payload(0), self.payload(1)])

    def test_all_reduce_sums_deterministically(self):
        group = CollectiveGroup(3)
        out = group.all_reduce([self.payload(s) for s in range(3)])
        np.testing.assert_array_equal(out, np.full((2, 3), 3.0))

    def test_payload_count_mismatch_raises(self):
        group = CollectiveGroup(3)
        with pytest.raises(ConfigurationError, match="expects 3 payloads"):
            group.all_gather([self.payload(0)])

    @pytest.mark.parametrize("collective", ["all_gather", "all_reduce"])
    def test_a_malformed_collective_is_refused_before_it_is_charged(self, collective):
        """Payloads that do not concatenate (or add up) are a typed error naming
        their shapes, and consume no sequence number, counter, dedup state or
        fault draw: the next collective is the one a fresh twin group runs."""

        def group():
            return CollectiveGroup(2, fault_injector=CollectiveFaultInjector(seed=3, drop_rate=0.3, corrupt_rate=0.3))

        refused, twin = group(), group()
        with pytest.raises(ConfigurationError, match=rf"cannot {collective} payloads of shapes \[\(2, 3\), \(3, 3\)\]"):
            getattr(refused, collective)([np.zeros((2, 3)), np.zeros((3, 3))])
        assert refused._seq == 0 and refused._accepted == [-1, -1]
        assert refused.stats == CollectiveStats() and refused.fault_injector._cursor == 0
        payloads = [self.payload(0), self.payload(1)]
        for _ in range(5):
            np.testing.assert_array_equal(getattr(refused, collective)(payloads), getattr(twin, collective)(payloads))
        assert refused.stats == twin.stats and refused.fault_injector.events == twin.fault_injector.events

    @pytest.mark.parametrize(
        "arguments, options, match",
        [
            ((2.5,), {}, r"num_shards must be an integer >= 1, got 2\.5"),  # TypeError from [-1] * 2.5
            ((2,), dict(max_retries=1.5), r"max_retries must be an integer >= 0, got 1\.5"),  # range() on a drop
        ],
        ids=["num_shards", "max_retries"],
    )
    def test_integer_options_are_checked_where_they_are_set(self, arguments, options, match):
        with pytest.raises(ConfigurationError, match=match):
            CollectiveGroup(*arguments, **options)
        group = CollectiveGroup(np.int64(2), max_retries=np.int64(1))
        assert type(group.num_shards) is type(group.max_retries) is int
        assert CollectiveGroup(True, max_retries=False).num_shards == 1

    def test_injector_schedule_is_seed_deterministic(self):
        def schedule(seed):
            injector = CollectiveFaultInjector(
                seed, drop_rate=0.2, corrupt_rate=0.2, delay_rate=0.2, duplicate_rate=0.2
            )
            return [injector.draw(seq, shard, 0) for seq in range(30) for shard in range(2)]

        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)

    def test_scripted_faults_fire_only_on_first_attempt(self):
        injector = CollectiveFaultInjector(drop_at={0: 0})
        assert injector.draw(0, 0, attempt=0) == "drop"
        assert injector.draw(0, 0, attempt=1) is None

    def test_max_kills_bounds_the_chaos(self):
        injector = CollectiveFaultInjector(kill_rate=1.0, max_kills=1)
        assert injector.draw(0, 0, 0) == "kill"
        assert injector.draw(1, 0, 0) is None

    def test_a_duplicate_is_discarded_by_the_sequence_comparison(self):
        """The receiver keeps the highest sequence number per shard; a copy
        that does not exceed it — the second of a pair, or a stale resend —
        is counted and dropped, and nothing else is."""
        group = CollectiveGroup(2)
        assert group._accept(0, 1) and not group._accept(0, 1)
        assert group._accept(3, 1) and not group._accept(2, 1)
        assert group._accept(0, 0), "shards are told apart"
        assert group.stats.duplicates_ignored == 2
        # The scripted fault goes through the same comparison: pretend shard
        # 1's message #0 already arrived and both copies of it are dropped.
        group = CollectiveGroup(2, fault_injector=CollectiveFaultInjector(duplicate_at={0: 1}))
        group._accepted[1] = 0
        group.all_gather([self.payload(0), self.payload(1)])
        assert group.stats.duplicates_ignored == 2

    def test_group_state_does_not_grow_with_traffic(self):
        """Dedup state is one integer per shard, not one entry per message."""

        def footprint(group):
            return sum(len(value) for value in vars(group).values() if hasattr(value, "__len__"))

        group = CollectiveGroup(2, fault_injector=CollectiveFaultInjector(seed=1, duplicate_rate=0.01))
        payloads = [self.payload(0), self.payload(1)]
        group.all_gather(payloads)
        before = footprint(group)
        for _ in range(10_000):
            group.all_gather(payloads)
        assert group.stats.duplicates_ignored > 0
        assert footprint(group) == before

    def test_strided_payloads_are_checksummed_and_gathered(self):
        """A column slice is not one run of bytes; it still crosses the wire whole."""
        wide = np.arange(24.0).reshape(4, 6)
        injector = CollectiveFaultInjector(corrupt_at={0: 0})
        group = CollectiveGroup(2, fault_injector=injector)
        out = group.all_gather([wide[:, 1:3], wide[:, 3:6]])
        np.testing.assert_array_equal(out, wide[:, 1:6])
        assert group.stats.corruption_caught == 1
        assert group.stats.bytes_moved == wide[:, 1:6].nbytes

    @pytest.mark.parametrize(
        "build, options, match",
        [
            (CollectiveFaultInjector, dict(drop_rate=1.5), "drop_rate"),
            (CollectiveFaultInjector, dict(corrupt_rate=-0.1), "corrupt_rate"),
            (CollectiveFaultInjector, dict(delay_rate=math.nan), "delay_rate"),
            (CollectiveFaultInjector, dict(duplicate_rate=math.inf), "duplicate_rate"),
            (CollectiveFaultInjector, dict(kill_rate=2), "kill_rate"),
            (CollectiveFaultInjector, dict(max_kills=-1), "max_kills"),
            (CollectiveGroup, dict(fault_injector=CollectiveFaultInjector(drop_at={4: 2})), "shard 2"),
            (CollectiveGroup, dict(fault_injector=CollectiveFaultInjector(kill_at={0: -1})), "shard -1"),
            (CollectiveGroup, dict(bandwidth_gb_s=0.0), "bandwidth_gb_s"),
            (CollectiveGroup, dict(bandwidth_gb_s=math.inf), "bandwidth_gb_s"),
            (CollectiveGroup, dict(latency_ms=-0.01), "latency_ms"),
            (CollectiveGroup, dict(timeout_ms=math.nan), "timeout_ms"),
            (CollectiveGroup, dict(backoff_ms=-1.0), "backoff_ms"),
            (CollectiveGroup, dict(straggler_ms=math.inf), "straggler_ms"),
            (CollectiveGroup, dict(delay_ms=-0.5), "delay_ms"),
            (CollectiveGroup, dict(max_retries=-1), "max_retries"),
        ],
    )
    def test_configuration_is_validated(self, build, options, match):
        arguments = (2,) if build is CollectiveGroup else ()
        with pytest.raises(ConfigurationError, match=match):
            build(*arguments, **options)
        # The boundaries themselves are legal.
        CollectiveFaultInjector(drop_rate=0.0, kill_rate=1.0, max_kills=0)
        CollectiveGroup(2, latency_ms=0.0, timeout_ms=0.0, backoff_ms=0.0, straggler_ms=0.0, delay_ms=0.0)


class ReferenceInjector:
    """``CollectiveFaultInjector.draw`` as it stood before it read its uniforms
    in blocks, verbatim: one ``rng.random(5)`` per attempt, five scripted-map
    lookups, kills counted by re-scanning the log."""

    def __init__(self, seed, rates, max_kills, scripts):
        self.rng = np.random.default_rng(seed)
        self.kill_rate, self.drop_rate, self.corrupt_rate, self.delay_rate, self.duplicate_rate = rates
        self.max_kills = max_kills
        self.kill_at, self.drop_at, self.corrupt_at, self.delay_at, self.duplicate_at = scripts
        self.events = []

    def _kills_fired(self):
        return sum(1 for event in self.events if event.kind == "kill")

    def draw(self, seq, shard_id, attempt):
        kind = None
        if attempt == 0:
            if self.kill_at.get(seq) == shard_id and self._kills_fired() < self.max_kills:
                kind = "kill"
            elif self.drop_at.get(seq) == shard_id:
                kind = "drop"
            elif self.corrupt_at.get(seq) == shard_id:
                kind = "corrupt"
            elif self.delay_at.get(seq) == shard_id:
                kind = "delay"
            elif self.duplicate_at.get(seq) == shard_id:
                kind = "duplicate"
        draws = self.rng.random(5)
        if kind is None:
            if draws[0] < self.kill_rate and self._kills_fired() < self.max_kills:
                kind = "kill"
            elif draws[1] < self.drop_rate:
                kind = "drop"
            elif draws[2] < self.corrupt_rate:
                kind = "corrupt"
            elif draws[3] < self.delay_rate:
                kind = "delay"
            elif draws[4] < self.duplicate_rate:
                kind = "duplicate"
        if kind is not None:
            self.events.append(CollectiveFaultEvent(seq, shard_id, kind, attempt))
        return kind


_RATE = st.sampled_from([0.0, 0.0, 0.02, 0.3, 1.0])
_SCRIPT = st.dictionaries(st.integers(0, 12), st.integers(0, 3), max_size=4)


@settings(max_examples=500, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rates=st.tuples(_RATE, _RATE, _RATE, _RATE, _RATE),
    max_kills=st.integers(0, 3),
    scripts=st.tuples(_SCRIPT, _SCRIPT, _SCRIPT, _SCRIPT, _SCRIPT),
    calls=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3), st.integers(0, 2)), max_size=200),
)
def test_block_reading_injector_replays_the_per_attempt_schedule(seed, rates, max_kills, scripts, calls):
    """Same kinds, same event log, for any interleaving of message attempts —
    across the 64-attempt block boundary too."""
    reference = ReferenceInjector(seed, rates, max_kills, scripts)
    kill_rate, drop_rate, corrupt_rate, delay_rate, duplicate_rate = rates
    kill_at, drop_at, corrupt_at, delay_at, duplicate_at = scripts
    injector = CollectiveFaultInjector(
        seed, kill_rate=kill_rate, drop_rate=drop_rate, corrupt_rate=corrupt_rate, delay_rate=delay_rate,
        duplicate_rate=duplicate_rate, max_kills=max_kills, kill_at=kill_at, drop_at=drop_at,
        corrupt_at=corrupt_at, delay_at=delay_at, duplicate_at=duplicate_at,
    )  # fmt: skip
    assert [injector.draw(*call) for call in calls] == [reference.draw(*call) for call in calls]
    assert injector.events == reference.events


@pytest.mark.parametrize("num_shards", [2, 3, 4])
@pytest.mark.parametrize("name", ["tender-implicit", "tender-explicit", "tender-all", "fp", "int8-row"])
class TestShardedParity:
    """The acceptance gate: sharded output must be bit-identical to solo.

    For every executor, FP, Tender "all" and a baseline included, with no
    tolerance: the group projects each site and attends over all heads
    through the solo runner's own executor, and only the transport is per
    shard.
    """

    def test_serving_parity(self, num_shards, name, four_head_runners, shard_prompts):
        solo = four_head_runners[name]
        expected = _serve(solo, shard_prompts)
        sharded = ShardedRunner(solo, num_shards)
        actual = _serve(sharded, shard_prompts)
        _assert_outputs_identical(actual, expected)
        assert sharded.group.stats.collectives > 0

    def test_serving_parity_under_chaos(self, num_shards, name, four_head_runners, shard_prompts):
        """Drop/corrupt/delay/duplicate faults must not perturb one bit."""
        solo = four_head_runners[name]
        expected = _serve(solo, shard_prompts)
        injector = CollectiveFaultInjector(
            seed=2,
            drop_rate=0.01,
            corrupt_rate=0.01,
            delay_rate=0.01,
            duplicate_rate=0.01,
            kill_rate=0.0,
        )
        group = CollectiveGroup(num_shards, fault_injector=injector, max_retries=4)
        sharded = ShardedRunner(solo, num_shards, group=group)
        actual = _serve(sharded, shard_prompts)
        _assert_outputs_identical(actual, expected)
        # The chaos actually ran: faults fired and were ridden out.
        assert group.stats.retries > 0
        assert group.stats.corruption_caught > 0
        assert group.stats.duplicates_ignored > 0
        assert group.stats.stragglers > 0

    @pytest.mark.parametrize("attention", ["fused", "gather"])
    def test_flat_verify_parity(
        self, num_shards, name, attention, four_head_runners, shard_prompts, paged_view, monkeypatch
    ):
        """A ragged verify (3, 0 and 12 drafts, flat rows) shards bit-identically,
        and equals the solo runner verifying each sequence alone — through the
        fused kernel and through ``dense_cached_attention`` over gathered copies."""
        solo = four_head_runners[name]
        monkeypatch.setattr(solo, "fused_paged_attention", attention == "fused")
        prompts = shard_prompts[:3]
        drafts = [np.array([7, 11, 13]), np.array([], dtype=int), np.arange(20, 32)]

        def verify(runner, group):
            prompt_lengths = np.array([len(prompts[i]) for i in group])
            cache = paged_view(
                solo.config, block_size=8, capacities=[len(prompts[i]) + len(drafts[i]) + 1 for i in group]
            )
            tokens = np.zeros((len(group), prompt_lengths.max()), dtype=np.int64)
            for row, i in enumerate(group):
                tokens[row, : prompt_lengths[row]] = prompts[i]
            pending = runner.prefill(tokens, prompt_lengths, cache).argmax(axis=-1)
            runs = [np.concatenate([[pending[row]], drafts[i]]) for row, i in enumerate(group)]
            return runner.verify(
                np.concatenate(runs), cache, prompt_lengths, lengths=[len(run) for run in runs]
            )

        sharded = verify(ShardedRunner(solo, num_shards), [0, 1, 2])
        together = verify(solo, [0, 1, 2])
        alone = np.concatenate([verify(solo, [i]) for i in range(3)])
        np.testing.assert_array_equal(sharded, together)
        if not name.startswith("tender"):  # BLAS blocking of attention over a different batch
            np.testing.assert_allclose(together, alone, rtol=0.0, atol=1e-12)
        else:
            np.testing.assert_array_equal(together, alone)

    def test_full_forward_logits_parity(self, num_shards, name, four_head_runners):
        """The uncached ``logits()`` path shards bit-identically too."""
        solo = four_head_runners[name]
        tokens = np.arange(24).reshape(2, 12) % 60
        sharded = ShardedRunner(solo, num_shards)
        np.testing.assert_array_equal(sharded.logits(tokens), solo.logits(tokens))


class TestGroupAttention:
    """One attention call per layer serves the shard group, on the fused kernel and the dense branch alike."""

    @pytest.mark.parametrize("chaos", [False, True])
    @pytest.mark.parametrize("name", ["tender-implicit", "tender-explicit"])
    def test_uneven_head_ranges(self, name, chaos, four_head_runners, shard_prompts):
        """Three shards own 2 / 1 / 1 heads, so the context cuts back into
        unequal column slices.  Through ``prefill``, ``decode_step`` and a
        ragged ``verify``, the context layer 0's attention hands its output
        projection is the solo runner's bit for bit — no bit of a head's
        attention depends on who owns it — and so is every token, dropped
        and corrupted messages included.  So are the logits: the 11 / 11 /
        10-column weight slices of a 3-way split all add the ``bias @ W``
        compensation the solo executor derived at full width."""
        solo = four_head_runners[name]
        injector = CollectiveFaultInjector(seed=2, drop_rate=0.01, corrupt_rate=0.01)
        group = CollectiveGroup(3, fault_injector=injector if chaos else None, max_retries=4)
        sharded = ShardedRunner(solo, 3, group=group)
        assert sharded.head_bounds == [(0, 2), (2, 3), (3, 4)]

        def ragged_verify(runner):
            pool = PagedKVCache.for_model(solo.config, max_active=3, block_size=8)
            view = pool.view([pool.reserve(16) for _ in range(3)])
            starts = np.array([6, 4, 5])
            pending = runner.prefill(np.arange(18).reshape(3, 6), starts, view).argmax(axis=-1)
            drafts = [[7, 11, 13], [], list(range(20, 28))]
            runs = [[token, *draft] for token, draft in zip(pending, drafts)]
            logits = runner.verify(np.concatenate(runs), view, starts, lengths=[len(run) for run in runs])
            return [(logits.argmax(axis=-1), logits)]

        def serve(runner):
            outputs = _serve(runner, shard_prompts)
            return [(outputs[i].generated, outputs[i].step_logits) for i in sorted(outputs)]

        def watched(runner, drive):
            """``drive(runner)``, and every context layer 0's attention produced meanwhile."""
            contexts, project = [], runner._project
            runner._project = lambda site, x, *rest: (
                contexts.append(x) if site == "block0.attn.out_proj" else None,
                project(site, x, *rest),
            )[1]
            try:
                return drive(runner), contexts
            finally:
                del runner._project

        for drive in (serve, ragged_verify):
            expected, solo_contexts = watched(solo, drive)
            actual, contexts = watched(sharded, drive)
            assert len(contexts) == len(solo_contexts) > 0
            for ours, theirs in zip(contexts, solo_contexts):
                np.testing.assert_array_equal(ours, theirs)
            for (tokens, logits), (solo_tokens, solo_logits) in zip(actual, expected):
                np.testing.assert_array_equal(tokens, solo_tokens)
                np.testing.assert_array_equal(logits, solo_logits)
        assert (group.stats.retries > 0) == chaos

    def test_compensation_is_the_full_width_one_whoever_derives_it_first(self, shard_prompts):
        """A group whose solo runner has never run derives ``bias @ W`` at
        full width itself — the compensation the solo runner then reuses."""
        expected = _serve(tiny_runner("tender-implicit", num_heads=4), shard_prompts)
        cold = tiny_runner("tender-implicit", num_heads=4)
        _assert_outputs_identical(_serve(ShardedRunner(cold, 3), shard_prompts), expected)
        _assert_outputs_identical(_serve(cold, shard_prompts), expected)


TWO_ROWS = np.arange(8).reshape(2, 4)


class TestMalformedBatches:
    """The forward entry points refuse a malformed batch before any layer runs."""

    @pytest.fixture(params=[0, 2], ids=["solo", "2 shards"])
    def runner(self, request, four_head_runners):
        solo = four_head_runners["tender-implicit"]
        return ShardedRunner(solo, request.param) if request.param else solo

    @pytest.fixture
    def primed(self, runner):
        """A 2-slot view holding two prompts, and a snapshot of everything a refusal must leave alone."""
        pool = PagedKVCache.for_model(runner.config, max_active=2, block_size=8)
        view = pool.view([pool.reserve(24), pool.reserve(24)])
        runner.prefill(np.arange(12).reshape(2, 6), np.array([6, 4]), view)

        def state():
            committed = [pool.length_of(slot) for slot in view.slot_ids]
            arrays = [*pool.key_blocks, *pool.value_blocks, view.lengths, committed, pool.table_version]
            return [np.array(array) for array in arrays]

        return view, state

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda r, v: r.decode_step(np.array([1, 2, 3]), v), "3 tokens.* 2 rows"),
            (lambda r, v: r.decode_step(np.array([1]), v), "1 tokens.* 2 rows"),
            (lambda r, v: r.verify(np.array([1, 2, 3]), v, [6, 4, 2], lengths=[1, 1, 1]), "3 sequences.* 2 cache rows"),
            (lambda r, v: r.prefill(np.ones((3, 2), dtype=int), np.array([2, 2, 2]), v), "3 sequences.* 2 cache rows"),
            (lambda r, v: r.prefill(np.ones((1, 2), dtype=int), np.array([2]), v), "1 sequences.* 2 cache rows"),
            (lambda r, v: r.decode_step(np.array([1, 10**6]), v), r"1 \.\. 1000000 outside \[0, 64\)"),
            (lambda r, v: r.decode_step(np.array([64, 1]), v), r"1 \.\. 64 outside \[0, 64\)"),
            (lambda r, v: r.verify(np.array([3, -1, 5]), v, [6, 4], lengths=[2, 1]), r"-1 \.\. 5 outside \[0, 64\)"),
            (lambda r, v: r.verify(np.array([3, 4, 5]), v, [6, 4], lengths=[2, 1], logit_rows=[-1, 1]),
             r"logit_rows \[-1, 1\] must be .* lengths \[2, 1\]"),
            (lambda r, v: r.verify(np.array([3, 4, 5]), v, [6, 4], lengths=[2, 1], logit_rows=[2, 2]),
             r"logit_rows \[2, 2\] must be .* lengths \[2, 1\]"),
            (lambda r, v: r.verify(np.array([3, 4, 5]), v, [6, 4], lengths=[2, 1], logit_rows=[1]),
             r"logit_rows \[1\] must be .* lengths \[2, 1\]"),
            (lambda r, v: r.verify(np.array([3, 4, 5]), v, [6, 4], lengths=[2, 1], logit_rows=[1.0, 1.0]),
             r"logit_rows \[1\.0, 1\.0\] must be one integer .* lengths \[2, 1\]"),
            # int64 conversion used to truncate these without a word: 2 and 3 tokens served, ids 1 and 2 decoded.
            (lambda r, v: r.prefill(TWO_ROWS, np.array([2.7, 3.2]), v, [6, 4]), r"lengths must be one integer per sequence, got float64 \(2,\)"),
            (lambda r, v: r.prefill(TWO_ROWS, [2, 3], v, np.array([6.5, 4.5])), r"start_positions must be one integer per sequence, got float64 \(2,\)"),
            (lambda r, v: r.prefill(TWO_ROWS + 0.6, [2, 3], v, [6, 4]), "tokens must hold integers, got dtype float64"),
            (lambda r, v: r.decode_step(np.array([1.7, 2.2]), v), "tokens must hold integers, got dtype float64"),
            (lambda r, v: r.verify(np.array([3.0, 4.0, 5.0]), v, [6, 4], lengths=[2, 1]), "tokens must hold integers, got dtype float64"),
            (lambda r, v: r.verify(np.array([3, 4, 5]), v, [6, 4], lengths=[2.0, 1.0]), r"lengths must be one integer per sequence, got float64 \(2,\)"),
            (lambda r, v: r.verify(np.array([3, 4, 5]), v, [6.0, 4.0], lengths=[2, 1]), r"start_positions must be one integer per sequence, got float64 \(2,\)"),
            (lambda r, v: r.decode_step(np.array([True, False]), v), "tokens must hold integers, got dtype bool"),
            # These used to surface as raw NumPy errors (unpack ValueError, IndexError, broadcast ValueError).
            (lambda r, v: r.prefill(np.arange(4), [2, 2], v, [6, 4]), r"tokens must be \(batch, max_prompt_len\), got shape \(4,\)"),
            (lambda r, v: r.prefill(TWO_ROWS, [2], v, [6, 4]), r"lengths must be one integer per sequence, got int64 \(1,\)"),
            (lambda r, v: r.prefill(TWO_ROWS, [2, 3, 3], v, [6, 4]), r"lengths must be one integer per sequence, got int64 \(3,\)"),
            (lambda r, v: r.prefill(TWO_ROWS, [[2, 3]], v, [6, 4]), r"lengths must be one integer per sequence, got int64 \(1, 2\)"),
        ],
        ids=["decode +1 token", "decode -1 token", "verify +1 sequence", "prefill +1 sequence",
             "prefill -1 sequence", "token id 10**6", "token id == vocab", "negative token id",
             "logit_rows < 0", "logit_rows > length", "logit_rows -1 sequence", "logit_rows float",
             "prefill float lengths", "prefill float starts", "prefill float tokens", "decode float tokens",
             "verify float tokens", "verify float lengths", "verify float starts", "decode bool tokens",
             "prefill 1-D tokens", "prefill -1 length", "prefill +1 length", "prefill 2-D lengths"],
    )  # fmt: skip
    def test_typed_refusal_leaves_the_cache_untouched(self, runner, primed, call, match):
        view, state = primed
        before = state()
        with pytest.raises(ConfigurationError, match=match):
            call(runner, view)
        for kept, now in zip(before, state()):
            np.testing.assert_array_equal(kept, now)
        # Still serviceable: the same view takes a well-formed step.
        assert runner.decode_step(np.array([1, 2]), view).shape == (2, runner.config.vocab_size)
        assert view.lengths.tolist() == [7, 5]

    def test_logit_rows_select_trailing_rows(self, runner, primed):
        """``logit_rows`` returns each sequence's trailing rows, bit for bit the
        full verify's; every row still runs and writes its KV.  Nothing asked
        for: an empty ``(0, vocab)`` array, and no LM-head projection at all."""
        view, _ = primed
        tokens, lengths = np.array([3, 4, 5, 6, 7]), [3, 2]
        full = runner.verify(tokens, view, [6, 4], lengths=lengths)
        sites, project = [], runner._project
        runner._project = lambda site, *rest: (sites.append(site), project(site, *rest))[1]
        try:
            for wanted in ([1, 1], [0, 2], [3, 0], [0, 0]):
                del sites[:]
                view.lengths[:] = [6, 4]
                logits = runner.verify(tokens, view, [6, 4], lengths=lengths, logit_rows=wanted)
                expected = np.concatenate([full[3 - wanted[0] : 3], full[5 - wanted[1] : 5]])
                assert logits.shape == (sum(wanted), runner.config.vocab_size)
                np.testing.assert_array_equal(logits, expected)
                assert view.lengths.tolist() == [9, 6]
                assert ("lm_head" in sites) == bool(sum(wanted))
        finally:
            del runner._project


class TestShardedRunnerConstruction:
    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("name", ["tender-implicit", "tender-explicit", "tender-all"])
    def test_one_plan_serves_every_shard(self, num_shards, name, four_head_runners, shard_prompts):
        """The group's one executor — the solo runner's — projects every site
        once per forward, at full width, off the forward's one plan, and runs
        every attention product over all heads: its whole ``stats`` advance by
        exactly the solo delta (Tender "all"'s ``attention_matmuls``
        included), and the per-shard ``executors`` kept for the benchmark's
        probe are never called."""
        solo = four_head_runners[name]

        def delta(runner):
            before = dict(runner.executor.stats)
            outputs = _serve(runner, shard_prompts)
            return outputs, {key: runner.executor.stats[key] - before[key] for key in before}

        expected, solo_counts = delta(solo)
        sharded = ShardedRunner(solo, num_shards)
        assert sharded.executor is solo.executor
        actual, sharded_counts = delta(sharded)
        _assert_outputs_identical(actual, expected)
        assert sharded_counts == solo_counts
        stacks = sharded.executor._stacked_cache
        assert len(stacks) == solo.config.num_layers
        assert all((stack.packed is not None) == (name != "tender-explicit") for stack in stacks.values())
        assert all(e.stats["projections"] == e.stats["attention_matmuls"] == 0 for e in sharded.executors)

    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("name", ["tender-implicit", "tender-explicit"])
    def test_the_group_quantizes_each_site_once(
        self, num_shards, name, four_head_runners, shard_prompts, monkeypatch
    ):
        """A forward quantizes each site's activation once, not once per
        shard, and always on the group's one executor."""
        solo = four_head_runners[name]
        quantized = []
        quantize_rows = TenderExecutor._quantize_rows
        monkeypatch.setattr(
            TenderExecutor,
            "_quantize_rows",
            lambda self, *args: (quantized.append(self), quantize_rows(self, *args))[1],
        )

        def counted(runner):
            del quantized[:]
            outputs = _serve(runner, shard_prompts)
            return outputs, len(quantized)

        expected, solo_count = counted(solo)
        sharded = ShardedRunner(solo, num_shards)
        actual, sharded_count = counted(sharded)
        _assert_outputs_identical(actual, expected)
        assert sharded_count == solo_count
        assert all(executor is sharded.executor for executor in quantized)

    #: ``CollectiveStats`` of ``_serve(ShardedRunner(tender-implicit, N), shard_prompts)``
    #: recorded before the exchange became one pass (3 shards: before attention
    #: became one call for the group): fault-free, and under the chaos injector
    #: of ``test_serving_parity_under_chaos``.  ``bytes_moved`` (and the link
    #: time it prices) fell when unread prefill rows stopped at the last
    #: block's KV write — by exactly ``unread_row_bytes`` below; the trace is
    #: unchunked, so every collective still happens and every fault draw is
    #: the one it was.
    RECORDED_STATS = {
        (2, False): dict(collectives=299, messages=598, bytes_moved=297984, retries=0, timeouts=0,
                         corruption_caught=0, duplicates_ignored=0, stragglers=0, hedges=0,
                         simulated_ms=29.902979839999944),
        (2, True): dict(collectives=299, messages=598, bytes_moved=297984, retries=15, timeouts=8,
                        corruption_caught=7, duplicates_ignored=3, stragglers=4, hedges=4,
                        simulated_ms=37.10301696000017),
        (3, False): dict(collectives=299, messages=897, bytes_moved=595968, retries=0, timeouts=0,
                         corruption_caught=0, duplicates_ignored=0, stragglers=0, hedges=0,
                         simulated_ms=44.85297983999969),
        (3, True): dict(collectives=299, messages=897, bytes_moved=595968, retries=22, timeouts=13,
                        corruption_caught=9, duplicates_ignored=11, stragglers=6, hedges=6,
                        simulated_ms=56.3530308799998),
        (4, False): dict(collectives=299, messages=1196, bytes_moved=893952, retries=0, timeouts=0,
                         corruption_caught=0, duplicates_ignored=0, stragglers=0, hedges=0,
                         simulated_ms=59.80297983999923),
        (4, True): dict(collectives=299, messages=1196, bytes_moved=893952, retries=34, timeouts=18,
                        corruption_caught=16, duplicates_ignored=12, stragglers=12, hedges=12,
                        simulated_ms=77.30303808000001),
    }  # fmt: skip
    #: ``bytes_moved`` while every prompt row crossed the links in all six gathers of the last block.
    BYTES_WITH_EVERY_ROW = {2: 354304, 3: 708608, 4: 1062912}

    @pytest.mark.parametrize("num_shards", sorted(BYTES_WITH_EVERY_ROW))
    def test_unread_rows_cross_no_link_after_the_last_kv_write(self, num_shards, four_head_runners, shard_prompts):
        """The drop in ``bytes_moved``, derived: every prompt row but each
        sequence's last (52 - 8 = 44) skips the last block's context, out_proj,
        fc1 and fc2 gathers — 32 + 32 + 64 + 32 float64 columns, sent to each
        of the other shards: 44 x 160 x 8 = 56 320 bytes per peer."""
        config = four_head_runners["tender-implicit"].config
        unread = sum(len(prompt) for prompt in shard_prompts) - len(shard_prompts)
        unread_row_bytes = unread * (3 * config.d_model + config.d_ff) * 8 * (num_shards - 1)
        assert unread_row_bytes == 56_320 * (num_shards - 1)
        for chaos in (False, True):
            recorded = self.RECORDED_STATS[num_shards, chaos]["bytes_moved"]
            assert recorded == self.BYTES_WITH_EVERY_ROW[num_shards] - unread_row_bytes

    @pytest.mark.parametrize("attention", ["fused", "gather"])
    def test_collectives_per_prefill_chunk(self, attention, four_head_runners):
        """Six gathers a block (K, V, context, out_proj, fc1, fc2) and the LM
        head's; a chunk nobody samples from ends after the last block's K and
        V gathers — four collectives fewer, and no LM head.  The gather
        reference carries every row through every one."""
        solo = four_head_runners["tender-implicit"]
        sharded = ShardedRunner(solo, 2)
        sharded.fused_paged_attention = attention == "fused"
        layers = solo.config.num_layers
        pool = PagedKVCache.for_model(solo.config, max_active=1, block_size=8)
        view = pool.view([pool.reserve(32)])

        def collectives(begin, final):
            before = sharded.group.stats.collectives
            sharded.prefill(np.arange(16)[None, :], [16], view, start_positions=[begin], return_logits=final)
            return sharded.group.stats.collectives - before

        assert collectives(0, final=False) == 6 * layers - (4 if attention == "fused" else 0)
        assert collectives(16, final=True) == 6 * layers + 1

    @pytest.mark.parametrize("key", sorted(RECORDED_STATS))
    def test_transport_accounting_is_unchanged(self, key, four_head_runners, shard_prompts):
        """Every counter, and the simulated link time to the last bit."""
        num_shards, chaos = key
        injector = CollectiveFaultInjector(
            seed=2, drop_rate=0.01, corrupt_rate=0.01, delay_rate=0.01, duplicate_rate=0.01
        )
        group = CollectiveGroup(num_shards, fault_injector=injector if chaos else None, max_retries=4)
        _serve(ShardedRunner(four_head_runners["tender-implicit"], num_shards, group=group), shard_prompts)
        assert dataclasses.asdict(group.stats) == self.RECORDED_STATS[key]

    def test_head_bounds_cover_all_heads(self, four_head_runners):
        sharded = ShardedRunner(four_head_runners["fp"], 4)
        assert sharded.head_bounds == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_healthy_tracks_the_group(self, four_head_runners):
        sharded = ShardedRunner(four_head_runners["fp"], 2)
        assert sharded.healthy
        sharded.group.fail_shard(1)
        assert not sharded.healthy

    def test_validation(self, four_head_runners):
        solo = four_head_runners["fp"]
        with pytest.raises(ConfigurationError, match="num_shards"):
            ShardedRunner(solo, 5)
        with pytest.raises(ConfigurationError, match="num_shards"):
            ShardedRunner(solo, 0)
        with pytest.raises(ConfigurationError, match="spans 3 shards"):
            ShardedRunner(solo, 2, group=CollectiveGroup(3))

    def test_num_shards_is_an_integer(self, four_head_runners):
        """2.0 used to pass the range check and raise a bare ``TypeError`` from ``range()``."""
        solo = four_head_runners["fp"]
        with pytest.raises(ConfigurationError, match=r"num_shards must be an integer >= 1, got 2\.0"):
            ShardedRunner(solo, 2.0)
        sharded = ShardedRunner(solo, np.int64(2))
        assert sharded.num_shards == 2 and len(sharded.head_bounds) == 2


class TestPoolIntegration:
    """A shard group is one replica — one fault unit — of the pool."""

    def pool_outputs(self, runner_or_factory, prompts, **kwargs):
        if callable(runner_or_factory) and not isinstance(runner_or_factory, TransformerRunner):
            solo = kwargs.pop("solo")
            pool = ReplicaPool(solo, runner_factory=runner_or_factory, **kwargs)
        else:
            pool = ReplicaPool(runner_or_factory, **kwargs)
        for prompt in prompts:
            pool.submit(prompt)
        return {output.request_id: output for output in pool.run()}, pool

    def test_shard_kill_recovers_bit_identically(self, four_head_runners, shard_prompts):
        solo = four_head_runners["tender-implicit"]
        kwargs = dict(
            num_replicas=2,
            config=GenerationConfig(max_new_tokens=6),
            max_batch_size=2,
            block_size=8,
        )
        expected, _ = self.pool_outputs(solo, shard_prompts, **kwargs)
        # One injector shared across rebuilds: the scripted kill fires once,
        # the rebuilt group then runs clean (max_kills bounds the chaos).
        injector = CollectiveFaultInjector(seed=0, kill_at={40: 1}, max_kills=1)
        factory = lambda rid: ShardedRunner(  # noqa: E731
            solo, 2, group=CollectiveGroup(2, fault_injector=injector)
        )
        actual, pool = self.pool_outputs(factory, shard_prompts, solo=solo, **kwargs)
        assert pool.cluster_stats.failures >= 1
        assert pool.cluster_stats.recoveries >= 1
        assert any(event.kind == "kill" for event in injector.events)
        _assert_outputs_identical(actual, expected)

    def test_exhausted_transport_retries_degrade_with_cause(
        self, four_head_runners, shard_prompts
    ):
        solo = four_head_runners["fp"]
        injector = CollectiveFaultInjector(seed=0, drop_rate=1.0, max_kills=0)
        factory = lambda rid: ShardedRunner(  # noqa: E731
            solo, 2, group=CollectiveGroup(2, fault_injector=injector, max_retries=1)
        )
        outputs, pool = self.pool_outputs(
            factory,
            shard_prompts[:3],
            solo=solo,
            num_replicas=1,
            config=GenerationConfig(max_new_tokens=4),
            max_retries=0,
            max_batch_size=2,
            block_size=8,
        )
        degraded = [output for output in outputs.values() if output.finish_reason == "degraded"]
        assert degraded
        for output in degraded:
            assert output.failure_cause == "retry_budget_exhausted"
        assert pool.cluster_stats.degraded_causes.get("retry_budget_exhausted", 0) >= 1
