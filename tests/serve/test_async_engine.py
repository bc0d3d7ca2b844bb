"""Tests of the asyncio serving frontend: streams, backpressure, preemption.

The anchor is the same as everywhere in ``tests/serve``: whatever the
frontend does — buffer tokens, bound the queue, expire deadlines, preempt a
victim and replay it — each request's tokens must equal running it alone
through ``generate``.  The event loop may only change when
callers *observe* tokens, never which tokens are produced.

No pytest-asyncio in the environment: each test drives its own event loop
through ``asyncio.run``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import TenderConfig, TenderQuantizer
from repro.errors import ConfigurationError, ResourceExhaustedError
from repro.models import TransformerRunner
from repro.serve import (
    AsyncEngine,
    GenerationConfig,
    Request,
    Scheduler,
    generate,
    serve_all,
)


@pytest.fixture()
def runner(tiny_weights):
    return TransformerRunner(tiny_weights)


@pytest.fixture(scope="module")
def prompt_pool(corpus_splits):
    train_tokens, _ = corpus_splits
    return [train_tokens[i * 10 : i * 10 + 4 + (i % 5)] for i in range(12)]


def solo_tokens(runner, prompt, max_new_tokens):
    """Tokens of ``prompt`` served alone — the parity reference."""
    [output] = generate(runner, [prompt], GenerationConfig(max_new_tokens=max_new_tokens))
    return output.generated


class TestStreaming:
    def test_stream_yields_exactly_the_generated_tokens(self, runner, prompt_pool):
        async def main():
            async with AsyncEngine(runner, GenerationConfig(max_new_tokens=6)) as engine:
                stream = await engine.submit(prompt_pool[0])
                streamed = [token async for token in stream]
                output = await stream.result()
            return streamed, output

        streamed, output = asyncio.run(main())
        np.testing.assert_array_equal(np.asarray(streamed), output.generated)
        np.testing.assert_array_equal(
            np.asarray(streamed), solo_tokens(runner, prompt_pool[0], 6)
        )
        assert output.finish_reason == "length"
        assert output.first_token_at >= output.admitted_at >= 0.0

    def test_interleaved_streams_stay_isolated(self, runner, prompt_pool):
        async def main():
            async with AsyncEngine(
                runner, GenerationConfig(max_new_tokens=5), max_batch_size=3
            ) as engine:
                streams = [await engine.submit(p) for p in prompt_pool[:3]]
                collected = await asyncio.gather(
                    *[asyncio.create_task(collect(s)) for s in streams]
                )
            return collected

        async def collect(stream):
            return [token async for token in stream]

        collected = asyncio.run(main())
        for prompt, tokens in zip(prompt_pool[:3], collected):
            np.testing.assert_array_equal(np.asarray(tokens), solo_tokens(runner, prompt, 5))

    def test_late_iteration_drains_the_buffer(self, runner, prompt_pool):
        async def main():
            async with AsyncEngine(runner, GenerationConfig(max_new_tokens=4)) as engine:
                stream = await engine.submit(prompt_pool[1])
                output = await stream.result()  # finish before iterating
                tokens = [token async for token in stream]
                again = [token async for token in stream]  # terminated stays terminated
            return output, tokens, again

        output, tokens, again = asyncio.run(main())
        np.testing.assert_array_equal(np.asarray(tokens), output.generated)
        assert again == []

    def test_serve_all_returns_outputs_in_submission_order(self, runner, prompt_pool):
        async def main():
            async with AsyncEngine(
                runner, GenerationConfig(max_new_tokens=4), max_batch_size=2
            ) as engine:
                return await serve_all(engine, prompt_pool[:4])

        outputs = asyncio.run(main())
        assert [o.request_id for o in outputs] == sorted(o.request_id for o in outputs)
        for prompt, output in zip(prompt_pool[:4], outputs):
            np.testing.assert_array_equal(
                np.asarray(output.generated), solo_tokens(runner, prompt, 4)
            )

    def test_request_objects_are_rejected(self, runner, prompt_pool):
        async def main():
            async with AsyncEngine(runner) as engine:
                with pytest.raises(ConfigurationError, match="arrival times"):
                    await engine.submit(Request(request_id=0, prompt=prompt_pool[0]))

        asyncio.run(main())


    @pytest.mark.parametrize(
        "field, value", [("deadline", float("nan")), ("deadline", float("inf")), ("priority", 0.9), ("max_new_tokens", 2.7)]
    )
    def test_malformed_submissions_are_rejected_at_both_doors(self, runner, prompt_pool, field, value):
        async def main():
            async with AsyncEngine(runner) as engine:
                with pytest.raises(ConfigurationError, match=f"{field} must be"):
                    await engine.submit(prompt_pool[0], **{field: value})
                with pytest.raises(ConfigurationError, match=f"{field} must be"):
                    engine.submit_nowait(prompt_pool[0], **{field: value})
                assert engine.scheduler.num_waiting == 0 and not engine._streams
                stream = await engine.submit(prompt_pool[0])
                assert stream.request_id == 0  # no id was burned
                await stream.result()

        asyncio.run(main())


class TestBackpressure:
    def test_submit_nowait_sheds_load_at_the_bound(self, runner, prompt_pool):
        async def main():
            async with AsyncEngine(
                runner,
                GenerationConfig(max_new_tokens=3),
                max_waiting=2,
                max_batch_size=1,
            ) as engine:
                streams = [engine.submit_nowait(p) for p in prompt_pool[:2]]
                with pytest.raises(ResourceExhaustedError, match="waiting queue is full"):
                    engine.submit_nowait(prompt_pool[2])
                return [await s.result() for s in streams]

        outputs = asyncio.run(main())
        assert all(o.finish_reason == "length" for o in outputs)

    def test_submit_suspends_until_a_seat_frees(self, runner, prompt_pool):
        async def main():
            async with AsyncEngine(
                runner,
                GenerationConfig(max_new_tokens=2),
                max_waiting=2,
                max_batch_size=1,
            ) as engine:
                streams = [await engine.submit(p) for p in prompt_pool[:6]]
                outputs = [await s.result() for s in streams]
            return outputs

        outputs = asyncio.run(main())
        assert len(outputs) == 6
        for prompt, output in zip(prompt_pool[:6], outputs):
            np.testing.assert_array_equal(
                np.asarray(output.generated), solo_tokens(runner, prompt, 2)
            )


class TestDeadlines:
    def test_unadmittable_request_expires(self, runner, prompt_pool):
        async def main():
            async with AsyncEngine(
                runner,
                GenerationConfig(max_new_tokens=10),
                max_batch_size=1,
                preemption=False,
            ) as engine:
                long_running = await engine.submit(prompt_pool[0])
                hopeless = await engine.submit(prompt_pool[1], deadline=2.0)
                expired = await hopeless.result()
                finished = await long_running.result()
            return expired, finished

        expired, finished = asyncio.run(main())
        assert expired.finish_reason == "expired"
        assert len(expired.generated) == 0
        assert expired.admitted_at == -1.0
        assert finished.finish_reason == "length"

    def test_admitted_request_never_expires(self, runner, prompt_pool):
        async def main():
            async with AsyncEngine(
                runner, GenerationConfig(max_new_tokens=8), max_batch_size=2
            ) as engine:
                stream = await engine.submit(prompt_pool[0], deadline=1.0)
                return await stream.result()

        output = asyncio.run(main())
        assert output.finish_reason == "length"
        assert len(output.generated) == 8


def tender_runner(weights, calibration, implicit):
    config = TenderConfig(bits=8, num_groups=8, row_chunk_size=8)
    return TenderQuantizer(config, implicit=implicit).quantize(weights, calibration)


@pytest.fixture(scope="module")
def parity_runners(outlier_weights, calibration):
    return {
        "float": TransformerRunner(outlier_weights),
        "tender-implicit": tender_runner(outlier_weights, calibration, implicit=True),
        "tender-explicit": tender_runner(outlier_weights, calibration, implicit=False),
    }


@pytest.mark.parametrize("name", ["float", "tender-implicit", "tender-explicit"])
class TestPreemptionParity:
    def test_preempted_output_is_bit_identical(self, name, parity_runners, prompt_pool):
        """An urgent arrival evicts a victim; the victim's replayed tokens match."""
        runner = parity_runners[name]

        async def main():
            async with AsyncEngine(
                runner,
                GenerationConfig(max_new_tokens=12),
                max_batch_size=2,
                block_size=4,
            ) as engine:
                low = [await engine.submit(p, priority=5) for p in prompt_pool[:2]]
                # Let the victims decode a few tokens before the urgent burst.
                for stream in low:
                    await anext(aiter(stream))
                urgent = [await engine.submit(p, priority=0) for p in prompt_pool[2:4]]
                outputs = [await s.result() for s in low + urgent]
                stats = engine.stats
            return outputs, stats

        outputs, stats = asyncio.run(main())
        assert stats.preemptions >= 1
        assert sum(o.preemptions for o in outputs) == stats.preemptions
        for prompt, output in zip(prompt_pool[:4], outputs):
            np.testing.assert_array_equal(
                np.asarray(output.generated), solo_tokens(runner, prompt, 12)
            )

    def test_preempted_request_reports_resume_prefix_hits(
        self, name, parity_runners, prompt_pool
    ):
        """Replay after eviction re-maps published prefix blocks instead of recomputing."""
        runner = parity_runners[name]

        async def main():
            async with AsyncEngine(
                runner,
                GenerationConfig(max_new_tokens=12),
                max_batch_size=1,
                block_size=4,
            ) as engine:
                victim = await engine.submit(prompt_pool[0], priority=5)
                await anext(aiter(victim))
                urgent = await engine.submit(prompt_pool[1], priority=0)
                victim_out = await victim.result()
                urgent_out = await urgent.result()
            return victim_out, urgent_out

        victim_out, urgent_out = asyncio.run(main())
        assert victim_out.preemptions >= 1
        assert victim_out.prefix_hit_tokens > 0
        assert urgent_out.preemptions == 0
        np.testing.assert_array_equal(
            np.asarray(victim_out.generated), solo_tokens(runner, prompt_pool[0], 12)
        )


class TestCancellation:
    def test_cancel_mid_stream_releases_every_block(self, runner, prompt_pool):
        async def main():
            engine = AsyncEngine(
                runner, GenerationConfig(max_new_tokens=32), max_batch_size=2, prefix_cache=False
            )
            async with engine:
                total = engine.scheduler.cache.num_blocks
                stream = await engine.submit(prompt_pool[0])
                first = await anext(aiter(stream))
                output = await stream.cancel()
                remaining = [token async for token in stream]
                free_after = engine.scheduler.cache.free_block_count
            return total, first, output, remaining, free_after

        total, first, output, remaining, free_after = asyncio.run(main())
        assert output.finish_reason == "cancelled"
        assert output.generated[0] == first
        np.testing.assert_array_equal(np.asarray([first] + remaining), output.generated)
        assert free_after == total

    def test_cancel_while_waiting_returns_empty_output(self, runner, prompt_pool):
        async def main():
            async with AsyncEngine(
                runner, GenerationConfig(max_new_tokens=16), max_batch_size=1
            ) as engine:
                running = await engine.submit(prompt_pool[0])
                queued = await engine.submit(prompt_pool[1])
                cancelled = await queued.cancel()
                finished = await running.result()
            return cancelled, finished

        cancelled, finished = asyncio.run(main())
        assert cancelled.finish_reason == "cancelled"
        assert len(cancelled.generated) == 0
        assert finished.finish_reason == "length"

    def test_close_resolves_outstanding_streams_as_cancelled(self, runner, prompt_pool):
        async def main():
            engine = AsyncEngine(runner, GenerationConfig(max_new_tokens=64), max_batch_size=1)
            stream = await engine.submit(prompt_pool[0])
            await anext(aiter(stream))
            await engine.close()
            output = await stream.result()
            with pytest.raises(ConfigurationError, match="closed"):
                await engine.submit(prompt_pool[1])
            return output, engine.scheduler.cache.free_block_count, engine.scheduler.cache.num_blocks

        output, free_after, total = asyncio.run(main())
        assert output.finish_reason == "cancelled"
        assert len(output.generated) >= 1
        assert free_after == total


class TestClassStats:
    def test_per_class_ttft_accounting(self, runner, prompt_pool):
        async def main():
            async with AsyncEngine(
                runner, GenerationConfig(max_new_tokens=4), max_batch_size=2
            ) as engine:
                await serve_all(engine, prompt_pool[:4], priorities=[0, 1, 0, 1])
                stats = engine.stats
            return stats

        stats = asyncio.run(main())
        assert set(stats.ttft_by_class) == {0, 1}
        assert len(stats.ttft_values()) == 4
        assert len(stats.ttft_values(priority=0)) == 2
        assert stats.ttft_percentile(0.99) >= stats.ttft_percentile(0.5) > 0.0
        assert stats.mean_ttft() > 0.0
        assert stats.mean_tpot() > 0.0
        assert stats.mean_ttft(priority=0) <= stats.mean_ttft(priority=1)


class TestErrorContainment:
    def test_poisoned_executor_resolves_every_pending_stream(self, runner, prompt_pool):
        """An escaping serve-loop error rejects all streams — nothing hangs."""

        async def main():
            engine = AsyncEngine(
                runner, GenerationConfig(max_new_tokens=16), max_batch_size=2
            )

            def explode():
                raise RuntimeError("executor exploded")

            engine.scheduler.step = explode
            streams = [await engine.submit(p) for p in prompt_pool[:2]]
            for stream in streams:
                with pytest.raises(RuntimeError, match="executor exploded"):
                    await stream.result()
            # Iterators surface the same error in place of StopAsyncIteration.
            with pytest.raises(RuntimeError, match="executor exploded"):
                async for _ in streams[0]:
                    pass
            # The engine is dead: later submissions report why, immediately.
            with pytest.raises(RuntimeError, match="executor exploded"):
                await engine.submit(prompt_pool[2])
            await engine.close()

        asyncio.run(main())


class TestStreamTimeouts:
    def test_result_timeout_leaves_the_request_untouched(self, runner, prompt_pool):
        async def main():
            async with AsyncEngine(
                runner, GenerationConfig(max_new_tokens=48), max_batch_size=1
            ) as engine:
                stream = await engine.submit(prompt_pool[0])
                with pytest.raises(asyncio.TimeoutError):
                    await stream.result(timeout=0.0001)
                assert not stream.finished
                output = await stream.result()
            return output

        output = asyncio.run(main())
        assert output.finish_reason == "length"
        assert len(output.generated) == 48

    def test_per_token_timeout_expires_through_the_deadline_path(
        self, runner, prompt_pool
    ):
        async def main():
            async with AsyncEngine(
                runner, GenerationConfig(max_new_tokens=8), max_batch_size=1
            ) as engine:
                running = await engine.submit(prompt_pool[0], max_new_tokens=96)
                starved = await engine.submit(prompt_pool[1])
                # Far shorter than the 96 decode steps ahead of it in the one
                # slot take on any host (a 20 ms wait raced a faster decode).
                with pytest.raises(asyncio.TimeoutError):
                    await starved.next(timeout=0.0005)
                expired = await starved.result()
                finished = await running.result()
            return expired, finished

        expired, finished = asyncio.run(main())
        assert expired.finish_reason == "expired"
        assert len(expired.generated) == 0
        assert finished.finish_reason == "length"


class TestSchedulerErrorPaths:
    def test_exhaustion_during_resume_replay_defers_without_data_loss(
        self, runner, prompt_pool
    ):
        """A failed block reservation on preemption-resume is retried, not fatal."""
        scheduler = Scheduler(
            runner,
            GenerationConfig(max_new_tokens=10),
            max_batch_size=1,
            block_size=4,
            preemption=True,
        )
        victim = scheduler.submit(prompt_pool[0], priority=5)
        while scheduler.stats.generated_tokens < 2:
            scheduler.step()
        urgent = scheduler.submit(prompt_pool[1], priority=0, max_new_tokens=4)
        scheduler.step()  # the urgent arrival evicts the victim

        from repro.errors import ResourceExhaustedError as Exhausted

        original = scheduler.cache.reserve

        def refuse(*args, **kwargs):
            raise Exhausted("injected: no blocks for the resume replay")

        scheduler.cache.reserve = refuse
        outputs = []
        for _ in range(8):
            outputs.extend(scheduler.step())
        # The urgent request finished; the victim is deferred, not dropped.
        assert {output.request_id for output in outputs} == {urgent}
        assert scheduler.num_waiting == 1
        scheduler.cache.reserve = original
        outputs.extend(scheduler.run())
        victim_out = next(o for o in outputs if o.request_id == victim)
        np.testing.assert_array_equal(
            victim_out.generated, solo_tokens(runner, prompt_pool[0], 10)
        )

    def test_cancel_after_finish_returns_the_same_output(self, runner, prompt_pool):
        async def main():
            async with AsyncEngine(
                runner, GenerationConfig(max_new_tokens=4)
            ) as engine:
                stream = await engine.submit(prompt_pool[0])
                output = await stream.result()
                again = await stream.cancel()
            return output, again

        output, again = asyncio.run(main())
        assert again is output
        assert output.finish_reason == "length"

    def test_double_release_from_the_async_layer_raises(self, runner, prompt_pool):
        """The serve loop already released a finished request's slot — a
        second release must refuse rather than corrupt the block pool."""

        async def main():
            async with AsyncEngine(
                runner, GenerationConfig(max_new_tokens=8)
            ) as engine:
                stream = await engine.submit(prompt_pool[0])
                output = await stream.result()
                with pytest.raises(ConfigurationError, match="not admitted"):
                    engine.scheduler.release_request(stream.request_id)
            return output

        output = asyncio.run(main())
        assert output.finish_reason == "length"
