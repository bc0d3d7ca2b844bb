"""The two drivers: a step-clock open loop and an asyncio closed loop.

Both use the serving surface only — ``submit`` / ``step`` / ``has_pending`` /
``on_token`` for step-driven engines, ``AsyncEngine.submit`` and the
``RequestStream`` iterator for the asyncio one — and record raw
``perf_counter`` stamps; :mod:`bench.metrics` maps them to calibrated time
afterwards, so nothing but a clock read and a list store happens inline.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional

from bench.workloads import Trace

#: Wall-clock guard of the closed loop (a hung stream must fail, not hang).
ASYNC_TIMEOUT_S = 150.0


class Recorder:
    """Raw observations of one repeat, indexed by the trace's request number."""

    def __init__(self, count: int, counters) -> None:
        self.counters = counters
        nan = float("nan")
        self.submit_t = [nan] * count
        #: When the engine accepted the submission (differs from ``submit_t``
        #: only under AsyncEngine backpressure).
        self.accepted_t = [nan] * count
        self.first_t = [nan] * count
        self.last_t = [nan] * count
        self.finish_t = [nan] * count
        self.submit_step = [0] * count
        self.first_step = [0] * count
        #: Tokens as streamed (``on_token`` / ``async for``), per request.
        self.streamed: List[List[int]] = [[] for _ in range(count)]
        #: Terminal ``RequestOutput`` per request (``None`` = never finished).
        self.outputs: List[Optional[object]] = [None] * count
        self.index_of: Dict[int, int] = {}
        self.start = nan
        self.end = nan
        #: Engine steps the repeat took.
        self.steps = 0

    def token(self, index: int, token: int) -> None:
        now = time.perf_counter()
        streamed = self.streamed[index]
        if not streamed:
            self.first_t[index] = now
            self.first_step[index] = self.counters.steps
        self.last_t[index] = now
        streamed.append(token)

    def on_token(self, request_id: int, token: int) -> None:
        """The engines' ``on_token`` hook."""
        self.token(self.index_of[request_id], token)

    def finished(self, index: int, output, now: float) -> None:
        self.outputs[index] = output
        self.finish_t[index] = now


def run_open_loop(program, trace: Trace, prompts, recorder: Recorder, clock, max_steps=None, after_step=None):
    """Submit request *j* just before step ``arrival_step[j]``; step until drained.

    ``max_steps`` stops early (the profile pass).  A run that is still
    pending long after the last arrival stops too, and whatever never
    finished is counted as failed by the correctness check.
    """
    engine, counters = program.engine, recorder.counters
    arrivals = trace.arrival_step.tolist()
    budgets = trace.max_new.tolist()
    count = len(arrivals)
    limit = max_steps if max_steps is not None else arrivals[-1] + 80 * count + 1000
    sent = step = 0
    clock.sample_edge()
    recorder.start = time.perf_counter()
    while (sent < count or engine.has_pending) and step < limit:
        while sent < count and arrivals[sent] <= step:
            recorder.submit_step[sent] = counters.steps
            recorder.submit_t[sent] = time.perf_counter()
            request_id = engine.submit(prompts[sent], max_new_tokens=budgets[sent])
            recorder.accepted_t[sent] = time.perf_counter()
            recorder.index_of[request_id] = sent
            sent += 1
        finished = engine.step()
        if finished:
            now = time.perf_counter()
            for output in finished:
                recorder.finished(recorder.index_of[output.request_id], output, now)
        step += 1
        if after_step is not None:
            after_step()
    recorder.end = time.perf_counter()
    recorder.steps = counters.steps
    clock.sample_edge()


async def _client(engine, trace: Trace, prompts, recorder: Recorder, indices, max_steps) -> None:
    counters = recorder.counters
    for index in indices:
        if max_steps is not None and counters.steps >= max_steps:
            return
        recorder.submit_step[index] = counters.steps
        recorder.submit_t[index] = time.perf_counter()
        stream = await engine.submit(
            prompts[index],
            priority=int(trace.priority[index]),
            max_new_tokens=int(trace.max_new[index]),
        )
        recorder.accepted_t[index] = time.perf_counter()
        async for token in stream:
            recorder.token(index, token)
            if max_steps is not None and counters.steps >= max_steps:
                return
        recorder.finished(index, await stream.result(), time.perf_counter())
        for _ in range(int(trace.think_turns[index])):
            await asyncio.sleep(0)


async def _closed_loop(program, trace, prompts, recorder, clock, max_steps) -> None:
    engine = program.engine
    clock.sample_edge()
    recorder.start = time.perf_counter()
    clients = [
        asyncio.ensure_future(_client(engine, trace, prompts, recorder, indices, max_steps))
        for indices in trace.clients
    ]
    try:
        await asyncio.wait_for(asyncio.gather(*clients), ASYNC_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass  # unfinished requests are counted as failed by the correctness check
    recorder.end = time.perf_counter()
    recorder.steps = recorder.counters.steps
    await engine.close()
    clock.sample_edge()


def run_closed_loop(program, trace: Trace, prompts, recorder: Recorder, clock, max_steps=None, after_step=None):
    """Every client sends its next request only after consuming the previous reply."""
    if after_step is not None:
        step = program.stepper.step

        def observed_step():
            result = step()
            after_step()
            return result

        program.stepper.step = observed_step
    asyncio.run(_closed_loop(program, trace, prompts, recorder, clock, max_steps))
