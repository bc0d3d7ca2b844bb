"""The traced repeat: timing spans around each layer's public entry points.

A :class:`Probe` wraps the listed methods *as instance attributes* of the
objects one repeat serves with, so nothing in ``repro`` is edited and the next
repeat (fresh engine, restored runner) is unprobed again.  Every wrapper
appends one span (name, start, end, parent, and a note: the request id or the
call's shape) to in-memory columns; a stack gives the parent.  The program's own tracer
(``repro.obs.Tracer(WallClock())``, passed through the public ``tracer=``
parameter) runs beside it, and both land in one Chrome trace file.

A probe target that is missing (a refactor moved it) is skipped with a warning
and the metrics that needed it read ``None``; the end-to-end path never
depends on a probe.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

FORWARD_SPANS = ("models.prefill", "models.decode_step", "models.verify")
CACHE_SPANS = (
    "cache.match_prefix", "cache.publish_prefix", "cache.reserve", "cache.free",
    "cache.truncate", "cache.write",
)  # fmt: skip

#: name -> (unit, better, the end-to-end metric and workload it should move).
#: The one table BENCHMARK.json's ``per_layer`` list, the report and the README
#: glossary are built from.  ``ms``/``us`` values are calibrated time.
PER_LAYER = {
    "core.project_calls_per_forward": ("count", "lower", "tokens_per_s, tpot_ms_p50 on decode_steady"),
    "core.project_rows_per_call": ("rows", "higher", "tokens_per_s on spec_extractive, prefix_prefill"),
    "core.project_ms_per_forward": ("ms", "lower", "tokens_per_s, tpot_ms_p50 on decode_steady"),
    "core.project_share": ("ratio", "lower", "tokens_per_s on decode_steady (largest), prefix_prefill (least)"),
    "core.project_macs_per_token": ("count", "lower", "computed from call shapes; tokens_per_s everywhere"),
    "core.attention_matmul_calls": ("count", "lower", "0 under plain attention"),
    "models.prefill_calls": ("count", "lower", "ttft_ms_*, forwards_per_token on prefix_prefill"),
    "models.prefill_rows": ("rows", "lower", "rows_per_token, ttft_ms_* on prefix_prefill"),
    "models.prefill_ms_per_row": ("ms", "lower", "ttft_ms_*, tokens_per_s on prefix_prefill"),
    "models.decode_calls": ("count", "lower", "forwards_per_token on decode_steady"),
    "models.decode_batch_mean": ("rows", "higher", "tokens_per_s on decode_steady"),
    "models.decode_ms_per_call": ("ms", "lower", "tpot_ms_* on decode_steady"),
    "models.verify_calls": ("count", "lower", "forwards_per_token on spec_extractive; 0 elsewhere"),
    "models.verify_rows": ("rows", "lower", "rows_per_token on spec_extractive"),
    "models.verify_ms_per_call": ("ms", "lower", "tpot_ms_p50 on spec_extractive"),
    "models.forward_share": ("ratio", "lower", "tokens_per_s everywhere"),
    "models.self_ms_per_forward": ("ms", "lower", "tpot_ms_* on decode_steady; ttft_ms_* on prefix_prefill"),
    "scheduler.steps": ("count", "lower", "ttft_steps_p95 everywhere"),
    "scheduler.step_ms_p50": ("ms", "lower", "tpot_ms_p50 everywhere"),
    "scheduler.step_ms_p90": ("ms", "lower", "tpot_ms_p90, ttft_ms_p90 everywhere"),
    "scheduler.self_ms_per_step": ("ms", "lower", "tokens_per_s in proportion to scheduler.self_share"),
    "scheduler.self_share": ("ratio", "lower", "tokens_per_s, largest on async_priority and prefix_prefill"),
    "scheduler.submit_us": ("us", "lower", "ttft_ms_p50 everywhere"),
    "scheduler.queue_wait_ms_p50": ("ms", "lower", "ttft_ms_p50 on decode_steady"),
    "scheduler.queue_wait_ms_p90": ("ms", "lower", "ttft_ms_p90, ttft_steps_p95 on decode_steady"),
    "scheduler.peak_active": ("count", "higher", "tokens_per_s on decode_steady"),
    "scheduler.preemptions": ("count", "lower", "ttft_urgent_ms_p90 down, rows_per_token up on async_priority"),
    "cache.prefix_hit_rate": ("ratio", "higher", "rows_per_token, ttft_ms_* on prefix_prefill; 0 on decode_steady"),
    "cache.match_us_per_call": ("us", "lower", "ttft_ms_p50 on prefix_prefill"),
    "cache.publish_us_per_call": ("us", "lower", "ttft_ms_p50 on prefix_prefill"),
    "cache.reserve_us_per_call": ("us", "lower", "ttft_ms_p50 on prefix_prefill, async_priority"),
    "cache.write_ms_per_forward": ("ms", "lower", "tpot_ms_p50 on decode_steady"),
    "cache.truncate_calls": ("count", "lower", "rows_per_token on spec_extractive"),
    "cache.busy_share": ("ratio", "lower", "tokens_per_s on prefix_prefill, async_priority"),
    "cache.gather_bytes": ("bytes", "lower", "must be 0: fused paged attention never gathers"),
    "cache.blocks_in_use_peak": ("count", "lower", "peak_rss_mb; admission headroom on prefix_prefill"),
    "cache.utilization_mean": ("ratio", "higher", "tokens held / reserved positions; batch size, tokens_per_s"),
    "cache.cow_forks": ("count", "lower", "rows_per_token on prefix_prefill, async_priority"),
    "cache.block_allocs": ("count", "lower", "ttft_ms_p50 on prefix_prefill"),
    "spec.propose_us_per_call": ("us", "lower", "tpot_ms_p50 on spec_extractive"),
    "spec.accept_rate": ("ratio", "higher", "forwards_per_token, tpot_ms_p50 on spec_extractive"),
    "spec.tokens_per_verify": ("tok", "higher", "forwards_per_token on spec_extractive"),
    "spec.wasted_row_share": ("ratio", "lower", "rows_per_token on spec_extractive"),
    "async_engine.loop_overhead_share": ("ratio", "lower", "tokens_per_s on async_priority"),
    "async_engine.submit_wait_ms_p90": ("ms", "lower", "ttft_urgent_ms_p90 on async_priority"),
    "cluster.failures": ("count", "lower", "rows_per_token, ttft_ms_p90 on pool_chaos"),
    "cluster.recoveries": ("count", "higher", "failed share on pool_chaos"),
    "cluster.degraded": ("count", "lower", "failed share on pool_chaos (must be 0)"),
    "cluster.stalled_iterations": ("count", "lower", "ttft_ms_p90 on pool_chaos"),
    "cluster.router_sticky_share": ("ratio", "higher", "rows_per_token on pool_chaos"),
    "cluster.route_us_per_submit": ("us", "lower", "ttft_ms_p50 on pool_chaos"),
    "cluster.self_ms_per_step": ("ms", "lower", "tokens_per_s on pool_chaos"),
    "collective.calls_per_forward": ("count", "lower", "tokens_per_s, tpot_ms_* on pool_chaos"),
    "collective.ms_per_call": ("ms", "lower", "tokens_per_s, tpot_ms_* on pool_chaos"),
    "collective.bytes_per_forward": ("bytes", "lower", "computed from payload sizes; pool_chaos only"),
    "collective.share": ("ratio", "lower", "tokens_per_s on pool_chaos; 0 elsewhere"),
    "collective.retries": ("count", "lower", "tpot_ms_p90 on pool_chaos"),
    "collective.corruption_caught": ("count", "lower", "tpot_ms_p90 on pool_chaos"),
    "collective.simulated_ms": ("ms", "lower", "modelled link time, exact; pool_chaos only"),
    "shard.self_ms_per_forward": ("ms", "lower", "tokens_per_s, tpot_ms_* on pool_chaos"),
    "obs.trace_overhead": ("ratio", "lower", "traced / untraced calibrated wall - 1"),
    "obs.events_per_step": ("count", "lower", "obs.trace_overhead"),
    "obs.span_coverage": ("ratio", "higher", "share of traced serve wall under named spans"),
    "bench.py_calls_per_step": ("count", "lower", "exact Python-glue view of tokens_per_s on every workload"),
    "bench.yardstick_drift": ("ratio", "lower", "host drift the calibrated clock absorbed"),
    "bench.yardstick_share": ("ratio", "lower", "cost of calibration"),
    "bench.oracle_s": ("s", "lower", "cost of the correctness check"),
}


def warn(message: str) -> None:
    print(f"bench: warning: {message}", file=sys.stderr)


def self_times(starts, ends, parents) -> np.ndarray:
    """Per-span self time: duration minus the part its direct children cover."""
    duration = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    own = duration.copy()
    np.subtract.at(own, parents[parents >= 0], duration[parents >= 0])
    return own


def coverage(starts, ends, parents, start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by top-level spans."""
    top = np.asarray(parents) < 0
    return float((np.asarray(ends)[top] - np.asarray(starts)[top]).sum() / (end - start))


#: Spans inside a forward (13-39 per forward).  Each costs ~3-5 us here, so
#: they are recorded on every :data:`INNER_SPAN_EVERY`-th forward only (chosen
#: by forward count, so the choice repeats exactly); per-forward metrics divide
#: by the sampled forwards, shares scale back up.  Recording all of them cost
#: 6-13 % of a traced run and every 5th still left ``pool_chaos`` (39 inner
#: spans per sharded forward) at 5 %.  7 is coprime with the 2- to 6-forward
#: rhythms of the workloads, so the sample does not alias with them.
INNER_SPANS = ("core.project", "core.attention_matmul", "cache.write", "collective.all_gather")
INNER_SPAN_EVERY = 7

#: Spans whose note is the id of the request they served.
REQUEST_SPANS = ("scheduler.submit", "cluster.submit", "spec.propose")

_ABSENT = object()


def _restore(obj, attr: str, previous) -> None:
    if previous is _ABSENT:
        delattr(obj, attr)
    else:
        setattr(obj, attr, previous)


class Probe:
    """Span recorder, tracer and per-step sampler of one traced repeat."""

    def __init__(self) -> None:
        from repro.obs import Tracer, WallClock

        #: ``perf_counter`` stamp of the tracer clock's zero (to within one
        #: clock read), so tracer events and spans share one time axis.
        self.origin = time.perf_counter()
        self.tracer = Tracer(WallClock())
        #: Span columns (flat lists of scalars: nothing for the garbage
        #: collector to trace while the program runs) and the open-span stack.
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        #: Span index -> request id (``REQUEST_SPANS``) or call shape.
        self.notes: Dict[int, object] = {}
        self._stack: List[int] = [-1]
        #: Inner-span wrappers ``(object, attribute, wrapper, what was there)``,
        #: the forwards seen, and the forward spans recorded with them switched on.
        self._inner: List[tuple] = []
        self._forwards = 0
        self.sampled_forwards: List[int] = []
        #: Span names whose probe target was not found.
        self.missing: List[str] = []
        #: ``(object, attribute, what the instance held before)`` per wrapper.
        self._wrapped: List[tuple] = []
        self._pool = None
        self._router = None
        #: Every scheduler / cache ever probed (a pool rebuilds them after a kill).
        self._schedulers: List = []
        self._caches: List = []
        self._blocks_in_use: List[int] = []
        self._utilization: List[float] = []
        self._placements: List[tuple] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _gone(self, what: str, *names: str) -> None:
        self.missing.extend(names)
        warn(f"probe target {what} is missing; {', '.join(names)} metrics read null")

    def wrap(self, obj, attr: str, name: str, note: Optional[Callable] = None) -> None:
        """Time ``obj.attr`` as span ``name``; ``note(args, result)`` is kept beside it."""
        method = getattr(obj, attr, None)
        if not callable(method):
            self._gone(f"{type(obj).__name__}.{attr}", name)
            return
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, notes, clock = self._stack, self.notes, time.perf_counter

        def timed(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = method(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if note is not None:
                notes[index] = note(args, result)
            return result

        previous = vars(obj).get(attr, _ABSENT)
        if name in INNER_SPANS:
            self._inner.append((obj, attr, timed, previous))  # installed inside sampled forwards only
            return
        self._wrapped.append((obj, attr, previous))
        setattr(obj, attr, self._sampling(timed) if name in FORWARD_SPANS else timed)

    def _sampling(self, timed_forward: Callable) -> Callable:
        """A forward wrapper that switches the inner spans on for every ``INNER_SPAN_EVERY``-th forward."""
        inner, sampled, names = self._inner, self.sampled_forwards, self.names

        def forward(*args, **kwargs):
            self._forwards += 1
            if self._forwards % INNER_SPAN_EVERY:
                return timed_forward(*args, **kwargs)
            sampled.append(len(names))  # the index ``timed_forward`` is about to take
            for obj, attr, wrapper, _ in inner:
                setattr(obj, attr, wrapper)
            try:
                return timed_forward(*args, **kwargs)
            finally:
                for obj, attr, _, previous in inner:
                    _restore(obj, attr, previous)

        return forward

    def detach(self) -> None:
        """Put back what every wrapped instance attribute held before."""
        for obj, attr, previous in reversed(self._wrapped):
            _restore(obj, attr, previous)
        self._wrapped.clear()

    def attach(self, built, runner) -> None:
        """Probe every layer of the freshly built program ``built``."""
        engine = built.engine
        if hasattr(engine, "replicas"):  # a ReplicaPool
            self._pool = engine
            self.wrap(engine, "step", "cluster.step")
            self.wrap(engine, "submit", "cluster.submit", _result)
            self._router = getattr(engine, "router", None)
            if self._router is None:
                self._gone("ReplicaPool.router", "cluster.route")
            else:
                self.wrap(self._router, "place", "cluster.route", self._record_placement)
            built.on_runner = self._attach_runner  # runners of replicas rebuilt after a kill
            for sharded in built.sharded_runners:
                self._attach_runner(sharded)
            self._attach_new_replicas()
        else:
            self._attach_runner(runner)
            self._attach_scheduler(built.stepper)
        if built.drafter is not None:
            self.wrap(built.drafter, "propose", "spec.propose", _first_arg)

    def _attach_new_replicas(self) -> None:
        """Probe the schedulers of replicas built since the last call.

        Called after every pool step, so the first step of a scheduler the
        pool rebuilt inside that step goes untimed (its forwards are not).
        """
        for replica in self._pool.replicas:
            scheduler = getattr(replica, "scheduler", None)
            if scheduler is not None and not any(scheduler is seen for seen in self._schedulers):
                self._attach_scheduler(scheduler)

    def _attach_scheduler(self, scheduler) -> None:
        self._schedulers.append(scheduler)
        self.wrap(scheduler, "step", "scheduler.step")
        self.wrap(scheduler, "submit", "scheduler.submit", _result)
        cache = getattr(scheduler, "cache", None)
        if cache is None:
            self._gone("Scheduler.cache", *CACHE_SPANS)
            return
        self._caches.append(cache)
        for span_name in CACHE_SPANS:
            self.wrap(cache, span_name.split(".", 1)[1], span_name)

    def _attach_runner(self, runner) -> None:
        # The always-installed counting wrappers sit inside these spans: two
        # integer adds, far below the clock's resolution.
        self.wrap(runner, "prefill", "models.prefill", _prefill_rows)
        self.wrap(runner, "decode_step", "models.decode_step", _decode_rows)
        self.wrap(runner, "verify", "models.verify", _verify_rows)
        executors = getattr(runner, "executors", None) or [getattr(runner, "executor", None)]
        for executor in executors:
            if executor is None:
                self._gone("runner.executor", "core.project", "core.attention_matmul")
                continue
            self.wrap(executor, "project", "core.project", _project_shape)
            self.wrap(executor, "attention_matmul", "core.attention_matmul")
        group = getattr(runner, "group", None)
        if group is not None:
            self.wrap(group, "all_gather", "collective.all_gather", _payload_bytes)

    def _record_placement(self, args, result) -> None:
        self._placements.append((args[0], result))

    # ------------------------------------------------------------------
    # Per-step sampling
    # ------------------------------------------------------------------
    def after_step(self) -> None:
        """Sample KV-pool occupancy after an engine step (outside every span)."""
        caches = self._caches
        if self._pool is not None:
            self._attach_new_replicas()
            caches = [getattr(getattr(r, "scheduler", None), "cache", None) for r in self._pool.replicas]
        in_use = held = reserved = 0
        try:
            for cache in caches:
                in_use += cache.num_blocks - cache.free_block_count
                for slot in cache.active_slots:
                    held += cache.length_of(slot)
                    reserved += cache.capacity_of(slot)
        except AttributeError as error:
            if "cache.blocks_in_use_peak" not in self.missing:
                self._gone(f"KV-pool occupancy ({error})", "cache.blocks_in_use_peak", "cache.utilization_mean")
            return
        self._blocks_in_use.append(in_use)
        if reserved:
            self._utilization.append(held / reserved)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def layer_metrics(self, built, recorder, clock, counters) -> Dict[str, Optional[float]]:
        """Every per-layer metric this probe can compute (``None`` = not measured)."""
        to_cal = clock.to_calibrated
        cal_start, cal_end = to_cal(self.starts), to_cal(self.ends)
        own = self_times(cal_start, cal_end, self.parents)
        duration = cal_end - cal_start
        names = np.array(self.names, dtype=object)
        notes = self.notes
        wall = clock.elapsed(recorder.start, recorder.end)
        missing = set(self.missing)

        # ``None`` (a missing probe target) is contagious through every helper.
        def total(*wanted, values=duration) -> Optional[float]:
            return None if missing.intersection(wanted) else float(values[np.isin(names, wanted)].sum())

        def calls(*wanted) -> Optional[int]:
            return None if missing.intersection(wanted) else int(np.isin(names, wanted).sum())

        def note_sum(wanted, pick=lambda note: note) -> Optional[float]:
            if wanted in missing:
                return None
            return sum(pick(notes[index]) for index in np.flatnonzero(names == wanted))

        def per(value, count, scale: float = 1.0) -> Optional[float]:
            if value is None or count is None:
                return None
            return value / count * scale if count else 0.0

        def scaled(value) -> Optional[float]:
            return None if value is None or upscale is None else value * upscale

        def pct(values, q: float) -> Optional[float]:
            return float(np.percentile(values, q)) if values is not None and len(values) else None

        m: Dict[str, Optional[float]] = {}
        outputs = [o for o in recorder.outputs if o is not None]
        tokens = sum(len(o.generated) for o in outputs)
        forwards = calls(*FORWARD_SPANS)
        # Inner spans exist on the sampled forwards only: per-forward metrics
        # divide by ``sampled``, shares of the wall scale by ``upscale``.
        sampled = None if forwards is None else len(self.sampled_forwards)
        upscale = None if not sampled else forwards / sampled

        # core ----------------------------------------------------------
        project_ms = total("core.project")
        m["core.project_calls_per_forward"] = per(calls("core.project"), sampled)
        m["core.project_rows_per_call"] = per(note_sum("core.project", lambda e: e[0]), calls("core.project"))
        m["core.project_ms_per_forward"] = per(project_ms, sampled, 1e3)
        m["core.project_share"] = scaled(per(project_ms, wall))
        m["core.project_macs_per_token"] = scaled(per(note_sum("core.project", lambda e: e[1]), tokens))
        m["core.attention_matmul_calls"] = calls("core.attention_matmul")

        # models --------------------------------------------------------
        verify_rows = note_sum("models.verify", lambda shape: shape[0] * shape[1])
        m["models.prefill_calls"] = calls("models.prefill")
        m["models.prefill_rows"] = note_sum("models.prefill")
        m["models.prefill_ms_per_row"] = per(total("models.prefill"), m["models.prefill_rows"], 1e3)
        m["models.decode_calls"] = calls("models.decode_step")
        m["models.decode_batch_mean"] = per(note_sum("models.decode_step"), m["models.decode_calls"])
        m["models.decode_ms_per_call"] = per(total("models.decode_step"), m["models.decode_calls"], 1e3)
        m["models.verify_calls"] = calls("models.verify")
        m["models.verify_rows"] = verify_rows
        m["models.verify_ms_per_call"] = per(total("models.verify"), m["models.verify_calls"], 1e3)
        m["models.forward_share"] = per(total(*FORWARD_SPANS), wall)
        m["models.self_ms_per_forward"] = per(None if sampled is None else float(own[self.sampled_forwards].sum()), sampled, 1e3)

        # scheduler -----------------------------------------------------
        step_ms = None if "scheduler.step" in missing else duration[names == "scheduler.step"] * 1e3
        waits_ms = self._queue_waits_ms(to_cal)
        stats = [getattr(s, "stats", None) for s in self._schedulers]
        m["scheduler.steps"] = calls("scheduler.step")
        m["scheduler.step_ms_p50"] = pct(step_ms, 50)
        m["scheduler.step_ms_p90"] = pct(step_ms, 90)
        m["scheduler.self_ms_per_step"] = per(total("scheduler.step", values=own), m["scheduler.steps"], 1e3)
        m["scheduler.self_share"] = per(total("scheduler.step", "scheduler.submit", values=own), wall)
        m["scheduler.submit_us"] = per(total("scheduler.submit"), calls("scheduler.submit"), 1e6)
        m["scheduler.queue_wait_ms_p50"] = pct(waits_ms, 50)
        m["scheduler.queue_wait_ms_p90"] = pct(waits_ms, 90)
        m["scheduler.peak_active"] = _fold(max, stats, "peak_active")
        m["scheduler.preemptions"] = _fold(sum, stats, "preemptions")

        # paged_kv_cache ------------------------------------------------
        # Hit tokens over hit + computed prompt-side tokens: the issue's "hits /
        # prompt tokens" where nothing is replayed, and still <= 1 where
        # preemption or recovery re-admits a request and it hits again.
        hit_tokens = _fold(sum, outputs, "prefix_hit_tokens")
        prefilled = m["models.prefill_rows"]
        m["cache.prefix_hit_rate"] = per(hit_tokens, None if None in (hit_tokens, prefilled) else hit_tokens + prefilled)
        m["cache.match_us_per_call"] = per(total("cache.match_prefix"), calls("cache.match_prefix"), 1e6)
        m["cache.publish_us_per_call"] = per(total("cache.publish_prefix"), calls("cache.publish_prefix"), 1e6)
        m["cache.reserve_us_per_call"] = per(total("cache.reserve"), calls("cache.reserve"), 1e6)
        m["cache.write_ms_per_forward"] = per(total("cache.write"), sampled, 1e3)
        m["cache.truncate_calls"] = calls("cache.truncate")
        rest, write = total(*CACHE_SPANS[:-1]), scaled(total("cache.write"))
        m["cache.busy_share"] = per(None if None in (rest, write) else rest + write, wall)
        m["cache.gather_bytes"] = _fold(sum, self._caches, "gather_bytes")
        m["cache.blocks_in_use_peak"] = max(self._blocks_in_use) if self._blocks_in_use else None
        m["cache.utilization_mean"] = float(np.mean(self._utilization)) if self._utilization else None
        m["cache.cow_forks"] = len(self.tracer.events_named("cache.cow"))
        m["cache.block_allocs"] = len(self.tracer.events_named("cache.block_alloc"))

        # spec: every token is sampled from a prefill (one per request), a plain
        # decode row (one each) or a verify row; the rest of the verify rows were
        # rejected drafts and padding, rolled back by ``truncate``.
        verify_sequences = note_sum("models.verify", lambda shape: shape[0])
        decode_rows = note_sum("models.decode_step")
        committed = None if decode_rows is None else tokens - len(outputs) - decode_rows
        m["spec.propose_us_per_call"] = per(total("spec.propose"), calls("spec.propose"), 1e6)
        m["spec.accept_rate"] = per(_fold(sum, outputs, "spec_accepted_tokens"), _fold(sum, outputs, "spec_proposed_tokens"))
        m["spec.tokens_per_verify"] = per(committed, verify_sequences)
        m["spec.wasted_row_share"] = per(None if None in (committed, verify_rows) else verify_rows - committed, verify_rows)

        # async_engine (backpressure = how long ``await engine.submit`` held the client)
        if built.is_async:
            held_ms = (to_cal(recorder.accepted_t) - to_cal(recorder.submit_t)) * 1e3
            busy = total("scheduler.step")
            m["async_engine.loop_overhead_share"] = None if busy is None else 1.0 - busy / wall
            m["async_engine.submit_wait_ms_p90"] = float(np.nanpercentile(held_ms, 90))
        else:
            m["async_engine.loop_overhead_share"] = m["async_engine.submit_wait_ms_p90"] = 0.0

        # cluster / shard / collective ------------------------------------
        cluster = [getattr(built.engine, "cluster_stats", None)] if self._pool is not None else []
        m["cluster.failures"] = _fold(sum, cluster, "failures")
        m["cluster.recoveries"] = _fold(sum, cluster, "recoveries")
        m["cluster.degraded"] = _fold(sum, cluster, "degraded_requests")
        m["cluster.stalled_iterations"] = _fold(sum, cluster, "stalled_iterations")
        m["cluster.router_sticky_share"] = self._sticky_share()
        m["cluster.route_us_per_submit"] = per(total("cluster.route"), calls("cluster.route"), 1e6)
        m["cluster.self_ms_per_step"] = per(total("cluster.step", values=own), calls("cluster.step"), 1e3)
        gathers = calls("collective.all_gather")
        group_stats = [getattr(group, "stats", None) for group in built.groups]
        m["collective.calls_per_forward"] = per(gathers, sampled)
        m["collective.ms_per_call"] = per(total("collective.all_gather"), gathers, 1e3)
        m["collective.bytes_per_forward"] = per(note_sum("collective.all_gather"), sampled)
        m["collective.share"] = scaled(per(total("collective.all_gather"), wall))
        m["collective.retries"] = _fold(sum, group_stats, "retries")
        m["collective.corruption_caught"] = _fold(sum, group_stats, "corruption_caught")
        m["collective.simulated_ms"] = _fold(sum, group_stats, "simulated_ms")
        m["shard.self_ms_per_forward"] = m["models.self_ms_per_forward"] if built.sharded_runners else 0.0

        # obs / bench -----------------------------------------------------
        smoothed = clock.smoothed()
        m["obs.events_per_step"] = per(len(self.tracer.events), counters.steps)
        m["obs.span_coverage"] = coverage(cal_start, cal_end, self.parents, *to_cal([recorder.start, recorder.end]))
        m["bench.yardstick_drift"] = float(smoothed.max() / smoothed.min())
        m["bench.yardstick_share"] = clock.yardstick_seconds(recorder.start, recorder.end) / (
            recorder.end - recorder.start
        )
        return m

    def _queue_waits_ms(self, to_cal) -> np.ndarray:
        """First ``request.queued`` to first ``request.admitted`` per correlation id."""
        queued: Dict[str, float] = {}
        admitted: Dict[str, float] = {}
        for event in self.tracer.events:
            if event.name == "request.queued":
                queued.setdefault(event.corr, event.ts)
            elif event.name == "request.admitted":
                admitted.setdefault(event.corr, event.ts)
        pairs = [(queued[c], admitted[c]) for c in queued if c in admitted]
        if not pairs:
            return np.zeros(0)
        stamps = self.origin + np.asarray(pairs) * 1e-6
        return (to_cal(stamps[:, 1]) - to_cal(stamps[:, 0])) * 1e3

    def _sticky_share(self) -> Optional[float]:
        """Share of placements that went to the prompt's first-ranked replica."""
        if self._pool is None:
            return 0.0
        rank = getattr(self._router, "rank", None)
        if rank is None or not self._placements:
            return None
        first = sum(1 for prompt, placed in self._placements if rank(prompt)[0] == placed)
        return first / len(self._placements)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self, path, recorder) -> int:
        """Write spans, per-request lifetimes and the program's own events as Chrome trace JSON."""
        rows = self.tracer.chrome_trace_events()
        bench_pid = 1 + max((row["pid"] for row in rows), default=-1)
        requests_pid = bench_pid + 1
        rows.append({"name": "process_name", "ph": "M", "pid": bench_pid, "tid": 0, "args": {"name": "bench.spans"}})
        rows.append({"name": "process_name", "ph": "M", "pid": requests_pid, "tid": 0, "args": {"name": "bench.requests"}})
        origin = self.origin
        for index, name in enumerate(self.names):
            args = {"id": index, "parent": self.parents[index]}
            if name in REQUEST_SPANS and self.notes.get(index) is not None:
                args["request"] = int(self.notes[index])
            rows.append({
                "name": name, "ph": "X", "pid": bench_pid, "tid": 0, "args": args,
                "ts": (self.starts[index] - origin) * 1e6, "dur": (self.ends[index] - self.starts[index]) * 1e6,
            })  # fmt: skip
        for index, output in enumerate(recorder.outputs):
            if output is None:
                continue
            rows.append({
                "name": "request", "ph": "X", "pid": requests_pid, "tid": index,
                "ts": (recorder.submit_t[index] - origin) * 1e6,
                "dur": (recorder.finish_t[index] - recorder.submit_t[index]) * 1e6,
                "args": {"request": int(output.request_id),
                         "first_token_us": (recorder.first_t[index] - origin) * 1e6,
                         "tokens": len(output.generated)},
            })  # fmt: skip
        with open(path, "w") as handle:
            json.dump({"displayTimeUnit": "ms", "traceEvents": rows}, handle, separators=(",", ":"))
            handle.write("\n")
        return len(rows)


def _fold(reduce: Callable, objects, attr: str) -> Optional[float]:
    """``reduce`` over ``obj.attr``; ``None`` if any object lacks it, 0 for no objects."""
    values = [getattr(obj, attr, None) for obj in objects]
    if None in values:
        return None
    return reduce(values) if values else 0


def _result(args, result):
    return result


def _first_arg(args, result):
    return args[0]


def _project_shape(args, result):
    rows, width = args[1].shape
    return rows, rows * width * args[2].shape[-1]


def _prefill_rows(args, result):
    return int(np.sum(args[1]))


def _decode_rows(args, result):
    return len(args[0])


def _verify_rows(args, result):
    return np.shape(args[0])


def _payload_bytes(args, result):
    return sum(int(np.asarray(p).nbytes) for p in args[0])
