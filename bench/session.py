"""One workload, measured: set-up, oracle, untraced repeats, traced repeat, profile pass."""

from __future__ import annotations

import cProfile
import gc
import pstats
import resource
import time
from typing import Dict, List, Optional

import numpy as np

from bench import drivers, metrics, probes, program
from bench.clock import CalibratedClock
from bench.workloads import WHY, generate

#: In-process rebuilds whose median is ``setup_s`` (``--quick``: one).
SETUP_REBUILDS = 5
#: Untraced repeats are never fewer than this, whatever ``--seconds`` says
#: (and never more than :data:`MAX_REPEATS`).
MIN_REPEATS, MAX_REPEATS = 2, 5
#: Engine steps the cProfile pass covers.
PROFILE_STEPS = 100


def _timed_setup(weights, corpus, clock: CalibratedClock, rebuilds: int):
    """Rebuild the runner ``rebuilds`` times; return the last and the timings."""
    stamps = []
    runner = None
    for _ in range(rebuilds):
        clock.sample_edge()
        start = time.perf_counter()
        runner = program.build_runner(weights, corpus)
        program.warm_up(runner, corpus, clock)
        stamps.append((start, time.perf_counter()))
    clock.sample_edge()
    return runner, [clock.elapsed(a, b) for a, b in stamps], [clock.elapsed(a, b, raw=True) for a, b in stamps]


class Session:
    """Everything one ``--workload`` invocation measures."""

    def __init__(self, name: str, seed: int, quick: bool, import_load_s: float, weights, corpus) -> None:
        self.name = name
        self.seed = seed
        self.quick = quick
        self.min_beyond = 1 if quick else metrics.MIN_SAMPLES_BEYOND
        self.import_load_s = import_load_s
        self.corpus = corpus
        self.counters = program.Counters()
        setup_clock = CalibratedClock()
        self.runner, self.setup_s, self.setup_raw_s = _timed_setup(
            weights, corpus, setup_clock, 1 if quick else SETUP_REBUILDS
        )
        program.count_forwards(self.runner, self.counters)
        self.trace = generate(name, seed, corpus, quick)
        self.prompts = program.finalize_prompts(self.runner, self.trace)
        self.oracle_tokens, self.oracle_s = self._run_oracle()
        self.repeats: List[Dict[str, object]] = []
        self.traced: Optional[Dict[str, object]] = None
        self.peak_rss_mb = float("nan")

    def _run_oracle(self):
        sample = self.trace.oracle_sample()
        start = time.perf_counter()
        outputs = program.serve_all(
            program.build_oracle(self.runner),
            [self.prompts[i] for i in sample],
            [self.trace.max_new[i] for i in sample],
        )
        tokens = {i: np.asarray(output.generated) for i, output in zip(sample, outputs)}
        return tokens, time.perf_counter() - start

    # ------------------------------------------------------------------
    def _serve(self, traced: bool = False, max_steps: Optional[int] = None, **sampling):
        """Build a fresh engine and serve the trace once."""
        gc.collect()  # the last repeat's engine: keeps peak RSS independent of the repeat count
        self.counters.reset()
        clock = CalibratedClock()
        recorder = drivers.Recorder(len(self.trace), self.counters)
        probe = probes.Probe() if traced else None
        built = program.build_program(
            self.name, self.runner, self.trace, self.counters,
            None if self.name == "async_priority" else recorder.on_token,
            tracer=probe.tracer if probe else None,
        )  # fmt: skip
        run = drivers.run_closed_loop if built.is_async else drivers.run_open_loop
        try:
            if probe:
                probe.attach(built, self.runner)
            # Outermost, so the yardstick sample lies outside every span.
            program.count_steps(built.stepper, self.counters, clock, **sampling)
            run(built, self.trace, self.prompts, recorder, clock, max_steps=max_steps,
                after_step=probe.after_step if probe else None)  # fmt: skip
        finally:
            if probe:
                probe.detach()  # the solo runner is shared with the next repeat
        return recorder, clock, built, probe

    def _repeat_record(self, recorder, clock) -> Dict[str, object]:
        check = metrics.check_repeat(recorder, self.oracle_tokens)
        failed = set(check["failures"])
        counts = self.counters.as_dict()
        return {
            "check": check,
            "counters": counts,
            "values": metrics.end_to_end(recorder, counts, clock, failed, self.min_beyond),
            "raw": metrics.end_to_end(recorder, counts, clock, failed, self.min_beyond, raw=True),
            "wall_s": clock.elapsed(recorder.start, recorder.end),
            "raw_wall_s": recorder.end - recorder.start,
        }

    def _untraced_repeat(self) -> Dict[str, object]:
        recorder, clock, _, _ = self._serve()
        self.repeats.append(self._repeat_record(recorder, clock))
        return self.repeats[-1]

    def run_untraced(self, seconds: float, repeats: Optional[int] = None) -> None:
        """Repeat the identical trace while the measuring budget lasts (or ``repeats`` times)."""
        spent = 0.0
        while True:
            spent += self._untraced_repeat()["raw_wall_s"]
            done = len(self.repeats)
            if repeats is not None:
                if done >= repeats:
                    break
            elif done >= MAX_REPEATS or (done >= MIN_REPEATS and spent + spent / done > seconds):
                break
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ------------------------------------------------------------------
    def run_traced(self, out_dir) -> Dict[str, Optional[float]]:
        """The traced repeat between two untraced ones, then the profile pass.

        Returns the per-layer metrics.  The untraced repeat after it is an
        ordinary repeat (it joins the end-to-end medians); bracketing the
        traced one keeps host drift out of ``obs.trace_overhead``.
        ``--quick`` keeps its one repeat and compares with that alone.
        """
        before = self.repeats[-1] if self.repeats else self._untraced_repeat()
        recorder, clock, built, probe = self._serve(traced=True)
        self.traced = self._repeat_record(recorder, clock)
        after = before if self.quick else self._untraced_repeat()
        layer = probe.layer_metrics(built, recorder, clock, self.counters)
        layer["obs.trace_overhead"] = self.traced["wall_s"] / (0.5 * (before["wall_s"] + after["wall_s"])) - 1.0
        layer["bench.oracle_s"] = self.oracle_s
        layer["bench.py_calls_per_step"] = self._profile_calls_per_step()
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            probe.export(out_dir / f"{self.name}.trace.json", recorder)
        return {name: layer[name] for name in probes.PER_LAYER}

    def _profile_calls_per_step(self) -> float:
        """Function calls per engine step under cProfile: exact, so free of host noise."""
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            self._serve(max_steps=PROFILE_STEPS, every_s=float("inf"))  # no yardstick: its calls would vary
        finally:
            profiler.disable()
        return pstats.Stats(profiler).total_calls / self.counters.steps

    # ------------------------------------------------------------------
    def correctness(self) -> Dict[str, object]:
        """Sent / succeeded / failed per repeat, cross-repeat token identity folded in."""
        records = self.repeats + ([self.traced] if self.traced else [])
        checks = [r["check"] for r in records]
        cross = metrics.cross_repeat_failures(checks)
        per_repeat = []
        for record, check in zip(records, checks):
            failures = {**cross, **check["failures"]}
            per_repeat.append({
                "traced": record is self.traced, "sent": check["sent"],
                "succeeded": check["sent"] - len(failures), "failed": len(failures),
                "failures": {str(index): why for index, why in sorted(failures.items())[:8]},
                "steps": record["counters"]["steps"], "wall_s": record["wall_s"],
                "raw_wall_s": record["raw_wall_s"],
            })  # fmt: skip
        attempted = sum(r["sent"] for r in per_repeat)
        failed = sum(r["failed"] for r in per_repeat)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "per_repeat": per_repeat}

    def end_to_end_summary(self, correctness: Dict[str, object]) -> Dict[str, Dict[str, object]]:
        """Median / IQR / n per end-to-end metric, with raw twins and noise flags."""
        untraced = [r for r in correctness["per_repeat"] if not r["traced"]]
        summary: Dict[str, Dict[str, object]] = {}
        for name, (unit, better, bound, exact) in metrics.END_TO_END.items():
            raw = None
            if name == "setup_s":
                values, raw = self.setup_s, self.setup_raw_s
            elif name == "peak_rss_mb":
                values = [self.peak_rss_mb]
            elif name == "failed_share":
                values = [r["failed"] / r["sent"] for r in untraced]
            else:
                values = [r["values"][name] for r in self.repeats]
                raw = None if exact else [r["raw"][name] for r in self.repeats]
            entry = metrics.summarize(values)
            entry.update(unit=unit, better=better, bound=bound, exact=exact, values=list(values))
            entry["noisy"] = bool(entry["value"]) and entry["iqr"] / abs(entry["value"]) > bound
            if exact and entry["iqr"] != 0.0:
                probes.warn(f"{self.name}: exact metric {name} did not repeat bit-for-bit")
            if raw is not None:
                raw = metrics.summarize(raw)
                entry["raw"] = {"value": raw["value"], "iqr": raw["iqr"]}
            summary[name] = entry
        return summary

    def result(self, layer: Optional[Dict[str, Optional[float]]]) -> Dict[str, object]:
        """Everything this session measured, as one JSON-ready dict."""
        correctness = self.correctness()
        out = {
            "workload": self.name, "why": WHY[self.name], "seed": self.seed, "quick": self.quick,
            "requests": len(self.trace), "trace_digest": self.trace.digest(),
            "oracle_requests": len(self.oracle_tokens),
            "setup.import_load_s": self.import_load_s, "bench.oracle_s": self.oracle_s,
            **correctness,
            "end_to_end": self.end_to_end_summary(correctness),
        }  # fmt: skip
        if layer is not None:
            out["per_layer"] = {
                name: {"value": layer[name], "unit": unit, "better": better, "moves": moves}
                for name, (unit, better, moves) in probes.PER_LAYER.items()
            }
        return out
