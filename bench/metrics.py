"""End-to-end metrics, the correctness check, and the median/IQR summary.

The metric table is the single definition BENCHMARK.json, the report and
``--compare`` are built from.
"""

from __future__ import annotations

import hashlib
import statistics
from typing import Dict, List, Optional, Sequence

import numpy as np

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: name -> (unit, better, bound, exact).  ``bound`` is the share by which the
#: median may worsen before it counts as a regression: at least three times
#: the widest between-seed spread (IQR / median of ten runs at ten seeds)
#: measured on any workload, rounded up to 0.05 and capped at the contract's
#: 0.25 (README, "Measured").
#: ``exact`` metrics are counts that repeat bit-for-bit at one seed and
#: compare for equality in ``--compare``; their bound covers the move
#: between seeds.
END_TO_END = {
    "tokens_per_s": ("tok/s", "higher", 0.20, False),
    "ttft_ms_p50": ("ms", "lower", 0.25, False),
    "ttft_ms_p90": ("ms", "lower", 0.25, False),
    "tpot_ms_p50": ("ms", "lower", 0.20, False),
    "tpot_ms_p90": ("ms", "lower", 0.25, False),
    "ttft_urgent_ms_p90": ("ms", "lower", 0.25, False),
    "rows_per_token": ("rows/tok", "lower", 0.10, True),
    "forwards_per_token": ("fwd/tok", "lower", 0.10, True),
    "ttft_steps_p95": ("steps", "lower", 0.25, True),
    "failed_share": ("ratio", "lower", 0.0, True),
    "setup_s": ("s", "lower", 0.25, False),
    "peak_rss_mb": ("MiB", "lower", 0.10, False),
}

FINISHED_OK = ("length", "eos")


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_SAMPLES_BEYOND) -> float:
    """The ``q``-th percentile, refused unless ``min_beyond`` samples lie beyond it."""
    count = len(values)
    beyond = count * min(q, 100.0 - q) / 100.0
    if beyond + 1e-9 < min_beyond:
        raise ValueError(
            f"p{q:g} of {count} samples has {beyond:.1f} samples beyond it; need {min_beyond}"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, interquartile range and count of per-repeat values."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {"value": statistics.median(values), "iqr": iqr, "n": len(values)}


def token_digest(tokens) -> str:
    return hashlib.sha1(np.asarray(tokens, dtype=np.int64).tobytes()).hexdigest()


def check_repeat(recorder, oracle_tokens: Dict[int, np.ndarray]) -> Dict[str, object]:
    """Sent / succeeded / failed of one repeat, and each request's token digest.

    A request fails when it never finishes, finishes with a reason other than
    ``length``/``eos``, streams tokens that differ from its terminal output,
    or differs from the oracle (for the sampled requests that have one).
    """
    failures: Dict[int, str] = {}
    digests: List[Optional[str]] = []
    for index, output in enumerate(recorder.outputs):
        if output is None:
            failures[index] = "never finished"
            digests.append(None)
            continue
        generated = np.asarray(output.generated)
        digests.append(token_digest(generated))
        if output.finish_reason not in FINISHED_OK:
            failures[index] = f"finish_reason={output.finish_reason}"
        elif list(generated) != recorder.streamed[index]:
            failures[index] = "streamed tokens differ from output.generated"
        elif index in oracle_tokens and not np.array_equal(generated, oracle_tokens[index]):
            failures[index] = "differs from the oracle"
    sent = len(recorder.outputs)
    return {"sent": sent, "succeeded": sent - len(failures), "failed": len(failures),
            "failures": failures, "digests": digests}  # fmt: skip


def cross_repeat_failures(checks: List[Dict[str, object]]) -> Dict[int, str]:
    """Requests whose tokens differ between any two repeats."""
    failures: Dict[int, str] = {}
    first = checks[0]["digests"]
    for repeat, check in enumerate(checks[1:], start=1):
        for index, (a, b) in enumerate(zip(first, check["digests"])):
            if a != b:
                failures.setdefault(index, f"tokens differ between repeat 0 and repeat {repeat}")
    return failures


def end_to_end(recorder, counters: Dict[str, int], clock, failed: set, min_beyond: int, raw: bool = False):
    """The per-repeat end-to-end values (everything but ``setup_s`` and ``peak_rss_mb``)."""
    ok = [i for i, o in enumerate(recorder.outputs) if o is not None and i not in failed]
    to_cal = lambda stamps: clock.to_calibrated(stamps, raw=raw)  # noqa: E731
    submit = to_cal([recorder.submit_t[i] for i in ok])
    first = to_cal([recorder.first_t[i] for i in ok])
    last = to_cal([recorder.last_t[i] for i in ok])
    span = to_cal([recorder.start, recorder.end])
    lengths = np.array([len(recorder.outputs[i].generated) for i in ok])
    priorities = np.array([recorder.outputs[i].priority for i in ok])
    tokens = int(lengths.sum())
    ttft_ms = (first - submit) * 1e3
    multi = lengths >= 2
    tpot_ms = (last[multi] - first[multi]) / (lengths[multi] - 1) * 1e3
    urgent = ttft_ms[priorities == priorities.min()]
    ttft_steps = [recorder.first_step[i] - recorder.submit_step[i] for i in ok]
    rows = counters["prefill_rows"] + counters["decode_rows"] + counters["verify_rows"]
    forwards = counters["prefill_calls"] + counters["decode_calls"] + counters["verify_calls"]
    return {
        "tokens_per_s": tokens / float(span[1] - span[0]),
        "ttft_ms_p50": percentile(ttft_ms, 50, min_beyond),
        "ttft_ms_p90": percentile(ttft_ms, 90, min_beyond),
        "tpot_ms_p50": percentile(tpot_ms, 50, min_beyond),
        "tpot_ms_p90": percentile(tpot_ms, 90, min_beyond),
        "ttft_urgent_ms_p90": percentile(urgent, 90, min_beyond),
        "rows_per_token": rows / tokens,
        "forwards_per_token": forwards / tokens,
        "ttft_steps_p95": percentile(ttft_steps, 95, min_beyond),
    }
