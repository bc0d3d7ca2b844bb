"""Serving observability: request-lifecycle tracing and Perfetto export.

``repro.obs`` is the zero-dependency lens into the serving simulator.
:class:`Tracer` records nestable spans and instant events with structured
attributes, timestamped by an injectable clock (:class:`CountingClock`
for byte-identical test traces, :class:`WallClock` for benchmarks), and
exports Chrome trace-event JSON loadable in Perfetto.
:class:`FlightRecorder` keeps a bounded ring of the newest events for
incident dumps.  Counts live in the serving stats records themselves
(:class:`repro.serve.stats.Counters`), read by attribute.

Tracing is opt-in everywhere: serving layers default to ``tracer=None``
and skip all trace work — including attribute-dict construction — when
disabled, a property counted and gated by ``tools/check_perf_smoke.py``.
"""

from repro.obs.clock import CountingClock, WallClock
from repro.obs.trace import FlightRecorder, TraceEvent, Tracer

__all__ = [
    "CountingClock",
    "WallClock",
    "FlightRecorder",
    "TraceEvent",
    "Tracer",
]
