"""Request-lifecycle tracing: nestable spans, instant events, Perfetto export.

The serving stack's only lens used to be end-of-run counters; this module
adds the *causal record* — what happened, in what order, on which replica,
to which request.  Three pieces:

* :class:`Tracer` — the event sink the serving layers emit into.  Spans
  (:meth:`Tracer.begin` / :meth:`Tracer.end`, or the :meth:`Tracer.span`
  context manager) nest per *track*; :meth:`Tracer.instant` marks a point
  event.  Every event carries a track (one per replica/shard/pool), an
  optional correlation id (``corr``), structured attributes, and a
  timestamp from the injected clock (:mod:`repro.obs.clock`) — a
  :class:`~repro.obs.clock.CountingClock` makes traces deterministic and
  byte-identical across runs, a :class:`~repro.obs.clock.WallClock` makes
  them line up with measured latencies.
* :class:`FlightRecorder` — a bounded ring buffer of the newest events,
  for chaos runs too long to retain in full.  A tracer tees every event
  into its recorder (when attached); on an unrecovered failure
  :class:`~repro.serve.cluster.ReplicaPool` calls
  :meth:`FlightRecorder.mark_incident`, snapshotting the tape so the
  failure's immediate past is readable without replaying the run.
* :meth:`Tracer.export_chrome_trace` — Chrome trace-event JSON, loadable
  in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Each
  track becomes one process row (``pid``), spans become ``B``/``E``
  duration events, instants become ``i`` events, and attributes land in
  ``args`` — so a chaos run renders as one timeline per replica with
  every request's lifecycle reconstructable by filtering on its
  correlation id.

Tracing is **strictly opt-in**.  The serving layers hold ``tracer=None``
by default and guard every emit site with ``if tracer is not None`` —
the disabled path constructs no spans, no attribute dicts, and never
reads the clock.  ``tools/check_perf_smoke.py`` counts and gates that
claim (a ``tracer=None`` serve enters no frame of this package);
``repro.gpu.tracing_overhead`` models it.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["FlightRecorder", "TraceEvent", "Tracer"]

from repro.obs.clock import CountingClock


class TraceEvent:
    """One emitted trace event (a span edge or an instant).

    Attributes
    ----------
    name:
        Event name from the span taxonomy (see ``docs/architecture.md``).
    phase:
        ``"B"`` (span begin), ``"E"`` (span end), or ``"i"`` (instant) —
        the Chrome trace-event phases the exporter writes verbatim.
    ts:
        Timestamp from the tracer's clock (microseconds under a wall
        clock; deterministic ticks under a counting clock).
    track:
        Track name — one per replica/shard/pool, rendered as a process
        row in Perfetto.
    corr:
        Correlation id tying the event to one request across tracks
        (``None`` for batch-level events like decode iterations).
    args:
        Structured attributes (``None`` when the site attached nothing —
        the common case, kept cheap).
    """

    __slots__ = ("name", "phase", "ts", "track", "corr", "args")

    def __init__(
        self,
        name: str,
        phase: str,
        ts,
        track: str,
        corr: Optional[str],
        args: Optional[Dict[str, Any]],
    ) -> None:
        self.name = name
        self.phase = phase
        self.ts = ts
        self.track = track
        self.corr = corr
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        detail = f" corr={self.corr}" if self.corr is not None else ""
        attrs = f" {self.args}" if self.args else ""
        return f"<{self.phase} {self.ts} [{self.track}] {self.name}{detail}{attrs}>"

    def format_line(self) -> str:
        """One human-readable tape line (the FlightRecorder dump format)."""
        corr = f" corr={self.corr}" if self.corr is not None else ""
        args = "" if not self.args else " " + " ".join(
            f"{key}={value}" for key, value in sorted(self.args.items())
        )
        return f"{self.ts:>8} {self.track:<12} {self.phase} {self.name}{corr}{args}"


class FlightRecorder:
    """Bounded ring buffer of the newest trace events, dumped on incident.

    Attach one to a :class:`Tracer` (``Tracer(recorder=...)``) and every
    event is teed into the ring; once ``capacity`` events have been
    recorded the oldest are overwritten, so memory stays bounded no matter
    how long the chaos soak runs.  When something goes wrong the caller
    snapshots the tape with :meth:`mark_incident` — the replica pool does
    this on an unrecoverable request — turning replay debugging into *read
    the last N events before the crash*.

    Parameters
    ----------
    capacity : int
        Events retained (newest wins on wraparound).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        #: Total events ever recorded (so wraparound is observable).
        self.recorded = 0
        #: Incident snapshots: ``(reason, [TraceEvent, ...])`` in firing order.
        self.incidents: List[Tuple[str, List[TraceEvent]]] = []

    def record(self, event: TraceEvent) -> None:
        """Append one event, evicting the oldest past capacity."""
        self._ring.append(event)
        self.recorded += 1

    def events(self) -> List[TraceEvent]:
        """The retained tape, oldest first (never more than ``capacity``)."""
        return list(self._ring)

    def mark_incident(self, reason: str) -> List[TraceEvent]:
        """Snapshot the current tape under ``reason`` and return it."""
        tape = self.events()
        self.incidents.append((str(reason), tape))
        return tape

    def dump_lines(self) -> List[str]:
        """The tape formatted one line per event (for logs and assertions)."""
        return [event.format_line() for event in self._ring]


class Tracer:
    """The event sink every instrumented serving layer emits into.

    Parameters
    ----------
    clock : callable, optional
        Zero-argument timestamp source; defaults to a fresh
        :class:`~repro.obs.clock.CountingClock` (deterministic traces).
        Inject :class:`~repro.obs.clock.WallClock` for benchmarks.
    recorder : FlightRecorder, optional
        Ring buffer every event is teed into (see :class:`FlightRecorder`).
    retain : bool
        Keep the full event list for export (default).  ``False`` drops
        events after the recorder tee — for unbounded soaks where only
        the flight tape matters.

    Examples
    --------
    >>> tracer = Tracer()
    >>> with tracer.span("decode_step", "replica0", batch=3):
    ...     tracer.instant("request.first_token", "replica0", corr="req7")
    >>> tracer.export_chrome_trace("trace.json")
    """

    def __init__(
        self,
        clock=None,
        recorder: Optional[FlightRecorder] = None,
        retain: bool = True,
    ) -> None:
        self.clock = clock if clock is not None else CountingClock()
        self.recorder = recorder
        self.retain = bool(retain)
        #: Every retained event, in emission order.
        self.events: List[TraceEvent] = []
        #: Open-span name stacks, per track (for ``end`` bookkeeping).
        self._stacks: Dict[str, List[str]] = {}
        #: Track name -> Chrome pid, in first-emission order.
        self._track_ids: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit(
        self,
        name: str,
        phase: str,
        track: str,
        corr: Optional[str],
        args: Optional[Dict[str, Any]],
    ) -> TraceEvent:
        if track not in self._track_ids:
            self._track_ids[track] = len(self._track_ids)
        event = TraceEvent(name, phase, self.clock(), track, corr, args)
        if self.retain:
            self.events.append(event)
        if self.recorder is not None:
            self.recorder.record(event)
        return event

    def begin(self, name: str, track: str, corr: Optional[str] = None, **attrs) -> None:
        """Open a span on ``track`` (spans nest per track; close with :meth:`end`)."""
        self._stacks.setdefault(track, []).append(name)
        self._emit(name, "B", track, corr, attrs or None)

    def end(self, track: str) -> None:
        """Close the innermost open span on ``track``.

        Raises
        ------
        ValueError
            If the track has no open span (unbalanced instrumentation is a
            bug worth failing loudly on — a silently dropped ``E`` makes
            every later span on the track render wrong).
        """
        stack = self._stacks.get(track)
        if not stack:
            raise ValueError(f"no open span on track {track!r}")
        name = stack.pop()
        self._emit(name, "E", track, None, None)

    @contextmanager
    def span(self, name: str, track: str, corr: Optional[str] = None, **attrs) -> Iterator[None]:
        """Context-manager convenience around :meth:`begin` / :meth:`end`."""
        self.begin(name, track, corr, **attrs)
        try:
            yield
        finally:
            self.end(track)

    def instant(self, name: str, track: str, corr: Optional[str] = None, **attrs) -> None:
        """Emit a point event on ``track``."""
        self._emit(name, "i", track, corr, attrs or None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def events_named(self, name: str) -> List[TraceEvent]:
        """Retained events with exactly this name, in emission order."""
        return [event for event in self.events if event.name == name]

    def events_for(self, corr: str) -> List[TraceEvent]:
        """Retained events carrying this correlation id, in emission order."""
        return [event for event in self.events if event.corr == corr]

    def tracks(self) -> List[str]:
        """Track names in first-emission order."""
        return list(self._track_ids)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace_events(self) -> List[Dict[str, Any]]:
        """The trace-event dicts :meth:`export_chrome_trace` serializes.

        One ``process_name`` metadata event per track (tracks render as
        process rows, in first-emission order), then every retained event
        in emission order.  Correlation ids land in ``args["corr"]`` so
        Perfetto's ``args`` search finds a request's whole lifecycle.
        """
        rows: List[Dict[str, Any]] = []
        for track, pid in self._track_ids.items():
            rows.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": track},
                }
            )
        for event in self.events:
            row: Dict[str, Any] = {
                "name": event.name,
                "ph": event.phase,
                "ts": event.ts,
                "pid": self._track_ids[event.track],
                "tid": 0,
            }
            if event.phase == "i":
                row["s"] = "t"
            args: Dict[str, Any] = {}
            if event.args:
                args.update(event.args)
            if event.corr is not None:
                args["corr"] = event.corr
            if args:
                row["args"] = args
            rows.append(row)
        return rows

    def export_chrome_trace(self, path) -> int:
        """Write the trace as Chrome trace-event JSON; return the event count.

        The output loads directly in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``.  Serialization is fully deterministic
        (sorted keys, fixed separators), so two runs under the same seed
        and :class:`~repro.obs.clock.CountingClock` produce byte-identical
        files — the property the trace-determinism tests pin.
        """
        rows = self.chrome_trace_events()
        payload = {"displayTimeUnit": "ms", "traceEvents": rows}
        with open(path, "w") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
        return len(rows)
