"""A zero-dependency metrics registry: counters, gauges, fixed-bucket histograms.

The serving stack keeps its counters in dataclass records
(``SchedulerStats``, ``ClusterStats``, ``CollectiveStats``, each a
:class:`repro.serve.stats.Counters`).  :class:`MetricsRegistry` gathers them
under one namespace: a record *publishes* into it (``stats.publish(registry,
prefix)``), :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.delta`
attribute counts to one phase of a run, and
:meth:`MetricsRegistry.render_text` dumps the whole thing in a
Prometheus-style exposition format for logs.

Three instrument kinds, all mergeable (so per-replica registries can fold
into a pool registry):

* :class:`Counter` — monotone accumulator (``inc``).
* :class:`Gauge` — last-write-wins level (``set``).
* :class:`Histogram` — fixed bucket bounds chosen at construction;
  ``observe`` bins a sample, and two histograms with identical bounds
  merge bucket-wise.  Fixed buckets keep merges exact — no rebinning, no
  approximation — at the cost of choosing bounds up front.

Everything here is plain Python on purpose: the registry rides inside the
simulator's hot loops, so instruments are ``__slots__`` classes with O(1)
updates and no locks (the simulator is single-threaded by design).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

Number = Union[int, float]


class Counter:
    """A monotonically increasing accumulator."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0 — counters never move backwards)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """A last-write-wins level (queue depth, free blocks, open breakers)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        # Merging levels from different sources: sum is the only composition
        # that makes "free blocks across replicas" style gauges meaningful.
        self.value += other.value


class Histogram:
    """Fixed-bucket histogram; exact bucket-wise merges, O(log B) observe.

    Parameters
    ----------
    name : str
        Metric name.
    buckets : sequence of numbers
        Strictly increasing upper bounds.  A sample lands in the first
        bucket whose bound is >= the sample; larger samples land in the
        implicit overflow bucket (rendered as ``+Inf``).
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(self, name: str, buckets: Sequence[Number]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name!r} bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        # counts[i] pairs with bounds[i]; counts[-1] is the +Inf overflow.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum: float = 0.0

    def observe(self, value: Number) -> None:
        """Bin one sample."""
        index = bisect.bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.total += 1
        self.sum += float(value)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in (bounds must match exactly)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r} into {self.name!r}: "
                f"bucket bounds differ ({other.bounds} vs {self.bounds})"
            )
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.sum += other.sum

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile: the bound of the bucket holding rank q.

        Returns the upper bound of the first bucket whose cumulative count
        reaches ``ceil(q * total)`` (the overflow bucket reports ``inf``);
        0.0 on an empty histogram.  This is deliberately coarse — exact
        percentiles live with the raw samples in ``SchedulerStats``; the
        histogram answers fleet-level questions after merging.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = max(1, int(q * self.total + 0.999999))
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            if running >= rank:
                return bound
        return float("inf")


class MetricsRegistry:
    """One namespace of counters/gauges/histograms with snapshot/delta/merge.

    Instruments are created on first touch (``counter(name)`` etc.) and
    identified by name; re-requesting a name returns the same instrument
    (histograms additionally require matching bounds).  ``snapshot()``
    freezes every scalar value; ``delta(before)`` diffs the live registry
    against a snapshot — the idiom benchmarks use to attribute counts to
    one phase of a run.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            self._check_fresh(name)
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            self._check_fresh(name)
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str, buckets: Optional[Sequence[Number]] = None) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            if buckets is None:
                raise ValueError(f"histogram {name!r} does not exist; pass bucket bounds to create it")
            self._check_fresh(name)
            inst = self._histograms[name] = Histogram(name, buckets)
        elif buckets is not None and tuple(float(b) for b in buckets) != inst.bounds:
            raise ValueError(f"histogram {name!r} already exists with different bucket bounds")
        return inst

    def _check_fresh(self, name: str) -> None:
        if name in self._counters or name in self._gauges or name in self._histograms:
            raise ValueError(f"metric name {name!r} already registered with a different kind")

    # ------------------------------------------------------------------
    # Snapshot / delta / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Number]:
        """Freeze every scalar: counters and gauges by name, histograms as
        ``name_count`` / ``name_sum`` plus one ``name_bucket_le_<bound>``
        per bucket (``inf`` for overflow)."""
        snap: Dict[str, Number] = {}
        for name, counter in self._counters.items():
            snap[name] = counter.value
        for name, gauge in self._gauges.items():
            snap[name] = gauge.value
        for name, hist in self._histograms.items():
            snap[f"{name}_count"] = hist.total
            snap[f"{name}_sum"] = hist.sum
            cumulative = 0
            for bound, count in zip(hist.bounds, hist.counts):
                cumulative += count
                snap[f"{name}_bucket_le_{bound:g}"] = cumulative
            snap[f"{name}_bucket_le_inf"] = hist.total
        return snap

    def delta(self, before: Dict[str, Number]) -> Dict[str, Number]:
        """Diff the live registry against an earlier :meth:`snapshot`.

        Keys absent from ``before`` diff against 0 (instruments created
        mid-phase still show up); keys absent from the live registry are
        dropped (they described instruments that no longer exist).
        """
        now = self.snapshot()
        return {key: value - before.get(key, 0) for key, value in now.items()}

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in, instrument-wise (fleet aggregation)."""
        for name, counter in other._counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge(gauge)
        for name, hist in other._histograms.items():
            self.histogram(name, hist.bounds).merge(hist)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """Prometheus-style text dump, deterministically ordered by name."""
        lines: List[str] = []
        for name in sorted(self._counters):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {self._counters[name].value}")
        for name in sorted(self._gauges):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {self._gauges[name].value}")
        for name in sorted(self._histograms):
            hist = self._histograms[name]
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, count in zip(hist.bounds, hist.counts):
                cumulative += count
                lines.append(f'{name}_bucket{{le="{bound:g}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {hist.total}')
            lines.append(f"{name}_sum {hist.sum}")
            lines.append(f"{name}_count {hist.total}")
        return "\n".join(lines) + ("\n" if lines else "")
