"""Labeled counters, gauges and histograms on the simulated clock.

A :class:`MetricsRegistry` is the time-series side of
:mod:`repro.telemetry`: where the tracer records *what happened*, the
registry records *how the system looked* while it happened — queue
depth, free devices, budget headroom, served/violated counts, latency
distributions — all sampled at event instants on the simulated clock,
so a metrics stream is exactly as deterministic as the run it observed.

Design constraints, in order:

* **bounded** — gauges keep a ring buffer of their last
  ``series_maxlen`` ``(t_ms, value)`` samples (a 1M-request replay
  sampling queue depth per batch event must not grow RSS without
  bound); counters and histograms are O(1) by construction;
* **deterministic** — ``summary()`` orders everything by (name, sorted
  labels), and nothing reads the wall clock;
* **cheap** — instruments are created once (``registry.counter(...)``
  get-or-creates) and hot paths touch plain attributes.

Labels are keyword arguments (``registry.counter("requests_served",
scope="edge-a")``); each distinct label set is its own instrument, so
a fleet run handing one registry to every site keeps per-site series
separate.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.errors import TelemetryError

#: Default histogram bucket upper bounds (ms) — log-spaced to cover
#: sub-ms batch windows through multi-second queue blowups.
DEFAULT_BUCKETS_MS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                      200.0, 500.0, 1000.0, 5000.0)


def _label_key(labels):
    return tuple(sorted(labels.items()))


def estimate_quantile(bounds, counts, count, q, hi=None):
    """Interpolated quantile from fixed-bucket counts.

    ``bounds`` are the bucket upper edges, ``counts`` the per-bucket
    tallies with the ``+Inf`` overflow bucket last (``len(bounds) + 1``
    entries), ``count`` their sum. Linear interpolation inside the
    bucket holding the q-rank assumes observations spread uniformly
    across it — the standard Prometheus ``histogram_quantile`` model.
    The overflow bucket has no finite upper edge, so ranks landing
    there interpolate toward ``hi`` (the observed max) when known and
    clamp to the last finite bound otherwise.
    """
    if not 0.0 <= q <= 1.0:
        raise TelemetryError(f"quantile {q} outside [0, 1]")
    if not count:
        return 0.0
    rank = q * count
    running = 0
    for i, n in enumerate(counts):
        if not n:
            continue
        if running + n >= rank:
            lower = bounds[i - 1] if i > 0 else 0.0
            if i < len(bounds):
                upper = bounds[i]
            elif hi is not None and hi > lower:
                upper = hi
            else:
                return bounds[-1]
            return lower + (upper - lower) * (rank - running) / n
        running += n
    # Unreachable when count == sum(counts); be safe on drifted input.
    return bounds[-1] if hi is None else hi


class Counter:
    """Monotonic event count (optionally value-weighted)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name, labels):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def summary(self):
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-value instrument with a bounded ``(t_ms, value)`` series."""

    __slots__ = ("name", "labels", "value", "t_ms", "series", "samples")

    def __init__(self, name, labels, series_maxlen):
        self.name = name
        self.labels = labels
        self.value = None
        self.t_ms = None
        self.samples = 0
        self.series = deque(maxlen=series_maxlen)

    def set(self, t_ms, value):
        self.t_ms = float(t_ms)
        self.value = value
        self.samples += 1
        self.series.append((self.t_ms, value))

    def mean(self):
        """Mean over the retained ring-buffer window."""
        if not self.series:
            return 0.0
        return math.fsum(v for _, v in self.series) / len(self.series)

    def peak(self):
        if not self.series:
            return 0.0
        return max(v for _, v in self.series)

    def summary(self):
        return {"type": "gauge", "last": self.value,
                "samples": self.samples,
                "window_mean": self.mean(), "window_peak": self.peak()}


class Histogram:
    """Fixed-bucket distribution; O(buckets) per observation."""

    __slots__ = ("name", "labels", "bounds", "bounds_arr", "counts",
                 "total", "count", "min", "max")

    def __init__(self, name, labels, bounds):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(bounds):
            raise TelemetryError(
                f"histogram {name} needs sorted, non-empty bounds")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bounds_arr = np.asarray(bounds, dtype=np.float64)
        self.counts = [0] * (len(bounds) + 1)  # +overflow
        self.total = 0.0
        self.count = 0
        self.min = None
        self.max = None

    def _bucket(self, value):
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def observe(self, value):
        value = float(value)
        self.counts[self._bucket(value)] += 1
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values):
        """Bulk :meth:`observe`, bit-identical to the per-value loop.

        One :func:`numpy.searchsorted` places every value in the bucket
        :meth:`observe` would (``side="left"`` matches its ``<=``
        bisection) and one :func:`numpy.bincount` tallies them; ``total``
        still grows strictly left-to-right, so one call over a
        concatenation equals one call per part. The replay core passes
        float64 arrays; any other iterable goes through
        :func:`numpy.fromiter` first.
        """
        if not isinstance(values, np.ndarray):
            values = np.fromiter(values, dtype=np.float64)
        if not values.size:
            return
        idx = np.searchsorted(self.bounds_arr, values, side="left")
        counts = self.counts
        for bucket, n in enumerate(
                np.bincount(idx, minlength=len(counts)).tolist()):
            counts[bucket] += n
        total = self.total
        values = values.tolist()
        for value in values:
            total += value
        self.total = total
        self.count += len(values)
        lo = min(values)
        hi = max(values)
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def quantile(self, q):
        """Bucket-resolution quantile (upper bound of the q-bucket)."""
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile {q} outside [0, 1]")
        if not self.count:
            return 0.0
        rank = q * self.count
        running = 0
        for i, n in enumerate(self.counts):
            running += n
            if running >= rank and n:
                return self.bounds[i] if i < len(self.bounds) \
                    else self.max
        return self.max

    def quantile_estimate(self, q):
        """Interpolated quantile — p99 without storing samples.

        Linear interpolation inside the bucket holding the q-rank
        (uniform-within-bucket model); the ``+Inf`` overflow bucket
        interpolates toward the exact observed ``max``, and the result
        is clamped to the observed ``[min, max]`` so a coarse first
        bucket can never report a quantile below the smallest sample.
        Exact at the edges: ``q=0`` is ``min``, ``q=1`` is ``max``.
        """
        if not self.count:
            return estimate_quantile(self.bounds, self.counts, 0, q)
        value = estimate_quantile(self.bounds, self.counts, self.count,
                                  q, hi=self.max)
        return min(max(value, self.min), self.max)

    def summary(self):
        return {"type": "histogram", "count": self.count,
                "mean": self.mean, "min": self.min, "max": self.max,
                "p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
                "buckets": dict(zip([f"le_{b:g}" for b in self.bounds]
                                    + ["inf"], self.counts))}


class MetricsRegistry:
    """Get-or-create instrument store keyed by (name, labels)."""

    def __init__(self, series_maxlen=4096):
        if series_maxlen < 1:
            raise TelemetryError("series_maxlen must be >= 1")
        self.series_maxlen = int(series_maxlen)
        self._instruments = {}

    def _get(self, cls, name, labels, factory):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = factory()
        elif not isinstance(instrument, cls):
            raise TelemetryError(
                f"{name} already registered as "
                f"{type(instrument).__name__}")
        return instrument

    def counter(self, name, **labels):
        return self._get(Counter, name, labels,
                         lambda: Counter(name, _label_key(labels)))

    def gauge(self, name, **labels):
        return self._get(Gauge, name, labels,
                         lambda: Gauge(name, _label_key(labels),
                                       self.series_maxlen))

    def histogram(self, name, bounds=DEFAULT_BUCKETS_MS, **labels):
        return self._get(Histogram, name, labels,
                         lambda: Histogram(name, _label_key(labels),
                                           bounds))

    def instruments(self):
        """(name, labels, instrument) rows in deterministic order."""
        return [(name, labels, self._instruments[(name, labels)])
                for name, labels in sorted(self._instruments)]

    def summary(self):
        """JSON-friendly deterministic dump of every instrument."""
        out = {}
        for name, labels, instrument in self.instruments():
            label_str = ",".join(f"{k}={v}" for k, v in labels)
            key = f"{name}{{{label_str}}}" if label_str else name
            out[key] = instrument.summary()
        return out
