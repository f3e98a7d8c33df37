"""A lightweight in-process metrics registry: counters, gauges, histograms.

The hot paths of this library — the exact-test structure cache, the
lockstep batched bisection, the Monte Carlo sampler, the simulators — are
instrumented with named metrics so a run can report *what it did* (cache
hit rates, probe counts, degenerate workloads, token visits) alongside
what it computed.  Three design rules keep this safe to leave in
production code:

* **Metrics never feed back into results.**  Reading or writing a metric
  cannot change a computed value; every experiment stays bit-identical
  with metrics enabled, disabled, or absent.
* **Updates are O(1) and batched.**  Instrumentation points increment
  once per cache lookup, per batched probe call, or per simulation run —
  never inside a numeric inner loop — so the overhead is unmeasurable
  next to the work being counted.  :func:`disable` short-circuits even
  those updates.
* **Snapshots are mergeable.**  :meth:`MetricsRegistry.snapshot` returns
  a plain picklable dict and :meth:`MetricsRegistry.merge` folds one
  registry's totals into another, which is how per-worker metrics from
  :func:`repro.experiments.parallel.parallel_map` are combined into the
  parent process: counters and histogram mass add, gauges keep their
  maximum.

Histograms optionally carry **fixed buckets** (upper bounds, ``le``
semantics, plus an implicit overflow bucket): :func:`histogram` with
``buckets=...`` gives a streaming distribution that merges exactly
across worker processes and renders as a native Prometheus histogram
(:mod:`repro.obs.prometheus`).  ``observe(value, exemplar=...)``
attaches a trace id to the bucket the observation landed in, so the
exposition can point from a slow bucket straight at a concrete trace.

Every mutation and every snapshot/merge/reset takes the registry's
re-entrant lock, so a snapshot is **atomic**: a reader never sees a
counter/histogram pair mid-update (the server's ``/metrics`` handler
relies on this, and writers group related updates under
:meth:`MetricsRegistry.hold`).

Metric objects are singletons per name within a registry:
:func:`counter`, :func:`gauge`, and :func:`histogram` return the same
object for the same name, so modules can bind them at import time and
:meth:`MetricsRegistry.reset` zeroes values *in place* without
invalidating those references.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "bucket_quantile",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "enable",
    "disable",
    "snapshot",
    "merge",
    "reset",
]

#: Default bounds for request-latency histograms (seconds, ``le``).
#: Spanning 0.5 ms to 2.5 s covers a cached check (~1 ms) through a
#: saturated drain; the overflow bucket catches pathology.
DEFAULT_LATENCY_BUCKETS_S = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


@dataclass
class Counter:
    """A monotonically increasing count (events, hits, probes)."""

    name: str
    value: float = 0.0
    _registry: "MetricsRegistry | None" = field(
        default=None, repr=False, compare=False
    )

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter increments must be non-negative, got {amount!r}"
            )
        registry = self._registry
        if registry is None:
            self.value += amount
        elif registry.enabled:
            # acquire/release: about half the cost of a ``with`` block
            # on the per-request path.
            lock = registry._lock
            lock.acquire()
            try:
                self.value += amount
            finally:
                lock.release()

    def to_dict(self) -> dict:
        """Snapshot form: ``{"type": "counter", "value": ...}``."""
        return {"type": "counter", "value": self.value}


@dataclass
class Gauge:
    """A point-in-time level (cache size, queue depth)."""

    name: str
    value: float = 0.0
    _registry: "MetricsRegistry | None" = field(
        default=None, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        """Record the current level."""
        registry = self._registry
        if registry is None:
            self.value = float(value)
        elif registry.enabled:
            lock = registry._lock
            lock.acquire()
            try:
                self.value = float(value)
            finally:
                lock.release()

    def to_dict(self) -> dict:
        """Snapshot form: ``{"type": "gauge", "value": ...}``."""
        return {"type": "gauge", "value": self.value}


@dataclass
class Histogram:
    """Streaming summary of an observed distribution.

    Keeps count / sum / sum-of-squares / min / max — enough for the mean
    and variance and for exact merging across worker processes, without
    storing samples.  With ``bucket_bounds`` set (see
    :meth:`MetricsRegistry.histogram`) it additionally keeps
    non-cumulative per-bucket counts (``le`` upper bounds plus one
    overflow bucket) and, per bucket, the last exemplar — a
    ``(trace_id, value)`` pair naming one concrete observation.
    """

    name: str
    count: int = 0
    total: float = 0.0
    sum_squares: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    bucket_bounds: tuple = ()
    bucket_counts: list = field(default_factory=list)
    exemplars: dict = field(default_factory=dict)
    _registry: "MetricsRegistry | None" = field(
        default=None, repr=False, compare=False
    )

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Account one observation (optionally tagged with a trace id)."""
        registry = self._registry
        if registry is not None and not registry.enabled:
            return
        value = float(value)
        lock = registry._lock if registry is not None else None
        if lock is not None:
            lock.acquire()
        try:
            self.count += 1
            self.total += value
            self.sum_squares += value * value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
            if self.bucket_bounds:
                index = bisect_left(self.bucket_bounds, value)
                self.bucket_counts[index] += 1
                if exemplar is not None:
                    self.exemplars[index] = (str(exemplar), value)
        finally:
            if lock is not None:
                lock.release()

    @property
    def mean(self) -> float:
        """Mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Bucket-interpolated quantile (None when empty or unbucketed)."""
        if not self.bucket_bounds:
            return None
        return bucket_quantile(self.bucket_bounds, self.bucket_counts, q)

    def to_dict(self) -> dict:
        """Snapshot form with count/total/min/max/mean (+ buckets)."""
        out = {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "sum_squares": self.sum_squares,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
        }
        if self.bucket_bounds:
            out["buckets"] = {
                "bounds": list(self.bucket_bounds),
                "counts": list(self.bucket_counts),
                "exemplars": {
                    str(index): [trace_id, value]
                    for index, (trace_id, value) in sorted(
                        self.exemplars.items()
                    )
                },
            }
        return out


def _normalize_bounds(buckets) -> tuple:
    bounds = tuple(float(b) for b in buckets)
    if not bounds:
        raise ConfigurationError("bucket bounds must be non-empty")
    if any(b >= c for b, c in zip(bounds, bounds[1:])):
        raise ConfigurationError(
            f"bucket bounds must be strictly increasing, got {bounds!r}"
        )
    return bounds


def bucket_quantile(bounds, counts, q: float) -> float | None:
    """Estimate the ``q``-quantile from non-cumulative bucket counts.

    Linear interpolation within the containing bucket (the first bucket
    interpolates from 0, the overflow bucket reports its lower bound —
    the histogram cannot know how far past the last bound mass sits).
    Returns ``None`` on an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be within [0, 1], got {q!r}")
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0.0
    for index, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank and count:
            if index >= len(bounds):
                return float(bounds[-1])
            low = bounds[index - 1] if index else 0.0
            high = bounds[index]
            inside = rank - (cumulative - count)
            return float(low + (high - low) * (inside / count))
    return float(bounds[-1])


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    One process-global instance (see :func:`registry`) serves the whole
    library; isolated instances are useful in tests.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        # Re-entrant: a writer holding the lock via hold() still updates
        # individual metrics (which lock per-update) without deadlock.
        self._lock = threading.RLock()

    def hold(self):
        """The registry lock, for grouping related updates atomically.

        A reader snapshotting concurrently sees either none or all of a
        group — the server's batch counter and batch-size histogram can
        never be observed torn::

            with registry.hold():
                batches.inc()
                batch_size.observe(n)
        """
        return self._lock

    def _get_or_create(self, name: str, cls, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}"
                    )
                return existing
            metric = cls(name=name, **kwargs)
            metric._registry = self
            self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, buckets=None) -> Histogram:
        """The histogram named ``name`` (created on first use).

        ``buckets`` (strictly increasing upper bounds) turns on bucket
        accounting.  Bounds may be attached to an existing empty
        histogram, but never changed once set or once observations
        exist — merged snapshots must always agree on the layout.
        """
        hist = self._get_or_create(name, Histogram)
        if buckets is not None:
            bounds = _normalize_bounds(buckets)
            with self._lock:
                if hist.bucket_bounds:
                    if hist.bucket_bounds != bounds:
                        raise ConfigurationError(
                            f"histogram {name!r} already has bounds "
                            f"{hist.bucket_bounds!r}; cannot change to "
                            f"{bounds!r}"
                        )
                elif hist.count:
                    raise ConfigurationError(
                        f"histogram {name!r} already holds {hist.count} "
                        "unbucketed observations; cannot attach bounds"
                    )
                else:
                    hist.bucket_bounds = bounds
                    hist.bucket_counts = [0] * (len(bounds) + 1)
        return hist

    def snapshot(self, prefix: str | tuple[str, ...] | None = None) -> dict:
        """All metrics as a plain picklable ``{name: dict}`` mapping.

        Metrics still at their zero state are skipped, so a snapshot
        reflects only what a run actually touched.  ``prefix`` restricts
        the snapshot to names starting with the given prefix (or any of a
        tuple of prefixes) — the admission service's ``/metrics``
        endpoint uses this to report its own ``service.*`` family without
        shipping the whole registry.  The registry lock is held for the
        whole pass: the result is a consistent point-in-time cut.
        """
        out: dict[str, dict] = {}
        with self._lock:
            for name, metric in sorted(self._metrics.items()):
                if prefix is not None and not name.startswith(prefix):
                    continue
                if isinstance(metric, (Counter, Gauge)) and metric.value == 0.0:
                    continue
                if isinstance(metric, Histogram) and metric.count == 0:
                    continue
                out[name] = metric.to_dict()
        return out

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histogram mass (including bucket counts) add;
        gauges keep the maximum of the two levels (the only
        order-independent combination for levels observed in different
        processes); exemplars keep the incoming snapshot's (last writer
        wins — any concrete trace id is as good as another).
        """
        with self._lock:
            for name, data in snap.items():
                kind = data.get("type")
                if kind == "counter":
                    self.counter(name).value += data["value"]
                elif kind == "gauge":
                    gauge = self.gauge(name)
                    gauge.value = max(gauge.value, data["value"])
                elif kind == "histogram":
                    buckets = data.get("buckets")
                    hist = self.histogram(
                        name,
                        buckets=buckets["bounds"] if buckets else None,
                    )
                    if not data["count"]:
                        continue
                    hist.count += data["count"]
                    hist.total += data["total"]
                    hist.sum_squares += data["sum_squares"]
                    hist.minimum = min(hist.minimum, data["min"])
                    hist.maximum = max(hist.maximum, data["max"])
                    if buckets:
                        if tuple(buckets["bounds"]) != hist.bucket_bounds:
                            raise ConfigurationError(
                                f"histogram {name!r} bucket bounds differ "
                                "between snapshot and registry; cannot merge"
                            )
                        for index, count in enumerate(buckets["counts"]):
                            hist.bucket_counts[index] += count
                        for index, exemplar in buckets.get(
                            "exemplars", {}
                        ).items():
                            hist.exemplars[int(index)] = tuple(exemplar)
                else:
                    raise ConfigurationError(
                        f"cannot merge metric {name!r} of unknown type {kind!r}"
                    )

    def reset(self) -> None:
        """Zero every metric **in place** (references stay valid)."""
        with self._lock:
            for metric in self._metrics.values():
                if isinstance(metric, Counter):
                    metric.value = 0.0
                elif isinstance(metric, Gauge):
                    metric.value = 0.0
                else:
                    metric.count = 0
                    metric.total = 0.0
                    metric.sum_squares = 0.0
                    metric.minimum = float("inf")
                    metric.maximum = float("-inf")
                    metric.bucket_counts = [0] * len(metric.bucket_counts)
                    metric.exemplars.clear()


#: The process-global registry used by all library instrumentation.
_GLOBAL = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _GLOBAL


def counter(name: str) -> Counter:
    """The global counter named ``name``."""
    return _GLOBAL.counter(name)


def gauge(name: str) -> Gauge:
    """The global gauge named ``name``."""
    return _GLOBAL.gauge(name)


def histogram(name: str, buckets=None) -> Histogram:
    """The global histogram named ``name``."""
    return _GLOBAL.histogram(name, buckets=buckets)


def enable() -> None:
    """Turn global metric collection on (the default)."""
    _GLOBAL.enabled = True


def disable() -> None:
    """Turn global metric collection off: updates become no-ops."""
    _GLOBAL.enabled = False


def snapshot(prefix: str | tuple[str, ...] | None = None) -> dict:
    """Snapshot of the global registry (optionally prefix-filtered)."""
    return _GLOBAL.snapshot(prefix)


def merge(snap: dict) -> None:
    """Merge a snapshot into the global registry."""
    _GLOBAL.merge(snap)


def reset() -> None:
    """Zero the global registry in place."""
    _GLOBAL.reset()
