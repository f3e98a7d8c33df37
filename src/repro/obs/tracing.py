"""Spans: path-aggregated wall time and sampled request traces.

One API, :func:`span`, serves two readers (USAGE.md §11 and §16).

**Every span aggregates.**  A span records its wall time under its
*path* — the names of the spans open around it on the same thread or
task, joined by ``/`` — in one process table (count / total / min /
max), so :func:`snapshot` reads like a profile of the call tree the run
actually executed: ``figure1/bw10/ttp`` is one grid cell of the Figure 1
sweep, ``service/batch/engine/exact`` the exact test under a served
batch.  Snapshots are plain picklable dicts, mirroring
:mod:`repro.obs.metrics`: worker processes snapshot, the parent
:func:`merge`\\ s, and run manifests carry the result as ``spans``.

**Sampled spans also trace.**  One served admission request crosses four
components — the HTTP server, the micro-batcher, the admission engine,
and the cache tier — and a p99 regression is invisible in aggregate
counters because each component only sees its own slice.  Every sampled
request gets a **trace**: a tree of timed spans with a shared
``trace_id``, annotated with the facts that matter for triage (batch
size, cache hits/misses, candidates), collected in a ring buffer served
at ``/v1/traces`` and optionally appended to a JSONL sink.  A span opened
while a trace node is current becomes its child, timed by the same clock
reading that feeds the table.

Design contract (same as :mod:`repro.obs.metrics`): **spans never change
results**.  They observe; they carry no state any decision reads.  The
``admission_tracing_equiv`` fuzz property pins decisions bit-identical
with tracing off, sampled, or fully on.

Propagation has two legs:

* On one thread or task, the current *frame* — the aggregation path plus
  the trace node, if any — lives in one :class:`contextvars.ContextVar`,
  so paths never leak across threads.
* Into a micro-batch: the batcher's flush is an event-loop callback
  outside every request's task, so the server hands its request span to
  :meth:`~repro.service.batcher.MicroBatcher.submit` explicitly and the
  flush installs a :class:`SpanGroup` — one batch may serve many
  traces, and the batch span it opens is a *shared node* attached to
  every sampled member (same ``span_id`` in each tree, so a reader can
  tell amortized work from per-request work).

Sampling is deterministic systematic sampling (an accumulator, not a
RNG): rate 0.5 traces every second request, 1.0 every request, 0.0 none.
Root spans whose duration exceeds ``slow_threshold_s`` are additionally
logged with their full span tree — the slow-request log.

Cost: the service traces every request by default, so a span is one
record.  The object a ``with span(...)`` statement opens *is* the trace
node when one is current; it reads ``perf_counter`` once on entry (its
``start_ts`` is that reading on the process's wall-clock anchor, so a
shared node shows one ``start_ts`` in every tree), keeps the ``attrs``
it was given without copying them, and gets a ``children`` list only
when its first child arrives.  The aggregation path is a node of a
process-wide path tree, found by one dict lookup per span, so no path
string is built after a path's first execution.  Each span takes the
table lock once, on exit.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs import logging as obslog
from repro.obs import metrics as _metrics

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "SpanStats",
    "Span",
    "SpanGroup",
    "Tracer",
    "span",
    "snapshot",
    "merge",
    "reset",
    "current",
    "use",
    "release",
    "annotate",
    "add",
]

_LOG = obslog.get_logger("repro.obs.tracing")

#: Version tag on every serialized trace; bump on structural changes.
TRACE_SCHEMA_VERSION = 1

_perf = time.perf_counter

#: Wall-clock time of ``perf_counter``'s zero, read once per process: a
#: span's ``start_ts`` is this plus its ``perf_counter`` start, so every
#: span of a process sits on one timeline without a ``time.time()`` call
#: per span.
_EPOCH = time.time() - _perf()

#: Process-wide span-id allocator (unique per process; a shared fan-out
#: span keeps one id across every trace it appears in — that identity is
#: how a reader recognizes amortized batch work).
_SPAN_IDS = itertools.count(1)

_M_SAMPLED = _metrics.counter("trace.sampled")
_M_FINISHED = _metrics.counter("trace.finished")
_M_SLOW = _metrics.counter("trace.slow")


@dataclass
class SpanStats:
    """Aggregated wall time of every execution of one span path."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = float("-inf")

    def record(self, seconds: float) -> None:
        """Account one execution of the span."""
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def to_dict(self) -> dict:
        """Snapshot form: count / total / min / max / mean seconds."""
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else None,
            "max_s": self.max_s if self.count else None,
            "mean_s": self.total_s / self.count if self.count else 0.0,
        }


class _Path:
    """One aggregation path: its stats and the paths one name below it.

    ``kids`` caches ``name -> _Path`` so an open span finds its path by
    one dict lookup; the path string is built once, when the path is
    first reached.
    """

    __slots__ = ("path", "stats", "kids")

    def __init__(self, path: str):
        self.path = path
        self.stats = SpanStats()
        self.kids: dict[str, _Path] = {}

    def kid(self, name: str) -> "_Path":
        """The path ``name`` nests under this one (created on first use)."""
        node = self.kids.get(name)
        if node is None:
            node = self.kids[name] = _path_at(
                f"{self.path}/{name}" if self.path else name
            )
        return node


#: The process table: span path -> :class:`_Path`, guarded by
#: ``_TABLE_LOCK``: spans may close on a server's event-loop thread
#: (``runner top --spawn`` and the service tests run one beside the
#: caller's thread) while another thread snapshots.  Paths are never
#: removed (:func:`reset` zeroes their stats), so a cached ``_Path``
#: stays the table's.
_TABLE: dict[str, _Path] = {}
_TABLE_LOCK = threading.Lock()
_ROOT = _TABLE[""] = _Path("")


def _path_at(path: str) -> _Path:
    """The table's node for ``path`` (created on first use)."""
    node = _TABLE.get(path)
    if node is None:
        with _TABLE_LOCK:
            node = _TABLE.get(path)
            if node is None:
                node = _TABLE[path] = _Path(path)
    return node


#: The current frame on this thread/task: ``(path, node)``, where
#: ``path`` is the :class:`_Path` new spans nest under and ``node`` the
#: trace :class:`Span` or :class:`SpanGroup` they attach to (``None``
#: when nothing is traced).
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_span", default=(_ROOT, None)
)


class Span:
    """One timed, attributed node of a trace tree.

    ``trace_id`` is set on root spans only; children identify through
    their tree position.  ``duration_s`` is filled by whoever owns the
    span's lifetime (:func:`span` or :meth:`Tracer.finish`).  ``attrs``
    is kept as given, not copied: the span owns the dict from then on.
    ``children`` reads as a list; a span allocates one only when its
    first child arrives.
    """

    __slots__ = (
        "name",
        "span_id",
        "trace_id",
        "duration_s",
        "attrs",
        "_children",
        "_t0",
    )

    def __init__(self, name: str, attrs: dict | None = None, trace_id=None):
        self.name = name
        self.span_id = next(_SPAN_IDS)
        self.trace_id = trace_id
        self.duration_s = 0.0
        self.attrs = {} if attrs is None else attrs
        self._children = None
        self._t0 = _perf()

    @property
    def start_ts(self) -> float:
        """Wall-clock start, seconds since the epoch."""
        return _EPOCH + self._t0

    @property
    def children(self) -> list:
        """The child spans, in the order they were opened (read-only)."""
        children = self._children
        return [] if children is None else children

    def _attach(self, child: "Span") -> None:
        children = self._children
        if children is None:
            self._children = [child]
        else:
            children.append(child)

    def child(self, name: str, **attrs) -> "Span":
        """Create and attach a child span (duration set by the caller)."""
        span = Span(name, attrs)
        self._attach(span)
        return span

    def add(self, counts: dict) -> None:
        """Accumulate numeric attributes (cache hit tallies and the like)."""
        attrs = self.attrs
        for key, value in counts.items():
            attrs[key] = attrs.get(key, 0) + value

    def _update(self, attrs: dict) -> None:
        self.attrs.update(attrs)

    def to_dict(self) -> dict:
        """The span subtree as plain JSON-serializable data."""
        out = {
            "name": self.name,
            "span_id": self.span_id,
            "start_ts": _EPOCH + self._t0,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }
        if self._children:
            out["spans"] = [child.to_dict() for child in self._children]
        return out

    def trace_dict(self) -> dict:
        """Root-span form: the whole trace with its envelope."""
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            **self.to_dict(),
        }


class SpanGroup:
    """Fan-out target: one batch execution serving many traces.

    A child created on the group is a **single shared span** appended to
    every member's children — honest about amortization (each trace sees
    the same node with the same timing) without per-member duplication
    of the batch/engine/cache work records.
    """

    __slots__ = ("members",)

    def __init__(self, members: list[Span]):
        self.members = members

    def _attach(self, child: Span) -> None:
        for member in self.members:
            member._attach(child)

    def child(self, name: str, **attrs) -> Span:
        """One shared child span attached to every member."""
        span = Span(name, attrs)
        self._attach(span)
        return span

    def add(self, counts: dict) -> None:
        """Accumulate numeric attributes on every member."""
        for member in self.members:
            member.add(counts)

    def _update(self, attrs: dict) -> None:
        for member in self.members:
            member.attrs.update(attrs)


class Tracer:
    """Sampling, the trace ring buffer, and the sinks.

    Args:
        sample_rate: fraction of requests traced, in ``[0, 1]``;
            systematic (deterministic), not random.
        buffer_size: how many finished traces ``/v1/traces`` retains.
        jsonl_path: when set, every finished trace is appended to this
            file as one JSON line.
        slow_threshold_s: root spans slower than this are logged with
            their full span tree; ``0`` disables the slow-request log.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        *,
        buffer_size: int = 256,
        jsonl_path: str | None = None,
        slow_threshold_s: float = 0.0,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigurationError(
                f"sample_rate must be within [0, 1], got {sample_rate!r}"
            )
        if buffer_size < 1:
            raise ConfigurationError(
                f"buffer_size must be at least 1, got {buffer_size!r}"
            )
        if slow_threshold_s < 0:
            raise ConfigurationError(
                f"slow_threshold_s must be non-negative, got "
                f"{slow_threshold_s!r}"
            )
        self.sample_rate = float(sample_rate)
        self.slow_threshold_s = float(slow_threshold_s)
        self.jsonl_path = jsonl_path
        self._jsonl_handle = None
        # Appends and list() of a deque are atomic, so the buffer needs
        # no lock of its own; ``_lock`` guards the sampling accumulator
        # and the JSONL sink.
        self._buffer: deque = deque(maxlen=int(buffer_size))
        self._lock = threading.Lock()
        self._acc = 0.0
        self._ids = itertools.count(1)
        # Random prefix so trace ids from different processes (or two
        # servers in one process) cannot collide in a shared log.
        self._prefix = os.urandom(4).hex()

    def begin(self, name: str, **attrs) -> Span | None:
        """Start a root span, or ``None`` when this request is unsampled."""
        rate = self.sample_rate
        if rate < 1.0:
            # At rate 1.0 the accumulator would step 0 -> 1 -> 0 on every
            # request, so only fractional rates read it.
            if rate <= 0.0:
                return None
            with self._lock:
                self._acc += rate
                if self._acc < 1.0:
                    return None
                self._acc -= 1.0
        _M_SAMPLED.inc()
        return Span(name, attrs, f"{self._prefix}{next(self._ids):010x}")

    def finish(self, span: Span | None, duration_s: float | None = None) -> None:
        """Complete a root span: time it, buffer it, feed the sinks."""
        if span is None:
            return
        span.duration_s = (
            duration_s if duration_s is not None else _perf() - span._t0
        )
        _M_FINISHED.inc()
        if self.jsonl_path is None:
            self._buffer.append(span)
        else:
            document = span.trace_dict()
            with self._lock:
                self._buffer.append(span)
                if self._jsonl_handle is None:
                    self._jsonl_handle = open(
                        self.jsonl_path, "a", encoding="utf-8"
                    )
                json.dump(document, self._jsonl_handle, separators=(",", ":"))
                self._jsonl_handle.write("\n")
                self._jsonl_handle.flush()
        if self.slow_threshold_s and span.duration_s > self.slow_threshold_s:
            _M_SLOW.inc()
            _LOG.warning(
                "slow request %s: %.1f ms > %.1f ms threshold (%s)",
                span.trace_id,
                span.duration_s * 1e3,
                self.slow_threshold_s * 1e3,
                span.name,
                extra={
                    "trace_id": span.trace_id,
                    "trace": span.trace_dict(),
                },
            )

    def recent(self, limit: int | None = None) -> list[dict]:
        """The newest finished traces, oldest first, as plain dicts."""
        spans = list(self._buffer)
        if limit is not None and limit > 0:
            spans = spans[-limit:]
        return [span.trace_dict() for span in spans]

    def close(self) -> None:
        """Flush and close the JSONL sink (idempotent)."""
        with self._lock:
            if self._jsonl_handle is not None:
                self._jsonl_handle.close()
                self._jsonl_handle = None


# -- spans ----------------------------------------------------------------------


class _SpanContext(Span):
    """One execution of :func:`span`: the context manager and, when a
    trace node is current, the trace node itself (one record per span).

    Until it is entered under a trace node it carries only its name and
    attrs; an untraced execution never sets the trace slots.
    """

    __slots__ = ("_path", "_token")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> Span | None:
        path, parent = _CURRENT.get()
        self._path = node = path.kid(self.name)
        if parent is None:
            self._token = _CURRENT.set((node, None))
            self._t0 = _perf()
            return None
        self.span_id = next(_SPAN_IDS)
        self.trace_id = None
        self.duration_s = 0.0
        self._children = None
        parent._attach(self)
        self._token = _CURRENT.set((node, self))
        self._t0 = _perf()
        return self

    def __exit__(self, *exc_info):
        self.duration_s = elapsed = _perf() - self._t0
        _CURRENT.reset(self._token)
        # The token holds the enclosing frame, whose trace node holds
        # this span: drop it so a finished trace is no reference cycle.
        self._token = None
        _TABLE_LOCK.acquire()  # about half the cost of a ``with`` block
        try:
            self._path.stats.record(elapsed)
        finally:
            _TABLE_LOCK.release()
        return False


def span(name: str, **attrs):
    """Time a region under ``name``, nested below the current span.

    Usable around any unit of work::

        with tracing.span("figure1/bw10/ttp"):
            ...

    The elapsed time is always recorded under the span's path.  When a
    trace node is current the span also becomes its child (``attrs`` are
    its trace attributes) and the ``with`` target is that child; under a
    :class:`SpanGroup` (a micro-batch) it is one shared node attached
    to every member trace.  Untraced, the target is ``None``.
    """
    return _SpanContext(name, attrs)


def snapshot() -> dict:
    """Every span path as a plain picklable ``{path: dict}`` mapping."""
    with _TABLE_LOCK:
        return {
            path: node.stats.to_dict()
            for path, node in sorted(_TABLE.items())
            if node.stats.count
        }


def merge(snap: dict) -> None:
    """Fold a :func:`snapshot` (e.g. from a worker process) into the
    process table: counts and totals add, min/max combine."""
    for path, data in snap.items():
        if not data["count"]:
            continue
        node = _path_at(path)
        with _TABLE_LOCK:
            stats = node.stats
            stats.count += data["count"]
            stats.total_s += data["total_s"]
            stats.min_s = min(stats.min_s, data["min_s"])
            stats.max_s = max(stats.max_s, data["max_s"])


def reset() -> None:
    """Zero every recorded path (open spans still record on exit)."""
    with _TABLE_LOCK:
        for node in _TABLE.values():
            node.stats = SpanStats()


# -- context propagation --------------------------------------------------------


def current() -> Span | SpanGroup | None:
    """The trace node (span or fan-out group) current on this thread/task."""
    return _CURRENT.get()[1]


def use(node: Span | SpanGroup | None, path: str | None = None):
    """Install ``node`` as the current trace node; returns the reset token.

    ``path`` replaces the aggregation path new spans nest under; by
    default the current one is kept.
    """
    if path is None:
        return _CURRENT.set((_CURRENT.get()[0], node))
    return _CURRENT.set((_path_at(path), node))


def release(token) -> None:
    """Undo a :func:`use`."""
    _CURRENT.reset(token)


def annotate(**attrs) -> None:
    """Set attributes on the current trace node (no-op when untraced)."""
    target = _CURRENT.get()[1]
    if target is not None:
        target._update(attrs)


def add(**counts) -> None:
    """Accumulate numeric attributes on the current trace node.

    The cache tier calls this once per lookup — ``add(cache_hits=1)`` —
    so a span wrapping many lookups ends up with honest totals without
    one span per lookup.
    """
    target = _CURRENT.get()[1]
    if target is None:
        return
    target.add(counts)
