"""Process-parallel execution of experiment grids.

Every experiment in this reproduction is a grid of independent cells —
Figure 1 alone is 16 bandwidths × 3 protocols.  A cell depends only on
its task and the shared context: the sweep draws its workload population
once, before the grid, and every cell evaluates that same population
(paired sampling), so cells can run in any order on any worker and
produce results identical to the sequential loop.  :func:`parallel_map`
exploits that: it fans a list of picklable tasks across a
:class:`ProcessPoolExecutor` and returns results in task order.

The shared context (typically a
:class:`~repro.experiments.config.PaperParameters`, plus the sweep's
prepared population) is shipped to each worker once, through the pool
initializer, rather than per task; within a worker it persists across
cells, so the population's prepared exact-test state and each set's
memoised rate-monotonic order keep working there too.

With ``jobs=1`` (the default) no pool is created at all — the tasks run
inline in the calling process, which preserves single-process profiling
and keeps the sequential path free of pickling constraints.

Interrupts degrade gracefully: Ctrl-C — or a SIGTERM, which is routed
through ``KeyboardInterrupt`` while the pool is active — cancels the
cells that have not started, lets in-flight cells finish, merges the
finished cells' metric/span snapshots into the parent registries, and
re-raises, so the runner can still write a partial run manifest saying
exactly what completed.

Observability rides along transparently (and never changes results):

* each worker resets its process-global metrics registry and span
  table (:mod:`repro.obs.tracing`) before a task, runs the cell, and
  ships the task's snapshots back with the result; the parent
  **merges** them, so the merged totals of any partitioning-invariant
  metric (probe counts, degenerate sets, per-cell spans) equal the
  single-process run's — the inline path needs no merging because cells
  update the parent registry directly;
* cell completions are logged live at INFO on the
  ``repro.experiments.parallel`` logger (enable with the runner's
  ``--log-level info``), in completion order for pools and in task order
  inline, so long grids show progress instead of minutes of silence.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.obs import logging as obslog
from repro.obs import metrics, tracing

__all__ = ["parallel_map", "resolve_jobs", "assert_compact_tasks"]

_S = TypeVar("_S")
_T = TypeVar("_T")
_R = TypeVar("_R")

_LOG = obslog.get_logger("experiments.parallel")

#: Per-worker state installed by the pool initializer: the cell function
#: and the shared context, unpickled exactly once per worker process.
_WORKER_STATE: dict = {}


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None -> 1, 0 -> all cores."""
    if jobs is None:
        return 1
    count = int(jobs)
    if count < 0:
        raise ConfigurationError(f"jobs must be non-negative, got {jobs!r}")
    if count == 0:
        return os.cpu_count() or 1
    return count


def assert_compact_tasks(tasks: "Sequence[object]") -> None:
    """Reject task lists that pickle stream-object payloads per worker.

    Populations travel once per worker in the shared context, so tasks
    should be compact specs — seeds, chunk indices, grid coordinates,
    array columns — never materialized
    :class:`~repro.messages.message_set.MessageSet` /
    :class:`~repro.messages.stream.SynchronousStream` collections, whose
    per-task pickling once dominated worker start-up at large stream
    counts.  Checks each task and one container level inside it; raises
    :class:`~repro.errors.ConfigurationError` on a violation.  Enforced
    by :func:`parallel_map` whenever a pool (and therefore pickling) is
    actually about to be used.
    """
    from repro.messages.message_set import MessageSet
    from repro.messages.stream import SynchronousStream

    heavy = (MessageSet, SynchronousStream)

    def _offending(value: object) -> str | None:
        if isinstance(value, heavy):
            return type(value).__name__
        if isinstance(value, (list, tuple, set, frozenset)):
            for item in value:
                if isinstance(item, heavy):
                    return type(item).__name__
        elif isinstance(value, dict):
            for item in value.values():
                if isinstance(item, heavy):
                    return type(item).__name__
        return None

    for index, task in enumerate(tasks):
        name = _offending(task)
        if name is not None:
            raise ConfigurationError(
                f"task {index} carries a {name}; ship a compact spec "
                "(seed, chunk index, array columns) and rebuild the "
                "message sets inside the worker instead of pickling "
                "stream objects per task"
            )


def _worker_init(fn: Callable, shared: object) -> None:
    _WORKER_STATE["fn"] = fn
    _WORKER_STATE["shared"] = shared


def _worker_call(task: object) -> tuple:
    # Reset before (not after) the task: a forked worker inherits the
    # parent's accumulated metrics and spans, which must not be
    # double-counted when this task's snapshots are merged back.  It also
    # inherits the submitting thread's open span path, so cell spans keep
    # the paths the inline run records.
    metrics.registry().reset()
    tracing.reset()
    result = _WORKER_STATE["fn"](_WORKER_STATE["shared"], task)
    return result, metrics.snapshot(), tracing.snapshot()


def parallel_map(
    fn: "Callable[[_S, _T], _R]",
    tasks: "Iterable[_T]",
    *,
    shared: "_S" = None,
    jobs: int | None = 1,
    label: str | None = None,
) -> "list[_R]":
    """``[fn(shared, task) for task in tasks]``, optionally across processes.

    Args:
        fn: the cell function.  Must be a module-level callable when
            ``jobs > 1`` (workers import it by qualified name).
        tasks: picklable task descriptions, one per cell.
        shared: context passed as the first argument of every call; sent
            to each worker once via the pool initializer.
        jobs: worker processes; 1 runs inline, 0 means all cores.
        label: grid name used in progress log lines (defaults to the
            cell function's name).

    Results come back in task order regardless of completion order, so
    callers see exactly the sequential semantics.  Worker metrics and
    spans are merged into this process's metrics registry and span table.
    """
    task_list = list(tasks)
    n_jobs = resolve_jobs(jobs)
    name = label or getattr(fn, "__name__", "cells")
    total = len(task_list)
    if n_jobs > 1 and total > 1 and (os.cpu_count() or 1) == 1:
        # A pool of workers on one core only adds fork/pickle overhead;
        # run inline (results are identical either way — see above).
        _LOG.info(
            "%s: single-core machine; running %d requested jobs inline",
            name,
            n_jobs,
            extra={"grid": name, "requested_jobs": n_jobs},
        )
        n_jobs = 1
    if n_jobs <= 1 or total <= 1:
        results = []
        for index, task in enumerate(task_list):
            started = time.perf_counter()
            results.append(fn(shared, task))
            _LOG.info(
                "%s: cell %d/%d done in %.2fs",
                name,
                index + 1,
                total,
                time.perf_counter() - started,
                extra={"grid": name, "done": index + 1, "total": total},
            )
        return results
    assert_compact_tasks(task_list)
    with ProcessPoolExecutor(
        max_workers=min(n_jobs, total),
        initializer=_worker_init,
        initargs=(fn, shared),
    ) as pool:
        futures = [pool.submit(_worker_call, task) for task in task_list]
        pending = set(futures)
        done_count = 0
        previous_term = _sigterm_as_interrupt()
        try:
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                done_count += len(finished)
                _LOG.info(
                    "%s: %d/%d cells done",
                    name,
                    done_count,
                    total,
                    extra={"grid": name, "done": done_count, "total": total},
                )
        except KeyboardInterrupt:
            # Graceful abort: drop what hasn't started, let in-flight
            # cells finish (a worker cannot be stopped mid-cell without
            # killing it), and keep the completed cells' observability so
            # the partial manifest still says what ran.
            cancelled = sum(1 for future in futures if future.cancel())
            _LOG.warning(
                "%s: interrupted with %d/%d cells done; cancelled %d queued",
                name,
                done_count,
                total,
                cancelled,
                extra={
                    "grid": name,
                    "done": done_count,
                    "total": total,
                    "cancelled": cancelled,
                },
            )
            _merge_completed(futures)
            raise
        finally:
            if previous_term is not None:
                signal.signal(signal.SIGTERM, previous_term)
        results = []
        for future in futures:
            result, metric_snap, span_snap = future.result()
            metrics.merge(metric_snap)
            tracing.merge(span_snap)
            results.append(result)
        return results


def _sigterm_as_interrupt():
    """Route SIGTERM through KeyboardInterrupt while a pool is active.

    ``kill <runner pid>`` then takes the same graceful-abort path as
    Ctrl-C (cancel queued cells, merge finished snapshots, partial
    manifest).  Returns the previous handler, or None when one cannot be
    installed (non-main thread, unsupported platform) — callers restore
    it iff non-None.
    """
    if threading.current_thread() is not threading.main_thread():
        return None

    def _handler(signum, frame):
        raise KeyboardInterrupt

    try:
        return signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        return None


def _merge_completed(futures) -> None:
    """Fold the snapshots of every successfully finished cell into the
    parent registries (used on the interrupt path, where only some
    futures have results)."""
    for future in futures:
        if future.done() and not future.cancelled() and future.exception() is None:
            _result, metric_snap, span_snap = future.result()
            metrics.merge(metric_snap)
            tracing.merge(span_snap)
