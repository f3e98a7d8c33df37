"""Dynamic micro-batching for the admission service, on the event loop.

Concurrent requests are coalesced into one
:meth:`~repro.admission.AdmissionController.process_batch` call.
:meth:`MicroBatcher.enqueue` appends ``(op, done, span)`` to a pending
list and, if no flush is pending yet, schedules one with
``loop.call_soon``.  The flush runs on the event loop after every request
parsed in the same loop tick has been enqueued, so those requests share
one batch (sliced at ``batch_max``), and it answers each member by
calling its ``done(result)`` in arrival order — the server's ``done``
encodes the reply and writes it, with no future, no task and no further
loop tick.  :meth:`MicroBatcher.submit` is the awaitable form: a thin
wrapper whose ``done`` resolves a future.  An idle service adds no
artificial latency; under load, one stacked exact-test evaluation
amortizes over the whole tick.

Correctness is delegated entirely to the controller:
``process_batch`` serializes its operations in arrival order, so batching
is invisible in the results — only in the throughput.

Backpressure: the pending list is bounded at ``queue_limit``.
:meth:`MicroBatcher.enqueue` never waits for room; a full list raises
:class:`QueueFullError` immediately, carrying a ``retry_after_s`` hint,
and the server maps that to **429**.  Shed requests were never
evaluated — no admission state is consumed.

The batch runs on the loop thread, with no thread hop: one decision is
tens of microseconds, far less than a handoff to a worker thread and
back.  The flush runs as a loop callback, not inside any request's
context, so each pending operation carries its request span (``None``
when unsampled) and the flush installs a
:class:`~repro.obs.tracing.SpanGroup` over the sampled members (a lone
sampled member is installed as itself) — the batch span and the
engine/cache spans the controller produces underneath are shared nodes
attached to every traced request the batch served.
"""

from __future__ import annotations

import asyncio

from repro.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionOp,
    OpFault,
    ReleaseOutcome,
)
from repro.errors import ServiceError
from repro.obs import metrics, tracing
from repro.obs.logging import get_logger

#: Batch sizes are powers-of-two-ish small integers bounded by
#: ``batch_max``; these buckets cover the default 64 with headroom.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

__all__ = ["QueueFullError", "MicroBatcher"]

_LOG = get_logger("repro.service.batcher")

#: Seconds the shed hint allows per ``batch_max`` operations of backlog.
SHED_SECONDS_PER_BATCH = 0.002


class QueueFullError(ServiceError):
    """The pending list is at ``queue_limit``; the request was shed.

    ``retry_after_s`` estimates when the backlog will have drained enough
    to try again (the server surfaces it as a ``Retry-After`` header).
    """

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


def _answer(batch, results) -> None:
    """Call each ``done`` of ``batch`` with its own result."""
    for (_, done, _), result in zip(batch, results):
        _call(done, result)


def _call(done, result) -> None:
    # One member's failing callback must not leave the rest unanswered.
    try:
        done(result)
    except Exception:  # noqa: BLE001 - the flush must answer every member
        _LOG.warning("admission answer callback failed", exc_info=True)


class MicroBatcher:
    """Coalesces concurrent admission operations into controller batches.

    Args:
        controller: the :class:`AdmissionController` all batches run
            against.
        batch_max: largest batch handed to ``process_batch``.
        queue_limit: bound on submitted-but-unflushed operations.

    Lifecycle: :meth:`start` binds the running event loop; :meth:`drain`
    stops intake and returns once every pending operation is answered —
    a drained batcher has no silently dropped requests.
    """

    def __init__(
        self,
        controller: AdmissionController,
        *,
        batch_max: int = 64,
        queue_limit: int = 256,
    ):
        self._controller = controller
        self._batch_max = int(batch_max)
        self._queue_limit = int(queue_limit)
        self._pending: list = []  # (op, done, span), in arrival order
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = False
        self._m_submitted = metrics.counter("service.requests")
        self._m_shed = metrics.counter("service.shed")
        self._m_batches = metrics.counter("service.batches")
        self._m_batch_size = metrics.histogram(
            "service.batch_size", buckets=BATCH_SIZE_BUCKETS
        )
        self._m_queue_depth = metrics.gauge("service.queue_depth")

    @property
    def draining(self) -> bool:
        """Whether intake has been closed by :meth:`drain`."""
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Operations submitted but not yet flushed."""
        return len(self._pending)

    def start(self) -> None:
        """Bind the running event loop; batches run on its thread."""
        self._loop = asyncio.get_running_loop()

    def enqueue(
        self, op: AdmissionOp, done, span: "tracing.Span | None" = None
    ) -> None:
        """Add one operation to the pending batch; ``done`` gets its answer.

        The flush calls ``done(result)`` once, on the loop thread, with
        the op's :class:`AdmissionDecision`, :class:`ReleaseOutcome` or
        :class:`OpFault` — or with the exception its batch raised, which
        every member of that batch receives.  ``span`` is the request's
        trace span (``None`` when unsampled); it rides the pending list so
        the flush can attach the batch subtree to it.

        Raises :class:`QueueFullError` when the pending list is at
        capacity and :class:`ServiceError` when the batcher is draining;
        neither touches admission state, and ``done`` is then never
        called.
        """
        loop = self._loop
        if loop is None:
            raise ServiceError("batcher is not started")
        if self._draining:
            raise ServiceError("service is draining; not accepting requests")
        pending = self._pending
        if len(pending) >= self._queue_limit:
            self._m_shed.inc()
            # Rough time for the standing backlog to clear: one step per
            # batch_max operations ahead of us, floored at one step.
            backlog_batches = max(1.0, len(pending) / self._batch_max)
            raise QueueFullError(
                f"admission queue full ({self._queue_limit} pending)",
                retry_after_s=SHED_SECONDS_PER_BATCH * backlog_batches,
            )
        if not pending:  # first of this tick: one flush serves them all
            loop.call_soon(self._flush)
        pending.append((op, done, span))
        self._m_submitted.inc()
        self._m_queue_depth.set(len(pending))

    async def submit(
        self, op: AdmissionOp, span: "tracing.Span | None" = None
    ) -> AdmissionDecision | ReleaseOutcome | OpFault:
        """:meth:`enqueue` one operation and await its answer.

        Raises what :meth:`enqueue` raises, and re-raises the exception of
        a batch that failed.
        """
        future = asyncio.get_running_loop().create_future()

        def done(result) -> None:
            if future.done():  # the awaiting task was cancelled
                return
            if isinstance(result, BaseException):
                future.set_exception(result)
            else:
                future.set_result(result)

        self.enqueue(op, done, span)
        return await future

    async def drain(self) -> None:
        """Close intake and return once every pending operation is answered."""
        self._draining = True
        while self._pending:
            await asyncio.sleep(0)  # the scheduled flush runs meanwhile

    # -- the flush -------------------------------------------------------------

    def _flush(self) -> None:
        batch_all, self._pending = self._pending, []
        self._m_queue_depth.set(0)
        for start in range(0, len(batch_all), self._batch_max):
            batch = batch_all[start : start + self._batch_max]
            try:
                results = self._process(
                    [op for op, _, _ in batch], [span for _, _, span in batch]
                )
            except Exception as exc:  # answer rather than hang
                # The original exception, not a ServiceError: the server
                # answers it 500 InternalError, not 503 Draining.
                _LOG.warning("batch of %d failed", len(batch), exc_info=True)
                for _, done, _ in batch:
                    _call(done, exc)
                continue
            _answer(batch, results)

    def _process(self, ops: "list[AdmissionOp]", spans=()):
        # One span times the batch: under ``service/batch`` in the span
        # table, and — grouped over the sampled requests — as one shared
        # "batch" node in every traced member, with the engine and cache
        # spans process_batch opens beneath it.
        members = [span for span in spans if span is not None]
        if len(members) > 1:
            node = tracing.SpanGroup(members)
        else:  # a group of one is its member
            node = members[0] if members else None
        token = tracing.use(node, path="service")
        try:
            with tracing.span("batch", batch_size=len(ops)):
                results = self._controller.process_batch(ops)
        finally:
            tracing.release(token)
        with metrics.registry().hold():
            self._m_batches.inc()
            self._m_batch_size.observe(len(ops))
        return results
