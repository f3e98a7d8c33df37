"""Dynamic micro-batching dispatcher for the admission service.

Concurrent requests are coalesced into one
:meth:`~repro.admission.AdmissionController.process_batch` call: the
dispatcher takes the first queued operation, then greedily drains
whatever else is already queued (up to ``batch_max``) and dispatches
immediately.  Batching emerges from backpressure alone — operations
pile up while the previous batch is on the worker thread and ship
together — so an idle service adds zero artificial latency, while under
load one stacked exact-test evaluation amortizes over up to
``batch_max`` requests.

Correctness is delegated entirely to the controller:
``process_batch`` serializes its operations in arrival order, so batching
is invisible in the results — only in the throughput.

Backpressure: the intake queue is bounded at ``queue_limit``.
:meth:`MicroBatcher.submit` never blocks the event loop waiting for
room; a full queue raises :class:`QueueFullError` immediately, carrying a
``retry_after_s`` hint, and the server maps that to **429**.  Shed
requests were never evaluated — no admission state is consumed.

The batch itself runs on a dedicated single-thread executor: admission
decisions are CPU-bound numpy work that must not stall the event loop,
and keeping *one* worker thread preserves batch ordering.

Tracing crosses the thread hop explicitly: context vars do not follow
``run_in_executor``, so each queued operation carries its request span
(``None`` when unsampled) and the worker installs a
:class:`~repro.obs.tracing.SpanGroup` over the sampled members — the
batch span and the engine/cache spans the controller produces
underneath are shared nodes attached to every traced request the batch
served.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

from repro.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionOp,
    OpFault,
    ReleaseOutcome,
)
from repro.errors import ServiceError
from repro.obs import metrics, tracing

#: Batch sizes are powers-of-two-ish small integers bounded by
#: ``batch_max``; these buckets cover the default 64 with headroom.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

__all__ = ["QueueFullError", "MicroBatcher"]


class QueueFullError(ServiceError):
    """The intake queue is at ``queue_limit``; the request was shed.

    ``retry_after_s`` estimates when the backlog will have drained enough
    to try again (the server surfaces it as a ``Retry-After`` header).
    """

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class MicroBatcher:
    """Coalesces concurrent admission operations into controller batches.

    Args:
        controller: the :class:`AdmissionController` all batches run
            against.
        batch_window_s: nominal batch cadence, used only to scale the
            ``retry_after_s`` backoff hint on shed requests (dispatch
            itself never waits — see the module docstring).
        batch_max: largest batch handed to ``process_batch``.
        queue_limit: bound on queued-but-unbatched operations.

    Lifecycle: :meth:`start` spawns the dispatcher task; :meth:`drain`
    stops intake, answers **every** queued operation, and only then
    shuts the dispatcher down — a drained batcher has no silently
    dropped requests.
    """

    def __init__(
        self,
        controller: AdmissionController,
        *,
        batch_window_s: float = 0.002,
        batch_max: int = 64,
        queue_limit: int = 256,
    ):
        self._controller = controller
        self._window = float(batch_window_s)
        self._batch_max = int(batch_max)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=int(queue_limit))
        self._dispatcher: asyncio.Task | None = None
        self._draining = False
        # One worker thread, by design: batches stay ordered.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-admit"
        )
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
        """Operations queued but not yet dispatched."""
        return self._queue.qsize()

    def start(self) -> None:
        """Spawn the dispatcher task on the running event loop."""
        if self._dispatcher is None:
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_forever(), name="repro-admit-dispatcher"
            )

    async def submit(
        self, op: AdmissionOp, span: "tracing.Span | None" = None
    ) -> AdmissionDecision | ReleaseOutcome | OpFault:
        """Queue one operation and wait for its batch to answer it.

        ``span`` is the request's trace span (``None`` when unsampled);
        it rides the queue so the worker thread can attach the batch
        subtree to it despite the executor hop.

        Raises :class:`QueueFullError` when the queue is at capacity and
        :class:`ServiceError` when the batcher is draining; neither
        touches admission state.
        """
        if self._dispatcher is None:
            raise ServiceError("batcher is not started")
        if self._draining:
            raise ServiceError("service is draining; not accepting requests")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((op, future, span))
        except asyncio.QueueFull:
            self._m_shed.inc()
            # Rough time for the standing backlog to clear: one window
            # per batch_max operations ahead of us, floored at one window.
            backlog_batches = max(1.0, self._queue.qsize() / self._batch_max)
            raise QueueFullError(
                f"admission queue full ({self._queue.maxsize} pending)",
                retry_after_s=max(self._window, 0.001) * backlog_batches,
            ) from None
        self._m_submitted.inc()
        self._m_queue_depth.set(self._queue.qsize())
        return await future

    async def run_on_worker(self, fn, *args):
        """Run ``fn(*args)`` on the batch worker thread.

        Serializes with batch execution (one worker thread), which is
        what the breakdown endpoint wants: it reads a consistent admitted
        snapshot and its numpy work never lands on the event loop.
        """
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    async def drain(self) -> None:
        """Close intake, answer everything queued, stop the dispatcher."""
        self._draining = True
        if self._dispatcher is None:
            self._executor.shutdown(wait=True)
            return
        await self._queue.join()
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        self._dispatcher = None
        self._executor.shutdown(wait=True)

    # -- dispatcher ------------------------------------------------------------

    async def _dispatch_forever(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            # Natural coalescing: take everything already queued —
            # the arrivals that piled up while the previous batch was
            # processing — and dispatch immediately.  An idle worker
            # adds zero artificial latency (the old fixed window made
            # every closed-loop client convoy behind the slowest one),
            # while under load batches fill from backpressure alone.
            while len(batch) < self._batch_max and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            self._m_queue_depth.set(self._queue.qsize())
            await self._run_batch(loop, batch)

    async def _run_batch(self, loop, batch) -> None:
        ops = [op for op, _, _ in batch]
        spans = [span for _, _, span in batch]
        try:
            results = await loop.run_in_executor(
                self._executor, self._process, ops, spans
            )
        except BaseException as exc:  # defensive: answer rather than hang
            for _, future, _ in batch:
                if not future.done():
                    future.set_exception(
                        ServiceError(f"batch execution failed: {exc}")
                    )
                self._queue.task_done()
            if isinstance(exc, asyncio.CancelledError):
                raise
            return
        for (_, future, _), result in zip(batch, results):
            if not future.done():  # client may have disconnected
                future.set_result(result)
            self._queue.task_done()

    def _process(self, ops: "list[AdmissionOp]", spans=()):
        # One span times the batch: under ``service/batch`` in the span
        # table, and — grouped over the sampled requests — as one shared
        # "batch" node in every traced member, with the engine and cache
        # spans process_batch opens beneath it.
        members = [span for span in spans if span is not None]
        token = tracing.use(
            tracing.SpanGroup(members) if members else None, path="service"
        )
        try:
            with tracing.span("batch", batch_size=len(ops)):
                results = self._controller.process_batch(ops)
        finally:
            tracing.release(token)
        with metrics.registry().hold():
            self._m_batches.inc()
            self._m_batch_size.observe(len(ops))
        return results
