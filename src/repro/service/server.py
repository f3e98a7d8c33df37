"""The admission-control server: asyncio JSON-over-HTTP, stdlib only.

One :class:`AdmissionServer` owns one :class:`AdmissionController`, one
:class:`~repro.service.batcher.MicroBatcher`, and one per-client rate
limiter, and serves the endpoints documented in
:mod:`repro.service.protocol`.  Each connection is a
:class:`~repro.service.http.ServerConnection` (an
:class:`asyncio.Protocol`; the framing is shared with the cluster
router), which calls :meth:`AdmissionServer._handle` — a plain function
— once per parsed request.  There is no task per connection and no
future per request.

Request path for ``/v1/check``, ``/v1/admit``, ``/v1/release``::

    parse -> rate limit -> batcher.enqueue(op, done)
          -> (coalesced) process_batch -> done(result) -> transport.write

``_handle`` returns :data:`~repro.service.http.PENDING` once the op is
enqueued; the flush at the end of the loop tick calls ``done``, which
encodes the reply and writes it.  Every other endpoint answers inline.
So every decision flows through the micro-batcher and is bit-identical
to a direct controller call (the batcher only changes *when* work runs,
never its serialization order).  Everything runs on the one event-loop
thread: the batch flushed at the end of a loop tick, and the
``/v1/breakdown`` search computed inline, so no two decisions ever
overlap and no request pays a thread handoff.

Every request is a candidate for **tracing** (systematic sampling at
``config.trace_sample_rate``): a sampled request gets a root span whose
id is echoed back in an ``X-Trace-Id`` header, whose children cover the
batch, engine, and cache tiers, and which lands in the ring buffer
behind ``/v1/traces`` (plus the optional JSONL sink and the
slow-request log).  ``/metrics`` serves the JSON snapshot by default and
Prometheus text exposition under ``?format=prometheus`` — with the
correct ``Content-Type`` for each.

Shutdown is a *drain*: SIGTERM/SIGINT (or :meth:`drain_and_stop`) stops
accepting connections, answers every queued operation, then exits.  New
requests during the drain get **503**; nothing already accepted is
dropped.
"""

from __future__ import annotations

import asyncio
import math
import os
import signal
from urllib.parse import parse_qs

from repro.admission import AdmissionOp, OpFault
from repro.analysis.breakdown import breakdown_scale
from repro.errors import ReproError, ServiceError
from repro.obs import metrics, prometheus, tracing
from repro.obs.logging import get_logger
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_S
from repro.obs.tracing import Tracer
from repro.service import http
from repro.service.batcher import MicroBatcher, QueueFullError
from repro.service.protocol import (
    ServiceConfig,
    WIRE_SCHEMA_VERSION,
    build_controller,
    decision_to_wire,
    dump_body,
    fault_status,
    fault_to_wire,
    load_body,
    parse_release_body,
    parse_stream_body,
    release_to_wire,
)
from repro.service.ratelimit import ClientRateLimiter

__all__ = ["AdmissionServer"]

_LOG = get_logger("repro.service.server")

#: Metric-name prefixes the service exposes (summary, ``/metrics``).
_METRIC_PREFIXES = (
    "service.",
    "cache.admission.",
    "trace.",
)


class AdmissionServer:
    """One admission service session.

    Args:
        config: the :class:`~repro.service.protocol.ServiceConfig`.
        controller: optionally, a pre-built controller (tests inject one
            with known state); by default built from the config.

    Usage::

        server = AdmissionServer(ServiceConfig(port=0))
        await server.start()          # server.port now holds the bound port
        ...
        await server.drain_and_stop()
    """

    def __init__(self, config: ServiceConfig, controller=None):
        self.config = config
        self.controller = (
            controller if controller is not None else build_controller(config)
        )
        self.batcher = MicroBatcher(
            self.controller,
            batch_max=config.batch_max,
            queue_limit=config.queue_limit,
        )
        self.limiter = ClientRateLimiter(
            config.rate_limit_rps, config.rate_limit_burst
        )
        self.tracer = Tracer(
            config.trace_sample_rate,
            buffer_size=config.trace_buffer,
            jsonl_path=config.trace_jsonl,
            slow_threshold_s=config.slow_trace_s,
        )
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._drained = asyncio.Event()
        self._drain_hooks: list = []
        self._m_http = metrics.counter("service.http_requests")
        self._m_errors = metrics.counter("service.http_errors")
        self._m_internal = metrics.counter("service.errors.internal")
        self._m_limited = metrics.counter("service.rate_limited")
        self._m_latency = metrics.histogram(
            "service.request_latency_s", buckets=DEFAULT_LATENCY_BUCKETS_S
        )

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and the batcher to the running loop."""
        self.batcher.start()
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            self._connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        _LOG.info(
            "admission service listening on %s:%d (%s/%s, policy=%s)",
            self.config.host,
            self.port,
            self.config.protocol,
            self.config.variant,
            self.config.policy,
        )

    def add_drain_hook(self, hook) -> None:
        """Register a zero-argument callable run when a drain begins.

        Cluster workers use this to retract their port advertisement
        (the supervisor's discovery file) *before* the listener closes,
        so the router stops routing to a worker the moment it starts
        draining rather than when its socket dies.  Hooks must not
        raise; exceptions are logged and swallowed.
        """
        self._drain_hooks.append(hook)

    async def drain_and_stop(self) -> None:
        """Stop accepting, answer everything queued, shut down."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        for hook in self._drain_hooks:
            try:
                hook()
            except Exception:  # noqa: BLE001 - drain must always complete
                _LOG.warning("drain hook failed", exc_info=True)
        _LOG.info("drain requested: closing listener, flushing queue")
        if self._server is not None:
            self._server.close()
        try:
            await asyncio.wait_for(
                self.batcher.drain(), timeout=self.config.drain_grace_s
            )
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            _LOG.warning(
                "drain exceeded %.1fs grace; shutting down anyway",
                self.config.drain_grace_s,
            )
        if self._server is not None:
            await self._server.wait_closed()
        self.tracer.close()
        self._drained.set()
        _LOG.info("admission service stopped")

    async def serve_until_signalled(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain and return."""
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or unsupported platform
        try:
            await stop.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
        await self.drain_and_stop()

    def _cache_error_count(self) -> float:
        """Total disk/memory-tier cache corruption errors this process."""
        total = 0.0
        for name, data in metrics.snapshot(prefix="cache.").items():
            if name.endswith(".errors"):
                total += data.get("value", 0.0)
        return total

    def summary(self) -> dict:
        """Session counters for the run manifest / loadgen report."""
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "shard_id": self.config.shard_id,
            "worker_pid": os.getpid(),
            "admitted": self.controller.admitted_count,
            "utilization": self.controller.utilization(),
            "utilization_cap": self.controller.utilization_cap,
            "cache_errors": self._cache_error_count(),
            "metrics": metrics.snapshot(prefix=_METRIC_PREFIXES),
            "spans": {
                path: stats
                for path, stats in tracing.snapshot().items()
                if path.startswith("service/")
            },
        }

    # -- request handling ------------------------------------------------------

    def _connection(self) -> http.ServerConnection:
        """A protocol for one accepted connection."""
        return http.ServerConnection(self._handle, dump_body)

    def _handle(self, connection: http.ServerConnection, request: http.Request):
        """Route one request under its trace.

        Returns the answer, or :data:`~repro.service.http.PENDING` for an
        admission op the batcher's flush answers through ``connection``.
        """
        trace = self.tracer.begin(
            "request", method=request.method, path=request.path
        )
        # Installed even when unsampled: a request parsed inside the
        # batcher's flush must not inherit the trace current there.
        token = tracing.use(trace)
        started = self._loop.time()
        try:
            answer = self._route(request, connection, trace, started)
        finally:
            tracing.release(token)
        if answer is http.PENDING:
            return answer
        return self._finish(trace, started, *answer)

    def _finish(self, trace, started, status, payload, extra_headers):
        """Record one answered request's metrics and trace; add headers."""
        elapsed = self._loop.time() - started
        if trace is not None:
            trace.attrs["status"] = status
            extra_headers = [*extra_headers, ("X-Trace-Id", trace.trace_id)]
        if self.config.shard_id is not None:
            extra_headers = [*extra_headers, ("X-Shard-Id", self.config.shard_id)]
        # Group the per-request updates so a concurrent snapshot never
        # sees the counter without its latency observation.
        with metrics.registry().hold():
            self._m_http.inc()
            if status >= 400:
                self._m_errors.inc()
            self._m_latency.observe(
                elapsed,
                exemplar=trace.trace_id if trace is not None else None,
            )
        self.tracer.finish(trace, duration_s=elapsed)
        return status, payload, extra_headers

    # -- routing ---------------------------------------------------------------

    def _route(self, request: http.Request, connection, trace, started):
        """Dispatch one request; returns (status, payload, extra_headers),
        or PENDING once an admission op is enqueued."""
        method, path, query = request.method, request.path, request.query
        try:
            if path in ("/v1/check", "/v1/admit", "/v1/release"):
                if method != "POST":
                    return self._method_not_allowed("POST")
                return self._admission_endpoint(
                    request, connection, trace, started
                )
            if path == "/healthz":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return 200, self._healthz(), []
            if path == "/metrics":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return self._metrics_endpoint(query)
            if path == "/v1/traces":
                if method != "GET":
                    return self._method_not_allowed("GET")
                return self._traces_endpoint(query)
            if path == "/v1/lease":
                if method == "GET":
                    return (
                        200,
                        {
                            "schema_version": WIRE_SCHEMA_VERSION,
                            "shard_id": self.config.shard_id,
                            "worker_pid": os.getpid(),
                            "utilization_cap": self.controller.utilization_cap,
                            "utilization": self.controller.utilization(),
                            "admitted": self.controller.admitted_count,
                        },
                        [],
                    )
                if method != "POST":
                    return self._method_not_allowed("GET, POST")
                return self._lease_endpoint(request.body)
            if path == "/v1/breakdown":
                if method != "GET":
                    return self._method_not_allowed("GET")
                if self._draining:
                    return self._draining_response()
                return 200, self._breakdown(), []
            return (
                404,
                {"error": "NotFound", "detail": f"no such endpoint: {path}"},
                [],
            )
        except Exception as exc:  # noqa: BLE001 - never kill the connection
            return self._error_answer(exc, request, trace)

    def _error_answer(self, exc: Exception, request: http.Request, trace):
        """The answer to a request whose handling raised ``exc``."""
        if isinstance(exc, ServiceError):
            return 400, {"error": "ServiceError", "detail": str(exc)}, []
        if isinstance(exc, ReproError):
            return 422, {"error": type(exc).__name__, "detail": str(exc)}, []
        self._m_internal.inc()
        trace_id = getattr(trace, "trace_id", None)
        _LOG.warning(
            "unhandled error serving %s %s (trace=%s): %s",
            request.method,
            request.path,
            trace_id or "-",
            exc,
            exc_info=exc,
            extra={
                "path": request.path,
                "method": request.method,
                "trace_id": trace_id,
            },
        )
        return 500, {"error": "InternalError", "detail": str(exc)}, []

    def _admission_endpoint(self, request: http.Request, connection, trace, started):
        if self._draining or self.batcher.draining:
            return self._draining_response()
        client = request.headers.get("x-client-id", connection.peer_host)
        wait = self.limiter.check(client, started)
        if wait > 0:
            self._m_limited.inc()
            return (
                429,
                {
                    "error": "RateLimited",
                    "detail": (
                        f"client {client!r} over "
                        f"{self.limiter.rate_per_s:g} rps"
                    ),
                    "retry_after_s": wait,
                },
                [("Retry-After", str(max(1, math.ceil(wait))))],
            )
        parsed = load_body(request.body)
        if request.path == "/v1/release":
            stream_id, idempotent = parse_release_body(parsed)
            op = AdmissionOp.release(stream_id, idempotent=idempotent)
        else:
            period_s, payload_bits = parse_stream_body(parsed)
            op = (
                AdmissionOp.check(period_s, payload_bits)
                if request.path == "/v1/check"
                else AdmissionOp.admit(period_s, payload_bits)
            )
        if trace is not None:
            trace.attrs["op"] = op.kind

        def done(result) -> None:
            connection.respond(
                *self._finish(
                    trace, started, *self._op_answer(op, result, request, trace)
                )
            )

        try:
            self.batcher.enqueue(op, done, span=trace)
        except QueueFullError as exc:
            return (
                429,
                {
                    "error": "QueueFull",
                    "detail": str(exc),
                    "retry_after_s": exc.retry_after_s,
                },
                [("Retry-After", str(max(1, math.ceil(exc.retry_after_s))))],
            )
        except ServiceError:
            return self._draining_response()
        return http.PENDING

    def _op_answer(self, op: AdmissionOp, result, request, trace):
        """The answer to one admission op, from what its batch gave it."""
        if isinstance(result, ServiceError):
            return self._draining_response()
        if isinstance(result, Exception):
            return self._error_answer(result, request, trace)
        try:
            if isinstance(result, OpFault):
                return fault_status(result), fault_to_wire(result), []
            if op.kind == "release":
                return 200, release_to_wire(result), []
            return 200, decision_to_wire(result), []
        except Exception as exc:  # noqa: BLE001 - answer, never hang
            return self._error_answer(exc, request, trace)

    def _metrics_endpoint(self, query: str):
        """``/metrics``: JSON snapshot, or Prometheus text exposition.

        The snapshot is taken once under the registry lock (atomic cut);
        the Prometheus path renders that same cut, so the two formats can
        never disagree about a scrape instant.
        """
        params = parse_qs(query)
        fmt = params.get("format", ["json"])[-1]
        snap = metrics.snapshot(prefix=_METRIC_PREFIXES)
        if fmt == "json":
            return (
                200,
                {"schema_version": WIRE_SCHEMA_VERSION, "metrics": snap},
                [],
            )
        if fmt == "prometheus":
            labels = None
            if self.config.shard_id is not None:
                labels = {
                    "shard_id": self.config.shard_id,
                    "worker_pid": str(os.getpid()),
                }
            text = prometheus.render(snap, labels=labels)
            return (
                200,
                http.RawBody(prometheus.CONTENT_TYPE, text.encode("utf-8")),
                [],
            )
        return (
            400,
            {
                "error": "BadFormat",
                "detail": (
                    f"unknown metrics format {fmt!r}; "
                    "expected 'json' or 'prometheus'"
                ),
            },
            [],
        )

    def _traces_endpoint(self, query: str):
        """``/v1/traces``: the ring buffer of finished traces (oldest first)."""
        params = parse_qs(query)
        limit = None
        raw_limit = params.get("limit", [None])[-1]
        if raw_limit is not None:
            try:
                limit = int(raw_limit)
            except ValueError:
                return (
                    400,
                    {
                        "error": "BadLimit",
                        "detail": f"limit must be an integer, got {raw_limit!r}",
                    },
                    [],
                )
        traces = self.tracer.recent(limit)
        return (
            200,
            {
                "schema_version": WIRE_SCHEMA_VERSION,
                "sample_rate": self.tracer.sample_rate,
                "count": len(traces),
                "traces": traces,
            },
            [],
        )

    def _healthz(self) -> dict:
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "status": "draining" if self._draining else "ok",
            "shard_id": self.config.shard_id,
            "worker_pid": os.getpid(),
            "queue_depth": self.batcher.queue_depth,
            "admitted": self.controller.admitted_count,
            "utilization": self.controller.utilization(),
            "utilization_cap": self.controller.utilization_cap,
            "cache_errors": self._cache_error_count(),
            "protocol": self.config.protocol,
            "policy": self.config.policy,
        }

    def _lease_endpoint(self, body: bytes):
        """``/v1/lease``: read or install this worker's utilization lease.

        POST body ``{"utilization_cap": float | null}`` installs a new
        budget cap on the controller (null removes it) and answers with
        both the previous and the now-active cap — the router treats the
        response as the worker's acknowledgement, and only re-grants
        budget freed by a shrink *after* this acknowledgement arrives
        (see :mod:`repro.cluster.budget`).  Lease administration is
        control-plane: it works during a drain, is never batched, and is
        never rate-limited.
        """
        parsed = load_body(body)
        if "utilization_cap" not in parsed:
            raise ServiceError("field 'utilization_cap' is required")
        cap = parsed["utilization_cap"]
        if cap is not None and (
            not isinstance(cap, (int, float)) or isinstance(cap, bool)
        ):
            raise ServiceError(
                f"field 'utilization_cap' must be a number or null, got {cap!r}"
            )
        try:
            previous = self.controller.set_utilization_cap(cap)
        except ReproError as exc:
            raise ServiceError(str(exc)) from exc
        return (
            200,
            {
                "schema_version": WIRE_SCHEMA_VERSION,
                "shard_id": self.config.shard_id,
                "worker_pid": os.getpid(),
                "previous_cap": previous,
                "utilization_cap": self.controller.utilization_cap,
                "utilization": self.controller.utilization(),
                "admitted": self.controller.admitted_count,
            },
            [],
        )

    def _breakdown(self) -> dict:
        """Headroom of the admitted population.

        Computed inline on the event loop, between batches, so it reads
        a consistent admitted snapshot; the search holds the loop for a
        few milliseconds at 40 streams.
        """
        current = self.controller.current_set()
        report = {
            "schema_version": WIRE_SCHEMA_VERSION,
            "streams": len(current),
            "utilization": current.utilization(
                self.controller.analysis.ring.bandwidth_bps
            ),
        }
        if len(current) == 0:
            report.update(scale=None, evaluations=0)
            return report
        scale, evaluations = breakdown_scale(
            current, self.controller.analysis, rel_tol=1e-3
        )
        report.update(scale=scale, evaluations=evaluations)
        return report

    @staticmethod
    def _method_not_allowed(allowed: str):
        return (
            405,
            {"error": "MethodNotAllowed", "detail": f"use {allowed}"},
            [("Allow", allowed)],
        )

    @staticmethod
    def _draining_response():
        return (
            503,
            {
                "error": "Draining",
                "detail": "service is draining; not accepting requests",
            },
            [("Retry-After", "1")],
        )
