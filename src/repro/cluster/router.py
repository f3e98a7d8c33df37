"""The cluster front: one asyncio process routing to N admission workers.

:class:`ClusterRouter` listens on one port and speaks the same wire
protocol as a single admission server, so every existing client — the
sync/async service clients, the load generator, ``runner top`` — works
against a cluster unchanged.  Behind the listener it:

* **routes** ``/v1/check`` and ``/v1/admit`` by consistent hash over
  the stream key, and ``/v1/release`` by the fleet stream-id directory
  (the router translates worker-local stream ids to fleet-unique ones,
  so clients see a single id space);
* **serves by callbacks** on both sides, with no task per request.  In
  front, each client connection is the admission server's own
  :class:`~repro.service.http.ServerConnection`; a check, admit or
  release returns ``PENDING`` and is answered when its worker replies.
  Behind, each worker has a pool of keep-alive
  :class:`~repro.service.http.ClientConnection` objects, each carrying
  one request at a time; the lease pushes and the observability fan-outs
  await the same pool through a future.  A check's body bytes go to the
  worker unchanged and its reply comes back as the worker's bytes (the
  router decodes the request once, for the routing key and the 400
  answers); only admit and release replies are decoded, to translate
  stream ids;
* **retries around death**: a connection failure to a worker, or its
  ``503 Draining`` answer, drops it from the hash ring (:meth:`ClusterDirectory.drop_shard` — only that
  worker's hash range moves) and the request is re-dispatched to the
  surviving owner; a release aimed at a dead worker's stream answers
  unknown-stream, which is exactly what a restarted single controller
  would say.  Budget is *not* reclaimed on a connection failure — only
  the supervisor's confirmed death event frees a lease (an unreachable
  worker may still be admitting under it);
* **aggregates observability**: fleet ``/healthz`` (per-shard health
  plus budget-ledger status), fleet ``/metrics`` (JSON snapshots merged
  across workers via :meth:`MetricsRegistry.merge`, Prometheus text
  concatenated with per-shard ``shard_id``/``worker_pid`` labels);
* **reconciles the budget** each heartbeat: supervisor events first
  (died → reclaim, started → re-add), then an even
  :meth:`~repro.cluster.budget.BudgetLedger.split_evenly` pushed to the
  workers through ``/v1/lease``, acknowledgements folded back into the
  ledger.  The two-phase shrink discipline lives in the ledger; the
  router just never re-grants budget a worker hasn't confirmed
  releasing.
"""

from __future__ import annotations

import asyncio
import json
import signal

from repro.cluster.budget import BudgetLedger
from repro.cluster.config import ClusterConfig
from repro.cluster.core import ClusterDirectory
from repro.cluster.supervisor import WorkerPool
from repro.errors import ServiceError
from repro.obs import metrics, prometheus
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.service import http
from repro.service.protocol import (
    WIRE_SCHEMA_VERSION,
    dump_body,
    load_body,
    parse_release_body,
    parse_stream_body,
)

__all__ = ["ClusterRouter"]

_LOG = get_logger("repro.cluster.router")


class _Backend:
    """One worker's address plus its pool of idle callback connections."""

    def __init__(self, shard_id: str, host: str, port: int, pid: int | None):
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.address = f"{host}:{port}"
        self.pid = pid
        self.idle: list[http.ClientConnection] = []
        self.closed = False
        self._connecting: set[asyncio.Task] = set()
        #: Last lease cap this worker acknowledged over /v1/lease, or
        #: None when nothing was ever pushed/adopted (a fresh respawn).
        #: Distinct from the ledger's arithmetic: grant() charges grows
        #: immediately, so the *ledger* looks settled the moment the
        #: router re-levels — only this field says the worker agreed.
        self.acked_cap: float | None = None

    def send(self, request: bytes, done) -> None:
        """Send one request on an idle connection, or on a new one.

        ``done`` is called once with ``(status, headers, body)``, or with
        an :class:`OSError` when the worker is unreachable or hangs up.
        """
        idle = self.idle
        while idle:
            connection = idle.pop()
            if connection.is_open:
                connection.send(request, done)
                return
        task = asyncio.get_running_loop().create_task(
            self._connect_and_send(request, done)
        )
        self._connecting.add(task)
        task.add_done_callback(self._connecting.discard)

    async def _connect_and_send(self, request: bytes, done) -> None:
        try:
            _, connection = await asyncio.get_running_loop().create_connection(
                lambda: http.ClientConnection(self._offer), self.host, self.port
            )
        except OSError as exc:
            done(exc)
            return
        connection.send(request, done)

    def _offer(self, connection: http.ClientConnection) -> None:
        """Pool a connection whose response was read."""
        if self.closed or len(self.idle) >= 32:
            connection.close()
        else:
            self.idle.append(connection)

    def close(self) -> None:
        """Close the idle connections; later ones close once answered."""
        self.closed = True
        for connection in self.idle:
            connection.close()
        self.idle.clear()


class ClusterRouter:
    """The admission cluster's front process.

    Args:
        config: the :class:`~repro.cluster.config.ClusterConfig`.
        pool: the :class:`~repro.cluster.supervisor.WorkerPool` whose
            workers this router fronts.  The router adopts the pool's
            running workers at :meth:`start` and supervises membership
            through ``pool.poll()`` in its heartbeat; pass None for a
            router over externally managed backends (tests add them
            with :meth:`add_backend`).
    """

    def __init__(self, config: ClusterConfig, pool: WorkerPool | None = None):
        self.config = config
        self.pool = pool
        self.ledger = BudgetLedger(config.utilization_cap)
        self.directory: ClusterDirectory | None = None  # built at start
        self.backends: dict[str, _Backend] = {}
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._heartbeat_task: asyncio.Task | None = None
        self._fanouts: set[asyncio.Task] = set()
        self._draining = False
        self._m_requests = metrics.counter("cluster.router.requests")
        self._m_errors = metrics.counter("cluster.router.errors")
        self._m_retries = metrics.counter("cluster.router.retries")
        self._m_rerouted = metrics.counter("cluster.router.rerouted_shards")
        self._m_deaths = metrics.counter("cluster.router.worker_deaths")
        self._m_restarts = metrics.counter("cluster.router.worker_restarts")
        self._m_workers = metrics.gauge("cluster.router.workers")
        self._m_granted = metrics.gauge("cluster.router.lease_granted_total")

    # -- membership ----------------------------------------------------------

    def add_backend(
        self, shard_id: str, host: str, port: int, pid: int | None = None
    ) -> None:
        """Register one worker backend (and its shard on the ring)."""
        self.backends[shard_id] = _Backend(shard_id, host, port, pid)
        if self.directory is None:
            self.directory = ClusterDirectory([shard_id])
        else:
            self.directory.add_shard(shard_id)
        self._m_workers.set(len(self.backends))

    def _drop_backend(self, shard_id: str) -> None:
        """Remove a worker from routing (ring rebalance); keep its lease.

        Only that shard's hash range moves to the survivors.  The lease
        stays charged until the supervisor confirms the process died —
        an unreachable worker may still be admitting under it.
        """
        backend = self.backends.pop(shard_id, None)
        if backend is not None:
            backend.close()
        if (
            self.directory is not None
            and shard_id in self.directory.shard_ids
            and len(self.directory.shard_ids) > 1
        ):
            self.directory.drop_shard(shard_id)
            self._m_rerouted.inc()
        self._m_workers.set(len(self.backends))

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Adopt the pool's workers, bind the front port, start beating."""
        if self.pool is not None:
            for shard_id, (pid, port) in sorted(self.pool.running().items()):
                self.add_backend(shard_id, self.config.host, port, pid)
        if self.backends:
            await self._adopt_leases()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: http.ServerConnection(self._handle, dump_body),
            self.config.host,
            self.config.router_port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())
        _LOG.info(
            "cluster router on %s:%d fronting %d worker(s), cap=%g",
            self.config.host,
            self.port,
            len(self.backends),
            self.config.utilization_cap,
        )

    async def _adopt_leases(self) -> None:
        """Fold the workers' boot-time lease caps into the ledger."""
        for shard_id in sorted(self.backends):
            try:
                status, payload = await self._backend_request(
                    self.backends[shard_id], "GET", "/v1/lease", None
                )
            except OSError:
                continue
            if status != 200:
                continue
            reported = payload.get("utilization_cap") or 0.0
            granted = self.ledger.grant(shard_id, reported)
            self.ledger.acknowledge(shard_id, reported)
            self.backends[shard_id].acked_cap = float(reported)
            if granted < reported:
                # The worker booted with more than the ledger can
                # cover (misconfiguration); shrink it immediately.
                await self._push_lease(shard_id, granted)
        self._m_granted.set(self.ledger.granted_total())

    async def drain_and_stop(self) -> None:
        """Stop the front, then drain the pool (if we own one)."""
        self._draining = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for backend in self.backends.values():
            backend.close()
        if self.pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.pool.drain
            )
        _LOG.info("cluster router stopped")

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
                pass
        try:
            await stop.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
        await self.drain_and_stop()

    # -- heartbeat: supervision + budget reconciliation ----------------------

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.heartbeat_s)
            try:
                await self.heartbeat()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - the beat must keep beating
                _LOG.warning("heartbeat failed", exc_info=True)

    async def heartbeat(self) -> None:
        """One supervision + reconciliation round (tests call directly)."""
        if self.pool is not None:
            for event in self.pool.poll():
                kind, shard_id = event[0], event[1]
                if kind == "died":
                    # Confirmed dead: now — and only now — the lease is
                    # safe to reclaim (the admitted state died with the
                    # process).
                    self._m_deaths.inc()
                    self._drop_backend(shard_id)
                    self.ledger.reclaim(shard_id)
                elif kind == "started":
                    pid, port = self.pool.running()[shard_id]
                    self.add_backend(shard_id, self.config.host, port, pid)
                    self._m_restarts.inc()
        await self.reconcile_leases()

    async def reconcile_leases(self) -> None:
        """Push an even budget split to the live workers."""
        live = sorted(self.backends)
        if not live:
            return
        targets = self.ledger.split_evenly(live)
        for shard_id, target in targets.items():
            lease = self.ledger.lease_of(shard_id)
            backend = self.backends.get(shard_id)
            if (
                lease is not None
                and lease.settled
                and lease.granted == target
                and backend is not None
                and backend.acked_cap == target
            ):
                continue  # the worker itself acknowledged this split
            await self._push_lease(shard_id, target)
        self._m_granted.set(self.ledger.granted_total())

    async def _push_lease(self, shard_id: str, target: float) -> None:
        backend = self.backends.get(shard_id)
        if backend is None:
            return
        try:
            status, payload = await self._backend_request(
                backend, "POST", "/v1/lease", {"utilization_cap": target}
            )
        except OSError:
            return  # unreachable: the lease stays charged, retried next beat
        if status == 200:
            acked = payload.get("utilization_cap")
            if acked is not None:
                backend.acked_cap = float(acked)
                self.ledger.acknowledge(shard_id, float(acked))

    # -- backend I/O ---------------------------------------------------------

    async def _backend_request(
        self, backend: _Backend, method: str, path: str, body: dict | None
    ):
        """One request over the backend's pool, awaited through a future.

        Returns ``(status, payload)``: the decoded JSON object, or the
        raw bytes of any other content type.  Raises ``OSError`` (a
        ``ConnectionError`` for bad framing) when the backend is
        unreachable or hangs up mid-exchange; callers decide whether
        that means a retry, a rebalance, or a 502.
        """
        future = asyncio.get_running_loop().create_future()

        def done(result) -> None:
            if not future.done():  # the awaiting caller may be cancelled
                future.set_result(result)

        backend.send(
            http.encode_request(
                method,
                path,
                backend.address,
                dump_body(body) if body is not None else b"",
            ),
            done,
        )
        result = await future
        if isinstance(result, OSError):
            raise result
        status, headers, raw = result
        if _is_json(headers):
            return status, (json.loads(raw) if raw else {})
        return status, raw

    # -- front: serving clients ----------------------------------------------

    def _handle(self, connection: http.ServerConnection, request: http.Request):
        """Route one request; returns the answer, or PENDING when a worker
        reply or a fan-out task answers through ``connection`` later."""
        self._m_requests.inc()
        try:
            return self._route(connection, request)
        except Exception as exc:  # noqa: BLE001 - keep serving
            return self._error_answer(exc, request.method, request.path)

    def _error_answer(self, exc: Exception, method: str, path: str):
        if isinstance(exc, ServiceError):
            return 400, {"error": "ServiceError", "detail": str(exc)}, []
        self._m_errors.inc()
        _LOG.warning(
            "router error on %s %s: %s", method, path, exc, exc_info=exc
        )
        return 500, {"error": "InternalError", "detail": str(exc)}, []

    def _route(self, connection, request: http.Request):
        method, path = request.method, request.path
        if path in ("/v1/check", "/v1/admit"):
            if method != "POST":
                return self._method_not_allowed("POST")
            return self._forward_stream_op(
                connection, path, request.body, _client_headers(connection, request)
            )
        if path == "/v1/release":
            if method != "POST":
                return self._method_not_allowed("POST")
            return self._forward_release(
                connection, request.body, _client_headers(connection, request)
            )
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._fan_out(connection, request, self._fleet_healthz())
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._fan_out(
                connection, request, self._fleet_metrics(request.query)
            )
        if path == "/v1/breakdown":
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._fan_out(connection, request, self._fleet_breakdown())
        return (
            404,
            {
                "error": "NotFound",
                "detail": (
                    f"no such endpoint: {path} (per-worker endpoints like "
                    "/v1/traces are served by the shards directly)"
                ),
            },
            [],
        )

    def _fan_out(self, connection, request: http.Request, coro):
        """Run one observability fan-out as a task that answers when done."""
        task = asyncio.get_running_loop().create_task(coro)
        self._fanouts.add(task)

        def answer(task: asyncio.Task) -> None:
            self._fanouts.discard(task)
            if task.cancelled():
                connection.respond(*self._draining_response())
            elif task.exception() is not None:
                connection.respond(
                    *self._error_answer(
                        task.exception(), request.method, request.path
                    )
                )
            else:
                connection.respond(*task.result())

        task.add_done_callback(answer)
        return http.PENDING

    # -- data plane ----------------------------------------------------------

    def _no_backend_response(self):
        return (
            503,
            {
                "error": "NoWorkers",
                "detail": "no live cluster workers to route to",
            },
            [("Retry-After", "1")],
        )

    def _forward_stream_op(self, connection, path, body, client):
        """Route one check/admit, retrying around dead workers."""
        if self._draining:
            return self._draining_response()
        period_s, payload_bits = parse_stream_body(load_body(body))
        return self._dispatch_stream_op(
            connection, path, body, client, period_s, payload_bits,
            len(self.backends) + 1,
        )

    def _dispatch_stream_op(
        self, connection, path, body, client, period_s, payload_bits, attempts
    ):
        """Send the client's body bytes to the stream's worker.

        Returns PENDING once sent; the worker's reply answers
        ``connection``.  Returns the answer itself when no attempt is
        left (502) or no worker is (503).
        """
        while attempts > 0:
            attempts -= 1
            if not self.backends or self.directory is None:
                return self._no_backend_response()
            shard_id = self.directory.route_stream(period_s, payload_bits)
            backend = self.backends.get(shard_id)
            if backend is None:
                # Ring and backend set disagree transiently; rebalance.
                self._drop_backend(shard_id)
                continue

            def reply(result, shard_id=shard_id) -> None:
                try:
                    answer = self._stream_op_reply(shard_id, path, result)
                    if answer is None:
                        # The worker is gone or draining: retract it from
                        # the ring exactly as if its socket had died (the
                        # lease stays charged until the supervisor
                        # confirms the exit) and retry on a survivor.
                        self._m_retries.inc()
                        self._drop_backend(shard_id)
                        answer = self._dispatch_stream_op(
                            connection, path, body, client, period_s,
                            payload_bits, attempts,
                        )
                except Exception as exc:  # noqa: BLE001 - answer, never hang
                    answer = self._error_answer(exc, "POST", path)
                if answer is not http.PENDING:
                    connection.respond(*answer)

            backend.send(
                http.encode_request("POST", path, backend.address, body, client),
                reply,
            )
            return http.PENDING
        return (
            502,
            {
                "error": "BadGateway",
                "detail": "every candidate worker failed mid-request",
            },
            [],
        )

    def _stream_op_reply(self, shard_id, path, result):
        """The client's answer from a worker's check/admit reply.

        None when the worker must be dropped and the op re-dispatched: it
        is unreachable, hung up, or answered ``503 Draining``.  A check's
        reply passes through as the worker's bytes; an admitted stream's
        id is translated to its fleet id.
        """
        if isinstance(result, OSError):
            return None
        status, headers, raw = result
        if status == 503 and _is_json(headers):
            if json.loads(raw).get("error") == "Draining":
                return None
        extra = [("X-Shard-Id", shard_id)]
        if path == "/v1/admit" and status == 200:
            payload = json.loads(raw)
            if payload.get("admitted") and payload.get("stream_id") is not None:
                fleet_id = self.directory.register_admit(
                    shard_id, payload["stream_id"]
                )
                return status, dict(payload, stream_id=fleet_id), extra
        return status, _raw_body(headers, raw), extra

    def _forward_release(self, connection, body, client):
        """Route one release by the fleet stream-id directory."""
        if self._draining:
            return self._draining_response()
        fleet_id, idempotent = parse_release_body(load_body(body))
        owner = (
            self.directory.owner_of(fleet_id)
            if self.directory is not None
            else None
        )
        if owner is None:
            return self._unknown_stream_response(fleet_id, idempotent)
        shard_id, local_id = owner
        backend = self.backends.get(shard_id)
        if backend is None:
            return self._unknown_stream_response(fleet_id, idempotent)

        def reply(result) -> None:
            try:
                answer = self._release_reply(
                    shard_id, fleet_id, idempotent, result
                )
            except Exception as exc:  # noqa: BLE001 - answer, never hang
                answer = self._error_answer(exc, "POST", "/v1/release")
            connection.respond(*answer)

        backend.send(
            http.encode_request(
                "POST",
                "/v1/release",
                backend.address,
                dump_body({"stream_id": local_id, "idempotent": idempotent}),
                client,
            ),
            reply,
        )
        return http.PENDING

    def _release_reply(self, shard_id, fleet_id, idempotent, result):
        """The client's answer from a worker's release reply."""
        if isinstance(result, OSError):
            # The owner died with the stream: the release's goal state
            # (stream gone) holds, so answer as for an unknown stream.
            self._m_retries.inc()
            self._drop_backend(shard_id)
            self.directory.forget(fleet_id)
            return self._unknown_stream_response(fleet_id, idempotent)
        status, headers, raw = result
        extra = [("X-Shard-Id", shard_id)]
        if status != 200:
            return status, _raw_body(headers, raw), extra
        payload = json.loads(raw)
        if payload.get("released"):
            self.directory.forget(fleet_id)
        return status, dict(payload, stream_id=fleet_id), extra

    @staticmethod
    def _unknown_stream_response(fleet_id: int, idempotent: bool):
        if idempotent:
            return (
                200,
                {
                    "schema_version": WIRE_SCHEMA_VERSION,
                    "released": False,
                    "stream_id": fleet_id,
                },
                [],
            )
        return (
            404,
            {
                "error": "AdmissionError",
                "detail": (
                    f"unknown or already-released stream id: {fleet_id!r}"
                ),
            },
            [],
        )

    # -- observability plane -------------------------------------------------

    async def _shard_fanout(self, method: str, path: str):
        """One request to every live backend; ``{shard: (status, payload)}``."""
        results: dict[str, tuple] = {}

        async def fetch(shard_id: str, backend: _Backend):
            try:
                status, payload = await self._backend_request(
                    backend, method, path, None
                )
                results[shard_id] = (status, payload)
            except OSError:
                results[shard_id] = (None, None)

        await asyncio.gather(
            *(
                fetch(shard_id, backend)
                for shard_id, backend in sorted(self.backends.items())
            )
        )
        return results

    async def _fleet_healthz(self):
        shards = await self._shard_fanout("GET", "/healthz")
        shard_docs: dict[str, dict] = {}
        admitted = 0
        utilization = 0.0
        reachable = 0
        for shard_id, (status, payload) in shards.items():
            if status == 200 and isinstance(payload, dict):
                shard_docs[shard_id] = payload
                admitted += payload.get("admitted", 0)
                utilization += payload.get("utilization", 0.0)
                reachable += 1
            else:
                shard_docs[shard_id] = {"status": "unreachable"}
        leases = self.ledger.leases
        return 200, {
            "schema_version": WIRE_SCHEMA_VERSION,
            "status": (
                "draining"
                if self._draining
                else ("ok" if reachable == len(shards) and shards else "degraded")
            ),
            "workers": len(shards),
            "reachable": reachable,
            "fleet": {
                "admitted": admitted,
                "utilization": utilization,
                "utilization_cap": self.ledger.cap,
                "lease_granted_total": self.ledger.granted_total(),
                "budget_sound": self.ledger.sound(),
            },
            "leases": {
                shard: {"granted": lease.granted, "target": lease.target}
                for shard, lease in sorted(leases.items())
            },
            "shards": shard_docs,
        }, []

    async def _fleet_metrics(self, query: str):
        from urllib.parse import parse_qs

        params = parse_qs(query)
        fmt = params.get("format", ["json"])[-1]
        if fmt == "prometheus":
            shards = await self._shard_fanout(
                "GET", "/metrics?format=prometheus"
            )
            chunks: list[str] = []
            for shard_id, (status, payload) in shards.items():
                if status == 200 and isinstance(payload, (bytes, bytearray)):
                    chunks.append(payload.decode("utf-8"))
            chunks.append(
                prometheus.render(
                    metrics.snapshot(prefix="cluster.router."),
                    labels={"shard_id": "router"},
                )
            )
            text = _dedupe_family_headers("".join(chunks))
            return (
                200,
                http.RawBody(prometheus.CONTENT_TYPE, text.encode("utf-8")),
                [],
            )
        if fmt != "json":
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
        shards = await self._shard_fanout("GET", "/metrics")
        fleet = MetricsRegistry()
        shard_snaps: dict[str, dict] = {}
        for shard_id, (status, payload) in shards.items():
            if status == 200 and isinstance(payload, dict):
                snap = payload.get("metrics", {})
                shard_snaps[shard_id] = snap
                fleet.merge(snap)
        return (
            200,
            {
                "schema_version": WIRE_SCHEMA_VERSION,
                "fleet": fleet.snapshot(),
                "router": metrics.snapshot(prefix="cluster.router."),
                "shards": shard_snaps,
            },
            [],
        )

    async def _fleet_breakdown(self):
        shards = await self._shard_fanout("GET", "/v1/breakdown")
        shard_docs: dict[str, dict] = {}
        utilization = 0.0
        streams = 0
        for shard_id, (status, payload) in shards.items():
            if status == 200 and isinstance(payload, dict):
                shard_docs[shard_id] = payload
                utilization += payload.get("utilization", 0.0)
                streams += payload.get("streams", 0)
        return (
            200,
            {
                "schema_version": WIRE_SCHEMA_VERSION,
                "streams": streams,
                "utilization": utilization,
                "utilization_cap": self.ledger.cap,
                "shards": shard_docs,
            },
            [],
        )

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
                "detail": "cluster is draining; not accepting requests",
            },
            [("Retry-After", "1")],
        )


def _client_headers(connection, request: http.Request):
    """The ``X-Client-Id`` a worker's rate limiter keys this client on:
    the client's own header, else its peer host, as the worker would
    read them on a direct request."""
    return (
        ("X-Client-Id", request.headers.get("x-client-id", connection.peer_host)),
    )


def _dedupe_family_headers(text: str) -> str:
    """Keep only the first ``# HELP`` / ``# TYPE`` line per family.

    Per-shard expositions repeat the family headers; samples differ by
    their ``shard_id`` label, but a valid exposition declares each
    family once.
    """
    seen: set = set()
    out: list[str] = []
    for line in text.splitlines():
        if line.startswith(("# HELP ", "# TYPE ")):
            parts = line.split(" ", 3)
            key = (parts[1], parts[2] if len(parts) > 2 else "")
            if key in seen:
                continue
            seen.add(key)
        out.append(line)
    return "\n".join(out) + "\n" if out else ""


def _is_json(headers: dict) -> bool:
    return headers.get("content-type", "application/json").startswith(
        "application/json"
    )


def _raw_body(headers: dict, raw: bytes) -> http.RawBody:
    """A worker's reply body, passed through with its Content-Type."""
    return http.RawBody(headers.get("content-type", "application/json"), raw)
