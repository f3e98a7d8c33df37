"""Clients for the admission service: blocking and asyncio, stdlib only.

:class:`ServiceClient` wraps :mod:`http.client` with a persistent
keep-alive connection — the natural fit for scripts and tests.
:class:`AsyncServiceClient` speaks the same wire protocol over one
asyncio stream, framed by :mod:`repro.service.http`, and is what the
load generator multiplexes by the hundreds.

Both expose the same surface:

* ``check(period_s, payload_bits)`` / ``admit(...)`` — returns the wire
  decision dict (``admitted``, ``stream_id``, ``station``, ``reason``,
  ``tested_by``, ``utilization_after``);
* ``release(stream_id, idempotent=False)`` — returns the wire release
  outcome;
* ``breakdown()`` / ``healthz()`` / ``metrics()`` / ``traces()`` — the
  GET endpoints;
* ``metrics_text()`` — the Prometheus exposition as raw text;
* ``request(method, path, body)`` — the raw ``(status, payload)`` escape
  hatch.

After every exchange, ``last_headers`` holds the response headers
(lower-cased) — the load generator reads ``x-trace-id`` there to pair
each measured latency with its server-side trace.

Error contract: transport failures and non-2xx responses raise
:class:`~repro.errors.ServiceError`.  Backpressure (429/503) raises
:class:`Backoff`, a ``ServiceError`` carrying ``status`` and
``retry_after_s`` so callers can implement honest retry loops; a 404 on
release raises :class:`~repro.errors.AdmissionError`, mirroring the
direct-call API.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math

from repro.errors import AdmissionError, ServiceError
from repro.service.http import encode_request, read_response

__all__ = ["Backoff", "ServiceClient", "AsyncServiceClient"]


class Backoff(ServiceError):
    """The service shed the request (429) or is draining (503)."""

    def __init__(self, message: str, status: int, retry_after_s: float):
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


def _sanitize_delay(seconds: float) -> float:
    """Clamp a parsed retry delay to a sane non-negative value.

    NaN, infinities, and negative delays all clamp to 0 (retry
    immediately) — a hostile or buggy header must never stall a client
    forever or crash its retry arithmetic.
    """
    if not math.isfinite(seconds) or seconds < 0.0:
        return 0.0
    return seconds


def _retry_after_seconds(headers: dict, default: float = 1.0) -> float:
    """The ``Retry-After`` header as seconds (RFC 9110 delay-seconds form).

    The header name is matched case-insensitively (both clients lower-case
    response headers, but the helper must also serve callers handing in
    raw header dicts).  Numeric values — integral seconds per the RFC,
    plus fractional and whitespace-padded forms — are honored and
    sanitized through :func:`_sanitize_delay`; anything unparsable
    (e.g. the HTTP-date form) falls back to ``default``.
    """
    raw = None
    for name, value in headers.items():
        if str(name).lower() == "retry-after":
            raw = value
            break
    if raw is None:
        return default
    try:
        seconds = float(str(raw).strip())
    except (TypeError, ValueError):
        return default
    return _sanitize_delay(seconds)


def _raise_for_status(status: int, payload: dict, headers: dict) -> None:
    if 200 <= status < 300:
        return
    detail = payload.get("detail", payload.get("error", "unknown error"))
    if status in (429, 503):
        try:
            retry_after = _sanitize_delay(float(payload.get("retry_after_s")))
        except (TypeError, ValueError):
            retry_after = _retry_after_seconds(headers)
        raise Backoff(f"HTTP {status}: {detail}", status, retry_after)
    if status == 404 and payload.get("error") == "AdmissionError":
        raise AdmissionError(detail)
    raise ServiceError(f"HTTP {status}: {detail}")


def _decode(raw: bytes) -> dict:
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed response body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError(f"expected a JSON object, got {raw[:80]!r}")
    return payload


class _EndpointMixin:
    """The high-level endpoint surface, shared sync/async via ``_call``."""

    def check(self, period_s: float, payload_bits: float):
        """Non-mutating what-if decision."""
        return self._call(
            "POST",
            "/v1/check",
            {"period_s": period_s, "payload_bits": payload_bits},
        )

    def admit(self, period_s: float, payload_bits: float):
        """Admission request; the decision carries ``stream_id`` on success."""
        return self._call(
            "POST",
            "/v1/admit",
            {"period_s": period_s, "payload_bits": payload_bits},
        )

    def release(self, stream_id: int, idempotent: bool = False):
        """Release an admitted stream."""
        return self._call(
            "POST",
            "/v1/release",
            {"stream_id": stream_id, "idempotent": idempotent},
        )

    def breakdown(self):
        """Headroom report for the admitted population."""
        return self._call("GET", "/v1/breakdown", None)

    def lease(self, utilization_cap: float | None = ...):
        """Read — or, given a cap (``None`` clears it), install — the
        worker's utilization-budget lease (cluster control plane)."""
        if utilization_cap is ...:
            return self._call("GET", "/v1/lease", None)
        return self._call(
            "POST", "/v1/lease", {"utilization_cap": utilization_cap}
        )

    def healthz(self):
        """Liveness / drain status."""
        return self._call("GET", "/healthz", None)

    def metrics(self):
        """The service's metric snapshot."""
        return self._call("GET", "/metrics", None)

    def traces(self, limit: int | None = None):
        """Recent request traces from the server's ring buffer."""
        path = (
            "/v1/traces"
            if limit is None
            else f"/v1/traces?limit={int(limit)}"
        )
        return self._call("GET", path, None)


class ServiceClient(_EndpointMixin):
    """Blocking client over one keep-alive :mod:`http.client` connection.

    Usable as a context manager; reconnects transparently if the server
    closed the idle connection.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8711,
        *,
        client_id: str | None = None,
        timeout_s: float = 30.0,
    ):
        self._host = host
        self._port = port
        self._client_id = client_id
        self._timeout_s = timeout_s
        self._conn: http.client.HTTPConnection | None = None
        self.last_headers: dict[str, str] = {}

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drop the persistent connection (if any)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        decode: bool = True,
    ):
        """Raw ``(status, payload)`` without status-based raising.

        ``decode=False`` skips the JSON decode and returns the body as
        bytes (the Prometheus exposition path).
        """
        data = (
            json.dumps(body, separators=(",", ":")).encode("utf-8")
            if body is not None
            else None
        )
        headers = {"Content-Type": "application/json"}
        if self._client_id is not None:
            headers["X-Client-Id"] = self._client_id
        for attempt in (1, 2):  # one transparent reconnect for stale sockets
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self._host, self._port, timeout=self._timeout_s
                )
            try:
                self._conn.request(method, path, body=data, headers=headers)
                response = self._conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                self.close()
                if attempt == 2:
                    raise ServiceError(
                        f"admission service at "
                        f"{self._host}:{self._port} unreachable: {exc}"
                    ) from exc
                continue
            self.last_headers = {
                k.lower(): v for k, v in response.getheaders()
            }
            payload = _decode(raw) if decode else raw
            return response.status, payload, dict(response.getheaders())
        raise AssertionError("unreachable")  # pragma: no cover

    def metrics_text(self) -> str:
        """The Prometheus text exposition (``/metrics?format=prometheus``)."""
        status, raw, _ = self.request(
            "GET", "/metrics?format=prometheus", decode=False
        )
        if status != 200:
            raise ServiceError(
                f"HTTP {status} fetching prometheus metrics"
            )
        return raw.decode("utf-8")

    def _call(self, method: str, path: str, body: dict | None):
        status, payload, headers = self.request(method, path, body)
        _raise_for_status(
            status, payload, {k.lower(): v for k, v in headers.items()}
        )
        return payload


class AsyncServiceClient(_EndpointMixin):
    """Asyncio client over one keep-alive stream.

    Every high-level method is awaitable (``_call`` is a coroutine, so the
    mixin methods return coroutines here).  One client = one connection =
    one in-flight request; the load generator opens one per worker.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8711,
        *,
        client_id: str | None = None,
    ):
        self._host = host
        self._port = port
        self._address = f"{host}:{port}"
        self._extra_headers = (
            () if client_id is None else (("X-Client-Id", client_id),)
        )
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self.last_headers: dict[str, str] = {}

    async def __aenter__(self) -> "AsyncServiceClient":
        await self._connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )

    async def close(self) -> None:
        """Close the stream."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._reader = self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        decode: bool = True,
    ):
        """Raw ``(status, payload, headers)`` without status-based raising."""
        if self._writer is None:
            await self._connect()
        data = (
            json.dumps(body, separators=(",", ":")).encode("utf-8")
            if body is not None
            else b""
        )
        try:
            self._writer.write(
                encode_request(
                    method, path, self._address, data, self._extra_headers
                )
            )
            await self._writer.drain()
            status, headers, raw = await read_response(self._reader)
        except OSError as exc:
            await self.close()
            raise ServiceError(
                f"admission service at {self._address} "
                f"dropped the connection: {exc}"
            ) from exc
        if headers.get("connection", "").lower() == "close":
            await self.close()
        self.last_headers = headers
        return status, _decode(raw) if decode else raw, headers

    async def _call(self, method: str, path: str, body: dict | None):
        status, payload, headers = await self.request(method, path, body)
        _raise_for_status(status, payload, headers)
        return payload

    async def metrics_text(self) -> str:
        """The Prometheus text exposition (``/metrics?format=prometheus``)."""
        status, raw, _ = await self.request(
            "GET", "/metrics?format=prometheus", decode=False
        )
        if status != 200:
            raise ServiceError(
                f"HTTP {status} fetching prometheus metrics"
            )
        return raw.decode("utf-8")
