"""HTTP/1.1 framing for the admission service.

The admission server, the cluster router and the async client speak a
small subset of HTTP/1.1: a request or status line, headers, and a
``Content-Length`` body, with keep-alive connections and no transfer
codings.  This module is the one copy of that framing; taking it on
keeps the service free of new dependencies.

One head parser frames every request a server front receives.  It
refuses, with ``Connection: close``:

* a bad request line, a malformed or conflicting ``Content-Length``
  (two different values), or a head over :data:`MAX_HEAD_BYTES`, with
  **400**;
* a body over :data:`MAX_BODY_BYTES` with **413**;
* any ``Transfer-Encoding`` (chunked bodies are not supported) with
  **501**.

An ``HTTP/1.0`` request is kept alive only when it asks for
``Connection: keep-alive``; an ``HTTP/1.1`` one unless it asks for
``Connection: close``.

Server side, :class:`ServerConnection` is the one front, an
:class:`asyncio.Protocol` that both the admission server and the cluster
router serve: ``data_received`` appends to the connection's buffer and
hands each complete request to a plain function, which answers inline
or returns :data:`PENDING` and later calls
:meth:`ServerConnection.respond` (the batcher's flush does, and so does
the router once its worker replies).  One request per connection is in
flight, so pipelined replies stay in order; the next buffered request is
parsed once the current one is answered.  There is no task per
connection and no future per request.  While the transport's write
buffer is over its high-water mark, parsing and reading both stop.

Client side, one status-head parser frames every response:

* :func:`encode_request` builds the request bytes;
* :func:`read_response` reads one response over asyncio streams with one
  ``readuntil`` (the async client uses it);
* :class:`ClientConnection` is the callback counterpart the cluster
  router keeps per worker: one request at a time, the response framed
  in ``data_received``, ``done`` called with it.

A malformed status line or ``Content-Length``, or a peer that hangs up
mid-response, is a :class:`ConnectionError` on both — to a caller, bad
framing is a dead socket.

JSON stays with the callers: a handler returns either a :class:`RawBody`
or a payload for the ``encode`` function it is served with, and a client
decodes the body bytes it reads.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEAD_BYTES",
    "PENDING",
    "RawBody",
    "Request",
    "ServerConnection",
    "ClientConnection",
    "encode_request",
    "read_response",
]

#: Request bodies above this are answered 413 (no admission body is more
#: than a few dozen bytes of JSON).
MAX_BODY_BYTES = 64 * 1024

#: A request head above this is answered 400 (the stream reader's limit).
MAX_HEAD_BYTES = 64 * 1024

#: Returned by a :class:`ServerConnection` handler that will answer later
#: through :meth:`ServerConnection.respond`.
PENDING = object()

_JSON = "application/json"

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class RawBody:
    """A pre-encoded response body with its own Content-Type.

    Handlers return one of these for anything that is not JSON (the
    Prometheus exposition), so it is served as ``text/plain`` instead of
    being mislabelled ``application/json``.
    """

    content_type: str
    data: bytes


class Request(NamedTuple):
    """One parsed request; ``headers`` has lower-cased names."""

    method: str
    path: str
    query: str
    headers: dict
    body: bytes
    keep_alive: bool


class _BadFraming(Exception):
    """The request cannot be framed; answer ``status`` and close."""

    def __init__(self, status: int, detail: str, error: str = "BadRequest"):
        super().__init__(detail)
        self.status = status
        self.error = error


def _parse_headers(block) -> dict:
    """Header block to a dict; a repeated name folds as ``a, b``."""
    headers: dict[str, str] = {}
    for line in block.decode("latin-1").split("\r\n"):
        if line:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            value = value.strip()
            if name in headers:
                value = f"{headers[name]}, {value}"
            headers[name] = value
    return headers


def _content_length(headers: dict) -> int | None:
    """The body length the headers announce; None when malformed.

    Repeated ``Content-Length`` headers are accepted only when they all
    carry the same value.
    """
    raw = headers.get("content-length") or "0"
    if raw.isascii() and raw.isdigit():
        return int(raw)
    values = {value.strip() for value in raw.split(",")}
    if len(values) == 1:
        (value,) = values
        if value.isascii() and value.isdigit():
            return int(value)
    return None


def _parse_head(head):
    """Frame one request head (without its blank line).

    Returns ``(method, path, query, headers, keep_alive, body_length)``;
    raises :class:`_BadFraming` for a request the server must refuse.
    """
    request_line, _, header_block = head.partition(b"\r\n")
    parts = request_line.decode("latin-1").split(" ")
    if len(parts) != 3:
        raise _BadFraming(
            400, f"malformed request line: {bytes(request_line[:80])!r}"
        )
    method, target, version = parts
    headers = _parse_headers(header_block)
    if "transfer-encoding" in headers:
        raise _BadFraming(
            501,
            f"Transfer-Encoding {headers['transfer-encoding'][:40]!r} "
            "is not supported; send a Content-Length body",
            "NotImplemented",
        )
    length = _content_length(headers)
    if length is None:
        raise _BadFraming(
            400,
            "malformed or conflicting Content-Length: "
            f"{headers['content-length'][:40]!r}",
        )
    if length > MAX_BODY_BYTES:
        raise _BadFraming(
            413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        keep_alive = connection == "keep-alive"
    else:
        keep_alive = connection != "close"
    path, _, query = target.partition("?")
    return method, path, query, headers, keep_alive, length


def _response(status, payload, extra_headers, keep_alive, encode) -> bytes:
    if isinstance(payload, RawBody):
        content_type, data = payload.content_type, payload.data
    else:
        content_type, data = _JSON, encode(payload)
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
    )
    for name, value in extra_headers:
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + data


def _refusal(exc: _BadFraming, encode) -> bytes:
    error = {"error": exc.error, "detail": str(exc)}
    return _response(exc.status, error, (), False, encode)


# -- server side: callbacks -----------------------------------------------------


class ServerConnection(asyncio.Protocol):
    """One keep-alive connection, served by callbacks.

    ``handle(connection, request)`` is called once per request, on the
    event loop.  It returns ``(status, payload, extra_headers)`` to answer
    at once, or :data:`PENDING` after arranging for
    :meth:`respond` to be called with that triple later.  ``payload`` is
    a :class:`RawBody` or a value that ``encode`` turns into JSON bytes.
    """

    def __init__(self, handle, encode):
        self._handle = handle
        self._encode = encode
        self._buffer = bytearray()
        self._transport: asyncio.Transport | None = None  # None once closed
        self._in_flight = False
        self._keep_alive = True  # of the request in flight
        self._write_paused = False
        self._eof = False
        self.peer_host = ""

    # -- asyncio.Protocol ------------------------------------------------------

    def connection_made(self, transport) -> None:
        """Keep the transport and the peer's host (the rate-limit key)."""
        self._transport = transport
        peer = transport.get_extra_info("peername")
        self.peer_host = peer[0] if isinstance(peer, tuple) else str(peer)

    def data_received(self, data: bytes) -> None:
        """Buffer ``data``; handle it unless a request is in flight."""
        self._buffer += data
        if not self._in_flight and not self._write_paused:
            self._parse()
        elif len(self._buffer) > MAX_HEAD_BYTES + MAX_BODY_BYTES:
            self._transport.pause_reading()  # resumed once it is parsed

    def eof_received(self) -> bool:
        """Answer what the client sent before it half-closed, then close."""
        self._eof = True
        if not self._in_flight and not self._write_paused:
            self._parse()
        return True

    def connection_lost(self, exc) -> None:
        """Forget the transport: a late :meth:`respond` writes nothing."""
        self._transport = None

    def pause_writing(self) -> None:
        """Stop parsing and reading while the write buffer is high."""
        self._write_paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        """Parse again; reading resumes once no whole request is buffered."""
        self._write_paused = False
        if self._transport is not None and not self._in_flight:
            self._parse()

    # -- answering -------------------------------------------------------------

    def respond(self, status: int, payload, extra_headers=()) -> None:
        """Answer the request in flight, then parse the next buffered one."""
        self._write(status, payload, extra_headers)
        if self._transport is not None and not self._write_paused:
            self._parse()

    def _write(self, status, payload, extra_headers) -> None:
        self._in_flight = False
        transport = self._transport
        if transport is None:
            return  # the client went away while its request was pending
        transport.write(
            _response(status, payload, extra_headers, self._keep_alive, self._encode)
        )
        if not self._keep_alive:
            transport.close()
            self._transport = None

    def _parse(self) -> None:
        """Handle buffered requests until one is pending or none is whole."""
        buffer = self._buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end < 0 and len(buffer) <= MAX_HEAD_BYTES:
                break
            try:
                if end < 0 or end + 4 > MAX_HEAD_BYTES:
                    raise _BadFraming(400, "request head too large")
                method, path, query, headers, keep_alive, length = _parse_head(
                    buffer[:end]
                )
            except _BadFraming as exc:
                self._transport.write(_refusal(exc, self._encode))
                self._transport.close()
                self._transport = None
                return
            start = end + 4
            if len(buffer) - start < length:
                break
            body = bytes(buffer[start : start + length])
            del buffer[: start + length]
            self._in_flight = True
            self._keep_alive = keep_alive
            answer = self._handle(
                self, Request(method, path, query, headers, body, keep_alive)
            )
            if answer is PENDING:
                return
            self._write(*answer)
            if self._transport is None or self._write_paused:
                return
        # No whole request is buffered.
        transport = self._transport
        if self._eof:
            transport.close()
            self._transport = None
        elif not transport.is_reading():
            transport.resume_reading()


# -- client side ----------------------------------------------------------------


def encode_request(method, path, host, body: bytes, extra_headers=()) -> bytes:
    """One keep-alive request with a JSON (or empty) body, as bytes."""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Type: {_JSON}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n"
    )
    for name, value in extra_headers:
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + body


def _parse_status_head(head) -> tuple[int, dict, int]:
    """Frame one response head (without its blank line).

    Returns ``(status, headers, body_length)``; raises
    :class:`ConnectionError` for a malformed status line or
    ``Content-Length``.
    """
    status_line, _, header_block = bytes(head).partition(b"\r\n")
    parts = status_line.split(b" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line: {status_line[:80]!r}")
    headers = _parse_headers(header_block)
    length = _content_length(headers)
    if length is None:
        raise ConnectionError(
            f"malformed Content-Length: {headers['content-length'][:40]!r}"
        )
    return int(parts[1]), headers, length


async def read_response(reader: asyncio.StreamReader):
    """One response as ``(status, headers, body)``.

    Raises :class:`ConnectionError` when the peer hangs up mid-response
    or frames it badly.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
        status, headers, length = _parse_status_head(head[:-4])
        body = await reader.readexactly(length) if length else b""
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
        raise ConnectionError(f"incomplete response: {exc}") from exc
    return status, headers, body


class ClientConnection(asyncio.Protocol):
    """One keep-alive connection to a server, driven by callbacks.

    It carries one request at a time: :meth:`send` writes the request's
    bytes, and ``done`` is called once, on the event loop, with
    ``(status, headers, body)`` — or with an :class:`OSError` when the
    response is badly framed (a :class:`ConnectionError`, as from
    :func:`read_response`) or the connection is lost first.  Once a
    response is read, ``on_idle(connection)`` is called before ``done``
    so that the owner can pool the connection for its next request; a
    connection that failed, or whose response said ``Connection:
    close``, is closed and not offered.
    """

    def __init__(self, on_idle):
        self._on_idle = on_idle
        self._transport: asyncio.Transport | None = None  # None once closed
        self._buffer = bytearray()
        self._done = None  # of the request in flight
        self._head = None  # (status, headers, length) once framed

    @property
    def is_open(self) -> bool:
        """Whether the connection can carry another request."""
        return self._transport is not None and not self._transport.is_closing()

    def send(self, data: bytes, done) -> None:
        """Write one request; ``done`` gets its response or an OSError."""
        self._done = done
        self._transport.write(data)

    def close(self) -> None:
        """Close the connection; a request in flight fails with OSError."""
        if self._transport is not None:
            self._transport.close()

    # -- asyncio.Protocol ------------------------------------------------------

    def connection_made(self, transport) -> None:
        """Keep the transport."""
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        """Buffer ``data``; finish the request once its response is whole."""
        if self._done is None:
            self._fail(ConnectionError("response bytes with no request sent"))
            return
        buffer = self._buffer
        buffer += data
        if self._head is None:
            end = buffer.find(b"\r\n\r\n")
            if end < 0:
                if len(buffer) > MAX_HEAD_BYTES:
                    self._fail(ConnectionError("response head too large"))
                return
            try:
                self._head = _parse_status_head(buffer[:end])
            except ConnectionError as exc:
                self._fail(exc)
                return
            del buffer[: end + 4]
        status, headers, length = self._head
        if len(buffer) < length:
            return
        body = bytes(buffer[:length])
        del buffer[:length]
        self._head = None
        done, self._done = self._done, None
        if headers.get("connection", "").lower() == "close" or buffer:
            self.close()
        else:
            self._on_idle(self)
        done((status, headers, body))

    def connection_lost(self, exc) -> None:
        """Fail the request in flight, if any."""
        self._transport = None
        if self._done is not None:
            self._fail(
                ConnectionError(f"connection lost mid-response: {exc or 'EOF'}")
            )

    def _fail(self, exc: OSError) -> None:
        done, self._done = self._done, None
        self.close()
        self._transport = None
        if done is not None:
            done(exc)
