"""HTTP/1.1 framing for the admission service, over asyncio streams.

The admission server, the cluster router and the async client speak a
small subset of HTTP/1.1: a request or status line, headers, and a
``Content-Length`` body, with keep-alive connections and no chunked
encoding.  This module is the one copy of that framing; taking it on
keeps the service free of new dependencies.

Server side:

* :func:`serve_connection` runs one keep-alive connection: read the
  request head with one ``readuntil`` and the body within
  :data:`MAX_BODY_BYTES`, call the handler, write, and close on
  ``Connection: close``, end of input or a dropped client.  Malformed
  framing is answered, never leaked: a bad request line or
  ``Content-Length`` gets **400**, a body over :data:`MAX_BODY_BYTES`
  gets **413**, both with ``Connection: close``.

Client side:

* :func:`encode_request` builds the request bytes;
* :func:`read_response` reads one response with one ``readuntil``.  A
  malformed status line or ``Content-Length``, or a peer that hangs up
  mid-response, raises :class:`ConnectionError` — to a caller, bad
  framing is a dead socket.

JSON stays with the callers: a handler returns either a :class:`RawBody`
or a payload for the ``encode`` function it hands to
:func:`serve_connection`, and a client decodes the body bytes it reads.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "MAX_BODY_BYTES",
    "RawBody",
    "Request",
    "serve_connection",
    "encode_request",
    "read_response",
]

#: Request bodies above this are answered 413 (no admission body is more
#: than a few dozen bytes of JSON).
MAX_BODY_BYTES = 64 * 1024

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


class _BadFraming(Exception):
    """The request cannot be framed; answer ``status`` and close."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status


def _parse_headers(block: bytes) -> dict:
    headers: dict[str, str] = {}
    for line in block.decode("latin-1").split("\r\n"):
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return headers


def _content_length(headers: dict) -> int | None:
    """The body length the headers announce; None when malformed."""
    raw = headers.get("content-length") or "0"
    return int(raw) if raw.isascii() and raw.isdigit() else None


# -- server side ----------------------------------------------------------------


async def _read_request(reader: asyncio.StreamReader) -> Request | None:
    """The next request on the connection; None at end of input.

    Raises :class:`_BadFraming` for a request the server must refuse.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError:
        return None  # EOF between requests, or the client died mid-head
    except asyncio.LimitOverrunError:
        raise _BadFraming(400, "request head too large") from None
    request_line, _, header_block = head.partition(b"\r\n")
    parts = request_line.decode("latin-1").split(" ")
    if len(parts) != 3:
        raise _BadFraming(400, f"malformed request line: {request_line[:80]!r}")
    method, target, _version = parts
    headers = _parse_headers(header_block)
    length = _content_length(headers)
    if length is None:
        raise _BadFraming(
            400, f"malformed Content-Length: {headers['content-length'][:40]!r}"
        )
    if length > MAX_BODY_BYTES:
        raise _BadFraming(
            413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )
    body = await reader.readexactly(length) if length else b""
    path, _, query = target.partition("?")
    return Request(method, path, query, headers, body)


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


async def serve_connection(reader, writer, handle, encode) -> None:
    """Serve one keep-alive connection until it closes.

    ``handle(request)`` is awaited per request and returns ``(status,
    payload, extra_headers)``; ``payload`` is a :class:`RawBody` or a
    value that ``encode`` turns into JSON bytes.
    """
    try:
        while True:
            try:
                request = await _read_request(reader)
            except _BadFraming as exc:
                error = {"error": "BadRequest", "detail": str(exc)}
                writer.write(_response(exc.status, error, (), False, encode))
                await writer.drain()
                break
            if request is None:
                break
            status, payload, extra_headers = await handle(request)
            keep_alive = (
                request.headers.get("connection", "keep-alive").lower()
                != "close"
            )
            writer.write(
                _response(status, payload, extra_headers, keep_alive, encode)
            )
            await writer.drain()
            if not keep_alive:
                break
    except (OSError, asyncio.IncompleteReadError):
        pass  # the client went away mid-exchange; nothing to answer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:  # pragma: no cover
            pass


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


async def read_response(reader: asyncio.StreamReader):
    """One response as ``(status, headers, body)``.

    Raises :class:`ConnectionError` when the peer hangs up mid-response
    or frames it badly.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
        status_line, _, header_block = head.partition(b"\r\n")
        parts = status_line.split(b" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"malformed status line: {status_line[:80]!r}")
        headers = _parse_headers(header_block)
        length = _content_length(headers)
        if length is None:
            raise ConnectionError(
                f"malformed Content-Length: {headers['content-length'][:40]!r}"
            )
        body = await reader.readexactly(length) if length else b""
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
        raise ConnectionError(f"incomplete response: {exc}") from exc
    return int(parts[1]), headers, body
