"""The shared HTTP/1.1 codec (repro.service.http) on both fronts.

The admission server and the cluster router frame requests with the
same head parser, so malformed framing must get the same answer from
both: a status line and ``Connection: close``, never an exception that
escapes the connection handler into the event loop.  On the client side,
a peer that frames its response badly is a dead connection.

Both fronts serve their connections by callbacks, not tasks: pipelined
requests are answered in order, a request may arrive a byte at a time,
a client may vanish while its op waits in the batcher, and a paused
write buffer stops parsing until it drains.  Through the router, a check
starts no task and its reply body is the worker's bytes, and a request
body either front refuses gets the same answer from both.
"""

from __future__ import annotations

import asyncio
import gc
import json
import socket
import struct

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.router import ClusterRouter
from repro.errors import ServiceError
from repro.service.client import AsyncServiceClient
from repro.service.http import _parse_head, read_response
from repro.service.protocol import ServiceConfig
from repro.service.server import AdmissionServer

_CHECK_BODY = b'{"period_s":0.032,"payload_bits":512}'  # 37 (0x25) bytes

#: Requests either front must answer and then close: ``(raw, status,
#: error)``, with ``error`` the answer's error name (None for a success).
MALFORMED = {
    "content-length-not-a-number": (
        b"POST /v1/check HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        400,
        "BadRequest",
    ),
    "negative-content-length": (
        b"POST /v1/check HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        400,
        "BadRequest",
    ),
    "body-over-the-limit": (
        b"POST /v1/check HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
        413,
        "BadRequest",
    ),
    "garbage-request-line": (b"GARBAGE\r\n\r\n", 400, "BadRequest"),
    "conflicting-content-lengths": (
        b"POST /v1/check HTTP/1.1\r\nContent-Length: 3\r\n"
        b"Content-Length: 37\r\n\r\n" + _CHECK_BODY,
        400,
        "BadRequest",
    ),
    "chunked-body": (
        b"POST /v1/check HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"25\r\n" + _CHECK_BODY + b"\r\n0\r\n\r\n",
        501,
        "NotImplemented",
    ),
    "http-1.0-without-keep-alive": (
        b"GET /metrics HTTP/1.0\r\n\r\n",
        200,
        None,
    ),
}


async def _start_front(front: str):
    """Start one front on an ephemeral port; returns (port, stop)."""
    if front == "server":
        server = AdmissionServer(ServiceConfig(port=0))
        await server.start()
        return server.port, server.drain_and_stop
    router = ClusterRouter(
        ClusterConfig(n_workers=1, service=ServiceConfig(port=0)), pool=None
    )
    await router.start()
    return router.port, router.drain_and_stop


@pytest.mark.parametrize("front", ["server", "router"])
@pytest.mark.parametrize(
    "raw, status, error", list(MALFORMED.values()), ids=list(MALFORMED)
)
def test_malformed_framing_is_answered_and_closed(front, raw, status, error):
    async def go():
        leaked = []
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _loop, context: leaked.append(context))
        port, stop = await _start_front(front)
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(raw)
            await writer.drain()
            response = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.01)  # let the connection handler finish
            gc.collect()  # surface any "exception never retrieved" task
        finally:
            await stop()
        return response, leaked

    response, leaked = asyncio.run(go())
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].startswith(b"HTTP/1.1 %d " % status)
    assert b"Connection: close" in head
    if error is None:
        assert b'"error"' not in body
    else:
        assert b'"error":"%s"' % error.encode() in body
    assert leaked == []


def test_repeated_equal_content_lengths_frame_one_body():
    head = b"POST /v1/check HTTP/1.1\r\nContent-Length: 37\r\ncontent-length: 37"
    assert _parse_head(head)[-1] == 37


def test_malformed_status_line_drops_the_client_connection():
    async def go():
        async def bad_peer(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(b"NONSENSE\r\nContent-Length: 0\r\n\r\n")
            await writer.drain()
            writer.close()
            await writer.wait_closed()

        peer = await asyncio.start_server(bad_peer, "127.0.0.1", 0)
        port = peer.sockets[0].getsockname()[1]
        client = AsyncServiceClient("127.0.0.1", port)
        try:
            with pytest.raises(ServiceError, match="malformed status line"):
                await client.healthz()
            assert client._writer is None  # the connection was closed
        finally:
            await client.close()
            peer.close()
            await peer.wait_closed()

    asyncio.run(go())


# -- the callback front, on both fronts --------------------------------------


def _request(method: str, path: str, body: bytes = b"", version="HTTP/1.1") -> bytes:
    return (
        f"{method} {path} {version}\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


async def _read_replies(reader, count: int) -> list:
    """``count`` responses as ``(status, headers, decoded body)``."""
    replies = []
    for _ in range(count):
        status, headers, body = await asyncio.wait_for(
            read_response(reader), timeout=10.0
        )
        replies.append((status, headers, json.loads(body)))
    return replies


def _serve(test, front="server"):
    """Run ``test(server, port)`` against a started admission server.

    ``port`` is the server's own, or with ``front="router"`` that of a
    cluster router in front of it (its heartbeat never fires).
    """

    async def go():
        leaked = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: leaked.append(context)
        )
        server = AdmissionServer(ServiceConfig(port=0, n_stations=8))
        await server.start()
        router = None
        try:
            port = server.port
            if front == "router":
                router = ClusterRouter(
                    ClusterConfig(
                        n_workers=1,
                        heartbeat_s=3600.0,
                        service=ServiceConfig(port=0),
                    ),
                    pool=None,
                )
                router.add_backend("w0", "127.0.0.1", server.port)
                await router.start()
                port = router.port
            result = await test(server, port)
        finally:
            if router is not None:
                await router.drain_and_stop()
            await server.drain_and_stop()
        assert leaked == []
        return result

    return asyncio.run(go())


def _admitted(health: dict) -> int:
    """Admitted streams from a server's or the router's ``/healthz``."""
    return health["fleet"]["admitted"] if "fleet" in health else health["admitted"]


FRONTS = pytest.mark.parametrize("front", ["server", "router"])


@FRONTS
def test_pipelined_requests_are_answered_in_order(front):
    async def test(server, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            _request("POST", "/v1/admit", _CHECK_BODY)
            + _request("GET", "/healthz")
            + _request("POST", "/v1/check", b'{"period_s":0.064,"payload_bits":64}')
        )
        replies = await _read_replies(reader, 3)
        writer.close()
        await writer.wait_closed()
        return replies

    (s1, _, admit), (s2, _, health), (s3, _, check) = _serve(test, front)
    assert (s1, s2, s3) == (200, 200, 200)
    assert admit["stream_id"] == 1
    assert _admitted(health) == 1  # parsed only once the admit was answered
    assert check["admitted"] is True and check["stream_id"] is None


@FRONTS
def test_request_fed_one_byte_per_write_is_answered(front):
    async def test(server, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for byte in _request("POST", "/v1/check", _CHECK_BODY):
            writer.write(bytes([byte]))
            await writer.drain()
            await asyncio.sleep(0)
        (reply,) = await _read_replies(reader, 1)
        writer.close()
        await writer.wait_closed()
        return reply

    status, headers, decision = _serve(test, front)
    assert status == 200
    assert headers["connection"] == "keep-alive"
    assert decision["admitted"] is True


@FRONTS
def test_http_1_0_keep_alive_is_honoured(front):
    async def test(server, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        keep = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        writer.write(keep + keep)
        replies = await _read_replies(reader, 2)
        writer.close()
        await writer.wait_closed()
        return replies

    replies = _serve(test, front)
    assert [headers["connection"] for _, headers, _ in replies] == [
        "keep-alive",
        "keep-alive",
    ]


@FRONTS
def test_client_gone_while_its_op_is_queued_leaves_no_error(front):
    async def test(server, port):
        batcher = server.batcher
        batcher._flush = lambda: None  # hold the op in the batcher
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(_request("POST", "/v1/admit", _CHECK_BODY))
        await writer.drain()
        for _ in range(100):
            if batcher.queue_depth:
                break
            await asyncio.sleep(0.001)
        assert batcher.queue_depth == 1
        # Reset the connection, and let the server see it.
        sock = writer.get_extra_info("socket")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        writer.transport.abort()
        await asyncio.sleep(0.05)
        del batcher._flush
        batcher._flush()  # the held batch answers a client that is gone
        assert batcher.queue_depth == 0
        async with AsyncServiceClient("127.0.0.1", port) as client:
            health = await client.healthz()
            after = await client.admit(0.032, 512.0)  # the next batch runs
        return health, after

    health, after = _serve(test, front)
    assert _admitted(health) == 1  # the gone client's admit was decided
    assert after["stream_id"] == 2


@FRONTS
def test_open_connections_add_no_tasks(front):
    async def test(server, port):
        baseline = len(asyncio.all_tasks())
        connections = []
        for _ in range(3):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(_request("POST", "/v1/check", _CHECK_BODY))
            await _read_replies(reader, 1)
            writer.write(b"POST /v1/check HTTP/1.1\r\nContent-")  # mid-request
            await writer.drain()
            connections.append(writer)
        await asyncio.sleep(0.01)
        during = len(asyncio.all_tasks())
        for writer in connections:
            writer.close()
            await writer.wait_closed()
        return baseline, during

    baseline, during = _serve(test, front)
    assert during == baseline


@FRONTS
def test_warm_checks_start_no_task(front):
    """Once the connections are open, a check costs callbacks only."""

    async def test(server, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(_request("POST", "/v1/check", _CHECK_BODY))
        await _read_replies(reader, 1)  # opens the router's worker connection
        loop = asyncio.get_running_loop()
        started, statuses = [], []

        def count(loop, coro, **kwargs):
            started.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        async def checks():
            loop.set_task_factory(count)
            try:
                for _ in range(20):
                    writer.write(_request("POST", "/v1/check", _CHECK_BODY))
                    statuses.append((await read_response(reader))[0])
            finally:
                loop.set_task_factory(None)

        await asyncio.wait_for(checks(), timeout=10.0)
        assert statuses == [200] * 20
        writer.close()
        await writer.wait_closed()
        return started

    assert _serve(test, front) == []


def test_router_passes_a_check_reply_through_byte_for_byte():
    async def test(server, port):
        replies = []
        for target in (server.port, port):
            async with AsyncServiceClient("127.0.0.1", target) as client:
                status, raw, headers = await client.request(
                    "POST",
                    "/v1/check",
                    {"period_s": 0.032, "payload_bits": 512},
                    decode=False,
                )
            replies.append((status, raw, headers))
        return replies

    (direct, raw_direct, _), (routed, raw_routed, headers) = _serve(
        test, "router"
    )
    assert direct == routed == 200
    assert raw_routed == raw_direct
    assert headers["x-shard-id"] == "w0"


#: Release bodies either front refuses, with the one answer both give.
BAD_RELEASES = {
    "idempotent-not-a-boolean": (
        {"stream_id": 1, "idempotent": "no"},
        "field 'idempotent' must be a boolean, got 'no'",
    ),
    "unknown-id-idempotent-not-a-boolean": (
        {"stream_id": 99, "idempotent": "no"},
        "field 'idempotent' must be a boolean, got 'no'",
    ),
    "stream-id-not-an-integer": (
        {"stream_id": "1"},
        "field 'stream_id' must be an integer, got '1'",
    ),
    "body-not-an-object": ([1], "request body must be a JSON object, got list"),
}


@FRONTS
@pytest.mark.parametrize(
    "body, detail", list(BAD_RELEASES.values()), ids=list(BAD_RELEASES)
)
def test_invalid_release_is_refused_and_releases_nothing(front, body, detail):
    async def test(server, port):
        async with AsyncServiceClient("127.0.0.1", port) as client:
            admitted = await client.admit(0.032, 512.0)
            refused = await client.request("POST", "/v1/release", body)
            released = await client.request(
                "POST", "/v1/release", {"stream_id": admitted["stream_id"]}
            )
        return admitted, refused, released

    admitted, (status, payload, _), (after, outcome, _) = _serve(test, front)
    assert admitted["stream_id"] == 1
    assert (status, payload) == (400, {"error": "ServiceError", "detail": detail})
    assert after == 200 and outcome["released"] is True  # still admitted


class _FakeTransport:
    """Records what a :class:`ServerConnection` does to its transport."""

    def __init__(self):
        self.writes: list[bytes] = []
        self.reading = True
        self.closed = False

    def get_extra_info(self, name, default=None):
        return ("127.0.0.1", 4242) if name == "peername" else default

    def write(self, data: bytes) -> None:
        self.writes.append(data)

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def is_reading(self) -> bool:
        return self.reading

    def close(self) -> None:
        self.closed = True


def test_paused_writing_stops_parsing_until_resumed():
    async def test(server, port):
        transport = _FakeTransport()
        connection = server._connection()
        connection.connection_made(transport)
        connection.pause_writing()
        assert not transport.reading
        connection.data_received(
            _request("POST", "/v1/check", _CHECK_BODY) * 2
        )
        await asyncio.sleep(0)
        assert server.batcher.queue_depth == 0
        assert transport.writes == []
        connection.resume_writing()
        assert server.batcher.queue_depth == 1  # one request in flight
        for _ in range(4):
            await asyncio.sleep(0)
        return transport

    transport = _serve(test)
    assert [data.split(b"\r\n", 1)[0] for data in transport.writes] == [
        b"HTTP/1.1 200 OK"
    ] * 2
    assert transport.reading and not transport.closed
