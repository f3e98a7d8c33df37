"""The shared HTTP/1.1 codec (repro.service.http) on both fronts.

The admission server and the cluster router frame requests with the
same module, so malformed framing must get the same answer from both: a
status line and ``Connection: close``, never an exception that escapes
the connection handler into the event loop.  On the client side, a peer
that frames its response badly is a dead connection.
"""

from __future__ import annotations

import asyncio
import gc

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.router import ClusterRouter
from repro.errors import ServiceError
from repro.service.client import AsyncServiceClient
from repro.service.protocol import ServiceConfig
from repro.service.server import AdmissionServer

MALFORMED = {
    "content-length-not-a-number": (
        b"POST /v1/check HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        400,
    ),
    "negative-content-length": (
        b"POST /v1/check HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        400,
    ),
    "body-over-the-limit": (
        b"POST /v1/check HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
        413,
    ),
    "garbage-request-line": (b"GARBAGE\r\n\r\n", 400),
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
    "raw, status", list(MALFORMED.values()), ids=list(MALFORMED)
)
def test_malformed_framing_is_answered_and_closed(front, raw, status):
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
    assert b'"error":"BadRequest"' in body
    assert leaked == []


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
