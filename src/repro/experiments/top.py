"""``runner top`` — a live terminal dashboard over ``/metrics``.

Polls a running admission service's JSON ``/metrics`` endpoint at a
fixed interval and renders the *rates* between consecutive snapshots:
requests/s, error/shed/429 rates, p50/p99 request latency (interpolated
from the latency histogram's bucket deltas), the admission-cache hit
ratio, and an ASCII batch-size distribution.  Everything is computed
client-side from two snapshots — the server needs no new state and the
dashboard works against any server version exposing the bucketed
histograms.

Modes:

* loop (default): clear-screen redraw every ``--interval`` seconds until
  ``--iterations`` frames (or ctrl-c);
* ``--once``: two snapshots one interval apart, one frame to stdout, no
  ANSI — scriptable (the verify smoke runs this);
* ``--spawn``: start an in-process server on an ephemeral port and drive
  a small seeded request burst between the snapshots, so the frame shows
  live traffic without an external service.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time

from repro.errors import ServiceError
from repro.obs.metrics import bucket_quantile
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceConfig

__all__ = ["TopSession", "SpawnedServer", "run_top"]

_CLEAR = "\x1b[2J\x1b[H"


def _value(snap: dict, name: str) -> float:
    return float(snap.get(name, {}).get("value", 0.0))


def _hist(snap: dict, name: str) -> dict | None:
    metric = snap.get(name)
    if not metric or metric.get("type") != "histogram":
        return None
    return metric


def _bucket_delta(curr: dict | None, prev: dict | None):
    """Non-cumulative bucket counts observed between two snapshots."""
    if curr is None or "buckets" not in curr:
        return None, None
    bounds = curr["buckets"]["bounds"]
    counts = list(curr["buckets"]["counts"])
    if prev is not None and prev.get("buckets", {}).get("bounds") == bounds:
        for index, count in enumerate(prev["buckets"]["counts"]):
            counts[index] -= count
    return bounds, counts


def _bar(count: float, peak: float, width: int = 24) -> str:
    if peak <= 0:
        return ""
    return "#" * max(1 if count else 0, round(width * count / peak))


class TopSession:
    """Snapshot differencing and frame rendering for one target server."""

    def __init__(self, client: ServiceClient):
        self._client = client
        self._prev: dict | None = None
        self._prev_t: float | None = None

    def sample(self) -> None:
        """Take the baseline snapshot (call once before :meth:`frame`)."""
        self._prev = self._client.metrics()["metrics"]
        self._prev_t = time.perf_counter()

    def frame(self) -> str:
        """Fetch a fresh snapshot and render the rates since the last one."""
        if self._prev is None:
            self.sample()
        health = self._client.healthz()
        curr = self._client.metrics()["metrics"]
        now = time.perf_counter()
        dt = max(now - (self._prev_t or now), 1e-9)
        prev = self._prev or {}
        self._prev, self._prev_t = curr, now

        def rate(name: str) -> float:
            return (_value(curr, name) - _value(prev, name)) / dt

        lines = [
            f"repro admission service  "
            f"{health['protocol']}/{health['policy']}  "
            f"status={health['status']}  "
            f"admitted={health['admitted']}  "
            f"queue={health['queue_depth']}",
            f"req/s {rate('service.http_requests'):9.1f}   "
            f"errors/s {rate('service.http_errors'):7.1f}   "
            f"shed/s {rate('service.shed'):7.1f}   "
            f"429/s {rate('service.rate_limited'):7.1f}",
        ]

        lat_bounds, lat_counts = _bucket_delta(
            _hist(curr, "service.request_latency_s"),
            _hist(prev, "service.request_latency_s"),
        )
        if lat_bounds is not None and sum(lat_counts) > 0:
            p50 = bucket_quantile(lat_bounds, lat_counts, 0.50)
            p99 = bucket_quantile(lat_bounds, lat_counts, 0.99)
            lines.append(
                f"latency   p50 {p50 * 1e3:7.3f} ms   p99 {p99 * 1e3:7.3f} ms"
                f"   ({sum(lat_counts)} obs)"
            )
        else:
            lines.append("latency   (no observations this interval)")

        hits = _value(curr, "cache.admission.hits") - _value(
            prev, "cache.admission.hits"
        )
        misses = _value(curr, "cache.admission.misses") - _value(
            prev, "cache.admission.misses"
        )
        total = hits + misses
        ratio = f"{hits / total:6.1%}" if total else "   n/a"
        lines.append(
            f"cache     hit {ratio}   "
            f"(hits {hits:.0f} / misses {misses:.0f})"
        )

        lines.append(
            f"traces    sampled/s {rate('trace.sampled'):7.1f}   "
            f"slow/s {rate('trace.slow'):7.1f}"
        )

        size_bounds, size_counts = _bucket_delta(
            _hist(curr, "service.batch_size"),
            _hist(prev, "service.batch_size"),
        )
        if size_bounds is not None and sum(size_counts) > 0:
            lines.append(
                f"batches   {rate('service.batches'):7.1f}/s   "
                "size distribution:"
            )
            peak = max(size_counts)
            labels = [f"<={b:g}" for b in size_bounds] + [
                f">{size_bounds[-1]:g}"
            ]
            for label, count in zip(labels, size_counts):
                if count:
                    lines.append(
                        f"  {label:>8} {_bar(count, peak)} {count:.0f}"
                    )
        else:
            lines.append("batches   (none this interval)")
        return "\n".join(lines)


class SpawnedServer:
    """An in-process :class:`AdmissionServer` on its own loop/thread.

    Context manager: ``__enter__`` returns once the socket is bound (the
    ephemeral port is in ``.port``); ``__exit__`` drains and joins.
    """

    def __init__(self, config: ServiceConfig):
        self._config = config
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None

    def __enter__(self) -> "SpawnedServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(10.0):
            raise ServiceError("spawned admission server failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)

    def _run(self) -> None:
        from repro.service.server import AdmissionServer

        async def main():
            server = AdmissionServer(self._config)
            self._stop = asyncio.Event()
            self._loop = asyncio.get_running_loop()
            await server.start()
            self.port = server.port
            self._ready.set()
            await self._stop.wait()
            await server.drain_and_stop()

        asyncio.run(main())


def _seed_burst(client: ServiceClient, n: int, seed: int = 0) -> None:
    """A deterministic trickle of check/admit traffic for spawn mode."""
    rng = random.Random(seed)
    for index in range(n):
        period_s = rng.choice([0.008, 0.016, 0.032, 0.064])
        payload_bits = float(rng.randrange(64, 1024, 64))
        if index % 10 == 0:
            client.request(
                "POST",
                "/v1/admit",
                {"period_s": period_s, "payload_bits": payload_bits},
            )
        else:
            client.request(
                "POST",
                "/v1/check",
                {"period_s": period_s, "payload_bits": payload_bits},
            )


def run_top(
    host: str,
    port: int,
    *,
    interval_s: float = 2.0,
    iterations: int | None = None,
    once: bool = False,
    spawn_config: ServiceConfig | None = None,
    emit=print,
) -> int:
    """Run the dashboard; returns a process exit code.

    ``spawn_config`` switches on spawn mode (``host``/``port`` are then
    ignored and a seeded burst is issued each interval).  ``emit`` is the
    output sink, injectable for tests.
    """
    interval_s = max(interval_s, 0.05)

    def session_loop(client: ServiceClient) -> int:
        top = TopSession(client)
        top.sample()
        frames = 1 if once else iterations
        count = 0
        while frames is None or count < frames:
            if spawn_config is not None:
                _seed_burst(client, n=60, seed=count)
            time.sleep(interval_s)
            frame = top.frame()
            if once:
                emit(frame)
            else:
                emit(f"{_CLEAR}{frame}\n\n(interval {interval_s:g}s; ctrl-c to quit)")
            count += 1
        return 0

    try:
        if spawn_config is not None:
            with SpawnedServer(spawn_config) as spawned:
                with ServiceClient(
                    spawn_config.host, spawned.port, client_id="top"
                ) as client:
                    return session_loop(client)
        with ServiceClient(host, port, client_id="top") as client:
            return session_loop(client)
    except KeyboardInterrupt:
        return 0
