"""Closed-loop load generator for the admission service.

``runner loadgen`` drives a live server with a configurable worker fleet
and reports what the service actually sustained: throughput, latency
percentiles, shed (429) and drain (503) counts, and the server's own
``service.*`` metrics.  With ``--bench-json PATH`` the report is written
in the summarized canary schema of :mod:`repro.obs.benchjson` (version
2); the verify service and cluster canaries read it.  The committed
performance record of the service is perfbench's ``serve_*`` workloads,
not a loadgen document.

Workload model: each worker owns one keep-alive connection and issues
requests back to back (closed loop) or paced to a target rate.  Streams
are drawn from a small seeded catalogue of (period, payload) pairs —
repeat queries against a stable admitted population are precisely the
regime the content-addressed cache serves, so the warm-cache fast path
gets exercised alongside cold exact-test evaluations.  The op mix is
mostly ``check`` with a trickle of ``admit``/``release`` churn
(idempotent releases, as a retrying client would issue).

Everything here is deterministic given the seed **except** timing:
decision outcomes depend only on the op sequence, which is seeded per
worker; latencies are whatever the host delivers.
"""

from __future__ import annotations

import asyncio
import datetime
import platform
import random
import statistics
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServiceError
from repro.obs.benchjson import BENCH_SCHEMA_VERSION, cpu_info
from repro.service.client import AsyncServiceClient, Backoff
from repro.service.protocol import ServiceConfig
from repro.service.server import AdmissionServer

__all__ = [
    "LoadConfig",
    "LoadReport",
    "run_load",
    "run_against_spawned_server",
    "run_against_spawned_cluster",
    "admission_cache_summary",
    "bench_document",
    "write_latency_csv",
]


@dataclass(frozen=True)
class LoadConfig:
    """One load-generation run.

    ``target_rps <= 0`` means closed-loop: every worker issues its next
    request the moment the previous answer arrives.  ``catalogue_size``
    bounds the set of distinct (period, payload) candidates — smaller
    catalogues run hotter caches.
    """

    host: str = "127.0.0.1"
    port: int = 8711
    duration_s: float = 5.0
    workers: int = 8
    target_rps: float = 0.0
    seed: int = 0
    catalogue_size: int = 32
    admit_fraction: float = 0.05
    release_fraction: float = 0.05


@dataclass
class LoadReport:
    """What one load run observed, client side."""

    duration_s: float = 0.0
    requests: int = 0
    throughput_rps: float = 0.0
    ops: dict = field(default_factory=dict)
    latency_s: dict = field(default_factory=dict)
    op_latency_s: dict = field(default_factory=dict)
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    draining: int = 0
    errors: int = 0
    latencies: list = field(default_factory=list)
    latencies_by_op: dict = field(default_factory=dict)
    #: Per-shard latency samples, keyed by the ``X-Shard-Id`` response
    #: header — populated only when the target stamps it (a cluster
    #: router or a shard-labelled worker); empty against a standalone
    #: server.
    latencies_by_shard: dict = field(default_factory=dict)
    shard_latency_s: dict = field(default_factory=dict)
    #: Per-request ``(kind, latency_s, trace_id)`` rows, in completion
    #: order — the ``--latency-csv`` export, with the server-side trace
    #: id (``X-Trace-Id``; empty when the request was unsampled).
    samples: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """Plain-dict form (without the raw latency samples)."""
        return {
            "duration_s": self.duration_s,
            "requests": self.requests,
            "throughput_rps": self.throughput_rps,
            "ops": dict(self.ops),
            "latency_s": dict(self.latency_s),
            "op_latency_s": {k: dict(v) for k, v in self.op_latency_s.items()},
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "draining": self.draining,
            "errors": self.errors,
            "shard_latency_s": {
                k: dict(v) for k, v in self.shard_latency_s.items()
            },
        }


def _catalogue(config: LoadConfig) -> list[tuple[float, float]]:
    """The seeded candidate streams all workers draw from."""
    rng = random.Random(config.seed)
    catalogue = []
    for _ in range(config.catalogue_size):
        period_s = rng.choice([0.008, 0.016, 0.032, 0.064, 0.128, 0.256])
        payload_bits = float(rng.randrange(64, 2048, 64))
        catalogue.append((period_s, payload_bits))
    return catalogue


async def _worker(
    index: int,
    config: LoadConfig,
    catalogue: list[tuple[float, float]],
    deadline: float,
    report: LoadReport,
    admitted_ids: list[int],
) -> None:
    # Integer arithmetic, not a tuple seed: tuple seeding goes through
    # hash(), which PYTHONHASHSEED randomizes across processes.
    rng = random.Random(config.seed * 100_003 + index)
    interval = (
        config.workers / config.target_rps if config.target_rps > 0 else 0.0
    )
    loop = asyncio.get_running_loop()
    next_slot = loop.time()
    async with AsyncServiceClient(
        config.host, config.port, client_id=f"loadgen-{index}"
    ) as client:
        while loop.time() < deadline:
            if interval:
                next_slot += interval
                delay = next_slot - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
            roll = rng.random()
            period_s, payload_bits = rng.choice(catalogue)
            started = loop.time()
            try:
                if roll < config.release_fraction and admitted_ids:
                    kind = "release"
                    stream_id = admitted_ids.pop(
                        rng.randrange(len(admitted_ids))
                    )
                    await client.release(stream_id, idempotent=True)
                elif roll < config.release_fraction + config.admit_fraction:
                    kind = "admit"
                    decision = await client.admit(period_s, payload_bits)
                    if decision["admitted"]:
                        admitted_ids.append(decision["stream_id"])
                        report.admitted += 1
                    else:
                        report.rejected += 1
                else:
                    kind = "check"
                    await client.check(period_s, payload_bits)
            except Backoff as exc:
                report.requests += 1
                report.shed += exc.status == 429
                report.draining += exc.status == 503
                await asyncio.sleep(min(exc.retry_after_s, 0.05))
                continue
            except ServiceError:
                report.requests += 1
                report.errors += 1
                continue
            report.requests += 1
            report.ops[kind] = report.ops.get(kind, 0) + 1
            elapsed = loop.time() - started
            report.latencies.append(elapsed)
            report.latencies_by_op.setdefault(kind, []).append(elapsed)
            shard = client.last_headers.get("x-shard-id")
            if shard:
                report.latencies_by_shard.setdefault(shard, []).append(elapsed)
            report.samples.append(
                (kind, elapsed, client.last_headers.get("x-trace-id", ""))
            )


def _percentile_summary(latencies: list) -> dict:
    samples = np.asarray(latencies, dtype=float)
    q = np.percentile(samples, [50.0, 90.0, 99.0, 99.9])
    return {
        "mean": float(samples.mean()),
        "p50": float(q[0]),
        "p90": float(q[1]),
        "p99": float(q[2]),
        "p999": float(q[3]),
        "max": float(samples.max()),
    }


def write_latency_csv(report: LoadReport, path: str) -> int:
    """Write the per-request samples as CSV; returns the row count.

    Columns: ``index,kind,latency_s,trace_id`` — ``trace_id`` links a
    measured latency back to its server-side span tree in ``/v1/traces``
    (empty when the request was unsampled).
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("index,kind,latency_s,trace_id\n")
        for index, (kind, latency_s, trace_id) in enumerate(report.samples):
            handle.write(f"{index},{kind},{latency_s:.9f},{trace_id}\n")
    return len(report.samples)


def _summarize_latencies(report: LoadReport) -> None:
    if not report.latencies:
        report.latency_s = {}
        report.op_latency_s = {}
        return
    report.latency_s = _percentile_summary(report.latencies)
    # Per-op percentiles: a release is a dict pop while a cold check is a
    # full exact-test evaluation — the aggregate percentiles blur kinds
    # with ~100x latency spread, so triage needs them split out.
    report.op_latency_s = {
        kind: _percentile_summary(samples)
        for kind, samples in sorted(report.latencies_by_op.items())
    }
    # Per-shard percentiles: the first question when a fleet p99
    # regresses is "which shard?" (see EXPERIMENTS.md).
    report.shard_latency_s = {
        shard: _percentile_summary(samples)
        for shard, samples in sorted(report.latencies_by_shard.items())
    }


async def run_load(config: LoadConfig) -> LoadReport:
    """Drive a running service; returns the client-side report."""
    catalogue = _catalogue(config)
    report = LoadReport()
    admitted_ids: list[int] = []
    loop = asyncio.get_running_loop()
    started = loop.time()
    deadline = started + config.duration_s
    await asyncio.gather(
        *(
            _worker(i, config, catalogue, deadline, report, admitted_ids)
            for i in range(config.workers)
        )
    )
    report.duration_s = loop.time() - started
    report.throughput_rps = (
        report.requests / report.duration_s if report.duration_s > 0 else 0.0
    )
    _summarize_latencies(report)
    return report


async def run_against_spawned_server(
    service_config: ServiceConfig, load_config: LoadConfig
) -> tuple[LoadReport, dict]:
    """Spawn a server in-process, load it, drain it.

    Returns ``(client report, server summary)``.  The load config's
    host/port are overridden with wherever the server actually bound
    (pass ``port=0`` in the service config for an ephemeral port).
    """
    server = AdmissionServer(service_config)
    await server.start()
    try:
        effective = LoadConfig(
            **{
                **load_config.__dict__,
                "host": service_config.host,
                "port": server.port,
            }
        )
        report = await run_load(effective)
    finally:
        await server.drain_and_stop()
    return report, server.summary()


async def run_against_spawned_cluster(cluster_config, load_config: LoadConfig):
    """Spawn a whole sharded cluster, load its router, drain it.

    Spins up a :class:`~repro.cluster.supervisor.WorkerPool` (real
    worker subprocesses) fronted by a
    :class:`~repro.cluster.router.ClusterRouter`, points the load at
    the router's port, and returns ``(client report, fleet summary)``
    where the fleet summary is the router's ``/healthz`` aggregate
    (per-shard health, budget-ledger state, soundness probe) captured
    right before the drain.  The report's per-shard latency split comes
    from the router's ``X-Shard-Id`` response header.
    """
    from repro.cluster.router import ClusterRouter
    from repro.cluster.supervisor import WorkerPool

    pool = WorkerPool(cluster_config)
    pool.start()  # nothing else runs on this loop yet: block until up
    router = ClusterRouter(cluster_config, pool)
    fleet_summary: dict = {}
    try:
        await router.start()
        effective = LoadConfig(
            **{
                **load_config.__dict__,
                "host": cluster_config.host,
                "port": router.port,
            }
        )
        report = await run_load(effective)
        fleet_summary = await router._fleet_healthz()
    finally:
        await router.drain_and_stop()
    return report, fleet_summary


def admission_cache_summary(server_summary: dict) -> dict:
    """Hit/miss accounting of the server's admission result cache.

    Distills the ``cache.admission.*`` counters of a server summary into
    ``{"hits", "misses", "hit_ratio"}`` — the number the canary guard
    watches: a warm serving mix whose decisions are miss-dominated means
    the content-addressed keys stopped matching (e.g. a signature change
    that broke permutation-invariance), not that the workload changed.
    """
    counters = server_summary.get("metrics", {})

    def _value(name: str) -> float:
        return float(counters.get(name, {}).get("value", 0.0))

    hits = _value("cache.admission.hits")
    misses = _value("cache.admission.misses")
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_ratio": hits / total if total else None,
    }


def bench_document(
    report: LoadReport,
    *,
    config: LoadConfig,
    server_summary: dict | None = None,
) -> dict:
    """The run as a ``BENCH_*.json`` canary document.

    Emitted directly in :data:`~repro.obs.benchjson.BENCH_SCHEMA_VERSION`
    form — per-request latency statistics in ``stats`` (the fields the
    loss and cluster canaries carry), throughput and shed counts in
    ``extra_info``.
    """
    samples = report.latencies
    if samples:
        q1, median, q3 = (
            float(x) for x in np.percentile(samples, [25.0, 50.0, 75.0])
        )
        stats = {
            "min": float(min(samples)),
            "max": float(max(samples)),
            "mean": float(statistics.fmean(samples)),
            "stddev": float(statistics.pstdev(samples)),
            "median": median,
            "iqr": q3 - q1,
            "q1": q1,
            "q3": q3,
            "ops": report.throughput_rps,
            "total": float(sum(samples)),
            "rounds": len(samples),
            "iterations": 1,
        }
    else:
        stats = {
            key: None
            for key in (
                "min", "max", "mean", "stddev", "median", "iqr", "q1", "q3",
                "ops", "total", "rounds", "iterations",
            )
        }
    extra_info = {
        "load_config": {
            "duration_s": config.duration_s,
            "workers": config.workers,
            "target_rps": config.target_rps,
            "seed": config.seed,
            "catalogue_size": config.catalogue_size,
            "admit_fraction": config.admit_fraction,
            "release_fraction": config.release_fraction,
        },
        "report": report.to_dict(),
    }
    if server_summary is not None:
        extra_info["server"] = server_summary
        extra_info["admission_cache"] = admission_cache_summary(server_summary)
    uname = platform.uname()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "datetime": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "pytest_benchmark_version": None,
        "commit_info": None,
        "machine": {
            "node": uname.node,
            "machine": uname.machine,
            "system": uname.system,
            "release": uname.release,
            "python_version": platform.python_version(),
            "cpu": cpu_info(arch=uname.machine),
        },
        "benchmarks": [
            {
                "group": "service",
                "name": "loadgen",
                "fullname": "repro.service.loadgen::run_load",
                "params": None,
                "extra_info": extra_info,
                "stats": stats,
            }
        ],
    }
