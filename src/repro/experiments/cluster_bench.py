"""Cluster scaling benchmark: fleet throughput vs worker count.

``runner bench-cluster`` spawns a real sharded cluster (worker
subprocesses + router) at each requested worker count, drives the same
seeded workload through the router, and reports fleet throughput,
per-shard latency percentiles, and the scaling ratio between the
largest and the single-worker fleet.  The result lands in
``BENCH_cluster.json`` in the standard canary schema, where the verify
cluster canary checks its budget and scaling entries.

Honesty note: the scaling ratio is *measured*, never assumed.  On a
single-core host a 4-worker fleet cannot beat one worker (every process
shares the core and the router adds a hop), and the recorded ratio will
say so — the canary document carries ``cpu_count`` precisely so the
verify guard (tools/verify_smoke.py) can hold the ≥2.5× floor only on
hardware that can physically express it.
"""

from __future__ import annotations

import asyncio
import datetime
import os
import platform
import statistics
import tempfile

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.obs.benchjson import BENCH_SCHEMA_VERSION, cpu_info
from repro.service.loadgen import LoadConfig, run_against_spawned_cluster
from repro.service.protocol import ServiceConfig

__all__ = ["run_cluster_bench", "cluster_bench_document"]

#: Worker counts measured by default: the single-controller baseline
#: and the 4-way fleet the scaling floor is defined against.
DEFAULT_WORKER_COUNTS = (1, 4)


def run_cluster_bench(
    seed: int,
    *,
    worker_counts=DEFAULT_WORKER_COUNTS,
    duration_s: float = 4.0,
    load_workers: int = 8,
    utilization_cap: float = 0.9,
    catalogue_size: int = 64,
    service: ServiceConfig | None = None,
) -> list[dict]:
    """Measure each worker count; returns one result dict per count.

    Each run gets a fresh shared cache directory (the fleet's common
    ``REPRO_CACHE_DIR`` tier), so cross-run warmth never flatters a
    later measurement.
    """
    template = service if service is not None else ServiceConfig(port=0)
    results: list[dict] = []
    for n_workers in worker_counts:
        with tempfile.TemporaryDirectory(
            prefix="repro-cluster-bench-"
        ) as cache_dir:
            cluster = ClusterConfig(
                n_workers=n_workers,
                utilization_cap=utilization_cap,
                cache_dir=cache_dir,
                service=template,
            )
            load = LoadConfig(
                duration_s=duration_s,
                workers=load_workers,
                seed=seed,
                catalogue_size=catalogue_size,
            )
            report, fleet = asyncio.run(
                run_against_spawned_cluster(cluster, load)
            )
        results.append(
            {
                "n_workers": n_workers,
                "report": report,
                "fleet": fleet,
            }
        )
    return results


def _stats(latencies: list, throughput_rps: float) -> dict:
    if not latencies:
        return {
            key: None
            for key in (
                "min", "max", "mean", "stddev", "median", "iqr", "q1", "q3",
                "ops", "total", "rounds", "iterations",
            )
        }
    q1, median, q3 = (
        float(x) for x in np.percentile(latencies, [25.0, 50.0, 75.0])
    )
    return {
        "min": float(min(latencies)),
        "max": float(max(latencies)),
        "mean": float(statistics.fmean(latencies)),
        "stddev": float(statistics.pstdev(latencies)),
        "median": median,
        "iqr": q3 - q1,
        "q1": q1,
        "q3": q3,
        "ops": throughput_rps,
        "total": float(sum(latencies)),
        "rounds": len(latencies),
        "iterations": 1,
    }


def cluster_bench_document(results: list[dict]) -> dict:
    """The measured counts as one ``BENCH_cluster.json`` document.

    One benchmark entry per worker count (``fleet_w1``, ``fleet_w4``,
    ...); the multi-worker entries carry
    ``extra_info["scaling_vs_single"]`` — measured fleet throughput
    over the single-worker fleet's — and every entry carries
    ``cpu_count`` so downstream guards can scale expectations to the
    hardware that produced the number.
    """
    by_count = {result["n_workers"]: result for result in results}
    base = by_count.get(1)
    base_rps = base["report"].throughput_rps if base is not None else None
    benchmarks = []
    for result in results:
        report = result["report"]
        n_workers = result["n_workers"]
        extra_info = {
            "n_workers": n_workers,
            "cpu_count": os.cpu_count(),
            "report": report.to_dict(),
            "fleet": result["fleet"],
        }
        if base_rps and n_workers != 1:
            extra_info["scaling_vs_single"] = (
                report.throughput_rps / base_rps
            )
        benchmarks.append(
            {
                "group": "cluster",
                "name": f"fleet_w{n_workers}",
                "fullname": (
                    "repro.experiments.cluster_bench::"
                    f"run_cluster_bench[workers={n_workers}]"
                ),
                "params": {"n_workers": n_workers},
                "extra_info": extra_info,
                "stats": _stats(report.latencies, report.throughput_rps),
            }
        )
    uname = platform.uname()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "datetime": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(),
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
        "benchmarks": benchmarks,
    }
