"""Command-line experiment runner.

Usage::

    python -m repro.experiments.runner figure1 [--fast] [--csv out.csv] [--jobs N]
    python -m repro.experiments.runner ttrt --bandwidth 100
    python -m repro.experiments.runner frames --bandwidth 10
    python -m repro.experiments.runner periods --bandwidth 10
    python -m repro.experiments.runner sba --bandwidth 100
    python -m repro.experiments.runner ringsize --bandwidth 100
    python -m repro.experiments.runner throughput
    python -m repro.experiments.runner crossover
    python -m repro.experiments.runner all --fast
    python -m repro.experiments.runner fuzz --fuzz-cases 60 --mutation-smoke
    python -m repro.experiments.runner serve --port 8711 --policy exact
    python -m repro.experiments.runner loadgen --spawn --duration 5 [--churn]
    python -m repro.experiments.runner loadgen --workers 4 --duration 5
    python -m repro.experiments.runner cluster --workers 4
    python -m repro.experiments.runner bench-cluster --duration 4
    python -m repro.experiments.runner top --port 8711 --interval 2
    python -m repro.experiments.runner loss-sweep --fast [--recovery-time 1e-3]

``serve`` runs the admission-control service of :mod:`repro.service`
(USAGE.md §14) until SIGTERM/ctrl-c, then drains gracefully; ``loadgen``
drives a running server (or spawns one in-process on an ephemeral port
with ``--spawn``), prints throughput and latency percentiles, and
with ``--bench-json PATH`` writes them as a bench document (with
``--latency-csv``, every measured latency with its server-side trace
id).  The committed service performance record is perfbench's
(``perfbench/run.py``), not a loadgen document.  ``top`` is the live
telemetry dashboard over ``/metrics`` (USAGE.md §16).  ``cluster`` runs the
sharded admission cluster of :mod:`repro.cluster` (USAGE.md §19) — a
prefork worker pool behind a consistent-hash router — until
SIGTERM/ctrl-c; ``loadgen --workers N`` spawns such a cluster and
drives load through its router (per-shard latency split included);
``bench-cluster`` measures fleet throughput at several worker counts
and writes ``BENCH_cluster.json``.  All record a session
summary in the run manifest.  An interrupted run — any experiment — still writes its
manifest, flagged ``extra.interrupted``, and exits 130.

The ``fuzz`` experiment runs the differential verification harness
(:mod:`repro.verify`): a seeded, deterministic campaign that pits the
theorems against the simulators and the scalar against the batched
implementations.  ``--mutation-smoke`` additionally injects deliberate
off-by-one bugs and requires the harness to flag every one; the exit
code is nonzero on any violation or missed mutant.  Counterexamples are
shrunk and written as replayable repro files under ``--repro-dir``.

``--fast`` shrinks the ring to 20 stations and the Monte Carlo count to
10 sets, which turns the full-figure run from minutes into seconds while
preserving every qualitative shape.

``--jobs N`` fans the independent grid cells of an experiment across N
worker processes (0 = all cores).  Cells evaluate populations drawn once
from the base seed, so the output is bit-identical for every ``--jobs``
value.  On a
single-core machine the cells run inline regardless of ``N`` — a worker
pool there only adds fork/pickle overhead.

``--cache-dir DIR`` persists the content-addressed result cache across
runs (USAGE.md §13).  Cache traffic shows
up as ``cache.*`` metrics in the manifest.

``loss-sweep`` estimates average breakdown utilization for both
protocols under the retransmission-aware criteria of
:mod:`repro.faults.analysis` across a range of medium loss fractions,
prints the breakdown-versus-loss figure, and writes the
``BENCH_loss.json`` canary (USAGE.md §17).  ``--loss-fractions`` takes a
comma-separated list, ``--recovery-time`` the charged token
claim/recovery latency in seconds.

Observability (see :mod:`repro.obs` and docs/USAGE.md §11):

* ``--log-level info`` streams live progress (per-cell completions) to
  stderr; ``--log-json run.jsonl`` appends every record, including the
  human-facing output, to a machine-readable JSONL file.
* ``--quiet`` suppresses stdout; combined with ``--log-json`` the run is
  silent but fully recorded.
* Every invocation writes a ``manifest.json`` (next to the CSV when one
  is requested, in the working directory otherwise) capturing the seed,
  parameters, CLI arguments, git SHA, environment, wall time, and the
  final metrics and span snapshots — enough to regenerate and audit
  every plotted point.  ``--manifest PATH`` overrides the location;
  ``--no-manifest`` disables it.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

from repro.experiments.config import PaperParameters
from repro.experiments.crossover import crossover_map
from repro.experiments.parallel import _sigterm_as_interrupt
from repro.experiments.figure1 import Figure1Result, run_figure1
from repro.experiments.reporting import write_csv
from repro.experiments.sweeps import (
    frame_size_sweep,
    period_sweep,
    ring_size_sweep,
    sba_comparison,
    ttrt_sweep,
)
from repro.experiments.throughput import throughput_experiment
from repro.obs import logging as obslog
from repro.obs import manifest as obsmanifest
from repro.obs import metrics, tracing
from repro.obs.logging import console

__all__ = ["main", "build_parameters", "resolve_manifest_path"]


def build_parameters(fast: bool, sets: int | None, stations: int | None) -> PaperParameters:
    """Assemble parameters from CLI flags."""
    params = PaperParameters()
    if fast:
        params = params.scaled_down(n_stations=20, monte_carlo_sets=10)
    if stations is not None:
        params = params.scaled_down(stations, params.monte_carlo_sets)
    if sets is not None:
        params = params.scaled_down(params.n_stations, sets)
    return params


def resolve_manifest_path(args: argparse.Namespace) -> str | None:
    """Where this invocation's manifest goes.

    ``--no-manifest`` disables it; ``--manifest PATH`` pins it; otherwise
    it lands next to the CSV artifact when one is requested, else in the
    working directory as ``manifest.json``.
    """
    if args.no_manifest:
        return None
    if args.manifest:
        return args.manifest
    if args.csv:
        return os.path.join(os.path.dirname(args.csv) or ".", "manifest.json")
    return "manifest.json"


def _run_figure1(args: argparse.Namespace, params: PaperParameters) -> list[str]:
    result = run_figure1(params, jobs=args.jobs)
    console(result.to_table())
    console()
    console(result.to_ascii_plot())
    console("shape checks:")
    for check, passed in result.shape_report().items():
        console(f"  {'PASS' if passed else 'FAIL'}  {check}")
    crossover = result.crossover_bandwidth()
    console(f"crossover bandwidth: {crossover} Mbps")
    if args.csv:
        write_csv(args.csv, Figure1Result.CSV_HEADERS, result.rows())
        console(f"wrote {args.csv}")
        return [args.csv]
    return []


def _run_sweep(sweep_result) -> None:
    console(sweep_result.name)
    console(sweep_result.to_table())


def _service_config(args: argparse.Namespace, *, port: int | None = None):
    from repro.service.protocol import ServiceConfig

    return ServiceConfig(
        host=args.host,
        port=args.port if port is None else port,
        protocol=args.service_protocol,
        variant=args.variant,
        bandwidth_mbps=args.bandwidth,
        n_stations=args.stations if args.stations is not None else 40,
        policy=args.policy,
        batch_max=args.batch_max,
        queue_limit=args.queue_limit,
        rate_limit_rps=args.rate_limit,
        trace_sample_rate=args.trace_sample,
        trace_buffer=args.trace_buffer,
        trace_jsonl=args.trace_jsonl,
        slow_trace_s=args.slow_trace,
    )


def _run_serve(args: argparse.Namespace, manifest_extra: dict) -> list[str]:
    import asyncio

    from repro.service.server import AdmissionServer

    config = _service_config(args)
    server = AdmissionServer(config)

    async def session():
        await server.start()
        console(
            f"admission service on {config.host}:{server.port} "
            f"({config.protocol}/{config.policy}); SIGTERM or ctrl-c drains"
        )
        await server.serve_until_signalled()

    asyncio.run(session())
    manifest_extra["service"] = server.summary()
    return []


def _cluster_config(
    args: argparse.Namespace,
    *,
    n_workers: int | None = None,
    router_port: int | None = None,
):
    from repro.cluster.config import ClusterConfig

    return ClusterConfig(
        n_workers=n_workers if n_workers is not None else args.workers or 4,
        host=args.host,
        router_port=args.port if router_port is None else router_port,
        utilization_cap=args.utilization_cap,
        cache_dir=args.cache_dir,
        service=_service_config(args, port=0),
    )


def _run_cluster(args: argparse.Namespace, manifest_extra: dict) -> list[str]:
    import asyncio

    from repro.cluster.router import ClusterRouter
    from repro.cluster.supervisor import WorkerPool

    config = _cluster_config(args)
    pool = WorkerPool(config)
    router = ClusterRouter(config, pool)

    async def session():
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, pool.start)
        await router.start()
        console(
            f"admission cluster on {config.host}:{router.port} — "
            f"{config.n_workers} worker(s), "
            f"fleet cap={config.utilization_cap:g}; SIGTERM or ctrl-c drains"
        )
        for shard, (pid, port) in sorted(pool.running().items()):
            console(f"  {shard}: pid {pid} on port {port}")
        await router.serve_until_signalled()

    asyncio.run(session())
    manifest_extra["cluster"] = {
        "n_workers": config.n_workers,
        "utilization_cap": config.utilization_cap,
    }
    return []


def _run_bench_cluster(
    args: argparse.Namespace, seed: int, manifest_extra: dict
) -> list[str]:
    import json

    from repro.experiments.cluster_bench import (
        cluster_bench_document,
        run_cluster_bench,
    )

    counts = tuple(
        int(part)
        for part in (args.cluster_counts or "1,4").split(",")
        if part.strip()
    )
    results = run_cluster_bench(
        seed,
        worker_counts=counts,
        duration_s=args.duration,
        load_workers=args.load_workers,
        utilization_cap=args.utilization_cap,
        catalogue_size=args.catalogue,
        service=_service_config(args, port=0),
    )
    document = cluster_bench_document(results)
    for bench in document["benchmarks"]:
        info = bench["extra_info"]
        line = (
            f"  {bench['name']:<10} "
            f"{info['report']['throughput_rps']:8.0f} req/s  "
            f"p99={info['report']['latency_s'].get('p99', 0) * 1e3:.3f} ms"
        )
        if "scaling_vs_single" in info:
            line += f"  scaling={info['scaling_vs_single']:.2f}x"
        console(line)
    out_path = args.cluster_bench_json
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    console(f"wrote {out_path}")
    manifest_extra["cluster_bench"] = {
        bench["name"]: {
            key: value
            for key, value in bench["extra_info"].items()
            if key != "fleet"
        }
        for bench in document["benchmarks"]
    }
    return [out_path]


def _run_loadgen(args: argparse.Namespace, seed: int, manifest_extra: dict) -> list[str]:
    import asyncio
    import dataclasses
    import json

    from repro.service.loadgen import (
        LoadConfig,
        bench_document,
        run_against_spawned_cluster,
        run_against_spawned_server,
        run_load,
    )

    # --churn turns the trickle of admit/release into a mutation-heavy
    # mix: the admitted set changes on most operations, so most decisions
    # are asked against a population the decision cache has not seen.
    admit_fraction, release_fraction = (
        (0.30, 0.30) if args.churn else (0.05, 0.05)
    )
    load = LoadConfig(
        host=args.host,
        port=args.port,
        duration_s=args.duration,
        workers=args.load_workers,
        target_rps=args.target_rps,
        seed=seed,
        catalogue_size=args.catalogue,
        admit_fraction=admit_fraction,
        release_fraction=release_fraction,
    )
    fleet = None
    if args.workers:
        cluster = _cluster_config(args, router_port=0)
        report, fleet = asyncio.run(run_against_spawned_cluster(cluster, load))
        summary = None
    elif args.spawn:
        config = dataclasses.replace(_service_config(args, port=0))
        report, summary = asyncio.run(run_against_spawned_server(config, load))
    else:
        report = asyncio.run(run_load(load))
        summary = None
    console(
        f"{report.requests} requests in {report.duration_s:.2f}s "
        f"-> {report.throughput_rps:.0f} req/s"
    )
    if report.latency_s:
        console(
            "latency ms: "
            + "  ".join(
                f"{key}={report.latency_s[key] * 1e3:.3f}"
                for key in ("mean", "p50", "p90", "p99", "p999", "max")
            )
        )
    for kind, latency in report.op_latency_s.items():
        console(
            f"  {kind}: "
            + "  ".join(
                f"{key}={latency[key] * 1e3:.3f}"
                for key in ("mean", "p50", "p90", "p99", "p999", "max")
            )
        )
    for shard, latency in report.shard_latency_s.items():
        console(
            f"  shard {shard}: "
            + "  ".join(
                f"{key}={latency[key] * 1e3:.3f}"
                for key in ("mean", "p50", "p90", "p99", "p999", "max")
            )
        )
    if fleet is not None:
        budget = fleet.get("fleet", {})
        console(
            f"fleet: admitted={budget.get('admitted')} "
            f"utilization={budget.get('utilization', 0.0):.4f} "
            f"cap={budget.get('utilization_cap')} "
            f"sound={budget.get('budget_sound')}"
        )
    if args.latency_csv:
        from repro.service.loadgen import write_latency_csv

        rows = write_latency_csv(report, args.latency_csv)
        console(f"wrote {args.latency_csv} ({rows} samples)")
    console(
        f"ops={report.ops}  admitted={report.admitted} "
        f"rejected={report.rejected}  shed={report.shed} "
        f"draining={report.draining}  errors={report.errors}"
    )
    document = bench_document(report, config=load, server_summary=summary)
    if fleet is not None:
        document["benchmarks"][0]["extra_info"]["fleet"] = fleet
    if summary is not None:
        cache = document["benchmarks"][0]["extra_info"]["admission_cache"]
        ratio = cache["hit_ratio"]
        console(
            f"admission cache: hits={cache['hits']:.0f} "
            f"misses={cache['misses']:.0f} hit_ratio="
            + (f"{ratio:.3f}" if ratio is not None else "n/a")
        )
    manifest_extra["loadgen"] = report.to_dict()
    artifacts = [args.latency_csv] if args.latency_csv else []
    if args.bench_json:
        with open(args.bench_json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        console(f"wrote {args.bench_json}")
        artifacts.append(args.bench_json)
    return artifacts


def _run_top(args: argparse.Namespace, manifest_extra: dict) -> int:
    from repro.experiments.top import run_top

    spawn_config = _service_config(args, port=0) if args.spawn else None
    code = run_top(
        args.host,
        args.port,
        interval_s=args.interval,
        iterations=args.iterations,
        once=args.once,
        spawn_config=spawn_config,
        emit=console,
    )
    manifest_extra["top"] = {
        "interval_s": args.interval,
        "once": args.once,
        "spawned": args.spawn,
    }
    return code


def _run_loss_sweep(
    args: argparse.Namespace, params: PaperParameters, manifest_extra: dict
) -> list[str]:
    import json

    from repro.experiments.loss_sweep import (
        DEFAULT_LOSS_FRACTIONS,
        loss_bench_document,
        loss_figure,
        loss_sweep,
    )

    if args.loss_fractions:
        fractions = tuple(
            float(part)
            for part in args.loss_fractions.split(",")
            if part.strip()
        )
    else:
        fractions = DEFAULT_LOSS_FRACTIONS
    result, cell_seconds = loss_sweep(
        params,
        args.bandwidth,
        loss_fractions=fractions,
        recovery_time_s=args.recovery_time,
        jobs=args.jobs,
    )
    console(result.name)
    console(result.to_table())
    console()
    console(loss_figure(result))
    artifacts: list[str] = []
    if args.csv:
        write_csv(args.csv, result.headers, result.rows)
        console(f"wrote {args.csv}")
        artifacts.append(args.csv)
    document = loss_bench_document(
        result, cell_seconds, params, args.bandwidth, args.recovery_time
    )
    out_path = args.loss_bench_json
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    console(f"wrote {out_path}")
    manifest_extra["loss_sweep"] = {
        bench["name"]: bench["extra_info"] for bench in document["benchmarks"]
    }
    artifacts.append(out_path)
    return artifacts


def _dispatch(
    args: argparse.Namespace,
    params: PaperParameters,
    artifacts: list[str],
    manifest_extra: dict,
) -> int:
    """Run the selected experiment(s); returns the exit code."""
    exit_code = 0
    if args.experiment == "serve":
        artifacts.extend(_run_serve(args, manifest_extra))
    if args.experiment == "loadgen":
        artifacts.extend(_run_loadgen(args, params.seed, manifest_extra))
    if args.experiment == "cluster":
        artifacts.extend(_run_cluster(args, manifest_extra))
    if args.experiment == "bench-cluster":
        artifacts.extend(_run_bench_cluster(args, params.seed, manifest_extra))
    if args.experiment == "top":
        exit_code = _run_top(args, manifest_extra)
    if args.experiment == "loss-sweep":
        artifacts.extend(_run_loss_sweep(args, params, manifest_extra))
    if args.experiment == "fuzz":
        from repro.verify import FuzzConfig, run_fuzz, run_mutation_smoke

        seed = args.fuzz_seed if args.fuzz_seed is not None else params.seed
        fuzz_report = run_fuzz(
            FuzzConfig(
                seed=seed,
                n_cases=args.fuzz_cases,
                repro_dir=args.repro_dir,
            )
        )
        console(fuzz_report.summary())
        artifacts.extend(fuzz_report.repro_paths)
        if not fuzz_report.ok:
            exit_code = 1
        if args.mutation_smoke:
            smoke = run_mutation_smoke(seed=seed)
            console(smoke.summary())
            if not smoke.all_detected:
                exit_code = 1
    if args.experiment in ("figure1", "all"):
        artifacts.extend(_run_figure1(args, params))
    if args.experiment in ("ttrt", "all"):
        _run_sweep(ttrt_sweep(params, args.bandwidth, jobs=args.jobs))
    if args.experiment in ("frames", "all"):
        _run_sweep(frame_size_sweep(params, args.bandwidth, jobs=args.jobs))
    if args.experiment in ("periods", "all"):
        _run_sweep(period_sweep(params, args.bandwidth, jobs=args.jobs))
    if args.experiment in ("sba", "all"):
        _run_sweep(sba_comparison(params, args.bandwidth))
    if args.experiment in ("ringsize", "all"):
        _run_sweep(ring_size_sweep(params, args.bandwidth, jobs=args.jobs))
    if args.experiment in ("throughput", "all"):
        console("throughput division (sync at half breakdown, async saturating)")
        console(throughput_experiment(params).to_table())
    if args.experiment in ("crossover", "all"):
        counts = (5, 10, 20) if params.n_stations <= 20 else (10, 25, 50, 100)
        console("crossover frontier (ring size -> handover bandwidth)")
        console(crossover_map(params, station_counts=counts).to_table())
    if args.experiment in ("sharpness", "all"):
        from repro.experiments.sharpness import sharpness_experiment

        sharp_params = params.scaled_down(
            min(params.n_stations, 8), params.monte_carlo_sets
        )
        console("criterion sharpness (empirical / analytic breakdown scale)")
        console(
            sharpness_experiment(
                sharp_params, bandwidth_mbps=args.bandwidth, n_sets=5
            ).to_table()
        )
    if args.experiment == "report":
        from repro.experiments.report import generate_report

        text = generate_report(params)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            console(f"wrote {args.out}")
            artifacts.append(args.out)
        else:
            console(text)
    return exit_code


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate the paper's evaluation",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "figure1", "ttrt", "frames", "periods", "sba", "ringsize",
            "throughput", "crossover", "sharpness", "report", "fuzz",
            "serve", "loadgen", "top", "loss-sweep",
            "cluster", "bench-cluster", "all",
        ],
    )
    service = parser.add_argument_group(
        "admission service", "options for the serve/loadgen commands "
        "(USAGE.md §14)"
    )
    service.add_argument("--host", type=str, default="127.0.0.1",
                         help="serve/loadgen: bind/connect address")
    service.add_argument("--port", type=int, default=8711,
                         help="serve/loadgen: TCP port (serve: 0 = ephemeral)")
    service.add_argument(
        "--service-protocol", type=str, default="pdp", choices=["pdp", "ttp"],
        help="serve: which protocol analysis backs admission",
    )
    service.add_argument(
        "--variant", type=str, default="modified",
        choices=["standard", "modified"],
        help="serve: PDP criterion variant",
    )
    service.add_argument(
        "--policy", type=str, default="exact",
        choices=["exact", "sufficient"],
        help="serve: admission policy",
    )
    service.add_argument("--batch-max", type=int, default=64,
                         help="serve: largest coalesced batch")
    service.add_argument("--queue-limit", type=int, default=256,
                         help="serve: intake queue bound (full = 429)")
    service.add_argument(
        "--rate-limit", type=float, default=0.0,
        help="serve: per-client sustained rps (0 disables)",
    )
    service.add_argument("--duration", type=float, default=5.0,
                         help="loadgen: seconds of load")
    service.add_argument("--load-workers", type=int, default=8,
                         help="loadgen: concurrent closed-loop clients")
    service.add_argument(
        "--target-rps", type=float, default=0.0,
        help="loadgen: paced aggregate request rate (0 = closed loop)",
    )
    service.add_argument("--catalogue", type=int, default=32,
                         help="loadgen: distinct candidate streams "
                         "(smaller = hotter cache)")
    service.add_argument(
        "--spawn", action="store_true",
        help="loadgen: spawn an in-process server on an ephemeral port "
        "instead of targeting --host/--port",
    )
    service.add_argument(
        "--churn", action="store_true",
        help="loadgen: mutation-heavy op mix (30%% admits / 30%% "
        "releases) instead of the 5%%/5%% serving trickle",
    )
    service.add_argument(
        "--bench-json", type=str, default=None, metavar="PATH",
        help="loadgen: also write the run as a bench document",
    )
    cluster = parser.add_argument_group(
        "admission cluster", "options for the cluster/bench-cluster "
        "commands and loadgen --workers (USAGE.md §19)"
    )
    cluster.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="cluster: worker processes (default 4); loadgen: spawn an "
        "N-worker cluster and drive its router (0 = no cluster)",
    )
    cluster.add_argument(
        "--utilization-cap", type=float, default=0.9,
        help="cluster: the fleet-wide utilization budget the router's "
        "lease ledger splits across workers",
    )
    cluster.add_argument(
        "--cluster-counts", type=str, default=None, metavar="N0,N1,...",
        help="bench-cluster: comma-separated worker counts to measure "
        "(default: 1,4)",
    )
    cluster.add_argument(
        "--cluster-bench-json", type=str, default="BENCH_cluster.json",
        metavar="PATH", help="bench-cluster: canary output path",
    )
    service.add_argument(
        "--latency-csv", type=str, default=None, metavar="PATH",
        help="loadgen: also write every measured latency (with its "
        "server-side trace id) as CSV",
    )
    service.add_argument(
        "--trace-sample", type=float, default=1.0,
        help="serve/loadgen --spawn/top --spawn: fraction of requests "
        "traced (deterministic systematic sampling; 0 disables)",
    )
    service.add_argument(
        "--trace-buffer", type=int, default=256,
        help="serve: finished traces retained for /v1/traces",
    )
    service.add_argument(
        "--trace-jsonl", type=str, default=None, metavar="PATH",
        help="serve: append every finished trace to PATH as JSONL",
    )
    service.add_argument(
        "--slow-trace", type=float, default=0.0, metavar="SECONDS",
        help="serve: log the full span tree of requests slower than "
        "this (0 disables the slow-request log)",
    )
    service.add_argument(
        "--interval", type=float, default=2.0,
        help="top: seconds between dashboard frames",
    )
    service.add_argument(
        "--iterations", type=int, default=None,
        help="top: stop after N frames (default: run until ctrl-c)",
    )
    service.add_argument(
        "--once", action="store_true",
        help="top: print a single frame (no ANSI redraw) and exit",
    )
    parser.add_argument(
        "--loss-bench-json", type=str, default="BENCH_loss.json",
        metavar="PATH", help="loss-sweep: canary output path",
    )
    parser.add_argument(
        "--mc-eps", type=float, default=None, metavar="EPS",
        help="run the Figure 1 cells (figure1, all, report) as streaming "
        "estimates stopping at CI half-width EPS (default: fixed-N paper "
        "sampling); other experiments' cells stay fixed-N",
    )
    parser.add_argument(
        "--mc-strata", type=int, default=None, metavar="S",
        help="Latin-hypercube period strata per streaming chunk "
        "(default: 1; requires --mc-eps)",
    )
    parser.add_argument(
        "--loss-fractions", type=str, default=None, metavar="L0,L1,...",
        help="loss-sweep: comma-separated loss fractions "
        "(default: 0,0.005,0.01,0.02,0.05,0.1)",
    )
    parser.add_argument(
        "--recovery-time", type=float, default=1e-3, metavar="SECONDS",
        help="loss-sweep: token claim/recovery latency charged per ring "
        "fault (default: 1e-3)",
    )
    parser.add_argument(
        "--fuzz-cases", type=int, default=60,
        help="fuzz: number of generated cases (deterministic per seed)",
    )
    parser.add_argument(
        "--fuzz-seed", type=int, default=None,
        help="fuzz: campaign seed (default: the paper parameters' seed)",
    )
    parser.add_argument(
        "--repro-dir", type=str, default=".", metavar="DIR",
        help="fuzz: directory for replayable counterexample files",
    )
    parser.add_argument(
        "--mutation-smoke", action="store_true",
        help="fuzz: also inject deliberate bugs and require detection",
    )
    parser.add_argument("--out", type=str, default=None,
                        help="output path for the markdown report")
    parser.add_argument("--fast", action="store_true", help="small ring, few sets")
    parser.add_argument("--sets", type=int, default=None, help="Monte Carlo sets")
    parser.add_argument("--stations", type=int, default=None, help="ring size")
    parser.add_argument("--bandwidth", type=float, default=10.0, help="Mbps")
    parser.add_argument("--csv", type=str, default=None, help="CSV output path")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for experiment grids (0 = all cores); "
        "results are identical for every value",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="persist the content-addressed result cache under DIR "
        "(default: in-memory only; see USAGE.md §13)",
    )
    parser.add_argument(
        "--log-level", type=str, default="info",
        choices=["debug", "info", "warning", "error"],
        help="stderr log threshold (per-cell progress appears at info)",
    )
    parser.add_argument(
        "--log-json", type=str, default=None, metavar="PATH",
        help="also append every log record to PATH as JSONL",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress stdout output (logs and artifacts still written)",
    )
    parser.add_argument(
        "--manifest", type=str, default=None, metavar="PATH",
        help="run-manifest path (default: manifest.json next to the CSV, "
        "or in the working directory)",
    )
    parser.add_argument(
        "--no-manifest", action="store_true",
        help="do not write a run manifest",
    )
    args = parser.parse_args(argv)
    if args.mc_strata is not None and args.mc_eps is None:
        parser.error(
            "--mc-strata needs --mc-eps (only streaming chunks are stratified)"
        )

    obslog.setup_logging(
        level=args.log_level, json_path=args.log_json, quiet=args.quiet
    )
    log = obslog.get_logger("experiments.runner")
    if args.cache_dir is not None:
        from repro import cache as result_cache_mod

        result_cache_mod.configure(directory=args.cache_dir)
        log.info("result cache persisted under %s", args.cache_dir,
                 extra={"cache_dir": args.cache_dir})
    log.info(
        "starting experiment %s",
        args.experiment,
        extra={"experiment": args.experiment, "jobs": args.jobs},
    )

    params = build_parameters(args.fast, args.sets, args.stations)
    if args.mc_eps is not None:
        # --mc-eps switches the Figure 1 cells to accuracy-targeted
        # streaming estimation.
        params = params.with_streaming_mc(
            args.mc_eps,
            strata=args.mc_strata if args.mc_strata is not None else 1,
        )
        log.info(
            "streaming Monte Carlo enabled",
            extra={
                "mc_eps": args.mc_eps,
                "mc_strata": params.mc_strata,
            },
        )
    started = time.perf_counter()
    artifacts: list[str] = []
    manifest_extra: dict = {}
    exit_code = 0
    interrupted = False

    # SIGTERM takes the same graceful path as ctrl-c for the whole
    # invocation (the serve command's event loop installs its own handler
    # on top, so a served session drains instead).
    previous_term = _sigterm_as_interrupt()
    try:
        with tracing.span(f"runner/{args.experiment}"):
            exit_code = _dispatch(args, params, artifacts, manifest_extra)
    except KeyboardInterrupt:
        # Still write the manifest: a partial run that says what finished
        # beats an aborted run that says nothing.  130 = killed by SIGINT.
        interrupted = True
        exit_code = 130
        manifest_extra["interrupted"] = True
        log.warning(
            "interrupted; writing partial manifest",
            extra={"experiment": args.experiment},
        )
        console("\ninterrupted")
    finally:
        if previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)

    elapsed = time.perf_counter() - started
    manifest_path = resolve_manifest_path(args)
    if manifest_path is not None:
        document = obsmanifest.build_manifest(
            command=args.experiment,
            cli_args={
                key: value for key, value in vars(args).items()
                if not key.startswith("_")
            },
            parameters=params,
            wall_time_s=elapsed,
            metrics=metrics.snapshot(),
            spans=tracing.snapshot(),
            artifacts=artifacts,
            extra=manifest_extra or None,
        )
        obsmanifest.write_manifest(manifest_path, document)
        log.info("wrote manifest %s", manifest_path,
                 extra={"artifact": manifest_path})
        console(f"wrote {manifest_path}")

    console(f"\nelapsed: {elapsed:.1f}s")
    log.info(
        "%s in %.2fs",
        "interrupted" if interrupted else "finished",
        elapsed,
        extra={"wall_time_s": elapsed, "interrupted": interrupted},
    )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
