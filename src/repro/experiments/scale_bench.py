"""Million-stream scale benchmark (``make bench-scale`` -> BENCH_scale.json).

Two performance claims of the columnar engine are tracked as a canary:

1. **Columnar throughput.**  One process builds a :class:`StreamTable` of
   a million streams (periods drawn from a small catalogue of distinct
   values, so the exact test's structure stays small: it is sized by
   distinct periods, not streams), orders it rate-monotonically, runs
   the full Theorem 4.1 exact test and the closed-form TTP saturation
   scale — and the whole pipeline is timed.  The same pipeline over
   object-path :class:`MessageSet` streams is timed at a much smaller
   size (building a million stream objects and sorting them is what the
   columnar engine avoids), and the per-stream throughput ratio is
   reported.

2. **Streaming Monte Carlo efficiency.**  The accuracy-targeted
   estimator runs twice to the same CI half-width target from the same
   seed: once plain (chunk ``k`` bit-identical to the fixed-N sample
   stream, so its evaluation count is what fixed-N sampling would need
   to certify the same accuracy) and once with Latin-hypercube period
   stratification plus antithetic pairing.  The evaluations-to-target
   ratio quantifies the variance reduction.

The document follows the summarized pytest-benchmark schema of
:mod:`repro.obs.benchjson` (``stats.mean`` = seconds per stream,
``stats.ops`` = streams per second), so ``tools/bench_trend.py`` tracks
it across PRs like every other ``BENCH_*.json`` canary.
"""

from __future__ import annotations

import datetime
import platform
import time
from dataclasses import dataclass

import numpy as np

from repro.analysis.montecarlo import (
    StreamingBreakdownEstimate,
    streaming_average_breakdown_utilization,
)
from repro.analysis.pdp import PDPVariant
from repro.errors import ConfigurationError
from repro.experiments.config import PaperParameters
from repro.messages.generators import MessageSetSampler
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.messages.table import StreamTable
from repro.obs.benchjson import BENCH_SCHEMA_VERSION, cpu_info
from repro.units import mbps

__all__ = [
    "ScaleBenchResult",
    "run_scale_bench",
    "scale_bench_document",
]


@dataclass(frozen=True)
class ScaleBenchResult:
    """Measurements of one scale-benchmark run."""

    n_streams: int
    distinct_periods: int
    columnar_seconds: float
    columnar_schedulable: bool
    columnar_ttp_scale: float
    baseline_streams: int
    object_seconds: float
    object_schedulable: bool
    object_ttp_scale: float
    naive: StreamingBreakdownEstimate
    naive_seconds: float
    vr: StreamingBreakdownEstimate
    vr_seconds: float
    mc_eps: float
    mc_strata: int
    mc_antithetic: bool
    bandwidth_mbps: float
    seed: int

    @property
    def columnar_streams_per_sec(self) -> float:
        """Columnar pipeline throughput, streams analysed per second."""
        return self.n_streams / self.columnar_seconds

    @property
    def object_streams_per_sec(self) -> float:
        """Object-path pipeline throughput, streams analysed per second."""
        return self.baseline_streams / self.object_seconds

    @property
    def speedup(self) -> float:
        """Columnar over object per-stream throughput ratio."""
        return self.columnar_streams_per_sec / self.object_streams_per_sec

    @property
    def mc_eval_ratio(self) -> float:
        """Plain-sampling evaluations over variance-reduced evaluations.

        The plain run consumes the fixed-N sample stream, so this is the
        factor by which stratified + antithetic sampling shrinks the
        number of breakdown evaluations needed to certify the target CI.
        """
        return self.naive.evaluations / self.vr.evaluations

    def summary(self) -> str:
        """Console rendering of the headline numbers."""
        lines = [
            f"columnar: {self.n_streams:,} streams analysed in "
            f"{self.columnar_seconds:.3f}s "
            f"({self.columnar_streams_per_sec:,.0f} streams/s)",
            f"object:   {self.baseline_streams:,} streams analysed in "
            f"{self.object_seconds:.3f}s "
            f"({self.object_streams_per_sec:,.0f} streams/s)",
            f"speedup:  {self.speedup:,.1f}x per-stream throughput",
            f"mc naive: {self.naive.evaluations} evaluations to "
            f"half-width <= {self.mc_eps:g} "
            f"(mean {self.naive.mean:.4f}, converged={self.naive.converged})",
            f"mc vr:    {self.vr.evaluations} evaluations "
            f"(strata={self.mc_strata}, antithetic={self.mc_antithetic}) "
            f"(mean {self.vr.mean:.4f}, converged={self.vr.converged})",
            f"mc ratio: {self.mc_eval_ratio:.2f}x fewer evaluations "
            "to the same accuracy target",
        ]
        return "\n".join(lines)


def _draw_workload(
    rng: np.random.Generator,
    n_streams: int,
    catalogue: np.ndarray,
    bandwidth_bps: float,
    target_utilization: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Periods (from the catalogue) and payloads scaled to a utilization
    that keeps the exact test iterating real scheduling points instead of
    trivially rejecting a wildly overloaded set."""
    periods = catalogue[rng.integers(0, catalogue.size, size=n_streams)]
    weights = 1.0 - rng.uniform(0.0, 1.0, size=n_streams)
    raw_utilization = float(np.sum(weights / periods)) / bandwidth_bps
    payloads = weights * (target_utilization / raw_utilization)
    return periods, payloads


def run_scale_bench(
    parameters: PaperParameters | None = None,
    *,
    n_streams: int = 1_000_000,
    baseline_streams: int = 512,
    distinct_periods: int = 64,
    bandwidth_mbps: float = 16.0,
    target_utilization: float = 0.5,
    mc_streams: int = 20,
    mc_eps: float = 5e-4,
    mc_chunk_sets: int = 16,
    mc_min_chunks: int = 8,
    mc_max_sets: int = 4096,
    mc_strata: int = 8,
    mc_antithetic: bool = False,
) -> ScaleBenchResult:
    """Run both scale measurements and return their results.

    Args:
        parameters: operating conditions (paper defaults when None); the
            period distribution and seed come from here.
        n_streams: columnar set size (the million-stream claim).
        baseline_streams: object-path set size (kept small because
            every stream is a Python object; the exact test costs the
            same for both paths, sized by distinct periods).
        distinct_periods: period-catalogue size — the exact test's
            structure is sized by distinct periods, not streams.
        bandwidth_mbps: link bandwidth for both analyses.
        target_utilization: workload utilization the payloads are scaled
            to, so the exact test walks real scheduling points.
        mc_streams: streams per sampled set in the Monte Carlo
            comparison (small so the comparison finishes in seconds).
        mc_eps: CI half-width target both estimator runs must reach.
        mc_chunk_sets: sets per streaming chunk.
        mc_min_chunks: chunks folded before the stopping rule may fire —
            raised above the estimator's default so the early chunk-std
            estimate (4 points is a coin toss) does not stop either run
            by luck and wash out the comparison.
        mc_max_sets: evaluation cap per estimator run.
        mc_strata: Latin-hypercube strata for the variance-reduced run.
        mc_antithetic: antithetic pairing for the variance-reduced run.
            Off by default: for *breakdown utilization* the response is
            not monotone in the periods, so the period-reflected twin is
            nearly uncorrelated with its base and the pairing buys
            nothing here (stratification is what carries the reduction);
            the knob stays for workloads where it does help.
    """
    params = parameters if parameters is not None else PaperParameters()
    if n_streams < 1 or baseline_streams < 1:
        raise ConfigurationError("stream counts must be positive")
    if distinct_periods < 1:
        raise ConfigurationError(
            f"need at least one distinct period, got {distinct_periods!r}"
        )
    bandwidth_bps = mbps(bandwidth_mbps)
    low, high = params.period_distribution().bounds
    catalogue = np.linspace(low, high, distinct_periods)

    pdp = params.pdp_analysis(bandwidth_mbps, PDPVariant.STANDARD)
    ttp = params.ttp_analysis(bandwidth_mbps)

    # -- columnar pipeline: build + order + exact RM + TTP saturation -----
    rng = np.random.default_rng([params.seed, 1])
    periods, payloads = _draw_workload(
        rng, n_streams, catalogue, bandwidth_bps, target_utilization
    )
    started = time.perf_counter()
    table = StreamTable(periods, payloads)
    ordered = table.rate_monotonic()
    columnar_verdict = bool(pdp.is_schedulable(ordered))
    columnar_scale = float(ttp.saturation_scale(ordered))
    columnar_seconds = time.perf_counter() - started

    # -- object pipeline: the same steps through stream objects -----------
    rng = np.random.default_rng([params.seed, 2])
    periods, payloads = _draw_workload(
        rng, baseline_streams, catalogue, bandwidth_bps, target_utilization
    )
    started = time.perf_counter()
    message_set = MessageSet(
        SynchronousStream(period_s=float(p), payload_bits=float(c), station=i)
        for i, (p, c) in enumerate(zip(periods.tolist(), payloads.tolist()))
    )
    ordered_set = message_set.rate_monotonic()
    object_verdict = bool(pdp.is_schedulable(ordered_set))
    object_scale = float(ttp.saturation_scale(ordered_set))
    object_seconds = time.perf_counter() - started

    # -- streaming Monte Carlo: plain versus variance-reduced -------------
    sampler = MessageSetSampler(
        n_streams=mc_streams, periods=params.period_distribution()
    )
    started = time.perf_counter()
    naive = streaming_average_breakdown_utilization(
        pdp,
        sampler,
        bandwidth_bps,
        seed=params.seed,
        eps=mc_eps,
        chunk_sets=mc_chunk_sets,
        min_chunks=mc_min_chunks,
        max_sets=mc_max_sets,
    )
    naive_seconds = time.perf_counter() - started
    started = time.perf_counter()
    vr = streaming_average_breakdown_utilization(
        pdp,
        sampler,
        bandwidth_bps,
        seed=params.seed,
        eps=mc_eps,
        chunk_sets=mc_chunk_sets,
        min_chunks=mc_min_chunks,
        max_sets=mc_max_sets,
        strata=mc_strata,
        antithetic=mc_antithetic,
    )
    vr_seconds = time.perf_counter() - started

    return ScaleBenchResult(
        n_streams=n_streams,
        distinct_periods=distinct_periods,
        columnar_seconds=columnar_seconds,
        columnar_schedulable=columnar_verdict,
        columnar_ttp_scale=columnar_scale,
        baseline_streams=baseline_streams,
        object_seconds=object_seconds,
        object_schedulable=object_verdict,
        object_ttp_scale=object_scale,
        naive=naive,
        naive_seconds=naive_seconds,
        vr=vr,
        vr_seconds=vr_seconds,
        mc_eps=mc_eps,
        mc_strata=mc_strata,
        mc_antithetic=mc_antithetic,
        bandwidth_mbps=bandwidth_mbps,
        seed=params.seed,
    )


def _throughput_stats(seconds: float, units: int) -> dict:
    """Single-measurement stats block in per-unit seconds (ops = units/s)."""
    per_unit = seconds / units
    return {
        "min": per_unit,
        "max": per_unit,
        "mean": per_unit,
        "stddev": 0.0,
        "median": per_unit,
        "iqr": 0.0,
        "q1": per_unit,
        "q3": per_unit,
        "ops": units / seconds if seconds > 0 else None,
        "total": seconds,
        "rounds": 1,
        "iterations": 1,
    }


def _machine_block() -> dict:
    uname = platform.uname()
    return {
        "node": uname.node,
        "machine": uname.machine,
        "system": uname.system,
        "release": uname.release,
        "python_version": platform.python_version(),
        "cpu": cpu_info(arch=uname.machine),
    }


def scale_bench_document(result: ScaleBenchResult) -> dict:
    """The BENCH_scale.json payload for one run.

    Throughput entries report per-stream seconds (``ops`` = streams/s);
    Monte Carlo entries report per-evaluation seconds.  The headline
    ratios — columnar speedup and variance-reduction factor — ride in
    ``extra_info`` of the columnar and ``mc_streaming_vr`` entries.
    """
    shared = {
        "bandwidth_mbps": result.bandwidth_mbps,
        "seed": result.seed,
    }
    benchmarks = [
        {
            "group": "scale",
            "name": f"columnar_analyze_{result.n_streams}",
            "fullname": f"scale_bench::columnar_analyze_{result.n_streams}",
            "params": None,
            "extra_info": {
                **shared,
                "n_streams": result.n_streams,
                "distinct_periods": result.distinct_periods,
                "streams_per_sec": result.columnar_streams_per_sec,
                "speedup_vs_object": result.speedup,
                "schedulable": result.columnar_schedulable,
                "ttp_saturation_scale": result.columnar_ttp_scale,
            },
            "stats": _throughput_stats(result.columnar_seconds, result.n_streams),
        },
        {
            "group": "scale",
            "name": f"object_analyze_{result.baseline_streams}",
            "fullname": f"scale_bench::object_analyze_{result.baseline_streams}",
            "params": None,
            "extra_info": {
                **shared,
                "n_streams": result.baseline_streams,
                "distinct_periods": result.distinct_periods,
                "streams_per_sec": result.object_streams_per_sec,
                "schedulable": result.object_schedulable,
                "ttp_saturation_scale": result.object_ttp_scale,
            },
            "stats": _throughput_stats(
                result.object_seconds, result.baseline_streams
            ),
        },
        {
            "group": "mc",
            "name": "mc_streaming_naive",
            "fullname": "scale_bench::mc_streaming_naive",
            "params": None,
            "extra_info": {
                **shared,
                "eps": result.mc_eps,
                "strata": 1,
                "antithetic": False,
                "evaluations": result.naive.evaluations,
                "mean": result.naive.mean,
                "half_width": result.naive.half_width,
                "converged": result.naive.converged,
            },
            "stats": _throughput_stats(
                result.naive_seconds, result.naive.evaluations
            ),
        },
        {
            "group": "mc",
            "name": "mc_streaming_vr",
            "fullname": "scale_bench::mc_streaming_vr",
            "params": None,
            "extra_info": {
                **shared,
                "eps": result.mc_eps,
                "strata": result.mc_strata,
                "antithetic": result.mc_antithetic,
                "evaluations": result.vr.evaluations,
                "mean": result.vr.mean,
                "half_width": result.vr.half_width,
                "converged": result.vr.converged,
                "eval_ratio_vs_naive": result.mc_eval_ratio,
            },
            "stats": _throughput_stats(result.vr_seconds, result.vr.evaluations),
        },
    ]
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "datetime": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "pytest_benchmark_version": None,
        "commit_info": None,
        "machine": _machine_block(),
        "benchmarks": benchmarks,
    }
