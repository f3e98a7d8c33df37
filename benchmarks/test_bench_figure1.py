"""Benchmark: Figure 1 — average breakdown utilization vs bandwidth.

Regenerates the paper's only evaluation figure and asserts its qualitative
shape (see DESIGN.md §4).  The reproduced series are printed so the
benchmark log doubles as the experiment record.
"""

from __future__ import annotations

from repro.experiments.figure1 import run_figure1
from repro.obs import tracing


def test_bench_figure1(benchmark, bench_params, bench_jobs):
    """Full three-protocol bandwidth sweep, 1–1000 Mbps."""
    result = benchmark.pedantic(
        run_figure1,
        args=(bench_params,),
        kwargs={"jobs": bench_jobs},
        rounds=1,
        iterations=1,
    )

    print()
    print(result.to_table())
    print(result.to_ascii_plot())

    report = result.shape_report()
    failures = [name for name, ok in report.items() if not ok]
    assert not failures, f"Figure 1 shape checks failed: {failures}"

    crossover = result.crossover_bandwidth()
    assert crossover is not None
    # The paper: PDP wins 1-10 Mbps, TTP wins from somewhere before 100.
    assert 4.0 <= crossover <= 160.0

    # Modified 802.5 must dominate standard at every point, and FDDI must
    # finish on top at 1 Gbps (the paper's closing claims).
    assert result.series("ttp")[-1] > result.series("pdp_modified")[-1]


def test_bench_figure1_single_point(benchmark, bench_params):
    """One bandwidth point (10 Mbps) — the unit of sweep cost."""
    def one_point():
        return run_figure1(bench_params, bandwidths_mbps=(10.0,))

    tracing.reset()
    result = benchmark.pedantic(one_point, rounds=3, iterations=1)
    # Ship the per-cell span profile into the benchmark JSON, so the
    # summarized canary records where the wall time went, not just how
    # much there was.
    benchmark.extra_info["spans"] = tracing.snapshot()
    point = result.points[0]
    assert 0.0 < point.pdp_modified.mean <= 1.0
    assert 0.0 < point.ttp.mean <= 1.0
