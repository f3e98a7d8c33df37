"""Benchmark: minimum versus average breakdown utilization (Section 2).

The paper motivates the average metric by contrasting it with the
minimum.  This bench computes both for each protocol at two bandwidths
and prints the gap — the price of admission-test-free operation.
"""

from __future__ import annotations

from repro.analysis.montecarlo import average_breakdown_utilization
from repro.analysis.pdp import PDPVariant
from repro.analysis.worstcase import pdp_minimum_breakdown, ttp_minimum_breakdown
from repro.experiments.reporting import format_table
from repro.units import mbps


def test_bench_min_vs_avg_breakdown(benchmark, bench_params):
    dist = bench_params.period_distribution()
    low, high = dist.bounds
    population = bench_params.sample_population()

    def compute() -> list[list[object]]:
        rows: list[list[object]] = []
        for bandwidth_mbps in (10.0, 100.0):
            bandwidth = mbps(bandwidth_mbps)
            pdp = bench_params.pdp_analysis(bandwidth_mbps, PDPVariant.MODIFIED)
            ttp = bench_params.ttp_analysis(bandwidth_mbps)

            pdp_avg = average_breakdown_utilization(
                pdp, population, bandwidth, rel_tol=1e-3
            ).mean
            pdp_min = pdp_minimum_breakdown(
                pdp, (low, high), bench_params.n_stations,
                restarts=3, iterations=15, rng=0,
            ).utilization
            ttp_avg = average_breakdown_utilization(ttp, population, bandwidth).mean
            ttp_min = ttp_minimum_breakdown(
                ttp, (low, high), bench_params.n_stations, grid_points=200
            ).utilization
            rows.append(["modified-802.5", bandwidth_mbps, pdp_avg, pdp_min])
            rows.append(["fddi", bandwidth_mbps, ttp_avg, ttp_min])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    print()
    print(format_table(["protocol", "BW (Mbps)", "avg breakdown", "min breakdown"], rows))

    for row in rows:
        __, __, avg, minimum = row
        # The minimum is a lower envelope of the average (with slack for
        # the adversarial search being an upper bound on the true min).
        assert minimum <= avg + 1e-6
