"""Ablation sweeps: the studies the paper describes but omits for space.

Section 6.2 states that "results obtained for other values of these
parameters were similar"; Section 5.2 discusses the TTRT and frame-size
trade-offs qualitatively.  These sweeps regenerate that evidence:

* :func:`ttrt_sweep` — breakdown utilization of the TTP versus the TTRT
  value, overlaid with the sqrt-rule / half-min / numeric-optimal policies
  (Section 5.2's "sensitive to the TTRT value" claim).
* :func:`frame_size_sweep` — the PDP's responsiveness/overhead trade-off
  versus frame payload size (Section 4.2).
* :func:`period_sweep` — the Figure 1 comparison repeated for other mean
  periods and period ratios (Section 6.2's robustness claim).
* :func:`sba_comparison` — the local scheme against the other allocation
  schemes of the literature (Section 5.2's design choice).
* :func:`ring_size_sweep` — sensitivity to the number of stations.

Every sweep returns a :class:`SweepResult` that renders as a table and
exports rows for CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.montecarlo import average_breakdown_utilization
from repro.analysis.pdp import PDPVariant
from repro.analysis.sba import ALL_SCHEMES, SBAScheme, sba_breakdown_scale
from repro.analysis.ttrt import (
    FixedTTRT,
    HalfMinPeriodTTRT,
    OptimalTTRT,
    SqrtRuleTTRT,
)
from repro.experiments.config import PaperParameters
from repro.experiments.parallel import parallel_map
from repro.experiments.reporting import format_table
from repro.obs import tracing
from repro.units import mbps

__all__ = [
    "SweepResult",
    "ttrt_sweep",
    "frame_size_sweep",
    "period_sweep",
    "sba_comparison",
    "ring_size_sweep",
]


@dataclass(frozen=True)
class SweepResult:
    """A generic sweep outcome: named columns and numeric rows."""

    name: str
    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]

    def to_table(self) -> str:
        """Fixed-width rendering of the sweep."""
        return format_table(self.headers, self.rows)

    def column(self, header: str) -> list[object]:
        """All values of one named column."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


def _ttrt_cell(shared, policy) -> tuple[float, float]:
    """One TTRT-policy estimate (module-level so workers can import it)."""
    parameters, bandwidth_mbps, population = shared
    analysis = parameters.ttp_analysis(bandwidth_mbps, policy)
    with tracing.span(f"ttrt-sweep/{type(policy).__name__}"):
        result = average_breakdown_utilization(
            analysis, population, mbps(bandwidth_mbps)
        )
    return result.mean, result.stderr


def ttrt_sweep(
    parameters: PaperParameters,
    bandwidth_mbps: float,
    ttrt_fractions: Sequence[float] = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0),
    jobs: int | None = 1,
) -> SweepResult:
    """TTP breakdown utilization versus TTRT.

    ``ttrt_fractions`` are fractions of ``P_min / 2`` (the feasibility
    ceiling).  The sqrt-rule, half-min, and numeric-optimal policies are
    appended as labelled rows for comparison.  Every policy is evaluated
    on one population drawn once per sweep.
    """
    p_min = parameters.period_distribution().bounds[0]
    reference = parameters.ttp_analysis(bandwidth_mbps)
    total_overhead = (
        reference.delta + parameters.n_stations * reference.frame_overhead_time
    )
    labelled: list[tuple[object, str, object]] = [
        (FixedTTRT(fraction * p_min / 2.0), f"fixed({fraction:.2f})",
         fraction * p_min / 2.0)
        for fraction in ttrt_fractions
    ]
    labelled.append(
        (SqrtRuleTTRT(), "sqrt-rule", float(np.sqrt(total_overhead * p_min)))
    )
    labelled.append((HalfMinPeriodTTRT(), "half-min", p_min / 2.0))
    labelled.append((OptimalTTRT(), "optimal", "per-set"))
    estimates = parallel_map(
        _ttrt_cell,
        [policy for policy, _, _ in labelled],
        shared=(parameters, bandwidth_mbps, parameters.sample_population()),
        jobs=jobs,
        label="ttrt-sweep",
    )
    rows = [
        (label, ttrt_s, mean, stderr)
        for (_, label, ttrt_s), (mean, stderr) in zip(labelled, estimates)
    ]
    return SweepResult(
        name=f"ttrt-sweep@{bandwidth_mbps}Mbps",
        headers=("policy", "TTRT (s)", "avg breakdown util", "stderr"),
        rows=tuple(rows),
    )


def _frame_size_cell(shared, task) -> tuple[object, ...]:
    """One (payload size, variant) estimate of the frame-size sweep."""
    parameters, bandwidth_mbps, population = shared
    size, variant = task
    varied = parameters.with_frame(payload_bytes=size)
    with tracing.span(f"frame-size-sweep/{size:g}B/{variant.value}"):
        result = average_breakdown_utilization(
            varied.pdp_analysis(bandwidth_mbps, variant),
            population,
            mbps(bandwidth_mbps),
            rel_tol=1e-3,
        )
    return variant.value, size, result.mean, result.stderr


def frame_size_sweep(
    parameters: PaperParameters,
    bandwidth_mbps: float,
    payload_bytes: Sequence[float] = (16, 32, 64, 128, 256, 512, 1024),
    jobs: int | None = 1,
) -> SweepResult:
    """PDP breakdown utilization versus frame payload size (Section 4.2).

    Small frames approximate preemption better (less blocking) but pay the
    112-bit overhead more often; large frames amortize overhead but block
    high-priority messages longer.  The sweep exposes the resulting
    interior optimum.  Every frame size is evaluated on one population
    drawn and prepared once per sweep: the prepared exact tests depend
    only on the periods, not on the frame format.
    """
    rows = parallel_map(
        _frame_size_cell,
        [
            (size, variant)
            for size in payload_bytes
            for variant in (PDPVariant.STANDARD, PDPVariant.MODIFIED)
        ],
        shared=(parameters, bandwidth_mbps, parameters.sample_population()),
        jobs=jobs,
        label="frame-size-sweep",
    )
    return SweepResult(
        name=f"frame-size-sweep@{bandwidth_mbps}Mbps",
        headers=("variant", "payload (bytes)", "avg breakdown util", "stderr"),
        rows=tuple(rows),
    )


def _protocol_means(
    varied: PaperParameters, bandwidth_mbps: float, span: str
) -> tuple[float, ...]:
    """The three protocols' means on one population drawn from ``varied``."""
    population = varied.sample_population()
    analyses = (
        ("pdp_standard", varied.pdp_analysis(bandwidth_mbps, PDPVariant.STANDARD)),
        ("pdp_modified", varied.pdp_analysis(bandwidth_mbps, PDPVariant.MODIFIED)),
        ("ttp", varied.ttp_analysis(bandwidth_mbps)),
    )
    means = []
    for protocol, analysis in analyses:
        with tracing.span(f"{span}/{protocol}"):
            means.append(
                average_breakdown_utilization(
                    analysis, population, mbps(bandwidth_mbps), rel_tol=1e-3
                ).mean
            )
    return tuple(means)


def _period_cell(shared, task) -> tuple[float, ...]:
    """One period law of the period sweep: the three protocol means."""
    parameters, bandwidth_mbps = shared
    mean_period, ratio = task
    return _protocol_means(
        parameters.with_periods(mean_period, ratio),
        bandwidth_mbps,
        f"period-sweep/mp{mean_period:g}/r{ratio:g}",
    )


def period_sweep(
    parameters: PaperParameters,
    bandwidth_mbps: float,
    mean_periods_s: Sequence[float] = (0.05, 0.1, 0.2),
    ratios: Sequence[float] = (2.0, 10.0, 50.0),
    jobs: int | None = 1,
) -> SweepResult:
    """The three-protocol comparison across period distributions.

    Reproduces Section 6.2's claim that the qualitative comparison is
    stable across the period parameters.  Each period law draws one
    population, shared by the three protocols.
    """
    grid = [
        (mean_period, ratio)
        for mean_period in mean_periods_s
        for ratio in ratios
    ]
    means = parallel_map(
        _period_cell,
        grid,
        shared=(parameters, bandwidth_mbps),
        jobs=jobs,
        label="period-sweep",
    )
    rows = [(mp, ratio, *row) for (mp, ratio), row in zip(grid, means)]
    return SweepResult(
        name=f"period-sweep@{bandwidth_mbps}Mbps",
        headers=(
            "mean period (s)",
            "ratio",
            "IEEE 802.5",
            "Mod 802.5",
            "FDDI",
        ),
        rows=tuple(rows),
    )


def sba_comparison(
    parameters: PaperParameters,
    bandwidth_mbps: float,
    schemes: Sequence[SBAScheme] = ALL_SCHEMES,
) -> SweepResult:
    """Average breakdown utilization per SBA scheme at one bandwidth.

    All schemes are evaluated at the sqrt-rule TTRT over the same workload
    population, using the robust grid-scan saturation search (the
    proportional scheme's feasible region is not downward closed).
    """
    bw = mbps(bandwidth_mbps)
    analysis = parameters.ttp_analysis(bandwidth_mbps)
    population = parameters.sample_population()
    rows: list[tuple[object, ...]] = []
    for scheme in schemes:
        utilizations = []
        for message_set in population:
            ttrt = analysis.select_ttrt(message_set)
            scale = sba_breakdown_scale(
                scheme,
                message_set,
                ttrt,
                bw,
                analysis.frame_overhead_time,
                analysis.delta,
            )
            utilizations.append(
                message_set.scaled(scale).utilization(bw) if scale > 0 else 0.0
            )
        arr = np.asarray(utilizations)
        stderr = (
            float(np.std(arr, ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
        )
        rows.append((scheme.name, float(np.mean(arr)), stderr))
    return SweepResult(
        name=f"sba-comparison@{bandwidth_mbps}Mbps",
        headers=("scheme", "avg breakdown util", "stderr"),
        rows=tuple(rows),
    )


def _ring_size_cell(shared, n: int) -> tuple[float, ...]:
    """One ring size of the ring-size sweep: the three protocol means."""
    parameters, bandwidth_mbps = shared
    return _protocol_means(
        parameters.scaled_down(n, parameters.monte_carlo_sets),
        bandwidth_mbps,
        f"ring-size-sweep/n{n}",
    )


def ring_size_sweep(
    parameters: PaperParameters,
    bandwidth_mbps: float,
    station_counts: Sequence[int] = (10, 25, 50, 100, 200),
    jobs: int | None = 1,
) -> SweepResult:
    """The three-protocol comparison versus the number of stations.

    Each ring size draws one population, shared by the three protocols.
    """
    means = parallel_map(
        _ring_size_cell,
        list(station_counts),
        shared=(parameters, bandwidth_mbps),
        jobs=jobs,
        label="ring-size-sweep",
    )
    rows = [(n, *row) for n, row in zip(station_counts, means)]
    return SweepResult(
        name=f"ring-size-sweep@{bandwidth_mbps}Mbps",
        headers=("stations", "IEEE 802.5", "Mod 802.5", "FDDI"),
        rows=tuple(rows),
    )
