"""Crossover frontier: where the protocol recommendation flips.

The paper's conclusion is a bandwidth rule of thumb ("priority driven
below ~10 Mbps, timed token above").  The crossover point, however, moves
with the ring configuration — larger rings raise both protocols' fixed
costs but the PDP's faster (its per-frame arbitration pays Θ, which grows
with ring size, on *every* frame).  This experiment maps the frontier:
for each station count, the lowest bandwidth at which the timed token
protocol's average breakdown utilization overtakes the better priority
driven variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.montecarlo import average_breakdown_utilization
from repro.analysis.pdp import PDPVariant
from repro.errors import ConfigurationError
from repro.experiments.config import PaperParameters
from repro.experiments.reporting import format_table
from repro.units import mbps

__all__ = ["CrossoverPoint", "CrossoverMap", "crossover_map"]


@dataclass(frozen=True)
class CrossoverPoint:
    """The frontier sample for one ring size.

    Attributes:
        n_stations: ring size.
        crossover_mbps: first grid bandwidth where TTP wins, or None when
            TTP never overtakes on the grid.
        pdp_at_crossover: the better PDP variant's value there.
        ttp_at_crossover: TTP's value there.
    """

    n_stations: int
    crossover_mbps: float | None
    pdp_at_crossover: float
    ttp_at_crossover: float


@dataclass(frozen=True)
class CrossoverMap:
    """The frontier across ring sizes."""

    points: tuple[CrossoverPoint, ...]

    def to_table(self) -> str:
        """Fixed-width rendering."""
        return format_table(
            ["stations", "crossover (Mbps)", "PDP there", "TTP there"],
            [
                [
                    p.n_stations,
                    p.crossover_mbps if p.crossover_mbps is not None else "none",
                    p.pdp_at_crossover,
                    p.ttp_at_crossover,
                ]
                for p in self.points
            ],
        )

    def frontier(self) -> list[tuple[int, float | None]]:
        """``(stations, crossover_mbps)`` pairs."""
        return [(p.n_stations, p.crossover_mbps) for p in self.points]


def crossover_map(
    parameters: PaperParameters,
    station_counts: Sequence[int] = (10, 25, 50, 100),
    bandwidth_grid_mbps: Sequence[float] = (
        1.0, 1.6, 2.5, 4.0, 6.3, 10.0, 16.0, 25.0, 40.0, 63.0, 100.0,
    ),
) -> CrossoverMap:
    """Locate the PDP→TTP handover bandwidth for each ring size.

    Each ring size draws one population, shared by every bandwidth and
    protocol of its scan.
    """
    if not station_counts or not bandwidth_grid_mbps:
        raise ConfigurationError("need at least one station count and bandwidth")
    points: list[CrossoverPoint] = []
    for n in station_counts:
        varied = parameters.scaled_down(n, parameters.monte_carlo_sets)
        population = varied.sample_population()
        crossover: float | None = None
        pdp_value = ttp_value = 0.0
        for bandwidth in bandwidth_grid_mbps:
            bw_bps = mbps(bandwidth)
            pdp_best = max(
                average_breakdown_utilization(
                    varied.pdp_analysis(bandwidth, variant),
                    population,
                    bw_bps,
                    rel_tol=1e-3,
                ).mean
                for variant in (PDPVariant.STANDARD, PDPVariant.MODIFIED)
            )
            ttp = average_breakdown_utilization(
                varied.ttp_analysis(bandwidth), population, bw_bps
            ).mean
            if ttp > pdp_best:
                crossover, pdp_value, ttp_value = bandwidth, pdp_best, ttp
                break
        points.append(
            CrossoverPoint(
                n_stations=n,
                crossover_mbps=crossover,
                pdp_at_crossover=pdp_value,
                ttp_at_crossover=ttp_value,
            )
        )
    return CrossoverMap(points=tuple(points))
