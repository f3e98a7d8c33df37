"""Figure 1: average breakdown utilization versus bandwidth.

The paper's single evaluation figure sweeps the link bandwidth from 1 to
1000 Mbps and plots the average breakdown utilization of three protocols:

* the standard IEEE 802.5 priority driven protocol,
* the modified IEEE 802.5 variant, and
* FDDI's timed token protocol.

One population of random message sets is drawn from the paper's
distributions per sweep; for each bandwidth and protocol every set is
scaled to its saturation boundary and the saturated utilizations are
averaged (see :mod:`repro.analysis.montecarlo`).  Every cell receives
that one population, so the three curves are evaluated on the *same*
workloads at every bandwidth — paired sampling, which sharpens the
cross-protocol comparison exactly as in the paper's methodology.

The shape assertions that define a successful reproduction live in
:meth:`Figure1Result.shape_report`:

1. both 802.5 curves first rise with bandwidth, peak, then fall;
2. the modified variant dominates the standard one everywhere;
3. the FDDI curve is (weakly) monotone increasing;
4. PDP beats TTP at the low end; TTP wins from some crossover onward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.montecarlo import (
    AverageBreakdownEstimate,
    StreamingBreakdownEstimate,
    average_breakdown_utilization,
    streaming_average_breakdown_utilization,
)
from repro.analysis.pdp import PDPVariant, PreparedSets
from repro.errors import ConfigurationError
from repro.experiments.config import PaperParameters
from repro.experiments.parallel import parallel_map
from repro.experiments.reporting import ascii_plot, format_table
from repro.obs import tracing
from repro.units import mbps

__all__ = [
    "FIGURE1_PROTOCOLS",
    "PAPER_BANDWIDTHS_MBPS",
    "Figure1Point",
    "Figure1Result",
    "run_figure1",
]

#: The three curves of Figure 1, in column order.
FIGURE1_PROTOCOLS: tuple[str, ...] = ("pdp_standard", "pdp_modified", "ttp")

#: Log-spaced bandwidth grid covering the paper's 1–1000 Mbps axis.
PAPER_BANDWIDTHS_MBPS: tuple[float, ...] = (
    1.0, 1.6, 2.5, 4.0, 6.3, 10.0, 16.0, 25.0, 40.0, 63.0,
    100.0, 160.0, 250.0, 400.0, 630.0, 1000.0,
)


@dataclass(frozen=True)
class Figure1Point:
    """One bandwidth sample of the three protocol curves."""

    bandwidth_mbps: float
    pdp_standard: "AverageBreakdownEstimate | StreamingBreakdownEstimate"
    pdp_modified: "AverageBreakdownEstimate | StreamingBreakdownEstimate"
    ttp: "AverageBreakdownEstimate | StreamingBreakdownEstimate"


@dataclass(frozen=True)
class Figure1Result:
    """The full Figure 1 dataset plus shape diagnostics."""

    points: tuple[Figure1Point, ...]
    parameters: PaperParameters

    # -- series access ------------------------------------------------------------

    @property
    def bandwidths(self) -> list[float]:
        """The swept bandwidths, Mbps."""
        return [p.bandwidth_mbps for p in self.points]

    def series(self, name: str) -> list[float]:
        """One curve by name: 'pdp_standard', 'pdp_modified', or 'ttp'."""
        return [getattr(p, name).mean for p in self.points]

    # -- shape diagnostics -----------------------------------------------------------

    def peak_bandwidth(self, name: str) -> float:
        """Bandwidth (Mbps) at which a curve attains its maximum."""
        values = self.series(name)
        return self.bandwidths[int(np.argmax(values))]

    def crossover_bandwidth(self) -> float | None:
        """First bandwidth where TTP overtakes the better PDP variant.

        None when TTP never overtakes (it always does on the paper grid).
        """
        ttp = self.series("ttp")
        pdp = [
            max(a, b)
            for a, b in zip(self.series("pdp_standard"), self.series("pdp_modified"))
        ]
        for bandwidth, t, p in zip(self.bandwidths, ttp, pdp):
            if t > p:
                return bandwidth
        return None

    def shape_report(self) -> dict[str, bool]:
        """The four shape properties of a faithful reproduction."""
        std = self.series("pdp_standard")
        mod = self.series("pdp_modified")
        ttp = self.series("ttp")
        std_peak = int(np.argmax(std))
        mod_peak = int(np.argmax(mod))
        eps = 1e-9
        return {
            "pdp_standard_rises_then_falls": (
                0 < std_peak < len(std) - 1
                and std[std_peak] > std[0] + eps
                and std[std_peak] > std[-1] + eps
            ),
            "pdp_modified_rises_then_falls": (
                0 < mod_peak < len(mod) - 1
                and mod[mod_peak] > mod[0] + eps
                and mod[mod_peak] > mod[-1] + eps
            ),
            "modified_dominates_standard": all(
                m >= s - 1e-6 for m, s in zip(mod, std)
            ),
            "ttp_monotone_increasing": all(
                b >= a - 1e-6 for a, b in zip(ttp, ttp[1:])
            ),
            "pdp_wins_low_bandwidth": any(
                max(m, s) > t + eps for m, s, t in zip(mod[:6], std[:6], ttp[:6])
            ),
            "ttp_wins_high_bandwidth": ttp[-1] > max(mod[-1], std[-1]) + eps,
        }

    # -- rendering ----------------------------------------------------------------

    #: Column names matching :meth:`rows`, reused by CSV writers so the
    #: artifact schema has one home.
    CSV_HEADERS = (
        "bandwidth_mbps",
        "pdp_standard",
        "pdp_modified",
        "ttp",
        "se_standard",
        "se_modified",
        "se_ttp",
        "deg_standard",
        "deg_modified",
        "deg_ttp",
    )

    def rows(self) -> list[list[object]]:
        """Table rows: bandwidth, the three means, their stderrs, and the
        per-protocol degenerate-set counts (sets with no finite positive
        breakdown point — anomalous cells show up here, not just in the
        mean they drag down)."""
        return [
            [
                p.bandwidth_mbps,
                p.pdp_standard.mean,
                p.pdp_modified.mean,
                p.ttp.mean,
                p.pdp_standard.stderr,
                p.pdp_modified.stderr,
                p.ttp.stderr,
                p.pdp_standard.degenerate_sets,
                p.pdp_modified.degenerate_sets,
                p.ttp.degenerate_sets,
            ]
            for p in self.points
        ]

    def to_table(self) -> str:
        """Fixed-width table of the three curves."""
        return format_table(
            [
                "BW (Mbps)",
                "IEEE 802.5",
                "Mod 802.5",
                "FDDI",
                "se(802.5)",
                "se(mod)",
                "se(fddi)",
                "deg(802.5)",
                "deg(mod)",
                "deg(fddi)",
            ],
            self.rows(),
        )

    def to_ascii_plot(self) -> str:
        """The Figure 1 chart as ASCII art (log bandwidth axis)."""
        return ascii_plot(
            self.bandwidths,
            {
                "IEEE 802.5": self.series("pdp_standard"),
                "Modified 802.5": self.series("pdp_modified"),
                "FDDI": self.series("ttp"),
            },
            logx=True,
            title="Figure 1: Average breakdown utilization vs bandwidth",
        )


class _SweepChunks:
    """The streaming chunks of one sweep, drawn and prepared on first use.

    ``chunks(k)`` is :meth:`PaperParameters.sample_population` with
    ``chunk=k``, kept for the rest of the sweep, so a process draws and
    prepares each chunk at most once however many cells fold it.  It
    pickles while empty, so each worker process grows its own list.
    """

    def __init__(self, params: PaperParameters):
        self._params = params
        self._drawn: list[PreparedSets] = []

    def __call__(self, k: int) -> PreparedSets:
        while len(self._drawn) <= k:
            self._drawn.append(self._params.sample_population(len(self._drawn)))
        return self._drawn[k]


def _figure1_cell(
    shared: "tuple[PaperParameters, PreparedSets | _SweepChunks]",
    task: tuple[float, str, float],
) -> "AverageBreakdownEstimate | StreamingBreakdownEstimate":
    """One (bandwidth, protocol) cell of the Figure 1 grid.

    Module-level so worker processes can import it by name.  ``shared``
    is the parameters plus the sweep's population, drawn and prepared
    once by :func:`run_figure1`; every cell evaluates those same sets,
    so the estimate does not depend on which worker runs it or in what
    order — the paired-sampling guarantee the figure's cross-protocol
    comparison rests on.

    With ``params.mc_eps`` set the population is the sweep's streaming
    chunks instead, and the cell runs the accuracy-targeted streaming
    estimator: ``monte_carlo_sets`` becomes the chunk size and the cell
    stops at the target CI half-width.  Chunk ``k`` derives from
    ``params.seed`` and ``k`` alone, so the three protocols still see
    identical workload chunks (paired sampling — and with it, paired
    stratification — is preserved).
    """
    params, population = shared
    bandwidth, protocol, rel_tol = task
    if protocol == "pdp_standard":
        analysis = params.pdp_analysis(bandwidth, PDPVariant.STANDARD)
    elif protocol == "pdp_modified":
        analysis = params.pdp_analysis(bandwidth, PDPVariant.MODIFIED)
    elif protocol == "ttp":
        analysis = params.ttp_analysis(bandwidth)
    else:  # pragma: no cover - protocol list is closed
        raise ConfigurationError(f"unknown Figure 1 protocol: {protocol!r}")
    with tracing.span(f"figure1/bw{bandwidth:g}/{protocol}"):
        if params.mc_eps is None:
            return average_breakdown_utilization(
                analysis, population, mbps(bandwidth), rel_tol=rel_tol
            )
        return streaming_average_breakdown_utilization(
            analysis,
            population,
            mbps(bandwidth),
            eps=params.mc_eps,
            max_chunks=64,
            rel_tol=rel_tol,
        )


def run_figure1(
    parameters: PaperParameters | None = None,
    bandwidths_mbps: Sequence[float] = PAPER_BANDWIDTHS_MBPS,
    rel_tol: float = 1e-3,
    jobs: int | None = 1,
) -> Figure1Result:
    """Regenerate Figure 1.

    Args:
        parameters: operating conditions (paper defaults when None).
        bandwidths_mbps: the bandwidth grid to sweep.
        rel_tol: saturation-search tolerance for the PDP bisection.
        jobs: worker processes for the (bandwidth × protocol) grid;
            1 runs sequentially in-process, 0 uses all cores.  The
            population is drawn once per call, before the grid, and its
            PDP probe state is prepared there too
            (:class:`~repro.analysis.pdp.PreparedSets`: one exact test
            per set, one stacked kernel); both are sent to each worker
            once.  Every cell evaluates that same population, so every
            ``jobs`` value produces the identical result, and no cell
            looks up or builds an exact test.  A streaming sweep
            (``mc_eps`` set) draws and prepares its chunks on demand
            instead, each once inline and once per worker.
    """
    params = parameters if parameters is not None else PaperParameters()
    population = (
        params.sample_population()
        if params.mc_eps is None
        else _SweepChunks(params)
    )
    tasks = [
        (bandwidth, protocol, rel_tol)
        for bandwidth in bandwidths_mbps
        for protocol in FIGURE1_PROTOCOLS
    ]
    estimates = parallel_map(
        _figure1_cell,
        tasks,
        shared=(params, population),
        jobs=jobs,
        label="figure1",
    )
    points = [
        Figure1Point(
            bandwidth_mbps=bandwidth,
            **dict(zip(FIGURE1_PROTOCOLS, estimates[3 * i : 3 * i + 3])),
        )
        for i, bandwidth in enumerate(bandwidths_mbps)
    ]
    return Figure1Result(points=tuple(points), parameters=params)
