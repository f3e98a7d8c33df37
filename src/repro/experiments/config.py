"""The paper's operating conditions (Section 6.2) as one parameter object.

Every experiment takes a :class:`PaperParameters`; the defaults reproduce
the reported configuration exactly:

* 100 stations, 100 m apart, signal speed 0.75c;
* station bit delays 4 bits (IEEE 802.5) / 75 bits (FDDI);
* frame payload 64 bytes, frame overhead 112 bits;
* periods uniform with mean 100 ms and max/min ratio 10;
* one synchronous stream per station.

Factories hand out rings, frame formats, analyses, and samplers derived
from the parameters, so sweep code never assembles those by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.pdp import PDPAnalysis, PDPVariant, PreparedSets
from repro.analysis.ttp import TTPAnalysis
from repro.analysis.ttrt import SqrtRuleTTRT, TTRTPolicy
from repro.errors import ConfigurationError
from repro.messages.generators import MessageSetSampler, PeriodDistribution
from repro.network.frames import FrameFormat
from repro.network.ring import RingNetwork
from repro.network.standards import fddi_ring, ieee_802_5_ring
from repro.obs import tracing
from repro.units import bytes_to_bits, mbps

__all__ = ["PaperParameters"]


@dataclass(frozen=True)
class PaperParameters:
    """Operating conditions for the protocol comparison.

    Attributes:
        n_stations: stations on the ring (= synchronous streams).
        station_spacing_m: distance between neighbours, meters.
        velocity_factor: signal speed as a fraction of c.
        frame_payload_bytes: frame information field, bytes.
        frame_overhead_bits: frame header/trailer, bits.
        mean_period_s: average synchronous period.
        period_ratio: maximum-to-minimum period ratio.
        monte_carlo_sets: message sets per estimate.
        seed: base RNG seed (each protocol estimate derives from it
            deterministically so runs are reproducible).
        mc_eps: target CI half-width for the streaming Monte Carlo
            estimator; ``None`` (the default) keeps the fixed-N paper
            path bit-identical to earlier revisions.
        mc_strata: Latin-hypercube period strata per streaming chunk
            (1 = plain sampling; only used when ``mc_eps`` is set).
    """

    n_stations: int = 100
    station_spacing_m: float = 100.0
    velocity_factor: float = 0.75
    frame_payload_bytes: float = 64.0
    frame_overhead_bits: float = 112.0
    mean_period_s: float = 0.100
    period_ratio: float = 10.0
    monte_carlo_sets: int = 30
    seed: int = 20_260_704
    mc_eps: float | None = None
    mc_strata: int = 1

    def __post_init__(self) -> None:
        if self.monte_carlo_sets < 1:
            raise ConfigurationError(
                f"need at least one Monte Carlo set, got {self.monte_carlo_sets!r}"
            )
        if self.mc_eps is not None and self.mc_eps <= 0:
            raise ConfigurationError(
                f"mc_eps must be positive when set, got {self.mc_eps!r}"
            )
        if self.mc_strata < 1:
            raise ConfigurationError(
                f"mc_strata must be >= 1, got {self.mc_strata!r}"
            )

    # -- derived factories ------------------------------------------------------

    def frame_format(self) -> FrameFormat:
        """The MAC frame format for both protocols."""
        return FrameFormat(
            info_bits=bytes_to_bits(self.frame_payload_bytes),
            overhead_bits=self.frame_overhead_bits,
        )

    def pdp_ring(self, bandwidth_mbps: float) -> RingNetwork:
        """An IEEE 802.5 ring at ``bandwidth_mbps``."""
        return ieee_802_5_ring(
            mbps(bandwidth_mbps),
            n_stations=self.n_stations,
            station_spacing_m=self.station_spacing_m,
            velocity_factor=self.velocity_factor,
        )

    def ttp_ring(self, bandwidth_mbps: float) -> RingNetwork:
        """An FDDI ring at ``bandwidth_mbps``."""
        return fddi_ring(
            mbps(bandwidth_mbps),
            n_stations=self.n_stations,
            station_spacing_m=self.station_spacing_m,
            velocity_factor=self.velocity_factor,
        )

    def pdp_analysis(
        self, bandwidth_mbps: float, variant: PDPVariant
    ) -> PDPAnalysis:
        """A Theorem 4.1 analysis at ``bandwidth_mbps``.

        The analysis owns a small exact-test cache of its own; a sweep
        shares the period half of the test across its cells through the
        prepared population of :meth:`sample_population` instead.
        """
        return PDPAnalysis(self.pdp_ring(bandwidth_mbps), self.frame_format(), variant)

    def ttp_analysis(
        self, bandwidth_mbps: float, ttrt_policy: TTRTPolicy | None = None
    ) -> TTPAnalysis:
        """A Theorem 5.1 analysis at ``bandwidth_mbps``."""
        return TTPAnalysis(
            self.ttp_ring(bandwidth_mbps),
            self.frame_format(),
            ttrt_policy if ttrt_policy is not None else SqrtRuleTTRT(),
        )

    def period_distribution(self) -> PeriodDistribution:
        """The uniform period distribution of the Monte Carlo study."""
        return PeriodDistribution(
            mean_period_s=self.mean_period_s, ratio=self.period_ratio
        )

    def sampler(self) -> MessageSetSampler:
        """A message-set sampler with one stream per station."""
        return MessageSetSampler(
            n_streams=self.n_stations, periods=self.period_distribution()
        )

    def sample_population(self) -> PreparedSets:
        """The ``monte_carlo_sets`` workloads drawn from ``seed``, prepared.

        A sweep draws this once and hands it to every cell it compares,
        so all protocols and bandwidths see the same sets (paired
        sampling).  The sets come as a
        :class:`~repro.analysis.pdp.PreparedSets`: each set's exact test
        and the stacked probe kernel are built here, once, under the span
        ``population/prepare``, and every PDP cell only binds its ring,
        frame and variant to them.  Each call draws afresh from a new
        generator.
        """
        population = self.sampler().sample_many(
            np.random.default_rng(self.seed), self.monte_carlo_sets
        )
        with tracing.span("population/prepare"):
            return PreparedSets(population)

    # -- variations ----------------------------------------------------------------

    def scaled_down(self, n_stations: int, monte_carlo_sets: int) -> "PaperParameters":
        """A smaller instance for quick runs and CI-sized benchmarks."""
        return replace(
            self, n_stations=n_stations, monte_carlo_sets=monte_carlo_sets
        )

    def with_periods(
        self, mean_period_s: float, period_ratio: float
    ) -> "PaperParameters":
        """A copy with a different period distribution."""
        return replace(
            self, mean_period_s=mean_period_s, period_ratio=period_ratio
        )

    def with_streaming_mc(self, eps: float, strata: int = 1) -> "PaperParameters":
        """A copy that runs Monte Carlo cells as streaming estimates.

        ``monte_carlo_sets`` becomes the per-chunk size; the cell stops
        when the CI half-width drops below ``eps`` (hard-capped, see
        :func:`repro.analysis.montecarlo
        .streaming_average_breakdown_utilization`).
        """
        return replace(self, mc_eps=eps, mc_strata=strata)

    def with_frame(
        self, payload_bytes: float, overhead_bits: float | None = None
    ) -> "PaperParameters":
        """A copy with a different frame format."""
        return replace(
            self,
            frame_payload_bytes=payload_bytes,
            frame_overhead_bits=(
                self.frame_overhead_bits if overhead_bits is None else overhead_bits
            ),
        )
