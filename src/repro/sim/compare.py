"""Fidelity comparison: abstract arbitration versus the faithful protocol.

The analysis-granularity PDP simulator (:mod:`repro.sim.pdp_sim`) and the
protocol-faithful 802.5 simulator (:mod:`repro.sim.ieee8025`) model the
same network at two levels of abstraction.  Running both on identical
workloads quantifies the *fidelity gap* — how much behaviour the paper's
analysis abstraction hides:

* deadline verdicts should agree wherever the analysis has margin;
* the faithful simulator pays real token walks (up to a full lap per
  frame for a station transmitting back-to-back under the standard
  variant) where the abstract one charges the analysis' ``Θ/2`` average,
  so its response times are generally *larger*;
* service-level quantization only exists in the faithful model.

Pinned by ``tests/test_sim_compare.py`` and available as a library
utility for anyone extending either simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.pdp import PDPVariant
from repro.messages.message_set import MessageSet
from repro.network.frames import FrameFormat
from repro.network.ring import RingNetwork
from repro.sim.ieee8025 import IEEE8025Config, IEEE8025Simulator
from repro.sim.pdp_sim import PDPRingSimulator, PDPSimConfig, TokenWalkModel
from repro.sim.trace import SimulationReport
from repro.sim.traffic import ArrivalPhasing

__all__ = ["FidelityComparison", "compare_pdp_fidelity"]


@dataclass(frozen=True)
class FidelityComparison:
    """Paired results of the two PDP models on one workload.

    Attributes:
        abstract: report from the arbitration-oracle simulator.
        faithful: report from the protocol-faithful 802.5 simulator.
    """

    abstract: SimulationReport
    faithful: SimulationReport

    @property
    def verdicts_agree(self) -> bool:
        """Both models agree on whether any deadline was missed."""
        return self.abstract.deadline_safe == self.faithful.deadline_safe

    @property
    def miss_gap(self) -> int:
        """faithful misses - abstract misses (>= 0 in the typical case)."""
        return self.faithful.total_missed - self.abstract.total_missed

    def worst_response_ratio(self) -> float:
        """Max over streams of faithful/abstract worst response times.

        Streams the abstract model never completed are skipped; returns
        1.0 when nothing is comparable.
        """
        worst = 1.0
        for a, f in zip(self.abstract.streams, self.faithful.streams):
            if a.max_response > 0 and f.max_response > 0:
                worst = max(worst, f.max_response / a.max_response)
        return worst


def compare_pdp_fidelity(
    ring: RingNetwork,
    frame: FrameFormat,
    message_set: MessageSet,
    variant: PDPVariant = PDPVariant.STANDARD,
    duration_s: float = 1.0,
    n_priority_levels: int = 8,
    phasing: ArrivalPhasing = ArrivalPhasing.SIMULTANEOUS,
) -> FidelityComparison:
    """Run both PDP models on the same workload and pair the reports."""
    abstract = PDPRingSimulator(
        ring,
        frame,
        message_set,
        PDPSimConfig(
            variant=variant,
            phasing=phasing,
            async_saturating=True,
            token_walk=TokenWalkModel.ACTUAL,
        ),
    ).run(duration_s)
    faithful = IEEE8025Simulator(
        ring,
        frame,
        message_set,
        IEEE8025Config(
            variant=variant,
            n_priority_levels=n_priority_levels,
            phasing=phasing,
            async_saturating=True,
        ),
    ).run(duration_s)
    return FidelityComparison(abstract=abstract, faithful=faithful)
