"""End-to-end integration scenarios across the whole stack.

Each test tells one complete story the library exists for: configure a
network, pose a workload, get a guarantee, validate it by simulation —
crossing the network/messages/analysis/sim/experiments seams.
"""

import numpy as np
import pytest

from repro import (
    MessageSet,
    PDPAnalysis,
    PDPVariant,
    SynchronousStream,
    TTPAnalysis,
    breakdown_utilization,
    fddi_ring,
    ieee_802_5_ring,
    mbps,
    milliseconds,
    paper_frame_format,
)
from repro.analysis.bounds import pdp_sufficient_test, ttp_sufficient_test
from repro.analysis.asymptotics import pdp_utilization_ceiling
from repro.analysis.breakdown import breakdown_scale
from repro.experiments.config import PaperParameters
from repro.sim.pdp_sim import PDPRingSimulator, PDPSimConfig, TokenWalkModel
from repro.sim.ttp_sim import TTPRingSimulator, TTPSimConfig
from repro.sim.traffic import ArrivalPhasing
from repro.units import bytes_to_bits


FRAME = paper_frame_format()


def control_workload(n: int = 8) -> MessageSet:
    return MessageSet(
        SynchronousStream(
            period_s=milliseconds(20 + 12 * i),
            payload_bits=bytes_to_bits(256 * (1 + i % 3)),
            station=i,
        )
        for i in range(n)
    )


class TestDesignFlowPDP:
    """The factory-cell story: admission, margin, simulation."""

    def test_full_flow(self):
        workload = control_workload()
        bandwidth = mbps(10)
        ring = ieee_802_5_ring(bandwidth, n_stations=len(workload))
        analysis = PDPAnalysis(ring, FRAME, PDPVariant.MODIFIED)

        # 1. Quick admission check, then the exact test.
        quick = pdp_sufficient_test(analysis, workload)
        exact = analysis.analyze(workload)
        assert exact.schedulable
        if quick.admitted:
            assert exact.schedulable  # sufficiency

        # 2. Margin: how much can this workload grow?
        margin = breakdown_utilization(workload, analysis, bandwidth)
        assert margin.saturated
        assert margin.scale > 1.0  # workload sits inside its envelope

        # 3. The ceiling bounds the margin.
        ceiling = pdp_utilization_ceiling(ring, FRAME, PDPVariant.MODIFIED)
        assert margin.utilization <= ceiling + 1e-9

        # 4. Simulation confirms the guarantee adversarially.
        simulator = PDPRingSimulator(
            ring, FRAME, workload,
            PDPSimConfig(
                variant=PDPVariant.MODIFIED,
                phasing=ArrivalPhasing.SIMULTANEOUS,
                token_walk=TokenWalkModel.AVERAGE,
            ),
        )
        report = simulator.run(0.5)
        assert report.deadline_safe
        assert report.total_completed > 0


class TestDesignFlowTTP:
    """The avionics story: TTRT, allocation, simulation, Johnson bound."""

    def test_full_flow(self):
        workload = control_workload()
        bandwidth = mbps(100)
        ring = fddi_ring(bandwidth, n_stations=len(workload))
        analysis = TTPAnalysis(ring, FRAME)

        quick = ttp_sufficient_test(analysis, workload)
        verdict = analysis.analyze(workload)
        assert verdict.schedulable
        if quick.admitted:
            assert verdict.schedulable

        allocation = verdict.allocation
        assert allocation.satisfies_protocol_constraint()
        assert allocation.satisfies_deadline_constraint()
        assert allocation.ttrt_s <= workload.min_period / 2

        simulator = TTPRingSimulator(
            ring, FRAME, workload, allocation, TTPSimConfig()
        )
        report = simulator.run(0.5)
        assert report.deadline_safe
        assert report.max_rotation <= 2 * allocation.ttrt_s + 1e-9


class TestProtocolSelectionStory:
    """The paper's conclusion as an executable statement: for the same
    workload, PDP wins the breakdown comparison at low bandwidth and FDDI
    wins at 250 Mbps.  (On a 10-station ring the crossover sits lower
    than the paper's 100-station 10 Mbps — FDDI's n·F_ovhd penalty is
    small — so the low point is 2 Mbps here.)"""

    def test_crossover(self):
        workload = control_workload(10)
        verdicts = {}
        for bandwidth_mbps in (2.0, 250.0):
            bandwidth = mbps(bandwidth_mbps)
            pdp = PDPAnalysis(
                ieee_802_5_ring(bandwidth, n_stations=10), FRAME,
                PDPVariant.MODIFIED,
            )
            ttp = TTPAnalysis(fddi_ring(bandwidth, n_stations=10), FRAME)
            pdp_margin = breakdown_utilization(workload, pdp, bandwidth, 1e-3)
            ttp_margin = breakdown_utilization(workload, ttp, bandwidth, 1e-3)
            verdicts[bandwidth_mbps] = (
                pdp_margin.utilization, ttp_margin.utilization
            )
        low_pdp, low_ttp = verdicts[2.0]
        high_pdp, high_ttp = verdicts[250.0]
        assert low_pdp > low_ttp
        assert high_ttp > high_pdp


class TestMonteCarloPipeline:
    """Sampling -> saturation -> estimate, end to end, at two scales."""

    @pytest.mark.parametrize("n_stations", [5, 15])
    def test_pipeline(self, n_stations):
        from repro.analysis.montecarlo import average_breakdown_utilization

        params = PaperParameters().scaled_down(n_stations, 5)
        bandwidth = mbps(25)
        estimate = average_breakdown_utilization(
            params.ttp_analysis(25.0),
            params.sampler().sample_many(np.random.default_rng(0), 5),
            bandwidth,
        )
        assert estimate.n_sets == 5
        assert 0.0 <= estimate.mean <= 1.0


class TestScaleInvariance:
    """Physical sanity: expressing the same workload at double bandwidth
    with double payloads keeps utilization identical, and schedulability
    verdicts shift only through the latency terms."""

    def test_utilization_invariant(self):
        workload = control_workload()
        doubled = workload.scaled(2.0)
        assert doubled.utilization(mbps(20)) == pytest.approx(
            workload.utilization(mbps(10))
        )

    def test_breakdown_scale_halves_when_payloads_double(self):
        workload = control_workload()
        ring = fddi_ring(mbps(100), n_stations=len(workload))
        analysis = TTPAnalysis(ring, FRAME)
        base = analysis.saturation_scale(workload)
        doubled = analysis.saturation_scale(workload.scaled(2.0))
        assert doubled == pytest.approx(base / 2.0, rel=1e-9)
