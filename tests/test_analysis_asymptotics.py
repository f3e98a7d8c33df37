"""Analytic ceilings: values, limits, and agreement with Monte Carlo."""

import numpy as np
import pytest

from repro.analysis.asymptotics import (
    ceiling_curves,
    pdp_utilization_ceiling,
    ttp_utilization_ceiling,
)
from repro.analysis.montecarlo import average_breakdown_utilization
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.errors import ConfigurationError
from repro.messages.generators import MessageSetSampler, PeriodDistribution
from repro.network.standards import fddi_ring, ieee_802_5_ring, paper_frame_format
from repro.units import mbps


FRAME = paper_frame_format()


class TestPDPCeiling:
    def test_low_bandwidth_value(self):
        """F > Θ regime: standard ceiling = F_info / (F + Θ/2)."""
        ring = ieee_802_5_ring(mbps(1), n_stations=10)
        frame_time = FRAME.frame_time(mbps(1))
        assert frame_time > ring.theta
        expected = FRAME.info_time(mbps(1)) / (frame_time + ring.theta / 2)
        value = pdp_utilization_ceiling(ring, FRAME, PDPVariant.STANDARD)
        assert value == pytest.approx(expected)

    def test_high_bandwidth_value(self):
        """Θ > F regime: modified ceiling = F_info / Θ."""
        ring = ieee_802_5_ring(mbps(1000), n_stations=10)
        assert ring.theta > FRAME.frame_time(mbps(1000))
        expected = FRAME.info_time(mbps(1000)) / ring.theta
        value = pdp_utilization_ceiling(ring, FRAME, PDPVariant.MODIFIED)
        assert value == pytest.approx(expected)

    def test_modified_dominates(self):
        for bandwidth in (1, 10, 100, 1000):
            ring = ieee_802_5_ring(mbps(bandwidth), n_stations=10)
            std = pdp_utilization_ceiling(ring, FRAME, PDPVariant.STANDARD)
            mod = pdp_utilization_ceiling(ring, FRAME, PDPVariant.MODIFIED)
            assert mod >= std

    def test_ceiling_collapses_at_high_bandwidth(self):
        """The Figure 1 collapse: ceiling → 0 as bandwidth → ∞."""
        values = [
            pdp_utilization_ceiling(
                ieee_802_5_ring(mbps(b), n_stations=100), FRAME, PDPVariant.MODIFIED
            )
            for b in (100, 1000, 10_000)
        ]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 0.05

    def test_ceiling_bounds_monte_carlo(self):
        """No sampled breakdown utilization exceeds the analytic ceiling."""
        bandwidth = mbps(100)
        ring = ieee_802_5_ring(bandwidth, n_stations=10)
        analysis = PDPAnalysis(ring, FRAME, PDPVariant.STANDARD)
        sampler = MessageSetSampler(
            n_streams=10, periods=PeriodDistribution(0.1, 10.0)
        )
        estimate = average_breakdown_utilization(
            analysis, sampler.sample_many(np.random.default_rng(0), 10), bandwidth
        )
        ceiling = pdp_utilization_ceiling(ring, FRAME, PDPVariant.STANDARD)
        assert max(estimate.samples) <= ceiling + 1e-6


class TestTTPCeiling:
    def test_value(self):
        assert ttp_utilization_ceiling(0.01, 0.001, 10, 1e-5) == pytest.approx(
            1.0 - (0.001 + 10e-5) / 0.01
        )

    def test_clamped_at_zero(self):
        assert ttp_utilization_ceiling(0.001, 0.01, 0, 0.0) == 0.0

    def test_approaches_one(self):
        assert ttp_utilization_ceiling(0.01, 1e-7, 0, 0.0) > 0.99

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            ttp_utilization_ceiling(0.0, 0.0, 0, 0.0)
        with pytest.raises(ConfigurationError):
            ttp_utilization_ceiling(0.01, -1.0, 0, 0.0)


class TestCeilingCurves:
    def test_bundle(self):
        bandwidth = mbps(100)
        curves = ceiling_curves(
            ieee_802_5_ring(bandwidth, n_stations=10),
            fddi_ring(bandwidth, n_stations=10),
            FRAME,
            ttrt_s=0.005,
            n_streams=10,
        )
        assert curves.pdp_modified >= curves.pdp_standard
        assert 0.0 <= curves.ttp <= 1.0

    def test_rejects_mismatched_bandwidths(self):
        with pytest.raises(ConfigurationError):
            ceiling_curves(
                ieee_802_5_ring(mbps(10), n_stations=10),
                fddi_ring(mbps(100), n_stations=10),
                FRAME,
                ttrt_s=0.005,
                n_streams=10,
            )

    def test_figure1_ordering_at_extremes(self):
        """The analytic curves alone already predict Figure 1's endpoints:
        PDP above TTP at 1 Mbps (small ring), TTP above PDP at 1 Gbps."""
        def curves_at(bandwidth_mbps):
            bandwidth = mbps(bandwidth_mbps)
            return ceiling_curves(
                ieee_802_5_ring(bandwidth, n_stations=10),
                fddi_ring(bandwidth, n_stations=10),
                FRAME,
                ttrt_s=0.009,
                n_streams=10,
            )

        low, high = curves_at(1), curves_at(1000)
        assert low.pdp_modified > low.ttp
        assert high.ttp > high.pdp_modified
