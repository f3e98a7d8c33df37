"""Sufficient admission bounds: values, soundness against the exact tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.bounds import (
    pdp_augmented_utilization,
    pdp_sufficient_test,
    ttp_guaranteed_utilization,
    ttp_sufficient_test,
)
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.analysis.ttp import TTPAnalysis
from repro.errors import ConfigurationError
from repro.messages.generators import MessageSetSampler, PeriodDistribution
from repro.messages.message_set import MessageSet
from repro.messages.transforms import set_utilization
from repro.network.standards import fddi_ring, ieee_802_5_ring, paper_frame_format
from repro.units import mbps


FRAME = paper_frame_format()


class TestTTPBound:
    def test_ideal_limit_is_one_third(self):
        """With vanishing overheads the bound approaches 33%."""
        assert ttp_guaranteed_utilization(0.01, 0.0, 0, 0.0) == pytest.approx(1 / 3)

    def test_overheads_reduce_bound(self):
        ideal = ttp_guaranteed_utilization(0.01, 0.0, 0, 0.0)
        loaded = ttp_guaranteed_utilization(0.01, 0.001, 10, 1e-5)
        assert loaded < ideal

    def test_zero_when_overheads_exhaust(self):
        assert ttp_guaranteed_utilization(0.01, 0.02, 0, 0.0) == 0.0

    def test_rejects_bad_ttrt(self):
        with pytest.raises(ConfigurationError):
            ttp_guaranteed_utilization(0.0, 0.0, 0, 0.0)

    def test_rejects_negative_overheads(self):
        with pytest.raises(ConfigurationError):
            ttp_guaranteed_utilization(0.01, -1.0, 0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_soundness(self, seed):
        """Any set below the bound passes Theorem 5.1."""
        rng = np.random.default_rng(seed)
        sampler = MessageSetSampler(
            n_streams=6, periods=PeriodDistribution(0.1, 5.0)
        )
        message_set = sampler.sample(rng)
        bandwidth = mbps(100)
        analysis = TTPAnalysis(fddi_ring(bandwidth, n_stations=6), FRAME)
        report = ttp_sufficient_test(analysis, message_set)
        if report.threshold > 0:
            # Rescale to sit just inside the bound, then re-test.
            inside = set_utilization(
                message_set, bandwidth, report.threshold * 0.99
            )
            inside_report = ttp_sufficient_test(analysis, inside)
            assert inside_report.admitted
            assert analysis.is_schedulable(inside)


class TestPDPBound:
    def make_analysis(self, bandwidth_mbps=10.0):
        return PDPAnalysis(
            ieee_802_5_ring(mbps(bandwidth_mbps), n_stations=6),
            FRAME,
            PDPVariant.MODIFIED,
        )

    def test_empty_set_admitted(self):
        report = pdp_sufficient_test(self.make_analysis(), MessageSet([]))
        assert report.admitted

    def test_augmented_utilization_positive(self, light_set):
        analysis = self.make_analysis()
        augmented = pdp_augmented_utilization(analysis, light_set)
        raw = light_set.utilization(analysis.ring.bandwidth_bps)
        assert augmented > raw

    def test_subnormal_period_is_an_infinite_load_without_warning(self):
        from repro.messages.stream import SynchronousStream

        analysis = PDPAnalysis(ieee_802_5_ring(16e6), FRAME)
        message_set = MessageSet(
            [
                SynchronousStream(5e-324, 100.0, 0),
                SynchronousStream(0.01, 100.0, 1),
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load = pdp_augmented_utilization(analysis, message_set)
            report = pdp_sufficient_test(analysis, message_set)
        assert load == float("inf")
        assert report.load == float("inf") and not report.admitted

    def test_margin_sign_matches_admission(self, light_set):
        report = pdp_sufficient_test(self.make_analysis(), light_set)
        assert (report.margin >= 0) == report.admitted

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        bandwidth=st.sampled_from([4.0, 16.0, 100.0]),
    )
    def test_soundness(self, seed, bandwidth):
        """An admitted set always passes the exact Theorem 4.1 test."""
        rng = np.random.default_rng(seed)
        sampler = MessageSetSampler(
            n_streams=6, periods=PeriodDistribution(0.1, 5.0)
        )
        message_set = sampler.sample(rng)
        analysis = self.make_analysis(bandwidth)
        report = pdp_sufficient_test(analysis, message_set)
        if report.admitted:
            assert analysis.is_schedulable(message_set)

    def test_not_necessary(self):
        """The bound is strictly sufficient: a harmonic set scaled to just
        inside its exact breakdown point (utilization near 1) is accepted
        by Theorem 4.1 but rejected by the LL-style admission rule."""
        from repro.analysis.breakdown import breakdown_scale
        from repro.messages.stream import SynchronousStream

        analysis = self.make_analysis(10.0)
        harmonic = MessageSet(
            SynchronousStream(
                period_s=0.02 * 2**i, payload_bits=4_000, station=i
            )
            for i in range(4)
        )
        scale, _ = breakdown_scale(harmonic, analysis, rel_tol=1e-4)
        near = harmonic.scaled(scale * 0.999)
        assert analysis.is_schedulable(near)
        assert not pdp_sufficient_test(analysis, near).admitted
