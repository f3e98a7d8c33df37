"""Streaming Monte Carlo estimator: stopping rule, determinism, stratification.

The streaming estimator's contract is that it *is* the fixed-N estimator
with a stopping rule bolted on: plain-mode chunk ``k`` consumes the sample
stream of ``default_rng([seed, k])`` bit-identically, the estimate is
independent of ``jobs``, and stratified periods change sampling layout,
never the estimand.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    average_breakdown_utilization,
    streaming_average_breakdown_utilization,
)
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.analysis.ttp import TTPAnalysis
from repro.errors import ConfigurationError
from repro.experiments.config import PaperParameters
from repro.messages.generators import MessageSetSampler, PeriodDistribution
from repro.network.standards import fddi_ring, ieee_802_5_ring, paper_frame_format
from repro.units import mbps


BW = mbps(10)

#: Loose bisection tolerance: these tests compare estimators against each
#: other, not against the paper's figures, so the search can stop early.
REL_TOL = 1e-3


@pytest.fixture
def sampler():
    return MessageSetSampler(
        n_streams=6, periods=PeriodDistribution(mean_period_s=0.1, ratio=10.0)
    )


@pytest.fixture
def pdp_analysis():
    return PDPAnalysis(
        ieee_802_5_ring(BW, n_stations=6),
        paper_frame_format(),
        PDPVariant.STANDARD,
    )


@pytest.fixture
def ttp_analysis():
    return TTPAnalysis(fddi_ring(BW, n_stations=6), paper_frame_format())


def _stream(analysis, sampler, **kwargs):
    kwargs.setdefault("rel_tol", REL_TOL)
    return streaming_average_breakdown_utilization(
        analysis, sampler, BW, **kwargs
    )


class TestFixedNEquivalence:
    def test_plain_chunks_bit_identical_to_fixed_n(self, pdp_analysis, sampler):
        """Chunk k of a plain streaming run equals a fixed-N run seeded
        ``[seed, k]`` — the property that makes naive-streaming
        evaluation counts comparable to fixed-N requirements."""
        streaming = _stream(
            pdp_analysis,
            sampler,
            seed=42,
            eps=1e9,
            chunk_sets=5,
            min_chunks=3,
            max_sets=15,
        )
        assert streaming.n_chunks == 3
        for k in range(3):
            fixed = average_breakdown_utilization(
                pdp_analysis,
                sampler.sample_many(np.random.default_rng([42, k]), 5),
                BW,
                rel_tol=REL_TOL,
            )
            assert streaming.chunk_means[k] == fixed.mean

    def test_mean_is_mean_of_chunk_means(self, ttp_analysis, sampler):
        estimate = _stream(
            ttp_analysis, sampler, seed=7, eps=1e9, chunk_sets=4, min_chunks=4
        )
        assert estimate.mean == pytest.approx(
            np.mean(estimate.chunk_means), abs=1e-15
        )


class TestStoppingRule:
    def test_stops_when_ci_reached(self, ttp_analysis, sampler):
        estimate = _stream(
            ttp_analysis,
            sampler,
            seed=0,
            eps=0.02,
            chunk_sets=8,
            min_chunks=2,
            max_sets=4096,
        )
        assert estimate.converged
        assert estimate.half_width <= 0.02
        assert estimate.evaluations < 4096

    def test_tighter_eps_needs_more_evaluations(self, ttp_analysis, sampler):
        loose = _stream(
            ttp_analysis, sampler, seed=1, eps=0.05, chunk_sets=4, max_sets=2048
        )
        tight = _stream(
            ttp_analysis, sampler, seed=1, eps=0.005, chunk_sets=4, max_sets=2048
        )
        assert tight.evaluations > loose.evaluations

    def test_hard_cap_respected(self, ttp_analysis, sampler):
        estimate = _stream(
            ttp_analysis,
            sampler,
            seed=2,
            eps=1e-9,
            chunk_sets=4,
            min_chunks=2,
            max_sets=24,
        )
        assert not estimate.converged
        assert estimate.evaluations == 24

    def test_min_chunks_enforced(self, ttp_analysis, sampler):
        estimate = _stream(
            ttp_analysis, sampler, seed=3, eps=1e9, chunk_sets=4, min_chunks=5
        )
        assert estimate.n_chunks == 5


class TestDeterminism:
    def test_same_seed_same_estimate(self, ttp_analysis, sampler):
        a = _stream(ttp_analysis, sampler, seed=9, eps=0.02, chunk_sets=8)
        b = _stream(ttp_analysis, sampler, seed=9, eps=0.02, chunk_sets=8)
        assert a == b

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_do_not_change_the_estimate(self, ttp_analysis, sampler, jobs):
        """Workers compute chunks speculatively; the folded result must be
        bit-identical to the inline run for every jobs value."""
        inline = _stream(
            ttp_analysis, sampler, seed=11, eps=0.02, chunk_sets=8, jobs=1
        )
        parallel = _stream(
            ttp_analysis, sampler, seed=11, eps=0.02, chunk_sets=8, jobs=jobs
        )
        assert inline == parallel

    def test_tuple_seed_accepted(self, ttp_analysis, sampler):
        a = _stream(ttp_analysis, sampler, seed=(5, 6), eps=1e9, chunk_sets=4)
        b = _stream(ttp_analysis, sampler, seed=(5, 6), eps=1e9, chunk_sets=4)
        assert a == b


class TestVarianceReduction:
    def test_stratified_mean_agrees_with_plain(self, ttp_analysis, sampler):
        plain = _stream(
            ttp_analysis,
            sampler,
            seed=21,
            eps=1e-12,
            chunk_sets=16,
            max_sets=256,
        )
        stratified = _stream(
            ttp_analysis,
            sampler,
            seed=22,
            eps=1e-12,
            chunk_sets=16,
            max_sets=256,
            strata=8,
        )
        combined = float(np.hypot(plain.stderr, stratified.stderr))
        assert abs(plain.mean - stratified.mean) <= 6.0 * combined

    def test_stratification_reduces_ttp_chunk_variance(self, ttp_analysis):
        """TTP breakdown utilization is smooth in the periods, so Latin
        hypercube stratification must shrink the chunk-mean spread."""
        wide = MessageSetSampler(
            n_streams=4,
            periods=PeriodDistribution(mean_period_s=0.1, ratio=30.0),
        )
        plain = _stream(
            ttp_analysis,
            wide,
            seed=40,
            eps=1e-12,
            chunk_sets=16,
            max_sets=512,
        )
        stratified = _stream(
            ttp_analysis,
            wide,
            seed=40,
            eps=1e-12,
            chunk_sets=16,
            max_sets=512,
            strata=16,
        )
        assert np.std(stratified.chunk_means) < np.std(plain.chunk_means)

    def test_stratified_run_needs_no_more_evaluations_than_plain(self):
        """At the paper's operating point (PDP standard, 10 Mbps, 20
        streams per set), stratified sampling must reach the same CI
        target with no more evaluations than plain sampling, both runs
        must converge before the cap, and the two estimates must agree
        within the sum of their half-widths (same estimand)."""
        params = PaperParameters()
        analysis = params.pdp_analysis(10.0, PDPVariant.STANDARD)
        sampler = MessageSetSampler(
            n_streams=20, periods=params.period_distribution()
        )
        settings = dict(
            seed=params.seed, eps=5e-4, chunk_sets=16, min_chunks=8,
            max_sets=4096,
        )
        naive = streaming_average_breakdown_utilization(
            analysis, sampler, BW, **settings
        )
        vr = streaming_average_breakdown_utilization(
            analysis, sampler, BW, strata=8, **settings
        )
        assert naive.converged and vr.converged
        assert vr.evaluations <= naive.evaluations
        assert abs(naive.mean - vr.mean) <= naive.half_width + vr.half_width


class TestValidation:
    def test_rejects_bad_parameters(self, ttp_analysis, sampler):
        with pytest.raises(ConfigurationError):
            _stream(ttp_analysis, sampler, seed=0, eps=0.0)
        with pytest.raises(ConfigurationError):
            _stream(ttp_analysis, sampler, seed=0, z=0.0)
        with pytest.raises(ConfigurationError):
            _stream(ttp_analysis, sampler, seed=0, chunk_sets=0)
        with pytest.raises(ConfigurationError):
            _stream(ttp_analysis, sampler, seed=0, min_chunks=1)
        with pytest.raises(ConfigurationError):
            _stream(ttp_analysis, sampler, seed=0, chunk_sets=8, max_sets=4)
