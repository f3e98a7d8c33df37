"""Streaming Monte Carlo estimator: stopping rule, determinism, stratification.

The streaming estimator's contract is that it *is* the fixed-N estimator
with a stopping rule bolted on: each chunk is scored by the fixed-N
estimator, so a plain chunk drawn from ``default_rng([seed, k])`` gives
that fixed-N mean bit-identically, and stratified periods change sampling
layout, never the estimand.  The chunks here are drawn by ``_chunks``;
Figure 1's prepared chunks are tested in ``test_experiments_figure1.py``.
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
from repro.obs import metrics
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


def _chunks(sampler, seed, chunk_sets, strata=1):
    """Chunk ``k``: ``chunk_sets`` sets from ``default_rng([*seed, k])``."""
    seed = seed if isinstance(seed, tuple) else (seed,)
    return lambda k: sampler.sample_many(
        np.random.default_rng([*seed, k]), chunk_sets, strata
    )


def _stream(analysis, sampler, *, seed, chunk_sets, strata=1, **kwargs):
    kwargs.setdefault("rel_tol", REL_TOL)
    return streaming_average_breakdown_utilization(
        analysis, _chunks(sampler, seed, chunk_sets, strata), BW, **kwargs
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
            max_chunks=3,
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
            max_chunks=512,
        )
        assert estimate.converged
        assert estimate.half_width <= 0.02
        assert estimate.evaluations < 4096

    def test_tighter_eps_needs_more_evaluations(self, ttp_analysis, sampler):
        loose = _stream(
            ttp_analysis, sampler, seed=1, eps=0.05, chunk_sets=4, max_chunks=512
        )
        tight = _stream(
            ttp_analysis, sampler, seed=1, eps=0.005, chunk_sets=4, max_chunks=512
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
            max_chunks=6,
        )
        assert not estimate.converged
        assert estimate.evaluations == 24

    def test_min_chunks_enforced(self, ttp_analysis, sampler):
        estimate = _stream(
            ttp_analysis, sampler, seed=3, eps=1e9, chunk_sets=4, min_chunks=5
        )
        assert estimate.n_chunks == 5


class TestAccounting:
    def test_chunk_without_samples_is_skipped(self, ttp_analysis, sampler):
        """An all-zero-payload chunk has infinite scale everywhere: it is
        evaluated and counted degenerate, but never folded."""
        drawn = _chunks(sampler, 13, 4)

        def chunk(k):
            sets = drawn(k)
            return [s.scaled(0.0) for s in sets] if k == 1 else sets

        estimate = streaming_average_breakdown_utilization(
            ttp_analysis, chunk, BW, eps=1e9, min_chunks=3, rel_tol=REL_TOL
        )
        assert estimate.n_chunks == 3
        assert estimate.evaluations == 16
        assert estimate.degenerate_sets >= 4
        folded = [
            average_breakdown_utilization(ttp_analysis, drawn(k), BW).mean
            for k in (0, 2, 3)
        ]
        assert estimate.chunk_means == tuple(folded)

    def test_counters_equal_the_folded_work(self, pdp_analysis, sampler):
        metrics.reset()
        estimate = _stream(
            pdp_analysis, sampler, seed=17, eps=0.02, chunk_sets=8, max_chunks=64
        )
        sampled = metrics.snapshot()["montecarlo.sets_sampled"]["value"]
        assert sampled == estimate.evaluations


class TestDeterminism:
    def test_same_seed_same_estimate(self, ttp_analysis, sampler):
        a = _stream(
            ttp_analysis, sampler, seed=9, eps=0.02, chunk_sets=8, max_chunks=512
        )
        b = _stream(
            ttp_analysis, sampler, seed=9, eps=0.02, chunk_sets=8, max_chunks=512
        )
        assert a == b

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
            max_chunks=16,
        )
        stratified = _stream(
            ttp_analysis,
            sampler,
            seed=22,
            eps=1e-12,
            chunk_sets=16,
            max_chunks=16,
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
            max_chunks=32,
        )
        stratified = _stream(
            ttp_analysis,
            wide,
            seed=40,
            eps=1e-12,
            chunk_sets=16,
            max_chunks=32,
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
        settings = dict(eps=5e-4, min_chunks=8, max_chunks=256)
        naive = streaming_average_breakdown_utilization(
            analysis, _chunks(sampler, params.seed, 16), BW, **settings
        )
        vr = streaming_average_breakdown_utilization(
            analysis, _chunks(sampler, params.seed, 16, strata=8), BW, **settings
        )
        assert naive.converged and vr.converged
        assert vr.evaluations <= naive.evaluations
        assert abs(naive.mean - vr.mean) <= naive.half_width + vr.half_width


class TestValidation:
    def test_rejects_bad_parameters(self, ttp_analysis, sampler):
        with pytest.raises(ConfigurationError):
            _stream(ttp_analysis, sampler, seed=0, chunk_sets=16, eps=0.0)
        with pytest.raises(ConfigurationError):
            _stream(ttp_analysis, sampler, seed=0, chunk_sets=16, z=0.0)
        with pytest.raises(ConfigurationError):
            _stream(ttp_analysis, sampler, seed=0, chunk_sets=0)
        with pytest.raises(ConfigurationError):
            _stream(ttp_analysis, sampler, seed=0, chunk_sets=16, min_chunks=1)
        with pytest.raises(ConfigurationError):
            _stream(ttp_analysis, sampler, seed=0, chunk_sets=8, max_chunks=0)
