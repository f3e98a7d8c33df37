"""Monte Carlo estimator: determinism, statistics, degenerate handling."""

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    AverageBreakdownEstimate,
    average_breakdown_utilization,
)
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.analysis.ttp import TTPAnalysis
from repro.errors import ConfigurationError
from repro.network.standards import fddi_ring, ieee_802_5_ring, paper_frame_format
from repro.units import mbps


BW = mbps(100)


def _population(sampler, n_sets, seed):
    """``n_sets`` sets drawn from a generator (or seed)."""
    return sampler.sample_many(np.random.default_rng(seed), n_sets)


def _samples(predicate, message_sets, bandwidth=BW):
    """``(samples, degenerate)`` of the estimate over ``message_sets``."""
    estimate = average_breakdown_utilization(predicate, message_sets, bandwidth)
    return list(estimate.samples), estimate.degenerate_sets


@pytest.fixture
def ttp_analysis():
    return TTPAnalysis(fddi_ring(BW, n_stations=8), paper_frame_format())


@pytest.fixture
def pdp_analysis():
    return PDPAnalysis(
        ieee_802_5_ring(mbps(10), n_stations=8),
        paper_frame_format(),
        PDPVariant.MODIFIED,
    )


class TestDeterminism:
    def test_same_seed_same_estimate(self, ttp_analysis, sampler):
        a = average_breakdown_utilization(
            ttp_analysis, _population(sampler, 10, 42), BW
        )
        b = average_breakdown_utilization(
            ttp_analysis, _population(sampler, 10, 42), BW
        )
        assert a.samples == b.samples

    def test_different_seeds_differ(self, ttp_analysis, sampler):
        a = average_breakdown_utilization(
            ttp_analysis, _population(sampler, 5, 1), BW
        )
        b = average_breakdown_utilization(
            ttp_analysis, _population(sampler, 5, 2), BW
        )
        assert a.samples != b.samples


class TestStatistics:
    def test_estimate_fields(self, ttp_analysis, sampler):
        estimate = average_breakdown_utilization(
            ttp_analysis, _population(sampler, 20, 0), BW
        )
        assert estimate.n_sets == 20
        assert 0.0 < estimate.mean < 1.0
        assert estimate.std > 0.0
        assert estimate.stderr == pytest.approx(estimate.std / np.sqrt(20))

    def test_confidence_interval_brackets_mean(self, ttp_analysis, sampler):
        estimate = average_breakdown_utilization(
            ttp_analysis, _population(sampler, 20, 0), BW
        )
        low, high = estimate.confidence_interval()
        assert low < estimate.mean < high

    def test_single_sample_has_infinite_stderr(self):
        estimate = AverageBreakdownEstimate(
            mean=0.5, std=0.0, n_sets=1, samples=(0.5,)
        )
        assert estimate.stderr == float("inf")
        assert estimate.confidence_interval() == (float("-inf"), float("inf"))

    def test_breakdown_in_unit_interval(self, ttp_analysis, sampler):
        """Breakdown utilizations can never exceed 1 (capacity)."""
        estimate = average_breakdown_utilization(
            ttp_analysis, _population(sampler, 20, 3), BW
        )
        assert all(0.0 <= s <= 1.0 for s in estimate.samples)

    def test_pdp_breakdown_in_unit_interval(self, pdp_analysis, sampler):
        estimate = average_breakdown_utilization(
            pdp_analysis, _population(sampler, 10, 3), mbps(10)
        )
        assert all(0.0 <= s <= 1.0 + 1e-3 for s in estimate.samples)


class TestDegenerateHandling:
    def test_always_unschedulable_counts_zeroes(self, sampler, rng):
        samples, degenerate = _samples(
            lambda m: False, sampler.sample_many(rng, 5)
        )
        assert samples == [0.0] * 5
        assert degenerate == 5

    def test_rejects_zero_sets(self, sampler, rng):
        with pytest.raises(ConfigurationError):
            average_breakdown_utilization(lambda m: True, [], BW)

    def test_empty_estimate_when_all_infinite(self, sampler):
        """A predicate that never saturates yields an empty estimate."""
        estimate = average_breakdown_utilization(
            lambda m: True, _population(sampler, 3, 0), BW
        )
        assert estimate.n_sets == 0
        assert estimate.degenerate_sets == 3
        assert estimate.mean == 0.0


class TestScaleZeroDoubleAccounting:
    """The deliberate asymmetry documented on average_breakdown_utilization.

    A scale-0 set is counted in ``degenerate`` *and* appended to
    ``samples`` as exactly 0.0 (it must drag the mean down); a scale-inf
    set is counted in ``degenerate`` only.  Hence
    ``len(samples) + degenerate`` can exceed ``n_sets`` — pinned here so
    the batch rewrite (or any future one) cannot silently change the mean
    semantics.
    """

    @staticmethod
    def _mixed_predicate(message_set):
        # Scaling never changes periods, so sets whose shortest period is
        # below the cutoff are unschedulable at *every* scale (-> scale 0)
        # while the rest saturate at a finite positive scale.
        if min(message_set.periods) < 0.05:
            return False
        return message_set.utilization(BW) <= 0.3

    def test_scale_zero_sets_counted_twice(self, sampler, rng):
        n_sets = 30
        samples, degenerate = _samples(
            self._mixed_predicate, sampler.sample_many(rng, n_sets)
        )
        # Positive payload laws make scale-inf impossible, so every set
        # contributes a sample; the scale-0 ones are *also* degenerate.
        assert len(samples) == n_sets
        assert degenerate > 0  # the period law makes short periods likely
        assert len(samples) + degenerate > n_sets
        assert samples.count(0.0) == degenerate

    def test_zeros_drag_the_mean_down(self, sampler):
        estimate = average_breakdown_utilization(
            self._mixed_predicate, _population(sampler, 30, 12345), BW
        )
        positive = [s for s in estimate.samples if s > 0.0]
        assert estimate.degenerate_sets > 0
        assert estimate.mean < sum(positive) / len(positive)
        assert estimate.n_sets == 30  # zeros stay in the denominator

    def test_infinite_scale_excluded_from_mean(self, sampler, rng):
        samples, degenerate = _samples(lambda m: True, sampler.sample_many(rng, 4))
        assert samples == []  # inf sets contribute nothing to the mean
        assert degenerate == 4

    def test_batched_path_preserves_accounting(self, pdp_analysis, sampler):
        """The batch path and the scalar path agree sample-for-sample."""
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        estimate = average_breakdown_utilization(
            pdp_analysis, sampler.sample_many(rng_a, 20), mbps(10), 1e-4
        )
        batch = (list(estimate.samples), estimate.degenerate_sets)
        message_sets = sampler.sample_many(rng_b, 20)
        from repro.analysis.breakdown import breakdown_utilization

        scalar_samples, scalar_degenerate = [], 0
        for message_set in message_sets:
            result = breakdown_utilization(
                message_set, pdp_analysis, mbps(10), 1e-4
            )
            if result.scale == float("inf"):
                scalar_degenerate += 1
                continue
            if result.scale == 0.0:
                scalar_degenerate += 1
            scalar_samples.append(result.utilization)
        assert batch == (scalar_samples, scalar_degenerate)
