"""GroupedExactRMTest: verdict-equal to the dense LSD test, any scale.

The grouped variant aggregates equation (4) over distinct periods (one
matrix column per period group instead of per stream), so its structure is
independent of stream count.  Its contract is *verdict* equality with
:class:`ExactRMTest` on every cost vector — intermediate demands may
differ in the last bits, the accept/reject answer may not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.rm import ExactRMTest, GroupedExactRMTest
from repro.errors import MessageSetError


def _random_instance(rng, n, catalogue_size):
    catalogue = rng.uniform(0.01, 1.0, size=catalogue_size)
    periods = np.sort(catalogue[rng.integers(0, catalogue_size, size=n)])
    costs = rng.uniform(0.0, 1.2, size=n) * periods / n
    return periods, costs


class TestVerdictEquality:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_tied_catalogues(self, seed):
        rng = np.random.default_rng(seed)
        periods, costs = _random_instance(rng, n=40, catalogue_size=5)
        dense = ExactRMTest(periods)
        grouped = GroupedExactRMTest(periods)
        for blocking in (0.0, 1e-4, 1e-2):
            assert dense.is_schedulable(costs, blocking) == grouped.is_schedulable(
                costs, blocking
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_near_boundary_scales(self, seed):
        """Sweep a load scale through the feasibility boundary: the two
        tests must flip from accept to reject at the same grid step."""
        rng = np.random.default_rng(100 + seed)
        periods, costs = _random_instance(rng, n=24, catalogue_size=4)
        dense = ExactRMTest(periods)
        grouped = GroupedExactRMTest(periods)
        verdicts_dense = [
            dense.is_schedulable(costs * s) for s in np.linspace(0.1, 3.0, 30)
        ]
        verdicts_grouped = [
            grouped.is_schedulable(costs * s) for s in np.linspace(0.1, 3.0, 30)
        ]
        assert verdicts_dense == verdicts_grouped
        assert True in verdicts_dense and False in verdicts_dense

    def test_all_distinct_periods(self):
        rng = np.random.default_rng(7)
        periods = np.sort(rng.uniform(0.01, 1.0, size=12))
        costs = rng.uniform(0.0, 0.02, size=12)
        assert ExactRMTest(periods).is_schedulable(costs) == GroupedExactRMTest(
            periods
        ).is_schedulable(costs)

    def test_single_stream(self):
        assert GroupedExactRMTest([0.5]).is_schedulable([0.4])
        assert not GroupedExactRMTest([0.5]).is_schedulable([0.6])

    def test_all_equal_periods(self):
        periods = [0.1] * 16
        costs = [0.005] * 16
        assert GroupedExactRMTest(periods).is_schedulable(costs)
        assert not GroupedExactRMTest(periods).is_schedulable([0.007] * 16)
        assert ExactRMTest(periods).is_schedulable(costs) is True

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_property_verdicts_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 6))
        periods, costs = _random_instance(rng, n=n, catalogue_size=m)
        assert ExactRMTest(periods).is_schedulable(costs) == GroupedExactRMTest(
            periods
        ).is_schedulable(costs)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        periods, _ = _random_instance(rng, n=20, catalogue_size=4)
        grouped = GroupedExactRMTest(periods)
        dense = ExactRMTest(periods)
        batch = rng.uniform(0.0, 0.1, size=(16, 20)) * periods
        got = grouped.is_schedulable_batch(batch, 1e-4)
        assert got.tolist() == [
            dense.is_schedulable(row, 1e-4) for row in batch
        ]
        assert got.tolist() == [
            grouped.is_schedulable(row, 1e-4) for row in batch
        ]


class TestConstruction:
    def test_accepts_unsorted_periods(self):
        """Unlike the dense test, RM priority is derived from the values;
        costs stay aligned with the constructor order."""
        rng = np.random.default_rng(11)
        periods = rng.permutation(
            np.array([0.1, 0.2, 0.1, 0.4, 0.2, 0.4, 0.1, 0.2])
        )
        costs = rng.uniform(0.0, 0.03, size=periods.size)
        order = np.argsort(periods, kind="stable")
        dense = ExactRMTest(periods[order])
        grouped = GroupedExactRMTest(periods)
        assert grouped.is_schedulable(costs) == dense.is_schedulable(costs[order])

    def test_rejects_empty_and_non_positive(self):
        with pytest.raises(MessageSetError):
            GroupedExactRMTest([])
        with pytest.raises(MessageSetError):
            GroupedExactRMTest([0.1, -0.2])

    def test_rejects_mis_shaped_costs(self):
        grouped = GroupedExactRMTest([0.1, 0.2])
        with pytest.raises(MessageSetError):
            grouped.is_schedulable([0.01])
        with pytest.raises(MessageSetError):
            grouped.is_schedulable([0.01, -0.01])
        with pytest.raises(MessageSetError):
            grouped.is_schedulable([0.01, 0.01], blocking=-1e-9)

    def test_structure_size_tracks_distinct_periods(self):
        """The point of the grouped test: 10^4 streams over 3 periods cost
        the same structure as 3 streams over 3 periods."""
        small = GroupedExactRMTest([0.1, 0.2, 0.4])
        periods = np.tile([0.1, 0.2, 0.4], 4000)
        big = GroupedExactRMTest(periods)
        assert big._kernel.matrix.shape == small._kernel.matrix.shape
        assert np.array_equal(big._kernel.points, small._kernel.points)
        costs = np.full(periods.size, 0.4 / periods.size / 3.0)
        assert isinstance(big.is_schedulable(costs), bool)
