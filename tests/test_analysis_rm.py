"""Rate-monotonic substrate: Liu–Layland, LSD exact test, RTA equivalence."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.rm import (
    ExactRMTest,
    hyperbolic_bound_holds,
    liu_layland_bound,
    response_time_analysis,
)
from repro.errors import MessageSetError


class TestLiuLaylandBound:
    def test_single_task(self):
        assert liu_layland_bound(1) == pytest.approx(1.0)

    def test_two_tasks(self):
        assert liu_layland_bound(2) == pytest.approx(2 * (2 ** 0.5 - 1))

    def test_limit_is_ln2(self):
        assert liu_layland_bound(10_000) == pytest.approx(np.log(2), rel=1e-4)

    def test_monotone_decreasing(self):
        bounds = [liu_layland_bound(n) for n in range(1, 20)]
        assert bounds == sorted(bounds, reverse=True)

    def test_rejects_zero(self):
        with pytest.raises(MessageSetError):
            liu_layland_bound(0)


class TestHyperbolicBound:
    def test_single_full_task(self):
        assert hyperbolic_bound_holds([1.0])

    def test_dominates_liu_layland(self):
        # A set at the LL bound lies exactly on the hyperbolic boundary
        # (prod(1+u) == 2); back off a hair to stay clear of float noise.
        for n in (2, 3, 5, 10):
            u = liu_layland_bound(n) / n * (1 - 1e-12)
            assert hyperbolic_bound_holds([u] * n)

    def test_rejects_overload(self):
        assert not hyperbolic_bound_holds([0.8, 0.8])

    def test_rejects_negative_utilization(self):
        with pytest.raises(MessageSetError):
            hyperbolic_bound_holds([-0.1])


class TestExactTestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(MessageSetError):
            ExactRMTest([])

    def test_rejects_unsorted(self):
        with pytest.raises(MessageSetError):
            ExactRMTest([10.0, 5.0])

    def test_rejects_nonpositive_period(self):
        with pytest.raises(MessageSetError):
            ExactRMTest([0.0, 1.0])

    @pytest.mark.parametrize(
        "periods", [[5e-324, 0.01], [1e-300, 1e300]], ids=["subnormal", "huge"]
    )
    def test_uncountable_scheduling_points_raise_without_warning(self, periods):
        """A period ratio that overflows the scheduling-point count is a
        bad input (MessageSetError), not a float overflow."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MessageSetError, match="scheduling points"):
                ExactRMTest(periods)

    def test_scheduling_points_single_task(self):
        test = ExactRMTest([4.0])
        assert list(test.scheduling_points(0)) == [4.0]

    def test_scheduling_points_classic(self):
        # R_3 for periods (4, 6, 10): multiples of 4 (4, 8), of 6 (6), of
        # 10 (10) up to 10.
        test = ExactRMTest([4.0, 6.0, 10.0])
        assert list(test.scheduling_points(2)) == [4.0, 6.0, 8.0, 10.0]

    def test_n_streams(self):
        assert ExactRMTest([1.0, 2.0]).n_streams == 2


class TestExactTestHandComputed:
    """The classic (C, P) = ((1,2,3), (4,6,10)) example: exactly saturated."""

    def test_schedulable(self):
        test = ExactRMTest([4.0, 6.0, 10.0])
        assert test.is_schedulable([1.0, 2.0, 3.0])

    def test_saturated_lowest_priority(self):
        test = ExactRMTest([4.0, 6.0, 10.0])
        ratio, point = test.stream_load_ratio(2, [1.0, 2.0, 3.0])
        # At t = 10: 3*1 + 2*2 + 3 = 10 -> ratio exactly 1.
        assert ratio == pytest.approx(1.0)
        assert point == 10.0

    def test_any_growth_breaks_it(self):
        test = ExactRMTest([4.0, 6.0, 10.0])
        assert not test.is_schedulable([1.0, 2.0, 3.001])
        assert not test.is_schedulable([1.001, 2.0, 3.0])

    def test_middle_stream_ratio(self):
        test = ExactRMTest([4.0, 6.0, 10.0])
        ratio, point = test.stream_load_ratio(1, [1.0, 2.0, 3.0])
        # At t = 6: 2*1 + 2 = 4 -> 4/6.
        assert ratio == pytest.approx(4.0 / 6.0)
        assert point == 6.0

    def test_blocking_shifts_verdict(self):
        test = ExactRMTest([4.0, 6.0, 10.0])
        # The set is exactly saturated, so any blocking breaks it.
        assert not test.is_schedulable([1.0, 2.0, 3.0], blocking=0.01)

    def test_details_report(self):
        test = ExactRMTest([4.0, 6.0, 10.0])
        details = test.details([1.0, 2.0, 3.0])
        assert [d.schedulable for d in details] == [True, True, True]
        assert details[0].min_load_ratio == pytest.approx(0.25)


class TestExactTestValidation:
    def test_wrong_cost_count(self):
        with pytest.raises(MessageSetError):
            ExactRMTest([1.0, 2.0]).is_schedulable([1.0])

    def test_negative_cost(self):
        with pytest.raises(MessageSetError):
            ExactRMTest([1.0]).is_schedulable([-1.0])

    def test_negative_blocking(self):
        with pytest.raises(MessageSetError):
            ExactRMTest([1.0]).is_schedulable([0.5], blocking=-1.0)

    def test_rejects_mis_shaped_costs(self):
        test = ExactRMTest([0.1, 0.2])
        with pytest.raises(MessageSetError):
            test.is_schedulable([[0.01, 0.01]])
        with pytest.raises(MessageSetError):
            test.is_schedulable_batch([0.01, 0.01])
        with pytest.raises(MessageSetError):
            test.is_schedulable_batch([[0.01, 0.01, 0.01]])
        with pytest.raises(MessageSetError):
            test.details([0.01, 0.01], blocking=-1e-9)

    def test_zero_costs_always_schedulable(self):
        assert ExactRMTest([1.0, 2.0, 3.0]).is_schedulable([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("index", [-1, 3, 10])
    def test_stream_load_ratio_rejects_out_of_range_index(self, index):
        with pytest.raises(MessageSetError):
            ExactRMTest([4.0, 6.0, 10.0]).stream_load_ratio(index, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("index", [-1, 3, 5])
    def test_scheduling_points_rejects_out_of_range_index(self, index):
        with pytest.raises(MessageSetError):
            ExactRMTest([4.0, 6.0, 10.0]).scheduling_points(index)


def _tied_instance(rng, n, catalogue_size):
    catalogue = rng.uniform(0.01, 1.0, size=catalogue_size)
    periods = np.sort(catalogue[rng.integers(0, catalogue_size, size=n)])
    costs = rng.uniform(0.0, 1.2, size=n) * periods / n
    return periods, costs


def _rta_verdicts(costs, periods, blocking=0.0):
    """Per-stream RTA verdicts, or None when a response lies within 1e-9
    relative of its deadline (the float knife edge, as in the
    ``rm_exact_vs_rta`` fuzz property)."""
    responses = np.array(response_time_analysis(costs, periods, blocking))
    if np.any(np.abs(responses - periods) <= 1e-9 * periods):
        return None
    return (responses <= periods).tolist()


class TestGroupSums:
    """Verdicts run on per-period group sums and details on each stream's
    own prefix; both must match response-time analysis when periods tie,
    and when they are all distinct (the sums are then the costs)."""

    def assert_matches_rta(self, test, costs, periods, blocking=0.0):
        oracle = _rta_verdicts(costs, periods, blocking)
        if oracle is None:
            return False
        assert test.is_schedulable(costs, blocking) == all(oracle)
        details = test.details(costs, blocking)
        assert [d.schedulable for d in details] == oracle
        return True

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tied_catalogues(self, seed):
        rng = np.random.default_rng(seed)
        periods, costs = _tied_instance(rng, n=40, catalogue_size=5)
        test = ExactRMTest(periods)
        for blocking in (0.0, 1e-4, 1e-2):
            self.assert_matches_rta(test, costs, periods, blocking)

    @pytest.mark.parametrize("seed", range(8))
    def test_near_boundary_scales(self, seed):
        """Sweep a load scale through the feasibility boundary: the test
        flips from accept to reject where response-time analysis does."""
        rng = np.random.default_rng(100 + seed)
        periods, costs = _tied_instance(rng, n=24, catalogue_size=4)
        test = ExactRMTest(periods)
        verdicts = []
        for scale in np.linspace(0.1, 3.0, 30):
            if self.assert_matches_rta(test, costs * scale, periods):
                verdicts.append(test.is_schedulable(costs * scale))
        assert True in verdicts and False in verdicts

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_property_verdicts_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 6))
        periods, costs = _tied_instance(rng, n=n, catalogue_size=m)
        self.assert_matches_rta(ExactRMTest(periods), costs, periods)

    def test_all_distinct_periods(self):
        rng = np.random.default_rng(7)
        periods = np.sort(rng.uniform(0.01, 1.0, size=12))
        test = ExactRMTest(periods)
        for scale in (0.5, 1.0, 2.0, 4.0):
            costs = rng.uniform(0.0, 0.02, size=12) * scale
            self.assert_matches_rta(test, costs, periods)

    def test_single_stream(self):
        assert ExactRMTest([0.5]).is_schedulable([0.4])
        assert not ExactRMTest([0.5]).is_schedulable([0.6])

    def test_all_equal_periods(self):
        test = ExactRMTest([0.1] * 16)
        assert test.is_schedulable([0.005] * 16)
        assert not test.is_schedulable([0.007] * 16)
        # Only the members whose own prefix passes 0.1 miss.
        ok = [d.schedulable for d in test.details([0.007] * 16)]
        assert ok == [True] * 14 + [False] * 2

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        periods, _ = _tied_instance(rng, n=20, catalogue_size=4)
        test = ExactRMTest(periods)
        batch = rng.uniform(0.0, 0.1, size=(16, 20)) * periods
        got = test.is_schedulable_batch(batch, 1e-4)
        assert got.tolist() == [test.is_schedulable(row, 1e-4) for row in batch]
        assert True in got.tolist() and False in got.tolist()

    def test_structure_size_tracks_distinct_periods(self):
        """12 000 streams over 3 periods cost the same structure as 3
        streams over 3 periods."""
        small = ExactRMTest([0.1, 0.2, 0.4])
        periods = np.sort(np.tile([0.1, 0.2, 0.4], 4000))
        big = ExactRMTest(periods)
        for table in ("points", "events", "counts", "cuts"):
            assert np.array_equal(
                getattr(big._kernel, table), getattr(small._kernel, table)
            )
        # 0.4 counts the multiples 0.1, 0.2, 0.3 of 0.1 and 0.2 of 0.2.
        assert big._kernel.events.size == small._kernel.events.size == 4
        costs = np.full(periods.size, 0.4 / periods.size / 3.0)
        assert isinstance(big.is_schedulable(costs), bool)


class TestResponseTimeAnalysis:
    def test_hand_computed(self):
        responses = response_time_analysis([1.0, 2.0, 3.0], [4.0, 6.0, 10.0])
        assert responses[0] == pytest.approx(1.0)
        assert responses[1] == pytest.approx(3.0)
        assert responses[2] == pytest.approx(10.0)

    def test_blocking_adds(self):
        responses = response_time_analysis([1.0], [4.0], blocking=0.5)
        assert responses[0] == pytest.approx(1.5)

    def test_overload_exceeds_deadline(self):
        responses = response_time_analysis([3.0, 4.0], [4.0, 6.0])
        assert responses[1] > 6.0

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(MessageSetError):
            response_time_analysis([1.0], [4.0, 6.0])

    def test_rejects_unsorted_periods(self):
        with pytest.raises(MessageSetError):
            response_time_analysis([1.0, 1.0], [6.0, 4.0])


@st.composite
def random_task_set(draw):
    """Small random task sets with utilizations spanning the boundary."""
    n = draw(st.integers(min_value=1, max_value=6))
    periods = sorted(
        draw(
            st.lists(
                st.floats(min_value=1.0, max_value=100.0),
                min_size=n,
                max_size=n,
            )
        )
    )
    target_u = draw(st.floats(min_value=0.1, max_value=1.3))
    shares = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
        )
    )
    total = sum(shares)
    costs = [s / total * target_u * p for s, p in zip(shares, periods)]
    blocking = draw(st.floats(min_value=0.0, max_value=5.0))
    return costs, periods, blocking


class TestLSDvsRTA:
    """The two exact characterizations must agree everywhere."""

    @settings(max_examples=200, deadline=None)
    @given(task_set=random_task_set())
    def test_equivalence(self, task_set):
        costs, periods, blocking = task_set
        lsd = ExactRMTest(periods).is_schedulable(costs, blocking)
        responses = response_time_analysis(costs, periods, blocking)
        # On the exact knife edge (a response within one relative ulp-band
        # of its deadline, e.g. C=P=1, B=1e-10) the two formulations may
        # legitimately land on opposite sides of the float boundary; the
        # equivalence claim only binds away from it.
        for r, p in zip(responses, periods):
            assume(abs(r - p) > 1e-9 * p)
        rta = all(r <= p for r, p in zip(responses, periods))
        assert lsd == rta

    @settings(max_examples=100, deadline=None)
    @given(task_set=random_task_set())
    def test_liu_layland_is_sufficient(self, task_set):
        costs, periods, _ = task_set
        utilization = sum(c / p for c, p in zip(costs, periods))
        if utilization <= liu_layland_bound(len(costs)):
            assert ExactRMTest(periods).is_schedulable(costs)

    @settings(max_examples=100, deadline=None)
    @given(task_set=random_task_set())
    def test_monotone_in_costs(self, task_set):
        """Shrinking every cost never breaks schedulability."""
        costs, periods, blocking = task_set
        test = ExactRMTest(periods)
        if test.is_schedulable(costs, blocking):
            smaller = [c * 0.5 for c in costs]
            assert test.is_schedulable(smaller, blocking)

    @settings(max_examples=100, deadline=None)
    @given(task_set=random_task_set())
    def test_utilization_above_one_unschedulable(self, task_set):
        costs, periods, blocking = task_set
        utilization = sum(c / p for c, p in zip(costs, periods))
        if utilization > 1.0 + 1e-9:
            assert not ExactRMTest(periods).is_schedulable(costs, blocking)
