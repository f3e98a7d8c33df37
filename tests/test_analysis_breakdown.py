"""Saturation search: bisection correctness, the closed-form fast path
and the batched utilization pass."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.breakdown import (
    BreakdownResult,
    breakdown_scale,
    breakdown_utilization,
    breakdown_utilizations_batch,
)
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.analysis.ttp import TTPAnalysis
from repro.errors import MessageSetError
from repro.messages.generators import MessageSetSampler, PeriodDistribution
from repro.messages.message_set import MessageSet, scaled_utilizations
from repro.messages.stream import SynchronousStream
from repro.network.standards import fddi_ring, ieee_802_5_ring, paper_frame_format
from repro.units import mbps


def make_set(payloads=(1000, 2000), periods=(0.01, 0.02)) -> MessageSet:
    return MessageSet(
        SynchronousStream(period_s=p, payload_bits=c, station=i)
        for i, (c, p) in enumerate(zip(payloads, periods))
    )


def utilization_predicate(threshold: float, bandwidth: float):
    """Schedulable iff U(M) <= threshold — a predicate with a known boundary."""
    def predicate(message_set: MessageSet) -> bool:
        return message_set.utilization(bandwidth) <= threshold
    return predicate


class TestBisection:
    def test_finds_known_boundary(self):
        message_set = make_set()
        base_u = message_set.utilization(mbps(1))
        scale, _ = breakdown_scale(
            message_set, utilization_predicate(0.5, mbps(1)), rel_tol=1e-6
        )
        assert scale == pytest.approx(0.5 / base_u, rel=1e-5)

    def test_boundary_from_above(self):
        """Start unschedulable (scale 1 above threshold) and search down."""
        message_set = make_set(payloads=(800_000, 800_000))
        base_u = message_set.utilization(mbps(1))
        assert base_u > 0.5
        scale, _ = breakdown_scale(
            message_set, utilization_predicate(0.5, mbps(1)), rel_tol=1e-6
        )
        assert scale == pytest.approx(0.5 / base_u, rel=1e-5)

    def test_always_unschedulable_returns_zero(self):
        scale, _ = breakdown_scale(make_set(), lambda m: False)
        assert scale == 0.0

    def test_never_saturating_returns_inf(self):
        scale, _ = breakdown_scale(make_set(), lambda m: True)
        assert scale == float("inf")

    def test_zero_payload_set_classified_directly(self):
        empty = make_set(payloads=(0, 0))
        scale, evals = breakdown_scale(empty, lambda m: True)
        assert scale == float("inf")
        assert evals == 1
        scale, _ = breakdown_scale(empty, lambda m: False)
        assert scale == 0.0

    def test_rejects_empty_set(self):
        with pytest.raises(MessageSetError):
            breakdown_scale(MessageSet([]), lambda m: True)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(MessageSetError):
            breakdown_scale(make_set(), lambda m: True, rel_tol=0.0)

    def test_rejects_non_predicate(self):
        with pytest.raises(MessageSetError):
            breakdown_scale(make_set(), 42)

    @settings(max_examples=60, deadline=None)
    @given(
        threshold=st.floats(min_value=0.01, max_value=5.0),
        tol=st.sampled_from([1e-3, 1e-5]),
    )
    def test_result_brackets_boundary(self, threshold, tol):
        """The returned scale is schedulable; scale/(1-tol) overshoots."""
        message_set = make_set()
        predicate = utilization_predicate(threshold, mbps(1))
        scale, _ = breakdown_scale(message_set, predicate, rel_tol=tol)
        assert predicate(message_set.scaled(scale))
        assert not predicate(message_set.scaled(scale * (1 + 2 * tol)))


class TestClosedFormPath:
    class FakeAnalysis:
        """Implements the SupportsSaturationScale protocol."""

        def saturation_scale(self, message_set: MessageSet) -> float:
            return 2.5

        def is_schedulable(self, message_set: MessageSet) -> bool:
            return True

        def __call__(self, message_set):  # pragma: no cover - never used
            raise AssertionError("closed form should bypass the call path")

    def test_uses_closed_form(self):
        scale, evals = breakdown_scale(make_set(), self.FakeAnalysis())
        assert scale == 2.5
        assert evals == 1


class TestAnalysisObjectPath:
    class PredicateOnly:
        """An analysis without a closed form: must route via is_schedulable."""

        def __init__(self, threshold, bandwidth):
            self._pred = utilization_predicate(threshold, bandwidth)
            self.calls = 0

        def is_schedulable(self, message_set):
            self.calls += 1
            return self._pred(message_set)

    def test_uses_is_schedulable(self):
        analysis = self.PredicateOnly(0.5, mbps(1))
        scale, _ = breakdown_scale(make_set(), analysis, rel_tol=1e-4)
        assert analysis.calls > 1
        assert scale > 0


class TestBreakdownUtilization:
    def test_utilization_at_boundary(self):
        message_set = make_set()
        result = breakdown_utilization(
            message_set, utilization_predicate(0.5, mbps(1)), mbps(1), rel_tol=1e-6
        )
        assert isinstance(result, BreakdownResult)
        assert result.saturated
        assert result.utilization == pytest.approx(0.5, rel=1e-4)

    def test_degenerate_zero(self):
        result = breakdown_utilization(make_set(), lambda m: False, mbps(1))
        assert result.scale == 0.0
        assert result.utilization == 0.0
        assert not result.saturated

    def test_degenerate_inf(self):
        result = breakdown_utilization(make_set(), lambda m: True, mbps(1))
        assert result.scale == float("inf")
        assert result.utilization == 0.0
        assert not result.saturated


class TestArrayUtilizationPass:
    """``scaled_utilizations`` (one ``np.add.accumulate`` over zero-padded
    rows, as ``breakdown_utilizations_batch`` uses it) equals
    ``MessageSet.scaled_utilization`` and ``scaled(f).utilization`` bit
    for bit.

    Premise: the builtin ``sum`` of floats is a plain left fold on
    CPython before 3.12, and the project supports 3.10 on.  From 3.12
    ``sum`` of floats is compensated, so the scalar sums move in their
    last bits; this test must then fail loudly, not let the batched
    Figure 1 means drift from the scalar ones.
    """

    BW = mbps(10)

    @staticmethod
    def population() -> list[MessageSet]:
        """Ragged widths in one batch, tied periods and a 1-stream set."""
        rng = np.random.default_rng(11)
        periods = PeriodDistribution(mean_period_s=0.1, ratio=10.0)
        sets = [
            MessageSetSampler(n_streams=n, periods=periods).sample_many(rng, 1)[0]
            for n in (1, 3, 7, 40, 100)
        ]
        wide = sets[-2]
        tied = MessageSet(
            SynchronousStream(
                period_s=wide[i // 4].period_s,
                payload_bits=s.payload_bits,
                station=i,
            )
            for i, s in enumerate(wide)
        )
        return [*sets, tied]

    @staticmethod
    def assert_scalar_sums(message_sets, factors, utilizations, bandwidth):
        for ms, factor, utilization in zip(message_sets, factors, utilizations):
            scalar = ms.scaled_utilization(factor, bandwidth)
            rebuilt = ms.scaled(factor).utilization(bandwidth)
            assert utilization.hex() == scalar.hex() == rebuilt.hex()

    def test_non_dyadic_factors_match_the_scalar_sums(self):
        sets = self.population()
        for factors in (
            [0.1, 1 / 3, np.e, 1e-3 * np.pi, 12345.678, 7 / 11],
            [float(f) for f in np.random.default_rng(3).uniform(1e-3, 1e3, 6)],
        ):
            got = scaled_utilizations(sets, factors, self.BW)
            self.assert_scalar_sums(sets, factors, got, self.BW)

    @pytest.mark.parametrize(
        "analysis",
        [
            PDPAnalysis(
                ieee_802_5_ring(mbps(10), n_stations=10),
                paper_frame_format(),
                PDPVariant.STANDARD,
            ),
            TTPAnalysis(fddi_ring(mbps(10), n_stations=10), paper_frame_format()),
        ],
        ids=["pdp", "ttp"],
    )
    def test_batched_breakdown_utilizations_match_the_scalar_sums(self, analysis):
        sets = self.population()
        batch = breakdown_utilizations_batch(sets, analysis, self.BW, 1e-4)
        saturated = [(ms, r) for ms, r in zip(sets, batch) if r.saturated]
        assert len(saturated) == len(sets)
        self.assert_scalar_sums(
            [ms for ms, _ in saturated],
            [r.scale for _, r in saturated],
            [r.utilization for _, r in saturated],
            self.BW,
        )
        scalar = [breakdown_utilization(ms, analysis, self.BW, 1e-4) for ms in sets]
        assert batch == scalar

    def test_errors_are_the_scalar_ones(self):
        ms = make_set()
        for factor in (float("nan"), float("inf"), -1.0):
            with pytest.raises(MessageSetError) as scalar:
                ms.scaled_utilization(factor, mbps(1))
            with pytest.raises(MessageSetError) as batched:
                scaled_utilizations([ms, ms], [1.0, factor], mbps(1))
            assert str(batched.value) == str(scalar.value)
        for bandwidth in (0.0, -1.0):
            with pytest.raises(ValueError) as scalar:
                ms.scaled_utilization(1.0, bandwidth)
            with pytest.raises(ValueError) as batched:
                scaled_utilizations([ms], [1.0], bandwidth)
            assert str(batched.value) == str(scalar.value)
        assert scaled_utilizations([], [], 0.0) == []

    def test_unsaturated_batch_skips_the_bandwidth_check(self):
        """As in the scalar path, a batch with no saturated set reads no
        bandwidth."""
        sets = [make_set(), make_set(payloads=(0, 0))]
        for predicate in (lambda m: False, lambda m: True):
            batch = breakdown_utilizations_batch(sets, predicate, 0.0)
            assert batch == [breakdown_utilization(ms, predicate, 0.0) for ms in sets]
            assert [r.utilization for r in batch] == [0.0, 0.0]


class TestPreparedPopulationPasses:
    """Passes over a prepared population read its stacked columns and
    agree with the list path."""

    def test_scaled_utilizations_of_prepared_sets_equal_the_list_path(self):
        from repro.analysis.pdp import PreparedSets

        sets = TestArrayUtilizationPass.population()
        prepared = PreparedSets(sets)
        factors = [float(f) for f in np.random.default_rng(5).uniform(0, 50, 6)]
        bw = TestArrayUtilizationPass.BW
        got = scaled_utilizations(prepared, factors, bw)
        assert [u.hex() for u in got] == [
            u.hex() for u in scaled_utilizations(list(sets), factors, bw)
        ]

    def test_closed_form_without_a_batch_keeps_the_per_set_path(self):
        """A predicate that has only ``saturation_scale`` is scored set by
        set."""
        from repro.analysis.breakdown import breakdown_scales_batch

        fake = TestClosedFormPath.FakeAnalysis()
        assert not hasattr(fake, "saturation_scales")
        assert breakdown_scales_batch([make_set(), make_set()], fake) == [
            (2.5, 1),
            (2.5, 1),
        ]
