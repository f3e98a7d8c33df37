"""Theorem 5.1: local allocation algebra, protocol constraint, saturation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.ttp import (
    TTPAnalysis,
    local_scheme_allocation,
    ttp_overhead_delta,
)
from repro.analysis.ttrt import FixedTTRT
from repro.errors import AllocationError, ConfigurationError
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.network.frames import FrameFormat
from repro.network.standards import fddi_ring
from repro.units import mbps, milliseconds


FRAME = FrameFormat(info_bits=512, overhead_bits=112)


def make_set(payloads, periods) -> MessageSet:
    return MessageSet(
        SynchronousStream(period_s=p, payload_bits=c, station=i)
        for i, (c, p) in enumerate(zip(payloads, periods))
    )


class TestOverheadDelta:
    def test_is_theta_plus_async_frame(self):
        ring = fddi_ring(mbps(100), n_stations=8)
        delta = ttp_overhead_delta(ring, 624.0)
        assert delta == pytest.approx(ring.theta + 624.0 / mbps(100))

    def test_rejects_negative_frame(self):
        ring = fddi_ring(mbps(100), n_stations=8)
        with pytest.raises(ConfigurationError):
            ttp_overhead_delta(ring, -1.0)

    def test_delta_shrinks_with_bandwidth(self):
        deltas = [
            ttp_overhead_delta(fddi_ring(mbps(b), n_stations=8), 624.0)
            for b in (10, 100, 1000)
        ]
        assert deltas == sorted(deltas, reverse=True)


class TestLocalAllocation:
    """Hand-checked algebra at 1 Mbps so bits == microseconds."""

    BW = 1e6
    FOVHD = 112e-6  # 112 bits at 1 Mbps
    DELTA = 1e-3

    def test_hand_computed(self):
        # P = (50, 100) ms, TTRT = 10 ms -> q = (5, 10).
        # C = (2000, 3000) bits -> (2, 3) ms.
        # h_1 = 2/4 + 0.112 = 0.612 ms; h_2 = 3/9 + 0.112 ms.
        message_set = make_set([2000, 3000], [0.050, 0.100])
        alloc = local_scheme_allocation(
            message_set, 0.010, self.BW, self.FOVHD, self.DELTA
        )
        assert alloc.token_visits == (5, 10)
        assert alloc.bandwidths_s[0] == pytest.approx(0.002 / 4 + self.FOVHD)
        assert alloc.bandwidths_s[1] == pytest.approx(0.003 / 9 + self.FOVHD)

    def test_augmented_lengths_eq_8(self):
        # C'_i = C_i + (q_i - 1) F_ovhd.
        message_set = make_set([2000, 3000], [0.050, 0.100])
        alloc = local_scheme_allocation(
            message_set, 0.010, self.BW, self.FOVHD, self.DELTA
        )
        assert alloc.augmented_lengths_s[0] == pytest.approx(0.002 + 4 * self.FOVHD)
        assert alloc.augmented_lengths_s[1] == pytest.approx(0.003 + 9 * self.FOVHD)

    def test_deadline_constraint_by_construction(self):
        """X_i = (q_i - 1) h_i >= C'_i holds with equality for the local scheme."""
        message_set = make_set([2000, 3000, 12_000], [0.050, 0.100, 0.220])
        alloc = local_scheme_allocation(
            message_set, 0.010, self.BW, self.FOVHD, self.DELTA
        )
        assert alloc.satisfies_deadline_constraint()
        for i in range(3):
            assert alloc.minimum_available_time(i) == pytest.approx(
                alloc.augmented_lengths_s[i]
            )

    def test_rejects_single_visit_periods(self):
        # P = 15 ms, TTRT = 10 ms -> q = 1 < 2.
        message_set = make_set([100], [0.015])
        with pytest.raises(AllocationError):
            local_scheme_allocation(
                message_set, 0.010, self.BW, self.FOVHD, self.DELTA
            )

    def test_exact_multiple_period(self):
        # P exactly 2*TTRT: q = 2 is acceptable.
        message_set = make_set([1000], [0.020])
        alloc = local_scheme_allocation(
            message_set, 0.010, self.BW, self.FOVHD, self.DELTA
        )
        assert alloc.token_visits == (2,)

    def test_rejects_nonpositive_ttrt(self):
        with pytest.raises(ConfigurationError):
            local_scheme_allocation(
                make_set([100], [0.1]), 0.0, self.BW, self.FOVHD, self.DELTA
            )

    def test_protocol_slack(self):
        message_set = make_set([2000], [0.050])
        alloc = local_scheme_allocation(
            message_set, 0.010, self.BW, self.FOVHD, self.DELTA
        )
        expected_slack = 0.010 - self.DELTA - alloc.total_bandwidth_s
        assert alloc.protocol_slack_s == pytest.approx(expected_slack)
        assert alloc.satisfies_protocol_constraint() == (expected_slack >= 0)


class TestTTPAnalysis:
    def make_analysis(self, bandwidth_mbps=100.0, policy=None) -> TTPAnalysis:
        return TTPAnalysis(
            fddi_ring(mbps(bandwidth_mbps), n_stations=8), FRAME, policy
        )

    def test_empty_set_schedulable(self):
        assert self.make_analysis().is_schedulable(MessageSet([]))

    def test_light_set_schedulable(self):
        message_set = make_set([8000] * 8, [milliseconds(50 + 10 * i) for i in range(8)])
        assert self.make_analysis().is_schedulable(message_set)

    def test_overload_unschedulable(self):
        message_set = make_set(
            [8_000_000] * 8, [milliseconds(50 + 10 * i) for i in range(8)]
        )
        result = self.make_analysis().analyze(message_set)
        assert not result.schedulable
        assert "protocol constraint" in result.reason

    def test_unallocatable_reports_reason(self):
        analysis = self.make_analysis(policy=FixedTTRT(milliseconds(40)))
        message_set = make_set([100], [milliseconds(50)])  # q = 1
        result = analysis.analyze(message_set)
        assert not result.schedulable
        assert result.allocation is None
        assert "floor(P_i/TTRT)" in result.reason

    def test_theorem_lhs_equals_allocation_sum(self):
        """Equation (13) and the Σh_i form are the same algebra."""
        analysis = self.make_analysis()
        message_set = make_set(
            [8000, 12_000, 20_000], [0.040, 0.080, 0.100]
        )
        ttrt = analysis.select_ttrt(message_set)
        lhs = analysis.theorem_lhs(message_set, ttrt)
        alloc = analysis.allocate(message_set, ttrt)
        assert lhs == pytest.approx(alloc.total_bandwidth_s)

    def test_theorem_lhs_infinite_when_infeasible(self):
        analysis = self.make_analysis(policy=FixedTTRT(milliseconds(40)))
        message_set = make_set([100], [milliseconds(50)])
        assert analysis.theorem_lhs(message_set) == float("inf")

    def test_load_ratio_below_one_iff_schedulable(self):
        analysis = self.make_analysis()
        good = make_set([8000] * 4, [0.05, 0.06, 0.07, 0.08])
        result = analysis.analyze(good)
        assert result.schedulable and result.load_ratio <= 1.0

    def test_with_ring(self):
        analysis = self.make_analysis(100.0)
        slower = analysis.with_ring(analysis.ring.with_bandwidth(mbps(10)))
        assert slower.delta > analysis.delta


class TestSaturationScale:
    def test_boundary_is_tight(self):
        """At λ* the set is schedulable; just above it is not."""
        analysis = TTPAnalysis(fddi_ring(mbps(100), n_stations=4), FRAME)
        message_set = make_set(
            [8000, 16_000, 24_000, 32_000], [0.040, 0.060, 0.080, 0.120]
        )
        scale = analysis.saturation_scale(message_set)
        assert scale > 0
        assert analysis.is_schedulable(message_set.scaled(scale * (1 - 1e-9)))
        assert not analysis.is_schedulable(message_set.scaled(scale * (1 + 1e-6)))

    def test_zero_when_overheads_exhaust_budget(self):
        """At 1 Mbps with many stations, n·F_ovhd alone exceeds the TTRT."""
        analysis = TTPAnalysis(fddi_ring(mbps(1), n_stations=100), FRAME)
        message_set = make_set(
            [100] * 100, [0.018 + 0.001 * i for i in range(100)]
        )
        assert analysis.saturation_scale(message_set) == 0.0

    def test_rejects_empty_set(self):
        analysis = TTPAnalysis(fddi_ring(mbps(100), n_stations=4), FRAME)
        with pytest.raises(ConfigurationError):
            analysis.saturation_scale(MessageSet([]))

    @settings(max_examples=50, deadline=None)
    @given(
        seedling=st.integers(min_value=0, max_value=10_000),
        bandwidth=st.sampled_from([10.0, 100.0, 1000.0]),
    )
    def test_matches_bisection(self, seedling, bandwidth):
        """Closed form agrees with generic bisection over is_schedulable."""
        import numpy as np

        from repro.analysis.breakdown import _bisect_scale

        rng = np.random.default_rng(seedling)
        periods = sorted(rng.uniform(0.02, 0.2, size=4))
        payloads = rng.uniform(1000, 50_000, size=4)
        message_set = make_set(payloads, periods)
        analysis = TTPAnalysis(fddi_ring(mbps(bandwidth), n_stations=4), FRAME)
        closed = analysis.saturation_scale(message_set)
        bisected, _ = _bisect_scale(
            message_set, analysis.is_schedulable, rel_tol=1e-6, max_doublings=128
        )
        if closed == 0.0:
            assert bisected == 0.0
        else:
            assert bisected == pytest.approx(closed, rel=1e-4)


class TestSaturationScalesBatch:
    """``saturation_scales`` over a ragged population equals the scalar
    ``saturation_scale`` of each set bit for bit, degenerate outcomes
    included."""

    @staticmethod
    def population() -> list[MessageSet]:
        """Widths 7, 15, 100 and 128 (128 is numpy's pairwise-sum block),
        plus an all-zero-payload set (zero demand)."""
        import numpy as np

        rng = np.random.default_rng(17)
        sets = [
            make_set(
                np.round(rng.uniform(100, 20_000, size=n)),
                rng.uniform(0.01, 0.19, size=n),
            )
            for n in (7, 15, 100, 128)
        ]
        return [*sets, make_set([0.0] * 15, rng.uniform(0.01, 0.19, size=15))]

    @staticmethod
    def analyses():
        """The sqrt rule at paper and low bandwidth (overheads exhaust the
        budget at 128 stations), and a fixed TTRT above some sets'
        ``P_min / 2`` (some ``q_i < 2``)."""
        return [
            TTPAnalysis(fddi_ring(mbps(bw), n_stations=128), FRAME, policy)
            for bw, policy in (
                (100.0, None),
                (16.0, None),
                (1.0, None),
                (16.0, FixedTTRT(0.0055)),
            )
        ]

    def test_equals_the_scalar_scale(self):
        from repro.analysis.pdp import PreparedSets

        sets = self.population()
        prepared = PreparedSets(sets)
        outcomes = set()
        for analysis in self.analyses():
            want = [analysis.saturation_scale(ms).hex() for ms in sets]
            for population in (prepared, sets):
                got = analysis.saturation_scales(population)
                assert [s.hex() for s in got.tolist()] == want
            for ms, scale in zip(sets, want):
                scale = float.fromhex(scale)
                starved = any(
                    p < 2 * analysis.select_ttrt(ms) for p in ms.periods
                )
                if scale == 0.0:
                    outcomes.add("starved" if starved else "budget")
                elif scale == float("inf"):
                    outcomes.add("zero demand")
        assert outcomes == {"starved", "budget", "zero demand"}

    def test_rejects_an_empty_set(self):
        analysis = self.analyses()[0]
        with pytest.raises(ConfigurationError):
            analysis.saturation_scales([make_set([1000], [0.05]), MessageSet([])])
        assert analysis.saturation_scales([]).tolist() == []

    def test_batch_search_calls_the_batch_once(self, monkeypatch):
        """``breakdown_scales_batch`` scores a TTP population in one
        ``saturation_scales`` call."""
        from repro.analysis.breakdown import breakdown_scales_batch

        analysis = self.analyses()[0]
        sets = self.population()
        calls = []
        batch = TTPAnalysis.saturation_scales

        def counted(self, message_sets):
            calls.append(len(message_sets))
            return batch(self, message_sets)

        monkeypatch.setattr(TTPAnalysis, "saturation_scales", counted)
        monkeypatch.setattr(
            TTPAnalysis, "saturation_scale", lambda *a: pytest.fail("per-set path")
        )
        pairs = breakdown_scales_batch(sets, analysis)
        assert calls == [len(sets)]
        assert [e for _, e in pairs] == [1] * len(sets)
