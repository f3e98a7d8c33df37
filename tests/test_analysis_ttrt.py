"""TTRT selection: the sqrt rule, feasibility clamps, the exact optimum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.boundary import Q_REL_TOL
from repro.analysis.ttrt import (
    FixedTTRT,
    HalfMinPeriodTTRT,
    OptimalTTRT,
    SqrtRuleTTRT,
    half_min_period_ttrt,
    optimal_ttrt,
    sqrt_rule_ttrt,
    ttp_saturation_scale,
    ttp_saturation_scales,
)
from repro.errors import (
    ConfigurationError,
    InfeasibleParameterError,
    MessageSetError,
)
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream


def domain_edges(periods, delta, fovhd):
    """Every right edge ``P_i/m`` of ``optimal_ttrt``'s domain that leaves
    a positive rotation budget, enumerated independently of it."""
    upper = min(periods) / 2.0
    lower = max(upper * 1e-4, delta * 1e-3, 1e-12)
    low = max(lower, delta + len(periods) * fovhd)
    return sorted(
        {
            p / m
            for p in periods
            for m in range(2, int(p / low) + 2)
            if low <= p / m <= upper
            and p / m - delta - len(periods) * fovhd > 0
        }
    )


def best_edge(periods, payloads, delta, fovhd):
    """The smallest edge of the largest scalar scale, every edge scored."""
    scored = [
        (ttp_saturation_scale(t, periods, payloads, delta, fovhd), -t)
        for t in domain_edges(periods, delta, fovhd)
    ]
    scale, negated = max(scored)
    return -negated, scale


class TestSqrtRule:
    def test_basic_value(self):
        # sqrt(δ P_min) when well inside the feasible range.
        assert sqrt_rule_ttrt(0.1, 1e-4) == pytest.approx(math.sqrt(1e-5))

    def test_clamped_to_half_min(self):
        # δ = P/2: sqrt(P²/2) = P/sqrt(2) > P/2 -> clamp.
        assert sqrt_rule_ttrt(0.1, 0.05) == pytest.approx(0.05)

    def test_zero_delta_floors_positive(self):
        assert sqrt_rule_ttrt(0.1, 0.0) > 0.0

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError):
            sqrt_rule_ttrt(0.0, 1e-4)

    def test_rejects_negative_delta(self):
        with pytest.raises(ConfigurationError):
            sqrt_rule_ttrt(0.1, -1e-4)

    @given(
        p_min=st.floats(min_value=1e-4, max_value=10.0),
        delta=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_always_feasible(self, p_min, delta):
        ttrt = sqrt_rule_ttrt(p_min, delta)
        assert 0.0 < ttrt <= p_min / 2.0


class TestHalfMinRule:
    def test_value(self):
        assert half_min_period_ttrt(0.2) == pytest.approx(0.1)

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError):
            half_min_period_ttrt(-1.0)


class TestSaturationScaleFunction:
    def test_hand_computed(self):
        # P = (0.1,), TTRT = 0.02 -> q = 5; budget = 0.02 - δ - F_ovhd.
        # demand per rotation = C/(q-1) = 0.004.
        scale = ttp_saturation_scale(
            0.02, [0.1], [0.016], delta=0.001, frame_overhead_time_s=0.0005
        )
        budget = 0.02 - 0.001 - 0.0005
        assert scale == pytest.approx(budget / (0.016 / 4))

    def test_zero_when_infeasible_q(self):
        assert ttp_saturation_scale(0.06, [0.1], [0.01], 0.0, 0.0) == 0.0

    def test_zero_when_no_budget(self):
        assert ttp_saturation_scale(0.02, [0.1], [0.01], 0.05, 0.0) == 0.0

    def test_infinite_for_zero_payloads(self):
        assert ttp_saturation_scale(0.02, [0.1], [0.0], 0.001, 0.0) == float("inf")

    def test_rejects_nonpositive_ttrt(self):
        with pytest.raises(ConfigurationError):
            ttp_saturation_scale(0.0, [0.1], [0.01], 0.0, 0.0)


class TestOptimalTTRT:
    def test_beats_fixed_choices(self):
        """The numeric optimum dominates both standard heuristics."""
        periods = [0.05, 0.08, 0.1, 0.15]
        payloads = [0.002, 0.003, 0.001, 0.004]
        delta, fovhd = 5e-4, 1e-5
        best = optimal_ttrt(periods, payloads, delta, fovhd)
        best_scale = ttp_saturation_scale(best, periods, payloads, delta, fovhd)
        for candidate in (
            sqrt_rule_ttrt(min(periods), delta),
            half_min_period_ttrt(min(periods)),
        ):
            assert best_scale >= ttp_saturation_scale(
                candidate, periods, payloads, delta, fovhd
            ) - 1e-9

    def test_equal_periods_near_sqrt_rule(self):
        """For equal periods the paper derives TTRT* ≈ sqrt(δ·P); the sqrt
        rule must achieve nearly the optimal saturation scale."""
        periods = [0.1] * 8
        payloads = [0.001] * 8
        delta = 2e-4
        fovhd = 0.0
        best = optimal_ttrt(periods, payloads, delta, fovhd)
        best_scale = ttp_saturation_scale(best, periods, payloads, delta, fovhd)
        sqrt_scale = ttp_saturation_scale(
            sqrt_rule_ttrt(0.1, delta), periods, payloads, delta, fovhd
        )
        assert sqrt_scale >= 0.90 * best_scale

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            optimal_ttrt([], [], 0.0, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_optimal_is_the_best_edge_and_beats_a_dense_scan(self, seed):
        """The choice is the best right edge ``P_i/m``, every edge scored
        by the scalar oracle, and no point of a dense log scan of the
        domain beats it by more than the ``Q_REL_TOL`` snap window."""
        rng = np.random.default_rng(seed)
        periods = sorted(rng.uniform(0.02, 0.3, size=5))
        payloads = rng.uniform(1e-4, 5e-3, size=5)
        delta = float(rng.uniform(1e-5, 2e-3))
        fovhd = 1e-5
        best = optimal_ttrt(periods, payloads, delta, fovhd)
        best_scale = ttp_saturation_scale(best, periods, payloads, delta, fovhd)
        edge, edge_scale = best_edge(periods, payloads, delta, fovhd)
        assert best.hex() == edge.hex()
        assert best_scale == edge_scale
        probes = np.geomspace(delta + 5 * fovhd, min(periods) / 2, 20_000)
        dense = ttp_saturation_scales(
            probes, np.array(periods), payloads, np.full(probes.size, 5),
            delta, fovhd,
        )
        assert best_scale >= dense.max() * (1 - 2 * Q_REL_TOL)

    def test_infeasible_set_raises(self):
        # δ leaves no budget anywhere below P_min/2 = 0.005.
        with pytest.raises(InfeasibleParameterError):
            optimal_ttrt([0.01, 0.02], [1e-4, 1e-4], 0.006, 0.0)
        with pytest.raises(InfeasibleParameterError):
            optimal_ttrt([0.01, 0.02], [1e-4, 1e-4], 0.004, 6e-4)

    def test_zero_payloads_fall_back_to_the_sqrt_rule(self):
        periods, delta = [0.05, 0.08], 2e-4
        assert optimal_ttrt(periods, [0.0, 0.0], delta, 1e-5) == sqrt_rule_ttrt(
            0.05, delta
        )

    def test_single_stream(self):
        """One stream: the best edge is ``P/m`` with ``m`` near
        ``sqrt(P/δ')``, and its scale beats both neighbouring edges."""
        period, payload, delta, fovhd = 0.1, 1e-3, 1e-4, 1e-5
        best = optimal_ttrt([period], [payload], delta, fovhd)
        m = round(period / best)
        assert best == period / m
        assert abs(m - math.sqrt(period / (delta + fovhd))) <= 2
        scale = ttp_saturation_scale(best, [period], [payload], delta, fovhd)
        for neighbour in (period / (m - 1), period / (m + 1)):
            assert scale > ttp_saturation_scale(
                neighbour, [period], [payload], delta, fovhd
            )


class TestPolicies:
    def make_set(self) -> MessageSet:
        return MessageSet(
            [
                SynchronousStream(period_s=0.08, payload_bits=1000, station=0),
                SynchronousStream(period_s=0.10, payload_bits=2000, station=1),
            ]
        )

    def test_sqrt_policy_uses_total_overhead(self):
        # δ' = δ + n·F_ovhd with n = 2 streams.
        ttrt = SqrtRuleTTRT().select(self.make_set(), 1e6, 1e-4, 1e-5)
        assert ttrt == pytest.approx(sqrt_rule_ttrt(0.08, 1e-4 + 2 * 1e-5))

    def test_half_min_policy(self):
        ttrt = HalfMinPeriodTTRT().select(self.make_set(), 1e6, 1e-4, 1e-5)
        assert ttrt == pytest.approx(0.04)

    def test_fixed_policy(self):
        assert FixedTTRT(0.012).select(self.make_set(), 1e6, 1e-4, 1e-5) == 0.012

    def test_fixed_policy_validates(self):
        with pytest.raises(ConfigurationError):
            FixedTTRT(0.0)

    def test_optimal_policy_scale_invariant(self):
        """Scaling payloads must not move the optimal TTRT choice — the
        property the closed-form saturation scale relies on."""
        policy = OptimalTTRT()
        base = self.make_set()
        a = policy.select(base, 1e6, 1e-4, 1e-5)
        b = policy.select(base.scaled(7.0), 1e6, 1e-4, 1e-5)
        assert a == pytest.approx(b, rel=1e-6)


class TestBatchedSaturationScales:
    """``ttp_saturation_scales`` against the scalar oracle, and the slab
    scan of ``optimal_ttrt`` built on it."""

    @staticmethod
    def paper_scale_set(n=100, seed=3):
        rng = np.random.default_rng(seed)
        periods = rng.uniform(0.01, 0.19, size=n)
        payload_times = rng.uniform(1e-5, 1e-3, size=n)
        return periods, payload_times

    def test_rows_equal_the_scalar_scale(self):
        periods, payload_times = self.paper_scale_set()
        delta, fovhd = 3e-4, 7e-6
        # Far below the feasible range (budget exhausted), inside it, and
        # past P_min/2 (some q < 2).
        ttrts = np.geomspace(1e-5, 0.2, 400)
        got = ttp_saturation_scales(
            ttrts, periods, payload_times, np.full(ttrts.size, periods.size),
            delta, fovhd,
        )
        want = [
            ttp_saturation_scale(t, periods, payload_times, delta, fovhd)
            for t in ttrts
        ]
        assert [s.hex() for s in got.tolist()] == [s.hex() for s in want]
        assert 0.0 in want and any(0.0 < s < math.inf for s in want)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rejects_what_the_scalar_rejects(self):
        with pytest.raises(ConfigurationError, match="TTRT must be positive"):
            ttp_saturation_scales([0.01, 0.0], [0.1], [0.01], [1, 1], 0.0, 0.0)
        with pytest.raises(ConfigurationError, match="delta"):
            ttp_saturation_scales([0.01], [0.1], [0.01], [1], -1.0, 0.0)
        periods = np.array([1e300, 0.1])
        with pytest.raises(MessageSetError) as scalar:
            ttp_saturation_scale(1e-300, periods, [0.01, 0.01], 0.0, 0.0)
        with pytest.raises(MessageSetError) as batched:
            ttp_saturation_scales(
                [1e-300, 0.01], periods, [0.01, 0.01], [2, 2], 0.0, 0.0
            )
        assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_optimum_does_not_depend_on_the_slab_size(self, monkeypatch, seed):
        """The block size bounds memory only: the selected TTRT is
        bit-identical one edge per block, in many blocks (where the bound
        prunes), in one block, and as the scalar oracle's best over every
        edge, unpruned."""
        from repro.analysis import ttrt as ttrt_mod

        periods, payload_times = self.paper_scale_set(n=20, seed=seed)
        args = (periods, payload_times, 3e-4, 7e-6)
        chosen = []
        for slab in (1, 97, 1 << 20):
            monkeypatch.setattr(ttrt_mod, "_SLAB_CANDIDATES", slab)
            chosen.append(optimal_ttrt(*args).hex())
        chosen.append(best_edge(*args)[0].hex())
        assert len(set(chosen)) == 1
