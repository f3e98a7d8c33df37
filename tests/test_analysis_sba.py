"""SBA scheme library: equation (7) fixed point, scheme algebra, searches."""

import numpy as np
import pytest

from repro.analysis.sba import (
    ALL_SCHEMES,
    EqualPartitionScheme,
    FullLengthScheme,
    LocalScheme,
    NormalizedProportionalScheme,
    ProportionalScheme,
    allocation_schedulable,
    augmented_length_fixed_point,
    sba_breakdown_scale,
)
from repro.analysis.ttp import local_scheme_allocation
from repro.errors import AllocationError, ConfigurationError
from repro.experiments.config import PaperParameters
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.units import mbps


BW = 1e6
FOVHD = 112e-6
DELTA = 5e-4
TTRT = 0.010


def make_set(payloads=(2000, 3000), periods=(0.050, 0.100)) -> MessageSet:
    return MessageSet(
        SynchronousStream(period_s=p, payload_bits=c, station=i)
        for i, (c, p) in enumerate(zip(payloads, periods))
    )


class TestFixedPoint:
    def test_zero_payload(self):
        assert augmented_length_fixed_point(0.0, 0.01, 0.001) == 0.0

    def test_no_overhead(self):
        assert augmented_length_fixed_point(0.005, 0.01, 0.0) == 0.005

    def test_single_frame(self):
        # C = 4 ms fits one h = 10 ms visit: C' = C + F_ovhd.
        assert augmented_length_fixed_point(0.004, 0.010, 0.0005) == pytest.approx(
            0.0045
        )

    def test_two_frames(self):
        # C = 15 ms, h = 10 ms: C' = 15 + 2*0.5 = 16 ms (2 visits).
        assert augmented_length_fixed_point(0.015, 0.010, 0.0005) == pytest.approx(
            0.016
        )

    def test_overhead_pushes_extra_frame(self):
        # C = 9.8 ms, h = 10, F_ovhd = 0.5: C+1 frame = 10.3 > 10 -> 2 frames
        # -> C' = 9.8 + 1.0 = 10.8.
        assert augmented_length_fixed_point(0.0098, 0.010, 0.0005) == pytest.approx(
            0.0108
        )

    def test_budget_below_overhead_is_infinite(self):
        assert augmented_length_fixed_point(0.001, 0.0004, 0.0005) == float("inf")

    def test_rejects_negative_payload(self):
        with pytest.raises(ConfigurationError):
            augmented_length_fixed_point(-1.0, 0.01, 0.001)


class TestLocalScheme:
    def test_matches_ttp_module(self):
        message_set = make_set()
        from_scheme = LocalScheme().allocate(message_set, TTRT, BW, FOVHD, DELTA)
        direct = local_scheme_allocation(message_set, TTRT, BW, FOVHD, DELTA)
        assert from_scheme.bandwidths_s == direct.bandwidths_s

    def test_schedulable_when_light(self):
        alloc = LocalScheme().allocate(make_set(), TTRT, BW, FOVHD, DELTA)
        assert allocation_schedulable(alloc)


class TestFullLengthScheme:
    def test_budget_is_whole_message(self):
        alloc = FullLengthScheme().allocate(make_set(), TTRT, BW, FOVHD, DELTA)
        assert alloc.bandwidths_s[0] == pytest.approx(0.002 + FOVHD)

    def test_zero_payload_gets_zero(self):
        alloc = FullLengthScheme().allocate(
            make_set(payloads=(0, 1000)), TTRT, BW, FOVHD, DELTA
        )
        assert alloc.bandwidths_s[0] == 0.0

    def test_deadline_ok_when_q_at_least_two(self):
        alloc = FullLengthScheme().allocate(make_set(), TTRT, BW, FOVHD, DELTA)
        assert alloc.satisfies_deadline_constraint()


class TestProportionalScheme:
    def test_budget_formula(self):
        alloc = ProportionalScheme().allocate(make_set(), TTRT, BW, FOVHD, DELTA)
        # h_0 = (C/P) * TTRT = (0.002/0.050)*0.010 = 0.0004.
        assert alloc.bandwidths_s[0] == pytest.approx(0.0004)

    def test_small_loads_fail_deadline(self):
        """The classic pathology: tiny h_i cannot carry frame overhead."""
        tiny = make_set(payloads=(20, 30))
        alloc = ProportionalScheme().allocate(tiny, TTRT, BW, FOVHD, DELTA)
        assert not alloc.satisfies_deadline_constraint()

    def test_deadline_unsatisfiable_for_any_positive_load(self):
        """Under the worst-case availability bound X_i = (q_i - 1) h_i the
        proportional scheme can never guarantee a deadline: since
        (q_i - 1)·TTRT < P_i, the allocation h_i = U_i·TTRT provides
        X_i < C_i — the literature's 'worst-case achievable utilization 0'
        result for this scheme."""
        scheme = ProportionalScheme()
        for scale in (0.001, 0.1, 1.0, 10.0):
            alloc = scheme.allocate(
                make_set().scaled(scale), TTRT, BW, FOVHD, DELTA
            )
            assert not alloc.satisfies_deadline_constraint()

    def test_breakdown_scale_is_zero(self):
        """Consequence: its breakdown scale is 0 on any positive workload."""
        assert (
            sba_breakdown_scale(
                ProportionalScheme(), make_set(), TTRT, BW, FOVHD, DELTA
            )
            == 0.0
        )


class TestNormalizedProportionalScheme:
    def test_fills_budget_exactly(self):
        alloc = NormalizedProportionalScheme().allocate(
            make_set(), TTRT, BW, FOVHD, DELTA
        )
        assert alloc.total_bandwidth_s == pytest.approx(TTRT - DELTA)
        assert alloc.satisfies_protocol_constraint()

    def test_rejects_zero_utilization(self):
        with pytest.raises(AllocationError):
            NormalizedProportionalScheme().allocate(
                make_set(payloads=(0, 0)), TTRT, BW, FOVHD, DELTA
            )

    def test_rejects_no_budget(self):
        with pytest.raises(AllocationError):
            NormalizedProportionalScheme().allocate(
                make_set(), 0.0004, BW, FOVHD, 0.0005
            )


class TestEqualPartitionScheme:
    def test_even_split(self):
        alloc = EqualPartitionScheme().allocate(make_set(), TTRT, BW, FOVHD, DELTA)
        share = (TTRT - DELTA) / 2
        assert alloc.bandwidths_s == (pytest.approx(share), pytest.approx(share))

    def test_protocol_constraint_by_construction(self):
        alloc = EqualPartitionScheme().allocate(make_set(), TTRT, BW, FOVHD, DELTA)
        assert alloc.satisfies_protocol_constraint()


class TestBreakdownScale:
    def test_local_scheme_positive(self):
        scale = sba_breakdown_scale(
            LocalScheme(), make_set(), TTRT, BW, FOVHD, DELTA
        )
        assert scale > 0

    def test_scale_is_feasible_boundary(self):
        scheme = LocalScheme()
        message_set = make_set()
        scale = sba_breakdown_scale(scheme, message_set, TTRT, BW, FOVHD, DELTA)
        at_boundary = scheme.allocate(
            message_set.scaled(scale * 0.999), TTRT, BW, FOVHD, DELTA
        )
        assert allocation_schedulable(at_boundary)

    def test_zero_payload_set(self):
        assert (
            sba_breakdown_scale(
                LocalScheme(), make_set(payloads=(0, 0)), TTRT, BW, FOVHD, DELTA
            )
            == 0.0
        )

    def test_all_schemes_produce_finite_scales(self):
        message_set = make_set()
        for scheme in ALL_SCHEMES:
            scale = sba_breakdown_scale(
                scheme, message_set, TTRT, BW, FOVHD, DELTA
            )
            assert scale >= 0.0
            assert scale != float("inf")

    def test_local_beats_equal_partition_on_skewed_load(self):
        """Unequal demands waste the equal split; the local scheme adapts."""
        skewed = make_set(payloads=(500, 40_000), periods=(0.050, 0.100))
        local = sba_breakdown_scale(LocalScheme(), skewed, TTRT, BW, FOVHD, DELTA)
        equal = sba_breakdown_scale(
            EqualPartitionScheme(), skewed, TTRT, BW, FOVHD, DELTA
        )
        assert local >= equal

    def test_local_scheme_clears_one_third_on_sampled_sets(self):
        """At a near-ideal 1 Gbps every sampled set's local-scheme
        breakdown utilization clears the 33% bound that holds for all
        sets."""
        params = PaperParameters().scaled_down(n_stations=20, monte_carlo_sets=10)
        analysis = params.ttp_analysis(1000.0)
        bandwidth = mbps(1000.0)
        rng = np.random.default_rng(params.seed)
        for message_set in params.sampler().sample_many(rng, params.monte_carlo_sets):
            scale = sba_breakdown_scale(
                LocalScheme(),
                message_set,
                analysis.select_ttrt(message_set),
                bandwidth,
                analysis.frame_overhead_time,
                analysis.delta,
            )
            assert scale > 0
            assert message_set.scaled(scale).utilization(bandwidth) >= 0.33
