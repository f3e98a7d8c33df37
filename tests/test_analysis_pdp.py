"""Theorem 4.1: augmented lengths, blocking, and the PDP schedulability test.

The hand-computed cases use synthetic rings with zero propagation distance
so that ``Θ`` is an exact rational number of bit-times.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.pdp import (
    PDPAnalysis,
    PDPPopulation,
    PDPVariant,
    pdp_augmented_length,
    pdp_blocking_time,
)
from repro.analysis.rm import ExactRMTest, response_time_analysis
from repro.errors import MessageSetError
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.network.frames import FrameFormat
from repro.network.ring import RingNetwork
from repro.network.standards import ieee_802_5_ring, paper_frame_format
from repro.obs import metrics
from repro.units import mbps


def make_ring(latency_bits_per_station: float, bandwidth: float = 1e6) -> RingNetwork:
    """A 4-station ring with zero propagation: Θ is exactly rational."""
    return RingNetwork(
        n_stations=4,
        station_spacing_m=0.0,
        station_bit_delay=latency_bits_per_station,
        token_bits=24.0,
        bandwidth_bps=bandwidth,
        velocity_factor=0.75,
    )


FRAME = FrameFormat(info_bits=512, overhead_bits=112)
US = 1e-6  # one microsecond at 1 Mbps == one bit-time


class TestBlocking:
    def test_low_bandwidth_frame_dominates(self):
        ring = make_ring(25.0)  # Θ = 124 bit-times < F = 624
        assert pdp_blocking_time(ring, FRAME) == pytest.approx(2 * 624 * US)

    def test_high_latency_theta_dominates(self):
        ring = make_ring(200.0)  # Θ = 824 bit-times > F = 624
        assert pdp_blocking_time(ring, FRAME) == pytest.approx(2 * 824 * US)


class TestAugmentedLengthLowBandwidth:
    """F > Θ regime: ring with Θ = 124 µs, F = 624 µs at 1 Mbps."""

    RING = make_ring(25.0)

    def test_zero_payload_is_free(self):
        for variant in PDPVariant:
            assert pdp_augmented_length(0.0, self.RING, FRAME, variant) == 0.0

    def test_standard_two_frames(self):
        # 1000 bits: L=1, K=2; last chunk = 1000-512+112 = 600 bits > Θ.
        # C' = 1*624 + 2*(124/2) + 600 = 1348 µs.
        value = pdp_augmented_length(1000.0, self.RING, FRAME, PDPVariant.STANDARD)
        assert value == pytest.approx(1348 * US)

    def test_modified_two_frames(self):
        # Token paid once: C' = 624 + 62 + 600 = 1286 µs.
        value = pdp_augmented_length(1000.0, self.RING, FRAME, PDPVariant.MODIFIED)
        assert value == pytest.approx(1286 * US)

    def test_tiny_last_chunk_floors_at_theta(self):
        # 513 bits: last chunk = 1+112 = 113 bits < Θ = 124 -> floor at Θ.
        # standard: 624 + 2*62 + 124 = 872 µs.
        value = pdp_augmented_length(513.0, self.RING, FRAME, PDPVariant.STANDARD)
        assert value == pytest.approx(872 * US)

    def test_exact_full_frames_have_no_last_term(self):
        # 1024 bits = exactly 2 frames: standard C' = 2*624 + 2*62 = 1372.
        value = pdp_augmented_length(1024.0, self.RING, FRAME, PDPVariant.STANDARD)
        assert value == pytest.approx(1372 * US)

    def test_single_short_frame(self):
        # 100 bits: L=0, K=1; chunk = 212 > Θ: standard C' = 62 + 212 = 274.
        value = pdp_augmented_length(100.0, self.RING, FRAME, PDPVariant.STANDARD)
        assert value == pytest.approx(274 * US)


class TestAugmentedLengthHighLatency:
    """F <= Θ regime: ring with Θ = 824 µs, F = 624 µs at 1 Mbps."""

    RING = make_ring(200.0)

    def test_standard(self):
        # 1000 bits -> K=2: C' = 2*824 + 2*412 = 2472 µs.
        value = pdp_augmented_length(1000.0, self.RING, FRAME, PDPVariant.STANDARD)
        assert value == pytest.approx(2472 * US)

    def test_modified(self):
        # C' = 2*824 + 412 = 2060 µs.
        value = pdp_augmented_length(1000.0, self.RING, FRAME, PDPVariant.MODIFIED)
        assert value == pytest.approx(2060 * US)

    def test_single_frame_variants_coincide(self):
        # K=1: both variants pay one Θ + Θ/2.
        std = pdp_augmented_length(100.0, self.RING, FRAME, PDPVariant.STANDARD)
        mod = pdp_augmented_length(100.0, self.RING, FRAME, PDPVariant.MODIFIED)
        assert std == pytest.approx(mod) == pytest.approx((824 + 412) * US)


class TestAugmentedLengthProperties:
    def test_rejects_negative_payload(self):
        with pytest.raises(MessageSetError):
            pdp_augmented_length(-1.0, make_ring(25.0), FRAME, PDPVariant.STANDARD)

    @settings(max_examples=150, deadline=None)
    @given(
        payload=st.floats(min_value=0.0, max_value=1e6),
        bump=st.floats(min_value=0.0, max_value=1e5),
        delay=st.floats(min_value=0.0, max_value=500.0),
        bandwidth=st.floats(min_value=1e5, max_value=1e9),
    )
    def test_monotone_in_payload(self, payload, bump, delay, bandwidth):
        """C'_i never decreases as the message grows — the property that
        makes the saturation bisection valid."""
        ring = make_ring(delay, bandwidth)
        for variant in PDPVariant:
            assert pdp_augmented_length(
                payload + bump, ring, FRAME, variant
            ) >= pdp_augmented_length(payload, ring, FRAME, variant) - 1e-15

    @settings(max_examples=100, deadline=None)
    @given(
        payload=st.floats(min_value=1.0, max_value=1e6),
        delay=st.floats(min_value=0.0, max_value=500.0),
        bandwidth=st.floats(min_value=1e5, max_value=1e9),
    )
    def test_modified_never_worse_than_standard(self, payload, delay, bandwidth):
        ring = make_ring(delay, bandwidth)
        std = pdp_augmented_length(payload, ring, FRAME, PDPVariant.STANDARD)
        mod = pdp_augmented_length(payload, ring, FRAME, PDPVariant.MODIFIED)
        assert mod <= std + 1e-15

    @settings(max_examples=100, deadline=None)
    @given(payload=st.floats(min_value=1.0, max_value=1e6))
    def test_augmented_exceeds_raw(self, payload):
        """Overheads only ever add: C'_i >= C_i."""
        ring = make_ring(25.0)
        raw = payload / ring.bandwidth_bps
        assert pdp_augmented_length(
            payload, ring, FRAME, PDPVariant.MODIFIED
        ) >= raw - 1e-15


class TestPDPAnalysis:
    def make_analysis(self, variant=PDPVariant.STANDARD) -> PDPAnalysis:
        return PDPAnalysis(make_ring(25.0), FRAME, variant)

    def make_set(self, payloads, periods) -> MessageSet:
        return MessageSet(
            SynchronousStream(period_s=p, payload_bits=c, station=i)
            for i, (c, p) in enumerate(zip(payloads, periods))
        )

    def test_empty_set_schedulable(self):
        assert self.make_analysis().is_schedulable(MessageSet([]))

    def test_light_set_schedulable(self):
        message_set = self.make_set([500, 500], [0.1, 0.2])
        assert self.make_analysis().is_schedulable(message_set)

    def test_overloaded_set_unschedulable(self):
        message_set = self.make_set([60_000, 60_000], [0.1, 0.1])
        assert not self.make_analysis().is_schedulable(message_set)

    def test_analyze_reports_per_stream(self):
        message_set = self.make_set([500, 500], [0.1, 0.2])
        result = self.make_analysis().analyze(message_set)
        assert result.schedulable
        assert len(result.details) == 2
        assert result.worst_ratio < 1.0
        assert len(result.augmented_lengths) == 2

    def test_analyze_handles_unsorted_input(self):
        """The analysis must RM-sort internally."""
        message_set = self.make_set([500, 500], [0.2, 0.1])
        result = self.make_analysis().analyze(message_set)
        # Details come back in RM order: shortest period first.
        assert result.details[0].critical_point <= result.details[1].critical_point

    def test_matches_manual_rta(self):
        """Theorem 4.1 verdict == RTA over the augmented lengths + blocking."""
        analysis = self.make_analysis(PDPVariant.MODIFIED)
        message_set = self.make_set([2000, 3000, 9000], [0.02, 0.05, 0.1])
        ordered = message_set.rate_monotonic()
        lengths = analysis.augmented_lengths(ordered)
        responses = response_time_analysis(
            list(lengths), list(ordered.periods), analysis.blocking
        )
        rta_ok = all(r <= p for r, p in zip(responses, ordered.periods))
        assert analysis.is_schedulable(message_set) == rta_ok

    @pytest.mark.parametrize(
        "variant", [PDPVariant.STANDARD, PDPVariant.MODIFIED]
    )
    def test_analyze_large_tied_set_matches_rta(self, variant):
        """A 600-stream set over a four-period catalogue (heavy ties, so
        the exact test judges per-period group sums) gets the per-stream
        verdicts of response-time analysis over its augmented lengths."""
        rng = np.random.default_rng(5)
        periods = rng.choice([0.05, 0.1, 0.2, 0.4], size=600)
        payloads = rng.uniform(10.0, 200.0, size=600)
        analysis = self.make_analysis(variant)
        message_set = self.make_set(payloads.tolist(), periods.tolist())
        ordered = message_set.rate_monotonic()
        responses = response_time_analysis(
            list(analysis.augmented_lengths(ordered)),
            list(ordered.periods),
            analysis.blocking,
        )
        result = analysis.analyze(message_set)
        assert len(result.details) == 600
        assert result.schedulable == all(
            r <= p for r, p in zip(responses, ordered.periods)
        )
        assert result.schedulable == analysis.is_schedulable(message_set)

    def test_cache_is_bounded(self):
        analysis = self.make_analysis()
        for i in range(10):
            message_set = self.make_set([10.0], [0.01 * (i + 1)])
            analysis.is_schedulable(message_set)
        assert len(analysis._test_cache) <= PDPAnalysis._CACHE_SIZE

    def test_modified_schedules_superset_of_standard(self):
        """Anything the standard protocol guarantees, the modified one does."""
        std = self.make_analysis(PDPVariant.STANDARD)
        mod = self.make_analysis(PDPVariant.MODIFIED)
        for scale in (0.5, 1.0, 2.0, 4.0, 8.0):
            message_set = self.make_set(
                [1000 * scale, 2000 * scale], [0.02, 0.05]
            )
            if std.is_schedulable(message_set):
                assert mod.is_schedulable(message_set)


class TestSharedKernels:
    """Period vectors with the same distinct periods share one point kernel."""

    DISTINCT = (0.02, 0.05, 0.1)

    def make_analysis(self, variant=PDPVariant.STANDARD, **kwargs) -> PDPAnalysis:
        return PDPAnalysis(make_ring(25.0), FRAME, variant, **kwargs)

    def make_set(self, counts, distinct=DISTINCT) -> MessageSet:
        """``counts[k]`` streams of period ``distinct[k]``, in mixed order."""
        periods = [p for p, k in zip(distinct, counts) for _ in range(k)]
        return MessageSet(
            SynchronousStream(period_s=p, payload_bits=500.0 + 10 * i, station=i)
            for i, p in enumerate(reversed(periods))
        )

    def structure(self, analysis, counts, distinct=DISTINCT) -> ExactRMTest:
        return analysis._test_for(
            self.make_set(counts, distinct).rate_monotonic()
        )

    def test_multiplicities_share_one_kernel(self):
        analysis = self.make_analysis()
        tests = [
            self.structure(analysis, counts)
            for counts in ((1, 1, 1), (2, 1, 1), (1, 3, 2), (4, 1, 4))
        ]
        assert len({id(test) for test in tests}) == 4
        assert all(test._kernel is tests[0]._kernel for test in tests)
        other = self.structure(analysis, (2, 1, 1), (0.02, 0.05, 0.2))
        assert other._kernel is not tests[0]._kernel

    def test_shared_kernel_answers_like_a_cold_test(self):
        """Verdicts, batch rows, details and load ratios are bitwise those
        of an ``ExactRMTest`` built from scratch, across the boundary."""
        analysis = self.make_analysis()
        rng = np.random.default_rng(11)
        blocking = 0.0005
        self.structure(analysis, (1, 1, 1))  # warm the distinct kernel
        for counts in ((2, 1, 1), (1, 3, 2), (4, 4, 4), (1, 1, 5)):
            ordered = self.make_set(counts).rate_monotonic()
            shared = analysis._test_for(ordered)
            cold = ExactRMTest(ordered.periods)
            assert shared._kernel is not cold._kernel
            periods = np.asarray(ordered.periods)
            rows = rng.uniform(0.1, 1.0, size=(24, periods.size))
            loads = (rows / periods).sum(axis=1)
            rows *= (np.linspace(0.4, 1.4, 24) / loads)[:, None]
            batch = shared.is_schedulable_batch(rows, blocking)
            assert np.array_equal(batch, cold.is_schedulable_batch(rows, blocking))
            assert 0 < batch.sum() < batch.size
            for row in rows:
                assert shared.is_schedulable(row, blocking) == cold.is_schedulable(
                    row, blocking
                )
                assert shared.details(row, blocking) == cold.details(row, blocking)
                for i in range(periods.size):
                    got = shared.stream_load_ratio(i, row, blocking)
                    want = cold.stream_load_ratio(i, row, blocking)
                    assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_lru_bound_holds_with_kernel_entries(self):
        analysis = self.make_analysis(cache_size=3)
        catalogues = [self.DISTINCT, (0.02, 0.05, 0.2), (0.01, 0.05, 0.1)]
        for _ in range(3):
            for distinct in catalogues:
                for counts in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
                    ordered = self.make_set(counts, distinct).rate_monotonic()
                    analysis.is_schedulable(ordered)
                    assert len(analysis._test_cache) <= 3
                    # The borrowed kernel's entry sits right behind its user.
                    assert list(analysis._test_cache)[-2:] == [
                        tuple(sorted(set(ordered.periods))),
                        ordered.periods,
                    ]

    def test_kernel_builds_are_counted(self):
        metrics.reset()
        analysis = self.make_analysis()
        for counts in ((2, 1, 1), (1, 3, 2), (1, 1, 1), (2, 1, 1)):
            analysis.is_schedulable(self.make_set(counts))
        snap = metrics.snapshot("pdp.exact_cache")
        assert snap["pdp.exact_cache.kernel_builds"]["value"] == 1
        assert snap["pdp.exact_cache.misses"]["value"] == 2
        assert snap["pdp.exact_cache.hits"]["value"] == 2
        analysis.is_schedulable(self.make_set((2, 1, 1), (0.02, 0.05, 0.2)))
        snap = metrics.snapshot("pdp.exact_cache")
        assert snap["pdp.exact_cache.kernel_builds"]["value"] == 2


class TestPDPPopulation:
    """Add-one verdicts on the admitted-population snapshot equal a fresh
    analysis judging ``MessageSet([*admitted, candidate])``."""

    BANDWIDTH = mbps(4.0)

    def analysis(self, variant):
        return PDPAnalysis(
            ieee_802_5_ring(self.BANDWIDTH, n_stations=64),
            paper_frame_format(),
            variant,
        )

    def admitted(self):
        """Periods 8, 16 (three streams, mid-sized payloads) and 32 ms."""
        return [
            SynchronousStream(period_s=period, payload_bits=bits, station=i)
            for i, (period, bits) in enumerate(
                [
                    (0.008, 3000.0),
                    (0.016, 4000.0),
                    (0.016, 6000.0),
                    (0.016, 8000.0),
                    (0.032, 5000.0),
                ]
            )
        ]

    def sweep(self, period_s, lo, hi, n=40, station=40):
        """Candidates of one period with payloads from ``lo`` to ``hi``."""
        return [
            SynchronousStream(period_s=period_s, payload_bits=bits, station=station)
            for bits in np.linspace(lo, hi, n)
        ]

    def assert_fresh(self, variant, admitted, candidates):
        population = PDPPopulation(self.analysis(variant))
        for stream in admitted:
            population.insert(stream)
        assert list(population.streams) == sorted(admitted)
        want = [
            self.analysis(variant).is_schedulable(MessageSet([*admitted, c]))
            for c in candidates
        ]
        assert population.verdicts(candidates) == want
        assert [population.verdicts([c])[0] for c in candidates] == want
        return want

    @pytest.mark.parametrize("variant", list(PDPVariant))
    @pytest.mark.parametrize(
        "lo, hi",
        [(100.0, 3999.0), (4001.0, 5999.0), (8001.0, 60_000.0)],
        ids=["first-in-tie", "middle-of-tie", "last-in-tie"],
    )
    def test_candidate_inside_a_tied_period_group(self, variant, lo, hi):
        admitted = self.admitted()
        want = self.assert_fresh(variant, admitted, self.sweep(0.016, lo, hi))
        if lo > 8000.0:
            assert True in want and False in want

    @pytest.mark.parametrize("variant", list(PDPVariant))
    @pytest.mark.parametrize("period_s", [0.004, 0.012, 0.064])
    def test_period_not_yet_admitted(self, variant, period_s):
        want = self.assert_fresh(
            variant,
            self.admitted(),
            self.sweep(period_s, 100.0, 0.9 * period_s * self.BANDWIDTH),
        )
        assert True in want and False in want

    @pytest.mark.parametrize("variant", list(PDPVariant))
    def test_empty_population(self, variant):
        want = self.assert_fresh(
            variant, [], self.sweep(0.016, 100.0, 1.2 * 0.016 * self.BANDWIDTH)
        )
        assert True in want and False in want

    @pytest.mark.parametrize("variant", list(PDPVariant))
    def test_after_releases(self, variant):
        admitted = self.admitted()
        population = PDPPopulation(self.analysis(variant))
        for stream in admitted:
            population.insert(stream)
        # Release the middle of the tie, then the lone 8 ms stream.
        for gone in (admitted.pop(2), admitted.pop(0)):
            population.remove(gone)
        candidates = [
            *self.sweep(0.016, 100.0, 60_000.0, n=30),
            *self.sweep(0.008, 100.0, 30_000.0, n=30),
        ]
        want = [
            self.analysis(variant).is_schedulable(MessageSet([*admitted, c]))
            for c in candidates
        ]
        assert list(population.streams) == sorted(admitted)
        assert population.verdicts(candidates) == want
        assert True in want and False in want

    def test_remove_unknown_stream_raises(self):
        population = PDPPopulation(self.analysis(PDPVariant.MODIFIED))
        population.insert(SynchronousStream(period_s=0.016, payload_bits=1.0))
        with pytest.raises(MessageSetError):
            population.remove(SynchronousStream(period_s=0.016, payload_bits=2.0))
