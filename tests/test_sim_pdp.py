"""PDP ring simulator: protocol behaviour and agreement with Theorem 4.1."""

import pytest

from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.analysis.response import pdp_response_bounds
from repro.errors import ConfigurationError
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.network.standards import ieee_802_5_ring, paper_frame_format
from repro.sim.pdp_sim import PDPRingSimulator, PDPSimConfig, TokenWalkModel
from repro.sim.traffic import ArrivalPhasing, PoissonAsyncTraffic
from repro.units import mbps, milliseconds


FRAME = paper_frame_format()


def make_set(specs) -> MessageSet:
    """specs: list of (period_ms, payload_bits)."""
    return MessageSet(
        SynchronousStream(
            period_s=milliseconds(period), payload_bits=payload, station=i
        )
        for i, (period, payload) in enumerate(specs)
    )


def run_sim(message_set, bandwidth_mbps=10.0, duration=0.5, **config_kwargs):
    ring = ieee_802_5_ring(mbps(bandwidth_mbps), n_stations=len(message_set))
    config = PDPSimConfig(**config_kwargs)
    return PDPRingSimulator(ring, FRAME, message_set, config).run(duration)


class TestBasicOperation:
    def test_light_load_completes_everything(self):
        report = run_sim(make_set([(50, 1000), (100, 2000)]), duration=0.5)
        # 10 + 5 messages arrive in 0.5 s.
        assert report.total_completed == 15
        assert report.deadline_safe

    def test_rejects_empty_set(self):
        ring = ieee_802_5_ring(mbps(10), n_stations=2)
        with pytest.raises(ConfigurationError):
            PDPRingSimulator(ring, FRAME, MessageSet([]))

    def test_rejects_station_overflow(self):
        ring = ieee_802_5_ring(mbps(10), n_stations=2)
        workload = MessageSet(
            [SynchronousStream(period_s=0.1, payload_bits=10, station=5)]
        )
        with pytest.raises(ConfigurationError):
            PDPRingSimulator(ring, FRAME, workload)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigurationError):
            run_sim(make_set([(50, 1000)]), duration=0.0)

    def test_async_fills_medium(self):
        """With saturating async traffic the medium never idles."""
        report = run_sim(make_set([(100, 1000)]), duration=0.2)
        occupied = report.sync_busy_time + report.async_busy_time + report.token_time
        assert occupied == pytest.approx(report.duration, rel=0.05)

    def test_poisson_async_shares_the_medium(self, harmonic_set, small_ring_802_5):
        config = PDPSimConfig(
            async_saturating=False,
            async_poisson=PoissonAsyncTraffic(offered_load=0.1, frame_bits=1_000.0),
        )
        report = PDPRingSimulator(
            small_ring_802_5, FRAME, harmonic_set, config
        ).run(0.3)
        assert 0.0 < report.async_utilization < 0.2
        assert report.deadline_safe
        assert report.total_completed > 0

    def test_streams_sharing_a_station_both_complete(self, small_ring_802_5):
        shared = MessageSet(
            [
                SynchronousStream(period_s=0.02, payload_bits=1_000, station=3),
                SynchronousStream(period_s=0.04, payload_bits=1_000, station=3),
            ]
        )
        report = PDPRingSimulator(
            small_ring_802_5, FRAME, shared, PDPSimConfig()
        ).run(0.1)
        assert [s.missed for s in report.streams] == [0, 0]
        assert [s.completed for s in report.streams] == [5, 3]

    def test_without_async_medium_can_idle(self):
        report = run_sim(
            make_set([(100, 1000)]), duration=0.2, async_saturating=False
        )
        occupied = report.sync_busy_time + report.async_busy_time
        assert occupied < report.duration * 0.5
        assert report.deadline_safe


class TestPriorities:
    def test_high_priority_preempts_between_frames(self):
        """A short-period stream's response time is not held behind a long
        low-priority message beyond the single-frame blocking bound."""
        workload = make_set([(10, 512), (200, 200_000)])
        report = run_sim(workload, bandwidth_mbps=10.0, duration=1.0)
        urgent = report.streams[0]
        assert urgent.missed == 0
        ring = ieee_802_5_ring(mbps(10), n_stations=2)
        # Response <= token + own frame + ~2 blocking frames (generous).
        bound = 4 * max(FRAME.frame_time(mbps(10)), ring.theta) + ring.theta
        assert urgent.max_response <= bound

    def test_overload_starves_low_priority_first(self):
        """Under overload the RM discipline sacrifices long periods."""
        # Payload utilization 1.27 at 2 Mbps: infeasible by construction.
        workload = make_set([(10, 8000), (15, 8000), (20, 8000), (200, 160_000)])
        report = run_sim(workload, bandwidth_mbps=2.0, duration=1.0)
        assert not report.deadline_safe
        assert report.streams[0].missed == 0  # highest priority survives
        assert report.streams[3].missed > 0   # lowest priority pays


class TestVariants:
    def test_modified_no_worse_response(self):
        """The modified variant's per-message cost is never higher, so its
        completions dominate on identical workloads."""
        workload = make_set([(20, 20_000), (40, 40_000), (80, 40_000)])
        std = run_sim(workload, duration=0.8, variant=PDPVariant.STANDARD)
        mod = run_sim(workload, duration=0.8, variant=PDPVariant.MODIFIED)
        assert mod.sync_busy_time <= std.sync_busy_time + 1e-9
        assert mod.total_missed <= std.total_missed

    def test_token_walk_models_differ(self):
        workload = make_set([(20, 20_000), (40, 40_000)])
        actual = run_sim(workload, duration=0.4, token_walk=TokenWalkModel.ACTUAL)
        average = run_sim(workload, duration=0.4, token_walk=TokenWalkModel.AVERAGE)
        assert actual.token_time != pytest.approx(average.token_time, rel=1e-3)


class TestPhasing:
    def test_phasings_all_run_clean_when_light(self):
        workload = make_set([(30, 2000), (60, 4000), (90, 4000)])
        for phasing in ArrivalPhasing:
            report = run_sim(workload, duration=0.5, phasing=phasing)
            assert report.deadline_safe, phasing


class TestCompletion:
    @pytest.mark.parametrize("variant", [PDPVariant.STANDARD, PDPVariant.MODIFIED])
    @pytest.mark.parametrize(
        "phasing", [ArrivalPhasing.SIMULTANEOUS, ArrivalPhasing.STAGGERED]
    )
    @pytest.mark.parametrize("saturating", [True, False])
    def test_harmonic_set_completes(
        self, harmonic_set, small_ring_802_5, frame, variant, phasing, saturating
    ):
        config = PDPSimConfig(
            variant=variant,
            phasing=phasing,
            async_saturating=saturating,
            token_walk=TokenWalkModel.ACTUAL,
            collect_responses=True,
        )
        report = PDPRingSimulator(
            small_ring_802_5, frame, harmonic_set, config
        ).run(0.25)
        assert report.total_completed > 0


    @pytest.mark.parametrize("variant", [PDPVariant.STANDARD, PDPVariant.MODIFIED])
    @pytest.mark.parametrize(
        "phasing", [ArrivalPhasing.SIMULTANEOUS, ArrivalPhasing.STAGGERED]
    )
    @pytest.mark.parametrize("saturating", [True, False])
    def test_harmonic_set_within_response_bounds(
        self, harmonic_set, small_ring_802_5, frame, variant, phasing, saturating
    ):
        # Theorem 4.1 charges the average token walk Θ/2 per pass, so the
        # response-time bounds are checked under the AVERAGE walk model.
        analysis = PDPAnalysis(small_ring_802_5, frame, variant)
        bounds = pdp_response_bounds(analysis, harmonic_set)
        assert all(b.meets_deadline for b in bounds)
        config = PDPSimConfig(
            variant=variant,
            phasing=phasing,
            async_saturating=saturating,
            token_walk=TokenWalkModel.AVERAGE,
            collect_responses=True,
        )
        report = PDPRingSimulator(
            small_ring_802_5, frame, harmonic_set, config
        ).run(0.25)
        assert report.deadline_safe
        for stats, bound in zip(report.streams, bounds):
            assert 0.0 < stats.max_response <= bound.bound_s + 1e-9

    def test_sparse_set_loses_no_arrivals(self, small_ring_802_5, frame):
        # One light stream with a long period: the run is mostly idle, and
        # every release in the horizon completes with one frame's occupancy.
        sparse = MessageSet(
            [SynchronousStream(period_s=0.05, payload_bits=512, station=2)]
        )
        config = PDPSimConfig(async_saturating=False, collect_responses=True)
        report = PDPRingSimulator(small_ring_802_5, frame, sparse, config).run(1.0)
        assert report.streams[0].completed == 20
        assert report.streams[0].missed == 0
        frame_time = frame.frame_time(small_ring_802_5.bandwidth_bps)
        assert report.sync_busy_time == pytest.approx(20 * frame_time)


class TestDeterminism:
    @pytest.mark.parametrize("variant", [PDPVariant.STANDARD, PDPVariant.MODIFIED])
    @pytest.mark.parametrize(
        "phasing", [ArrivalPhasing.SIMULTANEOUS, ArrivalPhasing.STAGGERED]
    )
    @pytest.mark.parametrize("saturating", [True, False])
    def test_repeat_run_is_identical(
        self, harmonic_set, small_ring_802_5, frame, variant, phasing, saturating
    ):
        config = PDPSimConfig(
            variant=variant,
            phasing=phasing,
            async_saturating=saturating,
            token_walk=TokenWalkModel.ACTUAL,
            collect_responses=True,
        )

        def run():
            return PDPRingSimulator(
                small_ring_802_5, frame, harmonic_set, config
            ).run(0.25)

        first, second = run(), run()
        assert first == second
        assert first.total_completed > 0
        assert first.deadline_safe


class TestFrameOccupancy:
    def test_short_last_frame_occupies_at_least_theta(self, frame):
        # At 100 Mbps the token-pass cost Θ exceeds a short frame's wire
        # time, so the Section 4.3 case analysis floors its occupancy at Θ.
        ring = ieee_802_5_ring(mbps(100), n_stations=8)
        payload = int(frame.info_bits * 1.5)  # one full and one short frame
        short_wire = ring.transmission_time(
            payload - frame.info_bits + frame.overhead_bits
        )
        assert short_wire < ring.theta < frame.frame_time(ring.bandwidth_bps)
        ms = MessageSet(
            [SynchronousStream(period_s=0.01, payload_bits=payload, station=0)]
        )
        config = PDPSimConfig(async_saturating=False, collect_responses=True)
        report = PDPRingSimulator(ring, frame, ms, config).run(0.095)
        assert report.streams[0].completed == 10
        per_message = frame.frame_time(ring.bandwidth_bps) + ring.theta
        assert report.sync_busy_time == pytest.approx(10 * per_message)

class TestAgreementWithTheorem:
    @pytest.mark.parametrize("variant", list(PDPVariant))
    @pytest.mark.parametrize("bandwidth", [4.0, 16.0, 100.0])
    def test_schedulable_sets_never_miss(self, variant, bandwidth):
        """Theorem 4.1-accepted sets must be clean in adversarial sim."""
        workload = make_set(
            [(20, 3000), (40, 8000), (60, 8000), (120, 16_000)]
        )
        ring = ieee_802_5_ring(mbps(bandwidth), n_stations=len(workload))
        analysis = PDPAnalysis(ring, FRAME, variant)
        if not analysis.is_schedulable(workload):
            pytest.skip("not schedulable at this bandwidth; nothing to check")
        simulator = PDPRingSimulator(
            ring,
            FRAME,
            workload,
            PDPSimConfig(
                variant=variant,
                phasing=ArrivalPhasing.SIMULTANEOUS,
                async_saturating=True,
                token_walk=TokenWalkModel.AVERAGE,
            ),
        )
        report = simulator.run(0.6)
        assert report.deadline_safe
        assert report.total_completed > 0
