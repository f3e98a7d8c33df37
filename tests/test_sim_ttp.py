"""TTP ring simulator: FDDI timer rules, Johnson's bound, Theorem 5.1."""

import pytest

from repro.analysis.response import ttp_response_bounds
from repro.analysis.ttp import TTPAnalysis
from repro.analysis.ttrt import FixedTTRT
from repro.errors import ConfigurationError
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.network.standards import fddi_ring, paper_frame_format
from repro.sim.traffic import ArrivalPhasing, PoissonAsyncTraffic
from repro.sim.ttp_sim import TTPRingSimulator, TTPSimConfig
from repro.units import mbps, milliseconds


FRAME = paper_frame_format()


def make_set(specs) -> MessageSet:
    return MessageSet(
        SynchronousStream(
            period_s=milliseconds(period), payload_bits=payload, station=i
        )
        for i, (period, payload) in enumerate(specs)
    )


def build(message_set, bandwidth_mbps=100.0, policy=None, **config_kwargs):
    ring = fddi_ring(mbps(bandwidth_mbps), n_stations=len(message_set))
    analysis = TTPAnalysis(ring, FRAME, policy)
    allocation = analysis.allocate(message_set)
    simulator = TTPRingSimulator(
        ring, FRAME, message_set, allocation, TTPSimConfig(**config_kwargs)
    )
    return analysis, allocation, simulator


class TestConstruction:
    def test_rejects_empty_set(self):
        ring = fddi_ring(mbps(100), n_stations=4)
        analysis = TTPAnalysis(ring, FRAME)
        workload = make_set([(50, 1000)])
        allocation = analysis.allocate(workload)
        with pytest.raises(ConfigurationError):
            TTPRingSimulator(ring, FRAME, MessageSet([]), allocation)

    def test_rejects_allocation_mismatch(self):
        ring = fddi_ring(mbps(100), n_stations=4)
        analysis = TTPAnalysis(ring, FRAME)
        allocation = analysis.allocate(make_set([(50, 1000)]))
        with pytest.raises(ConfigurationError):
            TTPRingSimulator(
                ring, FRAME, make_set([(50, 1000), (60, 1000)]), allocation
            )

    def test_rejects_duplicate_stations(self):
        ring = fddi_ring(mbps(100), n_stations=4)
        analysis = TTPAnalysis(ring, FRAME)
        workload = MessageSet(
            [
                SynchronousStream(period_s=0.05, payload_bits=100, station=1),
                SynchronousStream(period_s=0.06, payload_bits=100, station=1),
            ]
        )
        allocation = analysis.allocate(workload)
        with pytest.raises(ConfigurationError):
            TTPRingSimulator(ring, FRAME, workload, allocation)

    def test_rejects_nonpositive_duration(self):
        _, _, simulator = build(make_set([(50, 1000)]))
        with pytest.raises(ConfigurationError):
            simulator.run(0.0)


class TestProtocolBehaviour:
    def test_light_load_completes_everything(self):
        _, _, simulator = build(make_set([(50, 8000), (100, 16_000)]))
        report = simulator.run(0.5)
        assert report.total_completed == 10 + 5
        assert report.deadline_safe

    def test_johnsons_bound_holds(self):
        """Max token rotation never exceeds 2 TTRT (Sevcik & Johnson)."""
        workload = make_set([(40, 20_000), (60, 40_000), (80, 40_000), (100, 60_000)])
        _, allocation, simulator = build(workload, async_saturating=True)
        report = simulator.run(1.0)
        assert report.max_rotation <= 2 * allocation.ttrt_s + 1e-9

    def test_average_rotation_at_most_ttrt(self):
        """Steady-state mean rotation time cannot exceed TTRT."""
        workload = make_set([(40, 20_000), (60, 40_000), (80, 40_000)])
        _, allocation, simulator = build(workload, async_saturating=True)
        report = simulator.run(1.0)
        means = [r.mean for r in report.rotations if r.count > 2]
        assert means
        for mean in means:
            assert mean <= allocation.ttrt_s * 1.01

    def test_async_only_with_earliness(self):
        """Without async traffic the token spins much faster than TTRT."""
        workload = make_set([(50, 1000)])
        _, allocation, simulator = build(workload, async_saturating=False)
        report = simulator.run(0.5)
        fast_rotations = [r.mean for r in report.rotations if r.count > 0]
        assert min(fast_rotations) < allocation.ttrt_s / 2

    def test_async_utilization_positive_when_saturating(self):
        _, _, simulator = build(make_set([(50, 1000)]), async_saturating=True)
        report = simulator.run(0.5)
        assert report.async_utilization > 0.3

    def test_rotation_tracking_can_be_disabled(self):
        _, _, simulator = build(
            make_set([(50, 1000)]), track_rotations=False
        )
        report = simulator.run(0.2)
        assert report.rotations == []

    def test_sync_chunked_across_visits(self):
        """A message far larger than h_i needs many visits yet completes."""
        workload = make_set([(100, 200_000), (100, 1000)])
        _, allocation, simulator = build(workload)
        h_0 = allocation.bandwidths_s[0]
        message_time = 200_000 / mbps(100)
        assert message_time > 3 * h_0  # genuinely chunked
        report = simulator.run(0.5)
        assert report.streams[0].missed == 0
        assert report.streams[0].completed >= 4


    def test_sparse_ring_completes(self, small_ring_fddi, frame):
        # One light stream on a 100 Mbps ring: almost every rotation is
        # empty, and the stream's messages still complete.
        sparse = MessageSet(
            [SynchronousStream(period_s=0.02, payload_bits=4_096, station=0)]
        )
        allocation = TTPAnalysis(small_ring_fddi, frame).analyze(sparse).allocation
        assert allocation is not None
        config = TTPSimConfig(async_saturating=False, collect_responses=True)
        report = TTPRingSimulator(
            small_ring_fddi, frame, sparse, allocation, config
        ).run(0.5)
        assert report.total_completed > 0


    def test_poisson_async_shares_the_medium(self, harmonic_set, small_ring_fddi):
        allocation = TTPAnalysis(small_ring_fddi, FRAME).allocate(harmonic_set)
        config = TTPSimConfig(
            async_saturating=False,
            async_poisson=PoissonAsyncTraffic(offered_load=0.1, frame_bits=1_000.0),
        )
        report = TTPRingSimulator(
            small_ring_fddi, FRAME, harmonic_set, allocation, config
        ).run(0.3)
        assert 0.0 < report.async_utilization < 0.2
        assert report.deadline_safe
        assert report.total_completed > 0


class TestCompletion:
    @pytest.mark.parametrize(
        "phasing", [ArrivalPhasing.SIMULTANEOUS, ArrivalPhasing.STAGGERED]
    )
    @pytest.mark.parametrize("saturating", [True, False])
    def test_harmonic_set_within_response_bounds(
        self, harmonic_set, small_ring_fddi, frame, phasing, saturating
    ):
        analysis = TTPAnalysis(small_ring_fddi, frame)
        result = analysis.analyze(harmonic_set)
        assert result.schedulable
        allocation = result.allocation
        bounds = ttp_response_bounds(analysis, harmonic_set, allocation)
        config = TTPSimConfig(
            phasing=phasing, async_saturating=saturating, collect_responses=True
        )
        report = TTPRingSimulator(
            small_ring_fddi, frame, harmonic_set, allocation, config
        ).run(0.25)
        assert report.deadline_safe
        assert report.total_completed > 0
        for stats, bound in zip(report.streams, bounds):
            assert stats.max_response <= bound.bound_s + 1e-9
        assert report.max_rotation <= 2.0 * allocation.ttrt_s + 1e-12


class TestDeterminism:
    @pytest.mark.parametrize(
        "phasing", [ArrivalPhasing.SIMULTANEOUS, ArrivalPhasing.STAGGERED]
    )
    @pytest.mark.parametrize("saturating", [True, False])
    def test_repeat_run_is_identical(
        self, harmonic_set, small_ring_fddi, frame, phasing, saturating
    ):
        allocation = TTPAnalysis(small_ring_fddi, frame).allocate(harmonic_set)
        config = TTPSimConfig(
            phasing=phasing, async_saturating=saturating, collect_responses=True
        )

        def run():
            return TTPRingSimulator(
                small_ring_fddi, frame, harmonic_set, allocation, config
            ).run(0.25)

        first, second = run(), run()
        assert first == second
        assert first.total_completed > 0

class TestOverload:
    def test_protocol_constraint_violation_misses(self):
        """Grossly over-subscribed synchronous load must miss deadlines."""
        workload = make_set(
            [(20, 600_000), (22, 600_000), (24, 600_000), (26, 600_000)]
        )
        ring = fddi_ring(mbps(100), n_stations=4)
        analysis = TTPAnalysis(ring, FRAME)
        result = analysis.analyze(workload)
        assert not result.schedulable
        assert result.allocation is not None
        simulator = TTPRingSimulator(
            ring, FRAME, workload, result.allocation, TTPSimConfig()
        )
        report = simulator.run(1.0)
        assert report.total_missed > 0


class TestAgreementWithTheorem:
    @pytest.mark.parametrize("bandwidth", [25.0, 100.0, 1000.0])
    @pytest.mark.parametrize("phasing", list(ArrivalPhasing))
    def test_schedulable_sets_never_miss(self, bandwidth, phasing):
        workload = make_set(
            [(30, 10_000), (50, 30_000), (75, 30_000), (120, 80_000)]
        )
        ring = fddi_ring(mbps(bandwidth), n_stations=len(workload))
        analysis = TTPAnalysis(ring, FRAME)
        result = analysis.analyze(workload)
        if not result.schedulable:
            pytest.skip("not schedulable at this bandwidth; nothing to check")
        simulator = TTPRingSimulator(
            ring,
            FRAME,
            workload,
            result.allocation,
            TTPSimConfig(phasing=phasing, async_saturating=True),
        )
        report = simulator.run(0.6)
        assert report.deadline_safe
        assert report.total_completed > 0

    def test_near_saturation_still_clean(self):
        """A set scaled to 95% of its breakdown point must stay clean."""
        workload = make_set([(40, 10_000), (60, 20_000), (90, 30_000)])
        ring = fddi_ring(mbps(100), n_stations=3)
        analysis = TTPAnalysis(ring, FRAME)
        scale = analysis.saturation_scale(workload)
        near = workload.scaled(scale * 0.95)
        allocation = analysis.allocate(near)
        simulator = TTPRingSimulator(ring, FRAME, near, allocation, TTPSimConfig())
        report = simulator.run(0.8)
        assert report.deadline_safe
