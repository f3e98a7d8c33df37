"""Protocol-faithful 802.5 simulator: levels, stacking, quantization."""

import pytest

from repro.analysis.breakdown import breakdown_scale
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.errors import ConfigurationError
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.network.standards import ieee_802_5_ring, paper_frame_format
from repro.sim.ieee8025 import (
    IEEE8025Config,
    IEEE8025Simulator,
    assign_service_levels,
)
from repro.units import mbps, milliseconds


FRAME = paper_frame_format()


def make_set(specs) -> MessageSet:
    return MessageSet(
        SynchronousStream(
            period_s=milliseconds(period), payload_bits=payload, station=i
        )
        for i, (period, payload) in enumerate(specs)
    )


def run_sim(message_set, bandwidth_mbps=10.0, duration=0.5, **config_kwargs):
    ring = ieee_802_5_ring(mbps(bandwidth_mbps), n_stations=len(message_set))
    simulator = IEEE8025Simulator(
        ring, FRAME, message_set, IEEE8025Config(**config_kwargs)
    )
    return simulator.run(duration)


class TestServiceLevels:
    def test_distinct_when_few_streams(self):
        workload = make_set([(20, 100), (40, 100), (60, 100)])
        levels = assign_service_levels(workload, 8)
        assert levels == [7, 6, 5]

    def test_quantized_when_many_streams(self):
        workload = make_set([(20 + 5 * i, 100) for i in range(14)])
        levels = assign_service_levels(workload, 8)
        assert max(levels) == 7
        assert min(levels) >= 1  # level 0 reserved for async
        assert len(set(levels)) == 7  # 14 streams into 7 sync levels

    def test_levels_respect_rm_order(self):
        workload = make_set([(60, 100), (20, 100), (40, 100)])
        levels = assign_service_levels(workload, 8)
        # Shortest period (stream 1) gets the highest level.
        assert levels[1] > levels[2] > levels[0]

    def test_empty_set(self):
        assert assign_service_levels(MessageSet([]), 8) == []

    def test_rejects_too_few_levels(self):
        workload = make_set([(20, 100)])
        with pytest.raises(ConfigurationError):
            assign_service_levels(workload, 1)


class TestBasicOperation:
    def test_light_load_completes(self):
        report = run_sim(make_set([(50, 1000), (100, 2000)]), duration=0.5)
        assert report.total_completed == 15
        assert report.deadline_safe

    def test_rejects_empty_set(self):
        ring = ieee_802_5_ring(mbps(10), n_stations=2)
        with pytest.raises(ConfigurationError):
            IEEE8025Simulator(ring, FRAME, MessageSet([]))

    def test_rejects_nonpositive_duration(self):
        workload = make_set([(50, 1000)])
        ring = ieee_802_5_ring(mbps(10), n_stations=1)
        simulator = IEEE8025Simulator(ring, FRAME, workload)
        with pytest.raises(ConfigurationError):
            simulator.run(0.0)

    def test_medium_fully_used_with_async(self):
        report = run_sim(make_set([(100, 1000)]), duration=0.3)
        occupied = report.sync_busy_time + report.async_busy_time + report.token_time
        assert occupied == pytest.approx(report.duration, rel=0.05)

    def test_idle_parking_without_async(self):
        report = run_sim(
            make_set([(100, 1000)]), duration=0.3, async_saturating=False
        )
        assert report.deadline_safe
        assert report.async_busy_time == 0.0
        # The ring mostly idles: busy time well below wall clock.
        busy = report.sync_busy_time + report.token_time
        assert busy < 0.3 * report.duration


class TestPriorityMechanism:
    def test_urgent_stream_not_starved(self):
        """A 10 ms control loop sharing the ring with a huge low-priority
        transfer keeps meeting deadlines via the reservation field."""
        workload = make_set([(10, 512), (200, 150_000)])
        report = run_sim(workload, duration=1.0)
        assert report.streams[0].missed == 0

    def test_priority_unwind_lets_async_through(self):
        """After sync bursts, stacking stations must lower the token
        priority again or asynchronous traffic would starve forever."""
        workload = make_set([(30, 8000), (50, 8000)])
        report = run_sim(workload, duration=1.0)
        assert report.async_utilization > 0.3

    def test_overload_starves_lowest_level_first(self):
        workload = make_set([(10, 8000), (15, 8000), (20, 8000), (200, 160_000)])
        report = run_sim(workload, bandwidth_mbps=2.0, duration=1.0)
        assert not report.deadline_safe
        assert report.streams[0].missed == 0
        assert report.streams[3].missed > 0

    def test_modified_no_worse(self):
        workload = make_set([(20, 20_000), (40, 40_000), (80, 40_000)])
        std = run_sim(workload, duration=0.8, variant=PDPVariant.STANDARD)
        mod = run_sim(workload, duration=0.8, variant=PDPVariant.MODIFIED)
        assert mod.total_missed <= std.total_missed
        assert mod.token_time <= std.token_time + 1e-9


class TestQuantization:
    def test_more_levels_never_hurt(self):
        """With 16 streams squeezed into few levels, a tight workload
        misses more deadlines than with ample levels, and the 8-level
        standard token sits between the two ends."""
        workload = make_set(
            [(20 + 6 * i, 14_000) for i in range(16)]
        )
        misses = {
            levels: run_sim(
                workload, bandwidth_mbps=10.0, duration=1.0,
                n_priority_levels=levels,
            ).total_missed
            for levels in (2, 8, 64)
        }
        assert misses[64] <= misses[8] <= misses[2]

    def test_standard_eight_levels_default(self):
        assert IEEE8025Config().n_priority_levels == 8


class TestAgreementWithTheorem:
    @pytest.mark.parametrize("variant", list(PDPVariant))
    def test_comfortable_margin_never_misses(self, variant):
        """Sets at 70% of the analytic breakdown point run clean in the
        faithful simulator with distinct priority levels."""
        workload = make_set([(20, 3000), (40, 8000), (60, 8000), (120, 16_000)])
        ring = ieee_802_5_ring(mbps(16), n_stations=len(workload))
        analysis = PDPAnalysis(ring, FRAME, variant)
        scale, __ = breakdown_scale(workload, analysis, rel_tol=1e-3)
        near = workload.scaled(scale * 0.7)
        simulator = IEEE8025Simulator(
            ring, FRAME, near,
            IEEE8025Config(variant=variant, n_priority_levels=64),
        )
        report = simulator.run(0.6)
        assert report.deadline_safe
        assert report.total_completed > 0
