"""Lossy-medium fault injection: plans, injector, analysis, faulted runs.

Pins the package contract end to end:

* :class:`FaultPlan` schedules are deterministic pure functions of the
  configuration (same seed ⇒ same schedule, prefix property, rate bound);
* the :class:`FaultInjector` charges recovery for exactly the consumed
  events;
* loss-rate-zero fault plans are bit-identical to unfaulted runs on both
  simulators, and positive-rate plans are charged and deterministic;
* the fault-aware analysis reduces exactly to the fault-free theorems at
  an inert budget and only gets stricter as the budget grows.
"""

import dataclasses
import math

import pytest

from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.analysis.ttp import TTPAnalysis
from repro.errors import AllocationError, ConfigurationError
from repro.faults import (
    FaultBudget,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultStats,
    fault_aware_breakdown_scale,
    pdp_fault_aware_schedulable,
    pdp_fault_inflations,
    rate_for_loss_fraction,
    ttp_fault_aware_allocation,
    ttp_fault_aware_schedulable,
)
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.network.standards import fddi_ring, ieee_802_5_ring, paper_frame_format
from repro.sim.pdp_sim import PDPRingSimulator, PDPSimConfig
from repro.sim.ttp_sim import TTPRingSimulator, TTPSimConfig
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


def strip_faults(report):
    """The report with fault accounting removed (for bit-identity checks)."""
    return dataclasses.replace(report, faults=None)


class TestFaultPlan:
    def test_same_configuration_same_schedule(self):
        kwargs = dict(
            seed=42,
            token_loss_rate_hz=30.0,
            corruption_rate_hz=20.0,
            membership_rate_hz=10.0,
        )
        assert FaultPlan(**kwargs).events_until(2.0) == FaultPlan(
            **kwargs
        ).events_until(2.0)

    def test_repeated_calls_identical(self):
        plan = FaultPlan(seed=7, token_loss_rate_hz=50.0)
        assert plan.events_until(1.0) == plan.events_until(1.0)

    def test_prefix_property(self):
        plan = FaultPlan(
            seed=9,
            token_loss_rate_hz=40.0,
            corruption_rate_hz=25.0,
            membership_rate_hz=15.0,
        )
        full = plan.events_until(4.0)
        half = plan.events_until(2.0)
        assert half == [event for event in full if event.time_s < 2.0]

    def test_seed_changes_schedule(self):
        a = FaultPlan(seed=1, token_loss_rate_hz=50.0).events_until(1.0)
        b = FaultPlan(seed=2, token_loss_rate_hz=50.0).events_until(1.0)
        assert a != b

    @pytest.mark.parametrize("rate", [3.0, 17.0, 230.0])
    def test_rate_bound_any_window(self, rate):
        """Gaps >= 1/rate: any window W holds <= floor(W*rate)+1 events."""
        plan = FaultPlan(seed=5, token_loss_rate_hz=rate)
        times = [event.time_s for event in plan.events_until(10.0)]
        assert times, "expected events over 10 s"
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 1.0 / rate for gap in gaps)
        assert all(gap < 2.0 / rate + 1e-12 for gap in gaps)
        for width in (0.1, 0.5, 1.0):
            bound = plan.events_bound(rate, width)
            for start in times:
                inside = sum(1 for t in times if start <= t < start + width)
                assert inside <= bound

    def test_membership_alternates_join_leave(self):
        plan = FaultPlan(seed=3, membership_rate_hz=20.0)
        kinds = [event.kind for event in plan.events_until(2.0)]
        assert len(kinds) >= 4
        expected = [
            FaultKind.STATION_JOIN if i % 2 == 0 else FaultKind.STATION_LEAVE
            for i in range(len(kinds))
        ]
        assert kinds == expected

    def test_zero_rates_inert_and_empty(self):
        plan = FaultPlan(seed=11)
        assert plan.inert
        assert plan.events_until(100.0) == []
        assert not FaultPlan(seed=11, token_loss_rate_hz=1.0).inert

    def test_events_bound_formula(self):
        plan = FaultPlan()
        assert plan.events_bound(10.0, 1.0) == 11
        assert plan.events_bound(10.0, 0.05) == 1
        assert plan.events_bound(0.0, 1.0) == 0
        assert plan.events_bound(10.0, 0.0) == 0

    def test_plan_is_hashable(self):
        plan = FaultPlan(seed=1, token_loss_rate_hz=2.0)
        assert {plan: "ok"}[FaultPlan(seed=1, token_loss_rate_hz=2.0)] == "ok"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"token_loss_rate_hz": -1.0},
            {"corruption_rate_hz": float("nan")},
            {"membership_rate_hz": float("inf")},
            {"recovery_time_s": -0.5},
        ],
    )
    def test_rejects_bad_rates(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPlan(**kwargs)

    def test_rate_for_loss_fraction(self):
        assert rate_for_loss_fraction(0.05, 1e-3) == pytest.approx(50.0)
        with pytest.raises(ConfigurationError):
            rate_for_loss_fraction(-0.1, 1e-3)
        with pytest.raises(ConfigurationError):
            rate_for_loss_fraction(1.0, 1e-3)
        with pytest.raises(ConfigurationError):
            rate_for_loss_fraction(0.1, 0.0)


class TestFaultInjector:
    def test_ring_stall_consumes_due_events(self):
        plan = FaultPlan(seed=4, token_loss_rate_hz=10.0, recovery_time_s=2e-3)
        injector = FaultInjector(plan, horizon_s=1.0)
        times = [
            event.time_s
            for event in plan.events_until(1.0)
            if event.kind is FaultKind.TOKEN_LOSS
        ]
        due = [t for t in times if t <= 0.5]
        assert due and len(due) < len(times)
        stall = injector.ring_stall(0.5)
        assert stall == pytest.approx(len(due) * 2e-3)
        assert injector.stats.token_losses == len(due)
        assert injector.stats.recovery_time_s == pytest.approx(stall)
        # Already-consumed events are not charged twice.
        assert injector.ring_stall(0.5) == 0.0
        # The remainder arrives with the horizon.
        injector.ring_stall(1.0)
        assert injector.stats.token_losses == len(times)

    def test_membership_counts_separately(self):
        plan = FaultPlan(seed=6, membership_rate_hz=20.0, recovery_time_s=1e-3)
        injector = FaultInjector(plan, horizon_s=1.0)
        injector.ring_stall(1.0)
        assert injector.stats.membership_events > 0
        assert injector.stats.token_losses == 0
        assert injector.stats.ring_events == injector.stats.membership_events

    def test_corrupt_frame_one_at_a_time(self):
        plan = FaultPlan(seed=8, corruption_rate_hz=10.0)
        injector = FaultInjector(plan, horizon_s=1.0)
        n_events = len(plan.events_until(1.0))
        assert n_events >= 2
        consumed = 0
        while injector.corrupt_frame(1.0):
            consumed += 1
        assert consumed == n_events
        assert injector.stats.corrupted_frames == n_events

    def test_record_corrupted_time(self):
        injector = FaultInjector(FaultPlan(), horizon_s=1.0)
        injector.record_corrupted_time(0.25)
        injector.record_corrupted_time(0.5)
        assert injector.stats.corrupted_time_s == pytest.approx(0.75)


class TestZeroRateBitIdentity:
    """A fault plan with every rate at zero must change nothing."""

    def test_pdp(self):
        workload = make_set([(20, 4_000), (50, 16_000), (100, 32_000)])
        ring = ieee_802_5_ring(mbps(10), n_stations=len(workload))

        def run(faults):
            config = PDPSimConfig(collect_responses=True, faults=faults)
            return PDPRingSimulator(ring, FRAME, workload, config).run(0.4)

        baseline = run(None)
        faulted = run(FaultPlan(seed=1234))
        assert baseline.faults is None
        assert faulted.faults == FaultStats()
        assert strip_faults(faulted) == baseline

    def test_ttp(self):
        workload = make_set([(20, 4_000), (50, 16_000), (100, 32_000)])
        ring = fddi_ring(mbps(100), n_stations=len(workload))
        analysis = TTPAnalysis(ring, FRAME)
        allocation = analysis.allocate(workload)

        def run(faults):
            config = TTPSimConfig(collect_responses=True, faults=faults)
            return TTPRingSimulator(
                ring, FRAME, workload, allocation, config
            ).run(0.4)

        baseline = run(None)
        faulted = run(FaultPlan(seed=1234))
        assert faulted.faults == FaultStats()
        assert strip_faults(faulted) == baseline


class TestFaultedRuns:
    def test_pdp_charges_token_losses(self):
        workload = make_set([(20, 4_000), (50, 16_000)])
        ring = ieee_802_5_ring(mbps(10), n_stations=len(workload))
        plan = FaultPlan(seed=2, token_loss_rate_hz=100.0, recovery_time_s=1e-3)
        config = PDPSimConfig(faults=plan)
        report = PDPRingSimulator(ring, FRAME, workload, config).run(0.4)
        assert report.faults is not None
        assert report.faults.token_losses > 0
        assert report.faults.recovery_time_s > 0.0

    def test_pdp_corruption_wastes_medium_time(self):
        workload = make_set([(20, 4_000), (50, 16_000)])
        ring = ieee_802_5_ring(mbps(10), n_stations=len(workload))
        plan = FaultPlan(seed=2, corruption_rate_hz=200.0)
        config = PDPSimConfig(faults=plan)
        report = PDPRingSimulator(ring, FRAME, workload, config).run(0.4)
        assert report.faults.corrupted_frames > 0
        assert report.faults.corrupted_time_s > 0.0

    def test_pdp_faulted_run_is_deterministic(self):
        workload = make_set([(20, 4_000), (50, 16_000)])
        ring = ieee_802_5_ring(mbps(10), n_stations=len(workload))
        plan = FaultPlan(
            seed=3,
            token_loss_rate_hz=50.0,
            corruption_rate_hz=30.0,
            membership_rate_hz=10.0,
        )

        def run():
            config = PDPSimConfig(faults=plan)
            return PDPRingSimulator(ring, FRAME, workload, config).run(0.4)

        assert run() == run()

    def test_ttp_charges_token_losses(self):
        workload = make_set([(20, 4_000), (50, 16_000)])
        ring = fddi_ring(mbps(100), n_stations=len(workload))
        analysis = TTPAnalysis(ring, FRAME)
        allocation = analysis.allocate(workload)
        plan = FaultPlan(seed=2, token_loss_rate_hz=100.0, recovery_time_s=1e-3)
        config = TTPSimConfig(faults=plan)
        report = TTPRingSimulator(
            ring, FRAME, workload, allocation, config
        ).run(0.4)
        assert report.faults.token_losses > 0
        assert report.faults.recovery_time_s > 0.0


    def test_ttp_corruption_wastes_medium_time(self):
        workload = make_set([(20, 4_000), (50, 16_000)])
        ring = fddi_ring(mbps(100), n_stations=len(workload))
        allocation = TTPAnalysis(ring, FRAME).allocate(workload)
        plan = FaultPlan(seed=2, corruption_rate_hz=200.0)
        config = TTPSimConfig(faults=plan)
        report = TTPRingSimulator(
            ring, FRAME, workload, allocation, config
        ).run(0.4)
        assert report.faults.corrupted_frames > 0
        assert report.faults.corrupted_time_s > 0.0

    def test_ttp_faulted_run_is_deterministic(self):
        workload = make_set([(20, 4_000), (50, 16_000)])
        ring = fddi_ring(mbps(100), n_stations=len(workload))
        allocation = TTPAnalysis(ring, FRAME).allocate(workload)
        plan = FaultPlan(
            seed=3,
            token_loss_rate_hz=50.0,
            corruption_rate_hz=30.0,
            membership_rate_hz=10.0,
        )

        def run():
            config = TTPSimConfig(faults=plan)
            return TTPRingSimulator(
                ring, FRAME, workload, allocation, config
            ).run(0.4)

        first = run()
        assert first.faults.token_losses > 0
        assert first == run()

class TestFaultBudget:
    def test_from_plan_and_covers(self):
        plan = FaultPlan(
            seed=1,
            token_loss_rate_hz=5.0,
            corruption_rate_hz=2.0,
            membership_rate_hz=1.0,
            recovery_time_s=1e-3,
        )
        budget = FaultBudget.from_plan(plan)
        assert budget.covers(plan)
        assert budget.covers(FaultPlan(seed=99, token_loss_rate_hz=4.0))
        assert not budget.covers(FaultPlan(token_loss_rate_hz=6.0))
        assert not budget.covers(
            FaultPlan(token_loss_rate_hz=5.0, recovery_time_s=2e-3)
        )

    def test_bounds(self):
        budget = FaultBudget(
            token_loss_rate_hz=10.0, membership_rate_hz=5.0,
            corruption_rate_hz=3.0,
        )
        assert budget.ring_events_bound(1.0) == 11 + 6
        assert budget.corruption_bound(1.0) == 4
        assert FaultBudget().ring_events_bound(1.0) == 0
        assert FaultBudget().inert


class TestFaultAwareAnalysis:
    def test_pdp_inert_budget_is_exactly_the_theorem(self, sampler, rng):
        ring = ieee_802_5_ring(mbps(10), n_stations=8)
        analysis = PDPAnalysis(ring, FRAME, PDPVariant.STANDARD)
        budget = FaultBudget()
        for workload in sampler.sample_many(rng, 10):
            assert pdp_fault_aware_schedulable(
                analysis, workload, budget
            ) == analysis.is_schedulable(workload)

    def test_ttp_inert_budget_is_exactly_the_theorem(self, light_set):
        ring = fddi_ring(mbps(100), n_stations=8)
        analysis = TTPAnalysis(ring, FRAME)
        allocation = ttp_fault_aware_allocation(
            analysis, light_set, FaultBudget()
        )
        assert allocation == analysis.allocate(light_set)

    def test_pdp_inflations_positive_and_monotone_in_rate(self, light_set):
        ring = ieee_802_5_ring(mbps(10), n_stations=8)
        analysis = PDPAnalysis(ring, FRAME, PDPVariant.STANDARD)
        ordered = light_set.rate_monotonic()
        low = pdp_fault_inflations(
            analysis, ordered,
            FaultBudget(token_loss_rate_hz=10.0, recovery_time_s=1e-3),
        )
        high = pdp_fault_inflations(
            analysis, ordered,
            FaultBudget(token_loss_rate_hz=100.0, recovery_time_s=1e-3),
        )
        assert (low > 0.0).all()
        assert (high >= low).all()

    def test_acceptance_monotone_in_budget(self, sampler, rng):
        """Accepting at a larger budget implies accepting at a smaller one."""
        ring = ieee_802_5_ring(mbps(10), n_stations=8)
        analysis = PDPAnalysis(ring, FRAME, PDPVariant.STANDARD)
        small = FaultBudget(token_loss_rate_hz=20.0, recovery_time_s=1e-3)
        large = FaultBudget(token_loss_rate_hz=200.0, recovery_time_s=1e-3)
        for workload in sampler.sample_many(rng, 10):
            if pdp_fault_aware_schedulable(analysis, workload, large):
                assert pdp_fault_aware_schedulable(analysis, workload, small)

    def test_ttp_recovery_can_swallow_period(self, light_set):
        ring = fddi_ring(mbps(100), n_stations=8)
        analysis = TTPAnalysis(ring, FRAME)
        budget = FaultBudget(token_loss_rate_hz=1000.0, recovery_time_s=1e-2)
        with pytest.raises(AllocationError):
            ttp_fault_aware_allocation(analysis, light_set, budget)
        assert not ttp_fault_aware_schedulable(analysis, light_set, budget)

    def test_breakdown_scale_zero_when_budget_alone_rejects(self, light_set):
        ring = ieee_802_5_ring(mbps(10), n_stations=8)
        analysis = PDPAnalysis(ring, FRAME, PDPVariant.STANDARD)
        budget = FaultBudget(token_loss_rate_hz=1e5, recovery_time_s=1e-2)

        def accepts(message_set):
            return pdp_fault_aware_schedulable(analysis, message_set, budget)

        assert fault_aware_breakdown_scale(accepts, light_set) == 0.0

    def test_breakdown_scale_non_increasing_in_loss(self, light_set):
        ring = ieee_802_5_ring(mbps(10), n_stations=8)
        analysis = PDPAnalysis(ring, FRAME, PDPVariant.STANDARD)
        scales = []
        for fraction in (0.0, 0.02, 0.1):
            budget = FaultBudget(
                token_loss_rate_hz=(
                    rate_for_loss_fraction(fraction, 1e-3) if fraction else 0.0
                ),
                recovery_time_s=1e-3,
            )
            scales.append(
                fault_aware_breakdown_scale(
                    lambda ms, b=budget: pdp_fault_aware_schedulable(
                        analysis, ms, b
                    ),
                    light_set,
                )
            )
        assert scales[0] > 0.0
        assert scales[0] >= scales[1] >= scales[2]
