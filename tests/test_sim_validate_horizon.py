"""Horizon selection and invocation-coverage accounting in sim.validate.

Pins two fixes:

* ``default_validation_horizon`` extends the run to whole hyperperiods
  (under a documented cap) instead of a blind ``4 × P_max``, so later
  invocations of long-period streams are exercised under offset phasing.
* The simulators ingest arrivals released after their last processed
  event, so tail-window releases with in-horizon deadlines are accounted
  instead of silently dropped (``expected_invocations`` coverage).
"""

import logging
import math

import pytest

from repro.analysis.pdp import PDPVariant
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.network.frames import FrameFormat
from repro.network.standards import ieee_802_5_ring, paper_frame_format
from repro.sim.pdp_sim import PDPRingSimulator, PDPSimConfig, TokenWalkModel
from repro.sim import validate as validate_mod
from repro.sim.validate import (
    HORIZON_CAP_PERIODS,
    _rational_hyperperiod_uncached,
    default_validation_horizon,
    expected_invocations,
)
from repro.units import mbps


def _set(*periods_s: float) -> MessageSet:
    return MessageSet(
        SynchronousStream(period_s=p, payload_bits=800.0, station=i)
        for i, p in enumerate(periods_s)
    )


class TestDefaultValidationHorizon:
    def test_rational_periods_extend_to_hyperperiod(self):
        # Periods 3 ms and 5 ms: hyperperiod 15 ms.  The 4-period minimum
        # (20 ms) rounds up to two hyperperiods plus one P_max of
        # deadline margin.
        horizon = default_validation_horizon(_set(0.003, 0.005))
        assert horizon == pytest.approx(2 * 0.015 + 0.005)

    def test_harmonic_periods_stay_near_minimum(self):
        # Harmonic periods: hyperperiod == P_max, so the horizon is just
        # the requested minimum plus the margin period.
        horizon = default_validation_horizon(_set(0.01, 0.02, 0.04))
        assert horizon == pytest.approx(4 * 0.04 + 0.04)

    def test_coprime_periods_hit_the_cap(self):
        # 97 ms and 101 ms: hyperperiod 9.797 s ≈ 97 P_max, beyond the
        # cap — fall back to the requested minimum.
        message_set = _set(0.097, 0.101)
        horizon = default_validation_horizon(message_set)
        assert horizon == pytest.approx(4 * 0.101)
        assert horizon <= HORIZON_CAP_PERIODS * 0.101

    def test_irrational_float_periods_use_minimum(self):
        # Raw float noise has no small rational hyperperiod.
        message_set = _set(0.0123456789101112, 0.0987654321121314)
        horizon = default_validation_horizon(message_set)
        assert horizon == pytest.approx(4 * 0.0987654321121314)

    def test_min_periods_parameter_scales_the_floor(self):
        message_set = _set(0.003, 0.005)
        assert default_validation_horizon(
            message_set, 10.0
        ) >= 10.0 * 0.005

    def test_never_exceeds_cap(self):
        for periods in [(0.003, 0.005), (0.097, 0.101), (1.0,)]:
            message_set = _set(*periods)
            horizon = default_validation_horizon(message_set, 200.0)
            assert horizon <= HORIZON_CAP_PERIODS * max(periods) + 1e-12


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


class TestHyperperiodOverflow:
    """Regression: pathological co-prime period sets must degrade, not raise.

    The LCM of many prime denominators is an astronomically large integer;
    the old float-arithmetic overflow guard (``denominator * 1e9``) itself
    raised ``OverflowError`` converting it.  The memoized hyperperiod must
    instead bail out to "irrational" and the horizon fall back to the
    minimum-periods floor.
    """

    def test_prime_reciprocal_periods_bail_to_none(self):
        periods = [1.0 / p for p in _first_primes(150)]
        assert _rational_hyperperiod_uncached(periods) is None

    def test_prime_reciprocal_horizon_is_finite_and_capped(self):
        periods = [1.0 / p for p in _first_primes(150)]
        message_set = _set(*periods)
        horizon = default_validation_horizon(message_set)
        assert math.isfinite(horizon)
        assert horizon == pytest.approx(4.0 * max(periods))

    def test_large_but_tractable_lcm_still_resolves(self):
        # Two primes stay far below the big-int bail-out: the exact
        # hyperperiod (1/97 · 1/89 beat = 1 s · lcm ... ) must still be
        # found, not bailed on.
        assert _rational_hyperperiod_uncached([1.0 / 4, 1.0 / 6]) == (
            pytest.approx(0.5)
        )

    def test_near_coprime_cap_warns_once(self, caplog):
        periods = (0.097, 0.101, 0.103)
        message_set = _set(*periods)
        validate_mod._CAP_WARNED.discard(periods)
        with caplog.at_level(logging.WARNING, logger="repro.sim.validate"):
            first = default_validation_horizon(message_set)
            second = default_validation_horizon(message_set)
        warnings = [
            r for r in caplog.records if "validation horizon cap" in r.message
        ]
        assert len(warnings) == 1
        assert warnings[0].hyperperiod_s > warnings[0].cap_s
        assert first == second == pytest.approx(4.0 * 0.103)
        assert first <= HORIZON_CAP_PERIODS * 0.103


class TestHyperperiodMemo:
    def test_rational_hyperperiod_memoised(self):
        periods = (0.02, 0.03, 0.05)
        first = validate_mod._rational_hyperperiod(periods)
        assert (periods, 1_000_000) in validate_mod._HYPERPERIOD_MEMO
        assert validate_mod._rational_hyperperiod(periods) == first
        # A different denominator bound is a different computation.
        coarse = validate_mod._rational_hyperperiod(periods, max_denominator=10)
        assert (periods, 10) in validate_mod._HYPERPERIOD_MEMO
        assert (
            validate_mod._rational_hyperperiod(periods, max_denominator=10)
            == coarse
        )


class TestExpectedInvocations:
    def test_counts_only_in_horizon_deadlines(self):
        # Period 0.4 over 1.0 s: releases at 0, 0.4, 0.8; deadlines at
        # 0.4, 0.8, 1.2 — only the first two fall inside the run.
        counts = expected_invocations(_set(0.4), 1.0)
        assert counts == (2,)

    def test_exact_fit_release_is_counted(self):
        # Release at 0.8 with deadline exactly at the horizon counts.
        counts = expected_invocations(_set(0.2), 1.0)
        assert counts == (5,)


class TestTailArrivalAccounting:
    """Releases after the simulator's last event must still be accounted.

    With a frame time much longer than a stream's period, the decide/event
    chain advances in coarse steps and its final event can land well
    before the horizon; every release in that tail window used to vanish
    from the accounting (neither completed nor missed).
    """

    def test_pdp_accounts_every_in_horizon_invocation(self):
        ring = ieee_802_5_ring(mbps(16), n_stations=1)
        # A frame whose wire time (0.3125 s at 16 Mb/s) dwarfs the
        # 62.5 ms period: events advance in ~0.3 s steps and the last one
        # lands near 0.5 s, while releases at 0.5625/0.625/0.6875 s all
        # carry deadlines inside the 0.75 s horizon.  All values are
        # exact in binary so the release times accumulate without error.
        frame = FrameFormat(info_bits=5_000_000.0, overhead_bits=112.0)
        message_set = MessageSet(
            [SynchronousStream(period_s=0.0625, payload_bits=8_000_000.0, station=0)]
        )
        simulator = PDPRingSimulator(
            ring,
            frame,
            message_set,
            PDPSimConfig(
                variant=PDPVariant.STANDARD,
                async_saturating=True,
                token_walk=TokenWalkModel.AVERAGE,
            ),
        )
        duration = 0.75
        report = simulator.run(duration)
        (expected,) = expected_invocations(message_set, duration)
        stats = report.streams[0]
        assert expected == 12
        assert stats.completed + stats.missed >= expected

    def test_ttp_cross_validation_coverage_holds(self):
        # End-to-end: the TTP cross validator asserts coverage internally
        # (raises SimulationError on a shortfall), so a clean return is
        # itself the regression check.
        from repro.analysis.ttp import TTPAnalysis
        from repro.network.standards import fddi_ring
        from repro.sim.validate import cross_validate_ttp

        ring = fddi_ring(mbps(100), n_stations=3)
        frame = paper_frame_format()
        message_set = _set(0.02, 0.03, 0.05)
        validation = cross_validate_ttp(TTPAnalysis(ring, frame), message_set)
        assert validation.expected_invocations
        for stats, want in zip(
            validation.report.streams, validation.expected_invocations
        ):
            assert stats.completed + stats.missed >= want
