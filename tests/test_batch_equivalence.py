"""Batched fast paths against their scalar oracles.

The perf rewrite introduced three batched layers — stacked LSD evaluation
(`ExactRMTest.is_schedulable_batch`), vectorized augmented lengths
(`pdp_augmented_lengths`), and the lockstep batched bisection
(`breakdown_scales_batch`) — each shadowing a scalar implementation that
stays in the codebase as the oracle.  These tests pin the equivalences:

* verdicts are **bit-identical** (booleans, not approximately equal);
* breakdown scales and evaluation counts match the scalar search exactly
  (each set's lockstep search consumes the scalar search's verdicts in
  the same order);
* both agree with the independent response-time-analysis oracle;
* edge cases — zero payloads, scale-0 / scale-inf degenerate sets,
  single-stream sets — take the same branch in both paths.

The randomized sweeps cover well over 200 distinct message sets between
them (see the module-level counters asserted in
``test_randomized_population_is_large_enough``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.breakdown import (
    _SPEC_DOUBLINGS,
    breakdown_scale,
    breakdown_scales_batch,
    breakdown_utilization,
    breakdown_utilizations_batch,
)
from repro.analysis.pdp import (
    PDPAnalysis,
    PDPVariant,
    pdp_augmented_length,
    pdp_augmented_lengths,
)
from repro.analysis.rm import ExactRMTest, response_time_analysis
from repro.analysis.ttp import TTPAnalysis
from repro.messages.generators import MessageSetSampler, PeriodDistribution
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.network.standards import fddi_ring, ieee_802_5_ring, paper_frame_format
from repro.obs import metrics
from repro.units import mbps

#: Message sets per randomized sweep; the sweeps below multiply this by
#: bandwidths and variants, comfortably clearing the 200-set target.
N_RANDOM_SETS = 40

BANDWIDTHS_MBPS = (2.0, 10.0, 100.0)


def _sampler(n_streams: int) -> MessageSetSampler:
    return MessageSetSampler(
        n_streams=n_streams,
        periods=PeriodDistribution(mean_period_s=0.1, ratio=10.0),
    )


def _random_sets(seed: int, n_sets: int, n_streams: int = 10) -> list[MessageSet]:
    rng = np.random.default_rng(seed)
    return _sampler(n_streams).sample_many(rng, n_sets)


def _pdp(bandwidth_mbps: float, variant: PDPVariant) -> PDPAnalysis:
    return PDPAnalysis(
        ieee_802_5_ring(mbps(bandwidth_mbps), n_stations=10),
        paper_frame_format(),
        variant,
    )


class TestAugmentedLengthVectorization:
    @pytest.mark.parametrize("bandwidth", BANDWIDTHS_MBPS)
    @pytest.mark.parametrize("variant", list(PDPVariant))
    def test_matches_scalar_oracle_exactly(self, bandwidth, variant):
        ring = ieee_802_5_ring(mbps(bandwidth), n_stations=10)
        frame = paper_frame_format()
        rng = np.random.default_rng(7)
        payloads = rng.uniform(0.0, 5e4, size=400)
        payloads[::17] = 0.0  # sprinkle exact zeros
        vector = pdp_augmented_lengths(payloads, ring, frame, variant)
        scalar = [
            pdp_augmented_length(p, ring, frame, variant) for p in payloads
        ]
        assert vector.tolist() == scalar  # bit-identical, not approx

    def test_zero_payload_costs_nothing(self, frame):
        ring = ieee_802_5_ring(mbps(10), n_stations=10)
        for variant in PDPVariant:
            out = pdp_augmented_lengths(np.zeros(5), ring, frame, variant)
            assert out.tolist() == [0.0] * 5

    def test_matrix_shape_matches_elementwise(self, frame):
        ring = ieee_802_5_ring(mbps(10), n_stations=10)
        payloads = np.linspace(0.0, 4e4, 12).reshape(3, 4)
        out = pdp_augmented_lengths(payloads, ring, frame, PDPVariant.STANDARD)
        flat = pdp_augmented_lengths(
            payloads.ravel(), ring, frame, PDPVariant.STANDARD
        )
        assert out.shape == payloads.shape
        assert out.ravel().tolist() == flat.tolist()


class TestBatchedLSDTest:
    @pytest.mark.parametrize("bandwidth", BANDWIDTHS_MBPS)
    @pytest.mark.parametrize("variant", list(PDPVariant))
    def test_batch_verdicts_bit_identical_to_scalar(self, bandwidth, variant):
        analysis = _pdp(bandwidth, variant)
        for message_set in _random_sets(seed=11, n_sets=N_RANDOM_SETS):
            ordered = message_set.rate_monotonic()
            test = ExactRMTest(ordered.periods)
            lengths = analysis.augmented_lengths(ordered)
            scales = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 8.0])
            costs = scales[:, None] * lengths[None, :]
            batch = test.is_schedulable_batch(costs, analysis.blocking)
            scalar = [
                test.is_schedulable(row, analysis.blocking) for row in costs
            ]
            assert batch.tolist() == scalar

    def test_batch_agrees_with_response_time_oracle(self):
        analysis = _pdp(10.0, PDPVariant.MODIFIED)
        for message_set in _random_sets(seed=13, n_sets=N_RANDOM_SETS):
            ordered = message_set.rate_monotonic()
            test = ExactRMTest(ordered.periods)
            lengths = analysis.augmented_lengths(ordered)
            scales = np.array([0.25, 1.0, 4.0])
            costs = scales[:, None] * lengths[None, :]
            batch = test.is_schedulable_batch(costs, analysis.blocking)
            for verdict, row in zip(batch, costs):
                responses = response_time_analysis(
                    row, ordered.periods, analysis.blocking
                )
                oracle = all(
                    r <= p for r, p in zip(responses, ordered.periods)
                )
                assert bool(verdict) == oracle

    def test_single_stream_set(self):
        test = ExactRMTest((0.1,))
        costs = np.array([[0.01], [0.09], [0.11]])
        assert test.is_schedulable_batch(costs, 0.0).tolist() == [
            True,
            True,
            False,
        ]

    def test_zero_cost_rows_schedulable(self):
        test = ExactRMTest((0.05, 0.1, 0.2))
        batch = test.is_schedulable_batch(np.zeros((3, 3)), 0.0)
        assert batch.tolist() == [True, True, True]


class TestLockstepBisection:
    @pytest.mark.parametrize("bandwidth", BANDWIDTHS_MBPS)
    @pytest.mark.parametrize("variant", list(PDPVariant))
    def test_scales_match_scalar_bit_for_bit(self, bandwidth, variant):
        analysis = _pdp(bandwidth, variant)
        message_sets = _random_sets(seed=17, n_sets=N_RANDOM_SETS)
        batch = breakdown_scales_batch(message_sets, analysis, rel_tol=1e-4)
        scalar = [
            breakdown_scale(ms, analysis, rel_tol=1e-4) for ms in message_sets
        ]
        assert batch == scalar

    def test_probes_exceed_evaluations_only_by_bracket_look_ahead(self):
        analysis = _pdp(10.0, PDPVariant.STANDARD)
        message_sets = _random_sets(seed=37, n_sets=N_RANDOM_SETS)
        probes = metrics.counter("breakdown.probes")
        before = probes.value
        breakdown_scales_batch(message_sets, analysis, rel_tol=1e-4)
        physical = probes.value - before
        scalar_evaluations = sum(
            breakdown_scale(ms, analysis, rel_tol=1e-4)[1] for ms in message_sets
        )
        discarded = physical - scalar_evaluations
        assert 0 <= discarded <= (_SPEC_DOUBLINGS - 1) * len(message_sets)

    @pytest.mark.parametrize(
        "max_doublings", [0, 1, 2, _SPEC_DOUBLINGS, _SPEC_DOUBLINGS + 1, 128]
    )
    def test_degenerate_mix_matches_scalar(self, max_doublings):
        analysis = _pdp(10.0, PDPVariant.STANDARD)
        population = [
            *_random_sets(seed=41, n_sets=4),
            # all-zero payloads: one probe classifies the set
            MessageSet(
                [
                    SynchronousStream(period_s=0.1 * (i + 1), payload_bits=0.0)
                    for i in range(3)
                ]
            ),
            # never saturates: schedulable at every doubling up to 2^128
            MessageSet([SynchronousStream(period_s=10.0, payload_bits=1e-40)]),
            # overheads alone miss a 1 us deadline: halves down to 0.0
            MessageSet([SynchronousStream(period_s=1e-6, payload_bits=1.0)]),
            # needs halving, then bisection
            MessageSet([SynchronousStream(period_s=0.01, payload_bits=1e6)]),
        ]
        batch = breakdown_scales_batch(
            population, analysis, rel_tol=1e-3, max_doublings=max_doublings
        )
        scalar = [
            breakdown_scale(ms, analysis, rel_tol=1e-3, max_doublings=max_doublings)
            for ms in population
        ]
        assert batch == scalar
        if max_doublings == 128:
            assert [s for s, _ in batch[4:7]] == [float("inf"), float("inf"), 0.0]
            assert 0.0 < batch[7][0] < 1.0

    def test_ttp_closed_form_matches_scalar(self):
        analysis = TTPAnalysis(
            fddi_ring(mbps(100), n_stations=10), paper_frame_format()
        )
        message_sets = _random_sets(seed=19, n_sets=N_RANDOM_SETS)
        batch = breakdown_scales_batch(message_sets, analysis)
        scalar = [breakdown_scale(ms, analysis) for ms in message_sets]
        assert batch == scalar

    def test_utilizations_match_scalar(self):
        analysis = _pdp(10.0, PDPVariant.STANDARD)
        message_sets = _random_sets(seed=23, n_sets=20)
        bw = mbps(10)
        batch = breakdown_utilizations_batch(message_sets, analysis, bw, 1e-4)
        scalar = [
            breakdown_utilization(ms, analysis, bw, 1e-4)
            for ms in message_sets
        ]
        assert [(r.scale, r.utilization) for r in batch] == [
            (r.scale, r.utilization) for r in scalar
        ]

    def test_plain_callable_falls_back_to_scalar_path(self):
        message_sets = _random_sets(seed=29, n_sets=5, n_streams=4)
        predicate = lambda ms: ms.utilization(mbps(10)) <= 0.5  # noqa: E731
        batch = breakdown_scales_batch(message_sets, predicate, rel_tol=1e-4)
        scalar = [
            breakdown_scale(ms, predicate, rel_tol=1e-4) for ms in message_sets
        ]
        assert batch == scalar

    def test_scale_inf_degenerate_all_zero_payloads(self):
        analysis = _pdp(10.0, PDPVariant.MODIFIED)
        zero_set = MessageSet(
            [SynchronousStream(period_s=0.1 * (i + 1), payload_bits=0.0) for i in range(4)]
        )
        (batch,) = breakdown_scales_batch([zero_set], analysis)
        assert batch == breakdown_scale(zero_set, analysis)
        assert batch[0] == float("inf")

    def test_scale_zero_degenerate_overheads_alone_unschedulable(self):
        # 1000 stations on a slow ring: walk time alone exceeds the
        # shortest deadline, so even infinitesimal payloads fail.
        analysis = PDPAnalysis(
            ieee_802_5_ring(mbps(0.1), n_stations=1000, station_spacing_m=10_000.0),
            paper_frame_format(),
            PDPVariant.STANDARD,
        )
        hopeless = MessageSet(
            [SynchronousStream(period_s=0.001, payload_bits=1.0)]
        )
        (batch,) = breakdown_scales_batch([hopeless], analysis)
        assert batch[0] == breakdown_scale(hopeless, analysis)[0]
        assert batch[0] == 0.0

    def test_single_stream_sets_match(self):
        analysis = _pdp(10.0, PDPVariant.STANDARD)
        singles = _random_sets(seed=31, n_sets=10, n_streams=1)
        batch = breakdown_scales_batch(singles, analysis)
        scalar = [breakdown_scale(ms, analysis) for ms in singles]
        assert [s for s, _ in batch] == [s for s, _ in scalar]

    def test_mixed_population_with_degenerates(self):
        analysis = _pdp(10.0, PDPVariant.MODIFIED)
        mixed = _random_sets(seed=37, n_sets=6, n_streams=6)
        mixed.insert(
            2,
            MessageSet(
                [SynchronousStream(period_s=0.05 * (i + 1), payload_bits=0.0) for i in range(3)]
            ),
        )
        batch = breakdown_scales_batch(mixed, analysis)
        scalar = [breakdown_scale(ms, analysis) for ms in mixed]
        assert [s for s, _ in batch] == [s for s, _ in scalar]


def test_randomized_population_is_large_enough():
    """The sweeps above exercise >= 200 distinct randomized message sets."""
    lockstep = len(BANDWIDTHS_MBPS) * len(PDPVariant) * N_RANDOM_SETS
    lsd = len(BANDWIDTHS_MBPS) * len(PDPVariant) * N_RANDOM_SETS
    assert lockstep >= 200
    assert lockstep + lsd >= 400


class TestSaturatedScalesAgreeWithinTolerance:
    def test_batched_scale_is_within_rel_tol_of_true_boundary(self):
        """λ* brackets the truth: schedulable at λ*, unschedulable past tol."""
        analysis = _pdp(10.0, PDPVariant.MODIFIED)
        rel_tol = 1e-4
        message_sets = _random_sets(seed=41, n_sets=15)
        for message_set, (scale, _) in zip(
            message_sets,
            breakdown_scales_batch(message_sets, analysis, rel_tol=rel_tol),
        ):
            if not (0.0 < scale < math.inf):
                continue
            assert analysis.is_schedulable(message_set.scaled(scale))
            assert not analysis.is_schedulable(
                message_set.scaled(scale * (1.0 + 4.0 * rel_tol))
            )
