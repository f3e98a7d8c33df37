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
import pickle

import numpy as np
import pytest

from repro.analysis.breakdown import (
    _SPEC_DOUBLINGS,
    _far_edges,
    breakdown_scale,
    breakdown_scales_batch,
    breakdown_utilization,
    breakdown_utilizations_batch,
)
from repro.analysis.pdp import (
    PDPAnalysis,
    PDPPopulation,
    PDPVariant,
    PreparedSets,
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


class TestOneKernelForEveryCaller:
    """Every caller of the exact test reads one kernel, and a row's floats
    do not depend on the rows evaluated beside it: a set's verdict is the
    same bit alone, in ``is_schedulable_batch``, in a ``scale_prober``
    probe over a mixed population, and through ``PDPPopulation`` asked
    about one candidate or several."""

    BANDWIDTH = mbps(10.0)

    def analysis(self, variant):
        return PDPAnalysis(
            ieee_802_5_ring(self.BANDWIDTH, n_stations=100),
            paper_frame_format(),
            variant,
        )

    def population(self):
        """Widths 1–100, repeated periods, an empty and an all-zero set."""
        rng = np.random.default_rng(2025)
        catalogue = np.array([0.008, 0.016, 0.024, 0.032, 0.064, 0.1])
        sets = [MessageSet([])]
        for k, width in enumerate((1, 2, 3, 7, 16, 33, 64, 100, 100)):
            if k % 3 == 0:
                periods = rng.choice(catalogue, size=width)
            else:
                periods = rng.uniform(0.01, 0.1, size=width)
            payloads = rng.uniform(100.0, 4000.0, size=width)
            sets.append(
                MessageSet(
                    SynchronousStream(period_s=p, payload_bits=c, station=i)
                    for i, (p, c) in enumerate(zip(periods, payloads))
                )
            )
        sets.append(
            MessageSet(
                SynchronousStream(period_s=p, payload_bits=0.0, station=i)
                for i, p in enumerate((0.01, 0.01, 0.05, 0.2))
            )
        )
        return sets

    @pytest.mark.parametrize("variant", list(PDPVariant))
    def test_probe_rows_equal_lone_and_batch_rows(self, variant):
        analysis = self.analysis(variant)
        sets = self.population()
        scales = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        for message_set in sets[1:]:
            scale, _ = breakdown_scale(message_set, analysis, rel_tol=1e-6)
            if 0.0 < scale < math.inf:
                scales += [scale, scale * (1 + 1e-6)]
        rng = np.random.default_rng(7)
        pairs = [(i, s) for i in range(len(sets)) for s in scales]
        pairs = [pairs[k] for k in rng.permutation(len(pairs))]
        probe = analysis.scale_prober(sets)
        probed = probe([i for i, _ in pairs], np.array([s for _, s in pairs]))
        for i, message_set in enumerate(sets):
            rows = [k for k, (j, _) in enumerate(pairs) if j == i]
            ordered = message_set.rate_monotonic()
            if not len(ordered):
                assert probed[rows].all()
                continue
            test = ExactRMTest(ordered.periods)
            payloads = np.asarray(ordered.payloads_bits)
            costs = pdp_augmented_lengths(
                np.array([pairs[k][1] for k in rows])[:, None] * payloads,
                analysis.ring,
                analysis.frame,
                variant,
            )
            alone = [test.is_schedulable(row, analysis.blocking) for row in costs]
            batch = test.is_schedulable_batch(costs, analysis.blocking)
            assert batch.tolist() == alone
            assert probed[rows].tolist() == alone
            # One row per probe, as the lockstep search sends a live set.
            for k in rows:
                assert probe([i], np.array([pairs[k][1]]))[0] == probed[k]
        assert True in probed.tolist() and False in probed.tolist()

    def test_probe_over_empty_sets_and_no_rows(self):
        probe = self.analysis(PDPVariant.STANDARD).scale_prober(
            [MessageSet([]), MessageSet([])]
        )
        assert probe([1, 0, 1], np.array([1.0, 2.0, 1e9])).tolist() == [True] * 3
        assert probe([], np.array([])).tolist() == []

    @pytest.mark.parametrize("repeats", [True, False])
    @pytest.mark.parametrize("variant", list(PDPVariant))
    def test_prepared_sets_probe_like_a_plain_list(self, variant, repeats):
        """A population prepared once (and pickled, as a worker receives
        it) answers every probe like the same sets passed as a list, and
        binding it to an analysis looks up and builds no exact test.
        Without a repeated period it has no group bounds to sum over."""
        sets = self.population() if repeats else _random_sets(5, 12, 100)
        prepared = pickle.loads(pickle.dumps(PreparedSets(sets)))
        assert list(prepared) == sets
        assert (prepared.group_bounds is not None) == repeats
        analysis = self.analysis(variant)
        rng = np.random.default_rng(11)
        indices = rng.integers(0, len(sets), size=200)
        scales = rng.uniform(0.0, 4.0, size=200)
        metrics.reset()
        probe = analysis.scale_prober(prepared)
        assert metrics.snapshot("pdp.exact_cache") == {}
        plain = analysis.scale_prober(list(sets))
        assert probe(indices, scales).tolist() == plain(indices, scales).tolist()
        assert probe.all_zero.tolist() == plain.all_zero.tolist()

    @pytest.mark.parametrize("variant", list(PDPVariant))
    def test_population_rows_equal_lone_and_batch_rows(self, variant):
        analysis = self.analysis(variant)
        for message_set in self.population()[1:]:
            ordered = message_set.rate_monotonic()
            admitted, last = list(ordered)[:-1], list(ordered)[-1]
            population = PDPPopulation(analysis)
            for stream in admitted:
                population.insert(stream)
            candidates = [
                SynchronousStream(
                    period_s=last.period_s, payload_bits=bits, station=last.station
                )
                for bits in np.geomspace(1.0, 2e5, 24)
            ]
            many = population.verdicts(candidates)
            assert [population.verdicts([c])[0] for c in candidates] == many
            whole = [MessageSet([*admitted, c]).rate_monotonic() for c in candidates]
            test = ExactRMTest(whole[0].periods)
            costs = np.stack([analysis.augmented_lengths(w) for w in whole])
            alone = [test.is_schedulable(row, analysis.blocking) for row in costs]
            assert test.is_schedulable_batch(costs, analysis.blocking).tolist() == alone
            assert many == alone

    @pytest.mark.parametrize(
        "periods",
        [
            (0.125, 0.25, 0.5, 1.0),
            (0.125, 0.125, 0.25, 1.0, 1.0),
            (0.01, 0.03, 0.09, 0.27),
            (0.01, 0.02, 0.02, 0.04, 0.08),
        ],
    )
    def test_harmonic_sets_at_exact_saturation_agree_with_rta(self, periods):
        """A harmonic set whose utilization is exactly 1 (in exact
        arithmetic) is schedulable: its lowest-priority response meets
        the period.  A hair more load misses."""
        periods = np.asarray(periods)
        costs = periods / periods.size  # each stream takes 1/n of the ring
        test = ExactRMTest(periods)
        rows = np.stack([costs, costs * (1 + 1e-6)])
        alone = [test.is_schedulable(row) for row in rows]
        assert test.is_schedulable_batch(rows).tolist() == alone
        for row, verdict in zip(rows, alone):
            responses = response_time_analysis(row, periods)
            oracle = all(r <= p * (1 + 1e-12) for r, p in zip(responses, periods))
            assert verdict == oracle
        assert alone == [True, False]


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
        """Beyond the scalar search's evaluations the lockstep search
        spends one far-edge probe per searched set (counted on its own
        here: none of these sets saturates near ``2**±128``) and at most
        ``_SPEC_DOUBLINGS - 1`` discarded look-ahead rungs per set."""
        analysis = _pdp(10.0, PDPVariant.STANDARD)
        message_sets = _random_sets(seed=37, n_sets=N_RANDOM_SETS)
        far_edges = _far_edges(128)[:2]
        far_probes = 0

        class FarEdgeCounter:
            is_schedulable = analysis.is_schedulable

            def scale_prober(self, sets):
                probe = analysis.scale_prober(sets)

                def counted(indices, scales):
                    nonlocal far_probes
                    far_probes += int(np.isin(scales, far_edges).sum())
                    return probe(indices, scales)

                counted.all_zero = probe.all_zero
                return counted

        probes = metrics.counter("breakdown.probes")
        before = probes.value
        batch = breakdown_scales_batch(message_sets, FarEdgeCounter(), rel_tol=1e-4)
        physical = probes.value - before
        scalar = [breakdown_scale(ms, analysis, rel_tol=1e-4) for ms in message_sets]
        assert batch == scalar
        assert far_probes == len(message_sets)
        look_ahead = physical - far_probes - sum(count for _, count in scalar)
        assert 0 <= look_ahead <= (_SPEC_DOUBLINGS - 1) * len(message_sets)

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
            # far verdicts that differ from the one at 1.0, so the far-edge
            # shortcut must not fire: the last halving closes the bracket,
            # and the last doubling does
            *self._last_rung_sets(analysis, max_doublings),
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
        if max_doublings >= 1:
            (halved, _), (doubled, _) = batch[-2:]
            assert 0.5**max_doublings <= halved < 0.5 ** (max_doublings - 1)
            assert 2.0 ** (max_doublings - 1) <= doubled < 2.0**max_doublings

    @staticmethod
    def _last_rung_sets(analysis, max_doublings):
        """A set first schedulable after exactly ``max_doublings`` halvings
        and one that saturates at exactly ``2**(max_doublings - 1)``.

        ``base.scaled(boundary / t)`` passes up to scale ``t``, so ``t``
        is put halfway up the last rung in each direction.
        """
        base = MessageSet([SynchronousStream(period_s=0.01, payload_bits=1e4)])
        boundary, _ = breakdown_scale(base, analysis, rel_tol=1e-9)
        return [
            base.scaled(boundary / (1.5 * 0.5**max_doublings)),
            base.scaled(boundary / (0.75 * 2.0**max_doublings)),
        ]

    def test_far_edge_settles_sets_that_never_change_verdict(self):
        """A hopeless set and a never-saturating one end after the probe
        at 1.0 and one block plus far edge: two batched calls, not 33,
        with the scalar search's 129 evaluations each."""
        analysis = _pdp(10.0, PDPVariant.STANDARD)
        population = [
            MessageSet([SynchronousStream(period_s=1e-6, payload_bits=1.0)]),
            MessageSet([SynchronousStream(period_s=10.0, payload_bits=1e-40)]),
        ]
        probes = metrics.counter("breakdown.probes")
        calls = metrics.counter("breakdown.batch_calls")
        before = probes.value, calls.value
        batch = breakdown_scales_batch(population, analysis, rel_tol=1e-3)
        assert batch == [(0.0, 129), (float("inf"), 129)]
        assert probes.value - before[0] == 2 * (1 + _SPEC_DOUBLINGS + 1)
        assert calls.value - before[1] == 2
        assert batch == [breakdown_scale(ms, analysis, rel_tol=1e-3) for ms in population]

    def test_sets_saturated_counts_finite_positive_scales(self):
        """An all-zero set (scale inf), a hopeless 1 us set (scale 0) and
        an ordinary set count one saturated set on either path."""
        analysis = _pdp(10.0, PDPVariant.STANDARD)
        population = [
            MessageSet(
                [
                    SynchronousStream(period_s=0.1 * (i + 1), payload_bits=0.0)
                    for i in range(3)
                ]
            ),
            MessageSet([SynchronousStream(period_s=1e-6, payload_bits=1.0)]),
            MessageSet([SynchronousStream(period_s=0.01, payload_bits=1e6)]),
        ]
        counter = metrics.counter("breakdown.sets_saturated")
        before = counter.value
        batch = breakdown_scales_batch(population, analysis, rel_tol=1e-3)
        assert counter.value - before == 1
        scalar = [breakdown_scale(ms, analysis, rel_tol=1e-3) for ms in population]
        assert counter.value - before == 2
        assert batch == scalar
        assert [s for s, _ in batch[:2]] == [float("inf"), 0.0]

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
