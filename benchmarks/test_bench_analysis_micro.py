"""Micro-benchmarks of the analysis primitives.

These track the cost of the operations the Monte Carlo study multiplies by
thousands: one exact-test evaluation, one closed-form TTP saturation, one
full breakdown bisection.  Regressions here translate directly into
experiment wall-clock time.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.breakdown import breakdown_scale
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.analysis.rm import ExactRMTest
from repro.analysis.ttp import TTPAnalysis
from repro.messages.generators import MessageSetSampler, PeriodDistribution
from repro.network.standards import fddi_ring, ieee_802_5_ring, paper_frame_format
from repro.units import mbps


FRAME = paper_frame_format()


def _workload(n: int, seed: int = 0):
    sampler = MessageSetSampler(
        n_streams=n, periods=PeriodDistribution(mean_period_s=0.1, ratio=10.0)
    )
    return sampler.sample(np.random.default_rng(seed))


def test_bench_exact_test_construction_100(benchmark):
    """Precomputing the LSD structure for 100 streams (paper scale)."""
    periods = tuple(sorted(_workload(100).periods))
    benchmark(lambda: ExactRMTest(periods))


def test_bench_exact_test_evaluation_100(benchmark):
    """One schedulability evaluation against a prebuilt structure."""
    workload = _workload(100).rate_monotonic()
    test = ExactRMTest(workload.periods)
    costs = np.asarray(workload.payloads_bits) / mbps(10)
    benchmark(test.is_schedulable, costs, 0.001)


def test_bench_pdp_augmented_lengths_100(benchmark):
    analysis = PDPAnalysis(ieee_802_5_ring(mbps(10)), FRAME, PDPVariant.STANDARD)
    workload = _workload(100)
    benchmark(analysis.augmented_lengths, workload)


def test_bench_pdp_breakdown_bisection_20(benchmark):
    """A complete saturation search for one 20-stream set."""
    analysis = PDPAnalysis(
        ieee_802_5_ring(mbps(10), n_stations=20), FRAME, PDPVariant.MODIFIED
    )
    workload = _workload(20)
    benchmark(lambda: breakdown_scale(workload, analysis, rel_tol=1e-3))


def test_bench_ttp_closed_form_100(benchmark):
    """The closed-form TTP saturation scale at paper scale."""
    analysis = TTPAnalysis(fddi_ring(mbps(100)), FRAME)
    workload = _workload(100)
    benchmark(analysis.saturation_scale, workload)


def test_bench_ttp_schedulability_100(benchmark):
    analysis = TTPAnalysis(fddi_ring(mbps(100)), FRAME)
    workload = _workload(100)
    benchmark(analysis.is_schedulable, workload)


def test_bench_batch_lsd_evaluation_64x100(benchmark):
    """64 cost vectors through one stacked is_schedulable_batch call."""
    workload = _workload(100).rate_monotonic()
    test = ExactRMTest(workload.periods)
    base = np.asarray(workload.payloads_bits) / mbps(10)
    scales = np.linspace(0.1, 3.0, 64)
    costs = scales[:, None] * base[None, :]
    benchmark(test.is_schedulable_batch, costs, 0.001)


def test_bench_stacked_probe_16x100(benchmark):
    """One scale_prober probe over 16 paper-scale sets, one row each: the
    step of the lockstep breakdown search in Figure 1."""
    analysis = PDPAnalysis(ieee_802_5_ring(mbps(10)), FRAME, PDPVariant.STANDARD)
    sampler = MessageSetSampler(
        n_streams=100, periods=PeriodDistribution(mean_period_s=0.1, ratio=10.0)
    )
    probe = analysis.scale_prober(sampler.sample_many(np.random.default_rng(0), 16))
    indices = np.arange(16)
    scales = np.linspace(0.5, 2.0, 16)
    benchmark(probe, indices, scales)


def test_bench_vectorized_augmented_lengths_64x100(benchmark):
    """The vectorized C'_i kernel over a (64, 100) payload matrix."""
    from repro.analysis.pdp import pdp_augmented_lengths

    ring = ieee_802_5_ring(mbps(10))
    payloads = np.asarray(_workload(100).payloads_bits)
    scales = np.linspace(0.1, 3.0, 64)
    matrix = scales[:, None] * payloads[None, :]
    benchmark(
        pdp_augmented_lengths, matrix, ring, FRAME, PDPVariant.STANDARD
    )


def test_bench_lockstep_bisection_10x20(benchmark):
    """Batched saturation search over ten 20-stream sets in lockstep."""
    from repro.analysis.breakdown import breakdown_scales_batch

    analysis = PDPAnalysis(
        ieee_802_5_ring(mbps(10), n_stations=20), FRAME, PDPVariant.MODIFIED
    )
    sampler = MessageSetSampler(
        n_streams=20, periods=PeriodDistribution(mean_period_s=0.1, ratio=10.0)
    )
    workloads = sampler.sample_many(np.random.default_rng(0), 10)
    benchmark(
        lambda: breakdown_scales_batch(workloads, analysis, rel_tol=1e-3)
    )
