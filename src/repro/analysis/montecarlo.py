"""Monte Carlo estimation of average breakdown utilization (Section 6.1).

The *average breakdown utilization* of a protocol is the expected
utilization of a message set drawn from the saturated schedulable class.
Following Lehoczky, Sha & Ding, it is estimated by sampling random message
sets from the period/length distributions, scaling each to its saturation
boundary, and averaging the resulting utilizations.

The estimator returns the sample mean together with its standard error and
a normal-approximation confidence interval, so experiment code can report
how trustworthy each plotted point is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.breakdown import (
    SchedulabilityPredicate,
    SupportsBatchScaleProbe,
    SupportsSaturationScale,
    breakdown_utilization,
    breakdown_utilizations_batch,
)
from repro.errors import ConfigurationError
from repro.messages.generators import MessageSetSampler
from repro.messages.message_set import MessageSet
from repro.obs import metrics as _metrics

#: Monte Carlo accounting: sampled sets and the two degenerate breakdown
#: outcomes (scale 0 — overheads alone unschedulable — versus scale inf).
#: Partitioning-invariant: counted per estimate, inside the grid cell.
_SETS_SAMPLED = _metrics.counter("montecarlo.sets_sampled")
_DEGENERATE = _metrics.counter("montecarlo.degenerate_sets")
_ZERO_SCALE = _metrics.counter("montecarlo.zero_scale_sets")
_INF_SCALE = _metrics.counter("montecarlo.infinite_scale_sets")

__all__ = [
    "AverageBreakdownEstimate",
    "StreamingBreakdownEstimate",
    "average_breakdown_utilization",
    "breakdown_samples_for_sets",
    "streaming_average_breakdown_utilization",
]


@dataclass(frozen=True)
class AverageBreakdownEstimate:
    """A Monte Carlo estimate of the average breakdown utilization.

    Attributes:
        mean: sample mean of the per-set breakdown utilizations.
        std: sample standard deviation (ddof=1; 0 for a single sample).
        n_sets: number of message sets sampled.
        samples: the individual breakdown utilizations.
        degenerate_sets: how many sampled sets had no finite positive
            breakdown point (counted into the mean as utilization 0 when
            the scale was 0 — overheads alone unschedulable — and excluded
            when infinite, which cannot occur for positive payload laws).
    """

    mean: float
    std: float
    n_sets: int
    samples: tuple[float, ...]
    degenerate_sets: int = 0

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        if self.n_sets <= 1:
            return float("inf") if self.n_sets == 1 else float("nan")
        return self.std / math.sqrt(self.n_sets)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation confidence interval (default 95%)."""
        if self.n_sets <= 1:
            return (float("-inf"), float("inf"))
        half = z * self.stderr
        return (self.mean - half, self.mean + half)


def breakdown_samples_for_sets(
    predicate: SchedulabilityPredicate | SupportsSaturationScale,
    message_sets: Sequence[MessageSet],
    bandwidth_bps: float,
    rel_tol: float = 1e-4,
) -> tuple[list[float], int, int]:
    """Breakdown utilizations of already-sampled sets; the shared core of
    the fixed-N and streaming estimators.

    Returns ``(samples, zero_scale_count, infinite_scale_count)`` with the
    degenerate accounting of :func:`average_breakdown_utilization`
    (zero-scale sets appear in ``samples`` as exact 0.0, infinite-scale
    sets are skipped).
    Deliberately increments **no** Monte Carlo metrics — the callers
    account folded work themselves, so speculative streaming chunks that
    end up discarded never inflate the counters.
    """
    if isinstance(predicate, (SupportsSaturationScale, SupportsBatchScaleProbe)):
        results = breakdown_utilizations_batch(
            message_sets, predicate, bandwidth_bps, rel_tol
        )
    else:
        results = [
            breakdown_utilization(message_set, predicate, bandwidth_bps, rel_tol)
            for message_set in message_sets
        ]
    samples: list[float] = []
    zero_scale = 0
    inf_scale = 0
    for result in results:
        if result.scale == float("inf"):
            inf_scale += 1
            continue
        if result.scale == 0.0:
            zero_scale += 1
        samples.append(result.utilization)
    return samples, zero_scale, inf_scale


@dataclass(frozen=True)
class StreamingBreakdownEstimate:
    """Result of the accuracy-targeted streaming estimator.

    The estimate is built from *chunk means*: chunks are generated and
    evaluated independently (chunk ``k`` always uses the generator seeded
    ``[*seed, k]``), each contributes the mean of its breakdown samples,
    and the running mean/variance over those i.i.d. chunk means drives
    both the reported value and the stopping rule.

    Attributes:
        mean: mean of the folded chunk means.
        std: sample standard deviation of the chunk means (ddof=1).
        n_chunks: chunks folded into the estimate (at least one sample).
        chunk_sets: message sets generated per chunk.
        n_sets: breakdown samples folded (zero-scale sets included).
        evaluations: message sets generated and evaluated, including
            infinite-scale skips — the cost the stopping rule is spending.
        degenerate_sets: zero- plus infinite-scale sets encountered.
        eps: the target CI half-width the run was asked to reach.
        z: the normal quantile used for the half-width.
        converged: True when the half-width reached ``eps`` before the
            ``max_sets`` cap.
        chunk_means: the folded chunk means, in chunk order.
    """

    mean: float
    std: float
    n_chunks: int
    chunk_sets: int
    n_sets: int
    evaluations: int
    degenerate_sets: int
    eps: float
    z: float
    converged: bool
    chunk_means: tuple[float, ...]

    @property
    def stderr(self) -> float:
        """Standard error of the mean of chunk means."""
        if self.n_chunks <= 1:
            return float("inf") if self.n_chunks == 1 else float("nan")
        return self.std / math.sqrt(self.n_chunks)

    @property
    def half_width(self) -> float:
        """``z * stderr`` — the CI half-width the stopping rule tracks."""
        return self.z * self.stderr

    def confidence_interval(self) -> tuple[float, float]:
        """Normal-approximation confidence interval at the run's ``z``."""
        if self.n_chunks <= 1:
            return (float("-inf"), float("inf"))
        return (self.mean - self.half_width, self.mean + self.half_width)


@dataclass(frozen=True)
class _StreamingSpec:
    """Compact, picklable description of one streaming-estimation job.

    This — plus an integer chunk index — is everything a worker needs, so
    the parallel path ships no message-set objects at all (the sets are
    regenerated inside the worker from the chunk seed).
    """

    predicate: object
    sampler: MessageSetSampler
    bandwidth_bps: float
    rel_tol: float
    chunk_sets: int
    strata: int
    seed: tuple[int, ...]


def _streaming_chunk(
    spec: _StreamingSpec, chunk_index: int
) -> tuple[list[float], int, int]:
    """Generate and evaluate one chunk (module-level for pool pickling)."""
    rng = np.random.default_rng([*spec.seed, chunk_index])
    message_sets = spec.sampler.sample_many_stratified(
        rng, spec.chunk_sets, strata=spec.strata
    )
    return breakdown_samples_for_sets(
        spec.predicate, message_sets, spec.bandwidth_bps, spec.rel_tol
    )


def streaming_average_breakdown_utilization(
    predicate: SchedulabilityPredicate | SupportsSaturationScale,
    sampler: MessageSetSampler,
    bandwidth_bps: float,
    *,
    seed: "int | tuple[int, ...] | list[int] | None" = None,
    eps: float = 1e-3,
    z: float = 1.96,
    chunk_sets: int = 16,
    min_chunks: int = 4,
    max_sets: int = 4096,
    strata: int = 1,
    rel_tol: float = 1e-4,
    jobs: int | None = 1,
) -> StreamingBreakdownEstimate:
    """Estimate average breakdown utilization to a target accuracy.

    Instead of a fixed sample count, chunks of ``chunk_sets`` sets are
    generated, pushed through the batched breakdown kernels, and folded
    into a Welford-style running mean/variance of chunk means until the
    normal-approximation CI half-width drops below ``eps`` (after at
    least ``min_chunks`` folded chunks), or the ``max_sets`` evaluation
    cap is hit — whichever comes first.

    Variance reduction: ``strata`` applies Latin-hypercube period
    stratification within each chunk (see
    :meth:`MessageSetSampler.sample_many_stratified`).  Because paired
    protocol comparisons evaluate PDP and TTP on the *same* sampled sets
    (same seed → same chunks), stratification is automatically paired
    across protocols too.  With ``strata=1`` chunk ``k`` is
    bit-identical to the fixed-N path's first ``chunk_sets`` draws from
    ``default_rng([*seed, k])``.

    Determinism: chunk ``k`` depends only on ``(seed, k)`` and chunks are
    folded strictly in index order, so the returned estimate is identical
    for every ``jobs`` value — workers merely compute chunks
    speculatively in waves, and any chunks past the stopping point are
    discarded (their wall-clock work is the price of parallelism; folded
    Monte Carlo metrics are accounted by the parent only for folded
    chunks, though predicate-internal metrics from speculative chunks do
    merge).

    Args:
        seed: an int or a sequence of ints; chunk ``k`` uses
            ``np.random.default_rng([*seed, k])``.  None draws fresh
            entropy (the run is then not reproducible).
        jobs: worker processes for speculative chunk evaluation; 1 runs
            inline, 0 means all cores (the estimate never changes).
    """
    if eps <= 0:
        raise ConfigurationError(f"eps must be positive, got {eps!r}")
    if z <= 0:
        raise ConfigurationError(f"z must be positive, got {z!r}")
    if chunk_sets < 1:
        raise ConfigurationError(f"chunk_sets must be >= 1, got {chunk_sets!r}")
    if min_chunks < 2:
        raise ConfigurationError(f"min_chunks must be >= 2, got {min_chunks!r}")
    if max_sets < chunk_sets:
        raise ConfigurationError(
            f"max_sets ({max_sets!r}) must cover at least one chunk "
            f"({chunk_sets!r} sets)"
        )
    if seed is None:
        seed_tuple: tuple[int, ...] = (int(np.random.SeedSequence().entropy),)
    elif isinstance(seed, (int, np.integer)):
        seed_tuple = (int(seed),)
    else:
        seed_tuple = tuple(int(s) for s in seed)
    # Deferred import: the analysis layer stays import-light, and the
    # experiments package imports analysis at module load.
    from repro.experiments.parallel import parallel_map, resolve_jobs

    spec = _StreamingSpec(
        predicate=predicate,
        sampler=sampler,
        bandwidth_bps=bandwidth_bps,
        rel_tol=rel_tol,
        chunk_sets=int(chunk_sets),
        strata=int(strata),
        seed=seed_tuple,
    )
    max_chunks = max(1, max_sets // chunk_sets)
    wave_size = max(1, resolve_jobs(jobs))

    count = 0  # folded chunks with at least one sample (Welford K)
    running_mean = 0.0
    running_m2 = 0.0
    chunk_means: list[float] = []
    n_samples = 0
    evaluations = 0
    degenerate = 0
    converged = False
    next_chunk = 0
    while next_chunk < max_chunks and not converged:
        wave = list(range(next_chunk, min(next_chunk + wave_size, max_chunks)))
        outcomes = parallel_map(
            _streaming_chunk,
            wave,
            shared=spec,
            jobs=jobs,
            label="mc-stream",
        )
        for chunk_index, (samples, zero_scale, inf_scale) in zip(wave, outcomes):
            next_chunk = chunk_index + 1
            evaluations += chunk_sets
            degenerate += zero_scale + inf_scale
            _SETS_SAMPLED.inc(chunk_sets)
            _ZERO_SCALE.inc(zero_scale)
            _INF_SCALE.inc(inf_scale)
            _DEGENERATE.inc(zero_scale + inf_scale)
            if samples:
                chunk_mean = float(np.mean(np.asarray(samples)))
                chunk_means.append(chunk_mean)
                n_samples += len(samples)
                count += 1
                delta = chunk_mean - running_mean
                running_mean += delta / count
                running_m2 += delta * (chunk_mean - running_mean)
            if count >= min_chunks:
                std = math.sqrt(running_m2 / (count - 1))
                if z * std / math.sqrt(count) <= eps:
                    converged = True
                    break

    std = math.sqrt(running_m2 / (count - 1)) if count > 1 else 0.0
    return StreamingBreakdownEstimate(
        mean=running_mean if count else 0.0,
        std=std,
        n_chunks=count,
        chunk_sets=int(chunk_sets),
        n_sets=n_samples,
        evaluations=evaluations,
        degenerate_sets=degenerate,
        eps=float(eps),
        z=float(z),
        converged=converged,
        chunk_means=tuple(chunk_means),
    )


def average_breakdown_utilization(
    predicate: SchedulabilityPredicate | SupportsSaturationScale,
    message_sets: Sequence[MessageSet],
    bandwidth_bps: float,
    rel_tol: float = 1e-4,
) -> AverageBreakdownEstimate:
    """Estimate the average breakdown utilization of a protocol.

    Every set of ``message_sets`` (a population drawn once, e.g. with
    :meth:`MessageSetSampler.sample_many`, and shared by every protocol
    and bandwidth it is compared across — paired sampling) is scaled to
    its saturation boundary, and the saturated utilizations are averaged.

    The two degenerate breakdown scales are accounted *asymmetrically*,
    and both are counted in ``degenerate_sets``:

    * scale ``inf`` (all-zero payloads): the set is **skipped** — it
      contributes no sample and does not enter the mean;
    * scale ``0``: the set is counted into ``degenerate_sets`` **and**
      contributes a sample of utilization exactly 0, so it *does* drag
      the mean down — the protocol cannot carry even infinitesimal
      synchronous load under those overheads, which is real behaviour (it
      happens to TTP at very low bandwidth), not a sampling artifact.

    This double accounting is deliberate and load-bearing: Figure 1's
    low-bandwidth means depend on scale-0 sets contributing zeros.
    ``n_sets + degenerate_sets`` can therefore exceed the population size.

    Analyses that support batched probing
    (:class:`~repro.analysis.breakdown.SupportsBatchScaleProbe`) search
    the whole population in one lockstep batched search, and closed-form
    ones take one exact evaluation per set; the verdicts and scales are
    identical to the scalar path either way.  A PDP population prepared
    as :class:`~repro.analysis.pdp.PreparedSets` brings its probe state
    along, so the search builds none.

    Args:
        predicate: a schedulability test — an analysis object
            (:class:`~repro.analysis.pdp.PDPAnalysis`,
            :class:`~repro.analysis.ttp.TTPAnalysis`) or a plain callable
            over message sets.
        message_sets: the sampled workload population (at least one set).
        bandwidth_bps: bandwidth at which utilizations are evaluated (must
            match the ring inside the predicate for meaningful results).
        rel_tol: relative tolerance of the bisection saturation search.
    """
    if len(message_sets) < 1:
        raise ConfigurationError("need at least one sampled message set")
    samples, zero_scale, inf_scale = breakdown_samples_for_sets(
        predicate, message_sets, bandwidth_bps, rel_tol
    )
    degenerate = zero_scale + inf_scale
    _ZERO_SCALE.inc(zero_scale)
    _INF_SCALE.inc(inf_scale)
    _SETS_SAMPLED.inc(len(message_sets))
    _DEGENERATE.inc(degenerate)
    if not samples:
        return AverageBreakdownEstimate(
            mean=0.0, std=0.0, n_sets=0, samples=(), degenerate_sets=degenerate
        )
    arr = np.asarray(samples)
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return AverageBreakdownEstimate(
        mean=float(np.mean(arr)),
        std=std,
        n_sets=int(arr.size),
        samples=tuple(float(s) for s in arr),
        degenerate_sets=degenerate,
    )
