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
from typing import Callable, Sequence

import numpy as np

from repro.analysis.breakdown import (
    SchedulabilityPredicate,
    SupportsSaturationScale,
    breakdown_utilizations_batch,
)
from repro.errors import ConfigurationError
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


@dataclass(frozen=True)
class StreamingBreakdownEstimate:
    """Result of the accuracy-targeted streaming estimator.

    The estimate is built from *chunk means*: chunks are drawn and
    evaluated independently (chunk ``k`` is always the same sets), each
    contributes the mean of its breakdown samples, and the running
    mean/variance over those i.i.d. chunk means drives both the reported
    value and the stopping rule.

    Attributes:
        mean: mean of the folded chunk means.
        std: sample standard deviation of the chunk means (ddof=1).
        n_chunks: chunks folded into the estimate (at least one sample).
        chunk_sets: message sets per chunk (the size of chunk 0).
        n_sets: breakdown samples folded (zero-scale sets included).
        evaluations: message sets scored, including
            infinite-scale skips — the cost the stopping rule is spending.
        degenerate_sets: zero- plus infinite-scale sets encountered.
        eps: the target CI half-width the run was asked to reach.
        z: the normal quantile used for the half-width.
        converged: True when the half-width reached ``eps`` before the
            ``max_chunks`` cap.
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


def streaming_average_breakdown_utilization(
    predicate: SchedulabilityPredicate | SupportsSaturationScale,
    chunk: Callable[[int], Sequence[MessageSet]],
    bandwidth_bps: float,
    *,
    eps: float = 1e-3,
    z: float = 1.96,
    min_chunks: int = 4,
    max_chunks: int = 256,
    rel_tol: float = 1e-4,
) -> StreamingBreakdownEstimate:
    """Estimate average breakdown utilization to a target accuracy.

    Instead of a fixed sample count, chunks ``chunk(0)``, ``chunk(1)``,
    ... are scored in index order with
    :func:`average_breakdown_utilization`, and their means are folded
    into a Welford-style running mean/variance of chunk means until the
    normal-approximation CI half-width drops below ``eps`` (after at
    least ``min_chunks`` folded chunks), or ``max_chunks`` chunks have
    been scored — whichever comes first.  A chunk with no samples (every
    set infinite-scale) is counted in ``evaluations`` but not folded.

    ``chunk(k)`` must return the same sets every time it is asked for
    ``k``, and chunks should be i.i.d. draws of one size;
    :meth:`repro.experiments.config.PaperParameters.sample_population`
    with ``chunk=k`` draws chunk ``k`` from ``default_rng([seed, k])``,
    prepared.  Paired protocol comparisons hand every protocol the same
    chunks, so period stratification within a chunk
    (:meth:`MessageSetSampler.sample_many` with ``strata > 1``) is
    paired across protocols too.  With plain sampling each folded chunk
    mean is bit-identical to the fixed-N estimate over that chunk.

    The Monte Carlo counters count exactly the scored chunks.

    Args:
        chunk: ``k -> message sets`` (at least one set per chunk).
        max_chunks: hard cap on scored chunks if the CI never tightens.
    """
    if eps <= 0:
        raise ConfigurationError(f"eps must be positive, got {eps!r}")
    if z <= 0:
        raise ConfigurationError(f"z must be positive, got {z!r}")
    if min_chunks < 2:
        raise ConfigurationError(f"min_chunks must be >= 2, got {min_chunks!r}")
    if max_chunks < 1:
        raise ConfigurationError(f"max_chunks must be >= 1, got {max_chunks!r}")

    count = 0  # folded chunks with at least one sample (Welford K)
    running_mean = 0.0
    running_m2 = 0.0
    chunk_means: list[float] = []
    chunk_sets = 0
    n_samples = 0
    evaluations = 0
    degenerate = 0
    converged = False
    for chunk_index in range(max_chunks):
        message_sets = chunk(chunk_index)
        estimate = average_breakdown_utilization(
            predicate, message_sets, bandwidth_bps, rel_tol
        )
        if chunk_index == 0:
            chunk_sets = len(message_sets)
        evaluations += len(message_sets)
        degenerate += estimate.degenerate_sets
        if estimate.n_sets:
            chunk_means.append(estimate.mean)
            n_samples += estimate.n_sets
            count += 1
            delta = estimate.mean - running_mean
            running_mean += delta / count
            running_m2 += delta * (estimate.mean - running_mean)
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
        chunk_sets=chunk_sets,
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
    results = breakdown_utilizations_batch(
        message_sets, predicate, bandwidth_bps, rel_tol
    )
    samples = [r.utilization for r in results if r.scale != float("inf")]
    inf_scale = len(results) - len(samples)
    zero_scale = sum(1 for r in results if r.scale == 0.0)
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
