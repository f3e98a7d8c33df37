"""Saturation scaling: drive a message set to its breakdown boundary.

Section 6.1 of the paper partitions message sets into the *unsaturated
schedulable*, *saturated schedulable*, and *unschedulable* classes.  The
breakdown (saturated) point of a set is reached by scaling all payload
lengths by a common factor λ until schedulability is about to be lost; the
utilization at that point is the set's **breakdown utilization**.

Both protocols' schedulability tests are monotone non-increasing in the
payload scale (longer messages never help), so the boundary is found by
exponential bracketing followed by bisection.  Analyses that can do better
— the timed token protocol's Theorem 5.1 is *linear* in the payloads for
any scale-invariant TTRT policy — may expose a ``saturation_scale`` method,
which :func:`breakdown_scale` will use instead.

:func:`breakdown_scales_batch` runs the same search for a population,
its state in arrays and one batched probe per step; by the same
monotonicity one far-edge probe settles a set that never saturates or
always fails.  Each batched result equals the scalar one bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import MessageSetError
from repro.messages.message_set import MessageSet, scaled_utilizations
from repro.obs import metrics as _metrics

#: Saturation-search accounting.  ``probes`` counts physical scale
#: evaluations, including those the lockstep search discards (look-ahead
#: past the rung that closes a bracket, a far edge that settles nothing);
#: ``batch_calls`` its batched predicate calls; ``evals_per_set`` the
#: per-set evaluation counts, the scalar search's on both paths;
#: ``sets_saturated`` the searched sets whose scale ends finite and
#: positive, on both paths alike.  All are partitioning invariant: a
#: grid cell runs one lockstep search over its whole population, so
#: every ``--jobs`` value reports identical totals.
_PROBES = _metrics.counter("breakdown.probes")
_BATCH_CALLS = _metrics.counter("breakdown.batch_calls")
_SCALAR_SEARCHES = _metrics.counter("breakdown.scalar_searches")
_SETS_SATURATED = _metrics.counter("breakdown.sets_saturated")
_EVALS_PER_SET = _metrics.histogram("breakdown.evals_per_set")

__all__ = [
    "SchedulabilityPredicate",
    "SupportsSaturationScale",
    "SupportsBatchScaleProbe",
    "BreakdownResult",
    "breakdown_scale",
    "breakdown_scales_batch",
    "breakdown_utilization",
    "breakdown_utilizations_batch",
]

#: A predicate deciding whether a message set is schedulable.
SchedulabilityPredicate = Callable[[MessageSet], bool]


@runtime_checkable
class SupportsSaturationScale(Protocol):
    """Analyses that can compute the breakdown scale in closed form."""

    def saturation_scale(self, message_set: MessageSet) -> float:
        """Largest payload scale that keeps ``message_set`` schedulable."""
        ...  # pragma: no cover - protocol definition

    def is_schedulable(self, message_set: MessageSet) -> bool:
        """The ordinary schedulability test."""
        ...  # pragma: no cover - protocol definition


@runtime_checkable
class SupportsBatchScaleProbe(Protocol):
    """Analyses that can evaluate many (set, payload-scale) probes at once.

    ``scale_prober(message_sets)`` prepares per-set state once and returns
    ``probe(indices, scales) -> verdicts`` with a boolean array attribute
    ``probe.all_zero`` (per set, whether every payload is zero); the
    lockstep batched bisection issues one such call per search step
    instead of one scalar predicate call per set per step.
    """

    def scale_prober(
        self, message_sets: Sequence[MessageSet]
    ) -> Callable[[Sequence[int], np.ndarray], np.ndarray]:
        """Prepare a batched payload-scale predicate over ``message_sets``."""
        ...  # pragma: no cover - protocol definition

    def is_schedulable(self, message_set: MessageSet) -> bool:
        """The ordinary schedulability test."""
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class BreakdownResult:
    """Outcome of a saturation search.

    Attributes:
        scale: the breakdown scale λ* (``inf`` if the set never saturates —
            all-zero payloads, or payloads still schedulable at the last
            doubling; ``0.0`` if even arbitrarily short messages are
            unschedulable, e.g. when fixed overheads exhaust the ring).
        utilization: ``U(λ*·M)`` at the given bandwidth (0 when ``scale``
            is 0 or infinite).
        evaluations: number of predicate evaluations performed.
    """

    scale: float
    utilization: float
    evaluations: int

    @property
    def saturated(self) -> bool:
        """True when a finite positive breakdown point exists."""
        return 0.0 < self.scale < float("inf")


def _bisect_scale(
    message_set: MessageSet,
    predicate: SchedulabilityPredicate,
    rel_tol: float,
    max_doublings: int,
) -> tuple[float, int]:
    """Monotone bisection for the breakdown scale.  Returns (scale, evals)."""
    evaluations = 0

    def schedulable_at(scale: float) -> bool:
        nonlocal evaluations
        evaluations += 1
        return predicate(message_set.scaled(scale))

    # Bracket: find lo schedulable, hi unschedulable.
    if schedulable_at(1.0):
        lo, hi = 1.0, 2.0
        for _ in range(max_doublings):
            if not schedulable_at(hi):
                break
            lo, hi = hi, hi * 2.0
        else:
            return float("inf"), evaluations
    else:
        hi, lo = 1.0, 0.5
        for _ in range(max_doublings):
            if schedulable_at(lo):
                break
            hi, lo = lo, lo / 2.0
        else:
            return 0.0, evaluations

    # Bisect within [lo, hi].
    while hi - lo > rel_tol * hi:
        mid = (lo + hi) / 2.0
        if schedulable_at(mid):
            lo = mid
        else:
            hi = mid
    return lo, evaluations


def breakdown_scale(
    message_set: MessageSet,
    predicate: SchedulabilityPredicate | SupportsSaturationScale,
    rel_tol: float = 1e-4,
    max_doublings: int = 128,
) -> tuple[float, int]:
    """Largest payload scale λ keeping ``message_set`` schedulable.

    ``predicate`` is either a plain callable over message sets or an
    analysis object; analyses exposing ``saturation_scale`` (closed-form
    boundary) are used directly, others fall back to their
    ``is_schedulable`` method under bisection.

    Returns ``(scale, predicate_evaluations)``.
    """
    if len(message_set) == 0:
        raise MessageSetError("cannot saturate an empty message set")
    if rel_tol <= 0:
        raise MessageSetError(f"relative tolerance must be positive, got {rel_tol!r}")
    if isinstance(predicate, SupportsSaturationScale):
        _metrics.counter("breakdown.closed_form_sets").inc()
        return float(predicate.saturation_scale(message_set)), 1

    test: SchedulabilityPredicate
    if hasattr(predicate, "is_schedulable"):
        test = predicate.is_schedulable
    elif callable(predicate):
        test = predicate
    else:
        raise MessageSetError(
            f"predicate must be callable or an analysis object, got {predicate!r}"
        )

    if message_set.total_payload_bits() == 0:
        # Scaling a zero set does nothing; classify directly.
        _PROBES.inc()
        return (float("inf") if test(message_set) else 0.0), 1

    scale, evaluations = _bisect_scale(message_set, test, rel_tol, max_doublings)
    _SCALAR_SEARCHES.inc()
    _PROBES.inc(evaluations)
    _EVALS_PER_SET.observe(evaluations)
    if 0.0 < scale < float("inf"):
        _SETS_SATURATED.inc()
    return scale, evaluations


# -- lockstep batched search --------------------------------------------------

#: Bracketing look-ahead: rungs probed per bracketing step; verdicts past
#: the one closing a bracket are discarded.  Picked from the 1/2/3/4
#: sweep of the one-search-per-cell pipeline in EXPERIMENTS.md ("One
#: probe set-up per Figure 1 sweep").
_SPEC_DOUBLINGS = 2


def _far_edges(max_doublings: int) -> tuple[float, float, int]:
    """The bracketing loop's last doubling and last halving, each built
    by its own repeated ``* 2.0`` or ``/ 2.0``, and the evaluations of a
    search that runs out there (the probe at 1.0 plus every rung)."""
    up = down = 1.0
    for _ in range(max_doublings):
        up, down = up * 2.0, down / 2.0
    return up, down, 1 + max_doublings


def _bracket(inner: np.ndarray, edge: np.ndarray, up: np.ndarray):
    """``(lo, hi)`` of closed brackets: ``inner`` is the last rung with
    the verdict at 1.0 (``up``), ``edge`` the first rung without it."""
    return np.where(up, inner, edge), np.where(up, edge, inner)


def _lockstep_bisect(
    message_sets: Sequence[MessageSet],
    predicate: SupportsBatchScaleProbe,
    rel_tol: float,
    max_doublings: int,
) -> list[tuple[float, int]]:
    """:func:`_bisect_scale` for every set, one batched probe per step.

    State: each set's evaluation count and verdict at 1.0, the indices
    of the sets bracketing, and the indices, ``lo`` and ``hi`` of the sets
    bisecting.  Bracketing sets share their rung, so each step builds the
    next block of at most ``_SPEC_DOUBLINGS`` rungs once per direction by
    the scalar loop's ``* 2.0`` or ``/ 2.0``; bisecting sets ask for
    ``(lo + hi) / 2.0``.  The first block also asks for each far edge
    (:func:`_far_edges`): a far verdict equal to the one at 1.0 holds on
    every rung between (the predicate is monotone in the scale), so the
    set ends where the scalar loop runs out.  Counting only the verdicts
    the scalar search asks for gives its pairs.  An all-zero set
    (``probe.all_zero``) gets no doublings, as in the scalar path.
    """
    probe = predicate.scale_prober(message_sets)

    def ask(indices: np.ndarray, scales: np.ndarray) -> np.ndarray:
        _BATCH_CALLS.inc()
        _PROBES.inc(scales.size)
        return probe(indices, scales)

    n = len(message_sets)
    up = ask(np.arange(n), np.ones(n)).astype(bool)
    scales = np.where(up, np.inf, 0.0)  # where a search that runs out ends
    evaluations = np.ones(n, dtype=np.int64)
    far_up, far_down, ran_out = _far_edges(max_doublings)
    left, far, rung_up, rung_down = max_doublings, True, 1.0, 1.0
    bracketing = np.flatnonzero(~probe.all_zero) if left > 0 else np.arange(0)
    bisecting, lo, hi = np.arange(0), np.zeros(0), np.zeros(0)
    while bracketing.size or bisecting.size:
        b, mid = bracketing, (lo + hi) / 2.0
        if not b.size:
            went = ask(bisecting, mid)
        else:
            width = min(left, _SPEC_DOUBLINGS)
            far &= left > width  # a block that reaches the far edge probes it
            ups, downs = [rung_up], [rung_down]
            for _ in range(width):
                ups.append(ups[-1] * 2.0)
                downs.append(downs[-1] / 2.0)
            ladder = np.where(up[b, None], ups, downs)  # last rung, then block
            block, tail = b.size * width, (b if far else b[:0])
            verdicts = ask(
                np.concatenate([np.repeat(b, width), bisecting, tail]),
                np.concatenate(
                    [ladder[:, 1:].ravel(), mid, np.where(up[tail], far_up, far_down)]
                ),
            )
            agree = verdicts[:block].reshape(b.size, width) == up[b, None]
            first = agree.argmin(axis=1)
            closed = ~agree[np.arange(b.size), first]
            rows, first = np.flatnonzero(closed), first[closed]
            evaluations[b[rows]] = 2 + max_doublings - left + first
            new_lo, new_hi = _bracket(
                ladder[rows, first], ladder[rows, first + 1], up[b[rows]]
            )
            left, rung_up, rung_down = left - width, ups[-1], downs[-1]
            went, far_verdicts = np.split(verdicts[block:], [bisecting.size])
            stop = far_verdicts == up[b] if far else np.full(b.size, left == 0)
            evaluations[b[~closed & stop]] = ran_out
            bracketing, far = b[~closed & ~stop], False
        lo, hi = np.where(went, mid, lo), np.where(went, hi, mid)
        evaluations[bisecting] += 1
        if b.size:
            bisecting = np.concatenate([bisecting, b[rows]])
            lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        going = hi - lo > rel_tol * hi
        if not going.all():
            scales[bisecting[~going]] = lo[~going]
            bisecting, lo, hi = bisecting[going], lo[going], hi[going]
    _SETS_SATURATED.inc(int(np.count_nonzero((scales > 0.0) & (scales < np.inf))))
    for count in evaluations.tolist():
        _EVALS_PER_SET.observe(count)
    return list(zip(scales.tolist(), evaluations.tolist()))


def breakdown_scales_batch(
    message_sets: Sequence[MessageSet],
    predicate: SchedulabilityPredicate | SupportsSaturationScale | SupportsBatchScaleProbe,
    rel_tol: float = 1e-4,
    max_doublings: int = 128,
) -> list[tuple[float, int]]:
    """Breakdown scales of many message sets with batched evaluations.

    Returns exactly ``[breakdown_scale(ms, predicate, ...) for ms in
    message_sets]``, scales *and* evaluation counts.  Dispatch, in order
    of preference: closed-form analyses (:class:`SupportsSaturationScale`,
    e.g. the TTP) take one exact evaluation per set; batch-probing ones
    (:class:`SupportsBatchScaleProbe`, e.g.
    :class:`~repro.analysis.pdp.PDPAnalysis`) run the *lockstep* search
    of :func:`_lockstep_bisect`, one batched call per step for every live
    set; anything else falls back to per-set :func:`breakdown_scale`.
    """
    if rel_tol <= 0:
        raise MessageSetError(f"relative tolerance must be positive, got {rel_tol!r}")
    for message_set in message_sets:
        if len(message_set) == 0:
            raise MessageSetError("cannot saturate an empty message set")
    if not message_sets:
        return []
    if isinstance(predicate, SupportsSaturationScale):
        _metrics.counter("breakdown.closed_form_sets").inc(len(message_sets))
        return [(float(predicate.saturation_scale(ms)), 1) for ms in message_sets]
    if isinstance(predicate, SupportsBatchScaleProbe):
        return _lockstep_bisect(message_sets, predicate, rel_tol, max_doublings)
    return [
        breakdown_scale(ms, predicate, rel_tol, max_doublings)
        for ms in message_sets
    ]


def breakdown_utilization(
    message_set: MessageSet,
    predicate: SchedulabilityPredicate | SupportsSaturationScale,
    bandwidth_bps: float,
    rel_tol: float = 1e-4,
) -> BreakdownResult:
    """Breakdown utilization of ``message_set`` under ``predicate``.

    The utilization of the saturated set ``λ*·M`` at ``bandwidth_bps``;
    this is the quantity averaged by the Monte Carlo study of Section 6.
    """
    scale, evaluations = breakdown_scale(message_set, predicate, rel_tol)
    if scale <= 0.0 or scale == float("inf"):
        return BreakdownResult(scale=scale, utilization=0.0, evaluations=evaluations)
    utilization = message_set.scaled_utilization(scale, bandwidth_bps)
    return BreakdownResult(scale=scale, utilization=utilization, evaluations=evaluations)


def breakdown_utilizations_batch(
    message_sets: Sequence[MessageSet],
    predicate: SchedulabilityPredicate | SupportsSaturationScale | SupportsBatchScaleProbe,
    bandwidth_bps: float,
    rel_tol: float = 1e-4,
) -> list[BreakdownResult]:
    """Batched counterpart of :func:`breakdown_utilization`: the scales
    of :func:`breakdown_scales_batch`, then every saturated utilization in
    one :func:`~repro.messages.message_set.scaled_utilizations` array pass,
    bit for bit the scalar one (an unsaturated set gets factor 0, hence 0).
    """
    pairs = breakdown_scales_batch(message_sets, predicate, rel_tol)
    factors = [0.0 if s <= 0.0 or s == float("inf") else s for s, _ in pairs]
    utilizations = [0.0] * len(pairs)
    if any(factors):  # the scalar path checks the bandwidth only then
        utilizations = scaled_utilizations(message_sets, factors, bandwidth_bps)
    return [
        BreakdownResult(scale=scale, utilization=utilization, evaluations=evaluations)
        for (scale, evaluations), utilization in zip(pairs, utilizations)
    ]
