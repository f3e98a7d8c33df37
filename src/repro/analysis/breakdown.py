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

:func:`breakdown_scales_batch` runs the same search for a whole
population: each set's search is a generator stepping through the
scalar iterates, and one batched probe per step answers every live set.
Both paths return the same ``(scale, evaluations)`` pair per set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import MessageSetError
from repro.messages.message_set import MessageSet
from repro.obs import metrics as _metrics

#: Saturation-search accounting.  ``probes`` counts physical scale
#: evaluations, including the bracketing look-ahead the lockstep search
#: discards; ``batch_calls`` the batched predicate invocations of the
#: lockstep search; ``evals_per_set`` the per-set evaluation counts,
#: which are the scalar search's on both paths; ``sets_saturated`` the
#: searched sets whose scale ends finite and positive (an all-zero set,
#: a never-saturating one or a hopeless one ends at ``inf`` or 0 and is
#: not counted), on both paths alike.  All of these are
#: partitioning invariant: the lockstep search runs per Monte Carlo
#: chunk inside one grid cell, so every ``--jobs`` value reports
#: identical totals.
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
    ``probe(indices, scales) -> verdicts``; the lockstep batched bisection
    issues one such call per search step instead of one scalar predicate
    call per set per step.
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
            only possible for all-zero payloads; ``0.0`` if even
            arbitrarily short messages are unschedulable, e.g. when fixed
            overheads alone exhaust the ring).
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
    if _saturated(scale):
        _SETS_SATURATED.inc()
    return scale, evaluations


def _saturated(scale: float) -> bool:
    """Whether a search ended at a finite, positive breakdown scale."""
    return 0.0 < scale < float("inf")


# -- lockstep batched search --------------------------------------------------

#: Bracketing look-ahead: each bracketing step probes this many
#: successive doublings (or halvings) in one batched call, and the
#: verdicts past the one that closes the bracket are discarded.  Picked
#: from the committed sweep over 1, 2, 4, 8 and 12 in EXPERIMENTS.md
#: ("Performance of the evaluation pipeline"); bisection probes one
#: midpoint per step.
_SPEC_DOUBLINGS = 4


def _search_steps(rel_tol: float, max_doublings: int):
    """:func:`_bisect_scale` for one set, as a generator.

    Yields the list of scales to probe next and receives their verdicts;
    returns ``(scale, evaluations)`` through ``StopIteration``.  Every
    iterate is the float expression of the scalar search, and only the
    verdicts the scalar search would have asked for are counted, so
    the result equals ``_bisect_scale``'s pair.
    """
    evaluations = 1
    up = bool((yield [1.0])[0])
    inner, edge = 1.0, (2.0 if up else 0.5)
    ahead: list[bool] = []  # look-ahead verdicts, next one last
    for doubling in range(max_doublings):
        if not ahead:
            chunk = [edge]
            while len(chunk) < min(_SPEC_DOUBLINGS, max_doublings - doubling):
                chunk.append(chunk[-1] * 2.0 if up else chunk[-1] / 2.0)
            ahead = (yield chunk)[::-1]
        evaluations += 1
        if ahead.pop() != up:
            break
        inner, edge = edge, (edge * 2.0 if up else edge / 2.0)
    else:
        return (float("inf") if up else 0.0), evaluations
    lo, hi = (inner, edge) if up else (edge, inner)
    while hi - lo > rel_tol * hi:
        mid = (lo + hi) / 2.0
        evaluations += 1
        if (yield [mid])[0]:
            lo = mid
        else:
            hi = mid
    return lo, evaluations


def _lockstep_bisect(
    message_sets: Sequence[MessageSet],
    predicate: SupportsBatchScaleProbe,
    rel_tol: float,
    max_doublings: int,
) -> list[tuple[float, int]]:
    """Run every set's :func:`_search_steps` with one batched probe per step.

    Each step gathers the scales every live search asks for into one
    ``probe(indices, scales)`` call and hands each search its own slice
    of the verdicts.  An all-zero-payload set is searched with no
    doublings: one probe at 1.0 classifies it, as in the scalar path.
    """
    probe = predicate.scale_prober(message_sets)
    results: list[tuple[float, int]] = [(0.0, 0)] * len(message_sets)
    searches = {
        i: _search_steps(
            rel_tol, 0 if ms.total_payload_bits() == 0 else max_doublings
        )
        for i, ms in enumerate(message_sets)
    }
    pending = {i: next(search) for i, search in searches.items()}
    while pending:
        indices = [i for i, chunk in pending.items() for _ in chunk]
        scales = [scale for chunk in pending.values() for scale in chunk]
        _BATCH_CALLS.inc()
        _PROBES.inc(len(scales))
        verdicts = probe(indices, np.asarray(scales)).tolist()
        start = 0
        asked, pending = pending, {}
        for i, chunk in asked.items():
            try:
                pending[i] = searches[i].send(verdicts[start : start + len(chunk)])
            except StopIteration as done:
                results[i] = done.value
            start += len(chunk)
    _SETS_SATURATED.inc(sum(_saturated(scale) for scale, _ in results))
    for _, evaluations in results:
        _EVALS_PER_SET.observe(evaluations)
    return results


def breakdown_scales_batch(
    message_sets: Sequence[MessageSet],
    predicate: SchedulabilityPredicate | SupportsSaturationScale | SupportsBatchScaleProbe,
    rel_tol: float = 1e-4,
    max_doublings: int = 128,
) -> list[tuple[float, int]]:
    """Breakdown scales of many message sets with batched evaluations.

    Returns exactly ``[breakdown_scale(ms, predicate, ...) for ms in
    message_sets]`` — scales *and* evaluation counts — but executed in
    *lockstep*: every step advances the search of every still-active set
    with a single batched predicate call.  While bracketing, a set asks
    for its next few doublings (or halvings) at once; while bisecting,
    for one midpoint.  Look-ahead probes past the one that closes the
    bracket are counted by the ``breakdown.probes`` metric but not in
    the returned evaluation counts.

    Dispatch, in order of preference:

    * closed-form analyses (:class:`SupportsSaturationScale`, e.g. the
      TTP) — one exact evaluation per set, nothing to batch;
    * batch-probing analyses (:class:`SupportsBatchScaleProbe`, e.g.
      :class:`~repro.analysis.pdp.PDPAnalysis`) — the lockstep search;
    * anything else — per-set :func:`breakdown_scale` fallback.
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
    return _result_from_scale(message_set, scale, evaluations, bandwidth_bps)


def _result_from_scale(
    message_set: MessageSet, scale: float, evaluations: int, bandwidth_bps: float
) -> BreakdownResult:
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
    """Batched counterpart of :func:`breakdown_utilization`.

    Runs :func:`breakdown_scales_batch` over the whole population, then
    evaluates the saturated utilizations exactly as the scalar path does
    (one scaled-set construction per set, not per probe).
    """
    pairs = breakdown_scales_batch(message_sets, predicate, rel_tol)
    return [
        _result_from_scale(ms, scale, evaluations, bandwidth_bps)
        for ms, (scale, evaluations) in zip(message_sets, pairs)
    ]
