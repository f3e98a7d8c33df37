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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import MessageSetError
from repro.messages.message_set import MessageSet
from repro.obs import metrics as _metrics

#: Saturation-search accounting.  ``probes`` counts physical scale
#: evaluations (speculative ones included), ``batch_calls`` the batched
#: predicate invocations of the lockstep search, and ``evals_per_set``
#: the per-set probe-chain lengths.  All of these are partitioning
#: invariant: the lockstep search runs per Monte Carlo chunk inside one
#: grid cell, so every ``--jobs`` value reports identical totals.
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


def _breakdown_cache_keys(
    predicate: object,
    message_sets: "Sequence[MessageSet]",
    rel_tol: float,
    max_doublings: int,
    entry: str,
):
    """``(store, per-set keys)`` when breakdown caching engages, else ``(None, None)``.

    Caching engages only when the predicate can describe itself — a
    ``cache_signature()`` method returning a JSON payload (``None`` opts
    out) — *and* a persistent cache directory is configured.  With no
    disk layer the searches always run: the differential fuzz harness
    compares the scalar and lockstep searches, and a memory-only memo
    would collapse that comparison into a cache lookup of itself.

    ``entry`` ("scale" vs "batch") keeps the two search paths' entries
    apart: their scales are bit-identical but their evaluation counts are
    not (the lockstep search reports speculative probes too).
    """
    describe = getattr(predicate, "cache_signature", None)
    if describe is None:
        return None, None
    from repro import cache as cache_mod  # deferred: analysis stays import-light

    store = cache_mod.result_cache()
    if store.directory is None:
        return None, None
    signature = describe()
    if signature is None:
        return None, None
    keys = [
        cache_mod.content_key(
            {
                "kind": "breakdown",
                "entry": entry,
                "predicate": signature,
                "streams": [[s.period_s, s.payload_bits, s.station] for s in ms],
                "rel_tol": rel_tol,
                "max_doublings": max_doublings,
            }
        )
        for ms in message_sets
    ]
    return store, keys


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

    When a persistent result cache is configured (USAGE.md §13) and the
    predicate exposes ``cache_signature()``, the search is memoised under
    a content key; the ``breakdown.*`` metrics then count only the
    searches actually run.

    Returns ``(scale, predicate_evaluations)``.
    """
    if len(message_set) == 0:
        raise MessageSetError("cannot saturate an empty message set")
    if rel_tol <= 0:
        raise MessageSetError(f"relative tolerance must be positive, got {rel_tol!r}")
    store, keys = _breakdown_cache_keys(
        predicate, (message_set,), rel_tol, max_doublings, "scale"
    )
    if store is not None:
        hit = store.get(keys[0], namespace="breakdown")
        if hit is not None:
            return float(hit[0]), int(hit[1])
    scale, evaluations = _breakdown_scale_uncached(
        message_set, predicate, rel_tol, max_doublings
    )
    if store is not None:
        store.put(keys[0], [scale, evaluations], namespace="breakdown")
    return scale, evaluations


def _breakdown_scale_uncached(
    message_set: MessageSet,
    predicate: SchedulabilityPredicate | SupportsSaturationScale,
    rel_tol: float,
    max_doublings: int,
) -> tuple[float, int]:
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
    return scale, evaluations


# -- lockstep batched search --------------------------------------------------

# Phases of the per-set search state machine.  The transitions replicate
# _bisect_scale step for step, so the batched search returns bit-identical
# scales as running breakdown_scale on each set independently.
_INIT, _UP, _DOWN, _BISECT, _ZERO, _DONE = range(6)

#: Speculative doubling probes per bracketing step.  The bracket phase
#: asks for several successive doublings (or halvings) in one batched
#: call and walks the verdicts sequentially, discarding the tail once the
#: bracket closes.  Deep speculation here is cheap relative to the
#: per-call overhead it removes: paper-scale sets rarely need more than
#: a handful of doublings, so most of the chain resolves in one step.
_SPEC_DOUBLINGS = 12

#: Speculative bisection depth: each step probes the full dyadic
#: candidate tree of this many future bisection levels in one batched
#: call (2^levels - 1 scales), then replays the sequential walk over the
#: precomputed verdicts.  The exact-test structure matrix — the dominant
#: memory traffic at paper scale — is read once per *step* instead of
#: once per level.  Five levels (31 candidate scales) resolves a
#: rel_tol=1e-3 bisection in two steps; deeper trees waste FLOPs.
_SPEC_BISECT_LEVELS = 5


def _bisect_candidates(lo: float, hi: float, levels: int) -> list[float]:
    """Every midpoint the next ``levels`` sequential bisection steps could
    visit, in breadth-first order (children of index ``j`` at ``2j+1``,
    ``2j+2``).

    Each point is computed with the identical float expression the scalar
    loop uses — ``(a + b) / 2.0`` on the walked bracket — so replaying
    the walk over these candidates reproduces its iterates bit for bit.
    """
    brackets = [(lo, hi)]
    points: list[float] = []
    for _ in range(levels):
        next_brackets: list[tuple[float, float]] = []
        for a, b in brackets:
            mid = (a + b) / 2.0
            points.append(mid)
            next_brackets.append((a, mid))
            next_brackets.append((mid, b))
        brackets = next_brackets
    return points


def _lockstep_bisect(
    message_sets: Sequence[MessageSet],
    predicate: SupportsBatchScaleProbe,
    rel_tol: float,
    max_doublings: int,
) -> list[tuple[float, int]]:
    """Advance every set's bracket simultaneously, one batched call per step.

    Each step emits a *speculative chunk* of scales per active set — the
    next few doublings while bracketing, the dyadic candidate tree while
    bisecting — so one batched predicate call covers several sequential
    iterations.  The walk over the returned verdicts replays
    ``_bisect_scale`` exactly and discards unused speculation, which keeps
    the scales bit-identical to the scalar search; only the reported
    evaluation counts include the extra speculative probes.
    """
    n = len(message_sets)
    probe = predicate.scale_prober(message_sets)
    phase = [
        _ZERO if ms.total_payload_bits() == 0 else _INIT for ms in message_sets
    ]
    lo = [0.0] * n
    hi = [0.0] * n
    doublings = [0] * n
    evals = [0] * n
    results: list[tuple[float, int]] = [(0.0, 0)] * n

    while True:
        indices: list[int] = []
        scales: list[float] = []
        owners: list[tuple[int, int, int]] = []  # (set, chunk start, length)
        for i in range(n):
            if phase[i] == _DONE:
                continue
            if phase[i] == _BISECT and hi[i] - lo[i] <= rel_tol * hi[i]:
                results[i] = (lo[i], evals[i])
                phase[i] = _DONE
                continue
            if phase[i] in (_INIT, _ZERO):
                chunk = [1.0]
            elif phase[i] == _UP:
                # Successive doublings, exactly the values the scalar loop
                # would compute (repeated * 2.0 is exact in binary).
                chunk, scale = [], hi[i]
                for _ in range(
                    max(1, min(_SPEC_DOUBLINGS, max_doublings - doublings[i]))
                ):
                    chunk.append(scale)
                    scale = scale * 2.0
            elif phase[i] == _DOWN:
                chunk, scale = [], lo[i]
                for _ in range(
                    max(1, min(_SPEC_DOUBLINGS, max_doublings - doublings[i]))
                ):
                    chunk.append(scale)
                    scale = scale / 2.0
            else:
                chunk = _bisect_candidates(lo[i], hi[i], _SPEC_BISECT_LEVELS)
            owners.append((i, len(scales), len(chunk)))
            indices.extend([i] * len(chunk))
            scales.extend(chunk)
        if not owners:
            _SETS_SATURATED.inc(n)
            for _, n_evals in results:
                _EVALS_PER_SET.observe(n_evals)
            return results

        _BATCH_CALLS.inc()
        _PROBES.inc(len(scales))
        verdicts = probe(indices, np.asarray(scales))
        for i, start, length in owners:
            chunk = scales[start : start + length]
            vchunk = verdicts[start : start + length]
            evals[i] += length
            if phase[i] == _ZERO:
                results[i] = (float("inf") if vchunk[0] else 0.0, evals[i])
                phase[i] = _DONE
            elif phase[i] == _INIT:
                if vchunk[0]:
                    lo[i], hi[i], phase[i] = 1.0, 2.0, _UP
                else:
                    hi[i], lo[i], phase[i] = 1.0, 0.5, _DOWN
                if max_doublings == 0:
                    results[i] = (
                        float("inf") if vchunk[0] else 0.0,
                        evals[i],
                    )
                    phase[i] = _DONE
            elif phase[i] == _UP:
                for ok in vchunk:
                    if not ok:
                        phase[i] = _BISECT
                        break
                    lo[i], hi[i] = hi[i], hi[i] * 2.0
                    doublings[i] += 1
                    if doublings[i] == max_doublings:
                        results[i] = (float("inf"), evals[i])
                        phase[i] = _DONE
                        break
            elif phase[i] == _DOWN:
                for ok in vchunk:
                    if ok:
                        phase[i] = _BISECT
                        break
                    hi[i], lo[i] = lo[i], lo[i] / 2.0
                    doublings[i] += 1
                    if doublings[i] == max_doublings:
                        results[i] = (0.0, evals[i])
                        phase[i] = _DONE
                        break
            else:  # _BISECT: walk the candidate tree along the verdicts
                idx = 0
                while idx < length:
                    ok = bool(vchunk[idx])
                    if ok:
                        lo[i] = chunk[idx]
                    else:
                        hi[i] = chunk[idx]
                    if hi[i] - lo[i] <= rel_tol * hi[i]:
                        results[i] = (lo[i], evals[i])
                        phase[i] = _DONE
                        break
                    idx = 2 * idx + 1 + (1 if ok else 0)


def breakdown_scales_batch(
    message_sets: Sequence[MessageSet],
    predicate: SchedulabilityPredicate | SupportsSaturationScale | SupportsBatchScaleProbe,
    rel_tol: float = 1e-4,
    max_doublings: int = 128,
) -> list[tuple[float, int]]:
    """Breakdown scales of many message sets with batched evaluations.

    Returns the **bit-identical scales** of ``[breakdown_scale(ms,
    predicate, ...) for ms in message_sets]``, but executed in *lockstep*:
    every step advances the bracket of every still-active set with a
    single batched predicate call, and each set's chunk probes several
    future iterations speculatively (one structure-matrix read covers a
    whole dyadic subtree of bisection candidates).  The reported per-set
    evaluation counts therefore *exceed* the scalar search's — they count
    physical probes, including discarded speculation.

    Dispatch, in order of preference:

    * closed-form analyses (:class:`SupportsSaturationScale`, e.g. the
      TTP) — one exact evaluation per set, nothing to batch;
    * batch-probing analyses (:class:`SupportsBatchScaleProbe`, e.g.
      :class:`~repro.analysis.pdp.PDPAnalysis`) — the lockstep search;
    * anything else — per-set :func:`breakdown_scale` fallback.

    With a persistent result cache configured (USAGE.md §13), hits are
    served per set and only the missing sets are searched; every set's
    lockstep result — scale *and* evaluation count — is independent of
    which other sets share the batch (each set's bracket advances on its
    own chunks), so subsetting cannot change any returned pair.
    """
    if rel_tol <= 0:
        raise MessageSetError(f"relative tolerance must be positive, got {rel_tol!r}")
    for message_set in message_sets:
        if len(message_set) == 0:
            raise MessageSetError("cannot saturate an empty message set")
    if not message_sets:
        return []
    store, keys = _breakdown_cache_keys(
        predicate, message_sets, rel_tol, max_doublings, "batch"
    )
    if store is None:
        return _breakdown_scales_batch_uncached(
            message_sets, predicate, rel_tol, max_doublings
        )
    results: "list[tuple[float, int] | None]" = [None] * len(message_sets)
    missing: list[int] = []
    for index, key in enumerate(keys):
        hit = store.get(key, namespace="breakdown")
        if hit is not None:
            results[index] = (float(hit[0]), int(hit[1]))
        else:
            missing.append(index)
    if missing:
        computed = _breakdown_scales_batch_uncached(
            [message_sets[i] for i in missing], predicate, rel_tol, max_doublings
        )
        for index, (scale, evaluations) in zip(missing, computed):
            results[index] = (scale, evaluations)
            store.put(keys[index], [scale, evaluations], namespace="breakdown")
    return results  # type: ignore[return-value]


def _breakdown_scales_batch_uncached(
    message_sets: Sequence[MessageSet],
    predicate: SchedulabilityPredicate | SupportsSaturationScale | SupportsBatchScaleProbe,
    rel_tol: float,
    max_doublings: int,
) -> list[tuple[float, int]]:
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
