"""Rate-monotonic scheduling theory (the substrate of Theorem 4.1).

The paper's PDP analysis is the Lehoczky–Sha–Ding (LSD) exact
characterization of rate-monotonic schedulability, extended with protocol
overheads (augmented message lengths ``C'_i``) and a blocking term ``B``.
This module implements the underlying theory in task-level terms:

* :func:`liu_layland_bound` — the classic sufficient utilization bound
  ``n (2^{1/n} - 1)`` of Liu & Layland.
* :func:`hyperbolic_bound_holds` — Bini's hyperbolic sufficient test, a
  tighter polynomial-time check used to seed saturation searches.
* :class:`ExactRMTest` — the LSD exact test over the scheduling points
  ``R_i = { l·P_k : k <= i, 1 <= l <= floor(P_i/P_k) }`` with an additive
  blocking term, exactly the form of the paper's equation (4).  The test
  structure (scheduling points, and the period multiples each point
  charges as interference) depends only on the distinct periods, so it is
  precomputed once and then evaluated for many cost vectors — the
  breakdown search and the bandwidth sweep both exploit this heavily.
  An evaluation is gathers, prefix sums and a running minimum; there is
  no matrix product, so a row's verdict does not depend on the rows
  evaluated beside it.  Period vectors that differ only in how often
  each period repeats share that structure (a caller may pass a
  ``kernel_for`` memo); each test adds only its stream cuts and group
  starts.  Verdicts run on per-period group cost sums;
  per-stream reports are derived on demand.
* :func:`response_time_analysis` — the equivalent iterative fixed-point
  test, kept as an independent oracle for property tests.

Throughout, tasks/streams are indexed in rate-monotonic priority order:
index 0 has the shortest period (highest priority).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import MessageSetError

__all__ = [
    "liu_layland_bound",
    "hyperbolic_bound_holds",
    "ExactRMTest",
    "StreamTestDetail",
    "response_time_analysis",
]


def liu_layland_bound(n: int) -> float:
    """The Liu–Layland sufficient utilization bound ``n (2^{1/n} - 1)``.

    Any set of ``n`` independent periodic tasks with total utilization at
    or below this bound is RM-schedulable.  Tends to ``ln 2 ≈ 0.693`` as
    ``n`` grows.
    """
    if n < 1:
        raise MessageSetError(f"need at least one task, got {n!r}")
    return n * (2.0 ** (1.0 / n) - 1.0)


def hyperbolic_bound_holds(utilizations: Sequence[float]) -> bool:
    """Bini's hyperbolic sufficient test: ``prod (U_i + 1) <= 2``.

    Strictly dominates the Liu–Layland bound (never rejects a set the LL
    bound accepts).  Used as a cheap pre-filter.
    """
    product = 1.0
    for u in utilizations:
        if u < 0:
            raise MessageSetError(f"utilization must be non-negative, got {u!r}")
        product *= u + 1.0
    return product <= 2.0


@dataclass(frozen=True)
class StreamTestDetail:
    """Per-stream outcome of the exact test.

    Attributes:
        index: stream position in RM priority order.
        schedulable: whether this stream meets its deadline.
        min_load_ratio: the minimized left-hand side of equation (4) —
            strictly below 1 means unsaturated, exactly 1 saturated,
            above 1 unschedulable.
        critical_point: the scheduling point ``t`` achieving the minimum.
    """

    index: int
    schedulable: bool
    min_load_ratio: float
    critical_point: float


def _ladder(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(unit, multiple)``: the pairs ``(u, l)`` for ``l = 1..counts[u]``,
    flat and in ``(u, l)`` order."""
    unit = np.repeat(np.arange(counts.size), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return unit, np.arange(1, unit.size + 1) - offsets


def _first_true(
    holds: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Per element, the least index in ``[lo, hi]`` where ``holds`` is true.

    ``holds`` maps an index array to a boolean array, must be false-then-
    true along each range and must hold at ``hi``.  One vectorised
    bisection step per halving of the widest range.
    """
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) // 2
        ok = holds(mid)
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid + 1)
    return hi


def _union_points(distinct: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The union ``T`` of every group's scheduling points, in prefix order.

    ``distinct`` holds the distinct periods in increasing order.  ``T``
    is the lowest-priority group's point set: every multiple ``l·d_u``
    with ``l <= floor(d_max/d_u + 1e-12)``.  Returns ``(points, first)``
    where ``first[p]`` is the first group ``g`` whose ``R_g`` holds
    ``points[p]``.  A multiple ``l·d_u`` belongs to ``R_g`` iff ``u <= g``
    and ``l <= floor(d_g/d_u + 1e-12)``, and that reach is non-decreasing
    in ``g``, so one vectorised bisection over the groups files every
    multiple at once.  A period ratio whose point count is not finite or
    beyond any index (a subnormal or huge period) raises
    :class:`MessageSetError`, without a floating-point warning.

    The points come back ordered by ``(first, value)``, which makes each
    ``R_g`` exactly the prefix with ``first <= g``.  That order is the
    ascending one unless a later period lies inside the ``1e-12``
    tolerance band above an earlier group's last multiple.  Filing a
    point one group early is the ``rm_prefix_cut_overrun`` mutant; the
    ``rm_exact_vs_rta`` fuzz property catches it.
    """
    with np.errstate(over="ignore"):
        reach = np.floor(distinct[-1] / distinct + 1e-12)
        total = reach.sum()
    if not total < np.iinfo(np.intp).max:
        raise MessageSetError(
            f"periods {distinct[0]:g} .. {distinct[-1]:g} need {total:g} "
            "scheduling points, more than can be counted"
        )
    unit, multiple = _ladder(reach.astype(np.intp))
    period = distinct[unit]
    first = _first_true(
        lambda g: np.floor(distinct[g] / period + 1e-12) >= multiple,
        unit,
        np.full(unit.size, distinct.size - 1),
    )
    points = period * multiple
    # Equal values from different (u, l) pairs are one point, owned by
    # the earliest group that reaches it.
    order = np.lexsort((first, points))
    points, first = points[order], first[order]
    keep = np.empty(points.size, dtype=bool)
    keep[0] = True
    np.not_equal(points[1:], points[:-1], out=keep[1:])
    points, first = points[keep], first[keep]
    order = np.lexsort((points, first))
    return points[order], first[order]


def _counted_multiples(t: np.ndarray | float, period: np.ndarray) -> np.ndarray:
    """How many multiples ``l·period`` (``l >= 1``) lie strictly below
    ``t``: ``ceil(t/period) - 1``, with a tolerance so that noise in an
    integral ``t/period`` cannot count the multiple at ``t`` itself."""
    return np.ceil(t / period - 1e-9) - 1.0


def _event_table(
    points: np.ndarray, distinct: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(events, counts)``: equation (4)'s interference as prefix sums.

    An *event* is a multiple ``l·d_u`` (``l >= 1``) of a distinct
    period; a point ``t`` counts it iff ``l <= ceil(t/d_u) - 1``
    (:func:`_counted_multiples`), and then the group sum ``S_u`` is
    charged once more at ``t``.  Counting is monotone in ``t``, so with
    the events ordered by the first point (in ascending value) that
    counts them, every point counts a prefix of that order.  Returns each
    event's group, in that order, and per point (in ``points``' order)
    the length of its prefix.  Only multiples the largest point counts
    are events; one vectorised bisection over the sorted points finds
    each event's first counting point.
    """
    ascending = np.sort(points)
    unit, multiple = _ladder(
        _counted_multiples(ascending[-1], distinct).astype(np.intp)
    )
    period = distinct[unit]
    first = _first_true(
        lambda i: _counted_multiples(ascending[i], period) >= multiple,
        np.zeros(unit.size, dtype=np.intp),
        np.full(unit.size, ascending.size - 1),
    )
    order = np.argsort(first, kind="stable")
    counts = np.searchsorted(
        first[order], np.searchsorted(ascending, points), side="right"
    )
    return unit[order], counts


class _PointKernel:
    """Equation (4) for every period group at once, over the union points ``T``.

    Costs are the per-group sums ``S_u`` over the distinct periods
    ``d_u``.  At a point ``t`` every group is charged ``ceil(t/d_u)``
    times, and ``ceil(t/d_u)`` is 1 for every group from the first one
    whose period reaches ``t``, so the demand on group ``g`` at a point
    ``t`` of its ``R`` is

        ``I(t) + S_{g+1} + B``,  ``I(t) = sum_u (ceil(t/d_u) - 1)·S_u``

    with ``S`` the prefix sums of the group costs.  ``I(t)`` charges
    ``S_u`` once per multiple of ``d_u`` strictly below ``t``; those
    multiples are the *events* of :func:`_event_table`, and each point
    counts a prefix of them, so one gather of the sums in event order,
    one prefix sum and one gather at the per-point counts give ``I`` at
    every point — no product, no BLAS call, and a row's floats do not
    depend on the rows evaluated beside it.  Group ``g`` passes iff some
    point of its prefix has ``I(t) - t(1+1e-12) <= -(S_{g+1} + B)``:
    one running minimum over ``T`` answers every group.

    :meth:`stacked` joins several kernels into one whose tables carry a
    leading structure axis; its evaluations take ``which``, the
    structure of each row, so rows of different period vectors are
    judged in one pass with the same arithmetic.

    Attributes:
        points: ``T`` in prefix order (see :func:`_union_points`).
        thresholds: ``points * (1 + 1e-12)``, the comparison tolerance.
        events: per event, the group it charges (see :func:`_event_table`).
        counts: per point, the number of events it counts.
        cuts: per group, the length of its prefix of ``points``.
    """

    __slots__ = ("points", "thresholds", "events", "counts", "cuts", "_last")

    def __init__(self, distinct: np.ndarray):
        points, first = _union_points(distinct)
        self.points = points
        self.thresholds = points * (1.0 + 1e-12)
        self.events, self.counts = _event_table(points, distinct)
        self.cuts = np.searchsorted(first, np.arange(distinct.size), side="right")
        self._last = self.cuts - 1

    @classmethod
    def stacked(cls, kernels: Sequence["_PointKernel | None"]) -> "_PointKernel":
        """One kernel whose structure ``s`` is ``kernels[s]`` (None: a set
        without streams).

        Tables are padded to the widest structure.  A padded event is
        never counted; a padded point counts nothing and has an infinite
        threshold, and every padded group's last point is one of those
        (there is always one), so its running minimum is ``-inf`` and it
        passes.  Points and cuts are not kept.
        """
        real = [k for k in kernels if k is not None]
        n_events = max((k.events.size for k in real), default=0)
        n_points = max((k.points.size for k in real), default=0) + 1
        n_groups = max((k.cuts.size for k in real), default=0)
        stack = cls.__new__(cls)
        stack.points = stack.cuts = None
        stack.events = np.zeros((len(kernels), n_events), dtype=np.intp)
        stack.counts = np.zeros((len(kernels), n_points), dtype=np.intp)
        stack.thresholds = np.full((len(kernels), n_points), np.inf)
        stack._last = np.full((len(kernels), n_groups), n_points - 1)
        for s, kernel in enumerate(kernels):
            if kernel is not None:
                stack.events[s, : kernel.events.size] = kernel.events
                stack.counts[s, : kernel.counts.size] = kernel.counts
                stack.thresholds[s, : kernel.thresholds.size] = kernel.thresholds
                stack._last[s, : kernel._last.size] = kernel._last
        return stack

    @staticmethod
    def _take(values: np.ndarray, table: np.ndarray, which) -> np.ndarray:
        """``values[..., table]``, or with ``which`` row ``r`` of the
        ``(rows, width)`` values read through ``table[which[r]]``."""
        if which is None:
            return values.take(table, axis=-1)
        flat = table[which]
        flat += values.shape[-1] * np.arange(which.size)[:, None]
        return values.take(flat)

    def interference(
        self, sums: np.ndarray, which: np.ndarray | None = None
    ) -> np.ndarray:
        """``I(t)`` at every point, for a group-sum vector or a batch of rows."""
        charges = self._take(sums, self.events, which)
        running = np.zeros(charges.shape[:-1] + (charges.shape[-1] + 1,))
        np.add.accumulate(charges, axis=-1, out=running[..., 1:])
        return self._take(running, self.counts, which)

    def verdicts(
        self, sums: np.ndarray, blocking: float, which: np.ndarray | None = None
    ) -> np.ndarray:
        """Whether every group passes, per group-sum row (0-d for one vector)."""
        slack = self.interference(sums, which)
        slack -= self.thresholds if which is None else self.thresholds[which]
        np.minimum.accumulate(slack, axis=-1, out=slack)
        limits = np.add.accumulate(sums, axis=-1)
        limits += blocking
        return (self._take(slack, self._last, which) <= -limits).all(axis=-1)


class ExactRMTest:
    """The Lehoczky–Sha–Ding exact test with precomputed structure.

    Every stream's scheduling points ``R_i`` are a prefix of one union
    ``T`` (the lowest-priority stream's points), and streams sharing a
    period share their points and their interference.  The structure is
    therefore the points, the period multiples that charge interference
    (each point counts a prefix of them) and per-group prefix lengths,
    all over the ``m`` distinct periods and independent of the stream
    count.

    Verdicts run on per-period group cost sums.  Within a group the last
    member in RM order is binding: its demand is the group's base plus
    the full group sum, and every earlier member's demand is the base
    plus a prefix of that sum.  The periods are sorted, so each group is
    a contiguous run and one ``np.add.reduceat`` forms the sums; when
    every period is distinct the costs already are the sums.  Evaluating
    a cost vector is then a gather of the sums in event order, two
    prefix sums and one running minimum over ``T`` (see
    :class:`_PointKernel`); a batch (:meth:`is_schedulable_batch`) runs
    the same scans row-wise, so each row's verdict is bit-identical to
    :meth:`is_schedulable` on it.  Per-stream reports (:meth:`details`,
    :meth:`stream_load_ratio`) are derived on demand from the group base
    plus each stream's own prefix sum of the raw costs.

    Args:
        periods: task periods in *non-decreasing* order (RM priority
            order).  A non-monotone sequence is rejected: silently sorting
            would desynchronize the caller's cost vector.
        kernel_for: optional memo mapping the distinct periods (sorted,
            as a float array) to their :class:`_PointKernel`.  It is
            consulted only when ``periods`` repeats a period, so a memo
            that caches whole tests can hand out the kernel of the test
            over the distinct periods.  Without it the kernel is built.
    """

    def __init__(
        self,
        periods: Sequence[float],
        *,
        kernel_for: Callable[[np.ndarray], _PointKernel] | None = None,
    ):
        periods_arr = np.asarray(periods, dtype=float)
        if periods_arr.ndim != 1 or periods_arr.size == 0:
            raise MessageSetError("periods must be a non-empty 1-D sequence")
        if (periods_arr <= 0).any():
            raise MessageSetError("periods must be positive")
        if (periods_arr[1:] < periods_arr[:-1]).any():
            raise MessageSetError(
                "periods must be in non-decreasing (rate-monotonic) order"
            )
        self._periods = periods_arr
        # For stream i the scheduling points are all multiples l·P_k with
        # k <= i and l·P_k <= P_i.  They are built once per distinct
        # period (_union_points) and R_i is stored as its prefix length.
        distinct, starts, counts = np.unique(
            periods_arr, return_index=True, return_counts=True
        )
        repeats = distinct.size < periods_arr.size
        if repeats and kernel_for is not None:
            self._kernel = kernel_for(distinct)
        else:
            self._kernel = _PointKernel(distinct)
        self._stream_cuts = np.repeat(self._kernel.cuts, counts)
        self._group_starts = starts
        self._repeats = repeats

    @property
    def periods(self) -> np.ndarray:
        """The period vector (read-only view)."""
        view = self._periods.view()
        view.flags.writeable = False
        return view

    @property
    def n_streams(self) -> int:
        """Number of streams the test was built for."""
        return self._periods.size

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._periods.size:
            raise MessageSetError(
                f"stream index {index!r} out of range for "
                f"{self._periods.size} streams"
            )

    def scheduling_points(self, index: int) -> np.ndarray:
        """The scheduling points ``R_i`` for stream ``index`` (ascending)."""
        self._check_index(index)
        return np.sort(self._kernel.points[: self._stream_cuts[index]])

    # -- evaluation --------------------------------------------------------------

    def _validate(
        self, costs: Sequence[float], blocking: float, batch: bool = False
    ) -> np.ndarray:
        """Costs as a float array of shape ``(n,)``, or ``(batch, n)``."""
        arr = np.asarray(costs, dtype=float)
        n = self._periods.size
        if arr.ndim != 1 + batch or arr.shape[-1] != n:
            expected = f"a (batch, {n}) cost matrix" if batch else f"{n} costs"
            raise MessageSetError(f"expected {expected}, got shape {arr.shape}")
        if np.any(arr < 0):
            raise MessageSetError("costs must be non-negative")
        if blocking < 0:
            raise MessageSetError(f"blocking must be non-negative, got {blocking!r}")
        return arr

    def _group_sums(self, costs: np.ndarray) -> np.ndarray:
        """Per-period cost sums of a cost vector or a batch of rows."""
        if not self._repeats:
            return costs
        return np.add.reduceat(costs, self._group_starts, axis=-1)

    def is_schedulable(
        self, costs: Sequence[float], blocking: float = 0.0
    ) -> bool:
        """True iff every stream passes the exact test."""
        arr = self._validate(costs, blocking)
        return bool(self._kernel.verdicts(self._group_sums(arr), blocking))

    def is_schedulable_batch(
        self, costs_matrix: Sequence[Sequence[float]], blocking: float = 0.0
    ) -> np.ndarray:
        """Evaluate many cost vectors against the shared structure at once.

        ``costs_matrix`` has one row per candidate cost vector (shape
        ``(batch, n_streams)``); the return value is a boolean array with
        one verdict per row.  Validation runs once for the whole batch and
        the evaluation is one pass of row-wise gathers, prefix sums and
        running minima, so a batch of ``B`` evaluations costs far less
        than ``B`` calls to :meth:`is_schedulable`, and each row's verdict
        equals that call's bit for bit.
        """
        mat = self._validate(costs_matrix, blocking, batch=True)
        return self._kernel.verdicts(self._group_sums(mat), blocking)

    def _load_ratios(
        self, arr: np.ndarray, blocking: float, indices: Sequence[int]
    ) -> list[tuple[float, float]]:
        """``(min_ratio, critical_point)`` per stream in ``indices``: the
        interference ``I(t)`` plus the stream's own prefix sum ``S_{i+1}``
        of the raw costs, plus ``B``."""
        base = self._kernel.interference(self._group_sums(arr))
        own = np.cumsum(arr)
        out = []
        for i in indices:
            cut = self._stream_cuts[i]
            points = self._kernel.points[:cut]
            ratios = (base[:cut] + own[i] + blocking) / points
            best = int(np.argmin(ratios))
            out.append((float(ratios[best]), float(points[best])))
        return out

    def stream_load_ratio(
        self, index: int, costs: Sequence[float], blocking: float = 0.0
    ) -> tuple[float, float]:
        """Minimized LHS of equation (4) for one stream.

        Returns ``(min_ratio, critical_point)``; the stream is schedulable
        iff ``min_ratio <= 1``.
        """
        self._check_index(index)
        arr = self._validate(costs, blocking)
        return self._load_ratios(arr, blocking, [index])[0]

    def details(
        self, costs: Sequence[float], blocking: float = 0.0
    ) -> list[StreamTestDetail]:
        """Full per-stream report (no early exit).

        The interference at every union point is computed once; each
        stream then reads its own prefix.
        """
        arr = self._validate(costs, blocking)
        return [
            StreamTestDetail(
                index=i,
                schedulable=ratio <= 1.0 + 1e-12,
                min_load_ratio=ratio,
                critical_point=point,
            )
            for i, (ratio, point) in enumerate(
                self._load_ratios(arr, blocking, range(arr.size))
            )
        ]


def response_time_analysis(
    costs: Sequence[float],
    periods: Sequence[float],
    blocking: float = 0.0,
    max_iterations: int = 10_000,
) -> list[float]:
    """Iterative response-time analysis (Joseph & Pandya / Audsley).

    Computes, for each stream in RM order, the fixed point of

        ``R = C_i + B + sum_{j<i} ceil(R / P_j) * C_j``.

    The stream is schedulable iff its response time is at most its period.
    The iteration is cut off once ``R`` exceeds the period (the exact value
    past the deadline is irrelevant) and the period+cost upper bound is
    returned in that case, capped for reporting.

    This is mathematically equivalent to the LSD test and serves as an
    independent oracle in property tests.
    """
    costs_arr = np.asarray(costs, dtype=float)
    periods_arr = np.asarray(periods, dtype=float)
    if costs_arr.shape != periods_arr.shape:
        raise MessageSetError("costs and periods must have matching shapes")
    if np.any(np.diff(periods_arr) < 0):
        raise MessageSetError("periods must be in non-decreasing order")
    if np.any(costs_arr < 0) or np.any(periods_arr <= 0) or blocking < 0:
        raise MessageSetError("costs/blocking must be >= 0 and periods > 0")

    response_times: list[float] = []
    for i in range(costs_arr.size):
        deadline = periods_arr[i]
        response = costs_arr[i] + blocking
        for _ in range(max_iterations):
            interference = np.sum(
                np.ceil(response / periods_arr[:i] - 1e-9) * costs_arr[:i]
            )
            updated = costs_arr[i] + blocking + interference
            if updated > deadline * (1.0 + 1e-12):
                response = updated
                break
            if abs(updated - response) <= 1e-12 * max(1.0, deadline):
                response = updated
                break
            response = updated
        response_times.append(float(response))
    return response_times
