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
  structure (scheduling points and the ``ceil(t/P)`` interference
  coefficients) depends only on the distinct periods, so it is precomputed
  once and then evaluated for many cost vectors — the breakdown search and
  the bandwidth sweep both exploit this heavily.  Period vectors that
  differ only in how often each period repeats share that structure (a
  caller may pass a ``kernel_for`` memo); each test adds only its stream
  cuts and group starts.  Verdicts run on per-period group cost sums;
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


def _union_points(distinct: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The union ``T`` of every group's scheduling points, in prefix order.

    ``distinct`` holds the distinct periods in increasing order.  ``T``
    is the lowest-priority group's point set: every multiple ``l·d_u``
    with ``l <= floor(d_max/d_u + 1e-12)``.  Returns ``(points, first)``
    where ``first[p]`` is the first group ``g`` whose ``R_g`` holds
    ``points[p]``.  A multiple ``l·d_u`` belongs to ``R_g`` iff ``u <= g``
    and ``l <= floor(d_g/d_u + 1e-12)``, and that reach is non-decreasing
    in ``g``, so one ``arange`` and one ``searchsorted`` per distinct
    period find every point's group.

    The points come back ordered by ``(first, value)``, which makes each
    ``R_g`` exactly the prefix with ``first <= g``.  That order is the
    ascending one unless a later period lies inside the ``1e-12``
    tolerance band above an earlier group's last multiple.  Filing a
    point one group early is the ``rm_prefix_cut_overrun`` mutant; the
    ``rm_exact_vs_rta`` fuzz property catches it.
    """
    values: list[np.ndarray] = []
    groups: list[np.ndarray] = []
    for u, d_u in enumerate(distinct):
        reach = np.floor(distinct[u:] / d_u + 1e-12)
        multiples = np.arange(1, int(reach[-1]) + 1)
        values.append(d_u * multiples)
        groups.append(u + np.searchsorted(reach, multiples))
    points = np.concatenate(values)
    first = np.concatenate(groups)
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


class _PointKernel:
    """Equation (4) for every period group at once, over the union points ``T``.

    There is one column per distinct period ``d_u``, and costs are the
    per-group sums ``S_u``.  At a point ``t`` every group from ``k(t)``
    on — the first whose ``ceil(t/d)`` is 1 — contributes its sum once,
    so the demand on group ``g`` at a point ``t`` of its ``R`` is

        ``A(t) + S_{g+1} - S_{k(t)} + B``

    with ``A(t) = sum_{u<k(t)} ceil(t/d_u)·S_u`` (one product with
    :attr:`matrix`, which is zero from ``k(t)`` on) and ``S`` the prefix
    sums of the group costs.  Group ``g`` passes iff some point of its
    prefix has ``A(t) - S_{k(t)} - t(1+1e-12) <= -(S_{g+1} + B)``: one
    running minimum over ``T`` answers every group.

    Attributes:
        points: ``T`` in prefix order (see :func:`_union_points`).
        thresholds: ``points * (1 + 1e-12)``, the comparison tolerance.
        matrix: ``(|T|, groups)`` interference coefficients
            ``ceil(t/d_u)`` where they exceed 1, else 0.
        unit_start: per point, the group index ``k(t)`` into the
            prefix sums.
        cuts: per group, the length of its prefix of ``points``.
    """

    __slots__ = ("points", "thresholds", "matrix", "unit_start", "cuts", "_last")

    def __init__(self, distinct: np.ndarray):
        points, first = _union_points(distinct)
        # ceil with a tolerance: t is an exact multiple of some P_k, and
        # floating-point noise must not push ceil(t/P_j) up a step when
        # t/P_j is integral.  Coefficients are non-increasing along the
        # sorted periods, so counting those above 1 locates k(t).
        coef = np.ceil(points[:, None] / distinct[None, :] - 1e-9)
        above = coef > 1.0
        self.points = points
        self.thresholds = points * (1.0 + 1e-12)
        self.matrix = np.where(above, coef, 0.0)
        self.unit_start = np.count_nonzero(above, axis=1)
        self.cuts = np.searchsorted(first, np.arange(distinct.size), side="right")
        self._last = self.cuts - 1

    def interference(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(A(t) - S_{k(t)}, S)`` for a group-sum vector or a batch of rows."""
        prefix = np.zeros(sums.shape[:-1] + (sums.shape[-1] + 1,))
        np.add.accumulate(sums, axis=-1, out=prefix[..., 1:])
        base = sums @ self.matrix.T
        base -= np.take(prefix, self.unit_start, axis=-1)
        return base, prefix

    def verdicts(self, sums: np.ndarray, blocking: float) -> np.ndarray:
        """Whether every group passes, per group-sum row (0-d for one vector)."""
        slack, prefix = self.interference(sums)
        slack -= self.thresholds
        np.minimum.accumulate(slack, axis=-1, out=slack)
        limits = prefix[..., 1:] + blocking
        return (np.take(slack, self._last, axis=-1) <= -limits).all(axis=-1)


class ExactRMTest:
    """The Lehoczky–Sha–Ding exact test with precomputed structure.

    Every stream's scheduling points ``R_i`` are a prefix of one union
    ``T`` (the lowest-priority stream's points), and streams sharing a
    period share their points and their ``ceil(t/P)`` coefficients.  The
    structure is therefore a ``|T| × m`` coefficient matrix over the
    ``m`` distinct periods plus per-group prefix lengths, independent of
    the stream count.

    Verdicts run on per-period group cost sums.  Within a group the last
    member in RM order is binding: its demand is the group's base plus
    the full group sum, and every earlier member's demand is the base
    plus a prefix of that sum.  The periods are sorted, so each group is
    a contiguous run and one ``np.add.reduceat`` forms the sums; when
    every period is distinct the costs already are the sums.  Evaluating
    a cost vector is then one matrix–vector product, one prefix sum and
    one running minimum over ``T`` (see :class:`_PointKernel`), and a
    batch (:meth:`is_schedulable_batch`) is one matrix–matrix product
    and the same row-wise scans.  Per-stream reports (:meth:`details`,
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
        self._group_starts = starts if repeats else None

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
        if self._group_starts is None:
            return costs
        return np.add.reduceat(costs, self._group_starts, axis=-1)

    def _evaluate(self, arr: np.ndarray, blocking: float) -> bool:
        """:meth:`is_schedulable` on an already-validated cost array."""
        return bool(self._kernel.verdicts(self._group_sums(arr), blocking))

    def is_schedulable(
        self, costs: Sequence[float], blocking: float = 0.0
    ) -> bool:
        """True iff every stream passes the exact test."""
        return self._evaluate(self._validate(costs, blocking), blocking)

    def is_schedulable_batch(
        self, costs_matrix: Sequence[Sequence[float]], blocking: float = 0.0
    ) -> np.ndarray:
        """Evaluate many cost vectors against the shared structure at once.

        ``costs_matrix`` has one row per candidate cost vector (shape
        ``(batch, n_streams)``); the return value is a boolean array with
        one verdict per row.  Validation runs once for the whole batch and
        the evaluation is one matrix product plus row-wise prefix sums and
        running minima, so a batch of ``B`` evaluations costs far less
        than ``B`` calls to :meth:`is_schedulable`.
        """
        mat = self._validate(costs_matrix, blocking, batch=True)
        return self._kernel.verdicts(self._group_sums(mat), blocking)

    def _load_ratios(
        self, arr: np.ndarray, blocking: float, indices: Sequence[int]
    ) -> list[tuple[float, float]]:
        """``(min_ratio, critical_point)`` per stream in ``indices``: the
        group base ``A(t) - S_{k(t)}`` plus the stream's own prefix sum
        ``S_{i+1}`` of the raw costs, plus ``B``."""
        base, _ = self._kernel.interference(self._group_sums(arr))
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
