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
  structure (scheduling points and the ``ceil(t/P_j)`` interference
  matrices) depends only on the periods, so it is precomputed once and then
  evaluated for many cost vectors — the breakdown search and the bandwidth
  sweep both exploit this heavily.
* :func:`response_time_analysis` — the equivalent iterative fixed-point
  test, kept as an independent oracle for property tests.

Throughout, tasks/streams are indexed in rate-monotonic priority order:
index 0 has the shortest period (highest priority).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import MessageSetError

__all__ = [
    "liu_layland_bound",
    "hyperbolic_bound_holds",
    "ExactRMTest",
    "GroupedExactRMTest",
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
    """Equation (4) for every group at once, over the union points ``T``.

    Columns are cost entries laid out group by group (one per stream for
    :class:`ExactRMTest`, one per distinct period for
    :class:`GroupedExactRMTest`); ``columns_per_group`` gives the
    layout.  At a point ``t`` every column from ``k(t)`` on — the first
    group whose ``ceil(t/P)`` is 1 — contributes its cost once, so a
    column ``i`` with ``t`` in its ``R`` has demand

        ``A(t) + S_{i+1} - S_{k(t)} + B``

    with ``A(t) = sum_{j<k(t)} ceil(t/P_j)·C_j`` (one product with
    :attr:`matrix`, which is zero from ``k(t)`` on) and ``S`` the prefix
    sums of the costs.  Group ``g`` passes iff some point of its prefix
    has ``A(t) - S_{k(t)} - t(1+1e-12) <= -(S_end(g) + B)``: one running
    minimum over ``T`` answers every group.  The binding column of a
    group is its last one (the largest prefix sum), so only group ends
    are compared.

    Attributes:
        points: ``T`` in prefix order (see :func:`_union_points`).
        thresholds: ``points * (1 + 1e-12)``, the comparison tolerance.
        matrix: ``(|T|, columns)`` interference coefficients
            ``ceil(t/P_j)`` where they exceed 1, else 0.
        unit_start: per point, the column index ``k(t)`` into the
            prefix sums.
        cuts: per group, the length of its prefix of ``points``.
        ends: per group, the prefix-sum index one past its last column.
    """

    __slots__ = (
        "points", "thresholds", "matrix", "unit_start", "cuts", "ends", "_last"
    )

    def __init__(self, distinct: np.ndarray, columns_per_group: np.ndarray):
        points, first = _union_points(distinct)
        # ceil with a tolerance: t is an exact multiple of some P_k, and
        # floating-point noise must not push ceil(t/P_j) up a step when
        # t/P_j is integral.  Coefficients are non-increasing along the
        # sorted periods, so counting those above 1 locates k(t).
        coef = np.ceil(points[:, None] / distinct[None, :] - 1e-9)
        above = coef > 1.0
        group_start = np.zeros(distinct.size + 1, dtype=np.intp)
        np.cumsum(columns_per_group, out=group_start[1:])
        self.points = points
        self.thresholds = points * (1.0 + 1e-12)
        self.matrix = np.repeat(
            np.where(above, coef, 0.0), columns_per_group, axis=1
        )
        self.unit_start = group_start[np.count_nonzero(above, axis=1)]
        self.cuts = np.searchsorted(first, np.arange(distinct.size), side="right")
        self.ends = group_start[1:]
        self._last = self.cuts - 1

    def interference(self, costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(A(t) - S_{k(t)}, S)`` for a cost vector or a batch of rows."""
        prefix = np.zeros(costs.shape[:-1] + (costs.shape[-1] + 1,))
        np.add.accumulate(costs, axis=-1, out=prefix[..., 1:])
        base = costs @ self.matrix.T
        base -= np.take(prefix, self.unit_start, axis=-1)
        return base, prefix

    def _passes(self, slack: np.ndarray, limits: np.ndarray) -> np.ndarray:
        """Running minimum of ``slack``; each group's prefix minimum must
        reach its ``limits`` entry."""
        np.minimum.accumulate(slack, axis=-1, out=slack)
        return (np.take(slack, self._last, axis=-1) <= limits).all(axis=-1)

    def verdicts(self, costs: np.ndarray, blocking: float) -> np.ndarray:
        """Whether every group passes, per cost row (0-d for one vector)."""
        slack, prefix = self.interference(costs)
        slack -= self.thresholds
        limits = np.take(prefix, self.ends, axis=-1)
        limits += blocking
        return self._passes(slack, np.negative(limits, out=limits))

    def scaled_verdicts(
        self, costs: np.ndarray, scales: np.ndarray, blocking: float
    ) -> np.ndarray:
        """:meth:`verdicts` for ``scale * costs``, one row per scale."""
        base, prefix = self.interference(costs)
        return self._passes(
            scales[:, None] * base[None, :] - self.thresholds,
            -(scales[:, None] * prefix[None, self.ends] + blocking),
        )


class ExactRMTest:
    """The Lehoczky–Sha–Ding exact test with precomputed structure.

    Every stream's scheduling points ``R_i`` are a prefix of one union
    ``T`` (the lowest-priority stream's points), so the structure is a
    ``|T| × n`` coefficient matrix plus per-stream prefix lengths —
    about 0.2 MB for a paper-scale 100-stream set.  Evaluating a cost
    vector is one matrix–vector product, one prefix sum and one running
    minimum over ``T`` (see :class:`_PointKernel`); a batch of cost
    vectors (:meth:`is_schedulable_batch`) is one matrix–matrix product
    and the same row-wise scans.

    Args:
        periods: task periods in *non-decreasing* order (RM priority
            order).  A non-monotone sequence is rejected: silently sorting
            would desynchronize the caller's cost vector.
    """

    def __init__(self, periods: Sequence[float]):
        periods_arr = np.asarray(periods, dtype=float)
        if periods_arr.ndim != 1 or periods_arr.size == 0:
            raise MessageSetError("periods must be a non-empty 1-D sequence")
        if np.any(periods_arr <= 0):
            raise MessageSetError("periods must be positive")
        if np.any(np.diff(periods_arr) < 0):
            raise MessageSetError(
                "periods must be in non-decreasing (rate-monotonic) order"
            )
        self._periods = periods_arr
        self._build_structure()

    # -- structure ---------------------------------------------------------------

    def _build_structure(self) -> None:
        """Precompute the union scheduling points and per-stream prefixes.

        For stream ``i`` the scheduling points are all multiples ``l·P_k``
        with ``k <= i`` and ``l·P_k <= P_i`` — the times at which a
        higher-priority busy period can end.  Streams sharing a period
        share their points, so the points are built once per *distinct*
        period (:func:`_union_points`) and ``R_i`` is stored as the
        length of its prefix of ``T``.  The kernel matrix keeps one
        column per stream: a same-period neighbour contributes through
        the prefix sums exactly like the stream's own cost.
        """
        distinct, counts = np.unique(self._periods, return_counts=True)
        self._kernel = _PointKernel(distinct, counts)
        self._stream_cuts = np.repeat(self._kernel.cuts, counts)

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

    def scheduling_points(self, index: int) -> np.ndarray:
        """The scheduling points ``R_i`` for stream ``index`` (ascending)."""
        return np.sort(self._kernel.points[: self._stream_cuts[index]])

    # -- evaluation --------------------------------------------------------------

    def _validate_costs(self, costs: Sequence[float]) -> np.ndarray:
        arr = np.asarray(costs, dtype=float)
        if arr.shape != self._periods.shape:
            raise MessageSetError(
                f"expected {self._periods.size} costs, got shape {arr.shape}"
            )
        if np.any(arr < 0):
            raise MessageSetError("costs must be non-negative")
        return arr

    def _load_ratios(
        self, arr: np.ndarray, blocking: float, indices: Sequence[int]
    ) -> list[tuple[float, float]]:
        """``(min_ratio, critical_point)`` per stream in ``indices``."""
        base, prefix = self._kernel.interference(arr)
        out = []
        for i in indices:
            cut = self._stream_cuts[i]
            points = self._kernel.points[:cut]
            ratios = (base[:cut] + prefix[i + 1] + blocking) / points
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
        return self._load_ratios(self._validate_costs(costs), blocking, [index])[0]

    def _evaluate(self, arr: np.ndarray, blocking: float) -> bool:
        """:meth:`is_schedulable` on an already-validated cost array."""
        return bool(self._kernel.verdicts(arr, blocking))

    def is_schedulable(
        self, costs: Sequence[float], blocking: float = 0.0
    ) -> bool:
        """True iff every stream passes the exact test.

        One matrix–vector product over the union points gives every
        point's higher-priority interference; a running minimum then
        checks that each stream has at least one point of its prefix
        where the demand fits.
        """
        arr = self._validate_costs(costs)
        if blocking < 0:
            raise MessageSetError(f"blocking must be non-negative, got {blocking!r}")
        return self._evaluate(arr, blocking)

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
        mat = np.asarray(costs_matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != self._periods.size:
            raise MessageSetError(
                f"expected a (batch, {self._periods.size}) cost matrix, "
                f"got shape {mat.shape}"
            )
        if np.any(mat < 0):
            raise MessageSetError("costs must be non-negative")
        if blocking < 0:
            raise MessageSetError(f"blocking must be non-negative, got {blocking!r}")
        return self._kernel.verdicts(mat, blocking)

    def details(
        self, costs: Sequence[float], blocking: float = 0.0
    ) -> list[StreamTestDetail]:
        """Full per-stream report (no early exit).

        Costs are validated and the interference at every union point is
        computed once; each stream then reads its own prefix.
        """
        arr = self._validate_costs(costs)
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


class GroupedExactRMTest:
    """The LSD exact test aggregated over *distinct* periods.

    :class:`ExactRMTest` keeps one kernel column per stream, so its
    memory is ``O(|T| * n)`` — too much for 10^6 streams even with a
    small period catalogue.  This variant exploits the structure of
    equation (4) under shared periods: every member of a period group sees
    the same scheduling points and the same ``ceil(t/P)`` coefficients,
    and within a group the *last* member in RM order is binding (its
    demand is the group base plus the full group cost sum; every earlier
    member's demand is the base plus a prefix of that sum, which is never
    larger).  The whole set is therefore schedulable iff for every
    distinct period ``d_g`` there is a scheduling point ``t <= d_g`` with

        ``sum_{u <= g} ceil(t / d_u) * S_u + B <= t``

    where ``S_u`` is the summed cost of group ``u``.  The same union-point
    kernel as :class:`ExactRMTest` runs with one column per *distinct
    period* (``m`` columns, not ``n``), making the structure independent
    of stream count: evaluation is an ``O(n)`` group-sum (one
    ``bincount``) plus an ``O(|T| x m)`` product.

    The verdict is identical to :class:`ExactRMTest` for every cost
    vector (pinned by tests and the ``columnar_equiv`` fuzz property);
    intermediate demands may differ in the last bits because group costs
    are summed before the matrix product rather than inside it.

    Unlike :class:`ExactRMTest`, construction accepts periods in *any*
    order — RM priority is derived from the period values, and cost
    vectors are aggregated positionally against the constructor order.
    """

    def __init__(self, periods: Sequence[float]):
        periods_arr = np.asarray(periods, dtype=float)
        if periods_arr.ndim != 1 or periods_arr.size == 0:
            raise MessageSetError("periods must be a non-empty 1-D sequence")
        if np.any(periods_arr <= 0):
            raise MessageSetError("periods must be positive")
        self._periods = periods_arr
        self._distinct, self._inverse = np.unique(
            periods_arr, return_inverse=True
        )
        self._build_structure()

    def _build_structure(self) -> None:
        """Precompute the union-point kernel over the distinct periods."""
        self._kernel = _PointKernel(
            self._distinct, np.ones(self._distinct.size, dtype=np.intp)
        )

    @property
    def periods(self) -> np.ndarray:
        """The period vector in constructor order (read-only view)."""
        view = self._periods.view()
        view.flags.writeable = False
        return view

    @property
    def n_streams(self) -> int:
        """Number of streams the test was built for."""
        return self._periods.size

    @property
    def n_groups(self) -> int:
        """Number of distinct periods (kernel columns)."""
        return self._distinct.size

    # -- evaluation --------------------------------------------------------------

    def _validate_costs(self, costs: Sequence[float]) -> np.ndarray:
        arr = np.asarray(costs, dtype=float)
        if arr.shape != self._periods.shape:
            raise MessageSetError(
                f"expected {self._periods.size} costs, got shape {arr.shape}"
            )
        if np.any(arr < 0):
            raise MessageSetError("costs must be non-negative")
        return arr

    def _group_sums(self, arr: np.ndarray) -> np.ndarray:
        """Per-distinct-period cost sums ``S_u`` (one bincount pass)."""
        return np.bincount(
            self._inverse, weights=arr, minlength=self._distinct.size
        )

    def _evaluate(self, arr: np.ndarray, blocking: float) -> bool:
        """:meth:`is_schedulable` on an already-validated cost array
        (the duck-typed fast path :meth:`PDPAnalysis.scale_prober` uses)."""
        return bool(self._kernel.verdicts(self._group_sums(arr), blocking))

    def is_schedulable(
        self, costs: Sequence[float], blocking: float = 0.0
    ) -> bool:
        """True iff every stream passes the exact test (binding-member
        check per distinct-period group; see the class docstring)."""
        arr = self._validate_costs(costs)
        if blocking < 0:
            raise MessageSetError(f"blocking must be non-negative, got {blocking!r}")
        return self._evaluate(arr, blocking)

    def is_schedulable_batch(
        self, costs_matrix: Sequence[Sequence[float]], blocking: float = 0.0
    ) -> np.ndarray:
        """One verdict per row of a ``(batch, n_streams)`` cost matrix."""
        mat = np.asarray(costs_matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != self._periods.size:
            raise MessageSetError(
                f"expected a (batch, {self._periods.size}) cost matrix, "
                f"got shape {mat.shape}"
            )
        if np.any(mat < 0):
            raise MessageSetError("costs must be non-negative")
        if blocking < 0:
            raise MessageSetError(f"blocking must be non-negative, got {blocking!r}")
        order = np.argsort(self._inverse, kind="stable")
        group_starts = np.searchsorted(
            self._inverse[order], np.arange(self._distinct.size)
        )
        sums = np.add.reduceat(mat[:, order], group_starts, axis=1)
        return self._kernel.verdicts(sums, blocking)

    def is_schedulable_scaled(
        self,
        base_costs: Sequence[float],
        scales: Sequence[float],
        blocking: float = 0.0,
    ) -> np.ndarray:
        """Verdicts for ``scale * base_costs`` across many scales at once.

        Avoids materializing the ``(batch, n_streams)`` cost matrix the
        generic batch API would need — the group sums of the base costs
        and their interference are computed once and the scale factors
        applied to the ``|T|``-wide result instead, so a whole scale sweep
        over a million-stream set costs one bincount plus one small
        matrix product.
        """
        arr = self._validate_costs(base_costs)
        scale_arr = np.asarray(scales, dtype=float)
        if scale_arr.ndim != 1:
            raise MessageSetError("scales must be a 1-D sequence")
        if np.any(scale_arr < 0):
            raise MessageSetError("scales must be non-negative")
        if blocking < 0:
            raise MessageSetError(f"blocking must be non-negative, got {blocking!r}")
        return self._kernel.scaled_verdicts(
            self._group_sums(arr), scale_arr, blocking
        )


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
