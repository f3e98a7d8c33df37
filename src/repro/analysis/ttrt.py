"""Target Token Rotation Time selection (Section 5.2 of the paper).

The timed token protocol's real-time performance is sensitive to TTRT.
Johnson's bound (token inter-arrival at a station is at most ``2·TTRT``)
forces ``TTRT <= P_min / 2`` for any deadline guarantee, but the paper
shows the breakdown utilization is usually maximized well below that:

* For equal periods ``P`` the optimum is near ``sqrt(δ·P)`` where ``δ`` is
  the per-rotation overhead.  (With ``q = P/TTRT`` token visits per period,
  the achievable utilization is roughly ``(1 - 1/q)(1 - q·δ/P)``, maximized
  at ``q* = sqrt(P/δ)``, i.e. ``TTRT* = sqrt(δ·P)``.)
* In the general case each station bids ``sqrt(δ·P_i)`` and the minimum
  wins, giving the heuristic ``TTRT = sqrt(δ·P_min)``.

This module provides those rules plus the exact optimum of the Theorem 5.1
margin, all as interchangeable :class:`TTRTPolicy` objects.  The margin
is piecewise: each ``floor(P_i/TTRT)`` steps at ``P_i/m``, and between
steps the margin rises with TTRT, so :func:`optimal_ttrt` scores only
those right edges, slice by slice, pruning each slice with a bound
before its edges are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.analysis.boundary import token_visit_counts
from repro.errors import ConfigurationError, InfeasibleParameterError
from repro.messages.message_set import MessageSet

__all__ = [
    "TTRTPolicy",
    "SqrtRuleTTRT",
    "HalfMinPeriodTTRT",
    "FixedTTRT",
    "OptimalTTRT",
    "sqrt_rule_ttrt",
    "half_min_period_ttrt",
    "optimal_ttrt",
    "ttp_saturation_scale",
    "ttp_saturation_scales",
]

#: Piece edges per slice of :func:`optimal_ttrt`, built and scored in
#: one array pass (about; a slice holds at most this plus one per
#: distinct period).  A memory bound, not a tuning knob: a pass holds a
#: handful of (edges x streams) float temporaries, about 1.6 MB each at
#: 100 streams, however many edges a set has.
_SLAB_CANDIDATES = 2048


def _validate_delta(delta: float) -> None:
    if delta < 0:
        raise ConfigurationError(f"overhead delta must be non-negative, got {delta!r}")


def sqrt_rule_ttrt(min_period_s: float, delta: float) -> float:
    """The paper's heuristic ``TTRT = sqrt(δ·P_min)``, clamped to ``P_min/2``.

    The clamp enforces Johnson's feasibility requirement (every station
    must see the token at least twice per period).  A zero ``δ`` (an ideal
    ring) degenerates the rule, so the result is floored at a small
    fraction of ``P_min`` to stay positive.
    """
    if min_period_s <= 0:
        raise ConfigurationError(f"minimum period must be positive, got {min_period_s!r}")
    _validate_delta(delta)
    raw = math.sqrt(delta * min_period_s)
    upper = min_period_s / 2.0
    lower = min_period_s * 1e-6
    return min(max(raw, lower), upper)


def half_min_period_ttrt(min_period_s: float) -> float:
    """The naive rule ``TTRT = P_min / 2`` (largest feasible value)."""
    if min_period_s <= 0:
        raise ConfigurationError(f"minimum period must be positive, got {min_period_s!r}")
    return min_period_s / 2.0


def ttp_saturation_scale(
    ttrt: float,
    periods_s: Sequence[float],
    payload_times_s: Sequence[float],
    delta: float,
    frame_overhead_time_s: float,
) -> float:
    """Largest payload scale λ that keeps Theorem 5.1 satisfied at ``ttrt``.

    Theorem 5.1 with payloads ``λ·C_i`` reads

        ``λ · Σ C_i / (q_i - 1) <= TTRT - δ - n·F_ovhd``

    so the saturation scale is closed-form.  Returns 0 when the TTRT is
    infeasible (some ``q_i < 2``) or the overheads already exhaust the
    rotation budget, and ``inf`` when every payload is zero yet the
    constraint holds (an empty workload never saturates).
    """
    periods = np.asarray(periods_s, dtype=float)
    payloads = np.asarray(payload_times_s, dtype=float)
    if ttrt <= 0:
        raise ConfigurationError(f"TTRT must be positive, got {ttrt!r}")
    _validate_delta(delta)
    q = token_visit_counts(periods, ttrt)
    if np.any(q < 2):
        return 0.0
    budget = ttrt - delta - periods.size * frame_overhead_time_s
    if budget <= 0:
        return 0.0
    per_rotation_demand = float(np.sum(payloads / (q - 1.0)))
    if per_rotation_demand == 0.0:
        return float("inf")
    return budget / per_rotation_demand


def _visit_starved(q: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per row of visit counts, whether one of its first ``lengths``
    streams sees the token fewer than twice per period."""
    live = np.arange(q.shape[-1]) < lengths[:, None]
    return ((q < 2) & live).any(axis=1)


def _per_rotation_demands(payload_times: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``Σ C_i / (q_i - 1)`` of each row of visit counts.

    The one expression the kernel and :func:`optimal_ttrt`'s slice bounds
    both sum, so a bound and a score round alike.
    """
    return np.sum(payload_times / (q - 1.0), axis=1)


def ttp_saturation_scales(
    ttrts: Sequence[float] | np.ndarray,
    periods_s: np.ndarray,
    payload_times_s: np.ndarray,
    lengths: Sequence[int] | np.ndarray,
    delta: float,
    frame_overhead_time_s: float,
) -> np.ndarray:
    """:func:`ttp_saturation_scale` of many sets in one array pass, bit
    for bit.

    Set ``i`` is the first ``lengths[i]`` columns of row ``i`` of
    ``periods_s`` and ``payload_times_s`` (one row may stand for all),
    judged at ``ttrts[i]``; columns past a set's length are never read.
    One :func:`token_visit_counts` call gives every visit count.  The
    per-rotation demand is summed over each group of equal-length sets,
    sliced to that length, so each row's ``np.sum`` adds the terms the
    scalar path adds, grouped as it groups them: padding would regroup
    the pairwise sum and move the last bits.  The degenerate outcomes
    keep the scalar precedence: a set with some ``q_i < 2`` scores 0,
    else one whose overheads exhaust the budget 0, else one with zero
    demand ``inf``.
    """
    ttrts = np.asarray(ttrts, dtype=float)
    lengths = np.asarray(lengths)
    nonpositive = ttrts[ttrts <= 0]
    if nonpositive.size:
        raise ConfigurationError(
            f"TTRT must be positive, got {float(nonpositive[0])!r}"
        )
    _validate_delta(delta)
    q = token_visit_counts(periods_s, ttrts[:, None])
    payload_times = np.broadcast_to(payload_times_s, q.shape)
    budget = ttrts - delta - lengths * frame_overhead_time_s
    feasible = ~_visit_starved(q, lengths) & ~(budget <= 0)
    scales = np.zeros(ttrts.size)
    for length in set(lengths[feasible].tolist()):
        rows = np.flatnonzero(feasible & (lengths == length))
        demand = _per_rotation_demands(
            payload_times[rows, :length], q[rows, :length]
        )
        with np.errstate(over="ignore"):  # as the scalar float division
            scales[rows] = np.divide(
                budget[rows], demand, out=np.full(rows.size, np.inf),
                where=demand != 0.0,
            )
    return scales


def _piece_edges(periods: np.ndarray, low: float, high: float) -> np.ndarray:
    """Every right edge ``P_i/m`` (``m >= 2``) in ``[low, high]``, sorted,
    each value once."""
    edges = []
    for p in np.unique(periods):
        steps = p / np.arange(max(2, int(p // high)), int(p // low) + 2)
        edges.append(steps[(steps >= low) & (steps <= high)])
    return np.unique(np.concatenate(edges))


def _slices(periods: np.ndarray, low: float, high: float) -> np.ndarray:
    """Boundaries ``low = t_0 < ... < t_K = high`` of slices equally wide
    in ``1/T``, each holding about :data:`_SLAB_CANDIDATES` edges.

    The edges ``P_i/m`` of one period are evenly spaced ``1/P_i`` apart
    in ``1/T``, so a slice of width ``w`` holds at most ``w·P_i + 1`` of
    them per distinct period.
    """
    distinct = np.unique(periods)
    u_low, u_high = 1.0 / high, 1.0 / low
    count = max(1, math.ceil((u_high - u_low) * distinct.sum() / _SLAB_CANDIDATES))
    bounds = np.clip(1.0 / np.linspace(u_high, u_low, count + 1), low, high)
    bounds[0], bounds[-1] = low, high
    return bounds


def optimal_ttrt(
    periods_s: Sequence[float],
    payload_times_s: Sequence[float],
    delta: float,
    frame_overhead_time_s: float,
) -> float:
    """The TTRT that maximizes the Theorem 5.1 saturation scale.

    Every ``q_i = floor(P_i/T)`` is constant on ``(P_i/(m+1), P_i/m]``,
    and where no ``q_i`` steps the scale ``(T - δ - n·F_ovhd) / D(T)``,
    ``D(T) = Σ C_i/(q_i - 1)``, rises with ``T``.  So the maximum over
    ``[lower, P_min/2]`` is at a right edge ``P_i/m`` with a positive
    budget (``P_min/2`` is one), and only those edges are scored: about
    ``Σ P_i / max(lower, δ + n·F_ovhd)`` of them over the distinct periods.
    The domain is cut into slices equally wide in ``1/T`` with about
    :data:`_SLAB_CANDIDATES` edges each, and a slice's edges are built
    only when it is scored, so memory follows the slice size, not the
    edge count.  ``D`` never falls as ``T`` grows, so no scale on a
    slice ``[a, b]`` exceeds ``(b - δ - n·F_ovhd) / D(a)``, and in float
    arithmetic too: every rounding step is monotone and
    :func:`_per_rotation_demands` sums the bound as the kernel sums a
    score.  Slices are scored with :func:`ttp_saturation_scales` in
    order of falling bound until the next bound is below the best scale.
    Ties go to the smallest edge, so the choice does not depend on the
    slicing.  The proof, and the ``Q_REL_TOL`` snap window just above
    each edge where a scale may read a few ulps higher, are in
    docs/THEORY.md §3.3.

    Raises :class:`InfeasibleParameterError` when no edge leaves a
    positive rotation budget.  With all-zero payloads every feasible
    TTRT saturates nothing, and the sqrt rule is returned.
    """
    periods = np.asarray(periods_s, dtype=float)
    if periods.size == 0:
        raise ConfigurationError("need at least one stream to optimize TTRT")
    payload_times = np.asarray(payload_times_s, dtype=float)
    p_min = float(np.min(periods))
    upper = p_min / 2.0
    lower = max(upper * 1e-4, delta * 1e-3, 1e-12)
    if lower >= upper:
        lower = upper / 2.0
    overheads = periods.size * frame_overhead_time_s
    low = max(lower, delta + overheads)
    # ``upper`` is the largest edge (``P_min/2``) and the budget rises
    # with the edge, so some edge is feasible exactly when it is.
    if not (low <= upper and upper - delta - overheads > 0):
        raise InfeasibleParameterError(
            "no TTRT in (0, P_min/2] satisfies the protocol constraint; "
            f"overheads delta={delta!r} are too large for P_min={p_min!r}"
        )
    if not payload_times.any():
        return sqrt_rule_ttrt(p_min, delta)

    cuts = _slices(periods, low, upper)
    starts, ends = cuts[:-1], cuts[1:]
    demands = np.concatenate(
        [
            _per_rotation_demands(
                payload_times,
                token_visit_counts(periods, starts[i : i + _SLAB_CANDIDATES, None]),
            )
            for i in range(0, starts.size, _SLAB_CANDIDATES)
        ]
    )
    bounds = (ends - delta - overheads) / demands
    best_scale, best_ttrt = 0.0, upper
    for k in np.argsort(-bounds, kind="stable"):
        if bounds[k] < best_scale:
            break
        edges = _piece_edges(periods, starts[k], ends[k])
        if k + 1 < starts.size:  # slices are half-open but the last
            edges = edges[edges < ends[k]]
        edges = edges[edges - delta - overheads > 0]
        if edges.size == 0:
            continue
        scales = ttp_saturation_scales(
            edges,
            periods,
            payload_times,
            np.full(edges.size, periods.size),
            delta,
            frame_overhead_time_s,
        )
        i = int(np.argmax(scales))
        if scales[i] > best_scale or (
            scales[i] == best_scale and edges[i] < best_ttrt
        ):
            best_scale, best_ttrt = float(scales[i]), float(edges[i])
    return best_ttrt


class TTRTPolicy(Protocol):
    """Strategy for choosing the TTRT for a given workload.

    Implementations receive the message set, the link bandwidth (to turn
    payload bits into times), the per-rotation overhead ``δ``, and the
    frame-overhead transmission time.
    """

    def select(
        self,
        message_set: MessageSet,
        bandwidth_bps: float,
        delta: float,
        frame_overhead_time_s: float,
    ) -> float:
        """Return the TTRT in seconds."""
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class SqrtRuleTTRT:
    """The paper's bidding heuristic: every station bids ``sqrt(δ'·P_i)``.

    The ring adopts the minimum bid, ``sqrt(δ'·P_min)``, where ``δ'`` is
    the *total* per-rotation overhead — the token-walk/overrun term ``δ``
    plus the ``n·F_ovhd`` the local scheme's allocations spend on frame
    headers each rotation.  (The optimization that yields the sqrt rule
    maximizes ``(1 - 1/q)(1 - q·δ'/P)``, and every per-rotation overhead
    belongs in ``δ'``; with only ``δ`` the rule lands far below the true
    optimum on large rings, where ``n·F_ovhd`` dominates.)
    """

    def select(
        self,
        message_set: MessageSet,
        bandwidth_bps: float,
        delta: float,
        frame_overhead_time_s: float,
    ) -> float:
        """Bid sqrt(total overhead x P_min), clamped to P_min/2."""
        total_overhead = delta + len(message_set) * frame_overhead_time_s
        return sqrt_rule_ttrt(message_set.min_period, total_overhead)


@dataclass(frozen=True)
class HalfMinPeriodTTRT:
    """The naive maximal-feasible rule ``TTRT = P_min / 2``."""

    def select(
        self,
        message_set: MessageSet,
        bandwidth_bps: float,
        delta: float,
        frame_overhead_time_s: float,
    ) -> float:
        """Return P_min / 2."""
        return half_min_period_ttrt(message_set.min_period)


@dataclass(frozen=True)
class FixedTTRT:
    """A externally imposed TTRT value (for sweeps and what-if studies)."""

    ttrt_s: float

    def __post_init__(self) -> None:
        if self.ttrt_s <= 0:
            raise ConfigurationError(f"TTRT must be positive, got {self.ttrt_s!r}")

    def select(
        self,
        message_set: MessageSet,
        bandwidth_bps: float,
        delta: float,
        frame_overhead_time_s: float,
    ) -> float:
        """Return the configured TTRT."""
        return self.ttrt_s


@dataclass(frozen=True)
class OptimalTTRT:
    """Exact per-workload optimum of the Theorem 5.1 margin."""

    def select(
        self,
        message_set: MessageSet,
        bandwidth_bps: float,
        delta: float,
        frame_overhead_time_s: float,
    ) -> float:
        """Maximize the Theorem 5.1 saturation scale over the piece edges."""
        payload_times = [s.payload_time(bandwidth_bps) for s in message_set]
        return optimal_ttrt(
            message_set.periods, payload_times, delta, frame_overhead_time_s
        )
