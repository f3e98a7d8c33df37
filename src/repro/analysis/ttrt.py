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

This module provides those rules plus an exact numeric optimizer for the
Theorem 5.1 margin, all as interchangeable :class:`TTRTPolicy` objects.
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

#: Candidate TTRTs scored per array pass of :func:`optimal_ttrt`'s grid
#: scan.  A memory bound, not a tuning knob: a pass holds a handful of
#: (candidates x streams) float temporaries, about 1.6 MB each at 100
#: streams, however many candidates the grid has.
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
        demand = np.sum(
            payload_times[rows, :length] / (q[rows, :length] - 1.0), axis=1
        )
        with np.errstate(over="ignore"):  # as the scalar float division
            scales[rows] = np.divide(
                budget[rows], demand, out=np.full(rows.size, np.inf),
                where=demand != 0.0,
            )
    return scales


def optimal_ttrt(
    periods_s: Sequence[float],
    payload_times_s: Sequence[float],
    delta: float,
    frame_overhead_time_s: float,
    grid_points: int = 512,
    refine_rounds: int = 40,
) -> float:
    """Numerically maximize the saturation scale of Theorem 5.1 over TTRT.

    The objective :func:`ttp_saturation_scale` is piecewise smooth with
    breakpoints wherever some ``floor(P_i/TTRT)`` steps, so a log-spaced
    grid scan locates the best piece and golden-section refinement polishes
    within it.  The scan scores its candidates with
    :func:`ttp_saturation_scales`, :data:`_SLAB_CANDIDATES` per array
    pass; the refinement calls the scalar :func:`ttp_saturation_scale`.
    The search space is ``(0, P_min/2]``.

    Raises :class:`InfeasibleParameterError` when no feasible TTRT exists
    (the overhead ``δ`` exceeds every candidate rotation budget).
    """
    periods = np.asarray(periods_s, dtype=float)
    if periods.size == 0:
        raise ConfigurationError("need at least one stream to optimize TTRT")
    p_min = float(np.min(periods))
    upper = p_min / 2.0
    lower = max(upper * 1e-4, delta * 1e-3, 1e-12)
    if lower >= upper:
        lower = upper / 2.0

    candidates = np.geomspace(lower, upper, grid_points)
    # Include the exact breakpoints P_i / m near the grid range: the optimum
    # frequently sits exactly at a floor step.
    breakpoints = []
    for p in np.unique(periods):
        m_low = max(2, int(p // upper))
        m_high = int(p // lower) if lower > 0 else m_low + grid_points
        m_high = min(m_high, m_low + 4 * grid_points)
        steps = p / np.arange(m_low, m_high + 1)
        breakpoints.append(steps[(steps >= lower) & (steps <= upper)])
    if breakpoints:
        candidates = np.unique(np.concatenate([candidates, *breakpoints]))

    payload_times = np.asarray(payload_times_s, dtype=float)
    scales = np.concatenate(
        [
            ttp_saturation_scales(
                slab,
                periods,
                payload_times,
                np.full(slab.size, periods.size),
                delta,
                frame_overhead_time_s,
            )
            for slab in np.split(
                candidates,
                range(_SLAB_CANDIDATES, candidates.size, _SLAB_CANDIDATES),
            )
        ]
    )
    best = int(np.argmax(scales))
    if not np.isfinite(scales[best]) or scales[best] <= 0.0:
        if np.any(np.isinf(scales)):
            # All-zero payloads: any feasible TTRT is "optimal"; use sqrt rule.
            return sqrt_rule_ttrt(p_min, delta)
        raise InfeasibleParameterError(
            "no TTRT in (0, P_min/2] satisfies the protocol constraint; "
            f"overheads delta={delta!r} are too large for P_min={p_min!r}"
        )

    # Golden-section refinement between the neighbours of the best grid point.
    lo = candidates[max(best - 1, 0)]
    hi = candidates[min(best + 1, candidates.size - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def objective(t: float) -> float:
        return ttp_saturation_scale(
            t, periods, payload_times_s, delta, frame_overhead_time_s
        )

    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(refine_rounds):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    refined = (a + b) / 2.0
    return refined if objective(refined) >= scales[best] else float(candidates[best])


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
    """Numeric per-workload optimum of the Theorem 5.1 margin."""

    grid_points: int = 512

    def select(
        self,
        message_set: MessageSet,
        bandwidth_bps: float,
        delta: float,
        frame_overhead_time_s: float,
    ) -> float:
        """Numerically maximize the Theorem 5.1 saturation scale."""
        payload_times = [s.payload_time(bandwidth_bps) for s in message_set]
        return optimal_ttrt(
            message_set.periods,
            payload_times,
            delta,
            frame_overhead_time_s,
            grid_points=self.grid_points,
        )
