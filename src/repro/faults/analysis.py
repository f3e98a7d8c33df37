"""Retransmission-aware schedulability under a rate-bounded lossy medium.

The fault model of :mod:`repro.faults.plan` guarantees that any window of
width ``W`` contains at most ``floor(W * rate) + 1`` events of each driven
kind.  That bound turns medium faults into a static per-period error
budget, TDMH-MAC style:

**PDP (Theorem 4.1).**  Each ring fault (token loss or membership change)
stalls the medium for the recovery latency ``T_rec``; each corrupted frame
wastes at most one effective frame time plus one token walk,
``κ = max(F, Θ) + Θ``.  Inflating each augmented length ``C'_i`` by

    ``E_i = ring_events(P_i) · T_rec + corruptions(P_i) · κ``

keeps the exact rate-monotonic test *sound*: every level-``i`` test window
``t`` satisfies ``t <= P_i``, the fault bounds are monotone in the window,
and the inflated demand ``demand(t) + Σ_{j<=i} E_j · ceil(t/P_j)`` exceeds
the true demand by at least ``E_i`` — which alone covers every fault the
window can contain.  The inflation is constant per stream, so the test's
scheduling points (multiples of the periods) remain exactly the right
evaluation set.

**TTP (Theorem 5.1).**  Ring stalls delay the token, shrinking the usable
part of each period to ``P_i - ring_events(P_i) · T_rec``; Johnson's bound
then guarantees only ``q_u = floor(usable / TTRT)`` visits.  A corrupted
frame can waste (at most) one visit's whole synchronous budget, so
``q_eff = q_u - corruptions(P_i)`` visits remain productive, and the local
scheme must allocate ``h_i = C_i / (q_eff - 1) + F_ovhd``.  The protocol
constraint ``Σ h_i <= TTRT - δ`` is unchanged (larger ``h_i`` make it
strictly harder to satisfy).

Both tests degrade continuously to the fault-free Theorems as every rate
approaches zero, and at rate exactly zero they are *identical* to the
originals (pinned by unit tests).  The ``analysis_sound_under_loss`` fuzz
property referees the soundness claim against fault-injected simulation
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.boundary import token_visit_count
from repro.analysis.pdp import PDPAnalysis
from repro.analysis.ttp import TTPAllocation, TTPAnalysis
from repro.errors import AllocationError, ConfigurationError
from repro.faults.plan import FaultPlan
from repro.messages.message_set import MessageSet

__all__ = [
    "FaultBudget",
    "pdp_fault_inflations",
    "pdp_fault_aware_schedulable",
    "ttp_fault_aware_allocation",
    "ttp_fault_aware_schedulable",
    "fault_aware_breakdown_scale",
]


@dataclass(frozen=True)
class FaultBudget:
    """The declared worst-case fault rates an analysis must tolerate.

    A :class:`~repro.faults.plan.FaultPlan` drawn *at or below* these
    rates (same or lower rate per kind, same or lower recovery latency)
    can never exceed the per-window event bounds this budget charges.
    """

    token_loss_rate_hz: float = 0.0
    corruption_rate_hz: float = 0.0
    membership_rate_hz: float = 0.0
    recovery_time_s: float = 1e-3

    def __post_init__(self) -> None:
        for name in ("token_loss_rate_hz", "corruption_rate_hz", "membership_rate_hz"):
            rate = getattr(self, name)
            if not math.isfinite(rate) or rate < 0.0:
                raise ConfigurationError(
                    f"fault rate {name} must be finite and non-negative, got {rate!r}"
                )
        if not math.isfinite(self.recovery_time_s) or self.recovery_time_s < 0.0:
            raise ConfigurationError(
                "recovery time must be finite and non-negative, "
                f"got {self.recovery_time_s!r}"
            )

    @classmethod
    def from_plan(cls, plan: FaultPlan) -> "FaultBudget":
        """The tightest budget covering ``plan``."""
        return cls(
            token_loss_rate_hz=plan.token_loss_rate_hz,
            corruption_rate_hz=plan.corruption_rate_hz,
            membership_rate_hz=plan.membership_rate_hz,
            recovery_time_s=plan.recovery_time_s,
        )

    def covers(self, plan: FaultPlan) -> bool:
        """True when every plan rate/cost is at or below this budget."""
        return (
            plan.token_loss_rate_hz <= self.token_loss_rate_hz
            and plan.corruption_rate_hz <= self.corruption_rate_hz
            and plan.membership_rate_hz <= self.membership_rate_hz
            and plan.recovery_time_s <= self.recovery_time_s
        )

    @staticmethod
    def _bound(rate_hz: float, window_s: float) -> int:
        if rate_hz <= 0.0 or window_s <= 0.0:
            return 0
        return int(math.floor(window_s * rate_hz)) + 1

    def ring_events_bound(self, window_s: float) -> int:
        """Worst-case ring-stalling events (losses + membership) per window."""
        return self._bound(self.token_loss_rate_hz, window_s) + self._bound(
            self.membership_rate_hz, window_s
        )

    def corruption_bound(self, window_s: float) -> int:
        """Worst-case corrupted frames per window."""
        return self._bound(self.corruption_rate_hz, window_s)

    @property
    def inert(self) -> bool:
        """True when no fault kind is budgeted."""
        return (
            self.token_loss_rate_hz == 0.0
            and self.corruption_rate_hz == 0.0
            and self.membership_rate_hz == 0.0
        )


# -- PDP ----------------------------------------------------------------------


def _pdp_corruption_cost(analysis: PDPAnalysis) -> float:
    """Worst-case medium time one corrupted PDP frame can waste.

    The corrupted transmission occupies at most one effective frame time
    ``max(F, Θ)`` (short frames occupy less), and the retransmission pays
    at most one extra token walk, bounded by a full lap ``Θ`` in either
    token-walk model and either variant.
    """
    theta = analysis.ring.theta
    frame_time = analysis.frame.frame_time(analysis.ring.bandwidth_bps)
    return max(frame_time, theta) + theta


def pdp_fault_inflations(
    analysis: PDPAnalysis, ordered: MessageSet, budget: FaultBudget
) -> np.ndarray:
    """Per-stream error budgets ``E_i`` for ``ordered`` (any stream order)."""
    recovery = budget.recovery_time_s
    kappa = _pdp_corruption_cost(analysis)
    return np.array(
        [
            budget.ring_events_bound(period) * recovery
            + budget.corruption_bound(period) * kappa
            for period in ordered.periods
        ],
        dtype=float,
    )


def pdp_fault_aware_schedulable(
    analysis: PDPAnalysis, message_set: MessageSet, budget: FaultBudget
) -> bool:
    """Theorem 4.1 with the per-period fault budget folded into ``C'_i``.

    Accepting implies every fault plan at or below ``budget`` meets all
    deadlines; with an inert budget this is exactly
    ``analysis.is_schedulable``.
    """
    if len(message_set) == 0:
        return True
    ordered = message_set.rate_monotonic()
    lengths = analysis.augmented_lengths(ordered)
    if not budget.inert:
        lengths = lengths + pdp_fault_inflations(analysis, ordered, budget)
    # The exact-test structure depends only on the periods, so the
    # analysis's cached test is reused across payload scales and budgets
    # (private by convention, stable by the batch-equivalence suite).
    test = analysis._test_for(ordered)
    return bool(test.is_schedulable(lengths, analysis.blocking))


# -- TTP ----------------------------------------------------------------------


def ttp_fault_aware_allocation(
    analysis: TTPAnalysis,
    message_set: MessageSet,
    budget: FaultBudget,
    ttrt_s: float | None = None,
) -> TTPAllocation:
    """Local-scheme allocation charged for the fault budget.

    Raises :class:`AllocationError` when some stream cannot be guaranteed:
    either recovery stalls can swallow a whole period, or fewer than two
    productive token visits survive the budget.  With an inert budget this
    reduces exactly to :meth:`TTPAnalysis.allocate`.
    """
    if ttrt_s is None:
        ttrt_s = analysis.select_ttrt(message_set)
    if budget.inert:
        return analysis.allocate(message_set, ttrt_s)

    bandwidth = analysis.ring.bandwidth_bps
    overhead = analysis.frame_overhead_time
    recovery = budget.recovery_time_s
    visits: list[int] = []
    bandwidths: list[float] = []
    augmented: list[float] = []
    for stream in message_set:
        period = stream.period_s
        usable = period - budget.ring_events_bound(period) * recovery
        if usable <= 0.0:
            raise AllocationError(
                f"recovery stalls ({budget.ring_events_bound(period)} × "
                f"{recovery!r}s) can consume the whole period {period!r}s"
            )
        q_eff = token_visit_count(usable, ttrt_s) - budget.corruption_bound(period)
        if q_eff < 2:
            raise AllocationError(
                f"period {period!r}s retains only {q_eff} productive token "
                f"visits at TTRT {ttrt_s!r}s under the fault budget; at "
                "least 2 are required"
            )
        c_i = stream.payload_time(bandwidth)
        visits.append(q_eff)
        bandwidths.append(c_i / (q_eff - 1) + overhead)
        augmented.append(c_i + (q_eff - 1) * overhead)
    return TTPAllocation(
        ttrt_s=ttrt_s,
        token_visits=tuple(visits),
        bandwidths_s=tuple(bandwidths),
        augmented_lengths_s=tuple(augmented),
        delta_s=analysis.delta,
    )


def ttp_fault_aware_schedulable(
    analysis: TTPAnalysis, message_set: MessageSet, budget: FaultBudget
) -> bool:
    """Theorem 5.1 under the fault budget (allocation + protocol constraint)."""
    if len(message_set) == 0:
        return True
    try:
        allocation = ttp_fault_aware_allocation(analysis, message_set, budget)
    except AllocationError:
        return False
    return allocation.satisfies_protocol_constraint()


# -- breakdown search ---------------------------------------------------------


def fault_aware_breakdown_scale(
    is_schedulable,
    message_set: MessageSet,
    rel_tol: float = 1e-3,
    max_scale: float = 1e6,
) -> float:
    """Largest payload scale ``is_schedulable`` accepts (monotone bisection).

    ``is_schedulable`` is any predicate over a message set that is monotone
    in payload scale — the fault-aware tests qualify because the inflation
    terms are payload-independent.  Returns 0.0 when even a vanishing
    payload is rejected (the fault budget alone exceeds the period).
    """
    if len(message_set) == 0:
        return float(max_scale)

    def accepts(scale: float) -> bool:
        return bool(is_schedulable(message_set.scaled(scale)))

    if accepts(1.0):
        low, high = 1.0, 2.0
        while accepts(high):
            low, high = high, high * 2.0
            if high > max_scale:
                return float(max_scale)
    else:
        low, high = 0.5, 1.0
        while not accepts(low):
            low, high = low / 2.0, low
            if low < 1e-12:
                return 0.0
    while high - low > rel_tol * low:
        mid = math.sqrt(low * high)
        if accepts(mid):
            low = mid
        else:
            high = mid
    return low
