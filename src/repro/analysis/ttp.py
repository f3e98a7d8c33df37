"""Schedulability of the timed token protocol (Section 5, Theorem 5.1).

In the timed token protocol (FDDI), the token carries no priority; bounded
access is provided by the Target Token Rotation Time (TTRT) and the
per-station *synchronous bandwidths* ``h_i``: on each token arrival a
station may transmit synchronous traffic for at most ``h_i``, and
asynchronous traffic only with whatever earliness credit the token brought.

With the **local allocation scheme** of Agrawal/Chen/Zhao —

    ``q_i = floor(P_i / TTRT)``,
    ``h_i = C_i / (q_i - 1) + F_ovhd``

— Johnson's bound guarantees at least ``q_i - 1`` full-budget token visits
inside any period ``P_i``, so the deadline constraint holds by
construction and schedulability reduces to the **protocol constraint**

    ``Σ h_i <= TTRT - δ``,   ``δ = Θ + F_async``

which is exactly Theorem 5.1:

    ``Σ C_i / (floor(P_i/TTRT) - 1) + n·F_ovhd <= TTRT - δ``.

``δ`` bundles the token walk ``Θ`` with one asynchronous-overrun frame
``F_async`` (an asynchronous transmission begun just before its credit ran
out completes anyway).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, is_dataclass
from typing import Sequence

import numpy as np

from repro.analysis.boundary import token_visit_count, token_visit_counts
from repro.analysis.ttrt import SqrtRuleTTRT, TTRTPolicy, ttp_saturation_scale
from repro.errors import AllocationError, ConfigurationError
from repro.messages.message_set import MessageSet
from repro.network.frames import FrameFormat
from repro.network.ring import RingNetwork

__all__ = [
    "ttp_overhead_delta",
    "local_scheme_allocation",
    "TTPAllocation",
    "TTPSetResult",
    "TTPAnalysis",
]


def ttp_overhead_delta(ring: RingNetwork, async_frame_bits: float) -> float:
    """Per-rotation overhead ``δ = Θ + F_async`` (equation (11)).

    ``async_frame_bits`` is the total on-wire length of one asynchronous
    frame (payload + overhead); its transmission time bounds the
    asynchronous-overrun loss per rotation.
    """
    if async_frame_bits < 0:
        raise ConfigurationError(
            f"async frame length must be non-negative, got {async_frame_bits!r}"
        )
    return ring.theta + ring.transmission_time(async_frame_bits)


@dataclass(frozen=True)
class TTPAllocation:
    """A synchronous bandwidth allocation for one message set.

    Attributes:
        ttrt_s: the Target Token Rotation Time used.
        token_visits: ``q_i = floor(P_i / TTRT)`` per stream.
        bandwidths_s: the synchronous bandwidths ``h_i`` per stream.
        augmented_lengths_s: ``C'_i = C_i + (q_i - 1)·F_ovhd`` per stream.
        delta_s: the per-rotation overhead ``δ``.
    """

    ttrt_s: float
    token_visits: tuple[int, ...]
    bandwidths_s: tuple[float, ...]
    augmented_lengths_s: tuple[float, ...]
    delta_s: float

    @property
    def total_bandwidth_s(self) -> float:
        """``Σ h_i`` — the per-rotation synchronous demand."""
        return sum(self.bandwidths_s)

    @property
    def protocol_slack_s(self) -> float:
        """``TTRT - δ - Σ h_i``; non-negative iff the protocol constraint holds."""
        return self.ttrt_s - self.delta_s - self.total_bandwidth_s

    def satisfies_protocol_constraint(self) -> bool:
        """Equation (10): ``Σ h_i <= TTRT - δ`` (with float tolerance)."""
        return self.protocol_slack_s >= -1e-12 * max(self.ttrt_s, 1.0)

    def minimum_available_time(self, index: int) -> float:
        """``X_i = (q_i - 1)·h_i``: guaranteed transmission time per period.

        This is the worst-case time available to station ``index`` within
        one period of its stream, by Johnson's token-timing bound.
        """
        return (self.token_visits[index] - 1) * self.bandwidths_s[index]

    def satisfies_deadline_constraint(self) -> bool:
        """Equation (12): ``X_i >= C'_i`` for every stream.

        Always true for the local scheme (it solves this with equality up
        to the overhead rounding) but meaningful for other schemes.
        """
        return all(
            self.minimum_available_time(i) >= c - 1e-12 * max(c, 1.0)
            for i, c in enumerate(self.augmented_lengths_s)
        )


def local_scheme_allocation(
    message_set: MessageSet,
    ttrt_s: float,
    bandwidth_bps: float,
    frame_overhead_time_s: float,
    delta_s: float,
) -> TTPAllocation:
    """The local allocation scheme (equations (5)–(9)).

    Raises :class:`AllocationError` when some period gives ``q_i < 2`` —
    such a stream cannot be guaranteed at this TTRT no matter the
    bandwidth assignment, because the token may visit its station only
    once with full budget inside a period.
    """
    if ttrt_s <= 0:
        raise ConfigurationError(f"TTRT must be positive, got {ttrt_s!r}")
    if frame_overhead_time_s < 0:
        raise ConfigurationError(
            f"frame overhead time must be non-negative, got {frame_overhead_time_s!r}"
        )
    visits: list[int] = []
    bandwidths: list[float] = []
    augmented: list[float] = []
    for stream in message_set:
        q_i = token_visit_count(stream.period_s, ttrt_s)
        if q_i < 2:
            raise AllocationError(
                f"stream with period {stream.period_s!r}s sees the token only "
                f"{q_i} time(s) per period at TTRT={ttrt_s!r}s; the local "
                "scheme requires floor(P_i/TTRT) >= 2"
            )
        c_i = stream.payload_time(bandwidth_bps)
        visits.append(q_i)
        bandwidths.append(c_i / (q_i - 1) + frame_overhead_time_s)
        augmented.append(c_i + (q_i - 1) * frame_overhead_time_s)
    return TTPAllocation(
        ttrt_s=ttrt_s,
        token_visits=tuple(visits),
        bandwidths_s=tuple(bandwidths),
        augmented_lengths_s=tuple(augmented),
        delta_s=delta_s,
    )


@dataclass(frozen=True)
class TTPSetResult:
    """Outcome of the Theorem 5.1 test for a whole message set.

    Attributes:
        schedulable: True iff the protocol constraint holds (the deadline
            constraint is implied by the local scheme's construction).
        allocation: the allocation tested, or None when no valid
            allocation exists at the selected TTRT.
        reason: human-readable explanation when unschedulable.
    """

    schedulable: bool
    allocation: TTPAllocation | None
    reason: str = ""

    @property
    def load_ratio(self) -> float:
        """``(Σ h_i) / (TTRT - δ)``; at most 1 iff schedulable, inf if no budget."""
        if self.allocation is None:
            return float("inf")
        budget = self.allocation.ttrt_s - self.allocation.delta_s
        if budget <= 0:
            return float("inf")
        return self.allocation.total_bandwidth_s / budget


class TTPAnalysis:
    """Theorem 5.1 schedulability test bound to one ring configuration.

    Args:
        ring: the physical ring (bandwidth included).
        frame: MAC frame format — only its overhead time enters the
            synchronous side (synchronous "frames" are the ``h_i`` budgets
            themselves), and its full length is used for the asynchronous
            overrun term unless ``async_frame_bits`` overrides it.
        ttrt_policy: TTRT selection strategy (paper default: sqrt rule).
        async_frame_bits: on-wire length of an asynchronous frame for the
            overrun term; defaults to the synchronous frame's total length.
    """

    def __init__(
        self,
        ring: RingNetwork,
        frame: FrameFormat,
        ttrt_policy: TTRTPolicy | None = None,
        async_frame_bits: float | None = None,
    ):
        self._ring = ring
        self._frame = frame
        self._policy: TTRTPolicy = ttrt_policy if ttrt_policy is not None else SqrtRuleTTRT()
        self._async_frame_bits = (
            frame.total_bits if async_frame_bits is None else float(async_frame_bits)
        )
        if self._async_frame_bits < 0:
            raise ConfigurationError(
                f"async frame length must be non-negative, got {async_frame_bits!r}"
            )

    # -- accessors ----------------------------------------------------------------

    @property
    def ring(self) -> RingNetwork:
        """The ring this analysis is bound to."""
        return self._ring

    @property
    def frame(self) -> FrameFormat:
        """The frame format this analysis is bound to."""
        return self._frame

    @property
    def ttrt_policy(self) -> TTRTPolicy:
        """The TTRT selection strategy in use."""
        return self._policy

    @property
    def delta(self) -> float:
        """Per-rotation overhead ``δ = Θ + F_async`` at the current bandwidth."""
        return ttp_overhead_delta(self._ring, self._async_frame_bits)

    @property
    def frame_overhead_time(self) -> float:
        """Transmission time of one frame's overhead bits."""
        return self._frame.overhead_time(self._ring.bandwidth_bps)

    def with_ring(self, ring: RingNetwork) -> "TTPAnalysis":
        """A copy bound to a different ring."""
        return TTPAnalysis(ring, self._frame, self._policy, self._async_frame_bits)

    def cache_signature(self) -> dict | None:
        """JSON-safe identity for content-addressed result-cache keys.

        The TTRT policy is part of the verdict, so it must be part of the
        key; the stock policies are frozen dataclasses whose fields pin
        them exactly.  A custom non-dataclass policy has no canonical
        description — return None, which disables caching rather than
        risking a collision.  See USAGE.md §13.
        """
        if not is_dataclass(self._policy):
            return None
        return {
            "analysis": "ttp",
            "ring": asdict(self._ring),
            "frame": asdict(self._frame),
            "ttrt_policy": {
                "type": type(self._policy).__name__,
                "params": asdict(self._policy),
            },
            "async_frame_bits": self._async_frame_bits,
        }

    # -- core computations ------------------------------------------------------------

    def select_ttrt(self, message_set: MessageSet) -> float:
        """The TTRT this analysis would use for ``message_set``."""
        return self._policy.select(
            message_set,
            self._ring.bandwidth_bps,
            self.delta,
            self.frame_overhead_time,
        )

    def allocate(
        self, message_set: MessageSet, ttrt_s: float | None = None
    ) -> TTPAllocation:
        """Local-scheme allocation at ``ttrt_s`` (policy-selected if None)."""
        if ttrt_s is None:
            ttrt_s = self.select_ttrt(message_set)
        return local_scheme_allocation(
            message_set,
            ttrt_s,
            self._ring.bandwidth_bps,
            self.frame_overhead_time,
            self.delta,
        )

    def analyze(
        self, message_set: MessageSet, ttrt_s: float | None = None
    ) -> TTPSetResult:
        """Full Theorem 5.1 report for ``message_set``."""
        if len(message_set) == 0:
            return TTPSetResult(True, None, "empty message set")
        try:
            allocation = self.allocate(message_set, ttrt_s)
        except AllocationError as exc:
            return TTPSetResult(False, None, str(exc))
        if allocation.satisfies_protocol_constraint():
            return TTPSetResult(True, allocation)
        return TTPSetResult(
            False,
            allocation,
            "protocol constraint violated: "
            f"sum(h_i)={allocation.total_bandwidth_s:.6g}s exceeds "
            f"TTRT-delta={allocation.ttrt_s - allocation.delta_s:.6g}s",
        )

    def is_schedulable(
        self, message_set: MessageSet, ttrt_s: float | None = None
    ) -> bool:
        """Theorem 5.1: can every synchronous deadline be guaranteed?"""
        return self.analyze(message_set, ttrt_s).schedulable

    def saturation_scale(self, message_set: MessageSet) -> float:
        """Closed-form breakdown scale for Theorem 5.1.

        The protocol constraint is linear in the payloads, so for payloads
        ``λ·C_i`` the largest schedulable λ is

            ``λ* = (TTRT - δ - n·F_ovhd) / Σ (C_i / (q_i - 1))``.

        This is exact provided the TTRT policy is *scale invariant* —
        it must pick the same TTRT for ``λ·M`` as for ``M``.  All policies
        in :mod:`repro.analysis.ttrt` are: the sqrt rule and half-min rule
        depend only on periods and ``δ``, a fixed TTRT is constant, and the
        numeric optimum's objective scales uniformly in λ, leaving its
        argmax unchanged.
        """
        if len(message_set) == 0:
            raise ConfigurationError("cannot saturate an empty message set")
        ttrt = self.select_ttrt(message_set)
        payload_times = (
            np.asarray(message_set.payloads_bits, dtype=float)
            / self._ring.bandwidth_bps
        )
        return ttp_saturation_scale(
            ttrt,
            message_set.periods,
            payload_times,
            self.delta,
            self.frame_overhead_time,
        )

    def saturation_scales(self, message_sets: Sequence[MessageSet]) -> np.ndarray:
        """Closed-form breakdown scales for a whole population of sets.

        The per-set evaluation is already a handful of vectorized
        operations (Theorem 5.1 is linear in the payloads), so batching is
        a simple sweep; this exists so sweep and Monte Carlo drivers can
        treat both protocols uniformly through one batched entry point.
        """
        return np.asarray(
            [self.saturation_scale(ms) for ms in message_sets], dtype=float
        )

    def theorem_lhs(
        self, message_set: MessageSet, ttrt_s: float | None = None
    ) -> float:
        """Left-hand side of equation (13), in seconds.

        ``Σ C_i / (floor(P_i/TTRT) - 1) + n·F_ovhd``; useful in tests to
        confirm the algebraic equivalence with the allocation-based check.
        """
        if ttrt_s is None:
            ttrt_s = self.select_ttrt(message_set)
        periods = np.asarray(message_set.periods)
        payload_times = np.array(
            [s.payload_time(self._ring.bandwidth_bps) for s in message_set]
        )
        q = token_visit_counts(periods, ttrt_s)
        if np.any(q < 2):
            return float("inf")
        return float(
            np.sum(payload_times / (q - 1.0))
            + len(message_set) * self.frame_overhead_time
        )
