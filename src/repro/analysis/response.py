"""Worst-case response-time analysis for both protocols.

The schedulability theorems answer a yes/no question; designers usually
also want *how long* a message can take.  This module derives per-stream
worst-case response-time bounds from the same machinery:

* **PDP** — the response-time recurrence over the augmented lengths with
  the Lemma 4.1 blocking term,

      ``R_i = C'_i + B + Σ_{j<i} ceil(R_i/P_j)·C'_j``

  (fixed point; `analysis/rm.py::response_time_analysis`).  A stream is
  schedulable iff ``R_i <= P_i``, consistent with Theorem 4.1.

* **TTP** — from Johnson's token-timing bound: the first useful token
  visit arrives within ``2·TTRT`` of a message's arrival, subsequent
  visits within ``TTRT`` of each other, and the message needs
  ``v_i = ceil(C'_i / h_i)`` visits, the last of which may complete up to
  ``h_i`` into the visit:

      ``R_i <= 2·TTRT + (v_i - 1)·TTRT + h_i``

  For the local scheme ``v_i = q_i - 1``, giving ``R_i <= q_i·TTRT + h_i``
  — at most ``P_i + h_i`` in general and below ``P_i`` whenever the
  protocol constraint leaves slack, consistent with Theorem 5.1.

Both bounds are validated against the discrete-event simulators
(`tests/test_analysis_response.py`).  The PDP bound charges the *average*
token walk, ``Θ/2`` per token pass, as Theorem 4.1 does, so it bounds the
PDP simulator run with ``TokenWalkModel.AVERAGE``.  Under
``TokenWalkModel.ACTUAL`` a station that sends again waits a full lap
``Θ``, and observed worst responses can exceed the bound: by 5% on a
harmonic four-stream set on an 8-station 10 Mbps ring, which still met
every deadline.  The TTP bound is checked against the TTP
simulator's worst responses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.pdp import PDPAnalysis
from repro.analysis.rm import response_time_analysis
from repro.analysis.ttp import TTPAllocation, TTPAnalysis
from repro.errors import ConfigurationError
from repro.messages.message_set import MessageSet

__all__ = [
    "StreamResponseBound",
    "pdp_response_bounds",
    "ttp_response_bounds",
]


@dataclass(frozen=True)
class StreamResponseBound:
    """Worst-case response bound for one stream.

    Attributes:
        stream_index: index in the *original* message-set order.
        period_s: the stream's period (= deadline).
        bound_s: worst-case response-time bound, seconds.  ``inf`` when
            the stream is unschedulable (the recurrence diverges past the
            deadline, where its exact value stops being meaningful).
        meets_deadline: ``bound_s <= period_s``.
    """

    stream_index: int
    period_s: float
    bound_s: float

    @property
    def meets_deadline(self) -> bool:
        """True when the bound proves the deadline."""
        return self.bound_s <= self.period_s * (1 + 1e-12)

    @property
    def slack_s(self) -> float:
        """``P_i - R_i``; negative when the bound misses the deadline."""
        return self.period_s - self.bound_s


def pdp_response_bounds(
    analysis: PDPAnalysis, message_set: MessageSet
) -> list[StreamResponseBound]:
    """Worst-case response times under the priority driven protocol.

    Returns one bound per stream in the original message-set order.
    Streams whose recurrence exceeds the deadline are reported with
    ``bound_s = inf`` (Theorem 4.1 rejects them; past-deadline fixed
    points are not meaningful response times).

    The augmented lengths charge the average token walk, ``Θ/2`` per
    token pass, so the bound assumes it: it bounds the simulator's worst
    responses under ``TokenWalkModel.AVERAGE``, not under
    ``TokenWalkModel.ACTUAL`` (see the module docstring).
    """
    if len(message_set) == 0:
        return []
    ordered = message_set.rate_monotonic()
    lengths = analysis.augmented_lengths(ordered)
    responses = response_time_analysis(
        list(lengths), list(ordered.periods), analysis.blocking
    )

    # Map back from RM order to the caller's stream order.
    order = sorted(
        range(len(message_set)),
        key=lambda i: (
            message_set[i].period_s,
            message_set[i].payload_bits,
            message_set[i].station,
        ),
    )
    bounds: list[StreamResponseBound | None] = [None] * len(message_set)
    for rm_rank, original_index in enumerate(order):
        period = message_set[original_index].period_s
        response = responses[rm_rank]
        bounds[original_index] = StreamResponseBound(
            stream_index=original_index,
            period_s=period,
            bound_s=response if response <= period * (1 + 1e-12) else float("inf"),
        )
    return [b for b in bounds if b is not None]


def ttp_response_bounds(
    analysis: TTPAnalysis,
    message_set: MessageSet,
    allocation: TTPAllocation | None = None,
) -> list[StreamResponseBound]:
    """Worst-case response times under the timed token protocol.

    Uses the allocation the analysis would certify (or the supplied one).
    Streams whose allocation cannot carry them (``h_i <= F_ovhd``) get an
    infinite bound.
    """
    if len(message_set) == 0:
        return []
    if allocation is None:
        result = analysis.analyze(message_set)
        if result.allocation is None:
            raise ConfigurationError(
                f"no valid allocation for this set: {result.reason}"
            )
        allocation = result.allocation
    if len(allocation.bandwidths_s) != len(message_set):
        raise ConfigurationError(
            f"allocation covers {len(allocation.bandwidths_s)} streams, "
            f"message set has {len(message_set)}"
        )

    overhead = analysis.frame_overhead_time
    ttrt = allocation.ttrt_s
    bounds = []
    for index, stream in enumerate(message_set):
        h_i = allocation.bandwidths_s[index]
        payload_time = stream.payload_time(analysis.ring.bandwidth_bps)
        if payload_time == 0.0:
            visits = 1 if h_i > overhead else 0
        elif h_i <= overhead:
            visits = 0  # cannot even carry a frame header
        else:
            visits = math.ceil(payload_time / (h_i - overhead) - 1e-12)
        if visits == 0 and payload_time > 0:
            bound = float("inf")
        else:
            bound = 2.0 * ttrt + max(visits - 1, 0) * ttrt + h_i
        bounds.append(
            StreamResponseBound(
                stream_index=index, period_s=stream.period_s, bound_s=bound
            )
        )
    return bounds
