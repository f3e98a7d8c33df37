"""A single periodic synchronous message stream (Section 3.2).

Each stream ``S_i`` arrives at one station of the ring.  Messages arrive
every ``P_i`` seconds, each carrying ``C_i^b`` payload bits, and must finish
transmission by the end of the period in which they arrive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import MessageSetError
from repro.units import transmission_time

__all__ = ["SynchronousStream"]


@dataclass(frozen=True, order=True)
class SynchronousStream:
    """One periodic real-time message stream.

    The ordering of streams is by ``(period_s, payload_bits, station)`` so
    that sorting a list of streams yields the rate-monotonic priority order
    (shorter period = higher priority) with a deterministic tie-break.

    Attributes:
        period_s: inter-arrival time ``P_i`` in seconds (positive and
            finite); also the relative deadline of every message in the
            stream.
        payload_bits: message payload length ``C_i^b`` in bits
            (non-negative and finite).
        station: index of the ring station the stream arrives at.  Purely
            informational for the analyses; the simulators use it for
            placement on the ring.
    """

    period_s: float
    payload_bits: float
    station: int = 0

    def __post_init__(self) -> None:
        # NaN compares false against every bound, so finiteness is
        # checked first: a NaN or infinite stream would otherwise reach
        # the exact test and fail there for a whole admission batch.
        if not math.isfinite(self.period_s) or self.period_s <= 0:
            raise MessageSetError(
                f"stream period must be positive and finite, got {self.period_s!r}"
            )
        if not math.isfinite(self.payload_bits) or self.payload_bits < 0:
            raise MessageSetError(
                "stream payload must be non-negative and finite, "
                f"got {self.payload_bits!r}"
            )
        if self.station < 0:
            raise MessageSetError(
                f"station index must be non-negative, got {self.station!r}"
            )

    # -- derived quantities ---------------------------------------------------

    def payload_time(self, bandwidth_bps: float) -> float:
        """``C_i``: payload transmission time at ``bandwidth_bps``, seconds."""
        return transmission_time(self.payload_bits, bandwidth_bps)

    def utilization(self, bandwidth_bps: float) -> float:
        """This stream's utilization contribution ``C_i / P_i``."""
        return self.payload_time(bandwidth_bps) / self.period_s

    def rate_hz(self) -> float:
        """Message arrival rate, messages per second."""
        return 1.0 / self.period_s

    # -- transformations --------------------------------------------------------

    def scaled(self, factor: float) -> "SynchronousStream":
        """Return a copy with the payload scaled by ``factor`` (>= 0)."""
        if factor < 0:
            raise MessageSetError(f"scale factor must be non-negative, got {factor!r}")
        return replace(self, payload_bits=self.payload_bits * factor)

    def with_payload(self, payload_bits: float) -> "SynchronousStream":
        """Return a copy carrying ``payload_bits`` instead."""
        return replace(self, payload_bits=payload_bits)

    def with_station(self, station: int) -> "SynchronousStream":
        """Return a copy placed at a different station."""
        return replace(self, station=station)
