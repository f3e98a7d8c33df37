"""Synchronous message sets (the ``M`` of Section 3.2).

A :class:`MessageSet` is an immutable ordered collection of
:class:`~repro.messages.stream.SynchronousStream` objects.  It provides the
aggregate quantities the analyses need (utilization, period extremes) and
the rate-monotonic ordering used by the priority driven protocol.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import MessageSetError
from repro.messages.stream import SynchronousStream
from repro.units import transmission_time

__all__ = ["MessageSet", "StackedSets", "scaled_utilizations"]

#: ``MessageSet._rm`` marker for a set already in rate-monotonic order
#: (a sentinel rather than a self-reference, so no set is in a cycle and
#: populations are freed as soon as they are dropped).
_IN_RM_ORDER = object()

#: The rate-monotonic sort key: the fields ``SynchronousStream`` orders
#: by, in its field order, so a key sort gives the order its dataclass
#: comparisons give, without a Python-level ``__lt__`` per comparison.
_RM_KEY = attrgetter("period_s", "payload_bits", "station")


class MessageSet(Sequence[SynchronousStream]):
    """An immutable collection of synchronous streams.

    The constructor preserves the given order (stations keep their
    identity); :meth:`rate_monotonic` returns a copy sorted into RM
    priority order, which is what the PDP analysis consumes.  That copy
    is computed once per set and remembered, so a population analysed
    under many rings and protocols is sorted once.  The :attr:`periods`
    and :attr:`payloads_bits` columns are remembered the same way.
    """

    __slots__ = ("_streams", "_rm", "_periods", "_payloads")

    def __init__(self, streams: Iterable[SynchronousStream]):
        self._streams: tuple[SynchronousStream, ...] = tuple(streams)
        self._rm: MessageSet | object | None = None
        self._periods: tuple[float, ...] | None = None
        self._payloads: tuple[float, ...] | None = None
        for stream in self._streams:
            if not isinstance(stream, SynchronousStream):
                raise MessageSetError(
                    f"message sets hold SynchronousStream objects, got {stream!r}"
                )

    # -- Sequence protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._streams)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return MessageSet(self._streams[index])
        return self._streams[index]

    def __iter__(self) -> Iterator[SynchronousStream]:
        return iter(self._streams)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MessageSet):
            return NotImplemented
        return self._streams == other._streams

    def __hash__(self) -> int:
        return hash(self._streams)

    def __reduce__(self):
        # The RM and column memos are derived state: pickles carry the
        # streams only.
        return (MessageSet, (self._streams,))

    def __repr__(self) -> str:
        return f"MessageSet({list(self._streams)!r})"

    # -- aggregate properties ---------------------------------------------------

    @property
    def streams(self) -> tuple[SynchronousStream, ...]:
        """The streams in construction order."""
        return self._streams

    @property
    def periods(self) -> tuple[float, ...]:
        """``P_i`` for every stream, in construction order (memoised)."""
        if self._periods is None:
            self._periods = tuple(s.period_s for s in self._streams)
        return self._periods

    @property
    def payloads_bits(self) -> tuple[float, ...]:
        """``C_i^b`` for every stream, in construction order (memoised)."""
        if self._payloads is None:
            self._payloads = tuple(s.payload_bits for s in self._streams)
        return self._payloads

    @property
    def min_period(self) -> float:
        """``P_min``; raises for an empty set."""
        self._require_nonempty()
        return min(self.periods)

    @property
    def max_period(self) -> float:
        """``P_max``; raises for an empty set."""
        self._require_nonempty()
        return max(self.periods)

    def utilization(self, bandwidth_bps: float) -> float:
        """``U(M) = Σ C_i / P_i`` at ``bandwidth_bps`` (equation (3))."""
        return sum(s.utilization(bandwidth_bps) for s in self._streams)

    def total_payload_bits(self) -> float:
        """Sum of payload lengths across streams, in bits."""
        return sum(s.payload_bits for s in self._streams)

    # -- orderings ----------------------------------------------------------------

    def rate_monotonic(self) -> "MessageSet":
        """The set sorted into rate-monotonic priority order.

        Shorter period = higher priority (appears first).  Ties break on
        payload then station index so the order is deterministic.  The
        result is memoised: repeated calls return the same object, and an
        already-ordered set returns itself.
        """
        if self._rm is None:
            ordered = tuple(sorted(self._streams, key=_RM_KEY))
            if ordered == self._streams:
                self._rm = _IN_RM_ORDER
            else:
                self._rm = MessageSet(ordered)
                self._rm._rm = _IN_RM_ORDER
        return self if self._rm is _IN_RM_ORDER else self._rm

    def is_rate_monotonic_ordered(self) -> bool:
        """True when the streams are already in non-decreasing period order."""
        periods = self.periods
        return all(a <= b for a, b in zip(periods, periods[1:]))

    # -- transformations -----------------------------------------------------------

    def scaled(self, factor: float) -> "MessageSet":
        """Scale every payload by ``factor``; periods are untouched."""
        return MessageSet(s.scaled(factor) for s in self._streams)

    def scaled_utilization(self, factor: float, bandwidth_bps: float) -> float:
        """``U(factor·M)`` without building the scaled set.

        Bit-identical to ``scaled(factor).utilization(bandwidth_bps)``:
        the same payload product, the same two divisions, summed in
        stream order.  A NaN or infinite factor is rejected, as the
        scaled set would reject the NaN or infinite payloads it makes.
        """
        if not math.isfinite(factor) or factor < 0:
            raise MessageSetError(
                f"scale factor must be non-negative and finite, got {factor!r}"
            )
        return sum(
            transmission_time(s.payload_bits * factor, bandwidth_bps) / s.period_s
            for s in self._streams
        )

    def assigned_to_stations(self) -> "MessageSet":
        """Re-number stations 0..n-1 in current order (one stream per station)."""
        return MessageSet(
            s.with_station(i) for i, s in enumerate(self._streams)
        )

    # -- internals -------------------------------------------------------------------

    def _require_nonempty(self) -> None:
        if not self._streams:
            raise MessageSetError("operation requires a non-empty message set")


class StackedSets(tuple):
    """Message sets with their columns stacked once into padded matrices.

    ``periods`` and ``payloads`` hold one row per set, its streams in
    construction order, padded past the set's length with period 1.0 and
    payload 0.0 to one column more than the widest set (a padded term
    ``0.0 / 1.0`` adds nothing), and ``lengths`` the number of streams
    of each set.  Array passes over a whole population
    (:func:`scaled_utilizations`,
    :meth:`~repro.analysis.ttp.TTPAnalysis.saturation_scales`) read
    these instead of re-reading every set; a sweep builds them once with
    its population (:class:`~repro.analysis.pdp.PreparedSets` is one).

    Args:
        message_sets: the sets, in row order.
    """

    def __init__(self, message_sets: Iterable[MessageSet]):
        self.lengths = np.fromiter(map(len, self), dtype=np.intp, count=len(self))
        shape = (len(self), int(self.lengths.max(initial=0)) + 1)
        self.payloads = np.zeros(shape)
        self.periods = np.ones(shape)
        for row, message_set in enumerate(self):
            self.payloads[row, : len(message_set)] = message_set.payloads_bits
            self.periods[row, : len(message_set)] = message_set.periods


def scaled_utilizations(
    message_sets: Sequence[MessageSet], factors: Sequence[float], bandwidth_bps: float
) -> list[float]:
    """:meth:`MessageSet.scaled_utilization` of each set at its factor, in
    one array pass, with the same errors.

    Row ``i`` holds ``payload·factor / bandwidth / period`` of set ``i``
    in stream order, zero-padded (``0.0 / 1.0``) past the widest set, as
    the matrices of a :class:`StackedSets` are (read as they are when
    ``message_sets`` is one, stacked here otherwise), and
    ``np.add.accumulate`` folds each row left to right, as the builtin
    ``sum`` of floats does before CPython 3.12: each row's last column is
    the scalar sum bit for bit.
    """
    if not message_sets:
        return []
    scales = np.asarray(factors, dtype=float)
    bad = scales[~np.isfinite(scales) | (scales < 0.0)]
    if bad.size:
        raise MessageSetError(
            f"scale factor must be non-negative and finite, got {float(bad[0])!r}"
        )
    transmission_time(0.0, bandwidth_bps)  # raises for a non-positive bandwidth
    columns = (
        message_sets
        if isinstance(message_sets, StackedSets)
        else StackedSets(message_sets)
    )
    terms = columns.payloads * scales[:, None] / float(bandwidth_bps) / columns.periods
    return np.add.accumulate(terms, axis=1)[:, -1].tolist()
