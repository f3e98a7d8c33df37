"""Columnar message sets: the struct-of-arrays core for very large sets.

A :class:`StreamTable` holds a message set's periods, payloads and station
ids as three numpy arrays instead of ``n`` stream objects.  At the paper's
scale (tens to hundreds of streams) the object representation is fine; at
admission-service or sweep scale (10^5–10^6+ streams) the per-object
overhead dominates everything — construction, pickling, and every
``for stream in message_set`` loop.  The table keeps one process able to
hold and analyse million-stream sets while presenting the *same* API
surface the analyses consume from :class:`~repro.messages.message_set.MessageSet`:
``periods`` / ``payloads_bits`` / ``min_period`` / ``max_period`` /
``utilization`` / ``rate_monotonic`` / ``scaled`` / iteration.

Equivalence contract (pinned by the ``columnar_equiv`` fuzz property and
``tests/test_messages_table.py``):

* ``objects -> table -> objects`` round-trips **bit-identically**,
  including degenerate sets (n = 1, equal periods, zero payloads);
* :meth:`rate_monotonic` produces exactly the order of
  ``MessageSet.rate_monotonic()`` (period, then payload, then station);
* per-stream quantities (:meth:`utilizations`, scaled payloads, augmented
  lengths computed from the columns) are bit-identical to the scalar
  object path — the columns hold the very same float64 values;
* aggregate sums (:meth:`utilization`) may differ from the object path by
  float association only; verdict-level agreement is pinned instead.

Analyses detect tables through the ``is_columnar`` marker attribute
(duck-typed, no import cycle) and switch to vectorized kernels; every
scalar object path remains in place as the oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import MessageSetError
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream

__all__ = ["StreamTable"]


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class StreamTable(Sequence[SynchronousStream]):
    """An immutable columnar message set (struct of arrays).

    Args:
        periods_s: per-stream periods in seconds (1-D, positive, finite).
        payloads_bits: per-stream payload lengths in bits (non-negative,
            finite, same shape).
        stations: per-stream station ids (non-negative integers); defaults
            to ``0..n-1`` — one stream per station, the paper's model.

    The columns are copied once and frozen read-only, so a table can be
    shared freely (and hashed) like a :class:`MessageSet`.
    """

    #: Duck-type marker the analyses dispatch on (no import needed).
    is_columnar = True

    __slots__ = ("_periods", "_payloads", "_stations")

    def __init__(
        self,
        periods_s: "Sequence[float] | np.ndarray",
        payloads_bits: "Sequence[float] | np.ndarray",
        stations: "Sequence[int] | np.ndarray | None" = None,
    ):
        periods = np.array(periods_s, dtype=float)
        payloads = np.array(payloads_bits, dtype=float)
        if periods.ndim != 1 or payloads.shape != periods.shape:
            raise MessageSetError(
                "periods and payloads must be matching 1-D columns, got "
                f"shapes {periods.shape} and {payloads.shape}"
            )
        if stations is None:
            station_ids = np.arange(periods.size, dtype=np.int64)
        else:
            station_ids = np.array(stations, dtype=np.int64)
            if station_ids.shape != periods.shape:
                raise MessageSetError(
                    "stations column must match the period column, got "
                    f"shapes {station_ids.shape} and {periods.shape}"
                )
        if periods.size:
            if not np.all(np.isfinite(periods)) or np.any(periods <= 0):
                raise MessageSetError("periods must be positive and finite")
            if not np.all(np.isfinite(payloads)) or np.any(payloads < 0):
                raise MessageSetError("payloads must be non-negative and finite")
            if np.any(station_ids < 0):
                raise MessageSetError("station ids must be non-negative")
        self._periods = _readonly(periods)
        self._payloads = _readonly(payloads)
        self._stations = _readonly(station_ids)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_streams(
        cls, streams: Iterable[SynchronousStream]
    ) -> "StreamTable":
        """Columnarize an iterable of streams (order preserved)."""
        items = list(streams)
        n = len(items)
        return cls(
            np.fromiter((s.period_s for s in items), dtype=float, count=n),
            np.fromiter((s.payload_bits for s in items), dtype=float, count=n),
            np.fromiter((s.station for s in items), dtype=np.int64, count=n),
        )

    @classmethod
    def from_message_set(cls, message_set: MessageSet) -> "StreamTable":
        """Columnarize a :class:`MessageSet` (bit-identical columns)."""
        return cls.from_streams(message_set)

    def to_message_set(self) -> MessageSet:
        """The object-path view of this table (bit-identical round trip)."""
        return MessageSet(
            SynchronousStream(period_s=p, payload_bits=c, station=s)
            for p, c, s in zip(
                self._periods.tolist(),
                self._payloads.tolist(),
                self._stations.tolist(),
            )
        )

    # -- Sequence protocol -------------------------------------------------------

    def __len__(self) -> int:
        return self._periods.size

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return StreamTable(
                self._periods[index],
                self._payloads[index],
                self._stations[index],
            )
        return SynchronousStream(
            period_s=float(self._periods[index]),
            payload_bits=float(self._payloads[index]),
            station=int(self._stations[index]),
        )

    def __iter__(self) -> Iterator[SynchronousStream]:
        for p, c, s in zip(
            self._periods.tolist(),
            self._payloads.tolist(),
            self._stations.tolist(),
        ):
            yield SynchronousStream(period_s=p, payload_bits=c, station=s)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamTable):
            return NotImplemented
        return (
            np.array_equal(self._periods, other._periods)
            and np.array_equal(self._payloads, other._payloads)
            and np.array_equal(self._stations, other._stations)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._periods.tobytes(),
                self._payloads.tobytes(),
                self._stations.tobytes(),
            )
        )

    def __repr__(self) -> str:
        return f"StreamTable(n={len(self)})"

    # -- columns and aggregates ---------------------------------------------------

    @property
    def periods(self) -> np.ndarray:
        """``P_i`` column (read-only float64 view, construction order)."""
        return self._periods

    @property
    def payloads_bits(self) -> np.ndarray:
        """``C_i^b`` column (read-only float64 view, construction order)."""
        return self._payloads

    @property
    def stations(self) -> np.ndarray:
        """Station id column (read-only int64 view)."""
        return self._stations

    @property
    def min_period(self) -> float:
        """``P_min``; raises for an empty table."""
        self._require_nonempty()
        return float(self._periods.min())

    @property
    def max_period(self) -> float:
        """``P_max``; raises for an empty table."""
        self._require_nonempty()
        return float(self._periods.max())

    def utilizations(self, bandwidth_bps: float) -> np.ndarray:
        """Per-stream ``C_i / P_i`` — elementwise bit-identical to the
        object path (``(bits / bps) / period``, the same two divisions)."""
        if bandwidth_bps <= 0.0:
            raise MessageSetError(
                f"bandwidth must be positive, got {bandwidth_bps!r}"
            )
        return (self._payloads / bandwidth_bps) / self._periods

    def utilization(self, bandwidth_bps: float) -> float:
        """``U(M) = Σ C_i / P_i`` (pairwise numpy sum; the object path sums
        sequentially, so the aggregate may differ by float association)."""
        return float(np.sum(self.utilizations(bandwidth_bps)))

    def total_payload_bits(self) -> float:
        """Sum of payload lengths across streams, in bits."""
        return float(np.sum(self._payloads))

    def period_key(self) -> bytes:
        """Hashable identity of the period column (for structure caches)."""
        return self._periods.tobytes()

    def signature_rows(self) -> list[list]:
        """``[period, payload, station]`` rows with native Python scalars.

        Exactly the rows the breakdown result-cache builds from object
        sets, so a table and its object twin share cache entries.
        """
        return [
            [p, c, s]
            for p, c, s in zip(
                self._periods.tolist(),
                self._payloads.tolist(),
                self._stations.tolist(),
            )
        ]

    # -- orderings ----------------------------------------------------------------

    def rate_monotonic(self) -> "StreamTable":
        """The table sorted into rate-monotonic priority order.

        ``np.lexsort`` with period as the primary key, payload then
        station as tie-breakers — exactly the tuple order of
        ``sorted(streams)`` on the object path, so the permutation is
        identical to ``MessageSet.rate_monotonic()``.
        """
        order = np.lexsort((self._stations, self._payloads, self._periods))
        return StreamTable(
            self._periods[order], self._payloads[order], self._stations[order]
        )

    def is_rate_monotonic_ordered(self) -> bool:
        """True when the periods are already non-decreasing."""
        return bool(np.all(np.diff(self._periods) >= 0))

    # -- transformations -----------------------------------------------------------

    def scaled(self, factor: float) -> "StreamTable":
        """Scale every payload by ``factor``; periods are untouched."""
        if factor < 0:
            raise MessageSetError(
                f"scale factor must be non-negative, got {factor!r}"
            )
        return StreamTable(
            self._periods, self._payloads * factor, self._stations
        )

    def scaled_utilization(self, factor: float, bandwidth_bps: float) -> float:
        """``U(factor·M)``; the scaled table is one array product."""
        return self.scaled(factor).utilization(bandwidth_bps)

    def assigned_to_stations(self) -> "StreamTable":
        """Re-number stations 0..n-1 in current order."""
        return StreamTable(self._periods, self._payloads)

    # -- internals -------------------------------------------------------------------

    def _require_nonempty(self) -> None:
        if not self._periods.size:
            raise MessageSetError("operation requires a non-empty message set")
