"""Columnar StreamTable: lossless round trips, bit-identical columns.

The table is pure performance work — every observable quantity must match
the object path exactly, including on the degenerate sets (n = 1, equal
periods, zero payloads) where sort ties and empty reductions live.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MessageSetError
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.messages.table import StreamTable
from repro.units import mbps


BW = mbps(10)


def _message_set(periods, payloads, stations=None):
    if stations is None:
        stations = range(len(periods))
    return MessageSet(
        SynchronousStream(period_s=p, payload_bits=c, station=s)
        for p, c, s in zip(periods, payloads, stations)
    )


class TestConstruction:
    def test_rejects_mismatched_columns(self):
        with pytest.raises(MessageSetError):
            StreamTable([0.1, 0.2], [100.0])

    def test_rejects_non_positive_periods(self):
        with pytest.raises(MessageSetError):
            StreamTable([0.1, 0.0], [100.0, 100.0])

    def test_rejects_negative_payloads(self):
        with pytest.raises(MessageSetError):
            StreamTable([0.1, 0.2], [100.0, -1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(MessageSetError):
            StreamTable([0.1, float("inf")], [100.0, 100.0])
        with pytest.raises(MessageSetError):
            StreamTable([0.1, 0.2], [100.0, float("nan")])

    def test_default_stations_enumerate(self):
        table = StreamTable([0.1, 0.2], [64.0, 128.0])
        assert table.stations.tolist() == [0, 1]

    def test_columns_are_readonly(self):
        table = StreamTable([0.1, 0.2], [64.0, 128.0])
        with pytest.raises(ValueError):
            table.periods[0] = 1.0
        with pytest.raises(ValueError):
            table.payloads_bits[0] = 1.0

    def test_is_columnar_marker(self):
        assert StreamTable([0.1], [64.0]).is_columnar
        assert not getattr(_message_set([0.1], [64.0]), "is_columnar", False)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "periods, payloads",
        [
            ([0.125], [1024.0]),  # n = 1
            ([0.1, 0.1, 0.1], [64.0, 64.0, 64.0]),  # equal periods
            ([0.05, 0.2], [0.0, 0.0]),  # zero payloads
            ([0.3, 0.1, 0.2], [10.5, 0.0, 7.25]),
        ],
    )
    def test_degenerate_round_trips(self, periods, payloads):
        message_set = _message_set(periods, payloads)
        table = StreamTable.from_message_set(message_set)
        assert table.to_message_set() == message_set
        assert StreamTable.from_message_set(table.to_message_set()) == table

    def test_round_trip_preserves_stations(self):
        message_set = _message_set([0.2, 0.1], [64.0, 32.0], stations=[7, 3])
        table = StreamTable.from_message_set(message_set)
        assert table.stations.tolist() == [7, 3]
        assert table.to_message_set() == message_set

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=32,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_bit_identical(self, rows):
        """Property: table -> objects -> table loses nothing, bitwise."""
        periods = [p for p, _ in rows]
        payloads = [c for _, c in rows]
        message_set = _message_set(periods, payloads)
        table = StreamTable.from_message_set(message_set)
        assert np.array_equal(table.periods, np.array(periods))
        assert np.array_equal(table.payloads_bits, np.array(payloads))
        back = table.to_message_set()
        assert back == message_set
        assert StreamTable.from_message_set(back) == table

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.05, 0.1, 0.1, 0.25, 1.0 / 3.0]),
                st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            ),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rate_monotonic_matches_object_sort(self, rows):
        """Property: lexsort ordering equals the object tuple sort, even
        with heavy period ties drawn from a tiny catalogue."""
        message_set = _message_set([p for p, _ in rows], [c for _, c in rows])
        table = StreamTable.from_message_set(message_set)
        assert (
            table.rate_monotonic().to_message_set()
            == message_set.rate_monotonic()
        )


class TestSequenceProtocol:
    def test_len_getitem_iter(self):
        message_set = _message_set([0.2, 0.1], [64.0, 32.0])
        table = StreamTable.from_message_set(message_set)
        assert len(table) == 2
        assert table[1] == message_set[1]
        assert list(table) == list(message_set)

    def test_slice_returns_table(self):
        table = StreamTable([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
        head = table[:2]
        assert isinstance(head, StreamTable)
        assert head == StreamTable([0.1, 0.2], [1.0, 2.0])

    def test_eq_and_hash(self):
        a = StreamTable([0.1, 0.2], [1.0, 2.0])
        b = StreamTable([0.1, 0.2], [1.0, 2.0])
        c = StreamTable([0.1, 0.2], [1.0, 3.0])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestQuantities:
    def test_utilizations_bit_identical_to_object_path(self):
        rng = np.random.default_rng(5)
        periods = rng.uniform(0.01, 1.0, size=50)
        payloads = rng.uniform(0.0, 8000.0, size=50)
        message_set = _message_set(periods, payloads)
        table = StreamTable.from_message_set(message_set)
        expected = np.array([s.utilization(BW) for s in message_set])
        assert np.array_equal(table.utilizations(BW), expected)

    def test_min_max_period(self):
        table = StreamTable([0.3, 0.1, 0.2], [1.0, 1.0, 1.0])
        assert table.min_period == 0.1
        assert table.max_period == 0.3

    def test_scaled_utilization_is_the_scaled_table_utilization(self):
        table = StreamTable([0.1, 0.2, 0.3], [10.0, 20.0, 35.0])
        assert table.scaled_utilization(1.7, BW) == table.scaled(1.7).utilization(BW)
        with pytest.raises(MessageSetError):
            table.scaled_utilization(1.0, 0.0)

    def test_scaled(self):
        table = StreamTable([0.1, 0.2], [10.0, 20.0])
        assert table.scaled(2.0) == StreamTable([0.1, 0.2], [20.0, 40.0])
        with pytest.raises(MessageSetError):
            table.scaled(-1.0)

    def test_signature_rows_are_native_scalars(self):
        table = StreamTable([0.1], [64.0])
        ((p, c, s),) = table.signature_rows()
        assert type(p) is float and type(c) is float and type(s) is int

    def test_period_key_distinguishes_period_columns(self):
        a = StreamTable([0.1, 0.2], [1.0, 1.0])
        b = StreamTable([0.1, 0.3], [1.0, 1.0])
        assert a.period_key() != b.period_key()
        assert a.period_key() == StreamTable([0.1, 0.2], [9.0, 9.0]).period_key()
