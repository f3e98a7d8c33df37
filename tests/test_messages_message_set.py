"""MessageSet: sequence behaviour, aggregates, RM ordering."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MessageSetError
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.units import mbps, milliseconds


def from_columns(periods, payloads, stations=None) -> MessageSet:
    if stations is None:
        stations = range(len(periods))
    return MessageSet(
        SynchronousStream(period_s=p, payload_bits=c, station=s)
        for p, c, s in zip(periods, payloads, stations)
    )


def make_set() -> MessageSet:
    return MessageSet(
        [
            SynchronousStream(period_s=milliseconds(40), payload_bits=4000, station=0),
            SynchronousStream(period_s=milliseconds(10), payload_bits=1000, station=1),
            SynchronousStream(period_s=milliseconds(20), payload_bits=2000, station=2),
        ]
    )


class TestSequenceProtocol:
    def test_len(self):
        assert len(make_set()) == 3

    def test_getitem(self):
        assert make_set()[1].station == 1

    def test_slice_returns_message_set(self):
        subset = make_set()[:2]
        assert isinstance(subset, MessageSet)
        assert len(subset) == 2

    def test_iteration_preserves_order(self):
        assert [s.station for s in make_set()] == [0, 1, 2]

    def test_equality_and_hash(self):
        assert make_set() == make_set()
        assert hash(make_set()) == hash(make_set())

    def test_inequality(self):
        assert make_set() != make_set().scaled(2.0)

    def test_rejects_non_streams(self):
        with pytest.raises(MessageSetError):
            MessageSet([1, 2, 3])

    def test_empty_set_allowed(self):
        assert len(MessageSet([])) == 0


class TestAggregates:
    def test_periods(self):
        assert make_set().periods == (0.040, 0.010, 0.020)

    def test_payloads(self):
        assert make_set().payloads_bits == (4000, 1000, 2000)

    def test_min_max_period(self):
        assert make_set().min_period == pytest.approx(0.010)
        assert make_set().max_period == pytest.approx(0.040)

    def test_min_period_empty_raises(self):
        with pytest.raises(MessageSetError):
            MessageSet([]).min_period

    def test_utilization_equation_3(self):
        # At 1 Mbps: 4000/40ms + 1000/10ms + 2000/20ms bits/s = 0.3.
        assert make_set().utilization(mbps(1)) == pytest.approx(0.3)

    def test_utilization_is_the_stream_sum_bitwise(self):
        rng = random.Random(5)
        message_set = from_columns(
            [rng.uniform(0.01, 1.0) for _ in range(50)],
            [rng.uniform(0.0, 8000.0) for _ in range(50)],
        )
        total = 0.0
        for stream in message_set:
            total += stream.utilization(mbps(10))
        assert message_set.utilization(mbps(10)) == total

    def test_total_payload_bits(self):
        assert make_set().total_payload_bits() == 7000


class TestRateMonotonic:
    def test_sorts_by_period(self):
        ordered = make_set().rate_monotonic()
        assert [s.period_s for s in ordered] == sorted(make_set().periods)

    def test_ordered_check(self):
        assert not make_set().is_rate_monotonic_ordered()
        assert make_set().rate_monotonic().is_rate_monotonic_ordered()

    def test_original_untouched(self):
        original = make_set()
        original.rate_monotonic()
        assert [s.station for s in original] == [0, 1, 2]

    def test_empty_is_trivially_ordered(self):
        assert MessageSet([]).is_rate_monotonic_ordered()


    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.05, 0.1, 0.1, 0.25, 1.0 / 3.0]),
                st.sampled_from([0.0, 64.0, 64.0, 512.0]),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_order_is_the_period_payload_station_sort(self, rows):
        """Property: with heavy ties from tiny catalogues, the RM order is
        the sort on ``(period, payload, station)`` and is RM-ordered."""
        message_set = from_columns(*zip(*rows))
        ordered = message_set.rate_monotonic()
        assert [(s.period_s, s.payload_bits, s.station) for s in ordered] == sorted(
            rows
        )
        assert ordered.is_rate_monotonic_ordered()


class TestRoundTrip:
    @pytest.mark.parametrize(
        "periods, payloads",
        [
            ([0.125], [1024.0]),
            ([0.1, 0.1, 0.1], [64.0, 64.0, 64.0]),
            ([0.05, 0.2], [0.0, 0.0]),
            ([0.3, 0.1, 0.2], [10.5, 0.0, 7.25]),
        ],
        ids=["single", "equal-periods", "zero-payloads", "mixed"],
    )
    def test_degenerate_sets_round_trip(self, periods, payloads):
        """Rebuilding from the streams and pickling both give an equal set
        with an equal hash and the same RM order."""
        message_set = from_columns(periods, payloads)
        rebuilt = MessageSet(list(message_set))
        unpickled = pickle.loads(pickle.dumps(message_set))
        for copy in (rebuilt, unpickled):
            assert copy == message_set
            assert hash(copy) == hash(message_set)
            assert copy.rate_monotonic() == message_set.rate_monotonic()

    def test_round_trip_preserves_stations(self):
        message_set = from_columns([0.2, 0.1], [64.0, 32.0], stations=[7, 3])
        copy = pickle.loads(pickle.dumps(message_set))
        assert [s.station for s in copy] == [7, 3]
        assert [s.station for s in copy.rate_monotonic()] == [3, 7]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-6, max_value=1e3),
                st.floats(min_value=0.0, max_value=1e6),
            ),
            min_size=1,
            max_size=32,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_columns_are_bit_identical(self, rows):
        """Property: the period and payload columns hand back exactly the
        floats the set was built from, also after a pickle round trip."""
        periods = tuple(p for p, _ in rows)
        payloads = tuple(c for _, c in rows)
        message_set = from_columns(periods, payloads)
        copy = pickle.loads(pickle.dumps(message_set))
        assert message_set.periods == copy.periods == periods
        assert message_set.payloads_bits == copy.payloads_bits == payloads


class TestRateMonotonicMemo:
    """rate_monotonic() sorts once per set and remembers the result."""

    def test_repeated_call_returns_same_object(self):
        original = make_set()
        first = original.rate_monotonic()
        assert original.rate_monotonic() is first
        assert first.rate_monotonic() is first

    def test_ordered_set_returns_itself(self):
        ordered = MessageSet(sorted(make_set()))
        assert ordered.rate_monotonic() is ordered
        assert MessageSet([]).rate_monotonic() == MessageSet([])

    def test_equality_hash_and_pickle_unchanged(self):
        memoised, fresh = make_set(), make_set()
        memoised.rate_monotonic()
        assert memoised == fresh
        assert hash(memoised) == hash(fresh)
        restored = pickle.loads(pickle.dumps(memoised))
        assert restored == fresh
        assert pickle.dumps(memoised) == pickle.dumps(fresh)
        assert restored.rate_monotonic() == memoised.rate_monotonic()

    def test_copies_do_not_inherit_the_memo(self):
        original = make_set()
        ordered = original.rate_monotonic()
        head = original[:2]
        assert [s.period_s for s in head.rate_monotonic()] == sorted(head.periods)
        assert head.rate_monotonic() is not ordered
        scaled = original.scaled(2.0)
        assert scaled.rate_monotonic() is not ordered
        assert scaled.rate_monotonic() == ordered.scaled(2.0)
        assert [s.station for s in scaled.rate_monotonic()] == [1, 2, 0]
        tail = ordered[1:]
        assert tail.rate_monotonic() is tail
        assert tail == MessageSet(list(ordered)[1:])


class TestColumnMemo:
    """periods and payloads_bits are built once per set and remembered."""

    def test_repeated_reads_return_the_same_tuple(self):
        message_set = make_set()
        periods, payloads = message_set.periods, message_set.payloads_bits
        assert message_set.periods is periods
        assert message_set.payloads_bits is payloads
        assert periods == tuple(s.period_s for s in message_set)
        assert payloads == tuple(s.payload_bits for s in message_set)

    def test_pickle_carries_the_streams_only(self):
        memoised, fresh = make_set(), make_set()
        memoised.periods, memoised.payloads_bits
        assert pickle.dumps(memoised) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(memoised))
        assert restored.periods == memoised.periods
        assert restored.payloads_bits == memoised.payloads_bits

    def test_copies_build_their_own_columns(self):
        original = make_set()
        original.periods, original.payloads_bits
        assert original.scaled(2.0).payloads_bits == (8000, 2000, 4000)
        assert original[:2].periods == original.periods[:2]
        ordered = original.rate_monotonic()
        assert ordered.periods == tuple(sorted(original.periods))


class TestTransformations:
    def test_scaled(self):
        doubled = make_set().scaled(2.0)
        assert doubled.payloads_bits == (8000, 2000, 4000)
        assert doubled.periods == make_set().periods

    def test_scaled_utilization_linear(self):
        assert make_set().scaled(0.5).utilization(mbps(1)) == pytest.approx(0.15)

    def test_scaled_utilization_bit_identical_to_scaled_set(self):
        rng = random.Random(7)
        message_set = MessageSet(
            SynchronousStream(
                period_s=rng.uniform(0.01, 1.0),
                payload_bits=rng.uniform(0.0, 8000.0),
                station=i,
            )
            for i in range(100)
        )
        for factor in (0.0, 1e-3, 0.7312, 1.0, 3.9):
            expected = message_set.scaled(factor).utilization(mbps(10))
            assert message_set.scaled_utilization(factor, mbps(10)) == expected

    def test_scaled_utilization_keeps_the_scaled_set_errors(self):
        with pytest.raises(MessageSetError):
            make_set().scaled_utilization(-1.0, mbps(1))
        with pytest.raises(ValueError):
            make_set().scaled_utilization(1.0, 0.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_scaled_utilization_rejects_non_finite_factor(self, factor):
        """The shortcut refuses what the scaled set refuses."""
        with pytest.raises(MessageSetError):
            make_set().scaled(factor)
        with pytest.raises(MessageSetError, match="finite"):
            make_set().scaled_utilization(factor, mbps(1))

    def test_assigned_to_stations(self):
        renumbered = make_set().rate_monotonic().assigned_to_stations()
        assert [s.station for s in renumbered] == [0, 1, 2]
