"""SynchronousStream: validation, derived quantities, transformations."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MessageSetError
from repro.messages.stream import SynchronousStream
from repro.units import mbps, milliseconds


class TestValidation:
    def test_rejects_zero_period(self):
        with pytest.raises(MessageSetError):
            SynchronousStream(period_s=0.0, payload_bits=100)

    def test_rejects_negative_period(self):
        with pytest.raises(MessageSetError):
            SynchronousStream(period_s=-1.0, payload_bits=100)

    def test_rejects_negative_payload(self):
        with pytest.raises(MessageSetError):
            SynchronousStream(period_s=1.0, payload_bits=-1)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_non_finite_period(self, value):
        with pytest.raises(MessageSetError, match="finite"):
            SynchronousStream(period_s=value, payload_bits=100)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_non_finite_payload(self, value):
        with pytest.raises(MessageSetError, match="finite"):
            SynchronousStream(period_s=1.0, payload_bits=value)

    def test_rejects_negative_station(self):
        with pytest.raises(MessageSetError):
            SynchronousStream(period_s=1.0, payload_bits=1, station=-1)

    def test_zero_payload_allowed(self):
        assert SynchronousStream(period_s=1.0, payload_bits=0).payload_bits == 0


class TestDerived:
    def test_payload_time(self):
        stream = SynchronousStream(period_s=0.1, payload_bits=10_000)
        assert stream.payload_time(mbps(10)) == pytest.approx(1e-3)

    def test_utilization(self):
        stream = SynchronousStream(period_s=0.1, payload_bits=10_000)
        assert stream.utilization(mbps(1)) == pytest.approx(0.1)

    def test_rate(self):
        assert SynchronousStream(period_s=0.02, payload_bits=1).rate_hz() == pytest.approx(50.0)


class TestOrdering:
    def test_rm_order_by_period(self):
        fast = SynchronousStream(period_s=milliseconds(10), payload_bits=10)
        slow = SynchronousStream(period_s=milliseconds(20), payload_bits=10)
        assert fast < slow

    def test_tie_break_on_payload_then_station(self):
        a = SynchronousStream(period_s=0.01, payload_bits=10, station=0)
        b = SynchronousStream(period_s=0.01, payload_bits=20, station=0)
        c = SynchronousStream(period_s=0.01, payload_bits=20, station=1)
        assert a < b < c


class TestTransformations:
    def test_scaled(self):
        stream = SynchronousStream(period_s=0.1, payload_bits=100, station=3)
        scaled = stream.scaled(2.5)
        assert scaled.payload_bits == 250
        assert scaled.period_s == 0.1
        assert scaled.station == 3

    def test_scaled_rejects_negative(self):
        with pytest.raises(MessageSetError):
            SynchronousStream(period_s=0.1, payload_bits=100).scaled(-1)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    @pytest.mark.parametrize("payload", [0.0, 100.0])
    def test_scaled_rejects_non_finite_factor(self, factor, payload):
        """A NaN or infinite factor makes a NaN or infinite payload (0 × inf
        is NaN), which the stream validator refuses."""
        with pytest.raises(MessageSetError):
            SynchronousStream(period_s=0.1, payload_bits=payload).scaled(factor)

    def test_with_payload(self):
        stream = SynchronousStream(period_s=0.1, payload_bits=100)
        assert stream.with_payload(7).payload_bits == 7

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_with_payload_rejects_non_finite(self, value):
        with pytest.raises(MessageSetError):
            SynchronousStream(period_s=0.1, payload_bits=100).with_payload(value)

    def test_with_station(self):
        stream = SynchronousStream(period_s=0.1, payload_bits=100, station=0)
        assert stream.with_station(5).station == 5

    def test_original_unchanged(self):
        stream = SynchronousStream(period_s=0.1, payload_bits=100)
        stream.scaled(2.0)
        assert stream.payload_bits == 100

    @given(
        payload=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        factor=st.floats(min_value=0, max_value=1e3, allow_nan=False),
    )
    def test_scaling_utilization_is_linear(self, payload, factor):
        stream = SynchronousStream(period_s=0.05, payload_bits=payload)
        assert stream.scaled(factor).utilization(1e6) == pytest.approx(
            factor * stream.utilization(1e6), rel=1e-9, abs=1e-12
        )
