"""Throughput experiment: structure and the overhead story."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import PaperParameters
from repro.experiments.throughput import throughput_experiment


@pytest.fixture(scope="module")
def result():
    params = PaperParameters().scaled_down(n_stations=8, monte_carlo_sets=3)
    return throughput_experiment(
        params, bandwidths_mbps=(4.0, 100.0), duration_s=0.3
    )


class TestStructure:
    def test_both_protocols_present(self, result):
        protocols = {p.protocol for p in result.points}
        assert protocols == {"modified-802.5", "fddi"}

    def test_fractions_sum_to_one(self, result):
        for point in result.points:
            total = (
                point.sync_utilization
                + point.async_utilization
                + point.overhead_fraction
            )
            assert total == pytest.approx(1.0, abs=0.05)

    def test_no_misses_at_half_load(self, result):
        assert all(p.deadline_misses == 0 for p in result.points)

    def test_table_renders(self, result):
        table = result.to_table()
        assert "protocol" in table
        assert "fddi" in table

    def test_for_protocol_filter(self, result):
        fddi_points = result.for_protocol("fddi")
        assert all(p.protocol == "fddi" for p in fddi_points)
        assert len(fddi_points) == 2


class TestPhysics:
    def test_goodput_high_everywhere(self, result):
        for point in result.points:
            assert point.goodput > 0.75

    def test_pdp_overhead_grows_with_bandwidth(self, result):
        pdp = {p.bandwidth_mbps: p for p in result.for_protocol("modified-802.5")}
        assert pdp[100.0].overhead_fraction > pdp[4.0].overhead_fraction

    def test_fddi_overhead_small_at_high_bandwidth(self, result):
        """At 100 Mbps the PDP burns over twice FDDI's share on
        arbitration: the Figure 1 overhead story in throughput form."""
        fddi = {p.bandwidth_mbps: p for p in result.for_protocol("fddi")}
        pdp = {p.bandwidth_mbps: p for p in result.for_protocol("modified-802.5")}
        assert fddi[100.0].overhead_fraction < 0.1
        assert pdp[100.0].overhead_fraction > 2 * fddi[100.0].overhead_fraction


class TestValidation:
    def test_rejects_bad_fraction(self):
        params = PaperParameters().scaled_down(4, 2)
        with pytest.raises(ConfigurationError):
            throughput_experiment(params, sync_load_fraction=1.5)

    def test_sync_fraction_scales_load(self):
        params = PaperParameters().scaled_down(6, 2)
        light = throughput_experiment(
            params, bandwidths_mbps=(16.0,), sync_load_fraction=0.2,
            duration_s=0.3,
        )
        heavy = throughput_experiment(
            params, bandwidths_mbps=(16.0,), sync_load_fraction=0.8,
            duration_s=0.3,
        )
        for protocol in ("modified-802.5", "fddi"):
            l = light.for_protocol(protocol)[0]
            h = heavy.for_protocol(protocol)[0]
            assert h.sync_utilization > l.sync_utilization
