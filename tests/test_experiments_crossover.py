"""Crossover frontier: structure and direction."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import PaperParameters
from repro.experiments.crossover import crossover_map


@pytest.fixture(scope="module")
def frontier():
    params = PaperParameters().scaled_down(n_stations=10, monte_carlo_sets=5)
    return crossover_map(params, station_counts=(5, 10, 20))


class TestStructure:
    def test_one_point_per_ring_size(self, frontier):
        assert [p.n_stations for p in frontier.points] == [5, 10, 20]

    def test_table_renders(self, frontier):
        table = frontier.to_table()
        assert "crossover" in table

    def test_points_are_pinned(self, frontier):
        """Bit-equal to the points computed before sweeps drew prepared
        populations."""
        assert [
            (p.crossover_mbps, p.pdp_at_crossover, p.ttp_at_crossover)
            for p in frontier.points
        ] == [
            (2.5, 0.7099755579506155, 0.7390111661935215),
            (4.0, 0.7172436905617692, 0.7398606745850015),
            (6.3, 0.6937682635087905, 0.7207105528185043),
        ]

    def test_frontier_pairs(self, frontier):
        pairs = frontier.frontier()
        assert len(pairs) == 3
        assert pairs[0][0] == 5

    def test_rejects_empty_inputs(self):
        params = PaperParameters().scaled_down(5, 2)
        with pytest.raises(ConfigurationError):
            crossover_map(params, station_counts=())


class TestPhysics:
    def test_crossover_found_everywhere(self, frontier):
        """On the 1–100 Mbps grid TTP always overtakes eventually."""
        for point in frontier.points:
            assert point.crossover_mbps is not None

    def test_crossover_in_low_band(self, frontier):
        """Handover happens in the paper's 1–100 Mbps window."""
        for point in frontier.points:
            assert 1.0 <= point.crossover_mbps <= 100.0

    def test_ttp_actually_wins_at_crossover(self, frontier):
        for point in frontier.points:
            assert point.ttp_at_crossover > point.pdp_at_crossover

    def test_frontier_rises_with_ring_size(self, frontier):
        """At the low-bandwidth end FDDI's n·F_ovhd rotation tax grows
        faster than the PDP's Θ tax, so bigger rings push the handover to
        higher bandwidths."""
        crossings = [p.crossover_mbps for p in frontier.points]
        assert crossings == sorted(crossings)
