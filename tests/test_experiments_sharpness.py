"""Sharpness experiment: soundness and tightness of the criteria."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import PaperParameters
from repro.experiments.sharpness import sharpness_experiment


@pytest.fixture(scope="module")
def result():
    params = PaperParameters().scaled_down(n_stations=5, monte_carlo_sets=3)
    return sharpness_experiment(params, bandwidth_mbps=16.0, n_sets=3)


class TestSharpness:
    def test_samples_for_both_protocols(self, result):
        protocols = {s.protocol for s in result.samples}
        assert protocols == {"modified-802.5", "fddi"}

    def test_soundness_ratios_at_least_one(self, result):
        """The empirical boundary never sits below the analytic one: the
        criteria are sound under matched simulation."""
        for sample in result.samples:
            assert sample.ratio >= 1.0 - 0.03  # bisection tolerance

    def test_pdp_criterion_is_tight(self, result):
        """Theorem 4.1 against the matched (average token walk) simulator
        is essentially exact."""
        ratios = result.ratios("modified-802.5")
        assert ratios
        assert max(ratios) <= 1.10
        assert sum(ratios) / len(ratios) <= 1.05

    def test_ttp_criterion_nearly_tight(self, result):
        """Theorem 5.1's worst-case token-timing assumptions cost only a
        few percent against simulation."""
        ratios = result.ratios("fddi")
        assert ratios
        assert max(ratios) <= 1.25
        assert sum(ratios) / len(ratios) <= 1.15

    def test_table_renders(self, result):
        table = result.to_table()
        assert "mean ratio" in table

    def test_rejects_zero_sets(self):
        params = PaperParameters().scaled_down(4, 2)
        with pytest.raises(ConfigurationError):
            sharpness_experiment(params, n_sets=0)
