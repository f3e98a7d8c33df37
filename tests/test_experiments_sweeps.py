"""Ablation sweeps: structural checks, headline orderings and pinned rows
(small scale)."""

import pytest

from repro.experiments.config import PaperParameters
from repro.experiments.crossover import crossover_map
from repro.experiments.loss_sweep import loss_sweep
from repro.experiments.sweeps import (
    frame_size_sweep,
    period_sweep,
    ring_size_sweep,
    sba_comparison,
    ttrt_sweep,
)
from repro.messages.generators import MessageSetSampler
from repro.obs import metrics


@pytest.fixture(scope="module")
def params() -> PaperParameters:
    return PaperParameters().scaled_down(n_stations=10, monte_carlo_sets=5)


class TestTTRTSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        small = PaperParameters().scaled_down(n_stations=10, monte_carlo_sets=5)
        return ttrt_sweep(small, bandwidth_mbps=10.0)

    def test_rows_are_pinned(self, sweep):
        """(policy, mean, stderr), bit-equal to the rows computed before
        sweeps drew prepared populations."""
        assert [(row[0], row[2], row[3]) for row in sweep.rows] == [
            ("fixed(0.02)", 0.0, 0.0),
            ("fixed(0.05)", 0.41709135605333925, 0.0007748263018534991),
            ("fixed(0.10)", 0.6914882155435487, 0.0038852609994195564),
            ("fixed(0.20)", 0.8083336908980012, 0.008203704733709075),
            ("fixed(0.30)", 0.8267159143370059, 0.01796812479820421),
            ("fixed(0.40)", 0.8181183198478891, 0.024574213163175953),
            ("fixed(0.50)", 0.8098415328318463, 0.029678996865706284),
            ("fixed(0.70)", 0.778115258487949, 0.03330344058731488),
            ("fixed(1.00)", 0.7036334510312543, 0.05036608440236337),
            ("sqrt-rule", 0.8295662489918195, 0.015503293898923912),
            ("half-min", 0.5762689452797065, 0.022383563899497097),
            ("optimal", 0.8530348584029234, 0.011598722126211998),
        ]

    def test_has_policy_rows(self, sweep):
        policies = sweep.column("policy")
        assert "sqrt-rule" in policies
        assert "half-min" in policies
        assert "optimal" in policies

    def test_optimal_dominates_everything(self, sweep):
        utils = dict(zip(sweep.column("policy"), sweep.column("avg breakdown util")))
        best_other = max(v for k, v in utils.items() if k != "optimal")
        assert utils["optimal"] >= best_other - 1e-6

    def test_sqrt_rule_beats_half_min(self, sweep):
        """The paper's Section 5.2 claim: values well below P_min/2 win,
        and the sqrt rule comes within 15% of the per-workload optimum."""
        utils = dict(zip(sweep.column("policy"), sweep.column("avg breakdown util")))
        assert utils["sqrt-rule"] > utils["half-min"]
        assert utils["sqrt-rule"] >= 0.85 * utils["optimal"]

    def test_sensitivity_is_visible(self, sweep):
        """Breakdown utilization varies strongly across TTRT values, with an
        interior optimum (Section 5.2's sensitivity claim)."""
        fixed = [
            u
            for p, u in zip(sweep.column("policy"), sweep.column("avg breakdown util"))
            if str(p).startswith("fixed")
        ]
        assert max(fixed) > min(fixed) + 0.1
        peak = fixed.index(max(fixed))
        assert 0 < peak < len(fixed) - 1


class TestFrameSizeSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        small = PaperParameters().scaled_down(n_stations=10, monte_carlo_sets=5)
        return frame_size_sweep(
            small, bandwidth_mbps=10.0, payload_bytes=(16, 64, 256, 1024)
        )

    def test_rows_are_pinned(self, sweep):
        """(mean, stderr) per (size, variant), bit-equal to the rows
        computed before sweeps drew prepared populations."""
        assert [row[2:] for row in sweep.rows] == [
            (0.3819108166932726, 0.005264430024092982),
            (0.4682412834570081, 0.006515303919091959),
            (0.6623162563274085, 0.009110721838049356),
            (0.7198581108701837, 0.010016601442982099),
            (0.8099283343084572, 0.011179813008213677),
            (0.8297956713070578, 0.011551395874223085),
            (0.8500169392285872, 0.011723811562991798),
            (0.8555128255550664, 0.011752857784177591),
        ]

    def test_covers_both_variants(self, sweep):
        variants = set(sweep.column("variant"))
        assert variants == {"ieee-802.5", "modified-802.5"}

    def test_interior_tradeoff_exists(self, sweep):
        """The smallest frame is never the best choice for either
        protocol, and the choice is material: the Section 4.2 trade-off."""
        for variant in ("ieee-802.5", "modified-802.5"):
            utils = [
                util
                for v, util in zip(
                    sweep.column("variant"), sweep.column("avg breakdown util")
                )
                if v == variant
            ]
            assert max(utils) > utils[0]  # 16 B frames are not optimal
            assert max(utils) - min(utils) > 0.05


class TestPeriodSweep:
    def test_grid_complete(self, params):
        sweep = period_sweep(
            params, 10.0, mean_periods_s=(0.05, 0.1), ratios=(2.0, 10.0)
        )
        assert len(sweep.rows) == 4
        # The three protocol means, bit-equal to the rows computed before
        # sweeps drew prepared populations.
        assert [row[2:] for row in sweep.rows] == [
            (0.6046479817852243, 0.6568139890989911, 0.8251327139345213),
            (0.6608576022267489, 0.7180678680443875, 0.7718957049073091),
            (0.6064311751906001, 0.6589206823577319, 0.8750657296784679),
            (0.6623162563274085, 0.7198581108701837, 0.8295662489918195),
        ]

    def test_structural_claims_stable(self, params):
        """The orderings that hold across every period configuration:
        modified always dominates standard, and FDDI benefits from longer
        periods (more rotations to amortize TTRT against)."""
        sweep = period_sweep(
            params, 2.0, mean_periods_s=(0.05, 0.1, 0.2), ratios=(2.0, 10.0)
        )
        for row in sweep.rows:
            __, __, std, mod, __ = row
            assert mod >= std - 1e-6
        for ratio in (2.0, 10.0):
            fddi_by_period = [
                row[4] for row in sweep.rows if row[1] == ratio
            ]
            assert fddi_by_period == sorted(fddi_by_period)

    def test_pdp_wins_low_bandwidth_at_short_periods(self, params):
        """With the paper's ratio of 10 and short-to-moderate mean periods
        the PDP dominates at 2 Mbps even on a small ring."""
        sweep = period_sweep(
            params, 2.0, mean_periods_s=(0.05, 0.1), ratios=(10.0,)
        )
        for row in sweep.rows:
            __, __, std, mod, fddi = row
            assert max(std, mod) > fddi

    def test_fddi_wins_high_bandwidth_everywhere(self, params):
        """At 100 Mbps FDDI wins across the whole period grid."""
        sweep = period_sweep(
            params, 100.0, mean_periods_s=(0.05, 0.1, 0.2), ratios=(2.0, 10.0)
        )
        for row in sweep.rows:
            __, __, std, mod, fddi = row
            assert fddi > max(std, mod)


class TestSBAComparison:
    @pytest.fixture(scope="class")
    def sweep(self):
        small = PaperParameters().scaled_down(n_stations=10, monte_carlo_sets=5)
        return sba_comparison(small, bandwidth_mbps=100.0)

    def test_all_schemes_present(self, sweep):
        names = set(sweep.column("scheme"))
        assert names == {
            "local",
            "full-length",
            "proportional",
            "normalized-proportional",
            "equal-partition",
        }

    def test_proportional_is_zero(self, sweep):
        utils = dict(zip(sweep.column("scheme"), sweep.column("avg breakdown util")))
        assert utils["proportional"] == 0.0

    def test_local_is_competitive(self, sweep):
        """The paper's chosen scheme is at or near the top of the family."""
        utils = dict(zip(sweep.column("scheme"), sweep.column("avg breakdown util")))
        best = max(utils.values())
        assert utils["local"] >= 0.8 * best
        assert utils["local"] > utils["equal-partition"] - 1e-6


class TestRingSizeSweep:
    def test_rows_per_size(self, params):
        sweep = ring_size_sweep(params, 100.0, station_counts=(5, 10))
        # Bit-equal to the rows computed before sweeps drew prepared
        # populations.
        assert sweep.rows == (
            (5, 0.5887969355528881, 0.714359396399635, 0.9542244567343301),
            (10, 0.5124808636225223, 0.7211749232834805, 0.9438307805942919),
        )

    def test_table_renders(self, params):
        sweep = ring_size_sweep(params, 100.0, station_counts=(5,))
        assert "stations" in sweep.to_table()


def _run_crossover(params):
    crossover_map(params, station_counts=(20,))


def _run_frame_size(params):
    frame_size_sweep(params, 16.0, payload_bytes=(16, 64, 256))


def _run_period(params):
    period_sweep(params, 16.0, mean_periods_s=(0.05, 0.1), ratios=(2.0, 10.0))


def _run_ring_size(params):
    ring_size_sweep(params, 16.0, station_counts=(4, 6))


def _run_loss(params):
    loss_sweep(params, 16.0, loss_fractions=(0.0, 0.01))


class TestOnePreparationPerSweep:
    """Each population is drawn and prepared once, by the sweep: one
    ``sample_many`` draw and one exact-test kernel per set, per period
    law or ring size, however many cells share it."""

    @pytest.mark.parametrize(
        "run, n_stations, n_sets, draws, kernels",
        [
            # 70 sets: more than a 64-entry cache shared across the
            # cells could hold without rebuilding in every cell.
            (_run_crossover, 20, 70, 1, 70),
            (_run_frame_size, 6, 10, 1, 10),
            (_run_period, 6, 10, 4, 40),
            (_run_ring_size, 6, 10, 2, 20),
            # Fault-aware cells look their tests up through their own
            # analysis, so only the draw is pinned.
            (_run_loss, 6, 10, 1, None),
        ],
        ids=["crossover", "frame-size", "period", "ring-size", "loss"],
    )
    def test_kernel_builds_per_sweep(
        self, monkeypatch, run, n_stations, n_sets, draws, kernels
    ):
        sample_many = MessageSetSampler.sample_many
        calls = []

        def counting_sample_many(self, *args, **kwargs):
            calls.append(1)
            return sample_many(self, *args, **kwargs)

        monkeypatch.setattr(MessageSetSampler, "sample_many", counting_sample_many)
        metrics.reset()
        run(PaperParameters().scaled_down(n_stations, n_sets))
        assert len(calls) == draws
        if kernels is not None:
            snap = metrics.snapshot("pdp.exact_cache")
            assert snap["pdp.exact_cache.kernel_builds"]["value"] == kernels
            assert snap["pdp.exact_cache.misses"]["value"] == kernels
