"""Figure 1 harness: shape assertions at a scaled-down configuration.

This is the headline reproduction test: on a small ring (fast enough for
CI) every qualitative property of the paper's figure must hold.
"""

import pytest

import repro.experiments.figure1 as figure1_mod
from repro.experiments.config import PaperParameters
from repro.experiments.figure1 import (
    PAPER_BANDWIDTHS_MBPS,
    Figure1Result,
    run_figure1,
)
from repro.messages.generators import MessageSetSampler
from repro.obs import metrics, tracing


@pytest.fixture(scope="module")
def figure1() -> Figure1Result:
    params = PaperParameters().scaled_down(n_stations=16, monte_carlo_sets=8)
    return run_figure1(params)


class TestShape:
    def test_all_shape_checks_pass(self, figure1):
        report = figure1.shape_report()
        failures = [name for name, ok in report.items() if not ok]
        assert not failures, f"shape checks failed: {failures}"

    def test_crossover_in_paper_band(self, figure1):
        """The paper locates the handover between 10 and 100 Mbps; accept a
        neighbouring grid point on either side for a small ring."""
        crossover = figure1.crossover_bandwidth()
        assert crossover is not None
        assert 4.0 <= crossover <= 160.0

    def test_pdp_peaks_in_low_mbps_decade(self, figure1):
        assert 1.0 <= figure1.peak_bandwidth("pdp_standard") <= 63.0
        assert 1.0 <= figure1.peak_bandwidth("pdp_modified") <= 100.0

    def test_ttp_high_bandwidth_plateau(self, figure1):
        """FDDI approaches but never exceeds full utilization."""
        ttp = figure1.series("ttp")
        assert 0.8 < ttp[-1] <= 1.0

    def test_pdp_collapses_at_gigabit(self, figure1):
        """Both 802.5 curves fall below 20% of their peak at 1 Gbps."""
        for name in ("pdp_standard", "pdp_modified"):
            series = figure1.series(name)
            assert series[-1] < 0.25 * max(series)

    def test_all_values_are_utilizations(self, figure1):
        for name in ("pdp_standard", "pdp_modified", "ttp"):
            assert all(0.0 <= v <= 1.0 for v in figure1.series(name))

    def test_paper_scale_anchors(self):
        """The paper's own configuration (n = 100 stations, 30 sets):
        every shape check plus the quantitative anchors EXPERIMENTS.md
        records."""
        result = run_figure1(PaperParameters())
        report = result.shape_report()
        failures = [name for name, ok in report.items() if not ok]
        assert not failures, f"paper-scale shape checks failed: {failures}"
        crossover = result.crossover_bandwidth()
        assert crossover is not None and 4.0 <= crossover <= 100.0
        assert result.peak_bandwidth("pdp_standard") <= 10.0
        assert result.series("ttp")[-1] > 0.85
        assert result.series("pdp_modified")[-1] < 0.05


class TestDataset:
    def test_grid_covered(self, figure1):
        assert figure1.bandwidths == list(PAPER_BANDWIDTHS_MBPS)

    def test_rows_align(self, figure1):
        rows = figure1.rows()
        assert len(rows) == len(PAPER_BANDWIDTHS_MBPS)
        assert all(len(r) == len(Figure1Result.CSV_HEADERS) for r in rows)
        assert len(Figure1Result.CSV_HEADERS) == 10

    def test_table_renders(self, figure1):
        table = figure1.to_table()
        assert "BW (Mbps)" in table
        assert "FDDI" in table

    def test_plot_renders(self, figure1):
        plot = figure1.to_ascii_plot()
        assert "Figure 1" in plot

    def test_estimates_carry_uncertainty(self, figure1):
        point = figure1.points[5]
        assert point.bandwidth_mbps == 10.0
        assert point.pdp_modified.n_sets == 8
        assert point.pdp_modified.stderr >= 0.0
        assert point.pdp_modified.mean > 0.0
        assert point.ttp.mean > 0.0


class TestDeterminism:
    def test_same_parameters_same_result(self):
        params = PaperParameters().scaled_down(n_stations=8, monte_carlo_sets=3)
        a = run_figure1(params, bandwidths_mbps=(10.0, 100.0))
        b = run_figure1(params, bandwidths_mbps=(10.0, 100.0))
        assert a.points == b.points

    def test_paired_sampling_across_protocols(self):
        """All protocols at one bandwidth see identical workloads: every
        estimate evaluates the one population the sweep draws."""
        params = PaperParameters().scaled_down(n_stations=8, monte_carlo_sets=3)
        result = run_figure1(params, bandwidths_mbps=(100.0,))
        point = result.points[0]
        # Different protocols, same number of non-degenerate samples drawn
        # from the same population (weak but cheap pairing evidence).
        assert point.pdp_standard.n_sets == point.ttp.n_sets


class TestDrawOnce:
    """One population per sweep, evaluated by one estimator call per cell.

    The benchmark harness times cells by wrapping
    ``repro.experiments.figure1.average_breakdown_utilization`` and
    sampling by wrapping ``MessageSetSampler.sample_many``; both hooks
    must see every call.
    """

    def test_one_draw_and_one_estimate_per_cell(self, monkeypatch):
        calls = {"cell": 0, "sample": 0}
        cell = figure1_mod.average_breakdown_utilization
        sample_many = MessageSetSampler.sample_many

        def counting_cell(*args, **kwargs):
            calls["cell"] += 1
            return cell(*args, **kwargs)

        def counting_sample_many(self, *args, **kwargs):
            calls["sample"] += 1
            return sample_many(self, *args, **kwargs)

        monkeypatch.setattr(figure1_mod, "average_breakdown_utilization", counting_cell)
        monkeypatch.setattr(MessageSetSampler, "sample_many", counting_sample_many)
        params = PaperParameters().scaled_down(n_stations=8, monte_carlo_sets=3)
        bandwidths = (2.5, 10.0, 100.0)
        means = []
        for _ in range(2):
            calls.update(cell=0, sample=0)
            result = run_figure1(params, bandwidths_mbps=bandwidths, jobs=1)
            assert calls == {"cell": 3 * len(bandwidths), "sample": 1}
            means.append(
                [result.series(name) for name in ("pdp_standard", "pdp_modified", "ttp")]
            )
        assert means[0] == means[1]

    def test_each_kernel_built_once_per_sweep(self):
        """The sweep builds each set's kernel once, not once per cell,
        and a second sweep on the same parameters builds them again."""
        params = PaperParameters().scaled_down(n_stations=4, monte_carlo_sets=70)
        population = params.sample_population()
        distinct = len({ms.rate_monotonic().periods for ms in population})
        for _ in range(2):
            metrics.reset()
            run_figure1(params, bandwidths_mbps=(10.0, 100.0), jobs=1)
            snap = metrics.snapshot("pdp.exact_cache")
            assert snap["pdp.exact_cache.kernel_builds"]["value"] == 70
            assert snap["pdp.exact_cache.misses"]["value"] == distinct == 70

    def test_preparation_is_one_span(self):
        """The one per-sweep preparation is timed under its own span, not
        left to the time no cell accounts for."""
        params = PaperParameters().scaled_down(n_stations=4, monte_carlo_sets=6)
        tracing.reset()
        try:
            run_figure1(params, bandwidths_mbps=(10.0, 100.0), jobs=1)
            snap = tracing.snapshot()
        finally:
            tracing.reset()
        assert snap["population/prepare"]["count"] == 1
        assert snap["population/prepare"]["total_s"] > 0.0
        assert len([path for path in snap if "/bw" in path]) == 2 * 3


class TestParallelExecution:
    """--jobs N must be a pure performance knob: identical output."""

    def test_jobs_values_give_identical_means(self):
        params = PaperParameters().scaled_down(n_stations=10, monte_carlo_sets=4)
        bandwidths = (2.5, 10.0, 100.0)
        sequential = run_figure1(params, bandwidths_mbps=bandwidths, jobs=1)
        parallel = run_figure1(
            PaperParameters().scaled_down(n_stations=10, monte_carlo_sets=4),
            bandwidths_mbps=bandwidths,
            jobs=2,
        )
        assert sequential.points == parallel.points

    def test_shape_checks_pass_with_parallel_jobs(self):
        params = PaperParameters().scaled_down(n_stations=16, monte_carlo_sets=8)
        report = run_figure1(params, jobs=2).shape_report()
        failures = [name for name, ok in report.items() if not ok]
        assert not failures, f"shape checks failed under --jobs 2: {failures}"

    def test_jobs_zero_means_all_cores(self):
        params = PaperParameters().scaled_down(n_stations=8, monte_carlo_sets=2)
        result = run_figure1(params, bandwidths_mbps=(10.0,), jobs=0)
        assert result.points[0].ttp.n_sets >= 1

    def test_negative_jobs_rejected(self):
        from repro.errors import ConfigurationError

        params = PaperParameters().scaled_down(n_stations=8, monte_carlo_sets=2)
        with pytest.raises(ConfigurationError):
            run_figure1(params, bandwidths_mbps=(10.0, 100.0), jobs=-1)


class TestStreamingSweep:
    """A streaming sweep (``mc_eps`` set) draws its chunks once and shares
    them across cells, like the fixed-N population."""

    #: At this eps most cells stop at min_chunks (4) and one runs on to
    #: 10 chunks, so the cells score more chunks than the sweep draws.
    PARAMS = PaperParameters().scaled_down(8, 8).with_streaming_mc(0.01)
    BANDWIDTHS = (2.5, 10.0, 100.0)

    def test_inline_sweep_prepares_each_chunk_once(self):
        tracing.reset()
        try:
            result = run_figure1(self.PARAMS, bandwidths_mbps=self.BANDWIDTHS)
            snap = tracing.snapshot()
        finally:
            tracing.reset()
        estimates = [getattr(p, name) for p in result.points for name in
                     ("pdp_standard", "pdp_modified", "ttp")]
        # Every cell folds chunks 0..k in order, so the sweep draws as
        # many chunks as its longest cell scores.
        scored = [e.evaluations // 8 for e in estimates]
        distinct = max(scored)
        assert min(scored) < distinct < sum(scored)
        # A chunk is prepared inside the first cell that asks for it.
        prepared = sum(
            stats["count"]
            for path, stats in snap.items()
            if path.endswith("population/prepare")
        )
        assert prepared == distinct

    def test_jobs_do_not_change_the_estimates(self):
        inline = run_figure1(self.PARAMS, bandwidths_mbps=self.BANDWIDTHS, jobs=1)
        pooled = run_figure1(self.PARAMS, bandwidths_mbps=self.BANDWIDTHS, jobs=2)
        assert inline.points == pooled.points
