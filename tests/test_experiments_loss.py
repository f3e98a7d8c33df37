"""The loss-sweep experiment: table shape, monotone degradation, canary."""

import json

from repro.experiments.loss_sweep import (
    DEFAULT_LOSS_FRACTIONS,
    DEFAULT_RECOVERY_S,
    loss_bench_document,
    loss_figure,
    loss_sweep,
)
from repro.obs.benchjson import BENCH_SCHEMA_VERSION

FRACTIONS = (0.0, 0.01, 0.05)


def run_small(fast_params, jobs=1):
    return loss_sweep(
        fast_params.scaled_down(n_stations=8, monte_carlo_sets=4),
        16.0,
        loss_fractions=FRACTIONS,
        recovery_time_s=1e-3,
        jobs=jobs,
    )


class TestLossSweep:
    def test_table_shape_and_axis(self, fast_params):
        result, cell_seconds = run_small(fast_params)
        assert len(result.rows) == len(FRACTIONS)
        assert [row[0] for row in result.rows] == list(FRACTIONS)
        # The rate axis is loss_fraction / recovery_time.
        assert [row[1] for row in result.rows] == [0.0, 10.0, 50.0]
        assert set(cell_seconds) == {
            (fraction, protocol)
            for fraction in FRACTIONS
            for protocol in ("pdp", "ttp")
        }
        # Both protocols' (mean, stderr), bit-equal to the rows computed
        # when every cell drew its own sets.
        assert [row[2:] for row in result.rows] == [
            (0.6592391464517593, 0.012985694446662746,
             0.8830550663794616, 0.015438314679623227),
            (0.5430020522539405, 0.013121361464880514,
             0.8618470204113693, 0.015996316999088496),
            (0.30537748454111124, 0.016631465729623172,
             0.8256979080759447, 0.014760155077527539),
        ]

    def test_breakdown_positive_and_monotone_non_increasing(self, fast_params):
        result, _ = run_small(fast_params)
        for column in ("IEEE 802.5", "FDDI"):
            values = [float(v) for v in result.column(column)]
            assert values[0] > 0.0, "fault-free baseline must be schedulable"
            assert all(
                a >= b - 1e-9 for a, b in zip(values, values[1:])
            ), (column, values)

    def test_deterministic_across_jobs(self, fast_params):
        sequential, _ = run_small(fast_params, jobs=1)
        parallel, _ = run_small(fast_params, jobs=2)
        assert sequential.rows == parallel.rows

    def test_figure_renders(self, fast_params):
        result, _ = run_small(fast_params)
        figure = loss_figure(result)
        assert "breakdown utilization vs loss fraction" in figure
        assert "IEEE 802.5" in figure and "FDDI" in figure

    def test_default_fractions_include_baseline(self):
        assert DEFAULT_LOSS_FRACTIONS[0] == 0.0
        assert all(
            a < b
            for a, b in zip(DEFAULT_LOSS_FRACTIONS, DEFAULT_LOSS_FRACTIONS[1:])
        )
        assert DEFAULT_RECOVERY_S > 0.0


class TestLossBenchDocument:
    def test_document_shape_and_json_clean(self, fast_params):
        params = fast_params.scaled_down(n_stations=8, monte_carlo_sets=4)
        result, cell_seconds = loss_sweep(
            params, 16.0, loss_fractions=FRACTIONS, recovery_time_s=1e-3
        )
        document = loss_bench_document(
            result, cell_seconds, params, 16.0, 1e-3
        )
        assert document["schema_version"] == BENCH_SCHEMA_VERSION
        assert len(document["benchmarks"]) == 2 * len(FRACTIONS)
        json.dumps(document)  # must be JSON-serializable as-is
        for bench in document["benchmarks"]:
            assert bench["group"] == "loss"
            assert bench["stats"]["rounds"] == 1
            assert bench["stats"]["total"] >= 0.0
            assert 0.0 <= bench["extra_info"]["mean_breakdown_utilization"]
            assert bench["params"]["protocol"] in ("pdp", "ttp")

    def test_document_matches_table(self, fast_params):
        params = fast_params.scaled_down(n_stations=8, monte_carlo_sets=4)
        result, cell_seconds = loss_sweep(
            params, 16.0, loss_fractions=FRACTIONS, recovery_time_s=1e-3
        )
        document = loss_bench_document(
            result, cell_seconds, params, 16.0, 1e-3
        )
        by_name = {bench["name"]: bench for bench in document["benchmarks"]}
        for row in result.rows:
            fraction = row[0]
            assert by_name[f"pdp_loss_{fraction:g}"]["extra_info"][
                "mean_breakdown_utilization"
            ] == float(row[2])
            assert by_name[f"ttp_loss_{fraction:g}"]["extra_info"][
                "mean_breakdown_utilization"
            ] == float(row[4])
