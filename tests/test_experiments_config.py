"""PaperParameters: defaults, factories, variations."""

import numpy as np
import pytest

from repro.analysis.pdp import PDPAnalysis, PDPVariant, PreparedSets
from repro.analysis.ttrt import HalfMinPeriodTTRT
from repro.errors import ConfigurationError
from repro.experiments.config import PaperParameters
from repro.units import mbps


class TestDefaults:
    def test_paper_values(self):
        params = PaperParameters()
        assert params.n_stations == 100
        assert params.station_spacing_m == 100.0
        assert params.velocity_factor == 0.75
        assert params.frame_payload_bytes == 64.0
        assert params.frame_overhead_bits == 112.0
        assert params.mean_period_s == 0.100
        assert params.period_ratio == 10.0

    def test_rejects_zero_sets(self):
        with pytest.raises(ConfigurationError):
            PaperParameters(monte_carlo_sets=0)


class TestFactories:
    def test_frame_format(self):
        frame = PaperParameters().frame_format()
        assert frame.info_bits == 512.0
        assert frame.overhead_bits == 112.0

    def test_rings_have_standard_delays(self):
        params = PaperParameters()
        assert params.pdp_ring(10).station_bit_delay == 4.0
        assert params.ttp_ring(10).station_bit_delay == 75.0

    def test_rings_carry_bandwidth(self):
        assert PaperParameters().pdp_ring(16).bandwidth_bps == mbps(16)

    def test_pdp_analysis(self):
        analysis = PaperParameters().pdp_analysis(10, PDPVariant.MODIFIED)
        assert analysis.variant is PDPVariant.MODIFIED

    def test_pdp_analyses_own_their_caches(self):
        params = PaperParameters()
        std = params.pdp_analysis(10, PDPVariant.STANDARD)
        mod = params.pdp_analysis(10, PDPVariant.MODIFIED)
        assert std._test_cache is not mod._test_cache
        assert std._cache_size == PDPAnalysis._CACHE_SIZE

    def test_sample_population_is_prepared(self):
        params = PaperParameters().scaled_down(6, 4)
        population = params.sample_population()
        assert isinstance(population, PreparedSets)
        assert list(population) == params.sampler().sample_many(
            np.random.default_rng(params.seed), 4
        )

    def test_ttp_analysis_custom_policy(self):
        analysis = PaperParameters().ttp_analysis(100, HalfMinPeriodTTRT())
        assert isinstance(analysis.ttrt_policy, HalfMinPeriodTTRT)

    def test_sampler_matches_stations(self):
        params = PaperParameters().scaled_down(12, 5)
        assert params.sampler().n_streams == 12

    def test_period_distribution(self):
        bounds = PaperParameters().period_distribution().bounds
        assert bounds[0] == pytest.approx(0.2 / 11)


class TestVariations:
    def test_scaled_down(self):
        params = PaperParameters().scaled_down(10, 3)
        assert params.n_stations == 10
        assert params.monte_carlo_sets == 3
        assert params.mean_period_s == 0.100  # untouched

    def test_with_periods(self):
        params = PaperParameters().with_periods(0.05, 4.0)
        assert params.mean_period_s == 0.05
        assert params.period_ratio == 4.0

    def test_with_frame(self):
        params = PaperParameters().with_frame(128)
        assert params.frame_payload_bytes == 128
        assert params.frame_overhead_bits == 112.0

    def test_with_frame_custom_overhead(self):
        params = PaperParameters().with_frame(128, overhead_bits=200)
        assert params.frame_overhead_bits == 200.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PaperParameters().n_stations = 5
