"""The metrics registry, its instrumentation hooks, and parallel merging.

Three layers of assurance:

1. registry mechanics (singletons, snapshot/merge/reset, disable);
2. the exact-test cache counters against an *oracle recount* — a
   hand-tracked simulation of the LRU on a deterministic workload;
3. the partitioning invariance contract: a ``jobs=2`` Figure 1 run merges
   worker metrics into exactly the totals of the sequential run for every
   metric that does not depend on how cells were packed into processes.
"""

import numpy as np
import pytest

from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.errors import ConfigurationError
from repro.experiments.config import PaperParameters
from repro.experiments.figure1 import run_figure1
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.network.frames import FrameFormat
from repro.network.standards import ieee_802_5_ring
from repro.obs import metrics
from repro.units import mbps


@pytest.fixture(autouse=True)
def clean_registry():
    """Each test starts and ends with a zeroed global registry."""
    metrics.reset()
    metrics.enable()
    yield
    metrics.reset()
    metrics.enable()


class TestRegistry:
    def test_counter_is_singleton_per_name(self):
        reg = metrics.MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a") is not reg.counter("b")

    def test_counter_increments(self):
        reg = metrics.MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(3)
        assert c.value == 4.0

    def test_counter_rejects_negative(self):
        reg = metrics.MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("hits").inc(-1)

    def test_type_conflict_raises(self):
        reg = metrics.MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")

    def test_gauge_tracks_level(self):
        reg = metrics.MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7)
        g.set(3)
        assert g.value == 3.0

    def test_histogram_moments(self):
        reg = metrics.MetricsRegistry()
        h = reg.histogram("sizes")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == 2.0
        assert h.minimum == 1.0 and h.maximum == 3.0

    def test_snapshot_skips_zero_state(self):
        reg = metrics.MetricsRegistry()
        reg.counter("untouched")
        reg.histogram("empty")
        reg.counter("used").inc()
        snap = reg.snapshot()
        assert "used" in snap
        assert "untouched" not in snap
        assert "empty" not in snap

    def test_snapshot_is_plain_data(self):
        reg = metrics.MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1.5)
        snap = reg.snapshot()
        assert snap["c"] == {"type": "counter", "value": 2.0}
        assert snap["g"] == {"type": "gauge", "value": 5.0}
        assert snap["h"]["count"] == 1 and snap["h"]["mean"] == 1.5

    def test_snapshot_prefix_filters(self):
        reg = metrics.MetricsRegistry()
        reg.counter("service.requests").inc()
        reg.counter("cache.admission.hits").inc()
        reg.counter("sim.runs").inc()
        assert set(reg.snapshot(prefix="service.")) == {"service.requests"}
        assert set(reg.snapshot(prefix=("service.", "cache.admission."))) == {
            "service.requests",
            "cache.admission.hits",
        }
        assert len(reg.snapshot()) == 3

    def test_merge_combines_worker_snapshots(self):
        a = metrics.MetricsRegistry()
        b = metrics.MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(5.0)
        a.merge(b.snapshot())
        assert a.counter("c").value == 5.0
        assert a.gauge("g").value == 9.0  # max wins
        h = a.histogram("h")
        assert h.count == 2 and h.minimum == 1.0 and h.maximum == 5.0

    def test_merge_unknown_type_raises(self):
        reg = metrics.MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.merge({"x": {"type": "meter", "value": 1}})

    def test_reset_zeroes_in_place(self):
        reg = metrics.MetricsRegistry()
        c = reg.counter("c")
        c.inc(4)
        reg.reset()
        assert c.value == 0.0
        c.inc()  # the pre-reset reference still works
        assert reg.counter("c").value == 1.0

    def test_disable_short_circuits_updates(self):
        reg = metrics.MetricsRegistry()
        c = reg.counter("c")
        reg.enabled = False
        c.inc(10)
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1.0)
        assert reg.snapshot() == {}
        reg.enabled = True
        c.inc()
        assert c.value == 1.0


def _make_set(rng, n_streams: int, periods=None) -> MessageSet:
    """A random message set (optionally with pinned periods)."""
    if periods is None:
        periods = np.sort(rng.uniform(0.02, 0.2, size=n_streams))
    payloads = rng.uniform(100.0, 2000.0, size=n_streams)
    return MessageSet(
        SynchronousStream(period_s=float(p), payload_bits=float(c), station=i)
        for i, (c, p) in enumerate(zip(payloads, periods))
    )


class TestCacheOracle:
    """The pdp.exact_cache counters versus a hand-tracked LRU recount."""

    def _analysis(self, cache_size: int) -> PDPAnalysis:
        ring = ieee_802_5_ring(mbps(10.0), n_stations=8)
        frame = FrameFormat(info_bits=512, overhead_bits=112)
        return PDPAnalysis(
            ring, frame, PDPVariant.STANDARD, cache_size=cache_size
        )

    def test_counters_match_oracle_recount(self):
        cache_size = 3
        analysis = self._analysis(cache_size)
        rng = np.random.default_rng(7)
        # Six distinct period vectors, presented in an order with repeats.
        vectors = [
            tuple(np.sort(rng.uniform(0.02, 0.2, size=8))) for _ in range(6)
        ]
        order = [0, 1, 0, 2, 3, 1, 4, 0, 5, 5, 2]

        # Oracle: replay the same access sequence against a plain LRU.
        oracle_cache: list[int] = []
        oracle = {"hits": 0, "misses": 0, "evictions": 0}
        for idx in order:
            if idx in oracle_cache:
                oracle["hits"] += 1
                oracle_cache.remove(idx)
                oracle_cache.append(idx)
            else:
                oracle["misses"] += 1
                oracle_cache.append(idx)
                if len(oracle_cache) > cache_size:
                    oracle_cache.pop(0)
                    oracle["evictions"] += 1

        for idx in order:
            analysis.is_schedulable(_make_set(rng, 8, periods=vectors[idx]))

        snap = metrics.snapshot()
        assert snap["pdp.exact_cache.hits"]["value"] == oracle["hits"]
        assert snap["pdp.exact_cache.misses"]["value"] == oracle["misses"]
        assert snap["pdp.exact_cache.evictions"]["value"] == oracle["evictions"]

    def test_repeated_set_hits_after_first_miss(self):
        analysis = self._analysis(4)
        rng = np.random.default_rng(3)
        message_set = _make_set(rng, 8)
        for _ in range(5):
            analysis.is_schedulable(message_set)
        snap = metrics.snapshot()
        assert snap["pdp.exact_cache.misses"]["value"] == 1
        assert snap["pdp.exact_cache.hits"]["value"] == 4


#: Metrics whose totals must not depend on how grid cells are packed into
#: worker processes.  Figure 1 prepares its population's exact tests once,
#: in the parent, so its misses and kernel builds are invariant; the
#: lookup total is checked on its own below.
INVARIANT_METRICS = (
    "pdp.exact_cache.misses",
    "pdp.exact_cache.kernel_builds",
    "breakdown.probes",
    "breakdown.batch_calls",
    "breakdown.sets_saturated",
    "breakdown.closed_form_sets",
    "montecarlo.sets_sampled",
    "montecarlo.degenerate_sets",
    "montecarlo.zero_scale_sets",
    "montecarlo.infinite_scale_sets",
)


class TestParallelMergeInvariance:
    def test_jobs2_merged_metrics_equal_sequential(self):
        params = PaperParameters().scaled_down(
            n_stations=12, monte_carlo_sets=4
        )
        bandwidths = (4.0, 40.0, 400.0)

        metrics.reset()
        sequential = run_figure1(params, bandwidths_mbps=bandwidths, jobs=1)
        seq_snap = metrics.snapshot()

        metrics.reset()
        pooled = run_figure1(params, bandwidths_mbps=bandwidths, jobs=2)
        pool_snap = metrics.snapshot()

        # Bit-identical results regardless of jobs.
        assert sequential.rows() == pooled.rows()

        for name in INVARIANT_METRICS:
            assert seq_snap.get(name) == pool_snap.get(name), name

        # The cache lookup *total* is invariant even though the split isn't.
        def lookups(snap):
            hits = snap.get("pdp.exact_cache.hits", {}).get("value", 0.0)
            misses = snap.get("pdp.exact_cache.misses", {}).get("value", 0.0)
            return hits + misses

        assert lookups(seq_snap) == lookups(pool_snap)

        # Histogram mass (bisection evaluations per set) is invariant too.
        seq_evals = seq_snap.get("breakdown.evals_per_set")
        pool_evals = pool_snap.get("breakdown.evals_per_set")
        if seq_evals is not None:
            assert pool_evals is not None
            assert seq_evals["count"] == pool_evals["count"]
            assert seq_evals["total"] == pool_evals["total"]

    def test_results_identical_with_metrics_disabled(self):
        params = PaperParameters().scaled_down(
            n_stations=10, monte_carlo_sets=3
        )
        enabled = run_figure1(params, bandwidths_mbps=(10.0,), jobs=1)
        metrics.reset()
        metrics.disable()
        try:
            disabled = run_figure1(params, bandwidths_mbps=(10.0,), jobs=1)
        finally:
            metrics.enable()
        assert enabled.rows() == disabled.rows()
        # And the disabled run left no trace.
        assert metrics.snapshot() == {}
