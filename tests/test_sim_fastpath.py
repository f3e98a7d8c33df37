"""Fast-path simulators and the engine dispatch (repro.sim.fastpath*).

The contract under test is *bit identity*: on every supported
configuration the event-compressing fast paths must reproduce the scalar
oracles' reports exactly — same busy times, same response samples, same
rotation statistics — so they can replace the oracles anywhere without a
tolerance budget.  On unsupported configurations the dispatch falls back
to the oracle and the fast paths themselves refuse loudly, never
silently approximate.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.analysis.pdp import PDPVariant
from repro.analysis.ttp import TTPAnalysis
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.network.standards import ieee_802_5_ring, paper_frame_format
from repro.obs import metrics
from repro.sim import fastpath, fastpath_ttp
from repro.sim.dispatch import report_from_payload, report_to_payload, run_pdp
from repro.sim.pdp_sim import PDPRingSimulator, PDPSimConfig, TokenWalkModel
from repro.sim.trace import DeadlineStats, RotationStats, SimulationReport
from repro.sim.traffic import ArrivalPhasing, PoissonAsyncTraffic
from repro.sim.ttp_sim import TTPRingSimulator, TTPSimConfig
from repro.sim import validate as validate_mod
from repro.units import mbps


def assert_reports_identical(scalar: SimulationReport, fast: SimulationReport):
    assert fast.duration == scalar.duration
    assert fast.sync_busy_time == scalar.sync_busy_time
    assert fast.async_busy_time == scalar.async_busy_time
    assert fast.token_time == scalar.token_time
    assert [vars(s) for s in fast.streams] == [vars(s) for s in scalar.streams]
    assert [vars(r) for r in fast.rotations] == [
        vars(r) for r in scalar.rotations
    ]


def _counter(name: str) -> float:
    return metrics.counter(name).value


# -- PDP bit identity ---------------------------------------------------------


@pytest.mark.parametrize("variant", [PDPVariant.STANDARD, PDPVariant.MODIFIED])
@pytest.mark.parametrize(
    "phasing", [ArrivalPhasing.SIMULTANEOUS, ArrivalPhasing.STAGGERED]
)
@pytest.mark.parametrize("saturating", [True, False])
def test_pdp_fast_matches_scalar(
    harmonic_set, small_ring_802_5, frame, variant, phasing, saturating
):
    config = PDPSimConfig(
        variant=variant,
        phasing=phasing,
        async_saturating=saturating,
        token_walk=TokenWalkModel.ACTUAL,
        collect_responses=True,
    )
    duration = 0.25
    scalar = PDPRingSimulator(
        small_ring_802_5, frame, harmonic_set, config
    ).run(duration)
    events = _counter("sim.fastpath.pdp.events")
    steps = _counter("sim.fastpath.pdp.steps")
    fast = fastpath.run_pdp_fast(
        small_ring_802_5, frame, harmonic_set, config, duration
    )
    assert_reports_identical(scalar, fast)
    assert fast.total_completed > 0
    # Compression engaged: fewer compressed steps than logical events.
    events = _counter("sim.fastpath.pdp.events") - events
    steps = _counter("sim.fastpath.pdp.steps") - steps
    assert events > steps > 0


def test_pdp_fast_matches_scalar_average_walk(harmonic_set, small_ring_802_5, frame):
    config = PDPSimConfig(
        variant=PDPVariant.MODIFIED,
        token_walk=TokenWalkModel.AVERAGE,
        collect_responses=True,
    )
    scalar = PDPRingSimulator(small_ring_802_5, frame, harmonic_set, config).run(0.2)
    fast = fastpath.run_pdp_fast(small_ring_802_5, frame, harmonic_set, config, 0.2)
    assert_reports_identical(scalar, fast)


def test_pdp_fast_sparse_idle_gaps(small_ring_802_5, frame):
    # One light stream with a long period: the run is mostly idle, so the
    # fast path must skip the gaps without inventing or losing arrivals.
    sparse = MessageSet(
        [SynchronousStream(period_s=0.05, payload_bits=512, station=2)]
    )
    config = PDPSimConfig(async_saturating=False, collect_responses=True)
    scalar = PDPRingSimulator(small_ring_802_5, frame, sparse, config).run(1.0)
    fast = fastpath.run_pdp_fast(small_ring_802_5, frame, sparse, config, 1.0)
    assert_reports_identical(scalar, fast)


# -- TTP bit identity ---------------------------------------------------------


@pytest.mark.parametrize(
    "phasing", [ArrivalPhasing.SIMULTANEOUS, ArrivalPhasing.STAGGERED]
)
@pytest.mark.parametrize("saturating", [True, False])
def test_ttp_fast_matches_scalar(
    harmonic_set, small_ring_fddi, frame, phasing, saturating
):
    allocation = TTPAnalysis(small_ring_fddi, frame).analyze(harmonic_set).allocation
    assert allocation is not None
    config = TTPSimConfig(
        phasing=phasing, async_saturating=saturating, collect_responses=True
    )
    duration = 0.25
    scalar = TTPRingSimulator(
        small_ring_fddi, frame, harmonic_set, allocation, config
    ).run(duration)
    fast = fastpath_ttp.run_ttp_fast(
        small_ring_fddi, frame, harmonic_set, allocation, config, duration
    )
    assert_reports_identical(scalar, fast)


def test_ttp_fast_sweeps_empty_rotations(small_ring_fddi, frame):
    # A single light stream on a 100 Mbps ring: almost every rotation is
    # empty, which is exactly what the closed-form rotation sweep covers.
    sparse = MessageSet(
        [SynchronousStream(period_s=0.02, payload_bits=4_096, station=0)]
    )
    allocation = TTPAnalysis(small_ring_fddi, frame).analyze(sparse).allocation
    assert allocation is not None
    config = TTPSimConfig(async_saturating=False, collect_responses=True)
    swept_before = _counter("sim.fastpath.ttp.swept")
    scalar = TTPRingSimulator(
        small_ring_fddi, frame, sparse, allocation, config
    ).run(0.5)
    fast = fastpath_ttp.run_ttp_fast(
        small_ring_fddi, frame, sparse, allocation, config, 0.5
    )
    assert_reports_identical(scalar, fast)
    assert fast.total_completed > 0
    assert _counter("sim.fastpath.ttp.swept") > swept_before


# -- dispatch -----------------------------------------------------------------


def test_auto_falls_back_on_poisson_and_matches_scalar(
    harmonic_set, small_ring_802_5, frame
):
    config = PDPSimConfig(
        async_saturating=False,
        async_poisson=PoissonAsyncTraffic(offered_load=0.1, frame_bits=1_000.0),
    )
    fallbacks = _counter("sim.fastpath.fallbacks")
    dispatched = run_pdp(small_ring_802_5, frame, harmonic_set, config, 0.1)
    assert _counter("sim.fastpath.fallbacks") == fallbacks + 1
    scalar = PDPRingSimulator(small_ring_802_5, frame, harmonic_set, config).run(0.1)
    assert_reports_identical(scalar, dispatched)


def test_forced_fast_refuses_poisson(harmonic_set, small_ring_802_5, frame):
    config = PDPSimConfig(
        async_saturating=False,
        async_poisson=PoissonAsyncTraffic(offered_load=0.1, frame_bits=1_000.0),
    )
    with pytest.raises(ConfigurationError, match="Poisson"):
        fastpath.run_pdp_fast(small_ring_802_5, frame, harmonic_set, config, 0.1)


def test_forced_fast_refuses_shared_stations(small_ring_802_5, frame):
    shared = MessageSet(
        [
            SynchronousStream(period_s=0.02, payload_bits=1_000, station=3),
            SynchronousStream(period_s=0.04, payload_bits=1_000, station=3),
        ]
    )
    with pytest.raises(ConfigurationError, match="one stream per station"):
        fastpath.run_pdp_fast(small_ring_802_5, frame, shared, PDPSimConfig(), 0.1)
    # the dispatch quietly routes the same workload to the scalar oracle
    report = run_pdp(small_ring_802_5, frame, shared, PDPSimConfig(), 0.1)
    assert report.duration == 0.1


def test_ttp_forced_fast_refuses_poisson(harmonic_set, small_ring_fddi, frame):
    allocation = TTPAnalysis(small_ring_fddi, frame).analyze(harmonic_set).allocation
    config = TTPSimConfig(
        async_saturating=False,
        async_poisson=PoissonAsyncTraffic(offered_load=0.1, frame_bits=1_000.0),
    )
    with pytest.raises(ConfigurationError, match="Poisson"):
        fastpath_ttp.run_ttp_fast(
            small_ring_fddi, frame, harmonic_set, allocation, config, 0.1
        )


def test_scalar_engine_ignores_fastpath_support(harmonic_set, small_ring_802_5, frame):
    runs = _counter("sim.fastpath.pdp.runs")
    PDPRingSimulator(small_ring_802_5, frame, harmonic_set, PDPSimConfig()).run(0.05)
    assert _counter("sim.fastpath.pdp.runs") == runs


# -- report serialisation -----------------------------------------------------


def test_report_payload_roundtrip_through_json():
    report = SimulationReport(
        duration=0.5,
        streams=[
            DeadlineStats(
                stream_index=0, completed=3, missed=1,
                max_response=0.011, total_response=0.027,
                responses=[0.009, 0.007, 0.011], sample_limit=10,
            )
        ],
        rotations=[
            RotationStats(
                station=2, count=0, total=0.0,
                maximum=0.0, minimum=float("inf"),
            )
        ],
        sync_busy_time=0.1,
        async_busy_time=0.2,
        token_time=0.05,
    )
    wire = json.loads(json.dumps(report_to_payload(report)))
    rebuilt = report_from_payload(wire)
    assert vars(rebuilt)["duration"] == report.duration
    assert [vars(s) for s in rebuilt.streams] == [vars(s) for s in report.streams]
    assert rebuilt.rotations[0].minimum == float("inf")


# -- seams the mutation smoke relies on --------------------------------------


def test_short_frame_seam_changes_the_report(frame):
    # High bandwidth: Θ exceeds the wire time, so dropping the max(…, Θ)
    # floor on the short last frame must visibly change the report.  This
    # pins the seam the ``pdp_fastpath_short_frame`` mutant patches.
    ring = ieee_802_5_ring(mbps(100), n_stations=8)
    payload = int(frame.info_bits * 1.5)  # guarantees a short last frame
    ms = MessageSet(
        [SynchronousStream(period_s=0.01, payload_bits=payload, station=0)]
    )
    config = PDPSimConfig(collect_responses=True)
    clean = fastpath.run_pdp_fast(ring, frame, ms, config, 0.1)
    original = fastpath._short_frame_occupancy

    def buggy(chunk_bits, overhead_bits, bandwidth_bps, theta):
        return (chunk_bits + overhead_bits) / bandwidth_bps

    fastpath._short_frame_occupancy = buggy
    try:
        mutated = fastpath.run_pdp_fast(ring, frame, ms, config, 0.1)
    finally:
        fastpath._short_frame_occupancy = original
    assert mutated.streams[0].max_response != clean.streams[0].max_response


# -- hyperperiod memoisation --------------------------------------------------


def test_rational_hyperperiod_memoised():
    periods = (0.02, 0.03, 0.05)
    first = validate_mod._rational_hyperperiod(periods)
    assert (periods, 1_000_000) in validate_mod._HYPERPERIOD_MEMO
    assert validate_mod._rational_hyperperiod(periods) == first
    # A different denominator bound is a different computation.
    coarse = validate_mod._rational_hyperperiod(periods, max_denominator=10)
    assert (periods, 10) in validate_mod._HYPERPERIOD_MEMO
    assert validate_mod._rational_hyperperiod(periods, max_denominator=10) == coarse
