"""Fast-path dispatch and cached execution for the ring simulators.

Each run takes the event-compressing fast path
(:mod:`repro.sim.fastpath`, :mod:`repro.sim.fastpath_ttp`) when its
input supports one, and the discrete-event oracle
(:class:`~repro.sim.pdp_sim.PDPRingSimulator`,
:class:`~repro.sim.ttp_sim.TTPRingSimulator`) otherwise.  The two are bit
identical on every supported configuration, so the choice follows from
the input alone: :func:`pdp_fastpath_unsupported` /
:func:`ttp_fastpath_unsupported` name the reason a configuration needs
the oracle, and each such fallback is counted in
``sim.fastpath.fallbacks`` and logged (USAGE.md §13).

:func:`cached_run_pdp` / :func:`cached_run_ttp` wrap the dispatch with
the content-addressed result cache (:mod:`repro.cache`): the key hashes
the full simulation input — ring, frame format, streams, configuration,
allocation, horizon, and the code-version salt — and a hit replays the
stored :class:`~repro.sim.trace.SimulationReport` bit for bit.  Cache
hits do **not** re-publish ``sim.*`` run metrics (metrics never feed
results; ``cache.sim.*`` counters record the hit).
"""

from __future__ import annotations

from dataclasses import asdict

from repro import cache as _cache
from repro.analysis.ttp import TTPAllocation
from repro.messages.message_set import MessageSet
from repro.network.frames import FrameFormat
from repro.network.ring import RingNetwork
from repro.obs import logging as obslog
from repro.obs import metrics as _metrics
from repro.sim import fastpath, fastpath_ttp
from repro.sim.pdp_sim import PDPRingSimulator, PDPSimConfig
from repro.sim.trace import (
    DeadlineStats,
    FaultStats,
    RotationStats,
    SimulationReport,
)
from repro.sim.ttp_sim import TTPRingSimulator, TTPSimConfig

__all__ = [
    "pdp_fastpath_unsupported",
    "ttp_fastpath_unsupported",
    "run_pdp",
    "run_ttp",
    "cached_run_pdp",
    "cached_run_ttp",
    "report_to_payload",
    "report_from_payload",
]

_LOG = obslog.get_logger("sim.dispatch")


def pdp_fastpath_unsupported(
    message_set: MessageSet, config: PDPSimConfig
) -> str | None:
    """Why the PDP fast path cannot run this configuration (None = it can)."""
    if config.faults is not None:
        # The event-compressing sweeps have no notion of mid-run recovery
        # stalls; silently ignoring a fault plan would be unsound, so the
        # run falls back to the scalar oracle.
        return "fault injection"
    if config.async_poisson is not None:
        return "Poisson asynchronous traffic"
    stations = [stream.station for stream in message_set]
    if len(set(stations)) != len(stations):
        return "multiple streams per station"
    return None


def ttp_fastpath_unsupported(config: TTPSimConfig) -> str | None:
    """Why the TTP fast path cannot run this configuration (None = it can)."""
    if config.faults is not None:
        return "fault injection"
    if config.async_poisson is not None:
        return "Poisson asynchronous traffic"
    return None


def _fallback(protocol: str, reason: str) -> None:
    _metrics.counter("sim.fastpath.fallbacks").inc()
    _LOG.debug(
        "%s fast path unsupported (%s); falling back to the scalar oracle",
        protocol, reason,
        extra={"protocol": protocol, "reason": reason},
    )


def run_pdp(
    ring: RingNetwork,
    frame: FrameFormat,
    message_set: MessageSet,
    config: PDPSimConfig,
    duration_s: float,
    *,
    max_events: int = 50_000_000,
) -> SimulationReport:
    """One PDP run: the fast path where supported, else the oracle (uncached)."""
    reason = pdp_fastpath_unsupported(message_set, config)
    if reason is None:
        return fastpath.run_pdp_fast(
            ring, frame, message_set, config, duration_s, max_events
        )
    _fallback("pdp", reason)
    return PDPRingSimulator(ring, frame, message_set, config).run(
        duration_s, max_events
    )


def run_ttp(
    ring: RingNetwork,
    frame: FrameFormat,
    message_set: MessageSet,
    allocation: TTPAllocation,
    config: TTPSimConfig,
    duration_s: float,
    *,
    max_events: int = 50_000_000,
) -> SimulationReport:
    """One TTP run: the fast path where supported, else the oracle (uncached)."""
    reason = ttp_fastpath_unsupported(config)
    if reason is None:
        return fastpath_ttp.run_ttp_fast(
            ring, frame, message_set, allocation, config, duration_s,
            max_events,
        )
    _fallback("ttp", reason)
    return TTPRingSimulator(ring, frame, message_set, allocation, config).run(
        duration_s, max_events
    )


# -- report serialisation (cache payloads) ----------------------------------


def report_to_payload(report: SimulationReport) -> dict:
    """A JSON-safe dump that :func:`report_from_payload` inverts exactly."""
    return {
        "duration": report.duration,
        "sync_busy_time": report.sync_busy_time,
        "async_busy_time": report.async_busy_time,
        "token_time": report.token_time,
        "streams": [
            {
                "stream_index": s.stream_index,
                "completed": s.completed,
                "missed": s.missed,
                "max_response": s.max_response,
                "total_response": s.total_response,
                "responses": list(s.responses),
                "sample_limit": s.sample_limit,
            }
            for s in report.streams
        ],
        "rotations": [
            {
                "station": r.station,
                "count": r.count,
                "total": r.total,
                "maximum": r.maximum,
                "minimum": r.minimum,
            }
            for r in report.rotations
        ],
        "faults": (
            None
            if report.faults is None
            else {
                "token_losses": report.faults.token_losses,
                "membership_events": report.faults.membership_events,
                "corrupted_frames": report.faults.corrupted_frames,
                "recovery_time_s": report.faults.recovery_time_s,
                "corrupted_time_s": report.faults.corrupted_time_s,
            }
        ),
    }


def report_from_payload(payload: dict) -> SimulationReport:
    """Rebuild a report from :func:`report_to_payload` output.

    Tolerates payloads written before the ``faults`` field existed (the
    code-version cache salt makes those unreachable in practice, but a
    missing key must degrade to "no faults", never crash).
    """
    faults_payload = payload.get("faults")
    faults = (
        None
        if faults_payload is None
        else FaultStats(
            token_losses=int(faults_payload["token_losses"]),
            membership_events=int(faults_payload["membership_events"]),
            corrupted_frames=int(faults_payload["corrupted_frames"]),
            recovery_time_s=float(faults_payload["recovery_time_s"]),
            corrupted_time_s=float(faults_payload["corrupted_time_s"]),
        )
    )
    return SimulationReport(
        duration=float(payload["duration"]),
        streams=[
            DeadlineStats(
                stream_index=int(s["stream_index"]),
                completed=int(s["completed"]),
                missed=int(s["missed"]),
                max_response=float(s["max_response"]),
                total_response=float(s["total_response"]),
                responses=[float(r) for r in s["responses"]],
                sample_limit=(
                    None if s["sample_limit"] is None else int(s["sample_limit"])
                ),
            )
            for s in payload["streams"]
        ],
        rotations=[
            RotationStats(
                station=int(r["station"]),
                count=int(r["count"]),
                total=float(r["total"]),
                maximum=float(r["maximum"]),
                minimum=float(r["minimum"]),
            )
            for r in payload["rotations"]
        ],
        sync_busy_time=float(payload["sync_busy_time"]),
        async_busy_time=float(payload["async_busy_time"]),
        token_time=float(payload["token_time"]),
        faults=faults,
    )


# -- cached execution --------------------------------------------------------


def _streams_key(message_set: MessageSet) -> list:
    # Coerced, so equal streams key alike (an int payload and its float twin).
    return [
        [float(stream.period_s), float(stream.payload_bits), int(stream.station)]
        for stream in message_set
    ]


def _pdp_key(
    ring: RingNetwork,
    frame: FrameFormat,
    message_set: MessageSet,
    config: PDPSimConfig,
    duration_s: float,
    max_events: int,
) -> str:
    return _cache.content_key(
        {
            "kind": "sim.pdp",
            "ring": asdict(ring),
            "frame": asdict(frame),
            "streams": _streams_key(message_set),
            "config": {
                "variant": config.variant.value,
                "phasing": config.phasing.value,
                "phasing_seed": config.phasing_seed,
                "async_saturating": config.async_saturating,
                "token_walk": config.token_walk.value,
                "collect_responses": config.collect_responses,
                "response_sample_limit": config.response_sample_limit,
            },
            "duration_s": duration_s,
            "max_events": max_events,
        }
    )


def _ttp_key(
    ring: RingNetwork,
    frame: FrameFormat,
    message_set: MessageSet,
    allocation: TTPAllocation,
    config: TTPSimConfig,
    duration_s: float,
    max_events: int,
) -> str:
    return _cache.content_key(
        {
            "kind": "sim.ttp",
            "ring": asdict(ring),
            "frame": asdict(frame),
            "streams": _streams_key(message_set),
            "allocation": {
                "ttrt_s": allocation.ttrt_s,
                "token_visits": list(allocation.token_visits),
                "bandwidths_s": list(allocation.bandwidths_s),
                "augmented_lengths_s": list(allocation.augmented_lengths_s),
                "delta_s": allocation.delta_s,
            },
            "config": {
                "phasing": config.phasing.value,
                "phasing_seed": config.phasing_seed,
                "async_saturating": config.async_saturating,
                "async_frame_bits": config.async_frame_bits,
                "track_rotations": config.track_rotations,
                "collect_responses": config.collect_responses,
                "response_sample_limit": config.response_sample_limit,
            },
            "duration_s": duration_s,
            "max_events": max_events,
        }
    )


def cached_run_pdp(
    ring: RingNetwork,
    frame: FrameFormat,
    message_set: MessageSet,
    config: PDPSimConfig,
    duration_s: float,
    *,
    max_events: int = 50_000_000,
) -> SimulationReport:
    """:func:`run_pdp` with content-addressed memoisation.

    Fault-injected runs bypass the cache entirely (like Poisson runs):
    the cache key does not hash the fault plan, and lossy-run results
    are study artifacts, not reusable oracles.
    """
    if config.async_poisson is not None or config.faults is not None:
        return run_pdp(
            ring, frame, message_set, config, duration_s, max_events=max_events
        )
    key = _pdp_key(ring, frame, message_set, config, duration_s, max_events)
    store = _cache.result_cache()
    hit = store.get(key, namespace="sim")
    if hit is not None:
        return report_from_payload(hit)
    report = run_pdp(
        ring, frame, message_set, config, duration_s, max_events=max_events
    )
    store.put(key, report_to_payload(report), namespace="sim")
    return report


def cached_run_ttp(
    ring: RingNetwork,
    frame: FrameFormat,
    message_set: MessageSet,
    allocation: TTPAllocation,
    config: TTPSimConfig,
    duration_s: float,
    *,
    max_events: int = 50_000_000,
) -> SimulationReport:
    """:func:`run_ttp` with content-addressed memoisation.

    Fault-injected runs bypass the cache entirely (see
    :func:`cached_run_pdp`).
    """
    if config.async_poisson is not None or config.faults is not None:
        return run_ttp(
            ring, frame, message_set, allocation, config, duration_s,
            max_events=max_events,
        )
    key = _ttp_key(
        ring, frame, message_set, allocation, config, duration_s, max_events
    )
    store = _cache.result_cache()
    hit = store.get(key, namespace="sim")
    if hit is not None:
        return report_from_payload(hit)
    report = run_ttp(
        ring, frame, message_set, allocation, config, duration_s,
        max_events=max_events,
    )
    store.put(key, report_to_payload(report), namespace="sim")
    return report
