"""Fast-path PDP simulator: busy-chain event compression.

Token-ring schedules are piecewise regular: once a synchronous message
wins arbitration it transmits back-to-back frames with a constant token
cost and constant full-frame occupancy until it completes, a
higher-priority release preempts it, or the horizon ends; saturating
asynchronous filler between synchronous busy periods is a constant
``token_cost + occupancy`` pulse train; and a non-saturating ring simply
idles until the next release.  This module advances each such regular
stretch in one step — as a numpy cumulative-sum sweep for long
stretches, as a tight scalar loop for short ones — instead of paying one
heap event per frame like :class:`~repro.sim.pdp_sim.PDPRingSimulator`.

**Bit-identity contract** (enforced by ``repro.verify``'s
``pdp_fastpath_equiv`` property and pinned by a mutation-smoke mutant):
the report is equal to the scalar oracle's *bit for bit* — every
response time, busy total, and verdict.  ``np.cumsum`` is a strictly
sequential accumulation, so it reproduces the exact IEEE-754 chain of
the scalar simulator's repeated ``t += step``; every comparison below is
evaluated with the same additions as the scalar code (never
algebraically rearranged), and consume/occupancy arithmetic follows
:meth:`~repro.sim.pdp_sim.PDPRingSimulator._transmit_sync` operation by
operation.

Unsupported configurations (Poisson asynchronous traffic, several
streams on one station — the scalar queue's head-of-line blocking across
streams has no per-stream closed form) raise
:class:`~repro.errors.ConfigurationError`; the dispatcher runs them on
the scalar oracle instead.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.pdp import PDPVariant
from repro.errors import ConfigurationError, SimulationError
from repro.messages.message_set import MessageSet
from repro.network.frames import FrameFormat
from repro.network.ring import RingNetwork
from repro.obs import metrics as _metrics
from repro.sim.pdp_sim import PDPSimConfig, TokenWalkModel
from repro.sim.token_ring import RingGeometry
from repro.sim.trace import DeadlineStats, SimulationReport
from repro.sim.traffic import SynchronousTraffic

__all__ = ["run_pdp_fast"]

#: Below this many estimated frames a plain-Python loop beats building
#: numpy arrays; both produce identical floats, so the threshold is pure
#: tuning.
_VECTOR_THRESHOLD = 24


def _short_frame_occupancy(
    chunk_bits: float, overhead_bits: float, bandwidth_bps: float, theta: float
) -> float:
    """Medium occupancy of a non-full frame (Section 4.3 case analysis).

    Module-level on purpose: the mutation smoke hot-patches this seam to
    prove the fast-vs-scalar equivalence property is non-vacuous.
    """
    return max((chunk_bits + overhead_bits) / bandwidth_bps, theta)


def run_pdp_fast(
    ring: RingNetwork,
    frame: FrameFormat,
    message_set: MessageSet,
    config: PDPSimConfig = PDPSimConfig(),
    duration_s: float = 0.0,
    max_events: int = 50_000_000,
) -> SimulationReport:
    """Simulate like :meth:`PDPRingSimulator.run`, bit for bit, faster."""
    if len(message_set) == 0:
        raise ConfigurationError("cannot simulate an empty message set")
    stations = [stream.station for stream in message_set]
    for station in stations:
        if station >= ring.n_stations:
            raise ConfigurationError(
                f"stream at station {station!r} does not fit a "
                f"{ring.n_stations!r}-station ring"
            )
    if config.faults is not None:
        raise ConfigurationError(
            "the fast path does not model fault injection; "
            "use the scalar oracle"
        )
    if config.async_poisson is not None:
        raise ConfigurationError(
            "the fast path does not model Poisson asynchronous traffic; "
            "use the scalar oracle"
        )
    if len(set(stations)) != len(stations):
        raise ConfigurationError(
            "the fast path requires one stream per station (the scalar "
            "queue's cross-stream FIFO blocking has no closed form)"
        )
    if duration_s <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration_s!r}")

    n = ring.n_stations
    theta = ring.theta
    bandwidth = ring.bandwidth_bps
    info = frame.info_bits
    overhead = frame.overhead_bits
    full_edge = info - 1e-9
    occ_full = max(frame.frame_time(bandwidth), theta)
    geometry = RingGeometry(ring)
    average_walk = config.token_walk is TokenWalkModel.AVERAGE
    modified = config.variant is PDPVariant.MODIFIED
    half_theta = theta / 2.0
    saturating = config.async_saturating

    # Token cost of back-to-back frames of one segment (holder == station)
    # and of one saturating filler hop ((holder + 1) % n claims the token).
    if modified:
        repeat_tc = 0.0
    elif average_walk:
        repeat_tc = half_theta
    else:
        repeat_tc = theta
    if average_walk:
        filler_tc = half_theta
    elif n == 1:
        filler_tc = theta
    else:
        filler_tc = geometry.token_walk_time(0, 1)

    traffic = SynchronousTraffic(
        message_set, config.phasing, config.phasing_seed
    )
    n_streams = len(message_set)
    per_stream: list[list] = [[] for _ in range(n_streams)]
    for message in traffic.arrivals_until(duration_s):
        per_stream[message.stream_index].append(message)
    head = [0] * n_streams
    counts = [len(messages) for messages in per_stream]
    priorities = traffic.priorities()

    sample_limit = (
        config.response_sample_limit if config.collect_responses else None
    )
    stats = [
        DeadlineStats(stream_index=i, sample_limit=sample_limit)
        for i in range(n_streams)
    ]

    holder = 0
    now = 0.0
    sync_busy = 0.0
    async_busy = 0.0
    token_busy = 0.0
    events = 0  # logical frame/idle events the scalar engine would process
    compressed_steps = 0  # segments, filler bursts, and idle jumps taken

    while True:
        if events > max_events:
            raise SimulationError(
                f"simulation exceeded {max_events} events; "
                "runaway schedule or horizon too long"
            )

        # -- arbitration: highest-priority pending head ---------------------
        pick = -1
        pick_priority = 0
        for i in range(n_streams):
            h = head[i]
            if h >= counts[i]:
                continue
            if per_stream[i][h].arrival_time > now + 1e-15:
                continue
            p = priorities[i]
            if pick < 0 or p < pick_priority:
                pick = i
                pick_priority = p

        if pick >= 0:
            # -- synchronous busy segment ---------------------------------
            compressed_steps += 1
            message = per_stream[pick][head[pick]]
            station = message.station
            if modified and station == holder:
                tc1 = 0.0
            elif average_walk:
                tc1 = half_theta
            elif station == holder:
                tc1 = theta
            else:
                tc1 = geometry.token_walk_time(holder, station)
            # Earliest arrival among strictly higher-priority heads; none
            # is eligible now (else it would have won), and no head moves
            # while this stream transmits, so it is constant segment-wide.
            hp_next = None
            for i in range(n_streams):
                if priorities[i] >= pick_priority:
                    continue
                h = head[i]
                if h < counts[i]:
                    t = per_stream[i][h].arrival_time
                    if hp_next is None or t < hp_next:
                        hp_next = t

            r = message.remaining_bits
            stop_t = duration_s if hp_next is None else min(duration_s, hp_next)
            step = repeat_tc + occ_full
            rough_frames = min(r / info, (stop_t - now) / step) if step > 0 else r / info
            holder = station

            if rough_frames < _VECTOR_THRESHOLD:
                # Scalar micro-segment: same ops as _transmit_sync, no
                # event heap, no per-frame attribute chasing.
                t = now
                tc = tc1
                executed = 0
                completed = False
                while True:
                    chunk = r if r < info else info
                    if chunk >= full_edge:
                        occ = occ_full
                    else:
                        occ = _short_frame_occupancy(
                            chunk, overhead, bandwidth, theta
                        )
                    sync_busy += occ
                    token_busy += tc
                    nr = r - chunk
                    if nr < 0.0:
                        nr = 0.0
                    t = (t + tc) + occ
                    executed += 1
                    if nr <= 1e-9:
                        message.remaining_bits = nr
                        message.completion_time = t
                        stats[pick].record_completion(
                            message.arrival_time, message.deadline, t
                        )
                        head[pick] += 1
                        completed = True
                        break
                    r = nr
                    if t > duration_s:
                        break
                    if hp_next is not None and hp_next <= t + 1e-15:
                        break
                    tc = repeat_tc
                if not completed:
                    message.remaining_bits = r
                now = t
                events += executed
            else:
                # Vectorised segment: remaining-bits chain, then the
                # token/occupancy boundary chain, then a stop scan.
                upper = int(r / info) + 3
                chain = np.empty(upper)
                chain[0] = r
                chain[1:] = -info
                remaining = np.cumsum(chain)
                done = (remaining <= info) | ((remaining - info) <= 1e-9)
                hits = np.flatnonzero(done)
                while hits.size == 0:  # pragma: no cover - margin is ample
                    tail = np.empty(upper)
                    tail[0] = remaining[-1]
                    tail[1:] = -info
                    remaining = np.concatenate(
                        [remaining, np.cumsum(tail)[1:]]
                    )
                    done = (remaining <= info) | ((remaining - info) <= 1e-9)
                    hits = np.flatnonzero(done)
                k0 = int(hits[0])
                m = k0 + 1  # frames to completion

                build = min(m, max(int((stop_t - now) / step) + 3, 1))
                while True:
                    width = 2 * build + 1
                    steps = np.empty(width)
                    steps[0] = now
                    steps[1] = tc1
                    steps[2::2] = occ_full
                    steps[3::2] = repeat_tc
                    if build == m:
                        rk = float(remaining[k0])
                        chunk_last = rk if rk < info else info
                        if not (chunk_last >= full_edge):
                            steps[2 * m] = _short_frame_occupancy(
                                chunk_last, overhead, bandwidth, theta
                            )
                    boundaries = np.cumsum(steps)
                    checks = boundaries[2 : 2 * build : 2]  # b_1..b_{build-1}
                    bad = checks > duration_s
                    if hp_next is not None:
                        bad |= hp_next <= checks + 1e-15
                    stop = np.flatnonzero(bad)
                    if stop.size:
                        executed = 1 + int(stop[0])
                        break
                    if build == m:
                        executed = m
                        break
                    build = min(m, build * 2)

                acc = np.empty(executed + 1)
                acc[0] = sync_busy
                acc[1:] = steps[2 : 2 * executed + 1 : 2]
                sync_busy = float(np.cumsum(acc)[-1])
                acc[0] = token_busy
                acc[1:] = steps[1 : 2 * executed : 2]
                token_busy = float(np.cumsum(acc)[-1])
                events += executed

                if executed == m:
                    rk = float(remaining[k0])
                    chunk = rk if rk < info else info
                    nr = rk - chunk
                    if nr < 0.0:
                        nr = 0.0
                    finish = float(boundaries[2 * m])
                    message.remaining_bits = nr
                    message.completion_time = finish
                    stats[pick].record_completion(
                        message.arrival_time, message.deadline, finish
                    )
                    head[pick] += 1
                    now = finish
                else:
                    message.remaining_bits = float(remaining[executed])
                    now = float(boundaries[2 * executed])

            if now > duration_s:
                break
            continue

        # -- no synchronous message pending ---------------------------------
        t_next = None
        for i in range(n_streams):
            h = head[i]
            if h < counts[i]:
                t = per_stream[i][h].arrival_time
                if t_next is None or t < t_next:
                    t_next = t

        if not saturating:
            # Idle ring: jump straight to the next release.
            if t_next is None or not (t_next < duration_s):
                break
            compressed_steps += 1
            events += 1
            now = t_next
            continue

        # -- saturating asynchronous filler burst ---------------------------
        compressed_steps += 1
        stop_t = duration_s if t_next is None else min(duration_s, t_next)
        pulse = filler_tc + occ_full
        rough = (stop_t - now) / pulse

        if rough < _VECTOR_THRESHOLD:
            t = now
            sent = 0
            while True:
                async_busy += occ_full
                token_busy += filler_tc
                t = (t + filler_tc) + occ_full
                sent += 1
                if t > duration_s:
                    break
                if t_next is not None and t_next <= t + 1e-15:
                    break
        else:
            build = max(int(rough) + 3, 1)
            while True:
                width = 2 * build + 1
                steps = np.empty(width)
                steps[0] = now
                steps[1::2] = filler_tc
                steps[2::2] = occ_full
                boundaries = np.cumsum(steps)
                checks = boundaries[2:: 2]  # b_1..b_build
                bad = checks > duration_s
                if t_next is not None:
                    bad |= t_next <= checks + 1e-15
                stop = np.flatnonzero(bad)
                if stop.size:
                    sent = 1 + int(stop[0])
                    break
                build *= 2
            acc = np.empty(sent + 1)
            acc[0] = async_busy
            acc[1:] = occ_full
            async_busy = float(np.cumsum(acc)[-1])
            acc[0] = token_busy
            acc[1:] = filler_tc
            token_busy = float(np.cumsum(acc)[-1])
            t = float(boundaries[2 * sent])

        holder = (holder + sent) % n
        events += sent
        now = t
        if now > duration_s:
            break

    # -- tail accounting: every pending release with an in-run deadline ----
    for i in range(n_streams):
        for message in per_stream[i][head[i]:]:
            if message.deadline <= duration_s and message.remaining_bits > 1e-9:
                stats[i].record_unfinished()

    report = SimulationReport(
        duration=duration_s,
        streams=stats,
        sync_busy_time=sync_busy,
        async_busy_time=async_busy,
        token_time=token_busy,
    )
    _metrics.counter("sim.fastpath.pdp.runs").inc()
    _metrics.counter("sim.fastpath.pdp.events").inc(events)
    _metrics.counter("sim.fastpath.pdp.steps").inc(compressed_steps)
    report.publish_metrics("sim.pdp")
    return report
