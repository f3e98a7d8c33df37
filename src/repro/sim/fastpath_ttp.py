"""Fast-path TTP simulator: tight visit loop + empty-rotation sweeps.

The scalar :class:`~repro.sim.ttp_sim.TTPRingSimulator` pays a heap
event, a closure call, and a wall of attribute lookups per token visit.
This module replays the exact same per-visit arithmetic — FDDI timer
rules, budgeted synchronous transmission, saturating asynchronous credit
— as a single Python loop over prefetched locals, and, when the ring is
provably idle (nothing queued, no saturating traffic, next release in
the future), compresses whole empty token rotations into one numpy
cumulative-sum sweep: visit times advance by exactly one ``Θ/n`` hop per
visit (``sync_time`` and ``async_time`` are ``+0.0``, an IEEE identity),
so the boundary chain, rotation statistics, and TRT timers of thousands
of visits reduce to a handful of array operations.

**Bit-identity contract** (enforced by ``repro.verify``'s
``ttp_fastpath_equiv`` property): reports equal the scalar oracle's bit
for bit — response times, rotation statistics, busy totals, verdicts.
Every accumulation is sequential (``np.cumsum`` or the same scalar
``+=`` chain), every comparison uses the scalar code's own expressions.

Unsupported configurations (Poisson asynchronous traffic) raise
:class:`~repro.errors.ConfigurationError`; the dispatcher runs them on
the scalar oracle instead.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.ttp import TTPAllocation
from repro.errors import ConfigurationError, SimulationError
from repro.messages.message_set import MessageSet
from repro.network.frames import FrameFormat
from repro.network.ring import RingNetwork
from repro.obs import metrics as _metrics
from repro.sim.trace import DeadlineStats, RotationStats, SimulationReport
from repro.sim.traffic import SynchronousTraffic
from repro.sim.ttp_sim import TTPSimConfig

__all__ = ["run_ttp_fast"]


def run_ttp_fast(
    ring: RingNetwork,
    frame: FrameFormat,
    message_set: MessageSet,
    allocation: TTPAllocation,
    config: TTPSimConfig = TTPSimConfig(),
    duration_s: float = 0.0,
    max_events: int = 50_000_000,
) -> SimulationReport:
    """Simulate like :meth:`TTPRingSimulator.run`, bit for bit, faster."""
    if len(message_set) == 0:
        raise ConfigurationError("cannot simulate an empty message set")
    if len(allocation.bandwidths_s) != len(message_set):
        raise ConfigurationError(
            f"allocation covers {len(allocation.bandwidths_s)} streams "
            f"but the message set has {len(message_set)}"
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
    if duration_s <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration_s!r}")

    n = ring.n_stations
    ttrt = allocation.ttrt_s
    ttrt_edge = ttrt - 1e-15
    bandwidth = ring.bandwidth_bps
    overhead = frame.overhead_time(bandwidth)
    hop = ring.theta / n
    async_bits = (
        frame.total_bits
        if config.async_frame_bits is None
        else float(config.async_frame_bits)
    )
    async_frame_time = ring.transmission_time(async_bits)
    saturating = config.async_saturating
    track = config.track_rotations
    ceil = math.ceil

    budgets: list[float | None] = [None] * n
    for index, stream in enumerate(message_set):
        if stream.station >= n:
            raise ConfigurationError(
                f"stream at station {stream.station!r} does not fit a "
                f"{n!r}-station ring"
            )
        if budgets[stream.station] is not None:
            raise ConfigurationError(
                f"two streams mapped to station {stream.station!r}; the "
                "TTP model has one synchronous stream per station"
            )
        budgets[stream.station] = allocation.bandwidths_s[index]

    traffic = SynchronousTraffic(
        message_set, config.phasing, config.phasing_seed
    )
    arrivals = traffic.arrivals_until(duration_s)
    arrival_times = [m.arrival_time for m in arrivals]
    n_arrivals = len(arrivals)
    cursor = 0

    sample_limit = (
        config.response_sample_limit if config.collect_responses else None
    )
    stats = [
        DeadlineStats(stream_index=i, sample_limit=sample_limit)
        for i in range(len(message_set))
    ]

    # Per-station FIFO queues (completed heads stay in the list behind an
    # index, so the tail accounting below still sees everything pending).
    queues: list[list] = [[] for _ in range(n)]
    qhead = [0] * n
    pending = 0  # ingested, not-yet-completed messages across all queues

    # Scalar timer/rotation state as flat lists (RotationStats objects are
    # materialised once at the end; the update arithmetic is identical).
    trt = [0.0] * n
    last_visit: list[float | None] = [None] * n
    rot_count = [0] * n
    rot_total = [0.0] * n
    rot_max = [0.0] * n
    rot_min = [float("inf")] * n

    sync_busy = 0.0
    async_busy = 0.0
    token_busy = 0.0
    visits = 0
    swept = 0  # visits advanced by rotation sweeps
    sweep_ok = not saturating and hop > 0.0

    now = 0.0
    station = 0

    while True:
        if visits >= max_events:
            raise SimulationError(
                f"simulation exceeded {max_events} events; "
                "runaway schedule or horizon too long"
            )

        next_arrival = arrival_times[cursor] if cursor < n_arrivals else None

        if (
            sweep_ok
            and pending == 0
            and (next_arrival is None or next_arrival > now + 1e-15)
        ):
            # -- empty-rotation sweep: visits at now, now+hop, ... --------
            if next_arrival is None:
                span = duration_s - now
            else:
                span = min(duration_s, next_arrival) - now
            build = max(int(span / hop) + 3, 2)
            while True:
                chain = np.empty(build + 1)
                chain[0] = now
                chain[1:] = hop
                times = np.cumsum(chain)  # V_0 .. V_build
                upcoming = times[1:]
                bad = ~(upcoming < duration_s)
                if next_arrival is not None:
                    bad |= next_arrival <= upcoming + 1e-15
                stop = np.flatnonzero(bad)
                if stop.size:
                    count = 1 + int(stop[0])
                    ended = not bool(upcoming[count - 1] < duration_s)
                    break
                build *= 2

            visits += count
            swept += count
            acc = np.empty(count + 1)
            acc[0] = token_busy
            acc[1:] = hop
            token_busy = float(np.cumsum(acc)[-1])
            # sync_busy/async_busy gain += 0.0 per visit — an IEEE identity.

            for offset in range(min(n, count)):
                visited = times[offset:count:n]
                st = station + offset
                if st >= n:
                    st -= n
                first = float(visited[0])
                diffs = visited[1:] - visited[:-1]
                if track:
                    prev = last_visit[st]
                    if prev is None:
                        rotations = diffs
                    else:
                        rotations = np.concatenate(([first - prev], diffs))
                    if rotations.size:
                        rot_count[st] += int(rotations.size)
                        acc = np.empty(rotations.size + 1)
                        acc[0] = rot_total[st]
                        acc[1:] = rotations
                        rot_total[st] = float(np.cumsum(acc)[-1])
                        top = float(np.max(rotations))
                        if top > rot_max[st]:
                            rot_max[st] = top
                        low = float(np.min(rotations))
                        if low < rot_min[st]:
                            rot_min[st] = low
                    last_visit[st] = float(visited[-1])
                elapsed0 = first - trt[st]
                if elapsed0 >= ttrt_edge or (
                    diffs.size and not bool(np.all(diffs < ttrt_edge))
                ):
                    # Rare: a rotation reaches TTRT — replay the scalar
                    # timer rules visit by visit for this station.
                    timer = trt[st]
                    for value in visited:
                        value = float(value)
                        elapsed = value - timer
                        if elapsed >= ttrt_edge:
                            timer += int(elapsed // ttrt) * ttrt
                        else:
                            timer = value
                    trt[st] = timer
                else:
                    trt[st] = float(visited[-1])

            if ended:
                break
            now = float(times[count])
            station += count
            station %= n
            continue

        # -- one token visit, scalar (same arithmetic as the oracle) -------
        visits += 1

        while cursor < n_arrivals and arrival_times[cursor] <= now + 1e-15:
            message = arrivals[cursor]
            queues[message.station].append(message)
            pending += 1
            cursor += 1

        if track:
            prev = last_visit[station]
            if prev is not None:
                rotation = now - prev
                rot_count[station] += 1
                rot_total[station] += rotation
                if rotation > rot_max[station]:
                    rot_max[station] = rotation
                if rotation < rot_min[station]:
                    rot_min[station] = rotation
            last_visit[station] = now

        elapsed = now - trt[station]
        if elapsed >= ttrt_edge:
            trt[station] += int(elapsed // ttrt) * ttrt
            credit = 0.0
        else:
            credit = ttrt - elapsed
            trt[station] = now

        used = 0.0
        budget = budgets[station]
        if budget is not None:
            queue = queues[station]
            h = qhead[station]
            size = len(queue)
            while budget - used > overhead + 1e-15:
                if h >= size:
                    break
                message = queue[h]
                if message.arrival_time > now + used + 1e-15:
                    break
                payload_budget = (budget - used - overhead) * bandwidth
                remaining = message.remaining_bits
                chunk = remaining if remaining < payload_budget else payload_budget
                if chunk <= 0 and remaining > 0:
                    break
                new_remaining = remaining - chunk
                if new_remaining < 0.0:
                    new_remaining = 0.0
                message.remaining_bits = new_remaining
                used += overhead + chunk / bandwidth
                if new_remaining <= 1e-9:
                    finish = now + used
                    message.completion_time = finish
                    stats[message.stream_index].record_completion(
                        message.arrival_time, message.deadline, finish
                    )
                    h += 1
                    pending -= 1
                else:
                    break
            qhead[station] = h
        sync_busy += used

        async_time = 0.0
        if saturating and async_frame_time > 0:
            if credit > 1e-15:
                async_time = (
                    ceil(credit / async_frame_time - 1e-12) * async_frame_time
                )
        async_busy += async_time

        token_busy += hop
        departure = now + used + async_time + hop
        if not (departure < duration_s):
            break
        station += 1
        if station == n:
            station = 0
        now = departure

    # -- tail accounting ----------------------------------------------------
    for queue, h in zip(queues, qhead):
        for message in queue[h:]:
            if message.deadline <= duration_s and not message.complete:
                stats[message.stream_index].record_unfinished()
    for message in arrivals[cursor:]:
        if message.deadline <= duration_s and not message.complete:
            stats[message.stream_index].record_unfinished()

    rotations = (
        [
            RotationStats(
                station=i,
                count=rot_count[i],
                total=rot_total[i],
                maximum=rot_max[i],
                minimum=rot_min[i],
            )
            for i in range(n)
        ]
        if track
        else []
    )
    report = SimulationReport(
        duration=duration_s,
        streams=stats,
        rotations=rotations,
        sync_busy_time=sync_busy,
        async_busy_time=async_busy,
        token_time=token_busy,
    )
    _metrics.counter("sim.ttp.token_visits").inc(float(visits))
    _metrics.counter("sim.fastpath.ttp.runs").inc()
    _metrics.counter("sim.fastpath.ttp.visits").inc(visits)
    _metrics.counter("sim.fastpath.ttp.swept").inc(swept)
    report.publish_metrics("sim.ttp")
    return report
