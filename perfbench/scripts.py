"""Seeded, count-bound request scripts and their oracle replay.

A service workload is a *script*: the exact HTTP request bytes the load
client sends, in order, over one keep-alive connection.  Scripts are
generated here from ``(workload, seed, n_timed)`` alone, so the same
arguments give byte-identical scripts on every run and every host.

Generation and the oracle are one pass.  Each operation is decided on a
fresh in-process scalar :class:`~repro.admission.AdmissionController`
over the analysis and policy :func:`repro.service.protocol.build_controller`
gives a server, and its wire response is recorded as the expected
answer.  The churn script needs this: a release names a stream id,
which only exists once an earlier admit succeeded, so the generator
picks release victims from the oracle's own admitted set.  Because the load client issues the
script in order on one connection, the served state trajectory must
equal the oracle's step for step; any served decision that differs is
a failed operation.

Every script has three parts:

* ``preload``: admits that build the starting population (set-up);
* ``warmup``: one pass that warms the served code paths (set-up);
* ``timed``: the measured operations.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from repro.admission import AdmissionController, ReleaseOutcome
from repro.service.protocol import (
    ServiceConfig,
    build_controller,
    decision_to_wire,
    release_to_wire,
)

__all__ = ["SERVICE_WORKLOADS", "Script", "generate"]

#: Service workloads and their script family.
SERVICE_WORKLOADS = ("serve_check_warm", "serve_admit_churn", "fleet1_check_warm")

#: Fleet-wide utilization cap of ``runner cluster`` (its default); with
#: one worker the whole cap is that worker's lease.
FLEET_UTILIZATION_CAP = 0.9

#: Bandwidth of the served ring (``ServiceConfig`` default), bits/s.
_BANDWIDTH_BPS = 16e6

#: Candidate periods, seconds (a fixed grid, so period vectors repeat
#: the way a real catalogue of stream classes would).
_PERIODS_S = (
    0.005, 0.008, 0.010, 0.016, 0.020, 0.032,
    0.040, 0.064, 0.080, 0.128, 0.160, 0.256,
)

#: Size of the starting population admitted during set-up.
PRELOAD_STREAMS = 20

#: Distinct candidates of the check workloads.  Checks never change the
#: population, so the served engine (incremental) answers every one from
#: its per-level snapshot of the preloaded population and never asks the
#: level cache.
CHECK_CATALOGUE = 32

#: Distinct candidates of the churn workload.  Every committed admit or
#: release changes the population, so the next decision rebuilds the
#: per-level snapshot from the sorted-prefix level cache; a traced run
#: measured a hit ratio of about 0.6 there.
CHURN_CATALOGUE = 4096

#: Churn operations replayed during set-up before the timed part.
CHURN_WARMUP_OPS = 200


def _bits(period: float, utilization: float) -> float:
    """Payload of a stream of ``utilization`` at ``period``, whole 64-bit words."""
    return float(max(64, round(utilization * period * _BANDWIDTH_BPS / 64) * 64))


def _draw_stream(rng: random.Random) -> tuple[float, float]:
    """One churn candidate.

    Most candidates are small (utilization 0.1–0.8 %), so a population
    can fill all 40 stations; one in ten takes 5–30 % of the ring, which
    is what drives exact-test rejections.
    """
    period = rng.choice(_PERIODS_S)
    if rng.random() < 0.1:
        utilization = rng.uniform(0.05, 0.30)
    else:
        utilization = rng.choice((0.001, 0.002, 0.004, 0.008))
    return period, _bits(period, utilization)


def _stratified(rng: random.Random, count: int, low: float, high: float) -> list:
    """``count`` streams stratified over the period grid and ``[low, high)``.

    Periods cycle through the grid from a seeded offset and utilizations
    take one seeded draw per equal-width stratum, in seeded order.  Every
    seed thus gets the same mix of priorities and sizes, which keeps the
    cost of a request alike across seeds; only the details move.
    """
    offset = rng.randrange(len(_PERIODS_S))
    width = (high - low) / count
    shares = [low + (k + rng.random()) * width for k in range(count)]
    rng.shuffle(shares)
    periods = [_PERIODS_S[(offset + k) % len(_PERIODS_S)] for k in range(count)]
    return [(period, _bits(period, share)) for period, share in zip(periods, shares)]


def _rng(seed: int, part: str) -> random.Random:
    return random.Random(f"{seed}/{part}")


def request_bytes(path: str, body: dict) -> bytes:
    """One HTTP/1.1 keep-alive POST with a compact JSON body."""
    data = json.dumps(body, separators=(",", ":")).encode("utf-8")
    head = f"POST {path} HTTP/1.1\r\nContent-Length: {len(data)}\r\n\r\n"
    return head.encode("latin-1") + data


def _wire(result) -> dict:
    """The response body a server sends for one decision or release."""
    if isinstance(result, ReleaseOutcome):
        return release_to_wire(result)
    return decision_to_wire(result)


@dataclass
class Script:
    """A generated script with the oracle's expected responses.

    ``*_requests`` are raw request bytes; ``*_expected`` the matching
    response bodies as canonical JSON strings (what the oracle's wire
    encoding serializes to).  ``kinds`` counts the oracle outcomes of
    the timed part (``admit/exact/True``, ``release``, ...).
    """

    workload: str
    seed: int
    preload_requests: list
    preload_expected: list
    warmup_requests: list
    warmup_expected: list
    timed_requests: list
    timed_expected: list
    kinds: dict

    def script_digest(self) -> str:
        """SHA-256 over every request byte, in order."""
        digest = hashlib.sha256()
        for part in (self.preload_requests, self.warmup_requests, self.timed_requests):
            for request in part:
                digest.update(request)
        return digest.hexdigest()

    def decision_digest(self) -> str:
        """SHA-256 over every expected response body, in order."""
        digest = hashlib.sha256()
        for part in (self.preload_expected, self.warmup_expected, self.timed_expected):
            for body in part:
                digest.update(body.encode("utf-8"))
                digest.update(b"\n")
        return digest.hexdigest()


class _Oracle:
    """Issues operations on the scalar controller and records the script."""

    def __init__(self, utilization_cap: float | None):
        # The plain controller is the scalar engine whatever engine the
        # server resolves to.
        served = build_controller(ServiceConfig(utilization_cap=utilization_cap))
        self.controller = AdmissionController(
            served.analysis,
            served.policy,
            cache_namespace="admission",
            utilization_cap=utilization_cap,
        )
        self.admitted: list[int] = []
        self.requests: list = []
        self.expected: list = []
        self.kinds: dict = {}

    def _record(self, path: str, body: dict, result, kind: str) -> None:
        self.requests.append(request_bytes(path, body))
        self.expected.append(json.dumps(_wire(result), sort_keys=True))
        self.kinds[kind] = self.kinds.get(kind, 0) + 1

    def check(self, period: float, bits: float) -> None:
        decision = self.controller.check(period, bits)
        self._record(
            "/v1/check",
            {"period_s": period, "payload_bits": bits},
            decision,
            f"check/{decision.tested_by}/{decision.admitted}",
        )

    def admit(self, period: float, bits: float) -> None:
        decision = self.controller.request(period, bits)
        if decision.admitted:
            self.admitted.append(decision.stream_id)
        self._record(
            "/v1/admit",
            {"period_s": period, "payload_bits": bits},
            decision,
            f"admit/{decision.tested_by}/{decision.admitted}",
        )

    def release(self, stream_id: int) -> None:
        self.admitted.remove(stream_id)
        outcome = self.controller.release(stream_id)
        self._record(
            "/v1/release",
            {"stream_id": stream_id, "idempotent": False},
            outcome,
            "release",
        )

    def take(self) -> tuple[list, list, dict]:
        """The operations recorded since the last take."""
        out = (self.requests, self.expected, self.kinds)
        self.requests, self.expected, self.kinds = [], [], {}
        return out


def _churn_step(oracle: _Oracle, rng: random.Random, catalogue: list) -> None:
    """One churn operation, chosen from the oracle's current population.

    Releases grow likelier as the population nears the 40 stations, so
    it hovers just below capacity: full rings (``capacity`` rejections),
    exact-test rejections, admits, releases and checks all occur.
    """
    population = len(oracle.admitted)
    stations = oracle.controller.analysis.ring.n_stations
    release_p = 0.08 + 0.30 * (population / stations) ** 2
    draw = rng.random()
    if draw < release_p and oracle.admitted:
        oracle.release(rng.choice(oracle.admitted))
    elif draw < release_p + 0.25:
        oracle.check(*rng.choice(catalogue))
    else:
        oracle.admit(*rng.choice(catalogue))


def generate(workload: str, seed: int, n_timed: int) -> Script:
    """The script (and oracle answers) of one service workload."""
    if workload not in SERVICE_WORKLOADS:
        raise ValueError(f"not a service workload: {workload!r}")
    cap = FLEET_UTILIZATION_CAP if workload.startswith("fleet") else None
    oracle = _Oracle(cap)

    for candidate in _stratified(_rng(seed, "preload"), PRELOAD_STREAMS, 0.01, 0.03):
        oracle.admit(*candidate)
    preload = oracle.take()

    if workload == "serve_admit_churn":
        cat_rng = _rng(seed, "churn-catalogue")
        catalogue = [_draw_stream(cat_rng) for _ in range(CHURN_CATALOGUE)]
        op_rng = _rng(seed, "churn-ops")
        for _ in range(CHURN_WARMUP_OPS):
            _churn_step(oracle, op_rng, catalogue)
        warmup = oracle.take()
        for _ in range(n_timed):
            _churn_step(oracle, op_rng, catalogue)
        timed = oracle.take()
    else:
        # serve_check_warm and fleet1_check_warm share the same script
        # family: checks never mutate state, so every decision is
        # order-independent.
        # Half the catalogue is small, half large enough to be rejected
        # on some populations.
        cat_rng = _rng(seed, "check-catalogue")
        half = CHECK_CATALOGUE // 2
        catalogue = _stratified(cat_rng, half, 0.001, 0.01) + _stratified(
            cat_rng, CHECK_CATALOGUE - half, 0.05, 0.60
        )
        for candidate in catalogue:
            oracle.check(*candidate)
        warmup = oracle.take()
        # Each block of len(catalogue) checks is a seeded permutation of
        # the catalogue, so every candidate is asked equally often.
        op_rng = _rng(seed, "check-ops")
        order: list = []
        while len(order) < n_timed:
            block = list(catalogue)
            op_rng.shuffle(block)
            order.extend(block)
        for candidate in order[:n_timed]:
            oracle.check(*candidate)
        timed = oracle.take()

    return Script(
        workload=workload,
        seed=seed,
        preload_requests=preload[0],
        preload_expected=preload[1],
        warmup_requests=warmup[0],
        warmup_expected=warmup[1],
        timed_requests=timed[0],
        timed_expected=timed[1],
        kinds=timed[2],
    )
