"""The differential properties the fuzzer enforces.

Each check takes a :class:`~repro.verify.generators.FuzzCase` and returns
``None`` (holds) or a :class:`Violation`.  Checks deliberately reach the
implementations *through their defining modules* (``boundary_mod
.token_visit_count`` instead of a from-import) so the mutation-smoke
harness can hot-patch a deliberate bug into one path and watch the check
fire; see :mod:`repro.verify.mutation`.

The properties:

``pdp_vs_sim`` / ``ttp_vs_sim``
    The theorems are *sufficient* conditions — an accepted set must never
    miss a deadline in adversarial simulation (critical-instant phasing,
    saturating asynchronous traffic).  These two, like
    ``analysis_sound_under_loss`` and ``fault_plan_determinism`` below,
    run the discrete-event simulators themselves
    (:class:`~repro.sim.pdp_sim.PDPRingSimulator`,
    :class:`~repro.sim.ttp_sim.TTPRingSimulator`): they are the
    specification, and no second implementation stands in for them.
``scalar_vector_augmented`` / ``scalar_vector_split`` /
``scalar_vector_visits`` / ``breakdown_batch``
    Every scalar/batched implementation pair must agree **bit for bit**;
    the batched paths are pure performance work and may not move a single
    verdict.
``ttrt_optimum_exact``
    :func:`~repro.analysis.ttrt.optimal_ttrt` prunes piece edges with a
    bound; on the case's TTP ring its choice must score at least every
    right edge ``P_i/m`` of its domain, enumerated here and scored
    unpruned by the scalar ``ttp_saturation_scale``, and at least a dense
    log scan of the domain, less the ``Q_REL_TOL`` snap window.  It
    raises ``InfeasibleParameterError`` exactly when no edge scores.
``shrink_monotonic``
    Metamorphic: shrinking any payload of a schedulable set keeps it
    schedulable (both theorems are monotone in the payloads).
``scale_invariance``
    The TTP breakdown scale is inverse-linear in the payloads, so
    breakdown *utilization* is invariant under payload scaling; scaling
    by powers of two must preserve ``λ(s·M)·s == λ(M)`` to float
    round-off.
``rm_exact_vs_rta``
    The exact RM test of Theorem 4.1 answers like its independent
    oracle: :class:`~repro.analysis.rm.ExactRMTest` verdicts
    (``is_schedulable``, batch rows, per-stream ``details``) must match
    response-time analysis on the case's periods and on a rotating
    derived family — paper-scale 100-stream sets, harmonic catalogues,
    near-equal periods — swept through the breakdown load, away from
    the float knife edge.
``mc_streaming_equiv``
    The streaming Monte Carlo estimator must be the fixed-N estimator
    when asked to be: its first chunk (plain sampling) is
    **bit-identical** to a fixed-N run from the same derived seed, and
    its stratified mode must agree with an independent fixed-N estimate
    within the combined confidence intervals — stratification may
    reshuffle *where* periods land, never *what* is being estimated.
``service_batch_equiv``
    The admission service's micro-batcher
    (:class:`~repro.service.batcher.MicroBatcher`, coalescing concurrent
    submits into :meth:`~repro.admission.AdmissionController.process_batch`
    calls of up to a seeded ``batch_max``) must answer a derived op
    sequence — interleaved checks, admits, and releases, including
    invalid ones — **identically** to issuing the same calls one at a
    time on a fresh controller: same decisions, same station/id
    assignments, same faults.  Batching is pure performance work too.
``admission_snapshot_equiv``
    The controller's population snapshot (streams in RM order, their
    utilization terms) and the exact test's shared point kernels are pure
    performance work: seeded admit/check/release interleavings, with
    and without a utilization cap, on a small ring that fills up, must
    be decided exactly as the from-scratch specification decides them —
    ``MessageSet([*admitted, candidate])`` judged by a fresh analysis
    with a cold structure cache, its ``.utilization`` as
    ``utilization_after`` and as the budget gate's operand, and request
    validation before the capacity check.
``admission_cache_equiv``
    The decision cache is pure performance work: a controller fronted by
    the shared result cache (``cache_namespace="admission"``, keys built
    from a per-population digest) must answer randomized
    admit/release/check interleavings **identically** to an uncached
    oracle — including a crafted ladder that fills to saturation,
    rejects a heavy candidate, releases one stream so the same candidate
    must now pass, and re-admits to revisit the earlier population.  A
    key that outlives the population it hashed shows up as a mismatch.
``admission_tracing_equiv``
    Tracing is observational only: the same op sequence issued with
    request spans installed (sample rate 0, 0.5, or 1.0)
    must produce decisions **bit-identical** to an untraced twin
    controller — a span attribute or sampling branch that leaks into an
    admission verdict is a correctness bug, not an observability bug.
``analysis_sound_under_loss``
    The retransmission-aware tests (:mod:`repro.faults.analysis`) stay
    *sufficient* under a lossy medium: a set they accept under a declared
    fault budget must never miss a deadline when simulated against a
    fault plan drawn **at** the budget's rates — the rate-bounded worst
    case the per-period inflation charges.
``fault_plan_determinism``
    Fault schedules are pure functions of their configuration: identical
    plans yield identical event lists; any horizon's schedule is a
    prefix of any larger horizon's (so re-runs and ``--jobs``
    partitionings can never disagree); a zero-rate plan leaves a
    simulation **bit-identical** to the unfaulted run; and a
    positive-rate plan is itself deterministic *and* visibly charges
    recovery time — an injector that consumes fault events without
    charging the stall (the ``fault_recovery_swallowed`` mutant) must be
    flagged here.
``cluster_shard_equiv``
    Sharding is pure deployment work: an in-process cluster (consistent
    hashing, fleet-id translation, even budget leases) must answer a
    derived op stream **bit-identically** to per-shard standalone
    controllers replaying exactly the worker-local subsequences the
    router produced — same decisions, ids, budget rejections, faults —
    and the hash ring must honor minimal disruption when a shard
    leaves.
``cluster_budget_sound``
    Capacity is one global quantity (the utilization bound judges the
    fleet's *sum*): the granted leases may never exceed the global cap,
    the fleet's admitted utilization may never exceed it either — even
    across a mid-stream worker death with reclaim and redistribution —
    and a ledger that sizes grants from a stale view of outstanding
    leases (the ``router_stale_lease`` mutant) must be observed here
    overcommitting under demand pressure.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro import admission as admission_mod
from repro.cluster import budget as cluster_budget_mod
from repro.cluster import core as cluster_core_mod
from repro.cluster import hashring as cluster_hashring_mod

from repro.analysis import boundary as boundary_mod
from repro.analysis import bounds as bounds_mod
from repro.analysis import montecarlo as montecarlo_mod
from repro.analysis import pdp as pdp_mod
from repro.analysis import rm as rm_mod
from repro.analysis import ttrt as ttrt_mod
from repro.analysis.boundary import Q_REL_TOL
from repro.analysis.breakdown import breakdown_scale, breakdown_scales_batch
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.analysis.ttp import TTPAnalysis
from repro.analysis.ttrt import (
    FixedTTRT,
    ttp_saturation_scale,
    ttp_saturation_scales,
)
from repro.errors import (
    AdmissionError,
    AllocationError,
    InfeasibleParameterError,
    MessageSetError,
    ReproError,
)
from repro.faults import analysis as faults_analysis_mod
from repro.faults.analysis import FaultBudget
from repro.faults.plan import FaultPlan, rate_for_loss_fraction
from repro.messages.generators import MessageSetSampler, PeriodDistribution
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.obs import tracing as tracing_mod
from repro.service import batcher as batcher_mod
from repro.network.standards import fddi_ring, ieee_802_5_ring, paper_frame_format
from repro.sim.pdp_sim import PDPRingSimulator, PDPSimConfig, TokenWalkModel
from repro.sim.trace import SimulationReport
from repro.sim.traffic import ArrivalPhasing
from repro.sim.ttp_sim import TTPRingSimulator, TTPSimConfig
from repro.sim.validate import cross_validate_pdp, cross_validate_ttp
from repro.verify.generators import FuzzCase

__all__ = ["CHECKS", "Violation", "run_check"]

#: Simulation horizon multiplier (minimum periods of the longest stream);
#: the validator extends it to whole hyperperiods where representable.
_SIM_PERIODS = 2.0

#: Longest P_max the sim checks will simulate.  The huge-quotient
#: ``exact_multiple`` cases (periods of hundreds of seconds) target the
#: scalar boundary rule, not the simulators; simulating several such
#: periods would burn the whole fuzz budget on one case.
_SIM_MAX_PERIOD_S = 1.0

#: Most piece edges ``ttrt_optimum_exact`` scores one at a time.  The
#: random families stay below 20,000; the huge-quotient
#: ``exact_multiple`` cases have millions and target the boundary rule.
_TTRT_MAX_EDGES = 50_000

#: Points of ``ttrt_optimum_exact``'s dense log scan of the TTRT domain.
_TTRT_SCAN_POINTS = 4096


@dataclass(frozen=True)
class Violation:
    """One property failure, tied to the case that produced it."""

    check: str
    case: FuzzCase
    detail: str

    def describe(self) -> str:
        """One-line human-readable account, replayable from (seed, index)."""
        return (
            f"{self.check} failed on case (seed={self.case.seed}, "
            f"index={self.case.index}, kind={self.case.kind}): {self.detail}"
        )


def _frame():
    return paper_frame_format()


def _pdp_analysis(case: FuzzCase, variant: PDPVariant) -> PDPAnalysis:
    ring = ieee_802_5_ring(case.bandwidth_bps, n_stations=case.n_stations)
    return PDPAnalysis(ring, _frame(), variant)


def _pdp_analysis_stations(case: FuzzCase, n_stations: int) -> PDPAnalysis:
    """Like :func:`_pdp_analysis` but with a fixed station count (for
    scenarios that need more concurrent streams than the case's ring)."""
    ring = ieee_802_5_ring(case.bandwidth_bps, n_stations=n_stations)
    return PDPAnalysis(ring, _frame(), PDPVariant.MODIFIED)


def _ttp_analysis(case: FuzzCase) -> TTPAnalysis:
    ring = fddi_ring(case.bandwidth_bps, n_stations=case.n_stations)
    return TTPAnalysis(ring, _frame())


def _admission_policy(case: FuzzCase):
    """The admission policy a case exercises.  The admission checks pick
    the protocol by ``case.index % 2``, so the policy alternates every
    two cases: consecutive cases cover all four (protocol, policy)
    pairs."""
    return (
        admission_mod.AdmissionPolicy.EXACT,
        admission_mod.AdmissionPolicy.SUFFICIENT,
    )[(case.index // 2) % 2]


# -- analysis versus simulation -------------------------------------------------


def check_pdp_vs_sim(case: FuzzCase) -> Violation | None:
    """Theorem 4.1 acceptance must survive adversarial simulation."""
    if max(case.periods_s) > _SIM_MAX_PERIOD_S:
        return None
    message_set = case.message_set()
    for variant in PDPVariant:
        analysis = _pdp_analysis(case, variant)
        if not analysis.is_schedulable(message_set):
            continue
        validation = cross_validate_pdp(
            analysis, message_set, duration_periods=_SIM_PERIODS
        )
        if not validation.consistent:
            missed = [
                (s.stream_index, s.missed)
                for s in validation.report.streams
                if s.missed
            ]
            return Violation(
                "pdp_vs_sim",
                case,
                f"Theorem 4.1 ({variant.value}) accepted the set but the "
                f"simulator missed deadlines: {missed}",
            )
    return None


def check_ttp_vs_sim(case: FuzzCase) -> Violation | None:
    """Theorem 5.1 acceptance must survive adversarial simulation."""
    if max(case.periods_s) > _SIM_MAX_PERIOD_S:
        return None
    analysis = _ttp_analysis(case)
    message_set = case.message_set()
    # Consistency only binds the accept side of the (sufficient) theorem;
    # simulating rejected sets would spend fuzz budget proving nothing.
    if not analysis.is_schedulable(message_set):
        return None
    validation = cross_validate_ttp(
        analysis, message_set, duration_periods=_SIM_PERIODS
    )
    if not validation.consistent:
        missed = [
            (s.stream_index, s.missed)
            for s in validation.report.streams
            if s.missed
        ]
        return Violation(
            "ttp_vs_sim",
            case,
            "Theorem 5.1 accepted the set but the simulator missed "
            f"deadlines: {missed}",
        )
    return None


# -- scalar versus batched ------------------------------------------------------


def check_scalar_vector_augmented(case: FuzzCase) -> Violation | None:
    """Scalar and vectorized ``C'_i`` must agree bit for bit."""
    frame = _frame()
    ring = ieee_802_5_ring(case.bandwidth_bps, n_stations=case.n_stations)
    payloads = np.asarray(case.payloads_bits, dtype=float)
    for variant in PDPVariant:
        vector = pdp_mod.pdp_augmented_lengths(payloads, ring, frame, variant)
        scalar = np.array(
            [
                pdp_mod.pdp_augmented_length(c, ring, frame, variant)
                for c in case.payloads_bits
            ]
        )
        if not np.array_equal(vector, scalar):
            delta = np.max(np.abs(vector - scalar))
            return Violation(
                "scalar_vector_augmented",
                case,
                f"C'_i ({variant.value}) scalar/vector mismatch, max "
                f"|Δ|={delta:.3e}: scalar={scalar.tolist()} "
                f"vector={vector.tolist()}",
            )
    return None


def check_scalar_vector_split(case: FuzzCase) -> Violation | None:
    """Scalar and vectorized frame splits must agree, boundaries included."""
    frame = _frame()
    # The raw payloads plus adversarial points at the frame boundary:
    # exact multiples of the info field and one ulp either side.
    probes = list(case.payloads_bits) + [0.0]
    for c in case.payloads_bits:
        k = max(round(c / frame.info_bits), 1)
        exact = k * frame.info_bits
        probes.extend(
            [exact, float(np.nextafter(exact, 0.0)), float(np.nextafter(exact, np.inf))]
        )
    arr = np.asarray(probes, dtype=float)
    total_v, full_v = frame.split_counts(arr)
    for i, c in enumerate(probes):
        split = frame.split(c)
        if total_v[i] != split.total_frames or full_v[i] != split.full_frames:
            return Violation(
                "scalar_vector_split",
                case,
                f"frame split mismatch at payload {c!r}: scalar "
                f"(K={split.total_frames}, L={split.full_frames}) vs vector "
                f"(K={total_v[i]}, L={full_v[i]})",
            )
    return None


def check_scalar_vector_visits(case: FuzzCase) -> Violation | None:
    """Scalar and vectorized token-visit counts must agree."""
    ttrts = []
    if case.ttrt_hint_s is not None:
        ttrts.append(case.ttrt_hint_s)
    try:
        ttrts.append(_ttp_analysis(case).select_ttrt(case.message_set()))
    except Exception:
        pass  # degenerate policy input; the hint (if any) still probes
    for ttrt in ttrts:
        if ttrt <= 0:
            continue
        vector = boundary_mod.token_visit_counts(case.periods_s, ttrt)
        scalar = np.array(
            [boundary_mod.token_visit_count(p, ttrt) for p in case.periods_s],
            dtype=float,
        )
        if not np.array_equal(vector, scalar):
            return Violation(
                "scalar_vector_visits",
                case,
                f"token-visit counts disagree at TTRT={ttrt!r}: "
                f"scalar={scalar.tolist()} vector={vector.tolist()} "
                f"periods={list(case.periods_s)}",
            )
    return None


def check_breakdown_batch(case: FuzzCase) -> Violation | None:
    """Single and batched breakdown searches must return the same
    ``(scale, evaluations)`` pair, scales bit for bit.

    The batch is a small population of mixed widths, so one probe
    stacks rows of different structures: the case's set, a sibling with
    the same period vector but perturbed payloads (it shares the cached
    exact-test structure, so rows must not be grouped by structure), a
    set with different periods, a narrower prefix of the case whose
    first half shares the first period, a set twice as wide with every
    period repeated (period groups of several streams), the two sets
    the far-edge shortcut settles: the case with every period ×1e-6
    (fails at every scale) and with every payload ×1e-60 (schedulable at
    every doubling), and the case with every payload zero.

    The same population is scored by the PDP's lockstep search and by
    the TTP's closed-form batch
    (:meth:`~repro.analysis.ttp.TTPAnalysis.saturation_scales`, one
    array pass over rows of several widths), at the sqrt-rule TTRT and
    at a fixed ``P_min / 2`` of the case, under which the ×1e-6 set sees
    the token fewer than twice per period (scale 0) and the zero set has
    no demand (scale ``inf``).
    """
    periods, payloads = case.periods_s, case.payloads_bits
    width = max(1, 3 * len(periods) // 4)
    population = [
        case.message_set(),
        case.with_streams(
            periods,
            tuple(c * (1.25 if i % 2 == 0 else 0.75) for i, c in enumerate(payloads)),
        ).message_set(),
        case.with_streams(tuple(p * 1.5 for p in periods), payloads).message_set(),
        case.with_streams(
            periods[:1] * (width // 2) + periods[width // 2 : width],
            payloads[:width],
        ).message_set(),
        case.with_streams(
            periods + periods, tuple(c * 0.5 for c in payloads + payloads)
        ).message_set(),
        case.with_streams(tuple(p * 1e-6 for p in periods), payloads).message_set(),
        case.with_streams(periods, tuple(c * 1e-60 for c in payloads)).message_set(),
        case.with_streams(periods, tuple(0.0 for _ in payloads)).message_set(),
    ]
    labels = (
        "case set",
        "payload-perturbed sibling",
        "re-periodized set",
        "narrow tied prefix",
        "doubled set",
        "hopeless set",
        "never-saturating set",
        "zero-payload set",
    )
    analyses = (
        ("PDP", _pdp_analysis(case, PDPVariant.STANDARD)),
        ("TTP", _ttp_analysis(case)),
        (
            "TTP at P_min/2",
            TTPAnalysis(
                fddi_ring(case.bandwidth_bps, n_stations=case.n_stations),
                _frame(),
                FixedTTRT(min(periods) / 2.0),
            ),
        ),
    )
    for name, analysis in analyses:
        batched = breakdown_scales_batch(population, analysis, rel_tol=1e-3)
        for label, member, (batch_scale, batch_evals) in zip(
            labels, population, batched
        ):
            scalar, scalar_evals = breakdown_scale(member, analysis, rel_tol=1e-3)
            if not (
                scalar == batch_scale
                or (math.isnan(scalar) and math.isnan(batch_scale))
            ):
                return Violation(
                    "breakdown_batch",
                    case,
                    f"{name}, {label}: breakdown scale scalar={scalar!r} != "
                    f"batched={batch_scale!r}",
                )
            if scalar_evals != batch_evals:
                return Violation(
                    "breakdown_batch",
                    case,
                    f"{name}, {label}: evaluations scalar={scalar_evals} != "
                    f"batched={batch_evals}",
                )
    return None


# -- metamorphic ---------------------------------------------------------------


def check_ttrt_optimum_exact(case: FuzzCase) -> Violation | None:
    """The optimal TTRT is the best piece edge and beats a dense scan."""
    ttp = _ttp_analysis(case)
    periods = np.asarray(case.periods_s, dtype=float)
    payload_times = np.asarray(case.payloads_bits, dtype=float) / case.bandwidth_bps
    delta, overhead = ttp.delta, ttp.frame_overhead_time
    budget_floor = delta + periods.size * overhead
    upper = float(periods.min()) / 2.0
    # optimal_ttrt's domain: [lower, P_min/2], a positive budget.
    low = max(upper * 1e-4, delta * 1e-3, 1e-12, budget_floor)
    if np.sum(periods // low) > _TTRT_MAX_EDGES:
        return None
    edges = {
        p / m
        for p in set(periods.tolist())
        for m in range(2, int(p // low) + 2)
        if low <= p / m <= upper
    }
    best_edge = max(
        (
            ttp_saturation_scale(t, periods, payload_times, delta, overhead)
            for t in edges
        ),
        default=0.0,
    )
    try:
        chosen = ttrt_mod.optimal_ttrt(periods, payload_times, delta, overhead)
    except InfeasibleParameterError:
        if best_edge > 0.0:
            return Violation(
                "ttrt_optimum_exact",
                case,
                f"optimal_ttrt raised InfeasibleParameterError but a piece "
                f"edge scores {best_edge!r}",
            )
        return None
    chosen_scale = ttp_saturation_scale(
        chosen, periods, payload_times, delta, overhead
    )
    if chosen_scale < best_edge:
        return Violation(
            "ttrt_optimum_exact",
            case,
            f"optimal_ttrt chose TTRT={chosen!r} scoring {chosen_scale!r}, "
            f"but the best of {len(edges)} piece edges scores {best_edge!r}",
        )
    probes = np.geomspace(low, upper, _TTRT_SCAN_POINTS)
    dense = ttp_saturation_scales(
        probes, periods, payload_times, np.full(probes.size, periods.size),
        delta, overhead,
    )
    if chosen_scale < dense.max() * (1 - 2 * Q_REL_TOL):
        worst = int(np.argmax(dense))
        return Violation(
            "ttrt_optimum_exact",
            case,
            f"optimal_ttrt chose TTRT={chosen!r} scoring {chosen_scale!r}, "
            f"but the scan point {probes[worst]!r} scores {dense[worst]!r}",
        )
    return None


def check_shrink_monotonic(case: FuzzCase) -> Violation | None:
    """Shrinking any payload of a schedulable set keeps it schedulable."""
    message_set = case.message_set()
    shrunk_sets = [("all payloads x0.5", message_set.scaled(0.5))]
    for i in range(len(message_set)):
        payloads = list(case.payloads_bits)
        payloads[i] = payloads[i] * 0.5
        shrunk_sets.append(
            (
                f"payload {i} halved",
                case.with_streams(case.periods_s, tuple(payloads)).message_set(),
            )
        )

    for variant in PDPVariant:
        analysis = _pdp_analysis(case, variant)
        if not analysis.is_schedulable(message_set):
            continue
        for label, shrunk in shrunk_sets:
            if not analysis.is_schedulable(shrunk):
                return Violation(
                    "shrink_monotonic",
                    case,
                    f"Theorem 4.1 ({variant.value}): schedulable set became "
                    f"unschedulable after {label}",
                )

    ttp = _ttp_analysis(case)
    try:
        ttp_ok = ttp.is_schedulable(message_set)
    except AllocationError:
        ttp_ok = False
    if ttp_ok:
        for label, shrunk in shrunk_sets:
            if not ttp.is_schedulable(shrunk):
                return Violation(
                    "shrink_monotonic",
                    case,
                    f"Theorem 5.1: schedulable set became unschedulable "
                    f"after {label}",
                )
    return None


def check_scale_invariance(case: FuzzCase) -> Violation | None:
    """TTP breakdown utilization is invariant under payload scaling."""
    ttp = _ttp_analysis(case)
    message_set = case.message_set()
    try:
        base = ttp.saturation_scale(message_set)
    except Exception:
        return None  # unallocatable (q_i < 2): nothing to scale
    if not (0 < base < float("inf")):
        return None
    for s in (0.5, 2.0, 4.0):
        scaled = ttp.saturation_scale(message_set.scaled(s))
        if not math.isclose(scaled * s, base, rel_tol=1e-9):
            return Violation(
                "scale_invariance",
                case,
                f"TTP breakdown utilization moved under payload scale {s}: "
                f"λ(M)={base!r} but λ(sM)·s={scaled * s!r}",
            )
    return None


def check_service_batch_equiv(case: FuzzCase) -> Violation | None:
    """Micro-batched admission dispatch must equal sequential direct calls.

    The ops run through a real :class:`~repro.service.batcher.MicroBatcher`
    under ``asyncio.run``: seeded groups of concurrent submits (each group
    lands in one loop tick, so one flush), with a seeded ``batch_max``
    slicing each flush.
    """
    policy = _admission_policy(case)
    if case.index % 2:
        analyses = (_ttp_analysis(case), _ttp_analysis(case))
    else:
        analyses = (
            _pdp_analysis(case, PDPVariant.MODIFIED),
            _pdp_analysis(case, PDPVariant.MODIFIED),
        )
    batched = admission_mod.AdmissionController(analyses[0], policy)
    sequential = admission_mod.AdmissionController(analyses[1], policy)

    # A deterministic interleaving of admits, checks, and releases —
    # releases deliberately include ids that are unknown, already
    # released, or not yet assigned, in both strict and idempotent modes.
    rng = random.Random(case.seed * 1_000_003 + case.index)
    ops: list[admission_mod.AdmissionOp] = []
    for period_s, payload_bits in zip(case.periods_s, case.payloads_bits):
        if rng.random() < 0.5:
            ops.append(admission_mod.AdmissionOp.admit(period_s, payload_bits))
        else:
            ops.append(admission_mod.AdmissionOp.check(period_s, payload_bits))
        if rng.random() < 0.3:
            ops.append(
                admission_mod.AdmissionOp.release(
                    rng.randrange(1, len(case.periods_s) + 2),
                    idempotent=rng.random() < 0.5,
                )
            )
    batch_max = rng.choice((1, 3, 64))
    groups: list[list[admission_mod.AdmissionOp]] = []
    remaining = list(ops)
    while remaining:
        size = rng.randint(1, 8)
        groups.append(remaining[:size])
        remaining = remaining[size:]

    async def serve():
        batcher = batcher_mod.MicroBatcher(batched, batch_max=batch_max)
        batcher.start()
        answers = []
        for group in groups:
            answers += await asyncio.gather(
                *(batcher.submit(op) for op in group), return_exceptions=True
            )
        await batcher.drain()
        return answers

    batch_results = asyncio.run(serve())

    def issue_directly(op):
        try:
            if op.kind == "check":
                return sequential.check(op.period_s, op.payload_bits)
            if op.kind == "admit":
                return sequential.request(op.period_s, op.payload_bits)
            return sequential.release(op.stream_id, idempotent=op.idempotent)
        except ReproError as exc:
            return admission_mod.OpFault(type(exc).__name__, str(exc))

    for position, (op, got) in enumerate(zip(ops, batch_results)):
        want = issue_directly(op)
        if got != want:
            return Violation(
                "service_batch_equiv",
                case,
                f"op {position} ({op.kind}) diverged at batch_max="
                f"{batch_max}: batched={got!r}, sequential={want!r}",
            )
    return None


def check_admission_cache_equiv(case: FuzzCase) -> Violation | None:
    """The decision cache must never move an admission decision."""
    policy = _admission_policy(case)
    if case.index % 2:
        analysis_factory = lambda n: TTPAnalysis(  # noqa: E731
            fddi_ring(case.bandwidth_bps, n_stations=n), _frame()
        )
    else:
        analysis_factory = lambda n: _pdp_analysis_stations(case, n)  # noqa: E731

    def pair(n_stations, pair_policy):
        """(cached, uncached oracle) controllers over identical analyses."""
        return (
            admission_mod.AdmissionController(
                analysis_factory(n_stations),
                pair_policy,
                cache_namespace="admission",
            ),
            admission_mod.AdmissionController(
                analysis_factory(n_stations), pair_policy
            ),
        )

    def issue(controller, op):
        try:
            if op.kind == "check":
                return controller.check(op.period_s, op.payload_bits)
            if op.kind == "admit":
                return controller.request(op.period_s, op.payload_bits)
            return controller.release(op.stream_id, idempotent=op.idempotent)
        except ReproError as exc:
            return admission_mod.OpFault(type(exc).__name__, str(exc))

    def compare(cached, oracle, ops, label):
        """Issue ``ops`` on both sides: (first mismatch or None, last
        oracle answer)."""
        want = None
        for position, op in enumerate(ops):
            got, want = issue(cached, op), issue(oracle, op)
            if got != want:
                return (
                    Violation(
                        "admission_cache_equiv",
                        case,
                        f"{label} op {position} ({op.kind}) diverged: "
                        f"cached={got!r}, oracle={want!r}",
                    ),
                    want,
                )
        return None, want

    # Crafted ladder: fill with copies of one stream until the exact test
    # rejects the next copy, so that copy is a heavy candidate failing
    # against the full population F.  One release makes it pass (base
    # plus candidate is F again, which was admitted); re-admitting it
    # revisits F, whose cached rejection must come back.  A decision key
    # that outlives the population it hashed answers the post-release
    # check from F's entry.  Eight stations and payloads of at least 15%
    # of the period make the schedulability test, not capacity, end the
    # fill.
    n_stations = 8
    bandwidth = analysis_factory(n_stations).ring.bandwidth_bps
    probe_period = min(case.periods_s)
    for frac in (0.15, 0.25, 0.35):
        cached, oracle = pair(n_stations, admission_mod.AdmissionPolicy.EXACT)
        admit = admission_mod.AdmissionOp.admit(
            probe_period, max(64.0, frac * probe_period * bandwidth)
        )
        check = admission_mod.AdmissionOp.check(admit.period_s, admit.payload_bits)
        last_id = None
        for _ in range(n_stations):
            violation, outcome = compare(cached, oracle, [check, admit], "fill")
            if violation is not None:
                return violation
            if not getattr(outcome, "admitted", False):
                break
            last_id = outcome.stream_id
        if last_id is None:
            continue
        violation, _ = compare(
            cached,
            oracle,
            [
                admission_mod.AdmissionOp.release(last_id),
                check,
                admit,
                check,
            ],
            f"ladder (payload {frac:.0%} of the period)",
        )
        if violation is not None:
            return violation

    # Random interleavings, with a probe ladder stepping one short
    # period's payload across the feasibility boundary and releases that
    # include unknown and stale ids in both strict and idempotent modes.
    cached, oracle = pair(case.n_stations, policy)
    probe_payloads = [
        max(64.0, frac * probe_period / 4 * bandwidth)
        for frac in (0.3, 0.45, 0.55, 0.65, 0.8, 1.1)
    ]
    rng = random.Random(case.seed * 1_000_003 + case.index)
    ops: list[admission_mod.AdmissionOp] = []
    while len(ops) < 48:
        for period_s, payload_bits in zip(case.periods_s, case.payloads_bits):
            if rng.random() < 0.25:
                period_s, payload_bits = probe_period / 4, rng.choice(
                    probe_payloads
                )
            if rng.random() < 0.5:
                ops.append(admission_mod.AdmissionOp.admit(period_s, payload_bits))
            else:
                ops.append(admission_mod.AdmissionOp.check(period_s, payload_bits))
            if rng.random() < 0.3:
                ops.append(
                    admission_mod.AdmissionOp.release(
                        rng.randrange(1, len(ops) + 3),
                        idempotent=rng.random() < 0.5,
                    )
                )
    return compare(cached, oracle, ops, "random")[0]


class _AdmissionSpec:
    """The admission contract from scratch, one operation at a time.

    State is the admitted streams in admission order, the free-station
    stack and the id counter.  Every decision builds
    ``MessageSet([*admitted, candidate])`` and judges it with a fresh
    analysis (cold structure cache) under the policy; the set's
    ``.utilization`` is both ``utilization_after`` and the budget gate's
    operand.  A malformed request raises whether or not a station is
    free, and so does a PDP candidate whose distinct periods need more
    than ``MAX_EXACT_POINTS`` Theorem 4.1 scheduling points.
    """

    def __init__(self, new_analysis, policy, cap):
        self.new_analysis = new_analysis
        self.policy = policy
        self.cap = cap
        self.n_stations = new_analysis().ring.n_stations
        self.streams: dict[int, SynchronousStream] = {}
        self.free = list(range(self.n_stations - 1, -1, -1))
        self.next_id = 1

    def _decide(self, period_s, payload_bits):
        analysis = self.new_analysis()
        bandwidth = analysis.ring.bandwidth_bps
        station = self.free[-1] if self.free else 0
        stream = SynchronousStream(
            period_s=period_s, payload_bits=payload_bits, station=station
        )
        if isinstance(analysis, PDPAnalysis):
            periods = sorted({s.period_s for s in self.streams.values()} | {period_s})
            limit = admission_mod.MAX_EXACT_POINTS
            # Capped per period so an overflowing ratio stays countable.
            points = sum(
                math.floor(min(periods[-1] / d + 1e-12, limit + 1)) for d in periods
            )
            if points > limit:
                raise MessageSetError(
                    f"the exact test would need more than {limit} "
                    f"scheduling points"
                )
        if not self.free:
            utilization = MessageSet(self.streams.values()).utilization(bandwidth)
            return (False, None, None, "capacity", repr(utilization))
        candidate = MessageSet([*self.streams.values(), stream])
        after = candidate.utilization(bandwidth)
        if self.cap is not None and after > self.cap:
            return (False, None, None, "budget", repr(after))
        if self.policy is admission_mod.AdmissionPolicy.EXACT:
            ok, tested_by = bool(analysis.is_schedulable(candidate)), "exact"
        else:
            test = (
                bounds_mod.pdp_sufficient_test
                if isinstance(analysis, PDPAnalysis)
                else bounds_mod.ttp_sufficient_test
            )
            ok, tested_by = test(analysis, candidate).admitted, "sufficient"
        return (ok, None, station if ok else None, tested_by, repr(after))

    def apply(self, op):
        """The answer to ``op`` in the projection :func:`_admission_view`
        gives, updating the state on a successful admit or release."""
        try:
            if op.kind == "release":
                stream = self.streams.pop(op.stream_id, None)
                if stream is None:
                    if op.idempotent:
                        return admission_mod.ReleaseOutcome(False, op.stream_id)
                    raise AdmissionError(
                        f"unknown or already-released stream id: {op.stream_id!r}"
                    )
                self.free.append(stream.station)
                return admission_mod.ReleaseOutcome(True, op.stream_id)
            view = self._decide(op.period_s, op.payload_bits)
        except ReproError as exc:
            return admission_mod.OpFault(type(exc).__name__, str(exc))
        if op.kind == "admit" and view[0]:
            stream_id, self.next_id = self.next_id, self.next_id + 1
            station = self.free.pop()
            self.streams[stream_id] = SynchronousStream(
                period_s=op.period_s, payload_bits=op.payload_bits, station=station
            )
            view = (True, stream_id, station, view[3], view[4])
        return view


def _admission_view(answer):
    """A decision as ``(admitted, stream_id, station, tested_by,
    repr(utilization_after))``; other answers as they are."""
    if isinstance(answer, admission_mod.AdmissionDecision):
        return (
            answer.admitted,
            answer.stream_id,
            answer.station,
            answer.tested_by,
            repr(answer.utilization_after),
        )
    return answer


def check_admission_snapshot_equiv(case: FuzzCase) -> Violation | None:
    """The population snapshot and shared kernels never move a decision.

    One controller (one analysis, so its structure cache stays warm and
    kernels are shared across period vectors) answers a seeded
    interleaving against :class:`_AdmissionSpec`.  Candidate periods
    come from a small catalogue, so period vectors repeat periods in
    changing multiplicities, and per-stream utilizations of 4-45% fill
    the six-station ring to and past the exact test's boundary; a few
    requests are malformed (a negative, NaN or infinite period or
    payload) or carry a period 10^6 times shorter than the catalogue's
    shortest (beside any admitted stream, too many scheduling points for
    a PDP exact test; alone, far too heavy), so validation meets
    both a free and a full ring.  A few checks carry a 1e308 s or a
    subnormal period, whose ratio to any admitted period overflows: past
    the point bound on a PDP ring, no finite token visit count (or no
    positive TTRT) on a TTP one.  Each sequence runs uncapped and under
    a cap of 0.8, and an exception other than a
    :class:`~repro.errors.ReproError` escaping the controller is a
    violation.
    """
    policy = _admission_policy(case)
    n_stations = 6
    bandwidth = case.bandwidth_bps
    if case.index % 2:
        new_analysis = lambda: TTPAnalysis(  # noqa: E731
            fddi_ring(bandwidth, n_stations=n_stations), _frame()
        )
    else:
        new_analysis = lambda: _pdp_analysis_stations(case, n_stations)  # noqa: E731
    base = sorted(set(case.periods_s))[:3]
    catalogue = base + [2.0 * p for p in base]

    rng = random.Random(case.seed * 5_000_011 + case.index)
    ops: list[admission_mod.AdmissionOp] = []
    admitted_guess = 0
    while len(ops) < 40:
        roll = rng.random()
        if roll < 0.25 and admitted_guess:
            # Release ids from a window that mostly holds live streams.
            ops.append(
                admission_mod.AdmissionOp.release(
                    rng.randrange(max(1, admitted_guess - 6), admitted_guess + 2),
                    idempotent=rng.random() < 0.5,
                )
            )
            continue
        period_s = rng.choice(catalogue)
        payload_bits = rng.uniform(0.04, 0.45) * period_s * bandwidth
        extreme = False
        if rng.random() < 0.08:  # malformed, or too large an exact test
            bad = rng.choice(
                (-payload_bits, math.nan, math.inf, -math.inf, 1e-6 * catalogue[0])
            )
            if rng.random() < 0.5:
                payload_bits = bad
            else:
                period_s = bad
        elif rng.random() < 0.06:  # overflowing period ratio, checked only
            period_s, extreme = rng.choice((1e308, 5e-324)), True
        if roll < 0.7 and not extreme:
            ops.append(admission_mod.AdmissionOp.admit(period_s, payload_bits))
            admitted_guess += 1
        else:
            ops.append(admission_mod.AdmissionOp.check(period_s, payload_bits))

    for cap in (None, 0.8):
        controller = admission_mod.AdmissionController(
            new_analysis(), policy, utilization_cap=cap
        )
        spec = _AdmissionSpec(new_analysis, policy, cap)
        for position, op in enumerate(ops):
            try:
                if op.kind == "check":
                    got = controller.check(op.period_s, op.payload_bits)
                elif op.kind == "admit":
                    got = controller.request(op.period_s, op.payload_bits)
                else:
                    got = controller.release(op.stream_id, idempotent=op.idempotent)
            except ReproError as exc:
                got = admission_mod.OpFault(type(exc).__name__, str(exc))
            except Exception as exc:  # noqa: BLE001 - escaped: poisons a batch
                return Violation(
                    "admission_snapshot_equiv",
                    case,
                    f"op {position} ({op.kind} {op.period_s!r}, cap={cap}) "
                    f"raised {type(exc).__name__}: {exc}",
                )
            got, want = _admission_view(got), spec.apply(op)
            if got != want:
                return Violation(
                    "admission_snapshot_equiv",
                    case,
                    f"op {position} ({op.kind}, cap={cap}) diverged from the "
                    f"specification: controller={got!r}, spec={want!r}",
                )
        utilization = repr(controller.utilization())
        want = repr(
            MessageSet(spec.streams.values()).utilization(bandwidth)
        )
        if utilization != want:
            return Violation(
                "admission_snapshot_equiv",
                case,
                f"utilization() {utilization} differs from the admitted "
                f"set's {want} (cap={cap})",
            )
    return None


def check_admission_tracing_equiv(case: FuzzCase) -> Violation | None:
    """Tracing must never move an admission decision.

    A traced controller (request span installed per op, engine/cache
    spans recorded underneath) and an untraced twin must answer the same
    op sequence identically at every sample rate — 0.0 (never sampled),
    0.5 (systematic every-other), and 1.0 (every request).
    """
    policy = _admission_policy(case)
    sample_rate = (0.0, 0.5, 1.0)[case.index % 3]
    if case.index % 2:
        analysis_factory = lambda: _ttp_analysis(case)  # noqa: E731
    else:
        analysis_factory = lambda: _pdp_analysis(  # noqa: E731
            case, PDPVariant.MODIFIED
        )

    def build():
        return admission_mod.AdmissionController(
            analysis_factory(), policy, cache_namespace="admission"
        )

    traced = build()
    untraced = build()
    tracer = tracing_mod.Tracer(sample_rate, buffer_size=8)

    def issue(controller, op):
        try:
            if op.kind == "check":
                return controller.check(op.period_s, op.payload_bits)
            if op.kind == "admit":
                return controller.request(op.period_s, op.payload_bits)
            return controller.release(op.stream_id, idempotent=op.idempotent)
        except ReproError as exc:
            return admission_mod.OpFault(type(exc).__name__, str(exc))

    rng = random.Random(case.seed * 7_000_003 + case.index)
    ops: list[admission_mod.AdmissionOp] = []
    while len(ops) < 32:
        for period_s, payload_bits in zip(case.periods_s, case.payloads_bits):
            if rng.random() < 0.5:
                ops.append(
                    admission_mod.AdmissionOp.admit(period_s, payload_bits)
                )
            else:
                ops.append(
                    admission_mod.AdmissionOp.check(period_s, payload_bits)
                )
            if rng.random() < 0.3:
                ops.append(
                    admission_mod.AdmissionOp.release(
                        rng.randrange(1, len(ops) + 3),
                        idempotent=rng.random() < 0.5,
                    )
                )

    for position, op in enumerate(ops):
        span = tracer.begin("request", op=op.kind)
        token = tracing_mod.use(span) if span is not None else None
        try:
            got = issue(traced, op)
        finally:
            if token is not None:
                tracing_mod.release(token)
            tracer.finish(span)
        want = issue(untraced, op)
        if got != want:
            return Violation(
                "admission_tracing_equiv",
                case,
                f"op {position} ({op.kind}, rate={sample_rate}) diverged "
                f"under tracing: traced={got!r}, untraced={want!r}",
            )
    return None


# -- lossy medium ---------------------------------------------------------------


#: Oracle-event budget per fault-injected run.  The oracles pay a heap
#: event per frame (PDP, saturating) or per token visit (TTP), so
#: high-bandwidth cases would burn the whole fuzz budget re-simulating
#: idle rotations; the horizon is clamped so a run stays near a multiple
#: of this many events (the cheap per-event floors below are
#: conservative, so real runs come in at or below it).
_SIM_EVENT_BUDGET = 1500


def _config_parity(case: FuzzCase) -> int:
    """Which of two configurations this case exercises (0 or 1).

    Alternates per *round* of the six-family kind rotation (``index =
    6·round + family`` → parity of ``round + family``), so every
    generator family meets both configurations across consecutive
    rounds; a plain index parity would pin each family to one.
    """
    return (case.index // 6 + case.index) % 2


def _report_diff(first: SimulationReport, second: SimulationReport) -> str | None:
    """First bit-level difference between two reports, or None."""
    for name in ("duration", "sync_busy_time", "async_busy_time", "token_time"):
        a, b = getattr(first, name), getattr(second, name)
        if a != b:
            return f"{name}: first={a!r} second={b!r}"
    if len(first.streams) != len(second.streams):
        return (
            f"stream count: first={len(first.streams)} "
            f"second={len(second.streams)}"
        )
    for a, b in zip(first.streams, second.streams):
        if vars(a) != vars(b):
            return f"stream {a.stream_index}: first={vars(a)!r} second={vars(b)!r}"
    if len(first.rotations) != len(second.rotations):
        return (
            f"rotation count: first={len(first.rotations)} "
            f"second={len(second.rotations)}"
        )
    for a, b in zip(first.rotations, second.rotations):
        if vars(a) != vars(b):
            return f"rotation {a.station}: first={vars(a)!r} second={vars(b)!r}"
    return None


def _fault_budget_for(case: FuzzCase) -> FaultBudget:
    """A deterministic fault budget rotated across three shapes per case.

    Recovery latency is tied to the shortest period so the budget is
    material (stalls are a real fraction of every period) without
    trivially rejecting every workload; the three shapes exercise each
    driven fault process against the analysis inflation.
    """
    recovery = min(case.periods_s) / 64.0
    shape = case.index % 3
    if shape == 0:
        return FaultBudget(
            token_loss_rate_hz=rate_for_loss_fraction(0.05, recovery),
            recovery_time_s=recovery,
        )
    if shape == 1:
        return FaultBudget(
            token_loss_rate_hz=rate_for_loss_fraction(0.02, recovery),
            corruption_rate_hz=0.5 / min(case.periods_s),
            recovery_time_s=recovery,
        )
    return FaultBudget(
        token_loss_rate_hz=rate_for_loss_fraction(0.02, recovery),
        membership_rate_hz=rate_for_loss_fraction(0.01, recovery),
        recovery_time_s=recovery,
    )


def _plan_at_budget(case: FuzzCase, budget: FaultBudget) -> FaultPlan:
    """The worst covered plan: every rate drawn exactly at the budget."""
    return FaultPlan(
        seed=case.seed * 1_000_003 + case.index,
        token_loss_rate_hz=budget.token_loss_rate_hz,
        corruption_rate_hz=budget.corruption_rate_hz,
        membership_rate_hz=budget.membership_rate_hz,
        recovery_time_s=budget.recovery_time_s,
    )


def check_analysis_sound_under_loss(case: FuzzCase) -> Violation | None:
    """Fault-aware acceptance must survive fault-injected simulation."""
    if max(case.periods_s) > _SIM_MAX_PERIOD_S:
        return None
    message_set = case.message_set()
    budget = _fault_budget_for(case)
    plan = _plan_at_budget(case, budget)
    frame = _frame()

    variant = (PDPVariant.STANDARD, PDPVariant.MODIFIED)[_config_parity(case)]
    analysis = _pdp_analysis(case, variant)
    if faults_analysis_mod.pdp_fault_aware_schedulable(analysis, message_set, budget):
        config = PDPSimConfig(
            variant=variant,
            phasing=ArrivalPhasing.SIMULTANEOUS,
            async_saturating=True,
            token_walk=TokenWalkModel.AVERAGE,
            faults=plan,
        )
        occupancy = max(frame.frame_time(analysis.ring.bandwidth_bps), analysis.ring.theta)
        duration = min(
            _SIM_PERIODS * max(case.periods_s),
            4 * _SIM_EVENT_BUDGET * occupancy,
        )
        report = PDPRingSimulator(
            analysis.ring, frame, message_set, config
        ).run(duration)
        if not report.deadline_safe:
            missed = [
                (s.stream_index, s.missed) for s in report.streams if s.missed
            ]
            return Violation(
                "analysis_sound_under_loss",
                case,
                f"fault-aware Theorem 4.1 ({variant.value}) accepted the "
                f"set under budget {budget!r} but the fault-injected "
                f"simulator missed deadlines: {missed} "
                f"(faults={report.faults!r})",
            )

    ttp = _ttp_analysis(case)
    try:
        allocation = faults_analysis_mod.ttp_fault_aware_allocation(
            ttp, message_set, budget
        )
    except ReproError:
        return None  # nothing guaranteed under the budget: nothing to referee
    if not allocation.satisfies_protocol_constraint():
        return None
    config = TTPSimConfig(
        phasing=ArrivalPhasing.SIMULTANEOUS, async_saturating=True, faults=plan
    )
    duration = min(
        _SIM_PERIODS * max(case.periods_s),
        4 * _SIM_EVENT_BUDGET * ttp.ring.theta / case.n_stations,
    )
    report = TTPRingSimulator(
        ttp.ring, frame, message_set, allocation, config
    ).run(duration)
    if not report.deadline_safe:
        missed = [(s.stream_index, s.missed) for s in report.streams if s.missed]
        return Violation(
            "analysis_sound_under_loss",
            case,
            f"fault-aware Theorem 5.1 accepted the set under budget "
            f"{budget!r} but the fault-injected simulator missed "
            f"deadlines: {missed} (faults={report.faults!r})",
        )
    return None


def check_fault_plan_determinism(case: FuzzCase) -> Violation | None:
    """Fault schedules and their injection must be deterministic and charged."""
    plan_seed = case.seed * 2_000_003 + case.index
    min_period = min(case.periods_s)
    plan = FaultPlan(
        seed=plan_seed,
        token_loss_rate_hz=3.0 / min_period,
        corruption_rate_hz=2.0 / min_period,
        membership_rate_hz=1.0 / min_period,
        recovery_time_s=min_period / 128.0,
    )
    twin = FaultPlan(
        seed=plan_seed,
        token_loss_rate_hz=3.0 / min_period,
        corruption_rate_hz=2.0 / min_period,
        membership_rate_hz=1.0 / min_period,
        recovery_time_s=min_period / 128.0,
    )
    horizon = 8.0 * min_period
    events = plan.events_until(horizon)
    if events != twin.events_until(horizon):
        return Violation(
            "fault_plan_determinism",
            case,
            "two identically configured plans produced different schedules",
        )
    prefix = [event for event in events if event.time_s < horizon / 2.0]
    if plan.events_until(horizon / 2.0) != prefix:
        return Violation(
            "fault_plan_determinism",
            case,
            "schedule below half the horizon is not a prefix of the full "
            "schedule; --jobs partitionings would diverge",
        )

    if max(case.periods_s) > _SIM_MAX_PERIOD_S:
        return None
    frame = _frame()
    ring = ieee_802_5_ring(case.bandwidth_bps, n_stations=case.n_stations)
    message_set = case.message_set()
    occupancy = max(frame.frame_time(ring.bandwidth_bps), ring.theta)
    duration = min(
        _SIM_PERIODS * max(case.periods_s), _SIM_EVENT_BUDGET * occupancy
    )

    def run(faults: FaultPlan | None) -> SimulationReport:
        config = PDPSimConfig(
            variant=PDPVariant.STANDARD,
            phasing=ArrivalPhasing.SIMULTANEOUS,
            async_saturating=True,
            token_walk=TokenWalkModel.AVERAGE,
            collect_responses=True,
            faults=faults,
        )
        return PDPRingSimulator(ring, frame, message_set, config).run(duration)

    baseline = run(None)
    zero_rate = run(FaultPlan(seed=plan_seed))
    diff = _report_diff(baseline, zero_rate)
    if diff is not None:
        return Violation(
            "fault_plan_determinism",
            case,
            f"a zero-rate fault plan changed the simulation: {diff}",
        )
    stats = zero_rate.faults
    if stats is None or stats.ring_events or stats.corrupted_frames:
        return Violation(
            "fault_plan_determinism",
            case,
            f"zero-rate run reported fault activity: {stats!r}",
        )

    # Positive-rate probe: the minimum gap (1/rate) puts the first token
    # loss at or before duration/4, so the run must consume events *and*
    # charge their recovery stalls — the fault_recovery_swallowed mutant
    # consumes without charging and fails the recovery_time_s assertion.
    probe_plan = FaultPlan(
        seed=plan_seed,
        token_loss_rate_hz=8.0 / duration,
        recovery_time_s=duration / 200.0,
    )
    first = run(probe_plan)
    diff = _report_diff(first, run(probe_plan))
    if diff is not None:
        return Violation(
            "fault_plan_determinism",
            case,
            f"two runs of the same fault plan diverged: {diff}",
        )
    stats = first.faults
    if stats is None or stats.token_losses < 1:
        return Violation(
            "fault_plan_determinism",
            case,
            f"positive-rate plan consumed no token losses over the run "
            f"(stats={stats!r})",
        )
    if not stats.recovery_time_s > 0.0:
        return Violation(
            "fault_plan_determinism",
            case,
            f"{stats.token_losses} token losses were consumed but no "
            f"recovery time was charged (stats={stats!r}); the injector "
            "is swallowing faults",
        )
    return None


# -- exact RM test versus response-time analysis ---------------------------------

#: Total loads (sum C_i/P_i) each ``rm_exact_vs_rta`` cost vector is
#: scaled to: from comfortably schedulable through every family's
#: breakdown (harmonic sets break at 1, paper-scale sets near 0.9), then
#: into overloads where higher-priority streams fail too, so the
#: per-stream ``details`` verdicts are tested above the lowest stream.
_RM_LOADS = np.concatenate((np.linspace(0.5, 1.1, 13), [1.25, 1.5, 1.75, 2.0]))


def _rm_oracle_period_sets(case: FuzzCase) -> list[tuple[str, np.ndarray]]:
    """The case's own periods plus one derived family, rotating by index:
    a paper-scale 100-stream draw (uniform, mean 100 ms, ratio 10), a
    harmonic catalogue whose multiples collide, or near-equal periods
    one ulp apart next to computed multiples (``(p/3)*3`` vs ``p``)."""
    rng = np.random.default_rng([case.seed, case.index, 41])
    family = case.index % 3
    if family == 0:
        name = "paper_100"
        periods = rng.uniform(0.2 / 11.0, 2.0 / 11.0, size=100)
    elif family == 1:
        name = "harmonic"
        base = float(10 ** rng.uniform(np.log10(0.002), np.log10(0.02)))
        catalogue = base * np.array([1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0])
        periods = catalogue[rng.integers(0, catalogue.size, size=24)]
    else:
        name = "near_equal"
        p = float(10 ** rng.uniform(np.log10(0.005), np.log10(0.05)))
        third = p / 3.0
        pool = np.array(
            [third, p, np.nextafter(p, 0.0), np.nextafter(p, 1.0), third * 3.0,
             2.0 * p, third * 6.0, 3.0 * p]
        )
        periods = pool[rng.integers(0, pool.size, size=12)]
    return [
        ("case", np.sort(np.asarray(case.periods_s, dtype=float))),
        (name, np.sort(periods)),
    ]


def check_rm_exact_vs_rta(case: FuzzCase) -> Violation | None:
    """The LSD exact test agrees with response-time analysis.

    :func:`~repro.analysis.rm.response_time_analysis` is the independent
    fixed-point oracle for equation (4).  Every verdict surface of
    :class:`~repro.analysis.rm.ExactRMTest` — :meth:`is_schedulable`,
    the rows of :meth:`is_schedulable_batch`, and the per-stream
    :meth:`details` — must match it on cost vectors swept across
    :data:`_RM_LOADS`.  As in the unit-level equivalence test, a stream
    whose response lies within ``1e-9`` relative of its deadline sits on
    the float knife edge, where the two formulations may legitimately
    differ: a vector with such a stream is skipped.
    """
    rng = np.random.default_rng([case.seed, case.index, 43])
    for name, periods in _rm_oracle_period_sets(case):
        test = rm_mod.ExactRMTest(periods)
        shares = rng.uniform(0.05, 1.0, size=periods.size)
        costs = (shares / shares.sum())[None, :] * _RM_LOADS[:, None] * periods
        blocking = float(rng.choice([0.0, 0.01 * periods[0]]))
        batch = test.is_schedulable_batch(costs, blocking)
        for row, load in enumerate(_RM_LOADS):
            responses = np.array(
                rm_mod.response_time_analysis(costs[row], periods, blocking)
            )
            if np.any(np.abs(responses - periods) <= 1e-9 * periods):
                continue
            oracle = responses <= periods
            verdicts = {
                "is_schedulable": test.is_schedulable(costs[row], blocking),
                "is_schedulable_batch": bool(batch[row]),
            }
            for surface, verdict in verdicts.items():
                if verdict != bool(oracle.all()):
                    return Violation(
                        "rm_exact_vs_rta",
                        case,
                        f"{name} set at load {load:.3f}: {surface} says "
                        f"{verdict}, response-time analysis says "
                        f"{bool(oracle.all())} (n={periods.size}, "
                        f"blocking={blocking!r}, periods={periods.tolist()})",
                    )
            stream_ok = np.array(
                [d.schedulable for d in test.details(costs[row], blocking)]
            )
            if not np.array_equal(stream_ok, oracle):
                i = int(np.flatnonzero(stream_ok != oracle)[0])
                return Violation(
                    "rm_exact_vs_rta",
                    case,
                    f"{name} set at load {load:.3f}: details() stream {i} "
                    f"schedulable={bool(stream_ok[i])} but its response "
                    f"{responses[i]!r} vs period {periods[i]!r}",
                )
    return None


# -- streaming Monte Carlo equivalence ------------------------------------------

#: Chunk size of the fuzz-scale streaming runs; small enough that the whole
#: check costs ~40 breakdown searches per case at the relaxed tolerance.
_MC_CHUNK_SETS = 4

#: Bisection tolerance for the Monte Carlo equivalence check.  Accuracy of
#: individual samples is irrelevant here — both estimators share the same
#: kernels — so the search can stop early.
_MC_REL_TOL = 1e-3


def check_mc_streaming_equiv(case: FuzzCase) -> Violation | None:
    """The streaming estimator *is* the fixed-N estimator.

    Two obligations: (1) in plain mode (``strata=1``) the
    streaming chunk ``k`` consumes the sample stream of
    ``default_rng([seed, k])`` bit-identically, so chunk 0's mean must
    equal the fixed-N mean over the same ``chunk_sets`` sets exactly;
    (2) the stratified mode changes *where* period samples land,
    never what is estimated, so its mean must agree with an independent
    fixed-N estimate within the combined confidence intervals.
    """
    analysis = _pdp_analysis(case, PDPVariant.STANDARD)
    p_min = min(case.periods_s)
    p_max = max(case.periods_s)
    distribution = PeriodDistribution(
        mean_period_s=0.5 * (p_min + p_max), ratio=p_max / p_min
    )
    sampler = MessageSetSampler(
        n_streams=len(case.periods_s), periods=distribution
    )
    mc_seed = case.seed * 3_000_017 + case.index
    bandwidth = case.bandwidth_bps

    def chunks(seed: tuple[int, ...], strata: int):
        """Chunk ``k`` drawn from ``default_rng([*seed, k])``."""
        return lambda k: sampler.sample_many(
            np.random.default_rng([*seed, k]), _MC_CHUNK_SETS, strata
        )

    streaming = montecarlo_mod.streaming_average_breakdown_utilization(
        analysis,
        chunks((mc_seed,), 1),
        bandwidth,
        eps=1.0,  # converge immediately at min_chunks: 2 chunks exactly
        min_chunks=2,
        max_chunks=2,
        rel_tol=_MC_REL_TOL,
    )
    fixed_chunk = montecarlo_mod.average_breakdown_utilization(
        analysis,
        sampler.sample_many(np.random.default_rng([mc_seed, 0]), _MC_CHUNK_SETS),
        bandwidth,
        rel_tol=_MC_REL_TOL,
    )
    # If chunk 0 produced no samples (every set had infinite scale) the
    # first entry of chunk_means, if any, belongs to a later chunk — only
    # compare when chunk 0 demonstrably contributed.
    if fixed_chunk.n_sets and streaming.chunk_means:
        if streaming.chunk_means[0] != fixed_chunk.mean:
            return Violation(
                "mc_streaming_equiv",
                case,
                f"plain streaming chunk 0 mean {streaming.chunk_means[0]!r} "
                f"is not bit-identical to the fixed-N mean "
                f"{fixed_chunk.mean!r} over the same {_MC_CHUNK_SETS} sets",
            )

    fixed = montecarlo_mod.average_breakdown_utilization(
        analysis,
        sampler.sample_many(
            np.random.default_rng([mc_seed, 1000]), 4 * _MC_CHUNK_SETS
        ),
        bandwidth,
        rel_tol=_MC_REL_TOL,
    )
    reduced = montecarlo_mod.streaming_average_breakdown_utilization(
        analysis,
        chunks((mc_seed, 2000), _MC_CHUNK_SETS),
        bandwidth,
        eps=1e-12,  # never converges: runs to the max_chunks cap
        min_chunks=2,
        max_chunks=4,
        rel_tol=_MC_REL_TOL,
    )
    if fixed.n_sets >= 2 and reduced.n_chunks >= 2:
        combined = math.hypot(fixed.stderr, reduced.stderr)
        if math.isfinite(combined):
            # 6x the combined stderr: loose enough that a clean estimator
            # never trips it (samples are bounded in [0, 1]), tight enough
            # that a biased stratification rule does.
            tolerance = 6.0 * combined + 1e-12
            if abs(fixed.mean - reduced.mean) > tolerance:
                return Violation(
                    "mc_streaming_equiv",
                    case,
                    f"stratified streaming mean {reduced.mean!r} and "
                    f"fixed-N mean {fixed.mean!r} disagree beyond 6x the "
                    f"combined stderr ({combined!r})",
                )
    return None


def _cluster_op_stream(case: FuzzCase) -> list:
    """A deterministic check/admit/release interleaving for cluster runs.

    Same derivation discipline as ``service_batch_equiv``: everything
    flows from ``case.seed``/``case.index`` through integer arithmetic,
    so the stream is identical across processes and PYTHONHASHSEED
    values.  Release targets are drawn from the *fleet* id space,
    including ids never assigned, so the front's unknown-stream path is
    exercised alongside real releases.
    """
    rng = random.Random(case.seed * 1_000_003 + case.index + 77)
    ops: list[admission_mod.AdmissionOp] = []
    for period_s, payload_bits in zip(case.periods_s, case.payloads_bits):
        roll = rng.random()
        if roll < 0.45:
            ops.append(admission_mod.AdmissionOp.admit(period_s, payload_bits))
        else:
            ops.append(admission_mod.AdmissionOp.check(period_s, payload_bits))
        if rng.random() < 0.35:
            ops.append(
                admission_mod.AdmissionOp.release(
                    rng.randrange(1, len(case.periods_s) + 2),
                    idempotent=rng.random() < 0.5,
                )
            )
    return ops


def check_cluster_shard_equiv(case: FuzzCase) -> Violation | None:
    """Sharded admission must be the single controller, bit for bit.

    An :class:`~repro.cluster.core.InProcessCluster` (consistent-hash
    routing, fleet-id translation, even budget leases) runs a derived op
    stream while a per-shard oracle — a fresh standalone
    :class:`~repro.admission.AdmissionController` holding the same lease
    cap — replays, in lockstep, exactly the worker-local subsequence the
    directory routed to that shard.  Every decision, station/id
    assignment, budget rejection, and fault must agree bit for bit once
    fleet ids are translated back to shard-local ones.  Also pins the
    hash ring's minimal-disruption contract: removing one shard may only
    move keys that shard owned.
    """
    policy = _admission_policy(case)
    if case.index % 2:
        make_analysis = lambda: _ttp_analysis(case)  # noqa: E731
    else:
        make_analysis = lambda: _pdp_analysis(  # noqa: E731
            case, PDPVariant.MODIFIED
        )
    cap = 0.25 + 0.2 * (case.index % 4)
    n_shards = 2 + case.index % 2
    shard_ids = [f"w{i}" for i in range(n_shards)]
    cluster = cluster_core_mod.InProcessCluster(
        shard_ids,
        lambda: admission_mod.AdmissionController(make_analysis(), policy),
        utilization_cap=cap,
    )
    oracles = {}
    for shard in shard_ids:
        oracle = admission_mod.AdmissionController(make_analysis(), policy)
        lease = cluster.ledger.lease_of(shard)
        oracle.set_utilization_cap(lease.target if lease else 0.0)
        oracles[shard] = oracle

    for position, op in enumerate(_cluster_op_stream(case)):
        lengths = {
            shard: len(history)
            for shard, history in cluster.histories.items()
        }
        got = cluster.dispatch(op)
        routed = [
            shard
            for shard, history in cluster.histories.items()
            if len(history) > lengths[shard]
        ]
        if not routed:
            # Answered at the front (unknown fleet id): the wording is
            # pinned against the controller's own by construction; a
            # real controller never saw the op, so there is nothing to
            # replay.
            continue
        shard = routed[0]
        local_op = cluster.histories[shard][-1]
        want = oracles[shard].process_batch([local_op])[0]
        # Translate the cluster's fleet-term answer back to shard-local
        # terms before comparing.
        local_got = got
        if isinstance(got, admission_mod.AdmissionDecision):
            if got.admitted and got.stream_id is not None:
                owner = cluster.directory.owner_of(got.stream_id)
                if owner is None or owner[0] != shard:
                    return Violation(
                        "cluster_shard_equiv",
                        case,
                        f"op {position}: admitted fleet id {got.stream_id} "
                        f"not mapped to routed shard {shard}",
                    )
                local_got = replace(got, stream_id=owner[1])
        elif isinstance(got, admission_mod.ReleaseOutcome):
            local_got = replace(got, stream_id=local_op.stream_id)
        if local_got != want:
            return Violation(
                "cluster_shard_equiv",
                case,
                f"op {position} ({local_op.kind}) on shard {shard} "
                f"diverged: cluster={local_got!r}, standalone={want!r}",
            )

    # Minimal disruption: keys not owned by the removed shard must not
    # move when it leaves the ring.
    ring = cluster_hashring_mod.HashRing(shard_ids)
    victim = shard_ids[case.index % len(shard_ids)]
    shrunk = ring.without(victim)
    for period_s, payload_bits in zip(case.periods_s, case.payloads_bits):
        key = cluster_hashring_mod.stream_key(period_s, payload_bits)
        before = ring.lookup(key)
        after = shrunk.lookup(key)
        if before != victim and after != before:
            return Violation(
                "cluster_shard_equiv",
                case,
                f"ring moved key {key!r} from surviving shard {before} "
                f"to {after} when {victim} left",
            )
        if before == victim and after == victim:
            return Violation(
                "cluster_shard_equiv",
                case,
                f"ring still routes key {key!r} to removed shard {victim}",
            )
    return None


def check_cluster_budget_sound(case: FuzzCase) -> Violation | None:
    """The fleet can never jointly admit past the global cap.

    Two layers, both checked at every step.  First a live
    :class:`~repro.cluster.core.InProcessCluster` — including a
    mid-stream worker death with lease reclaim and redistribution —
    where the *fleet's* admitted utilization must stay within the global
    cap and the ledger's soundness probe must hold.  Second a
    demand-overcommit churn directly on a
    :class:`~repro.cluster.budget.BudgetLedger`: grants whose combined
    demand exceeds the cap, interleaved with acknowledgements and
    reclaims, where a ledger that sizes grants from a stale view of
    outstanding leases (the ``router_stale_lease`` mutant) overcommits
    and is observed here.
    """
    cap = 0.3 + 0.2 * (case.index % 3)
    shard_ids = ["w0", "w1", "w2"]
    if case.index % 2:
        make_analysis = lambda: _ttp_analysis(case)  # noqa: E731
    else:
        make_analysis = lambda: _pdp_analysis(  # noqa: E731
            case, PDPVariant.MODIFIED
        )
    cluster = cluster_core_mod.InProcessCluster(
        shard_ids,
        lambda: admission_mod.AdmissionController(
            make_analysis(), admission_mod.AdmissionPolicy.EXACT
        ),
        utilization_cap=cap,
    )
    ops = _cluster_op_stream(case)
    kill_at = len(ops) // 2
    epsilon = 1e-9
    for position, op in enumerate(ops):
        if position == kill_at and len(cluster.workers) > 1:
            cluster.kill_shard(sorted(cluster.workers)[case.index % 2])
        cluster.dispatch(op)
        if not cluster.ledger.sound():
            return Violation(
                "cluster_budget_sound",
                case,
                f"after op {position}: granted leases "
                f"{cluster.ledger.granted_total()!r} exceed the fleet cap "
                f"{cap!r}",
            )
        fleet = cluster.fleet_utilization()
        if fleet > cap + epsilon:
            return Violation(
                "cluster_budget_sound",
                case,
                f"after op {position}: fleet admitted utilization "
                f"{fleet!r} exceeds the global cap {cap!r}",
            )

    # Demand-overcommit churn straight on the ledger: total demand is
    # drawn well past the cap, so a correct ledger must clip and a
    # stale-view ledger visibly overcommits.
    rng = random.Random(case.seed * 1_000_003 + case.index + 991)
    ledger = cluster_budget_mod.BudgetLedger(cap)
    shards = [f"s{i}" for i in range(4)]
    for step in range(24):
        roll = rng.random()
        shard = shards[rng.randrange(len(shards))]
        if roll < 0.6:
            granted = ledger.grant(shard, rng.uniform(0.0, 1.5 * cap))
            if rng.random() < 0.7:
                ledger.acknowledge(shard, granted)
        elif roll < 0.8:
            lease = ledger.lease_of(shard)
            if lease is not None:
                ledger.acknowledge(shard, lease.target)
        else:
            ledger.reclaim(shard)
        if not ledger.sound():
            return Violation(
                "cluster_budget_sound",
                case,
                f"ledger churn step {step}: granted total "
                f"{ledger.granted_total()!r} exceeds cap {cap!r} "
                f"(stale-view grant sizing)",
            )
    return None


CHECKS: dict[str, Callable[[FuzzCase], Violation | None]] = {
    "pdp_vs_sim": check_pdp_vs_sim,
    "ttp_vs_sim": check_ttp_vs_sim,
    "scalar_vector_augmented": check_scalar_vector_augmented,
    "scalar_vector_split": check_scalar_vector_split,
    "scalar_vector_visits": check_scalar_vector_visits,
    "breakdown_batch": check_breakdown_batch,
    "shrink_monotonic": check_shrink_monotonic,
    "scale_invariance": check_scale_invariance,
    "ttrt_optimum_exact": check_ttrt_optimum_exact,
    "service_batch_equiv": check_service_batch_equiv,
    "admission_snapshot_equiv": check_admission_snapshot_equiv,
    "admission_cache_equiv": check_admission_cache_equiv,
    "admission_tracing_equiv": check_admission_tracing_equiv,
    "analysis_sound_under_loss": check_analysis_sound_under_loss,
    "fault_plan_determinism": check_fault_plan_determinism,
    "rm_exact_vs_rta": check_rm_exact_vs_rta,
    "mc_streaming_equiv": check_mc_streaming_equiv,
    "cluster_shard_equiv": check_cluster_shard_equiv,
    "cluster_budget_sound": check_cluster_budget_sound,
}


def run_check(name: str, case: FuzzCase) -> Violation | None:
    """Run one named property against one case."""
    try:
        return CHECKS[name](case)
    except KeyError:
        raise ReproError(
            f"unknown check {name!r}; available: {sorted(CHECKS)}"
        ) from None
