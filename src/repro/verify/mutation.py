"""Mutation smoke: prove the fuzz harness can actually catch bugs.

Each mutant re-introduces a realistic off-by-one or boundary bug into a
live code path (by hot-patching the defining module, the way the real
bug would have shipped), runs a short fuzz campaign, and records whether
any property fired.  A harness that cannot flag these deliberate bugs
would be giving vacuous green lights — ``make fuzz-quick`` therefore
requires **every** mutant to be detected.

The mutants, and the property expected to catch each:

``boundary_absolute_epsilon``
    The scalar token-visit rule reverts to the historical
    ``floor(P/TTRT + 1e-12)``, which undercounts exact multiples at
    large quotients → caught by ``scalar_vector_visits`` (the vectorized
    rule still snaps correctly).
``pdp_short_frame_dropped``
    The augmented length ``C'_i`` counts only the ``L_i`` full frames,
    dropping the short last frame — a fencepost on the frame count,
    injected into the scalar **and** vectorized paths so no
    scalar/vector differential can notice → the analysis is optimistic
    by up to a frame per message, and near-saturation cases scaled
    against the mutated analysis miss deadlines in simulation
    (``pdp_vs_sim``).
``ttp_budget_off_by_one``
    The local scheme allocates ``h_i = C_i/q_i + F_ovhd`` instead of
    ``C_i/(q_i - 1)`` — the classic misreading of equation (7) → the
    certified allocation is too small and the TTP simulator misses
    (``ttp_vs_sim``).
``split_counts_overshoot``
    The vectorized frame split computes ``K_i = floor(ratio) + 1``
    unconditionally, overcounting frames at exact info-field multiples →
    caught bit-for-bit by ``scalar_vector_split`` /
    ``scalar_vector_augmented``.
``pdp_fastpath_short_frame``
    The PDP fast path's short-last-frame occupancy drops the ``Θ`` floor
    (``(chunk + ovh)/bw`` instead of ``max(…, Θ)``) — undercharging
    every sub-frame tail in the high-bandwidth regime where wire time
    beats the ring latency → caught bit-for-bit by
    ``pdp_fastpath_equiv`` against the scalar oracle.
``decision_key_stale_base``
    :meth:`~repro.admission.AdmissionController.release` forgets to drop
    the memoised population digest of the decision key (the population
    snapshot is still updated), so after a release every candidate is
    keyed as if the freed stream were still admitted.  A rejection
    cached against the full population then answers a candidate that
    now fits → caught by ``admission_cache_equiv``'s
    fill/reject/release/re-check ladder against the uncached oracle.
``admission_snapshot_stale``
    :meth:`~repro.admission.AdmissionController.release` drops the
    decision-key digest but never updates the population snapshot (the
    utilization terms, the PDP population and the key fragments), so
    every later candidate is judged, and its ``utilization_after``
    summed, with the released stream still in the set → caught by
    ``admission_snapshot_equiv`` against the from-scratch specification.
``admission_group_sum_stale``
    :meth:`~repro.analysis.pdp.PDPPopulation.remove` drops the released
    stream and its ``C'`` but leaves its period group's cost sum as it
    was, so until the next change every candidate is judged as if the
    released stream still loaded its group → caught by
    ``admission_snapshot_equiv``.
``admission_exact_bound_dropped``
    The controller skips the :data:`~repro.admission.MAX_EXACT_POINTS`
    refusal, so a PDP candidate whose period ratio is out of all
    proportion reaches the exact test (an overflowing ratio raises
    ``OverflowError`` from the scheduling-point builder and would fail a
    whole batch) → caught by ``admission_snapshot_equiv``, whose
    specification refuses it.
``rm_kernel_key_by_count``
    The PDP structure cache files the point kernel a repeated-period
    vector borrows under the *number* of distinct periods instead of the
    periods themselves, so a later vector with as many, but different,
    distinct periods is evaluated on the wrong scheduling points →
    caught by ``admission_snapshot_equiv``, whose controller keeps one
    warm cache across candidates drawn from a small period catalogue.
``fault_recovery_swallowed``
    The fault injector consumes ring fault events (the counters still
    tick) but charges zero recovery stall — a lossy-medium run silently
    degrades to a fault-free one, so every soundness verdict against it
    is vacuous → caught by ``fault_plan_determinism``'s positive-rate
    probe, which asserts that consumed token losses charge strictly
    positive recovery time.
``router_stale_lease``
    The cluster budget ledger sizes grants from a stale view of the
    fleet — headroom computed as if no other shard held a lease — so
    several workers are granted the same budget and the fleet can
    jointly admit past the global utilization cap → caught by
    ``cluster_budget_sound``'s demand-overcommit churn, which observes
    the granted total exceeding the cap.
``rm_prefix_cut_overrun``
    The exact RM test's union-point builder files every scheduling
    point under the period group *before* the first one whose ``R``
    holds it, so each stream's prefix cut of the union runs one group
    too far: a stream is also judged at points past its own deadline,
    up to the next longer period, and a set whose busy period ends just
    late passes → caught by ``rm_exact_vs_rta`` against response-time
    analysis.
``rm_event_count_off_by_one``
    The exact RM test's event table gives each scheduling point the
    event count of the next larger point, so a point also counts the
    period multiples that lie at it: the demand at ``t`` charges the
    releases at ``t`` itself, the test turns pessimistic at every
    scheduling point, and sets that meet every deadline fail → caught by
    ``rm_exact_vs_rta`` against response-time analysis.
``rm_details_group_prefix``
    The exact RM test's per-stream report charges every stream the
    prefix sum up to the *last* member of its period group instead of
    its own, so an earlier member of a shared-period group inherits the
    binding member's load ratio and is reported unschedulable when only
    the group's tail misses → caught by ``rm_exact_vs_rta``'s
    ``details`` comparison on the harmonic family, whose periods repeat
    and whose loads run to 2.0.
``breakdown_lockstep_bracket``
    The lockstep saturation search starts bisecting from a bracket one
    doubling too wide (the last schedulable scale halved, or the last
    unschedulable one doubled), so it converges through different
    midpoints than the scalar search and usually spends one more
    evaluation → caught by ``breakdown_batch``, which compares every
    batched ``(scale, evaluations)`` pair with scalar ``breakdown_scale``.
``breakdown_far_edge_evaluations``
    The lockstep search's far-edge shortcut reports ``max_doublings``
    evaluations instead of ``1 + max_doublings`` for a set it settles
    (one that never saturates, or fails at every scale), while every
    scale stays right → caught by ``breakdown_batch``, whose population
    includes the case with its periods ×1e-6 (hopeless) and with its
    payloads ×1e-60 (never saturating).
``ttp_batch_starved_rows_kept``
    The TTP closed-form batch
    (:func:`~repro.analysis.ttrt.ttp_saturation_scales`) forgets the
    per-row ``q_i < 2`` rule, so a set with a stream that sees the token
    fewer than twice per period is scored on a demand with ``q_i - 1 <=
    0`` instead of 0, while the scalar ``ttp_saturation_scale`` still
    answers 0 → caught by ``breakdown_batch``, whose population, scored
    at a fixed TTRT of ``P_min / 2``, includes the case with its periods
    ×1e-6.
``batcher_batch_reordered``
    The micro-batcher's flush calls a batch's ``done`` callbacks with
    the results in reversed order, so each request of a multi-op batch
    receives another request's answer, while ``process_batch`` itself stays correct →
    caught by ``service_batch_equiv``, which drives a real batcher with
    concurrent submits against sequential direct calls.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from repro.obs import logging as obslog
from repro.verify.fuzzer import FuzzConfig, FuzzReport, run_fuzz

__all__ = ["MUTANTS", "MutationReport", "run_mutation_smoke"]


# -- the deliberate bugs --------------------------------------------------------


def _buggy_token_visit_count(period_s: float, ttrt_s: float) -> int:
    return int(math.floor(period_s / ttrt_s + 1e-12))


def _buggy_pdp_augmented_length(payload_bits, ring, frame, variant):
    from repro.analysis.pdp import PDPVariant
    from repro.errors import MessageSetError

    if payload_bits < 0:
        raise MessageSetError("payload must be non-negative")
    if payload_bits == 0:
        return 0.0
    theta = ring.theta
    split = frame.split(payload_bits)
    l_i = split.full_frames  # BUG: every K_i below should be split.total_frames
    frame_time = frame.frame_time(ring.bandwidth_bps)
    if variant is PDPVariant.STANDARD:
        token_cost = l_i * theta / 2.0
    else:
        token_cost = theta / 2.0
    if frame_time <= theta:
        return l_i * theta + token_cost
    return l_i * frame_time + token_cost


def _buggy_pdp_augmented_lengths(payloads_bits, ring, frame, variant):
    from repro.analysis.pdp import PDPVariant
    from repro.errors import MessageSetError

    arr = np.asarray(payloads_bits, dtype=float)
    if np.any(arr < 0):
        raise MessageSetError("payloads must be non-negative")
    theta = ring.theta
    _, full = frame.split_counts(arr)  # BUG: ignores the K_i column
    frame_time = frame.frame_time(ring.bandwidth_bps)
    if variant is PDPVariant.STANDARD:
        token_cost = full * (theta / 2.0)
    else:
        token_cost = np.where(arr > 0, theta / 2.0, 0.0)
    if frame_time <= theta:
        return full * theta + token_cost
    return full * frame_time + token_cost


def _buggy_local_scheme_allocation(
    message_set, ttrt_s, bandwidth_bps, frame_overhead_time_s, delta_s
):
    from repro.analysis import boundary as boundary_mod
    from repro.analysis.ttp import TTPAllocation
    from repro.errors import AllocationError, ConfigurationError

    if ttrt_s <= 0:
        raise ConfigurationError(f"TTRT must be positive, got {ttrt_s!r}")
    visits, bandwidths, augmented = [], [], []
    for stream in message_set:
        q_i = boundary_mod.token_visit_count(stream.period_s, ttrt_s)
        if q_i < 2:
            raise AllocationError("q_i < 2")
        c_i = stream.payload_time(bandwidth_bps)
        visits.append(q_i)
        bandwidths.append(c_i / q_i + frame_overhead_time_s)  # BUG: q, not q-1
        augmented.append(c_i + (q_i - 1) * frame_overhead_time_s)
    return TTPAllocation(
        ttrt_s=ttrt_s,
        token_visits=tuple(visits),
        bandwidths_s=tuple(bandwidths),
        augmented_lengths_s=tuple(augmented),
        delta_s=delta_s,
    )


def _buggy_split_counts(self, payloads_bits):
    from repro.errors import ConfigurationError

    arr = np.asarray(payloads_bits, dtype=float)
    if np.any(arr < 0):
        raise ConfigurationError("payloads must be non-negative")
    ratio = arr / self.info_bits
    full = np.floor(ratio)
    total = full + 1.0  # BUG: overcounts exact info-field multiples
    zero = arr == 0
    if np.any(zero):
        full = np.where(zero, 0.0, full)
        total = np.where(zero, 0.0, total)
    return total, full


def _buggy_short_frame_occupancy(chunk_bits, overhead_bits, bandwidth_bps, theta):
    return (chunk_bits + overhead_bits) / bandwidth_bps  # BUG: drops the Θ floor


def _buggy_release(self, stream_id, idempotent=False):
    from repro.admission import ReleaseOutcome
    from repro.errors import AdmissionError

    with self._lock:
        stream = self._streams.pop(stream_id, None)
        if stream is None:
            if idempotent:
                return ReleaseOutcome(released=False, stream_id=stream_id)
            raise AdmissionError(
                f"unknown or already-released stream id: {stream_id!r}"
            )
        self._free_stations.append(stream.station)
        # BUG: the memoised decision-key digest keeps the old population
        self._snapshot_remove(stream_id, stream)
        return ReleaseOutcome(released=True, stream_id=stream_id)


def _buggy_release_stale_snapshot(self, stream_id, idempotent=False):
    from repro.admission import ReleaseOutcome
    from repro.errors import AdmissionError

    with self._lock:
        stream = self._streams.pop(stream_id, None)
        if stream is None:
            if idempotent:
                return ReleaseOutcome(released=False, stream_id=stream_id)
            raise AdmissionError(
                f"unknown or already-released stream id: {stream_id!r}"
            )
        self._free_stations.append(stream.station)
        self._base_digest = None
        # BUG: no _snapshot_remove, so the utilization terms, the PDP
        # population and the key fragments keep the released stream
        return ReleaseOutcome(released=True, stream_id=stream_id)


def _buggy_population_remove(original):
    def remove(self, stream):
        distinct, _, sums = self._group_state()
        stale = sums[np.searchsorted(distinct, stream.period_s)]
        original(self, stream)
        distinct, _, sums = self._group_state()
        g = np.searchsorted(distinct, stream.period_s)
        if g < distinct.size and distinct[g] == stream.period_s:
            sums[g] = stale  # BUG: the group keeps the released stream's cost
    return remove


def _buggy_exact_test_too_large(self, period_s):
    return False  # BUG: no candidate is refused for its exact-test size


def _buggy_distinct_key(distinct):
    return ("kernel", distinct.size)  # BUG: keyed by count, not periods


def _buggy_stall_cost(recovery_time_s):
    return 0.0  # BUG: consumes the fault event but never charges recovery


def _buggy_grantable(cap, outstanding):
    return max(0.0, cap)  # BUG: stale view — ignores outstanding leases


def _buggy_union_points(original):
    def union_points(distinct):
        points, first = original(distinct)
        return points, np.maximum(first - 1, 0)  # BUG: every cut one group late
    return union_points


def _buggy_event_table(original):
    def event_table(points, distinct):
        events, counts = original(points, distinct)
        ascending = np.argsort(points)
        # BUG: each point takes the next larger point's count, so it also
        # counts the multiples that lie at it
        counts[ascending[:-1]] = counts[ascending[1:]]
        return events, counts
    return event_table


def _buggy_load_ratios(original):
    def load_ratios(self, arr, blocking, indices):
        ends = np.searchsorted(self.periods, self.periods, side="right") - 1
        # BUG: each stream reports its group's last member (same points,
        # group-end prefix sum)
        return original(self, arr, blocking, [ends[i] for i in indices])
    return load_ratios


def _buggy_bracket(original):
    def bracket(inner, edge, up):
        lo, hi = original(inner, edge, up)
        # BUG: the bracket is one doubling too wide
        return np.where(up, lo / 2.0, lo), np.where(up, hi, hi * 2.0)
    return bracket


def _buggy_far_edges(original):
    def far_edges(max_doublings):
        up, down, evaluations = original(max_doublings)
        return up, down, evaluations - 1  # BUG: the probe at 1.0 goes uncounted
    return far_edges


def _buggy_visit_starved(q, lengths):
    return np.zeros(q.shape[0], dtype=bool)  # BUG: no row is ever starved


def _buggy_answer(batch, results):
    for (_, done, _), result in zip(batch, reversed(results)):  # BUG
        done(result)


def _patch_sites(mutant: str) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) triples for one mutant.

    Patches land on every module that bound the original name at import
    time, exactly where the bug would live had it been committed.
    """
    from repro.analysis import boundary as boundary_mod
    from repro.analysis import bounds as bounds_mod
    from repro.analysis import pdp as pdp_mod
    from repro.analysis import sba as sba_mod
    from repro.analysis import ttp as ttp_mod
    from repro.network import frames as frames_mod
    from repro.sim import fastpath as fastpath_mod

    if mutant == "boundary_absolute_epsilon":
        return [
            (boundary_mod, "token_visit_count", _buggy_token_visit_count),
            (ttp_mod, "token_visit_count", _buggy_token_visit_count),
            (sba_mod, "token_visit_count", _buggy_token_visit_count),
            (bounds_mod, "token_visit_count", _buggy_token_visit_count),
        ]
    if mutant == "pdp_short_frame_dropped":
        return [
            (pdp_mod, "pdp_augmented_length", _buggy_pdp_augmented_length),
            (pdp_mod, "pdp_augmented_lengths", _buggy_pdp_augmented_lengths),
        ]
    if mutant == "ttp_budget_off_by_one":
        return [
            (ttp_mod, "local_scheme_allocation", _buggy_local_scheme_allocation)
        ]
    if mutant == "split_counts_overshoot":
        return [
            (frames_mod.FrameFormat, "split_counts", _buggy_split_counts)
        ]
    if mutant == "pdp_fastpath_short_frame":
        return [
            (fastpath_mod, "_short_frame_occupancy", _buggy_short_frame_occupancy)
        ]
    if mutant == "decision_key_stale_base":
        from repro.admission import AdmissionController

        return [(AdmissionController, "release", _buggy_release)]
    if mutant == "admission_snapshot_stale":
        from repro.admission import AdmissionController

        return [(AdmissionController, "release", _buggy_release_stale_snapshot)]
    if mutant == "admission_group_sum_stale":
        return [
            (
                pdp_mod.PDPPopulation,
                "remove",
                _buggy_population_remove(pdp_mod.PDPPopulation.remove),
            )
        ]
    if mutant == "admission_exact_bound_dropped":
        from repro.admission import AdmissionController

        return [
            (
                AdmissionController,
                "_exact_test_too_large",
                _buggy_exact_test_too_large,
            )
        ]
    if mutant == "rm_kernel_key_by_count":
        return [(pdp_mod, "_distinct_key", _buggy_distinct_key)]
    if mutant == "fault_recovery_swallowed":
        from repro.faults import injector as faults_injector_mod

        return [(faults_injector_mod, "_stall_cost", _buggy_stall_cost)]
    if mutant == "router_stale_lease":
        from repro.cluster import budget as cluster_budget_mod

        return [(cluster_budget_mod, "_grantable", _buggy_grantable)]
    if mutant == "rm_prefix_cut_overrun":
        from repro.analysis import rm as rm_mod

        return [
            (rm_mod, "_union_points", _buggy_union_points(rm_mod._union_points))
        ]
    if mutant == "rm_event_count_off_by_one":
        from repro.analysis import rm as rm_mod

        return [(rm_mod, "_event_table", _buggy_event_table(rm_mod._event_table))]
    if mutant == "rm_details_group_prefix":
        from repro.analysis import rm as rm_mod

        return [
            (
                rm_mod.ExactRMTest,
                "_load_ratios",
                _buggy_load_ratios(rm_mod.ExactRMTest._load_ratios),
            )
        ]
    if mutant == "breakdown_lockstep_bracket":
        from repro.analysis import breakdown as breakdown_mod

        return [(breakdown_mod, "_bracket", _buggy_bracket(breakdown_mod._bracket))]
    if mutant == "breakdown_far_edge_evaluations":
        from repro.analysis import breakdown as breakdown_mod

        return [
            (breakdown_mod, "_far_edges", _buggy_far_edges(breakdown_mod._far_edges))
        ]
    if mutant == "ttp_batch_starved_rows_kept":
        from repro.analysis import ttrt as ttrt_mod

        return [(ttrt_mod, "_visit_starved", _buggy_visit_starved)]
    if mutant == "batcher_batch_reordered":
        from repro.service import batcher as batcher_mod

        return [(batcher_mod, "_answer", _buggy_answer)]
    raise KeyError(mutant)


MUTANTS: tuple[str, ...] = (
    "boundary_absolute_epsilon",
    "pdp_short_frame_dropped",
    "ttp_budget_off_by_one",
    "split_counts_overshoot",
    "pdp_fastpath_short_frame",
    "decision_key_stale_base",
    "admission_snapshot_stale",
    "admission_group_sum_stale",
    "admission_exact_bound_dropped",
    "rm_kernel_key_by_count",
    "fault_recovery_swallowed",
    "router_stale_lease",
    "rm_prefix_cut_overrun",
    "rm_event_count_off_by_one",
    "rm_details_group_prefix",
    "breakdown_lockstep_bracket",
    "breakdown_far_edge_evaluations",
    "ttp_batch_starved_rows_kept",
    "batcher_batch_reordered",
)


@contextlib.contextmanager
def inject_mutant(mutant: str):
    """Apply one deliberate bug for the duration of the context.

    A mutant changes results without changing inputs, so no cached row
    may cross the boundary in either direction.  The result cache's
    memory layer is dropped on entry *and* exit, and the mutant runs
    against a detached memory-only cache: a row a clean run persisted
    to disk never answers for it, and nothing it computes is persisted.
    """
    from repro import cache as cache_mod

    sites = _patch_sites(mutant)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in sites]
    cache_mod.clear()
    try:
        with cache_mod.detached():
            for owner, attr, replacement in sites:
                setattr(owner, attr, replacement)
            yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        cache_mod.clear()


# -- the smoke run --------------------------------------------------------------


@dataclass
class MutationReport:
    """Detection outcome per mutant."""

    seed: int
    n_cases: int
    detected: dict[str, bool] = field(default_factory=dict)
    fired_checks: dict[str, tuple[str, ...]] = field(default_factory=dict)
    reports: dict[str, FuzzReport] = field(default_factory=dict)

    @property
    def all_detected(self) -> bool:
        return bool(self.detected) and all(self.detected.values())

    def summary(self) -> str:
        """Per-mutant verdict table with the properties that fired."""
        lines = [
            f"mutation smoke (seed={self.seed}, {self.n_cases} cases/mutant): "
            f"{sum(self.detected.values())}/{len(self.detected)} mutants detected"
        ]
        for mutant in self.detected:
            verdict = "DETECTED" if self.detected[mutant] else "MISSED"
            via = ", ".join(self.fired_checks[mutant]) or "-"
            lines.append(f"  {verdict:<8}  {mutant}  (via: {via})")
        return "\n".join(lines)


def run_mutation_smoke(
    seed: int = 20_260_704, n_cases: int = 18
) -> MutationReport:
    """Inject each mutant and assert the fuzz harness notices.

    The campaign per mutant is short (shrinking is disabled — detection,
    not minimization, is the question) but runs the *full* property set,
    including the simulators, under the same deterministic case stream a
    real campaign would see.
    """
    log = obslog.get_logger("verify.mutation")
    report = MutationReport(seed=seed, n_cases=n_cases)
    for mutant in MUTANTS:
        with inject_mutant(mutant):
            fuzz = run_fuzz(
                FuzzConfig(
                    seed=seed, n_cases=n_cases, shrink=False, max_violations=1
                )
            )
        fired = tuple(sorted({v.check for v in fuzz.violations}))
        report.detected[mutant] = not fuzz.ok
        report.fired_checks[mutant] = fired
        report.reports[mutant] = fuzz
        log.info(
            "mutant %s: %s", mutant,
            "detected via " + ", ".join(fired) if fired else "MISSED",
            extra={"mutant": mutant, "detected": not fuzz.ok},
        )
    return report
