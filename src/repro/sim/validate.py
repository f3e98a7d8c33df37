"""Cross-validation between the analyses and the simulators.

The schedulability criteria are *sufficient*: a set they accept must never
miss a deadline, under any phasing and any asynchronous interference.  The
functions here run the matching simulator under adversarial conditions
(critical-instant phasing, saturating asynchronous traffic) and check that
direction.  The converse direction (sets the analysis rejects *may* still
survive a particular simulation) is reported but never asserted — the
tests are not necessary conditions.

Horizon selection
-----------------
A fixed ``4 × P_max`` run can end before a long-period stream's later
invocations are exercised — under offset phasing the interesting
beat patterns between periods only repeat at the **hyperperiod**
(the LCM of the periods).  :func:`default_validation_horizon` therefore
extends the requested minimum to a whole number of hyperperiods (plus one
``P_max`` of margin so the final invocations' deadlines fall inside the
run) whenever the hyperperiod is rationally representable and the result
stays under the documented cap of :data:`HORIZON_CAP_PERIODS` ×
``P_max``; randomly drawn float periods have astronomically large
hyperperiods, and those runs simply use the requested minimum.

Coverage accounting
-------------------
Every cross-validation additionally *asserts* that the simulator
accounted at least the expected number of invocations per stream — the
number of releases whose deadlines fall inside the run.  A shortfall
means the simulator dropped messages (a harness bug, not a protocol
result) and raises :class:`~repro.errors.SimulationError` rather than
reporting a vacuous "no misses".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from repro.analysis.pdp import PDPAnalysis
from repro.analysis.ttp import TTPAnalysis
from repro.errors import SimulationError
from repro.messages.message_set import MessageSet
from repro.obs import logging as obslog
from repro.sim.pdp_sim import PDPRingSimulator, PDPSimConfig, TokenWalkModel
from repro.sim.trace import SimulationReport
from repro.sim.traffic import ArrivalPhasing, SynchronousTraffic
from repro.sim.ttp_sim import TTPRingSimulator, TTPSimConfig

__all__ = [
    "HORIZON_CAP_PERIODS",
    "CrossValidation",
    "default_validation_horizon",
    "expected_invocations",
    "cross_validate_pdp",
    "cross_validate_ttp",
]

#: Hard cap on the validation horizon, in units of ``P_max``.  Keeps the
#: hyperperiod extension from turning a spot check into an unbounded run
#: (e.g. periods 97 ms and 101 ms → hyperperiod 9.797 s ≈ 97 P_max).
HORIZON_CAP_PERIODS = 64.0


#: Memo for :func:`_rational_hyperperiod` — the LCM reduction walks every
#: period through ``Fraction.limit_denominator`` and ``math.lcm``, which is
#: pure arithmetic on the period tuple, yet every cross-validation call used
#: to recompute it from scratch (hundreds of times per fuzz round on the
#: same message sets).  Bounded so pathological callers cannot grow it
#: without limit; eviction is insertion-ordered, which is LRU-enough here.
_HYPERPERIOD_MEMO: dict[tuple, float | None] = {}
_HYPERPERIOD_MEMO_LIMIT = 4096

_LOG = obslog.get_logger("sim.validate")

#: Period tuples whose capped horizon has already been warned about, so a
#: fuzz round re-validating the same pathological set does not spam the log.
_CAP_WARNED: set[tuple] = set()


def _rational_hyperperiod(
    periods: Sequence[float], max_denominator: int = 1_000_000
) -> float | None:
    """The LCM of the periods as exact rationals, or None.

    Returns None when some period is not (near-)exactly a small rational
    — the usual case for randomly drawn floats — or when the LCM blows
    up beyond any useful horizon.  Memoised on the *distinct* period
    values: the LCM is invariant under duplicates and order, and large
    sets draw from a small period catalogue, so deduplicating first
    turns an ``O(n)`` Fraction walk (the quadratic tail of validating a
    10^5-stream set, via the per-stream limit_denominator cost) into an
    ``O(m)`` one with ``m`` distinct periods.
    """
    distinct = tuple(sorted(set(float(p) for p in periods)))
    memo_key = (distinct, max_denominator)
    try:
        return _HYPERPERIOD_MEMO[memo_key]
    except KeyError:
        pass
    result = _rational_hyperperiod_uncached(distinct, max_denominator)
    if len(_HYPERPERIOD_MEMO) >= _HYPERPERIOD_MEMO_LIMIT:
        _HYPERPERIOD_MEMO.pop(next(iter(_HYPERPERIOD_MEMO)))
    _HYPERPERIOD_MEMO[memo_key] = result
    return result


def _rational_hyperperiod_uncached(
    periods: Sequence[float], max_denominator: int = 1_000_000
) -> float | None:
    fractions: list[Fraction] = []
    for period in periods:
        approx = Fraction(period).limit_denominator(max_denominator)
        if approx <= 0 or abs(float(approx) - period) > 1e-12 * period:
            return None
        fractions.append(approx)
    denominator = math.lcm(*(f.denominator for f in fractions))
    if denominator > 10**15:
        # Near-co-prime denominators: the common-denominator rewrite below
        # would manipulate astronomically large integers for a hyperperiod
        # that cannot be simulated anyway.  Treat as irrational.
        return None
    numerator = 1
    # Keep the overflow guard in exact integer arithmetic: with float
    # multiplication (`denominator * 1e9`) a big-int denominator overflows
    # the float range and the comparison itself raised OverflowError for
    # pathological co-prime period sets.
    limit = denominator * 10**9
    for f in fractions:
        numerator = math.lcm(numerator, f.numerator * (denominator // f.denominator))
        if numerator > limit:  # hopelessly long; treat as irrational
            return None
    return numerator / denominator


def default_validation_horizon(
    message_set: MessageSet, min_periods: float = 4.0
) -> float:
    """A run length that exercises every stream's later invocations.

    At least ``min_periods × P_max``; extended to a whole number of
    hyperperiods plus one ``P_max`` of deadline margin when the
    hyperperiod is representable, capped at
    ``HORIZON_CAP_PERIODS × P_max`` (documented above).
    """
    p_max = message_set.max_period
    base = min_periods * p_max
    cap = HORIZON_CAP_PERIODS * p_max
    hyper = _rational_hyperperiod(message_set.periods)
    if hyper is not None and hyper <= cap:
        cycles = max(1, math.ceil(base / hyper))
        return min(cycles * hyper + p_max, cap)
    if hyper is not None:
        # Near-co-prime periods: covering one hyperperiod would dwarf any
        # practical run, so the horizon is capped — loudly, once per period
        # tuple, because a capped run no longer covers every beat pattern.
        key = tuple(message_set.periods)
        if key not in _CAP_WARNED:
            if len(_CAP_WARNED) >= _HYPERPERIOD_MEMO_LIMIT:
                _CAP_WARNED.clear()
            _CAP_WARNED.add(key)
            _LOG.warning(
                "hyperperiod %.6g s exceeds the validation horizon cap "
                "%.6g s (%g periods); capping the run instead of simulating "
                "the full hyperperiod",
                hyper, cap, HORIZON_CAP_PERIODS,
                extra={"hyperperiod_s": hyper, "cap_s": cap},
            )
    return min(base, cap)


def _default_duration(message_set: MessageSet, periods: float) -> float:
    """Backwards-compatible alias used by the cross-validators."""
    return default_validation_horizon(message_set, periods)


def expected_invocations(
    message_set: MessageSet,
    duration_s: float,
    phasing: ArrivalPhasing = ArrivalPhasing.SIMULTANEOUS,
    phasing_seed: int = 0,
) -> tuple[int, ...]:
    """Releases per stream whose deadlines fall inside ``duration_s``.

    Replays the exact float accumulation of
    :meth:`repro.sim.traffic.SynchronousTraffic.arrivals_until` so the
    counts match the simulator's release schedule bit for bit.
    """
    traffic = SynchronousTraffic(message_set, phasing, phasing_seed)
    offsets = traffic.offsets()
    counts: list[int] = []
    for offset, stream in zip(offsets, message_set):
        t, count = offset, 0
        while t < duration_s:
            if t + stream.period_s <= duration_s:
                count += 1
            t += stream.period_s
        counts.append(count)
    return tuple(counts)


def _assert_coverage(
    report: SimulationReport, expected: tuple[int, ...]
) -> None:
    """Every in-horizon invocation must have been accounted by the sim."""
    for stats, want in zip(report.streams, expected):
        accounted = stats.completed + stats.missed
        if accounted < want:
            raise SimulationError(
                f"stream {stats.stream_index} accounted only {accounted} "
                f"invocations of the {want} whose deadlines fall inside "
                f"the {report.duration!r}s run; the simulator dropped "
                "messages"
            )


@dataclass(frozen=True)
class CrossValidation:
    """Outcome of one analysis-versus-simulation comparison.

    Attributes:
        analysis_schedulable: the theorem's verdict.
        report: the simulation run's statistics.
        expected_invocations: per-stream release counts whose deadlines
            fall inside the run (empty when nothing was simulated); the
            simulator is asserted to have accounted at least this many.
        consistent: False only in the genuine failure mode — the analysis
            accepted the set but the simulator missed a deadline.
    """

    analysis_schedulable: bool
    report: SimulationReport
    expected_invocations: tuple[int, ...] = field(default=())

    @property
    def consistent(self) -> bool:
        """True unless an analysis-accepted set missed a deadline in sim."""
        return not (self.analysis_schedulable and not self.report.deadline_safe)


def cross_validate_pdp(
    analysis: PDPAnalysis,
    message_set: MessageSet,
    duration_periods: float = 4.0,
    phasing: ArrivalPhasing = ArrivalPhasing.SIMULTANEOUS,
) -> CrossValidation:
    """Check Theorem 4.1 against the PDP simulator.

    The simulator is configured with the ``AVERAGE`` token-walk model —
    the ``Θ/2`` expected token cost the theorem itself assumes — plus
    saturating asynchronous traffic and (by default) critical-instant
    phasing.  ``duration_periods`` is the *minimum* horizon in units of
    ``P_max``; see :func:`default_validation_horizon`.
    """
    schedulable = analysis.is_schedulable(message_set)
    config = PDPSimConfig(
        variant=analysis.variant,
        phasing=phasing,
        async_saturating=True,
        token_walk=TokenWalkModel.AVERAGE,
    )
    duration = default_validation_horizon(message_set, duration_periods)
    report = PDPRingSimulator(
        analysis.ring, analysis.frame, message_set, config
    ).run(duration)
    expected = expected_invocations(message_set, duration, phasing)
    _assert_coverage(report, expected)
    return CrossValidation(
        analysis_schedulable=schedulable,
        report=report,
        expected_invocations=expected,
    )


def cross_validate_ttp(
    analysis: TTPAnalysis,
    message_set: MessageSet,
    duration_periods: float = 4.0,
    phasing: ArrivalPhasing = ArrivalPhasing.SIMULTANEOUS,
) -> CrossValidation:
    """Check Theorem 5.1 against the TTP simulator.

    Runs the simulator with the exact allocation the analysis certified
    (when one exists) under saturating asynchronous traffic.  An
    unallocatable set (``q_i < 2``) is reported as analysis-unschedulable
    with a zero-length report, since there is no allocation to simulate.
    ``duration_periods`` is the *minimum* horizon in units of ``P_max``;
    see :func:`default_validation_horizon`.
    """
    result = analysis.analyze(message_set)
    if result.allocation is None:
        return CrossValidation(
            analysis_schedulable=result.schedulable,
            report=SimulationReport(duration=0.0),
        )
    config = TTPSimConfig(phasing=phasing, async_saturating=True)
    duration = default_validation_horizon(message_set, duration_periods)
    report = TTPRingSimulator(
        analysis.ring, analysis.frame, message_set, result.allocation, config
    ).run(duration)
    expected = expected_invocations(message_set, duration, phasing)
    _assert_coverage(report, expected)
    return CrossValidation(
        analysis_schedulable=result.schedulable,
        report=report,
        expected_invocations=expected,
    )
