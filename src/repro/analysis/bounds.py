"""Sufficient utilization bounds — the run-time administration rules.

Section 2 of the paper motivates *minimum breakdown utilization*: below
that load threshold no schedulability test is needed at admission time.
This module provides the closed-form sufficient bounds for both protocols:

* :func:`ttp_guaranteed_utilization` — the 33%-style bound for the timed
  token protocol with the local allocation scheme.  Derivation: with
  ``q_i = floor(P_i/TTRT) >= 2`` we have ``P_i > q_i·TTRT`` hence
  ``C_i/(q_i-1) < U_i·P_i/(q_i-1) <= U_i·TTRT·(q_i+1)/(q_i-1)
  <= 3·U_i·TTRT`` (the factor ``(q+1)/(q-1)`` peaks at 3 for ``q = 2``).
  Theorem 5.1 therefore holds whenever

      ``U <= (TTRT - δ - n·F_ovhd) / (3·TTRT)``

  which approaches the literature's 33% as the overheads vanish.

* :func:`pdp_guaranteed_utilization` — a Liu–Layland-style bound for the
  priority driven protocol: the exact test of Theorem 4.1 passes whenever
  the *augmented* utilization plus the blocking share is below the LL
  bound,

      ``Σ C'_i / P_i + B / P_min <= n (2^{1/n} - 1)``.

  Because ``C'_i`` is not linear in ``C_i`` (frame quantization, the Θ
  floor on the last frame), this is exposed as a *test* over a concrete
  message set rather than a single pure number; the corresponding scalar
  administration threshold comes from
  :func:`pdp_guaranteed_utilization` with a per-message overhead model.

Both bounds are strictly sufficient: property tests verify they imply the
exact criteria, never the converse.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.boundary import token_visit_count
from repro.analysis.pdp import PDPAnalysis
from repro.analysis.rm import liu_layland_bound
from repro.analysis.ttp import TTPAnalysis
from repro.errors import ConfigurationError
from repro.messages.message_set import MessageSet

__all__ = [
    "ttp_guaranteed_utilization",
    "pdp_augmented_utilization",
    "pdp_sufficient_test",
    "GuaranteeReport",
]


def ttp_guaranteed_utilization(
    ttrt_s: float,
    delta_s: float,
    n_streams: int,
    frame_overhead_time_s: float,
) -> float:
    """The sufficient utilization threshold for Theorem 5.1.

    Any message set with ``q_i >= 2`` for all streams and utilization at or
    below the returned value is schedulable under the local scheme at
    ``ttrt_s``.  Returns 0 when overheads already exhaust the rotation
    (then nothing can be guaranteed without a per-set test).
    """
    if ttrt_s <= 0:
        raise ConfigurationError(f"TTRT must be positive, got {ttrt_s!r}")
    if delta_s < 0 or frame_overhead_time_s < 0:
        raise ConfigurationError("overheads must be non-negative")
    if n_streams < 0:
        raise ConfigurationError(f"stream count must be non-negative, got {n_streams!r}")
    budget = ttrt_s - delta_s - n_streams * frame_overhead_time_s
    if budget <= 0:
        return 0.0
    return budget / (3.0 * ttrt_s)


def pdp_augmented_utilization(
    analysis: PDPAnalysis, message_set: MessageSet
) -> float:
    """``Σ C'_i / P_i``: the utilization of the augmented message lengths."""
    ordered = message_set.rate_monotonic()
    lengths = analysis.augmented_lengths(ordered)
    # Python floats: a subnormal period gives an ``inf`` share (a load
    # no threshold admits) without numpy's overflow warning.
    return float(
        sum(c / p for c, p in zip(lengths.tolist(), ordered.periods))
    )


@dataclass(frozen=True)
class GuaranteeReport:
    """Outcome of a sufficient (utilization-based) admission test.

    Attributes:
        admitted: the sufficient condition holds — schedulability is
            guaranteed without running the exact test.
        load: the measured load term (augmented utilization + blocking
            share for the PDP; plain utilization for the TTP).
        threshold: the bound the load was compared against.
    """

    admitted: bool
    load: float
    threshold: float

    @property
    def margin(self) -> float:
        """``threshold - load``; positive iff admitted."""
        return self.threshold - self.load


def pdp_sufficient_test(
    analysis: PDPAnalysis, message_set: MessageSet
) -> GuaranteeReport:
    """Liu–Layland-style sufficient admission test for Theorem 4.1.

    Admits when ``Σ C'_i/P_i + B/P_min <= (n+1)(2^{1/(n+1)} - 1)``.
    Sound because the blocking term is modelled as a virtual
    highest-priority task of cost ``B`` and period ``P_min`` — its
    interference ``ceil(t/P_min)·B >= B`` dominates the real blocking in
    every stream's equation-(4) demand — and the LL bound for the
    ``n + 1``-task system then implies the exact test passes.
    """
    if len(message_set) == 0:
        return GuaranteeReport(admitted=True, load=0.0, threshold=1.0)
    augmented = pdp_augmented_utilization(analysis, message_set)
    load = augmented + analysis.blocking / message_set.min_period
    threshold = liu_layland_bound(len(message_set) + 1)
    return GuaranteeReport(
        admitted=load <= threshold, load=load, threshold=threshold
    )


def ttp_sufficient_test(
    analysis: TTPAnalysis, message_set: MessageSet
) -> GuaranteeReport:
    """The 33%-style sufficient admission test for Theorem 5.1.

    Admits when the set's plain utilization is at or below
    :func:`ttp_guaranteed_utilization` *and* every period supports at
    least two token visits at the policy-selected TTRT.
    """
    if len(message_set) == 0:
        return GuaranteeReport(admitted=True, load=0.0, threshold=1.0)
    ttrt = analysis.select_ttrt(message_set)
    threshold = ttp_guaranteed_utilization(
        ttrt, analysis.delta, len(message_set), analysis.frame_overhead_time
    )
    load = message_set.utilization(analysis.ring.bandwidth_bps)
    feasible = all(
        token_visit_count(p, ttrt) >= 2 for p in message_set.periods
    )
    return GuaranteeReport(
        admitted=feasible and load <= threshold,
        load=load,
        threshold=threshold if feasible else 0.0,
    )
