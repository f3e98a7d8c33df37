"""Random message-set generation for the Monte Carlo study (Section 6).

The paper draws message periods from a uniform distribution parameterized
by the *average period* and the *maximum-to-minimum period ratio* (100 ms
and 10 for the reported experiments).  Payload lengths are drawn uniformly
and then rescaled to the saturation boundary by the breakdown machinery, so
only their relative proportions matter here.

All sampling goes through :class:`numpy.random.Generator` instances so that
every experiment is reproducible from a single seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream

__all__ = [
    "PeriodDistribution",
    "uniform_period_bounds",
    "MessageSetSampler",
    "uniform_payload_weights",
    "equal_payload_weights",
    "period_proportional_payload_weights",
]


def uniform_period_bounds(mean_period_s: float, ratio: float) -> tuple[float, float]:
    """Bounds ``(P_min, P_max)`` of the uniform period distribution.

    Solves ``(P_min + P_max) / 2 = mean`` and ``P_max / P_min = ratio``:

        ``P_min = 2 * mean / (1 + ratio)``, ``P_max = ratio * P_min``.
    """
    if mean_period_s <= 0:
        raise ConfigurationError(
            f"mean period must be positive, got {mean_period_s!r}"
        )
    if ratio < 1:
        raise ConfigurationError(
            f"max/min period ratio must be >= 1, got {ratio!r}"
        )
    p_min = 2.0 * mean_period_s / (1.0 + ratio)
    return p_min, ratio * p_min


@dataclass(frozen=True)
class PeriodDistribution:
    """Uniform period distribution in the paper's parameterization.

    Attributes:
        mean_period_s: average period (100 ms in the reported runs).
        ratio: maximum-to-minimum period ratio (10 in the reported runs).
            A ratio of exactly 1 degenerates to equal periods, which is the
            special case the paper uses to derive the sqrt TTRT rule.
    """

    mean_period_s: float
    ratio: float

    def __post_init__(self) -> None:
        # Validation happens inside uniform_period_bounds; call it for effect.
        uniform_period_bounds(self.mean_period_s, self.ratio)

    @property
    def bounds(self) -> tuple[float, float]:
        """``(P_min, P_max)`` of the distribution."""
        return uniform_period_bounds(self.mean_period_s, self.ratio)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` periods, in seconds."""
        low, high = self.bounds
        if low == high:
            return np.full(n, low)
        return rng.uniform(low, high, size=n)


# ---------------------------------------------------------------------------
# Payload weight laws
# ---------------------------------------------------------------------------
# A weight law maps (rng, periods) -> relative payload weights.  Absolute
# scale is irrelevant: the breakdown search rescales to saturation.

PayloadWeightLaw = Callable[[np.random.Generator, np.ndarray], np.ndarray]


def uniform_payload_weights(
    rng: np.random.Generator, periods: np.ndarray
) -> np.ndarray:
    """I.i.d. uniform(0, 1] weights — the Lehoczky/Sha/Ding methodology.

    The open-at-zero interval avoids degenerate zero-length streams, which
    would otherwise contribute nothing yet occupy a station.
    """
    return 1.0 - rng.uniform(0.0, 1.0, size=periods.shape[0])


def equal_payload_weights(
    rng: np.random.Generator, periods: np.ndarray
) -> np.ndarray:
    """All streams equally long (a common stress pattern for TTP)."""
    return np.ones(periods.shape[0])


def period_proportional_payload_weights(
    rng: np.random.Generator, periods: np.ndarray
) -> np.ndarray:
    """Payloads proportional to periods: every stream has equal utilization."""
    return np.asarray(periods, dtype=float).copy()


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MessageSetSampler:
    """Draws random message sets for Monte Carlo experiments.

    One stream is generated per station (the paper's model has exactly one
    synchronous stream per node).  Payloads are produced by ``weight_law``
    and then scaled so the set's *bit-level* utilization-per-second is
    numerically tame; the absolute scale is irrelevant because the
    breakdown search normalizes it away.

    Attributes:
        n_streams: number of streams (= stations carrying synchronous load).
        periods: the period distribution.
        weight_law: relative payload law (defaults to uniform weights).
        reference_payload_bits: scale applied to the unit-mean weights so
            generated sets have human-readable payload sizes.
    """

    n_streams: int
    periods: PeriodDistribution
    weight_law: PayloadWeightLaw = uniform_payload_weights
    reference_payload_bits: float = 8_000.0

    def __post_init__(self) -> None:
        if self.n_streams < 1:
            raise ConfigurationError(
                f"need at least one stream, got {self.n_streams!r}"
            )
        if self.reference_payload_bits <= 0:
            raise ConfigurationError(
                "reference payload must be positive, "
                f"got {self.reference_payload_bits!r}"
            )

    def _draw_payloads(
        self, rng: np.random.Generator, periods: np.ndarray
    ) -> np.ndarray:
        """Payload lengths for already-drawn periods (weight-law draw)."""
        weights = np.asarray(self.weight_law(rng, periods), dtype=float)
        if weights.shape != periods.shape:
            raise ConfigurationError(
                "weight law returned wrong shape: "
                f"{weights.shape} for {periods.shape}"
            )
        if np.any(weights < 0):
            raise ConfigurationError("weight law produced negative payloads")
        mean_weight = float(np.mean(weights)) or 1.0
        return weights / mean_weight * self.reference_payload_bits

    @staticmethod
    def _assemble(periods: np.ndarray, payloads: np.ndarray) -> MessageSet:
        return MessageSet(
            SynchronousStream(
                period_s=float(p), payload_bits=float(c), station=i
            )
            for i, (p, c) in enumerate(zip(periods, payloads))
        )

    def sample(self, rng: np.random.Generator) -> MessageSet:
        """Draw one message set, stations numbered 0..n-1."""
        periods = self.periods.sample(rng, self.n_streams)
        payloads = self._draw_payloads(rng, periods)
        return self._assemble(periods, payloads)

    def sample_many(
        self, rng: np.random.Generator, count: int
    ) -> list[MessageSet]:
        """Draw ``count`` independent message sets."""
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count!r}")
        return [self.sample(rng) for _ in range(count)]

    def sample_many_stratified(
        self,
        rng: np.random.Generator,
        count: int,
        *,
        strata: int = 1,
    ) -> list[MessageSet]:
        """Draw ``count`` sets with optional period stratification.

        With ``strata == 1`` this is *exactly* :meth:`sample_many` — same
        generator consumption, bit-identical sets — so the streaming
        estimator's plain mode matches the fixed-N path sample for sample.

        ``strata = S > 1`` applies Latin-hypercube stratification to the
        *periods*: sets are produced in rounds of ``S``, and within a
        round every stream coordinate visits each of the ``S`` equal
        period sub-intervals exactly once (a fresh random permutation per
        coordinate keeps coordinates independent).  Each marginal period
        sample is still exactly Uniform(P_min, P_max), so the estimator
        stays unbiased while the period-driven variance component shrinks.

        Rounds are truncated to ``count`` sets; pass a ``count`` that is a
        multiple of ``strata`` to keep whole rounds.
        """
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count!r}")
        if strata < 1:
            raise ConfigurationError(f"strata must be >= 1, got {strata!r}")
        if strata == 1:
            return [self.sample(rng) for _ in range(count)]
        low, high = self.periods.bounds
        span = high - low
        sets: list[MessageSet] = []
        while len(sets) < count:
            # One Latin-hypercube round: u[k, j] lands base set k's stream
            # j in a distinct stratum per coordinate.
            offsets = rng.random((strata, self.n_streams))
            lanes = np.tile(
                np.arange(strata, dtype=float)[:, None], (1, self.n_streams)
            )
            u = (rng.permuted(lanes, axis=0) + offsets) / strata
            for k in range(strata):
                if span == 0.0:
                    periods = np.full(self.n_streams, low)
                else:
                    periods = low + span * u[k]
                payloads = self._draw_payloads(rng, periods)
                sets.append(self._assemble(periods, payloads))
                if len(sets) >= count:
                    break
        return sets[:count]
