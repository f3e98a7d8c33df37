"""The union-point exact test against the stacked layout it replaced.

:class:`~repro.analysis.rm.ExactRMTest` stores every stream's scheduling
points ``R_i`` as a prefix of one union ``T``.  The reference below is
the earlier construction, kept verbatim: one stacked demand-matrix
segment per stream, built by a per-group loop over the distinct periods.
Its points must match the prefix layout bit for bit on the period
families that stress the float tolerances — paper-style uniform draws,
harmonic catalogues whose multiples collide, and near-equal periods one
ulp apart — its stacked mat-vec must give the same verdicts, and the
period multiples each union point counts must equal its coefficients.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.rm import ExactRMTest


def _stacked_structure(periods):
    """The stacked builder (test-only reference): per-stream row
    segments with ``ceil(t/P_j)`` coefficients and an exact 1 in each
    stream's own column."""
    periods = np.asarray(periods, dtype=float)
    n = periods.size
    distinct, inverse = np.unique(periods, return_inverse=True)
    group_counts = np.bincount(inverse, minlength=distinct.size)
    offsets = np.concatenate(([0], np.cumsum(group_counts)))
    group_points: list[np.ndarray] = []
    group_coef: list[np.ndarray] = []
    for t, d_t in enumerate(distinct):
        multiples = [
            d_u * np.arange(1, int(np.floor(d_t / d_u + 1e-12)) + 1)
            for d_u in distinct[: t + 1]
        ]
        pts = np.unique(np.concatenate(multiples))
        group_points.append(pts)
        group_coef.append(
            np.ceil(pts[:, None] / distinct[None, : t + 1] - 1e-9)
        )
    segments = [group_points[t] for t in inverse]
    counts = np.array([s.size for s in segments], dtype=np.intp)
    starts = np.zeros(n, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    flat_points = np.concatenate(segments)
    matrix = np.zeros((flat_points.size, n))
    for t in range(distinct.size):
        pts = group_points[t]
        coef = group_coef[t]
        before = np.repeat(coef[:, :t], group_counts[:t], axis=1)
        own = coef[:, t]
        for g in range(group_counts[t]):
            i = offsets[t] + g
            rows = slice(starts[i], starts[i] + pts.size)
            if t > 0:
                matrix[rows, : offsets[t]] = before
            if g > 0:
                matrix[rows, offsets[t]: i] = own[:, None]
            matrix[rows, i] = 1.0
    return starts, flat_points, matrix


def _stacked_points(periods, index):
    starts, flat_points, _ = _stacked_structure(periods)
    end = starts[index + 1] if index + 1 < starts.size else flat_points.size
    return flat_points[starts[index]:end]


def _stacked_verdict(structure, costs, blocking):
    starts, flat_points, matrix = structure
    demand = matrix @ costs + blocking
    ok = demand <= flat_points * (1.0 + 1e-12)
    return bool(np.logical_or.reduceat(ok, starts).all())


def _paper_uniform(rng):
    # The Monte Carlo study's draw: uniform, mean 100 ms, max/min ratio 10.
    return np.sort(rng.uniform(0.2 / 11.0, 2.0 / 11.0, size=int(rng.integers(2, 40))))


def _harmonic(rng):
    catalogue = np.array([0.01, 0.02, 0.03, 0.04, 0.06, 0.07, 0.1, 0.12])
    chosen = catalogue[rng.integers(0, catalogue.size, size=int(rng.integers(2, 30)))]
    return np.sort(chosen)


def _near_equal(rng):
    # One-ulp neighbours and computed multiples: 0.03, its successor and
    # 0.01*3; 0.3, its successor and 0.1*3 (which rounds one ulp above
    # 0.3), so a multiple can land on, or just past, another period.
    pool = np.array(
        [
            0.01,
            0.02,
            0.03,
            np.nextafter(0.03, 1.0),
            0.01 * 3,
            0.1,
            0.3,
            np.nextafter(0.3, 1.0),
            0.1 * 3,
        ]
    )
    chosen = pool[rng.integers(0, pool.size, size=int(rng.integers(2, 16)))]
    return np.sort(chosen)


FAMILIES = {
    "paper_uniform": _paper_uniform,
    "harmonic": _harmonic,
    "near_equal": _near_equal,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scheduling_points_bitwise_equal_to_stacked_builder(family):
    rng = np.random.default_rng(20260704)
    for _ in range(40):
        periods = FAMILIES[family](rng)
        test = ExactRMTest(periods)
        starts, flat_points, _ = _stacked_structure(periods)
        for i in range(periods.size):
            end = starts[i + 1] if i + 1 < periods.size else flat_points.size
            expected = flat_points[starts[i]:end]
            got = test.scheduling_points(i)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes(), (family, periods.tolist(), i)


def test_non_prefix_tolerance_band():
    """A later period inside an earlier group's tolerance band.  With
    ``d = 0.01*3`` less two ulps, ``R`` of ``d`` reaches ``0.01*3`` (its
    ``floor(d/0.01 + 1e-12)`` is 3), while the period one ulp below
    ``0.01*3`` lies between them and belongs to a later group only."""
    upper = 0.01 * 3
    between = np.nextafter(upper, 0.0)
    lower = np.nextafter(between, 0.0)
    periods = np.array([0.01, lower, between])
    test = ExactRMTest(periods)
    assert upper in test.scheduling_points(1)
    assert between not in test.scheduling_points(1)
    for i in range(periods.size):
        assert test.scheduling_points(i).tobytes() == _stacked_points(
            periods, i
        ).tobytes()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_verdicts_match_stacked_matvec(family):
    rng = np.random.default_rng(7)
    for _ in range(30):
        periods = FAMILIES[family](rng)
        test = ExactRMTest(periods)
        structure = _stacked_structure(periods)
        blocking = float(rng.choice([0.0, 1e-4]))
        for load in np.linspace(0.3, 1.2, 12):
            shares = rng.uniform(0.05, 1.0, size=periods.size)
            costs = shares / shares.sum() * load * periods
            assert test.is_schedulable(costs, blocking) == _stacked_verdict(
                structure, costs, blocking
            )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_event_counts_equal_ceil_coefficients(family):
    """Every point counts exactly ``ceil(t/d_u - 1e-9) - 1`` multiples of
    each distinct period ``d_u``: the coefficients the stacked matrix
    holds, less each group's own first instance."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        periods = FAMILIES[family](rng)
        distinct = np.unique(periods)
        kernel = ExactRMTest(periods)._kernel
        coef = np.ceil(kernel.points[:, None] / distinct[None, :] - 1e-9)
        counted = np.array(
            [np.bincount(kernel.events[:c], minlength=distinct.size)
             for c in kernel.counts]
        )
        assert np.array_equal(counted, np.maximum(coef - 1.0, 0.0)), periods
