"""The one boundary rule for token-visit counts ``q_i = floor(P_i / TTRT)``.

Both theorems quantize a period into token visits, and both protocols'
conclusions flip exactly at the quantization boundaries (Jain's FDDI
analysis makes the same observation for TTRT multiples).  Historically
each call site carried its own ``floor(P/TTRT + 1e-12)`` — an *absolute*
epsilon, which fails in both directions:

* **Undercount at exact multiples.**  For ``P = k·TTRT`` the float
  quotient ``P/TTRT`` can land up to a few ulps *below* ``k``; one ulp at
  ``k = 100_000`` is ``1.5e-11``, larger than the ``1e-12`` nudge, so the
  floor returned ``k - 1``.  Concrete regression: ``P=1.0,
  TTRT=1e-5`` gives ``1.0/1e-5 == 99999.99999999999`` and the old rule
  answered 99999 instead of 100000.
* **Overshoot just below the boundary.**  For small quotients the
  absolute nudge is *wide*: a period genuinely ``5e-13`` below
  ``2·TTRT`` was rounded up to ``q = 2`` and admitted.

This module replaces the absolute epsilon with a **relative** snap: the
quotient is floored, then snapped up to the nearest integer only when it
lies within :data:`Q_REL_TOL` (relative) below it — a few dozen ulps:
far wider than the worst-case rounding error of one multiply and one
divide (a couple of ulps), far narrower than any physically meaningful
period distinction, and narrower than the old absolute nudge at every
quotient magnitude that matters.

Scalar and vectorized variants use the identical sequence of float
operations, so their results agree bit for bit; the differential fuzzer
(:mod:`repro.verify`) cross-checks that invariant continuously.  A
quotient that overflows to infinity (a 1e308 s period) or is otherwise
not finite has no visit count: both raise
:class:`~repro.errors.MessageSetError`, so an admission request carrying
such a period is refused on its own.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import MessageSetError

__all__ = ["Q_REL_TOL", "token_visit_count", "token_visit_counts"]

#: Relative snap tolerance for quotients sitting just below an integer.
#: ``1e-14`` relative ≈ 45 ulps: generous against accumulated rounding in
#: the quotient (a multiply-divide chain errs by a few ulps), yet at the
#: critical ``q = 2`` admissibility edge the snap window is ``2e-14``
#: absolute — 50× tighter than the old ``+1e-12`` nudge.
Q_REL_TOL = 1e-14


def _not_finite(period_s: float, ttrt_s: float) -> MessageSetError:
    return MessageSetError(
        f"period {period_s!r} s over TTRT {ttrt_s!r} s has no finite "
        f"token visit count"
    )


def token_visit_count(period_s: float, ttrt_s: float) -> int:
    """``q = floor(period / ttrt)`` with the relative exact-multiple snap.

    The scalar twin of :func:`token_visit_counts`; the two perform the
    same float operations in the same order and agree bit for bit.
    """
    ratio = period_s / ttrt_s
    if not math.isfinite(ratio):
        raise _not_finite(period_s, ttrt_s)
    q = math.floor(ratio)
    nearest = math.floor(ratio + 0.5)
    if nearest > q and nearest - ratio <= Q_REL_TOL * nearest:
        return int(nearest)
    return int(q)


def token_visit_counts(
    periods_s: Sequence[float] | np.ndarray, ttrt_s: float
) -> np.ndarray:
    """Vectorized :func:`token_visit_count` over a period array.

    Returns a float array (the values are exact integers) of the same
    shape as ``periods_s``, elementwise bit-identical to the scalar rule.
    """
    periods = np.asarray(periods_s, dtype=float)
    ratio = periods / ttrt_s
    finite = np.isfinite(ratio)
    if not finite.all():
        raise _not_finite(float(periods[~finite][0]), ttrt_s)
    q = np.floor(ratio)
    nearest = np.floor(ratio + 0.5)
    snap = (nearest > q) & (nearest - ratio <= Q_REL_TOL * nearest)
    return np.where(snap, nearest, q)
