"""Schedulability of the priority driven protocol (Section 4, Theorem 4.1).

The priority driven protocol (PDP) implements rate-monotonic scheduling on
an IEEE 802.5 ring: messages are split into frames, stations bid for the
medium through the reservation field of passing frame headers, and the
token holding timer limits each token capture to one frame.  Two variants
are analysed:

* :attr:`PDPVariant.STANDARD` — the stock IEEE 802.5 protocol: a free
  token circulates after *every* transmitted frame, costing ``Θ/2`` on
  average per frame.
* :attr:`PDPVariant.MODIFIED` — the paper's refinement: a station keeps
  transmitting frames while it remains the highest-priority active
  station, so the ``Θ/2`` token cost is paid once per *message*.

The analysis folds every protocol overhead into an *augmented message
length* ``C'_i`` (:func:`pdp_augmented_length`), bounds priority-inversion
blocking by ``B = 2 max(F, Θ)`` (Lemma 4.1), and then applies the
Lehoczky–Sha–Ding exact test of :class:`repro.analysis.rm.ExactRMTest`,
which is precisely the paper's equation (4).  Online admission asks the
same test of an admitted population plus one stream;
:class:`PDPPopulation` keeps that population's per-period ``C'`` sums so
each such question costs one period group, not one set.

Effective frame transmission time (Section 4.3): a transmitting station
must see its own frame header return before the medium is free for the
next arbitration round, so each full frame occupies the medium for
``max(F, Θ)``; a short last frame occupies ``max(C_i - L_i·F_info +
F_ovhd, Θ)``.
"""

from __future__ import annotations

import bisect
import enum
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.analysis.rm import ExactRMTest, StreamTestDetail, _PointKernel
from repro.errors import MessageSetError
from repro.messages.message_set import MessageSet, StackedSets
from repro.messages.stream import SynchronousStream
from repro.network.frames import FrameFormat
from repro.network.ring import RingNetwork
from repro.obs import metrics as _metrics

#: Structure-cache accounting (see ``_ExactTests._test_for``): hits
#: and misses count the lookups of a set's period vector, kernel builds
#: count the ``_PointKernel`` structures built (one per cached test
#: without a repeated period), evictions count LRU drops.  Every cache
#: has one owner — an analysis, or the private cache a
#: :class:`PreparedSets` is prepared through — so all four counts are
#: invariant across ``--jobs`` partitionings.
_CACHE_HITS = _metrics.counter("pdp.exact_cache.hits")
_CACHE_MISSES = _metrics.counter("pdp.exact_cache.misses")
_KERNEL_BUILDS = _metrics.counter("pdp.exact_cache.kernel_builds")
_CACHE_EVICTIONS = _metrics.counter("pdp.exact_cache.evictions")

__all__ = [
    "PDPVariant",
    "pdp_augmented_length",
    "pdp_augmented_lengths",
    "pdp_blocking_time",
    "PDPAnalysis",
    "PDPPopulation",
    "PDPSetResult",
    "PreparedSets",
]


def _distinct_key(distinct: np.ndarray) -> tuple:
    """Structure-cache key of a distinct-period vector: the period tuple
    a set with exactly these periods is keyed on, so such a set's cached
    test lends its kernel too."""
    return tuple(distinct.tolist())


class PDPVariant(enum.Enum):
    """Which flavour of the priority driven protocol to analyse."""

    #: Stock IEEE 802.5: free token issued after every frame.
    STANDARD = "ieee-802.5"
    #: Modified 802.5: back-to-back frames while still highest priority.
    MODIFIED = "modified-802.5"


def pdp_blocking_time(ring: RingNetwork, frame: FrameFormat) -> float:
    """Lemma 4.1 blocking bound ``B = 2 max(F, Θ)``."""
    return 2.0 * max(frame.frame_time(ring.bandwidth_bps), ring.theta)


def pdp_augmented_length(
    payload_bits: float,
    ring: RingNetwork,
    frame: FrameFormat,
    variant: PDPVariant,
) -> float:
    """The augmented message length ``C'_i`` of Theorem 4.1, in seconds.

    ``C'_i`` is the worst-case medium occupancy of one message, including
    frame overhead bits, header-return waits, and the average token
    circulation cost ``Θ/2`` (paid per frame in the standard protocol, per
    message in the modified one).

    With ``K_i`` total frames, ``L_i`` full frames, frame time ``F`` and
    token-pass cost ``Θ``:

    * ``F <= Θ`` (high bandwidth): every frame occupies ``Θ``, so
      ``C'_i = K_i·Θ + token_cost``.
    * ``F > Θ`` (low bandwidth): full frames occupy ``F``; a short last
      frame occupies ``max(C_i - L_i·F_info + F_ovhd, Θ)``; hence
      ``C'_i = L_i·F + (K_i - L_i)·max(...) + token_cost``.

    where ``token_cost = K_i·Θ/2`` (standard) or ``Θ/2`` (modified).
    A zero-payload message costs nothing.
    """
    if payload_bits < 0:
        raise MessageSetError(f"payload must be non-negative, got {payload_bits!r}")
    if payload_bits == 0:
        return 0.0

    bandwidth = ring.bandwidth_bps
    theta = ring.theta
    split = frame.split(payload_bits)
    k_i, l_i = split.total_frames, split.full_frames
    frame_time = frame.frame_time(bandwidth)

    if variant is PDPVariant.STANDARD:
        token_cost = k_i * theta / 2.0
    elif variant is PDPVariant.MODIFIED:
        token_cost = theta / 2.0
    else:  # pragma: no cover - enum is closed
        raise MessageSetError(f"unknown PDP variant: {variant!r}")

    if frame_time <= theta:
        return k_i * theta + token_cost

    payload_time = payload_bits / bandwidth
    info_time = frame.info_time(bandwidth)
    ovhd_time = frame.overhead_time(bandwidth)
    last_frame_time = max(payload_time - l_i * info_time + ovhd_time, theta)
    return l_i * frame_time + (k_i - l_i) * last_frame_time + token_cost


def pdp_augmented_lengths(
    payloads_bits: np.ndarray,
    ring: RingNetwork,
    frame: FrameFormat,
    variant: PDPVariant,
) -> np.ndarray:
    """Vectorized :func:`pdp_augmented_length` over a whole payload array.

    One call replaces an n-stream Python loop with a handful of array
    operations; the arithmetic is identical term by term to the scalar
    version (which serves as the oracle in property tests), so the two
    agree bit for bit.  Accepts any array shape — the Monte Carlo batch
    machinery passes ``(n_probes·n_streams,)`` concatenations and
    ``(n_scales, n_streams)`` matrices alike.
    """
    arr = np.asarray(payloads_bits, dtype=float)
    if np.any(arr < 0):
        raise MessageSetError("payloads must be non-negative")

    bandwidth = ring.bandwidth_bps
    theta = ring.theta
    total, full = frame.split_counts(arr)
    frame_time = frame.frame_time(bandwidth)

    if variant is PDPVariant.STANDARD:
        token_cost = total * (theta / 2.0)
    elif variant is PDPVariant.MODIFIED:
        token_cost = np.where(arr > 0, theta / 2.0, 0.0)
    else:  # pragma: no cover - enum is closed
        raise MessageSetError(f"unknown PDP variant: {variant!r}")

    if frame_time <= theta:
        return total * theta + token_cost

    payload_time = arr / bandwidth
    info_time = frame.info_time(bandwidth)
    ovhd_time = frame.overhead_time(bandwidth)
    last_frame_time = np.maximum(payload_time - full * info_time + ovhd_time, theta)
    lengths = full * frame_time + (total - full) * last_frame_time + token_cost
    # A zero-payload message costs nothing (total == full == 0 already
    # zeroes the frame terms; the max() above would still charge theta
    # through the (K - L) factor being 0, so only token_cost needs care,
    # handled per-variant above).
    return lengths


@dataclass(frozen=True)
class PDPSetResult:
    """Outcome of the Theorem 4.1 test for a whole message set.

    Attributes:
        schedulable: True iff every stream passes equation (4).
        details: per-stream report, in RM priority order.
        augmented_lengths: the ``C'_i`` vector used, RM priority order.
        blocking: the Lemma 4.1 blocking term ``B``.
    """

    schedulable: bool
    details: tuple[StreamTestDetail, ...]
    augmented_lengths: tuple[float, ...]
    blocking: float

    @property
    def worst_ratio(self) -> float:
        """Largest per-stream minimized load ratio (> 1 means unschedulable)."""
        return max(d.min_load_ratio for d in self.details)


class _ExactTests:
    """An LRU of :class:`ExactRMTest` structures keyed by period vector.

    The expensive part of the exact test depends only on the distinct
    stream periods, so one test per period vector is reused across
    payload scalings, bandwidths and protocol variants.  A period vector
    that repeats a period takes its point kernel from the cached test of
    its distinct periods (stored under the key a set of exactly those
    periods would have), so vectors differing only in multiplicities
    build only their stream cuts and group starts.  The cache is an LRU
    over both kinds of entry (a 100-stream structure is about 10 kB, so
    one per Monte Carlo sample would still grow without bound over a
    long sweep).

    Args:
        cache_size: LRU capacity in cached tests, the distinct-period
            tests that lend their kernels included.
    """

    def __init__(self, cache_size: int):
        self._cache_size = int(cache_size)
        if self._cache_size < 1:
            raise MessageSetError(
                f"cache size must be at least 1, got {cache_size!r}"
            )
        self._test_cache: OrderedDict[tuple[float, ...], ExactRMTest] = OrderedDict()

    def _test_for(self, ordered: MessageSet) -> ExactRMTest:
        """The cached exact test of an RM-ordered set, keyed on its
        period tuple."""
        key = ordered.periods
        test = self._test_cache.get(key)
        if test is None:
            _CACHE_MISSES.inc()
            return self._build_test(key, key)
        _CACHE_HITS.inc()
        self._test_cache.move_to_end(key)
        return test

    def _build_test(self, key, periods) -> ExactRMTest:
        """Build the exact test of ``periods`` and cache it under ``key``.

        A vector that repeats a period borrows the kernel of the cached
        test over its distinct periods (:meth:`_distinct_test`), which is
        inserted first, so it sits just behind this test in LRU order.
        """
        test = ExactRMTest(
            periods,
            kernel_for=lambda distinct: self._distinct_test(distinct)._kernel,
        )
        if not test._repeats:  # own kernel
            _KERNEL_BUILDS.inc()
        cache = self._test_cache
        cache[key] = test
        while len(cache) > self._cache_size:
            cache.popitem(last=False)
            _CACHE_EVICTIONS.inc()
        return test

    def _distinct_test(self, distinct: np.ndarray) -> ExactRMTest:
        """The cached test over ``distinct`` (sorted, no repeats), built
        on a miss; these lookups are not counted as hits or misses."""
        key = _distinct_key(distinct)
        test = self._test_cache.get(key)
        if test is None:
            return self._build_test(key, distinct)
        self._test_cache.move_to_end(key)
        return test


class PreparedSets(StackedSets):
    """Message sets with the period half of every Theorem 4.1 payload-scale
    probe prepared once.

    A probe (:meth:`PDPAnalysis.scale_prober`) reads a set through its
    rate-monotonic order, its exact-test kernel, its payloads and its
    period groups, none of which depends on the ring, the frame format or
    the protocol variant.  This tuple of the sets carries all of that,
    prepared when it is made: each set's RM order and exact test (looked
    up in a cache of this population alone, so sets sharing a period
    vector share one test), one :meth:`_PointKernel.stacked` kernel, one
    payload row per set zero-padded to the widest set, the period-group
    bounds of each row, and ``all_zero`` (per set, whether every payload
    is zero).  When no set repeats a period the group bounds are None:
    the group sums are then the augmented lengths themselves.  As a
    :class:`~repro.messages.message_set.StackedSets` it also carries the
    construction-order ``periods`` and ``payloads`` matrices and the
    ``lengths`` that the TTP cells and the saturated utilizations read.

    A sweep prepares its drawn population once
    (:meth:`repro.experiments.config.PaperParameters.sample_population`)
    and hands it to every cell; each PDP cell's ``scale_prober`` only
    binds its ring, frame, variant and blocking term.  The prepared state
    pickles with the sets, so a worker process that receives them looks
    up and builds nothing.

    Args:
        message_sets: the sets, in the order probes index them.
    """

    def __init__(self, message_sets: Iterable[MessageSet]):
        super().__init__(message_sets)
        # Each set adds at most two entries: its test and the test of its
        # distinct periods, so nothing is evicted.
        cache = _ExactTests(max(1, 2 * len(self)))
        ordered_sets = [message_set.rate_monotonic() for message_set in self]
        tests = [
            cache._test_for(ordered) if len(ordered) else None
            for ordered in ordered_sets
        ]
        self.kernel = _PointKernel.stacked(
            [None if test is None else test._kernel for test in tests]
        )
        # With repeated periods every row ends in padding: a padded
        # length is 0.0, and a padded group's bounds repeat the set's
        # width, which reduceat answers with that 0.0 column.  Without
        # them the widest set's width is the kernel's group count.
        repeats = any(test is not None and test._repeats for test in tests)
        width = int(self.lengths.max(initial=0))
        self.payload_rows = np.zeros((len(ordered_sets), width + repeats))
        for s, ordered in enumerate(ordered_sets):
            self.payload_rows[s, : len(ordered)] = ordered.payloads_bits
        self.group_bounds = None
        if repeats:
            self.group_bounds = np.zeros(
                (len(ordered_sets), self.kernel._last.shape[-1] + 1), np.intp
            )
            for s, (ordered, test) in enumerate(zip(ordered_sets, tests)):
                self.group_bounds[s] = len(ordered)
                if test is not None:
                    self.group_bounds[s, : test._group_starts.size] = (
                        test._group_starts
                    )
        self.all_zero = ~self.payload_rows.any(axis=1)


class PDPAnalysis(_ExactTests):
    """Theorem 4.1 schedulability test bound to one ring + frame format.

    An instance caches the :class:`ExactRMTest` per period vector (see
    :class:`_ExactTests`) and reuses it across payload scalings, so the
    probes of one saturation search build the set's test once.  An
    admitted population (:class:`PDPPopulation`) reads the kernels of its
    distinct periods straight from this cache and judges admission
    candidates on its own per-period cost sums, building no test per
    candidate.  A population compared across several analyses is
    prepared once instead, as a :class:`PreparedSets`, which
    :meth:`scale_prober` reads without touching this cache.

    Args:
        ring: the physical ring (bandwidth included).
        frame: the MAC frame format.
        variant: which protocol variant to analyse.
        cache_size: LRU capacity in cached tests, the distinct-period
            tests that lend their kernels included (default
            :attr:`_CACHE_SIZE`).
    """

    _CACHE_SIZE = 4

    def __init__(
        self,
        ring: RingNetwork,
        frame: FrameFormat,
        variant: PDPVariant = PDPVariant.STANDARD,
        *,
        cache_size: int | None = None,
    ):
        super().__init__(self._CACHE_SIZE if cache_size is None else cache_size)
        self._ring = ring
        self._frame = frame
        self._variant = variant

    # -- accessors ----------------------------------------------------------------

    @property
    def ring(self) -> RingNetwork:
        """The ring this analysis is bound to."""
        return self._ring

    @property
    def frame(self) -> FrameFormat:
        """The frame format this analysis is bound to."""
        return self._frame

    @property
    def variant(self) -> PDPVariant:
        """The protocol variant being analysed."""
        return self._variant

    @property
    def blocking(self) -> float:
        """The Lemma 4.1 blocking bound at the current bandwidth."""
        return pdp_blocking_time(self._ring, self._frame)

    def cache_signature(self) -> dict:
        """JSON-safe identity for content-addressed result-cache keys.

        Covers everything the schedulability verdict depends on — ring,
        frame format, protocol variant — and nothing incidental (the
        exact-test structure cache is a pure accelerator).  See
        USAGE.md §13.
        """
        return {
            "analysis": "pdp",
            "ring": asdict(self._ring),
            "frame": asdict(self._frame),
            "variant": self._variant.value,
        }

    # -- core computations ------------------------------------------------------------

    def augmented_lengths(self, message_set: MessageSet) -> np.ndarray:
        """``C'_i`` for every stream of ``message_set`` in *its own* order."""
        payloads = np.fromiter(
            (s.payload_bits for s in message_set),
            dtype=float,
            count=len(message_set),
        )
        return pdp_augmented_lengths(payloads, self._ring, self._frame, self._variant)

    def is_schedulable(self, message_set: MessageSet) -> bool:
        """Theorem 4.1: can every deadline be guaranteed for all phasings?"""
        if len(message_set) == 0:
            return True
        ordered = message_set.rate_monotonic()
        test = self._test_for(ordered)
        return test.is_schedulable(self.augmented_lengths(ordered), self.blocking)

    def scale_prober(
        self, message_sets: Sequence[MessageSet]
    ) -> "Callable[[Sequence[int], np.ndarray], np.ndarray]":
        """A batched payload-scale predicate over a fixed population.

        Binds this analysis's ring, frame format, variant and blocking
        term to the population's :class:`PreparedSets` state: the one
        ``message_sets`` carries if it is a :class:`PreparedSets`,
        otherwise one prepared here.
        Returns ``probe(indices, scales) -> verdicts``: for each position
        ``j``, whether ``message_sets[indices[j]]`` with payloads scaled by
        ``scales[j]`` passes Theorem 4.1.  A probe scales one payload row
        per position, computes every augmented length in one vectorized
        call, forms every row's period-group sums in one
        ``np.add.reduceat`` over the flattened rows (the segments
        :meth:`ExactRMTest._group_sums` would sum; skipped when no set
        repeats a period, as there), and judges all rows in one kernel
        evaluation.  A row's floats do not depend on the rows beside it,
        so every verdict is bit-identical to
        :meth:`ExactRMTest.is_schedulable` on that set alone.  This is the
        engine behind the lockstep batched bisection of
        :func:`repro.analysis.breakdown.breakdown_scales_batch`, which
        also reads ``probe.all_zero``: per set, whether its payload row
        is all zero (scaling such a set changes nothing).
        """
        prepared = (
            message_sets
            if isinstance(message_sets, PreparedSets)
            else PreparedSets(message_sets)
        )
        payload_rows, bounds = prepared.payload_rows, prepared.group_bounds
        kernel = prepared.kernel
        ring, frame, variant, blocking = (
            self._ring, self._frame, self._variant, self.blocking
        )

        def probe(indices: Sequence[int], scales: np.ndarray) -> np.ndarray:
            which = np.asarray(indices, dtype=np.intp)
            scaled = payload_rows[which]
            scaled *= np.asarray(scales, dtype=float)[:, None]
            sums = pdp_augmented_lengths(scaled, ring, frame, variant)
            if bounds is not None:
                segments = bounds[which]
                segments += sums.shape[-1] * np.arange(which.size)[:, None]
                sums = np.add.reduceat(sums.ravel(), segments.ravel())
                sums = np.ascontiguousarray(sums.reshape(segments.shape)[:, :-1])
            return kernel.verdicts(sums, blocking, which)

        probe.all_zero = prepared.all_zero
        return probe

    def analyze(self, message_set: MessageSet) -> PDPSetResult:
        """Full per-stream report for ``message_set``."""
        ordered = message_set.rate_monotonic()
        if len(ordered) == 0:
            return PDPSetResult(True, (), (), self.blocking)
        test = self._test_for(ordered)
        lengths = self.augmented_lengths(ordered)
        details = tuple(test.details(lengths, self.blocking))
        return PDPSetResult(
            schedulable=all(d.schedulable for d in details),
            details=details,
            augmented_lengths=tuple(float(c) for c in lengths),
            blocking=self.blocking,
        )


class PDPPopulation:
    """An admitted PDP population, kept ready for add-one verdicts.

    Theorem 4.1 reads a set only through its distinct periods, the
    per-period sums of the augmented lengths ``C'_i`` (summed in RM order
    within each period) and the blocking term.  A population keeps its
    streams in rate-monotonic order with each one's ``C'_i`` beside it,
    computed once on :meth:`insert` by the scalar
    :func:`pdp_augmented_length`, which is bit-equal to the vector form.
    The distinct periods and their group sums are refreshed lazily, once
    per change, with the ``np.add.reduceat`` of
    :meth:`ExactRMTest._group_sums`.

    :meth:`verdicts` judges each candidate stream as if it alone were
    added: one scalar ``C'``, then a copy of the group sums with only the
    candidate's group re-summed (the candidate at its RM position inside
    the tie), or with one sum inserted for a period not yet admitted,
    evaluated on the analysis's point kernel for those distinct periods.
    Each verdict equals ``analysis.is_schedulable(MessageSet([*streams,
    candidate]))`` bit for bit, without building, sorting or re-summing
    that set.

    Args:
        analysis: supplies the ring, frame format, variant and blocking
            term, and the LRU of distinct-period kernels.
    """

    def __init__(self, analysis: PDPAnalysis):
        self._analysis = analysis
        self._blocking = analysis.blocking
        self._streams: list[SynchronousStream] = []
        self._costs: list[float] = []
        # (distinct periods, group bounds into _streams, group sums),
        # rebuilt on the first read after a change; the kernel over the
        # distinct periods is fetched when a candidate first joins one.
        self._groups: tuple[np.ndarray, list[int], np.ndarray] | None = None
        self._kernel: _PointKernel | None = None

    @property
    def streams(self) -> Sequence[SynchronousStream]:
        """The admitted streams in rate-monotonic order (read-only)."""
        return self._streams

    def _cost(self, stream: SynchronousStream) -> float:
        analysis = self._analysis
        return pdp_augmented_length(
            stream.payload_bits, analysis.ring, analysis.frame, analysis.variant
        )

    def insert(self, stream: SynchronousStream) -> None:
        """Admit ``stream``: one bisect insertion and one ``C'``."""
        cost = self._cost(stream)
        at = bisect.bisect_right(self._streams, stream)
        self._streams.insert(at, stream)
        self._costs.insert(at, cost)
        self._groups = None

    def remove(self, stream: SynchronousStream) -> None:
        """Release ``stream``, which must be admitted."""
        at = bisect.bisect_left(self._streams, stream)
        if at == len(self._streams) or self._streams[at] != stream:
            raise MessageSetError(f"{stream!r} is not in the population")
        del self._streams[at]
        del self._costs[at]
        self._groups = None

    def _group_state(self) -> tuple[np.ndarray, list[int], np.ndarray]:
        if self._groups is None:
            periods = [s.period_s for s in self._streams]
            starts = [
                i for i, p in enumerate(periods) if not i or p != periods[i - 1]
            ]
            distinct = np.array([periods[i] for i in starts], dtype=float)
            sums = np.add.reduceat(self._costs, starts) if starts else np.zeros(0)
            self._groups = (distinct, [*starts, len(periods)], sums)
            self._kernel = None
        return self._groups

    def verdicts(self, candidates: Sequence[SynchronousStream]) -> list[bool]:
        """Theorem 4.1 verdict of the population plus each candidate alone.

        Candidates sharing a period share a kernel and are evaluated as
        stacked sum rows in one call; a row's verdict does not depend on
        the rows beside it, so asking for one candidate or many gives the
        same answers.
        """
        distinct, bounds, sums = self._group_state()
        blocking = self._blocking
        by_period: dict[float, list[int]] = {}
        for i, stream in enumerate(candidates):
            by_period.setdefault(stream.period_s, []).append(i)
        out = [False] * len(candidates)
        for period, indices in by_period.items():
            g = int(np.searchsorted(distinct, period))
            rows = []
            if g < distinct.size and distinct[g] == period:
                lo, hi = bounds[g], bounds[g + 1]
                for i in indices:
                    at = bisect.bisect_right(self._streams, candidates[i], lo, hi)
                    group = [
                        *self._costs[lo:at],
                        self._cost(candidates[i]),
                        *self._costs[at:hi],
                    ]
                    row = sums.copy()
                    row[g] = np.add.reduceat(group, [0])[0]
                    rows.append(row)
                if self._kernel is None:
                    self._kernel = self._analysis._distinct_test(distinct)._kernel
                kernel = self._kernel
            else:
                for i in indices:
                    rows.append(np.insert(sums, g, self._cost(candidates[i])))
                kernel = self._analysis._distinct_test(
                    np.insert(distinct, g, period)
                )._kernel
            for i, ok in zip(indices, kernel.verdicts(np.stack(rows), blocking)):
                out[i] = bool(ok)
        return out
