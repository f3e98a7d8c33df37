"""Online admission control for real-time token rings.

The schedulability criteria are static: they judge a complete message set.
A deployed network faces the *online* version — streams request admission
and depart over time, and each request must be answered against the
currently admitted population.  Section 2 of the paper sketches exactly
this use ("schedulability tests are not needed as long as the offered
load is below this bound"); this module turns that sketch into an API.

:class:`AdmissionController` wraps either protocol analysis and maintains
the admitted set.  Three admission policies:

* ``EXACT`` — run the full schedulability test on every request (most
  admissive, costs an exact-test evaluation).
* ``SUFFICIENT`` — run only the utilization-based sufficient bound of
  :mod:`repro.analysis.bounds` (cheapest; rejects some feasible sets).
* ``HYBRID`` — try the sufficient bound first and fall back to the exact
  test only when it rejects (exact admissivity at amortized bound cost —
  the run-time administration pattern the paper recommends).

Station assignment is handled by the controller (one stream per station,
as in the paper's model); releases free their stations for reuse.

Concurrency contract (the admission *service* of :mod:`repro.service`
drives one controller from its event loop — micro-batches plus inline
request handlers — and library callers may share one across threads):

* every state transition — :meth:`AdmissionController.request`,
  :meth:`~AdmissionController.release`,
  :meth:`~AdmissionController.process_batch` — is atomic under one
  reentrant lock, so interleaved callers can never double-assign a
  station or corrupt the free list;
* releasing an unknown or already-released stream raises the typed
  :class:`~repro.errors.AdmissionError` (never silently re-frees a
  station); ``idempotent=True`` turns that into a recorded no-op for
  at-least-once retry paths;
* :meth:`~AdmissionController.process_batch` serializes a batch of
  operations in arrival order and answers each against exactly the state
  its predecessors left — decisions are **bit-identical** to issuing the
  same calls sequentially, while read-only runs of the batch are
  evaluated through one stacked
  :meth:`~repro.analysis.rm.ExactRMTest.is_schedulable_batch` pass.

Decisions can optionally be fronted by the content-addressed result
cache (:mod:`repro.cache`): pass ``cache_namespace`` and every computed
``(schedulable, tested_by)`` verdict is stored under a key covering the
analysis signature, policy, admitted population, and candidate — a
repeat query against the same population short-circuits both tests.
The population part of the key is hashed once per population (the
running digest is dropped only when a committed admit or a successful
release changes the admitted set), so a key costs O(1) in the number of
admitted streams.  Cached verdicts are replayed values of the same
computation, so results stay bit-identical with the cache on, off, warm,
or cold.

The same two transitions maintain a snapshot of the population that
every decision reads: the admitted streams in rate-monotonic order
(one bisect insertion or removal per change, never a re-sort) and each
one's utilization term, in admission order.  A candidate's
``utilization_after`` is ``sum`` over those terms and its own — the
same floats in the same order as ``MessageSet([*admitted, candidate])
.utilization``, so bit-identical without recomputing a stream's
utilization — and it feeds both the budget gate and the decision.  Only
a cache miss builds the candidate set, by one bisect insertion into the
RM-ordered snapshot for PDP (whose analysis reads the set through its
RM order) and in admission order for TTP (whose allocation sums in set
order).

On a PDP ring the exact test's size is bounded per request: Theorem
4.1's scheduling points grow with the period ratio, so a candidate
whose set would need more than :data:`MAX_EXACT_POINTS` of them is
refused with :class:`~repro.errors.MessageSetError` (an
:class:`OpFault` in a batch, HTTP 422 on the wire) before anything is
built.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import threading
from dataclasses import dataclass

from repro.analysis.bounds import pdp_sufficient_test, ttp_sufficient_test
from repro.analysis.pdp import PDPAnalysis
from repro.analysis.ttp import TTPAnalysis
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    MessageSetError,
    ReproError,
)
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream
from repro.obs import tracing

__all__ = [
    "AdmissionPolicy",
    "AdmissionDecision",
    "AdmissionOp",
    "ReleaseOutcome",
    "OpFault",
    "AdmissionController",
    "MAX_EXACT_POINTS",
]

#: Most Theorem 4.1 scheduling points a PDP candidate set may need:
#: ``sum(floor(P_max/P_j))`` over its distinct periods, the size of the
#: union :class:`~repro.analysis.rm.ExactRMTest` builds.  A build of
#: this size takes about 0.02 s; the count grows with the period ratio,
#: and a 1 ms stream beside a 10 s one already needs 10^4.
MAX_EXACT_POINTS = 100_000


class AdmissionPolicy(enum.Enum):
    """How admission requests are tested."""

    EXACT = "exact"
    SUFFICIENT = "sufficient"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's answer to one admission request.

    Attributes:
        admitted: whether the stream was (or, for a check, would be)
            accepted.
        stream_id: controller-assigned id (present iff a stream was
            actually installed — checks never carry one).
        station: ring station assigned, or the station a check's
            candidate would occupy (None on rejection).
        reason: human-readable explanation.
        tested_by: which test decided ("sufficient", "exact",
            "capacity", or "budget" — the utilization-cap lease gate of
            sharded deployments; see :mod:`repro.cluster`).
        utilization_after: admitted-set utilization had/has the stream
            been included.
    """

    admitted: bool
    stream_id: int | None
    station: int | None
    reason: str
    tested_by: str
    utilization_after: float


@dataclass(frozen=True)
class ReleaseOutcome:
    """The result of one release operation.

    ``released`` is False only in idempotent mode, recording that the
    stream was already gone (a retried release, or a typo the caller
    chose to tolerate).
    """

    released: bool
    stream_id: int


@dataclass(frozen=True)
class OpFault:
    """A batch operation that would have raised when issued directly.

    :meth:`AdmissionController.process_batch` must answer *every*
    operation, so instead of letting one malformed request poison the
    whole batch, the exception is captured here — ``error`` is the
    exception class name, ``detail`` its message.  The service layer maps
    these to 4xx responses.
    """

    error: str
    detail: str


@dataclass(frozen=True)
class AdmissionOp:
    """One operation in a :meth:`AdmissionController.process_batch` batch.

    Build with the :meth:`check`, :meth:`admit`, and :meth:`release`
    constructors rather than by hand.
    """

    kind: str
    period_s: float | None = None
    payload_bits: float | None = None
    stream_id: int | None = None
    idempotent: bool = False

    @staticmethod
    def check(period_s: float, payload_bits: float) -> "AdmissionOp":
        """A non-mutating what-if query."""
        return AdmissionOp("check", period_s=period_s, payload_bits=payload_bits)

    @staticmethod
    def admit(period_s: float, payload_bits: float) -> "AdmissionOp":
        """An admission request (installs the stream on acceptance)."""
        return AdmissionOp("admit", period_s=period_s, payload_bits=payload_bits)

    @staticmethod
    def release(stream_id: int, idempotent: bool = False) -> "AdmissionOp":
        """A release of a previously admitted stream."""
        return AdmissionOp("release", stream_id=stream_id, idempotent=idempotent)


class AdmissionController:
    """Online admission control over one protocol analysis.

    Args:
        analysis: a :class:`PDPAnalysis` or :class:`TTPAnalysis`; the
            controller dispatches the matching sufficient bound.
        policy: the admission policy (default HYBRID).
        cache_namespace: when set, front decisions with the
            content-addressed result cache under this namespace (the
            admission service passes ``"admission"``); None — the
            default — computes every decision.
        utilization_cap: when set, a hard admitted-utilization budget —
            any admission that would push the admitted set's utilization
            past it is rejected with ``tested_by="budget"`` *before* the
            schedulability test runs.  This is how a sharded fleet stays
            jointly sound: each worker enforces the lease granted by the
            cluster router (:mod:`repro.cluster.budget`), so the sum of
            per-shard admissions can never exceed the single-controller
            aggregate cap.  None (the default) disables the gate.

    Thread safety: all public operations are atomic under an internal
    reentrant lock (see the module docstring).  The controller models the
    decision logic, not a distributed signalling protocol.
    """

    def __init__(
        self,
        analysis: PDPAnalysis | TTPAnalysis,
        policy: AdmissionPolicy = AdmissionPolicy.HYBRID,
        *,
        cache_namespace: str | None = None,
        utilization_cap: float | None = None,
    ):
        if not isinstance(analysis, (PDPAnalysis, TTPAnalysis)):
            raise ConfigurationError(
                f"analysis must be a PDPAnalysis or TTPAnalysis, got {analysis!r}"
            )
        if utilization_cap is not None and not utilization_cap >= 0.0:
            raise ConfigurationError(
                f"utilization_cap must be >= 0, got {utilization_cap!r}"
            )
        self._analysis = analysis
        self._policy = policy
        self._utilization_cap = (
            float(utilization_cap) if utilization_cap is not None else None
        )
        self._streams: dict[int, SynchronousStream] = {}
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        n = analysis.ring.n_stations
        self._free_stations: list[int] = list(range(n - 1, -1, -1))
        self._cache_namespace = cache_namespace
        # An analysis without a canonical signature (e.g. a custom TTRT
        # policy object) cannot be content-addressed; fall back to
        # computing every decision rather than guessing a key.
        self._cache_signature = (
            analysis.cache_signature() if cache_namespace is not None else None
        )
        # Running digest of the decision key's population part, built on
        # the first keyed decision and dropped whenever ``_streams``
        # changes (``_commit``, ``release``): every candidate key then
        # costs one digest copy instead of re-hashing the population.
        self._base_digest = None
        # The population snapshot, updated at the same two places (see
        # ``_snapshot_insert``/``_snapshot_remove``): the admitted streams
        # in RM order and each one's utilization term by id, in
        # ``_streams`` order.
        self._ordered: list[SynchronousStream] = []
        self._terms: dict[int, float] = {}

    # -- views ---------------------------------------------------------------

    @property
    def analysis(self):
        """The wrapped protocol analysis."""
        return self._analysis

    @property
    def policy(self) -> AdmissionPolicy:
        """The admission policy in force."""
        return self._policy

    @property
    def admitted_count(self) -> int:
        """Number of currently admitted streams."""
        with self._lock:
            return len(self._streams)

    @property
    def utilization_cap(self) -> float | None:
        """The admitted-utilization budget in force (None = unbounded)."""
        with self._lock:
            return self._utilization_cap

    def set_utilization_cap(self, cap: float | None) -> float | None:
        """Install a new utilization budget, returning the previous one.

        The cluster router calls this (via the service's ``/v1/lease``
        endpoint) when it reconciles the fleet's budget split.  A cap
        below the *currently admitted* utilization is legal: existing
        streams keep running, but no further admission can succeed until
        releases bring utilization back under the lease.
        """
        if cap is not None and not cap >= 0.0:
            raise ConfigurationError(
                f"utilization_cap must be >= 0, got {cap!r}"
            )
        with self._lock:
            previous = self._utilization_cap
            self._utilization_cap = float(cap) if cap is not None else None
            return previous

    def current_set(self) -> MessageSet:
        """The admitted population as a message set."""
        with self._lock:
            return MessageSet(self._streams.values())

    def utilization(self) -> float:
        """Admitted utilization at the ring's bandwidth: the sum of the
        snapshot's terms, bit-identical to
        ``current_set().utilization(bandwidth)``."""
        with self._lock:
            return sum(self._terms.values())

    # -- internals --------------------------------------------------------------

    def _sufficient_test(self, candidate: MessageSet) -> bool:
        if isinstance(self._analysis, PDPAnalysis):
            return pdp_sufficient_test(self._analysis, candidate).admitted
        return ttp_sufficient_test(self._analysis, candidate).admitted

    def _snapshot_insert(self, stream_id: int, stream: SynchronousStream) -> None:
        """Add a just-installed stream to the snapshot; lock held."""
        bisect.insort(self._ordered, stream)
        self._terms[stream_id] = stream.utilization(
            self._analysis.ring.bandwidth_bps
        )

    def _snapshot_remove(self, stream_id: int, stream: SynchronousStream) -> None:
        """Drop a just-released stream from the snapshot; lock held.

        Stations are unique among admitted streams, so the RM order is
        total and the bisect lands on the stream itself.
        """
        del self._ordered[bisect.bisect_left(self._ordered, stream)]
        del self._terms[stream_id]

    def _candidate_set(self, stream: SynchronousStream) -> MessageSet:
        """The admitted population plus ``stream``; lock held.

        PDP reads a set only through its rate-monotonic order (a total
        order, stations being unique), so the candidate is built in that
        order by one bisect insertion into the snapshot and its
        ``rate_monotonic()`` check is one pass.  TTP sums its allocation
        in set order, so its candidate keeps admission order with the
        stream last.
        """
        if isinstance(self._analysis, PDPAnalysis):
            members = self._ordered.copy()
            bisect.insort(members, stream)
            return MessageSet(members)
        return MessageSet([*self._streams.values(), stream])

    def _exact_test_too_large(self, period_s: float) -> bool:
        """Whether the candidate set with a stream of ``period_s`` needs
        more than :data:`MAX_EXACT_POINTS` Theorem 4.1 scheduling points,
        counted as ``_union_points`` builds them over its distinct
        periods.  Lock held.

        ``(m + 1)·P_max/P_min`` bounds the count, so while that stays
        within the limit (every catalogue the service benchmarks) the
        answer costs O(1) from the RM-ordered snapshot's ends; otherwise
        the count is taken in O(m).  Each period's term is capped at
        ``MAX_EXACT_POINTS + 1``, which keeps an infinite ratio (a
        1e308 s or subnormal period) finite without changing the answer.
        """
        ordered = self._ordered
        if not ordered:
            return False  # a lone stream has one scheduling point
        p_min = min(ordered[0].period_s, period_s)
        p_max = max(ordered[-1].period_s, period_s)
        if (len(ordered) + 1) * (p_max / p_min + 1e-12) <= MAX_EXACT_POINTS:
            return False
        distinct = {s.period_s for s in ordered}
        distinct.add(period_s)
        cap = MAX_EXACT_POINTS + 1
        points = sum(math.floor(min(p_max / d + 1e-12, cap)) for d in distinct)
        return points > MAX_EXACT_POINTS

    def _cache_key(self, period_s: float, payload_bits: float) -> str | None:
        """Content key for one decision, or None when caching is off.

        Covers the analysis signature, the policy, the admitted
        ``(period, payload)`` multiset (its canonical
        :func:`~repro.cache.keys.set_signature`) and the candidate.
        Stations are deliberately excluded: both criteria and both
        sufficient bounds depend only on the multiset, so keying on
        placements would shrink the hit rate for nothing.  The population
        part is hashed once per population, like the snapshot; a key is
        computed before the candidate set exists, so a cache hit never
        builds it.  Lock held by callers.
        """
        if self._cache_signature is None:
            return None
        from repro.cache import keys

        if self._base_digest is None:
            self._base_digest = keys.prefix_chain_seed(
                {
                    "admission": 1,
                    "signature": self._cache_signature,
                    "policy": self._policy.value,
                    "base": keys.set_signature(
                        (s.period_s, s.payload_bits)
                        for s in self._streams.values()
                    ),
                }
            )
        return keys.prefix_chain_extend(
            self._base_digest.copy(), period_s, payload_bits
        )

    def _exact_verdicts(self, candidates: list[MessageSet]):
        """Exact-test verdicts, one per candidate set: the analysis's
        batched dispatch, so a raising candidate raises exactly the error
        the analysis would have raised."""
        return self._analysis.is_schedulable_many(candidates)

    def _evaluate_many(
        self, streams: list[SynchronousStream], keys: list
    ) -> list[tuple[bool, str] | ReproError]:
        """(schedulable, which-test-decided) per candidate stream, or the
        error deciding it would have raised.  Read-only; lock held by
        callers.

        Exactly the sequential policy logic, vectorized: cache hits
        short-circuit, each miss builds its candidate set, the sufficient
        bound screens HYBRID/SUFFICIENT, and every exact evaluation left
        over goes through one ``is_schedulable_many`` dispatch (stacked
        :meth:`ExactRMTest.is_schedulable_batch` rows for PDP candidates
        sharing a period vector).
        """
        from repro.cache.store import result_cache

        n = len(streams)
        out: list[tuple[bool, str] | ReproError | None] = [None] * n
        cache = result_cache() if self._cache_namespace is not None else None
        with tracing.span("engine", candidates=n):
            with tracing.span(
                "cache", namespace=self._cache_namespace or "off"
            ):
                if cache is not None:
                    for i, key in enumerate(keys):
                        if key is None:
                            continue
                        hit = cache.get(key, namespace=self._cache_namespace)
                        if hit is not None:
                            out[i] = (bool(hit[0]), str(hit[1]))
            misses = [i for i in range(n) if out[i] is None]
            candidates = {i: self._candidate_set(streams[i]) for i in misses}

            computed: dict[int, tuple[bool, str]] = {}
            if self._policy is not AdmissionPolicy.EXACT:
                with tracing.span("sufficient", candidates=len(misses)):
                    for i in misses:
                        if self._sufficient_test(candidates[i]):
                            computed[i] = (True, "sufficient")
                        elif self._policy is AdmissionPolicy.SUFFICIENT:
                            computed[i] = (False, "sufficient")
                misses = [i for i in misses if i not in computed]
            if misses:
                with tracing.span("exact", candidates=len(misses)):
                    try:
                        verdicts = self._exact_verdicts(
                            [candidates[i] for i in misses]
                        )
                        for i, ok in zip(misses, verdicts):
                            computed[i] = (bool(ok), "exact")
                    except ReproError:
                        # A degenerate candidate (e.g. TTP q_i < 2) aborts
                        # the batched call without naming the culprit;
                        # re-evaluate one by one so only the faulting
                        # candidates carry the error, exactly as
                        # sequential calls would.
                        for i in misses:
                            try:
                                ok = self._exact_verdicts([candidates[i]])[0]
                                computed[i] = (bool(ok), "exact")
                            except ReproError as exc:
                                out[i] = exc
            for i, value in computed.items():
                out[i] = value
                if cache is not None and keys[i] is not None:
                    cache.put(
                        keys[i], list(value), namespace=self._cache_namespace
                    )
        return out

    def _decide_many(
        self, requests: list[tuple[float, float]], faults: bool
    ) -> list[AdmissionDecision | OpFault]:
        """Full decisions for many what-if candidates, lock held.

        Read-only: every candidate is judged against the *same* current
        state, which is what makes the result bit-identical to deciding
        each request first in a sequential interleaving.  With
        ``faults=False`` (the direct-call API) an invalid request raises;
        with ``faults=True`` (the batch path) it yields an
        :class:`OpFault` so the rest of the batch still gets answers.
        """
        if not requests:
            return []
        n_stations = self._analysis.ring.n_stations
        bounded = isinstance(self._analysis, PDPAnalysis)
        station = self._free_stations[-1] if self._free_stations else None
        bandwidth = self._analysis.ring.bandwidth_bps
        cap = self._utilization_cap

        decisions: list[AdmissionDecision | OpFault | None] = [None] * len(requests)
        streams: list[SynchronousStream] = []
        utilizations: list[float] = []
        keys: list = []
        positions: list[int] = []
        for j, (period_s, payload_bits) in enumerate(requests):
            try:
                # Validated on a full ring too: whether a request is
                # well-formed must not depend on occupancy.
                stream = SynchronousStream(
                    period_s=period_s,
                    payload_bits=payload_bits,
                    station=0 if station is None else station,
                )
                if bounded and self._exact_test_too_large(stream.period_s):
                    raise MessageSetError(
                        f"the exact test would need more than "
                        f"{MAX_EXACT_POINTS} scheduling points"
                    )
            except ReproError as exc:
                if not faults:
                    raise
                decisions[j] = OpFault(type(exc).__name__, str(exc))
                continue
            if station is None:
                decisions[j] = AdmissionDecision(
                    admitted=False,
                    stream_id=None,
                    station=None,
                    reason=f"all {n_stations} stations occupied",
                    tested_by="capacity",
                    utilization_after=sum(self._terms.values()),
                )
                continue
            utilization_after = sum(
                (*self._terms.values(), stream.utilization(bandwidth))
            )
            if cap is not None:
                # Budget gate: a lease overrun is rejected before (and
                # instead of) the schedulability test, and is never
                # cached — the verdict depends on the lease, not the
                # message set.  Bit-identity with a single-controller
                # twin holds because the twin applies the same gate to
                # the same float.
                if utilization_after > cap:
                    decisions[j] = AdmissionDecision(
                        admitted=False,
                        stream_id=None,
                        station=None,
                        reason=(
                            f"admission would raise utilization to "
                            f"{utilization_after:.6g}, past the budget "
                            f"lease cap {cap:.6g}"
                        ),
                        tested_by="budget",
                        utilization_after=utilization_after,
                    )
                    continue
            streams.append(stream)
            utilizations.append(utilization_after)
            keys.append(self._cache_key(stream.period_s, stream.payload_bits))
            positions.append(j)

        for j, utilization_after, verdict in zip(
            positions, utilizations, self._evaluate_many(streams, keys)
        ):
            if isinstance(verdict, ReproError):
                if not faults:
                    raise verdict
                decisions[j] = OpFault(type(verdict).__name__, str(verdict))
                continue
            schedulable, tested_by = verdict
            decisions[j] = AdmissionDecision(
                admitted=schedulable,
                stream_id=None,
                station=station if schedulable else None,
                reason=(
                    "schedulable"
                    if schedulable
                    else "admission would make the set unschedulable"
                ),
                tested_by=tested_by,
                utilization_after=utilization_after,
            )
        return decisions

    def _commit(
        self, period_s: float, payload_bits: float, decision: AdmissionDecision
    ) -> AdmissionDecision:
        """Install an accepted candidate; lock held, state unchanged since
        ``decision`` was computed."""
        station = self._free_stations.pop()
        stream_id = next(self._ids)
        stream = SynchronousStream(
            period_s=period_s, payload_bits=payload_bits, station=station
        )
        self._streams[stream_id] = stream
        self._base_digest = None
        self._snapshot_insert(stream_id, stream)
        return AdmissionDecision(
            admitted=True,
            stream_id=stream_id,
            station=station,
            reason="admitted",
            tested_by=decision.tested_by,
            utilization_after=decision.utilization_after,
        )

    # -- operations --------------------------------------------------------------

    def check(self, period_s: float, payload_bits: float) -> AdmissionDecision:
        """Non-mutating what-if decision (capacity plus schedulability)."""
        with self._lock:
            return self._decide_many([(period_s, payload_bits)], faults=False)[0]

    def would_admit(self, period_s: float, payload_bits: float) -> bool:
        """Non-mutating what-if verdict; ``check(...).admitted``."""
        return self.check(period_s, payload_bits).admitted

    def request(
        self, period_s: float, payload_bits: float
    ) -> AdmissionDecision:
        """Ask to admit a new periodic stream.

        On acceptance the stream is installed at a free station and its
        id returned; on rejection the admitted set is unchanged.  Atomic:
        the decision and the installation happen under one lock.
        """
        with self._lock:
            decision = self._decide_many([(period_s, payload_bits)], faults=False)[0]
            if not decision.admitted:
                return decision
            return self._commit(period_s, payload_bits, decision)

    def release(self, stream_id: int, idempotent: bool = False) -> ReleaseOutcome:
        """Remove an admitted stream and free its station.

        Releasing an unknown or already-released id raises
        :class:`~repro.errors.AdmissionError` — never touching the free
        list, so a duplicate release cannot hand one station to two
        streams.  With ``idempotent=True`` (the service retry path) it
        instead returns ``ReleaseOutcome(released=False, ...)``.
        """
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
            self._snapshot_remove(stream_id, stream)
            return ReleaseOutcome(released=True, stream_id=stream_id)

    def process_batch(
        self, ops: "list[AdmissionOp]"
    ) -> "list[AdmissionDecision | ReleaseOutcome | OpFault]":
        """Serialize a batch of operations, answering every one.

        Operations are applied in list order under one lock, and each is
        decided against exactly the state its predecessors left — the
        results are **bit-identical** to issuing the same calls
        sequentially (pinned by tests and the ``service_batch_equiv``
        fuzz property).  The speed-up comes from speculation: all
        check/admit candidates still pending are evaluated against the
        current state in one stacked pass, and those answers stay valid
        until some operation actually mutates state (a committed admit
        or a successful release), at which point the remainder of the
        batch is re-evaluated.  Check-heavy and saturated (all-rejecting)
        batches therefore collapse into a single batched exact-test
        evaluation.

        Operations that would have raised when issued directly come back
        as :class:`OpFault` instead, so one malformed request never
        poisons its batchmates.
        """
        results: dict[int, AdmissionDecision | ReleaseOutcome | OpFault] = {}
        with self._lock:
            pending = list(enumerate(ops))
            while pending:
                decisions: dict[int, AdmissionDecision | OpFault] = {}
                requests = [
                    (k, (op.period_s, op.payload_bits))
                    for k, (_, op) in enumerate(pending)
                    if op.kind in ("check", "admit")
                ]
                for (k, _), decision in zip(
                    requests,
                    self._decide_many([r for _, r in requests], faults=True),
                ):
                    decisions[k] = decision
                consumed = 0
                for k, (i, op) in enumerate(pending):
                    consumed = k + 1
                    if op.kind == "release":
                        try:
                            outcome = self.release(
                                op.stream_id, idempotent=op.idempotent
                            )
                        except AdmissionError as exc:
                            results[i] = OpFault(type(exc).__name__, str(exc))
                            continue
                        results[i] = outcome
                        if outcome.released:
                            break  # state changed: re-evaluate the rest
                        continue
                    if op.kind not in ("check", "admit"):
                        results[i] = OpFault(
                            "ServiceError", f"unknown operation kind {op.kind!r}"
                        )
                        continue
                    decision = decisions[k]
                    if (
                        isinstance(decision, OpFault)
                        or op.kind == "check"
                        or not decision.admitted
                    ):
                        results[i] = decision
                        continue
                    results[i] = self._commit(
                        op.period_s, op.payload_bits, decision
                    )
                    break  # state changed: re-evaluate the rest
                pending = pending[consumed:]
        return [results[i] for i in range(len(ops))]
