"""Routing state shared by the cluster router and the test harness.

Two pieces live here because both the asyncio router *and* the
differential-fuzz harness need them, and they must be the same code —
a property pinned against a test-only re-implementation of routing
would pin nothing:

* :class:`ClusterDirectory` — per-request shard selection (consistent
  hash over the stream key) plus the fleet stream-id table.  Worker-local
  stream ids are per-process counters, so two shards both hand out id
  ``1``; the front translates every admitted stream to a fleet-unique
  id and back on release.  Clients see one id space, exactly as if a
  single controller served them.

* :class:`InProcessCluster` — N real :class:`AdmissionController`
  workers behind a :class:`ClusterDirectory` and a
  :class:`~repro.cluster.budget.BudgetLedger`, dispatching through
  ``process_batch`` just as the service's micro-batcher does, but all
  in one process with no sockets.  The ``cluster_shard_equiv`` and
  ``cluster_budget_sound`` fuzz properties drive this harness; the
  subprocess cluster (supervisor + router) runs the same directory and
  ledger code against real worker processes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.admission import AdmissionOp, OpFault, ReleaseOutcome
from repro.cluster.budget import BudgetLedger
from repro.cluster.hashring import HashRing, stream_key
from repro.errors import ConfigurationError

__all__ = ["ClusterDirectory", "InProcessCluster"]


class ClusterDirectory:
    """Shard selection and fleet-wide stream-id translation.

    Single-writer: the router mutates it only from its event loop, the
    in-process harness from its single thread.
    """

    def __init__(self, shard_ids):
        self.ring = HashRing(shard_ids)
        self._next_fleet_id = 1
        self._streams: dict[int, tuple[str, int]] = {}

    @property
    def shard_ids(self) -> tuple:
        """Live shards, in ring order."""
        return self.ring.shards

    # -- shard selection -----------------------------------------------------

    def route_stream(self, period_s: float, payload_bits: float) -> str:
        """The shard a check/admit for this candidate goes to."""
        return self.ring.lookup(stream_key(period_s, payload_bits))

    def owner_of(self, fleet_id: int) -> tuple | None:
        """``(shard_id, local_id)`` for a fleet stream id, or None."""
        return self._streams.get(fleet_id)

    # -- id translation ------------------------------------------------------

    def register_admit(self, shard_id: str, local_id: int) -> int:
        """Record an admitted stream; returns its fleet-unique id."""
        fleet_id = self._next_fleet_id
        self._next_fleet_id += 1
        self._streams[fleet_id] = (shard_id, local_id)
        return fleet_id

    def forget(self, fleet_id: int) -> None:
        """Drop a released stream's translation entry."""
        self._streams.pop(fleet_id, None)

    def streams_of(self, shard_id: str) -> list:
        """The fleet ids currently mapped to one shard."""
        return [
            fleet_id
            for fleet_id, (shard, _) in self._streams.items()
            if shard == shard_id
        ]

    # -- membership ----------------------------------------------------------

    def drop_shard(self, shard_id: str) -> list:
        """Remove a dead shard: rebalance the ring, drop its streams.

        Returns the fleet ids that died with the worker (their admitted
        state was process memory).  Subsequent releases of those ids
        answer unknown-stream — exactly what a restarted single
        controller would say.
        """
        if len(self.ring.shards) <= 1:
            raise ConfigurationError(
                "cannot drop the last shard from the directory"
            )
        self.ring = self.ring.without(shard_id)
        dead = self.streams_of(shard_id)
        for fleet_id in dead:
            self._streams.pop(fleet_id, None)
        return dead

    def add_shard(self, shard_id: str) -> None:
        """Admit a (re)started worker to the ring."""
        self.ring = self.ring.with_shard(shard_id)


class InProcessCluster:
    """A whole sharded cluster in one process, for tests and fuzzing.

    Workers are real controllers built by ``controller_factory`` (one
    call per shard — each must return a *fresh* controller), leases come
    from an even :meth:`~repro.cluster.budget.BudgetLedger.split_evenly`
    and are acknowledged immediately (in-process, the "worker" hears the
    new cap synchronously).  Every operation a shard executes is also
    appended to ``histories[shard_id]`` in worker-local terms, so a
    differential check can replay the exact subsequence against a
    standalone controller.
    """

    def __init__(
        self,
        shard_ids,
        controller_factory,
        *,
        utilization_cap: float = 0.9,
    ):
        self.directory = ClusterDirectory(shard_ids)
        self.ledger = BudgetLedger(utilization_cap)
        self.workers = {shard: controller_factory() for shard in shard_ids}
        self.histories: dict[str, list] = {shard: [] for shard in shard_ids}
        targets = self.ledger.split_evenly(shard_ids)
        for shard, target in targets.items():
            self.workers[shard].set_utilization_cap(target)
            self.ledger.acknowledge(shard, target)

    def fleet_utilization(self) -> float:
        """Sum of the live workers' admitted utilizations."""
        return sum(w.utilization() for w in self.workers.values())

    def kill_shard(self, shard_id: str) -> list:
        """Simulate a worker death: drop it, rebalance, reclaim budget.

        The freed lease is redistributed evenly across the survivors
        (grant + immediate ack, as the router's reconciler would after
        the workers confirm).  Returns the fleet ids lost with the
        worker.
        """
        if shard_id not in self.workers:
            raise ConfigurationError(f"unknown shard {shard_id!r}")
        dead = self.directory.drop_shard(shard_id)
        self.workers.pop(shard_id)
        self.ledger.reclaim(shard_id)
        survivors = self.directory.shard_ids
        for shard, target in self.ledger.split_evenly(survivors).items():
            self.workers[shard].set_utilization_cap(target)
            self.ledger.acknowledge(shard, target)
        return dead

    def dispatch(self, op: AdmissionOp):
        """Execute one operation through routing and id translation.

        Returns exactly what a single controller's ``process_batch``
        would: an :class:`AdmissionDecision`, :class:`ReleaseOutcome`,
        or :class:`OpFault` — with stream ids in *fleet* terms.
        """
        if op.kind in ("check", "admit"):
            shard = self.directory.route_stream(op.period_s, op.payload_bits)
            local_op = op
            self.histories[shard].append(local_op)
            result = self.workers[shard].process_batch([local_op])[0]
            if (
                op.kind == "admit"
                and not isinstance(result, OpFault)
                and result.admitted
            ):
                fleet_id = self.directory.register_admit(
                    shard, result.stream_id
                )
                result = replace(result, stream_id=fleet_id)
            return result
        if op.kind == "release":
            owner = self.directory.owner_of(op.stream_id)
            if owner is None:
                # No shard ever admitted this fleet id (or its worker
                # died): answered at the front, same wording as the
                # controller's own unknown-stream answer.
                if op.idempotent:
                    return ReleaseOutcome(
                        released=False, stream_id=op.stream_id
                    )
                return OpFault(
                    "AdmissionError",
                    f"unknown or already-released stream id: "
                    f"{op.stream_id!r}",
                )
            shard, local_id = owner
            local_op = AdmissionOp.release(
                local_id, idempotent=op.idempotent
            )
            self.histories[shard].append(local_op)
            result = self.workers[shard].process_batch([local_op])[0]
            if isinstance(result, ReleaseOutcome):
                if result.released:
                    self.directory.forget(op.stream_id)
                result = replace(result, stream_id=op.stream_id)
            return result
        return OpFault(
            "ServiceError", f"unknown operation kind {op.kind!r}"
        )
