"""Sharded admission cluster: prefork workers behind a routing front.

The single-process admission service (:mod:`repro.service`) answers
~thousands of decisions per second on one core; this package scales it
*out* — N worker processes, each running the unmodified asyncio
admission server on its own port, behind one router process:

* :mod:`repro.cluster.hashring` — consistent-hash routing over stream
  keys, so repeat candidates land on the same shard and its
  prefix-keyed verdict cache stays hot;
* :mod:`repro.cluster.budget` — the lease-based global utilization
  budget.  Capacity on a token ring is a *global* quantity (Theorems
  4.1/5.1 of the paper judge the whole message set; Jain's FDDI
  analysis tunes one TTRT for the whole ring), so independent deciders
  must split one budget: the router grants each worker a utilization
  lease, every worker enforces its lease locally (the ``budget`` gate
  of :class:`repro.admission.AdmissionController`), and the invariant
  ``sum(leases) <= cap`` keeps the fleet jointly sound;
* :mod:`repro.cluster.core` — shard directory and fleet-wide stream-id
  translation shared by the router and the in-process test harness;
* :mod:`repro.cluster.supervisor` — the prefork worker pool (spawn,
  health, automatic restart of dead workers, graceful drain);
* :mod:`repro.cluster.worker` — the worker entry point
  (``python -m repro.cluster.worker``);
* :mod:`repro.cluster.router` — the asyncio front process: forwards
  requests (its HTTP framing is :mod:`repro.service.http`, shared with
  the admission server), retries around dead workers after a ring
  rebalance,
  aggregates ``/healthz`` and ``/metrics`` fleet-wide (per-shard
  labels), and reconciles the budget split.

Decision fidelity is pinned by the ``cluster_shard_equiv`` fuzz
property: on shard-local workloads every worker's decisions are
bit-identical to a standalone single-worker controller given the same
subsequence; ``cluster_budget_sound`` pins the fleet's aggregate
utilization under the single-controller cap at every step.
"""

from repro.cluster.budget import BudgetLedger, Lease
from repro.cluster.config import ClusterConfig
from repro.cluster.core import ClusterDirectory, InProcessCluster
from repro.cluster.hashring import HashRing, stream_key

__all__ = [
    "BudgetLedger",
    "Lease",
    "ClusterConfig",
    "ClusterDirectory",
    "InProcessCluster",
    "HashRing",
    "stream_key",
]
