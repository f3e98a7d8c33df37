"""Sharded admission cluster: ring, budget, routing, pool, contention.

The load-bearing properties, mirrored from the fuzz harness
(``cluster_shard_equiv`` / ``cluster_budget_sound``):

* sharding is pure deployment work — decisions through the cluster are
  bit-identical to standalone controllers replaying each shard's local
  op subsequence;
* capacity is one global quantity — the lease ledger never grants past
  the fleet cap, and the fleet never jointly admits past it, including
  across worker death, lease reclaim, and redistribution;
* a worker death only moves that worker's hash range, and in-flight
  traffic is answered after an internal retry — no request is lost.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import time

import pytest

from repro.admission import (
    AdmissionController,
    AdmissionOp,
    AdmissionPolicy,
    OpFault,
    ReleaseOutcome,
)
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.cache.store import ResultCache
from repro.cluster.budget import BudgetLedger
from repro.cluster.config import ClusterConfig, shard_name, worker_service_config
from repro.cluster.core import ClusterDirectory, InProcessCluster
from repro.cluster.hashring import HashRing, stream_key
from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import WorkerPool
from repro.errors import ConfigurationError
from repro.network.standards import ieee_802_5_ring, paper_frame_format
from repro.obs import metrics
from repro.service.client import AsyncServiceClient
from repro.service.protocol import ServiceConfig
from repro.service.server import AdmissionServer
from repro.units import mbps, milliseconds

FRAME = paper_frame_format()


def make_controller(n=8, policy=AdmissionPolicy.EXACT, utilization_cap=None):
    analysis = PDPAnalysis(
        ieee_802_5_ring(mbps(16), n_stations=n), FRAME, PDPVariant.MODIFIED
    )
    return AdmissionController(
        analysis, policy, utilization_cap=utilization_cap
    )


# -- consistent hashing ----------------------------------------------------------


class TestHashRing:
    def test_deterministic_across_instances(self):
        shards = ["w0", "w1", "w2"]
        first = HashRing(shards)
        second = HashRing(shards)
        keys = [stream_key(0.01 * (i + 1), 64.0 * i) for i in range(200)]
        assert [first.lookup(k) for k in keys] == [
            second.lookup(k) for k in keys
        ]

    def test_reasonable_balance(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        counts = {shard: 0 for shard in ring.shards}
        for i in range(2000):
            counts[ring.lookup(f"key-{i}")] += 1
        # Virtual nodes keep the spread coarse but bounded: no shard may
        # own more than half or fewer than 5% of uniformly drawn keys.
        assert max(counts.values()) < 1000
        assert min(counts.values()) > 100

    def test_minimal_disruption_on_removal(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        keys = [f"key-{i}" for i in range(1000)]
        owners = {key: ring.lookup(key) for key in keys}
        shrunk = ring.without("w2")
        for key in keys:
            if owners[key] != "w2":
                assert shrunk.lookup(key) == owners[key]
            else:
                assert shrunk.lookup(key) != "w2"

    def test_with_shard_restores_ownership(self):
        ring = HashRing(["w0", "w1", "w2"])
        keys = [f"key-{i}" for i in range(500)]
        owners = {key: ring.lookup(key) for key in keys}
        rejoined = ring.without("w1").with_shard("w1")
        assert [rejoined.lookup(k) for k in keys] == [owners[k] for k in keys]

    def test_stream_key_distinguishes_float_repr(self):
        assert stream_key(0.1, 64.0) != stream_key(0.1, 640.0)
        assert stream_key(0.25, 64.0) == stream_key(0.25, 64.0)

    def test_empty_ring_rejected(self):
        with pytest.raises(ConfigurationError):
            HashRing([])
        with pytest.raises(ConfigurationError):
            HashRing(["w0"]).without("w0")


# -- the budget ledger -----------------------------------------------------------


class TestBudgetLedger:
    def test_even_split_is_exact(self):
        ledger = BudgetLedger(0.9)
        targets = ledger.split_evenly(["w0", "w1", "w2"])
        assert targets == {"w0": 0.3, "w1": 0.3, "w2": 0.3}
        assert ledger.granted_total() == pytest.approx(0.9)
        assert ledger.sound()

    def test_grow_clips_to_headroom(self):
        ledger = BudgetLedger(1.0)
        assert ledger.grant("w0", 0.7) == 0.7
        # Only 0.3 of headroom is left; a 0.6 ask is clipped.
        assert ledger.grant("w1", 0.6) == pytest.approx(0.3)
        assert ledger.sound()

    def test_two_phase_shrink_charges_until_ack(self):
        ledger = BudgetLedger(1.0)
        ledger.grant("w0", 0.8)
        ledger.grant("w0", 0.2)  # shrink: target drops, charge stays
        lease = ledger.lease_of("w0")
        assert lease.target == pytest.approx(0.2)
        assert lease.granted == pytest.approx(0.8)
        assert not lease.settled
        # The freed budget is NOT re-grantable yet.
        assert ledger.grant("w1", 0.5) == pytest.approx(0.2)
        ledger.acknowledge("w0", 0.2)
        assert ledger.lease_of("w0").settled
        # Now it is.
        assert ledger.grant("w1", 0.5) == pytest.approx(0.5)
        assert ledger.sound()

    def test_stale_ack_cannot_shed_a_later_grow(self):
        ledger = BudgetLedger(1.0)
        ledger.grant("w0", 0.3)
        ledger.acknowledge("w0", 0.3)
        ledger.grant("w0", 0.6)  # grow charged immediately
        ledger.acknowledge("w0", 0.3)  # stale ack from before the grow
        assert ledger.lease_of("w0").granted == pytest.approx(0.6)

    def test_reclaim_frees_the_whole_lease(self):
        ledger = BudgetLedger(0.9)
        ledger.split_evenly(["w0", "w1", "w2"])
        assert ledger.reclaim("w1") == pytest.approx(0.3)
        assert ledger.lease_of("w1") is None
        assert ledger.granted_total() == pytest.approx(0.6)
        targets = ledger.split_evenly(["w0", "w2"])
        for shard in ("w0", "w2"):
            ledger.acknowledge(shard, targets[shard])
        assert ledger.granted_total() == pytest.approx(0.9)
        assert ledger.sound()

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            BudgetLedger(-0.1)
        with pytest.raises(ConfigurationError):
            BudgetLedger(1.0).grant("w0", -0.2)


# -- cluster config --------------------------------------------------------------


class TestClusterConfig:
    def test_shard_ids_and_worker_config(self):
        config = ClusterConfig(n_workers=3, utilization_cap=0.6)
        assert config.shard_ids() == ("w0", "w1", "w2")
        assert shard_name(7) == "w7"
        service = worker_service_config(config, "w1", 0.2)
        assert service.shard_id == "w1"
        assert service.port == 0
        assert service.utilization_cap == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_workers=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(utilization_cap=-1.0)


# -- the budget gate on the controller -------------------------------------------


class TestBudgetGate:
    def test_budget_rejection_before_schedulability(self):
        controller = make_controller(utilization_cap=0.02)
        first = controller.request(milliseconds(50), 8_500)
        assert first.admitted
        denial = controller.request(milliseconds(50), 8_500)
        assert not denial.admitted
        assert denial.tested_by == "budget"
        assert denial.utilization_after > 0.02

    def test_zero_cap_admits_nothing(self):
        controller = make_controller(utilization_cap=0.0)
        denial = controller.request(milliseconds(50), 64)
        assert not denial.admitted
        assert denial.tested_by == "budget"

    def test_cap_can_be_raised_live(self):
        controller = make_controller(utilization_cap=0.0)
        assert not controller.request(milliseconds(50), 8_000).admitted
        previous = controller.set_utilization_cap(0.5)
        assert previous == 0.0
        assert controller.request(milliseconds(50), 8_000).admitted


# -- in-process cluster: equivalence and id translation --------------------------


def op_stream(seed: int, n: int = 40):
    import random

    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.4:
            ops.append(
                AdmissionOp.admit(
                    rng.choice([0.02, 0.04, 0.08, 0.16]),
                    float(rng.randrange(64, 4096, 64)),
                )
            )
        elif roll < 0.75:
            ops.append(
                AdmissionOp.check(
                    rng.choice([0.02, 0.04, 0.08]),
                    float(rng.randrange(64, 4096, 64)),
                )
            )
        else:
            ops.append(
                AdmissionOp.release(
                    rng.randrange(1, 30), idempotent=rng.random() < 0.5
                )
            )
    return ops


class TestInProcessCluster:
    def test_shard_local_replay_is_bit_identical(self):
        shard_ids = ["w0", "w1", "w2"]
        cluster = InProcessCluster(shard_ids, make_controller, utilization_cap=0.6)
        for op in op_stream(11):
            cluster.dispatch(op)
        for shard in shard_ids:
            lease = cluster.ledger.lease_of(shard)
            oracle = make_controller(utilization_cap=lease.target)
            replayed = oracle.process_batch(list(cluster.histories[shard]))
            assert len(replayed) == len(cluster.histories[shard])
            # The worker and the standalone oracle saw identical local
            # sequences, so their end states must agree exactly.
            worker = cluster.workers[shard]
            assert worker.admitted_count == oracle.admitted_count
            assert worker.utilization() == oracle.utilization()

    def test_fleet_ids_are_unique_and_translate(self):
        cluster = InProcessCluster(
            ["w0", "w1"], make_controller, utilization_cap=0.8
        )
        fleet_ids = []
        for period in (0.02, 0.04, 0.08, 0.16):
            result = cluster.dispatch(AdmissionOp.admit(period, 512.0))
            assert result.admitted
            fleet_ids.append(result.stream_id)
        assert len(set(fleet_ids)) == len(fleet_ids)
        outcome = cluster.dispatch(AdmissionOp.release(fleet_ids[0]))
        assert isinstance(outcome, ReleaseOutcome)
        assert outcome.released and outcome.stream_id == fleet_ids[0]
        again = cluster.dispatch(AdmissionOp.release(fleet_ids[0]))
        assert isinstance(again, OpFault)
        assert "unknown or already-released" in again.detail

    def test_unknown_fleet_id_idempotent_release(self):
        cluster = InProcessCluster(["w0", "w1"], make_controller)
        outcome = cluster.dispatch(AdmissionOp.release(999, idempotent=True))
        assert isinstance(outcome, ReleaseOutcome)
        assert not outcome.released

    def test_fleet_never_exceeds_global_cap(self):
        cap = 0.05
        cluster = InProcessCluster(
            ["w0", "w1", "w2"], make_controller, utilization_cap=cap
        )
        for op in op_stream(23, n=60):
            cluster.dispatch(op)
            assert cluster.ledger.sound()
            assert cluster.fleet_utilization() <= cap + 1e-9

    def test_kill_shard_reclaims_and_redistributes(self):
        cap = 0.3
        cluster = InProcessCluster(
            ["w0", "w1", "w2"], make_controller, utilization_cap=cap
        )
        admitted = cluster.dispatch(AdmissionOp.admit(0.02, 512.0))
        assert admitted.admitted
        owner, _ = cluster.directory.owner_of(admitted.stream_id)
        dead = cluster.kill_shard(owner)
        assert admitted.stream_id in dead
        assert cluster.ledger.lease_of(owner) is None
        assert cluster.ledger.granted_total() <= cap + 1e-9
        survivors = cluster.directory.shard_ids
        assert owner not in survivors and len(survivors) == 2
        # Each survivor's lease grew to cap/2.
        for shard in survivors:
            assert cluster.ledger.lease_of(shard).granted == pytest.approx(
                cap / 2
            )
        # Releasing the dead worker's stream answers unknown-stream.
        outcome = cluster.dispatch(
            AdmissionOp.release(admitted.stream_id, idempotent=True)
        )
        assert not outcome.released

    def test_directory_refuses_to_drop_last_shard(self):
        directory = ClusterDirectory(["w0"])
        with pytest.raises(ConfigurationError):
            directory.drop_shard("w0")


# -- the router over real sockets ------------------------------------------------


def _worker_config(shard_id: str, cap: float) -> ServiceConfig:
    return ServiceConfig(port=0, shard_id=shard_id, utilization_cap=cap)


def _period_routed_to(router: ClusterRouter, shard_id: str) -> float:
    """A period whose 512-bit stream the router hashes to ``shard_id``."""
    return next(
        period
        for period in (0.02 + 0.001 * i for i in range(1000))
        if router.directory.route_stream(period, 512.0) == shard_id
    )


class TestClusterRouter:
    def run_router(self, coro_fn, n_workers=2, cap=0.6):
        """Start n in-process servers behind a router; run the probe."""

        async def main():
            servers = []
            for i in range(n_workers):
                server = AdmissionServer(
                    _worker_config(shard_name(i), cap / n_workers)
                )
                await server.start()
                servers.append(server)
            config = ClusterConfig(
                n_workers=n_workers,
                utilization_cap=cap,
                service=ServiceConfig(port=0),
            )
            router = ClusterRouter(config, pool=None)
            for i, server in enumerate(servers):
                router.add_backend(shard_name(i), "127.0.0.1", server.port)
            await router.start()
            try:
                async with AsyncServiceClient(
                    "127.0.0.1", router.port
                ) as client:
                    return await coro_fn(router, servers, client)
            finally:
                await router.drain_and_stop()
                for server in servers:
                    await server.drain_and_stop()

        return asyncio.run(main())

    def test_routes_and_translates_ids(self):
        async def probe(router, servers, client):
            ids, shards = [], set()
            for i in range(10):
                status, payload, headers = await client.request(
                    "POST",
                    "/v1/admit",
                    {"period_s": 0.02 + 0.005 * i, "payload_bits": 512.0},
                )
                assert status == 200
                shards.add(client.last_headers.get("x-shard-id"))
                if payload["admitted"]:
                    ids.append(payload["stream_id"])
            assert len(ids) == len(set(ids))
            assert len(shards) == 2  # hash spreads this catalogue
            status, payload, _ = await client.request(
                "POST", "/v1/release", {"stream_id": ids[0]}
            )
            assert status == 200 and payload["released"]
            status, payload, _ = await client.request(
                "POST", "/v1/release", {"stream_id": ids[0]}
            )
            assert status == 404
            assert "unknown or already-released" in payload["detail"]
            return True

        assert self.run_router(probe)

    def test_fleet_healthz_aggregates_shards(self):
        async def probe(router, servers, client):
            status, doc, _ = await client.request("GET", "/healthz", None)
            assert status == 200
            assert doc["status"] == "ok"
            assert doc["workers"] == 2 and doc["reachable"] == 2
            assert set(doc["shards"]) == {"w0", "w1"}
            for shard, shard_doc in doc["shards"].items():
                assert shard_doc["shard_id"] == shard
                assert shard_doc["worker_pid"] == os.getpid()
            assert doc["fleet"]["budget_sound"] is True
            assert doc["fleet"]["utilization_cap"] == pytest.approx(0.6)
            return True

        assert self.run_router(probe)

    def test_fleet_metrics_merge_and_labels(self):
        async def probe(router, servers, client):
            await client.request(
                "POST", "/v1/check", {"period_s": 0.02, "payload_bits": 512.0}
            )
            status, doc, _ = await client.request("GET", "/metrics", None)
            assert status == 200
            assert set(doc["shards"]) == {"w0", "w1"}
            raw = await client.request(
                "GET", "/metrics?format=prometheus", None, decode=False
            )
            text = raw[1].decode("utf-8")
            assert 'shard_id="w0"' in text or 'shard_id="w1"' in text
            assert 'shard_id="router"' in text
            type_lines = [
                line for line in text.splitlines()
                if line.startswith("# TYPE ")
            ]
            assert len(type_lines) == len(set(type_lines))
            return True

        assert self.run_router(probe)

    def test_worker_death_reroutes_and_loses_no_request(self):
        async def probe(router, servers, client):
            admitted = []
            for i in range(8):
                status, payload, _ = await client.request(
                    "POST",
                    "/v1/admit",
                    {"period_s": 0.02 + 0.01 * i, "payload_bits": 256.0},
                )
                assert status == 200
                if payload["admitted"]:
                    admitted.append(payload["stream_id"])
            # Hard-stop one backend out from under the router.
            victim = "w0"
            await servers[0].drain_and_stop()
            answered = 0
            for i in range(10):
                status, payload, _ = await client.request(
                    "POST",
                    "/v1/check",
                    {"period_s": 0.03 + 0.01 * i, "payload_bits": 128.0},
                )
                # Every request gets a definite answer: the router
                # retries against the survivor after the rebalance.
                assert status == 200
                answered += 1
            assert answered == 10
            assert victim not in router.backends
            assert router.directory.shard_ids == ("w1",)
            # Releases of the dead worker's streams answer idempotently.
            for fleet_id in admitted:
                status, payload, _ = await client.request(
                    "POST",
                    "/v1/release",
                    {"stream_id": fleet_id, "idempotent": True},
                )
                assert status == 200
            return True

        assert self.run_router(probe)

    def test_respawned_worker_receives_its_lease(self):
        """A fresh (leaseless) respawn must end up enforcing its share.

        Regression: grant() charges grows immediately, so right after
        the router re-levels, the *ledger* already reads settled for
        the respawned shard — the push must key on what the worker
        acknowledged, not on the ledger arithmetic, or the respawn
        stays at cap 0 forever and rejects everything on budget.
        """

        async def probe(router, servers, client):
            # Supervisor-confirmed death of w0: drop + reclaim.
            router._drop_backend("w0")
            router.ledger.reclaim("w0")
            await router.reconcile_leases()  # survivor grows to the cap
            await servers[0].drain_and_stop()
            fresh = AdmissionServer(_worker_config("w0", 0.0))
            await fresh.start()
            try:
                router.add_backend("w0", "127.0.0.1", fresh.port)
                # Beat 1 shrinks the survivor; beat 2 grows the respawn
                # into the freed headroom and pushes the lease.
                await router.reconcile_leases()
                await router.reconcile_leases()
                assert fresh.controller.utilization_cap == pytest.approx(
                    0.3
                )
                assert router.ledger.sound()
                assert router.ledger.granted_total() == pytest.approx(0.6)
            finally:
                await fresh.drain_and_stop()
            return True

        assert self.run_router(probe)

    def test_draining_router_rejects_with_503(self):
        async def probe(router, servers, client):
            router._draining = True
            status, payload, _ = await client.request(
                "POST", "/v1/check", {"period_s": 0.02, "payload_bits": 64.0}
            )
            router._draining = False
            assert status == 503 and payload["error"] == "Draining"
            return True

        assert self.run_router(probe)

    def test_op_forwarded_before_the_drain_is_answered(self):
        async def probe(router, servers, client):
            period = _period_routed_to(router, "w0")
            batcher = servers[0].batcher
            batcher._flush = lambda: None  # hold the op in the worker
            pending = asyncio.create_task(
                client.request(
                    "POST", "/v1/admit", {"period_s": period, "payload_bits": 512.0}
                )
            )
            for _ in range(100):
                if batcher.queue_depth:
                    break
                await asyncio.sleep(0.001)
            assert batcher.queue_depth == 1
            await router.drain_and_stop()
            del batcher._flush
            batcher._flush()
            status, payload, headers = await asyncio.wait_for(pending, 10.0)
            assert status == 200 and payload["admitted"] is True
            assert headers["x-shard-id"] == "w0"
            return True

        assert self.run_router(probe)

    def test_unknown_endpoint_404(self):
        async def probe(router, servers, client):
            status, payload, _ = await client.request(
                "GET", "/v1/traces", None
            )
            assert status == 404
            return True

        assert self.run_router(probe)


class TestRouterClientIdentity:
    """The worker's rate limiter keys each client through the router as
    it does on a direct request: by ``X-Client-Id``, not by the
    router's address."""

    @staticmethod
    async def exchange(port: int, client_id: str, ops) -> list[int]:
        statuses = []
        async with AsyncServiceClient(
            "127.0.0.1", port, client_id=client_id
        ) as client:
            for path, body in ops:
                if path == "/v1/release":  # the stream the last admit got
                    body = {"stream_id": admitted}
                status, payload, _ = await client.request("POST", path, body)
                if path == "/v1/admit":
                    admitted = payload.get("stream_id")
                statuses.append(status)
        return statuses

    @pytest.mark.parametrize("front", ["server", "router"])
    def test_distinct_clients_get_distinct_buckets(self, front):
        stream = {"period_s": 0.05, "payload_bits": 512.0}
        checks = [("/v1/check", stream)] * 3

        async def main():
            worker = AdmissionServer(
                ServiceConfig(
                    port=0, shard_id="w0", rate_limit_rps=1.0,
                    rate_limit_burst=3.0,
                )
            )
            await worker.start()
            router = None
            port = worker.port
            if front == "router":
                router = ClusterRouter(
                    ClusterConfig(n_workers=1, service=ServiceConfig(port=0)),
                    pool=None,
                )
                router.add_backend("w0", "127.0.0.1", worker.port)
                await router.start()
                port = router.port
            try:
                alice = await self.exchange(port, "alice", checks)
                over = await self.exchange(port, "alice", checks[:1])
                bob = await self.exchange(
                    port,
                    "bob",
                    [("/v1/admit", stream), ("/v1/release", None), *checks[:1]],
                )
                return alice, over, bob
            finally:
                if router is not None:
                    await router.drain_and_stop()
                await worker.drain_and_stop()

        alice, over, bob = asyncio.run(main())
        assert alice == [200, 200, 200]
        assert over == [429]
        assert bob == [200, 200, 200]


async def _hang_up(reader, writer):
    """A worker that reads one request head and hangs up."""
    await reader.readuntil(b"\r\n\r\n")
    writer.close()


async def _malformed_status(reader, writer):
    """A worker that answers one request with a malformed status line."""
    await reader.readuntil(b"\r\n\r\n")
    writer.write(b"NONSENSE\r\nContent-Length: 0\r\n\r\n")
    await reader.read()  # until the router hangs up
    writer.close()


FAKE_WORKERS = {"hang-up": _hang_up, "malformed-status": _malformed_status}


class TestBackendFailure:
    """A broken worker connection drops the worker and retries the op."""

    def run_fleet(self, probe, fakes, real_worker=True):
        """A router over fake workers (and one real one); run the probe.

        Fails if the probe hangs or anything reaches the loop's
        exception handler.
        """

        async def main():
            leaked = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: leaked.append(context)
            )
            peers = [await asyncio.start_server(fake, "127.0.0.1", 0) for fake in fakes]
            server = AdmissionServer(_worker_config("w0", 0.3))
            await server.start()
            router = ClusterRouter(
                ClusterConfig(
                    n_workers=len(fakes) + 1,
                    heartbeat_s=3600.0,
                    service=ServiceConfig(port=0),
                ),
                pool=None,
            )
            if real_worker:
                router.add_backend("w0", "127.0.0.1", server.port)
            for i, peer in enumerate(peers, start=1):
                port = peer.sockets[0].getsockname()[1]
                router.add_backend(shard_name(i), "127.0.0.1", port)
            await router.start()
            try:
                async with AsyncServiceClient("127.0.0.1", router.port) as client:
                    result = await asyncio.wait_for(probe(router, client), 10.0)
            finally:
                await router.drain_and_stop()
                await server.drain_and_stop()
                for peer in peers:
                    peer.close()
                    await peer.wait_closed()
            assert leaked == []
            return result

        return asyncio.run(main())

    @staticmethod
    def _retries() -> float:
        return metrics.snapshot().get("cluster.router.retries", {}).get(
            "value", 0.0
        )

    @pytest.mark.parametrize("fake", list(FAKE_WORKERS))
    def test_broken_worker_is_dropped_and_the_op_retried(self, fake):
        async def probe(router, client):
            period = _period_routed_to(router, "w1")
            before = self._retries()
            status, decision, headers = await client.request(
                "POST", "/v1/check", {"period_s": period, "payload_bits": 512.0}
            )
            return status, decision, headers, self._retries() - before, router

        status, decision, headers, retries, router = self.run_fleet(
            probe, [FAKE_WORKERS[fake]]
        )
        assert status == 200 and decision["admitted"] is True
        assert headers["x-shard-id"] == "w0"  # answered by the survivor
        assert retries == 1
        assert "w1" not in router.backends
        assert router.directory.shard_ids == ("w0",)

    def test_no_surviving_worker_answers_an_error(self):
        async def probe(router, client):
            before = self._retries()
            status, payload, _ = await client.request(
                "POST", "/v1/check", {"period_s": 0.02, "payload_bits": 512.0}
            )
            return status, payload, self._retries() - before, router

        status, payload, retries, router = self.run_fleet(
            probe, list(FAKE_WORKERS.values()), real_worker=False
        )
        assert status in (502, 503)
        assert payload["error"] in ("BadGateway", "NoWorkers")
        assert retries == 2
        assert router.backends == {}


# -- the worker /v1/lease endpoint ------------------------------------------------


class TestLeaseEndpoint:
    def test_lease_get_and_post_roundtrip(self):
        async def main():
            server = AdmissionServer(_worker_config("w0", 0.25))
            await server.start()
            try:
                async with AsyncServiceClient(
                    "127.0.0.1", server.port
                ) as client:
                    info = await client.lease()
                    assert info["utilization_cap"] == pytest.approx(0.25)
                    acked = await client.lease(utilization_cap=0.1)
                    assert acked["previous_cap"] == pytest.approx(0.25)
                    assert acked["utilization_cap"] == pytest.approx(0.1)
                    # The worker now enforces the lower lease: a stream
                    # demanding ~7.5 of utilization cannot fit under 0.1.
                    decision = await client.admit(0.0005, 60_000.0)
                    assert not decision["admitted"]
                    health = await client.healthz()
                    assert health["shard_id"] == "w0"
                    assert health["worker_pid"] == os.getpid()
                    assert health["utilization_cap"] == pytest.approx(0.1)
                    assert "cache_errors" in health
            finally:
                await server.drain_and_stop()
            return True

        assert asyncio.run(main())


# -- the subprocess pool ---------------------------------------------------------


class TestWorkerPool:
    def test_spawn_kill_restart_drain(self, tmp_path):
        config = ClusterConfig(
            n_workers=2,
            utilization_cap=0.6,
            runtime_dir=str(tmp_path),
            restart_backoff_s=0.05,
            service=ServiceConfig(port=0, drain_grace_s=1.0),
        )
        pool = WorkerPool(config)
        pool.start(timeout_s=30)
        try:
            running = pool.running()
            assert set(running) == {"w0", "w1"}
            ports = {port for _, port in running.values()}
            assert len(ports) == 2
            # SIGKILL one worker; poll must observe the death and, after
            # the backoff, respawn it leaseless.
            pool.kill("w0", hard=True)
            died = started = False
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                for event in pool.poll():
                    died = died or event[:2] == ("died", "w0")
                    started = started or event[:2] == ("started", "w0")
                if started:
                    break
                time.sleep(0.05)
            assert died and started
            new_pid, new_port = pool.running()["w0"]
            assert new_pid != running["w0"][0]
            assert pool.workers["w0"].initial_cap == 0.0
        finally:
            pool.drain(grace_s=5.0)
        assert all(
            handle.process.poll() is not None
            for handle in pool.workers.values()
        )


# -- disk-cache contention across processes --------------------------------------


def _hammer_cache(directory: str, key: str, worker_index: int) -> None:
    cache = ResultCache(directory=directory)
    for round_number in range(200):
        cache.put(key, {"verdict": True, "round": round_number}, "admission")
        cache.get(key, "admission")


class TestCacheContention:
    def test_concurrent_same_key_writes_never_corrupt(self, tmp_path):
        """Two processes hammering one prefix key must never corrupt it.

        This is the cluster's shared-cache regime: two workers computing
        the same prefix-keyed verdict write the same path concurrently.
        Atomic temp-file + rename means a reader sees either the old or
        the new complete record — never a torn one.
        """
        directory = str(tmp_path)
        key = "ab" + "0" * 14  # shared prefix shard ab/
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_hammer_cache, args=(directory, key, i))
            for i in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        fresh = ResultCache(directory=directory)
        payload = fresh.get(key, "admission")
        assert isinstance(payload, dict) and payload["verdict"] is True
        # And the on-disk record is a complete, valid JSON document.
        path = fresh._path(key, "admission")
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["key"] == key

    def test_corrupt_entry_counts_and_recovers(self, tmp_path):
        metrics.reset()
        cache = ResultCache(directory=str(tmp_path))
        key = "cd" + "1" * 14
        cache.put(key, {"verdict": False}, "admission")
        path = cache._path(key, "admission")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"key": "cd111", "payl')  # torn write
        fresh = ResultCache(directory=str(tmp_path))
        assert fresh.get(key, "admission") is None  # miss, not garbage
        snap = metrics.snapshot()
        assert snap["cache.admission.errors"]["value"] == 1.0
        assert not os.path.exists(path)  # dropped for recompute
