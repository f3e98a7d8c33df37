"""Admission service: wire protocol, micro-batching, backpressure, clients.

The load-bearing property is bit-identity: every decision served over
HTTP — batched, cached, or concurrent — must equal the decision a direct
:class:`AdmissionController` call would have produced.  The batcher tests
pin that under randomized interleavings; the server tests pin the
transport semantics (429 shedding, 503 draining, typed faults).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionOp,
    AdmissionPolicy,
    OpFault,
    ReleaseOutcome,
)
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ReproError,
    ServiceError,
)
from repro.network.standards import ieee_802_5_ring, paper_frame_format
from repro.obs import metrics, tracing
from repro.service import (
    AdmissionServer,
    AsyncServiceClient,
    Backoff,
    MicroBatcher,
    QueueFullError,
    ServiceClient,
    ServiceConfig,
    build_controller,
)
from repro.service.loadgen import (
    LoadConfig,
    bench_document,
    run_against_spawned_server,
)
from repro.service.protocol import (
    WIRE_SCHEMA_VERSION,
    decision_to_wire,
    fault_status,
    load_body,
    parse_release_body,
    parse_stream_body,
)
from repro.service.ratelimit import ClientRateLimiter, TokenBucket
from repro.units import mbps

FRAME = paper_frame_format()


def make_controller(n=8, policy=AdmissionPolicy.EXACT, cache_namespace=None):
    analysis = PDPAnalysis(
        ieee_802_5_ring(mbps(16), n_stations=n), FRAME, PDPVariant.MODIFIED
    )
    return AdmissionController(analysis, policy, cache_namespace=cache_namespace)


def issue_directly(controller, op):
    """One op against the direct-call API, faults captured like the batch."""
    try:
        if op.kind == "check":
            return controller.check(op.period_s, op.payload_bits)
        if op.kind == "admit":
            return controller.request(op.period_s, op.payload_bits)
        return controller.release(op.stream_id, idempotent=op.idempotent)
    except ReproError as exc:
        return OpFault(type(exc).__name__, str(exc))


# -- wire protocol --------------------------------------------------------------


class TestProtocol:
    def test_config_rejects_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(protocol="atm")

    def test_config_rejects_unknown_policy(self):
        # "hybrid" (bound first, exact on rejection) was a policy once.
        for policy in ("optimistic", "hybrid"):
            with pytest.raises(ConfigurationError):
                ServiceConfig(policy=policy)

    def test_config_rejects_degenerate_limits(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(queue_limit=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(batch_max=0)

    def test_build_controller_both_protocols(self):
        pdp = build_controller(ServiceConfig(protocol="pdp", n_stations=8))
        ttp = build_controller(ServiceConfig(protocol="ttp", n_stations=8))
        assert pdp.analysis.ring.n_stations == 8
        assert ttp.analysis.ring.n_stations == 8
        assert pdp.policy is AdmissionPolicy.EXACT

    def test_load_body_rejects_malformed_json(self):
        with pytest.raises(ServiceError):
            load_body(b"{not json")
        with pytest.raises(ServiceError):
            load_body(b"[1, 2, 3]")
        assert load_body(b"") == {}

    def test_parse_stream_body_requires_numbers(self):
        assert parse_stream_body(
            {"period_s": 0.032, "payload_bits": 512}
        ) == (0.032, 512.0)
        with pytest.raises(ServiceError):
            parse_stream_body({"period_s": "fast", "payload_bits": 512})
        with pytest.raises(ServiceError):
            parse_stream_body({"period_s": True, "payload_bits": 512})
        with pytest.raises(ServiceError):
            parse_stream_body({"payload_bits": 512})

    def test_parse_release_body_typing(self):
        assert parse_release_body({"stream_id": 3}) == (3, False)
        assert parse_release_body(
            {"stream_id": 3, "idempotent": True}
        ) == (3, True)
        with pytest.raises(ServiceError):
            parse_release_body({"stream_id": True})
        with pytest.raises(ServiceError):
            parse_release_body({"stream_id": 3, "idempotent": 1})

    def test_fault_status_maps_admission_errors_to_404(self):
        assert fault_status(OpFault("AdmissionError", "gone")) == 404
        assert fault_status(OpFault("MessageSetError", "bad")) == 422

    def test_decision_round_trips_every_field(self):
        controller = make_controller()
        decision = controller.check(0.032, 512.0)
        wire = decision_to_wire(decision)
        assert wire["schema_version"] == WIRE_SCHEMA_VERSION
        for field in (
            "admitted", "stream_id", "station", "reason", "tested_by",
            "utilization_after",
        ):
            assert wire[field] == getattr(decision, field)


# -- rate limiting --------------------------------------------------------------


class TestRateLimiter:
    def test_bucket_burst_then_refill(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=2.0, now=0.0)
        assert bucket.try_acquire(0.0) == 0.0
        assert bucket.try_acquire(0.0) == 0.0
        wait = bucket.try_acquire(0.0)
        assert wait == pytest.approx(0.1)
        assert bucket.try_acquire(0.0 + wait) == 0.0

    def test_disabled_limiter_always_grants(self):
        limiter = ClientRateLimiter(rate_per_s=0.0)
        assert not limiter.enabled
        assert all(limiter.check("c", float(t)) == 0.0 for t in range(100))

    def test_clients_are_independent(self):
        limiter = ClientRateLimiter(rate_per_s=1.0, burst=1.0)
        assert limiter.check("a", 0.0) == 0.0
        assert limiter.check("a", 0.0) > 0.0
        assert limiter.check("b", 0.0) == 0.0

    def test_lru_eviction_resets_idle_clients(self):
        limiter = ClientRateLimiter(rate_per_s=1.0, burst=1.0, max_clients=2)
        assert limiter.check("a", 0.0) == 0.0
        assert limiter.check("b", 0.0) == 0.0
        assert limiter.check("c", 0.0) == 0.0  # evicts "a"
        assert limiter.check("a", 0.0) == 0.0  # fresh bucket again


# -- micro-batcher --------------------------------------------------------------


_PERIODS = (0.008, 0.016, 0.032, 0.064)


def _decode_ops(encoded):
    ops = []
    for kind, period_idx, payload_step, stream_id, idempotent in encoded:
        if kind == 2:
            ops.append(AdmissionOp.release(stream_id, idempotent=idempotent))
        else:
            op = AdmissionOp.admit if kind == 1 else AdmissionOp.check
            ops.append(op(_PERIODS[period_idx], 64.0 * payload_step))
    return ops


class TestMicroBatcher:
    def run_batched(self, ops, **batcher_kwargs):
        controller = make_controller()

        async def go():
            batcher = MicroBatcher(controller, **batcher_kwargs)
            batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(op) for op in ops)
            )
            await batcher.drain()
            return results

        return asyncio.run(go())

    @settings(max_examples=25, deadline=None)
    @given(
        encoded=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, len(_PERIODS) - 1),
                st.integers(1, 64),
                st.integers(1, 10),
                st.booleans(),
            ),
            max_size=12,
        ),
        batch_max=st.sampled_from([1, 3, 8, 64]),
    )
    def test_bit_identical_to_sequential(self, encoded, batch_max):
        """Any interleaving, any batch size: results equal direct calls."""
        ops = _decode_ops(encoded)
        batched = self.run_batched(ops, batch_max=batch_max, queue_limit=256)
        sequential_controller = make_controller()
        expected = [issue_directly(sequential_controller, op) for op in ops]
        assert batched == expected

    @staticmethod
    def record_batches(controller):
        """Wrap ``controller.process_batch``; returns the list of batches
        it is called with, each as ``(ops, thread_ident)``."""
        calls = []
        process_batch = controller.process_batch

        def recording(ops):
            calls.append((list(ops), threading.get_ident()))
            return process_batch(ops)

        controller.process_batch = recording
        return calls

    def test_queue_full_sheds_with_retry_hint(self):
        controller = make_controller()
        calls = self.record_batches(controller)
        shed_before = metrics.counter("service.shed").value
        accepted = AdmissionOp.check(0.032, 512.0)
        overflow = AdmissionOp.check(0.064, 256.0)

        async def go():
            batcher = MicroBatcher(controller, batch_max=1, queue_limit=4)
            batcher.start()
            # queue_limit + 1 submits, all run within one tick: the flush
            # the first one scheduled runs only after the fifth is shed.
            tasks = [
                asyncio.ensure_future(batcher.submit(accepted)) for _ in range(4)
            ]
            tasks.append(asyncio.ensure_future(batcher.submit(overflow)))
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await batcher.drain()
            return results

        results = asyncio.run(go())
        *answered, shed = results
        assert isinstance(shed, QueueFullError)
        assert shed.retry_after_s > 0
        # Shed request was never evaluated; everything accepted was answered.
        assert all(isinstance(r, AdmissionDecision) for r in answered)
        assert [ops for ops, _ in calls] == [[accepted]] * 4
        assert metrics.counter("service.shed").value == shed_before + 1

    def test_one_tick_is_one_batch(self):
        controller = make_controller()
        calls = self.record_batches(controller)
        batches_before = metrics.counter("service.batches").value
        sizes = metrics.histogram("service.batch_size")
        count_before, total_before = sizes.count, sizes.total
        ops = [AdmissionOp.check(0.008 * (1 + i), 256.0 * (1 + i)) for i in range(5)]

        async def go():
            batcher = MicroBatcher(controller, batch_max=64)
            batcher.start()
            results = await asyncio.gather(*(batcher.submit(op) for op in ops))
            await batcher.drain()
            return results

        results = asyncio.run(go())
        assert [batch for batch, _ in calls] == [ops]
        assert results == [issue_directly(make_controller(), op) for op in ops]
        assert metrics.counter("service.batches").value == batches_before + 1
        assert sizes.count == count_before + 1
        assert sizes.total == total_before + len(ops)

    def test_batch_max_slices_a_burst_in_order(self):
        controller = make_controller()
        calls = self.record_batches(controller)
        ops = [AdmissionOp.check(0.008 * (1 + i % 4), 64.0 * (1 + i)) for i in range(8)]

        async def go():
            batcher = MicroBatcher(controller, batch_max=3)
            batcher.start()
            results = await asyncio.gather(*(batcher.submit(op) for op in ops))
            await batcher.drain()
            return results

        results = asyncio.run(go())
        assert [batch for batch, _ in calls] == [ops[0:3], ops[3:6], ops[6:8]]
        assert results == [issue_directly(make_controller(), op) for op in ops]

    def test_batches_run_on_the_loop_thread(self):
        controller = make_controller()
        calls = self.record_batches(controller)

        async def go():
            batcher = MicroBatcher(controller)
            batcher.start()
            await batcher.submit(AdmissionOp.check(0.032, 512.0))
            names = [thread.name for thread in threading.enumerate()]
            await batcher.drain()
            return threading.get_ident(), names

        loop_thread, names = asyncio.run(go())
        assert not any(name.startswith("repro-admit") for name in names)
        assert [ident for _, ident in calls] == [loop_thread]

    def test_failed_batch_answers_every_member_and_next_runs(self):
        controller = make_controller()
        process_batch = controller.process_batch
        failures = [RuntimeError("engine exploded")]

        def flaky(ops):
            if failures:
                raise failures.pop()
            return process_batch(ops)

        controller.process_batch = flaky
        op = AdmissionOp.check(0.032, 512.0)

        async def go():
            batcher = MicroBatcher(controller, batch_max=2)
            batcher.start()
            first = await asyncio.gather(
                *(batcher.submit(op) for _ in range(3)), return_exceptions=True
            )
            second = await batcher.submit(op)
            await batcher.drain()
            return first, second

        first, second = asyncio.run(go())
        # The whole failed slice is answered with the controller's own
        # exception (not a ServiceError, which the server would answer
        # 503 Draining); the next slice of the same flush and later
        # flushes still run.
        assert all(isinstance(r, RuntimeError) for r in first[:2])
        assert "engine exploded" in str(first[0])
        assert isinstance(first[2], AdmissionDecision)
        assert isinstance(second, AdmissionDecision)

    def test_drain_answers_everything_then_refuses(self):
        controller = make_controller()

        async def go():
            batcher = MicroBatcher(
                controller, batch_max=128, queue_limit=256
            )
            batcher.start()
            op = AdmissionOp.check(0.032, 512.0)
            tasks = [
                asyncio.ensure_future(batcher.submit(op)) for _ in range(32)
            ]
            await asyncio.sleep(0)  # let every submit enqueue
            await batcher.drain()
            results = await asyncio.gather(*tasks)
            assert len(results) == 32
            assert all(isinstance(r, AdmissionDecision) for r in results)
            with pytest.raises(ServiceError):
                await batcher.submit(op)

        asyncio.run(go())

    def test_results_identical_with_cache_on_and_off(self):
        ops = [AdmissionOp.check(0.032, 512.0) for _ in range(6)]
        ops += [AdmissionOp.admit(0.016, 256.0), AdmissionOp.check(0.032, 512.0)]

        def run_with(namespace):
            controller = make_controller(cache_namespace=namespace)

            async def go():
                batcher = MicroBatcher(controller)
                batcher.start()
                results = await asyncio.gather(
                    *(batcher.submit(op) for op in ops)
                )
                await batcher.drain()
                return results

            return asyncio.run(go())

        assert run_with(None) == run_with("admission")


# -- server end to end ----------------------------------------------------------


class _ServerThread:
    """Run an :class:`AdmissionServer` on its own loop in a thread, so
    blocking clients can be exercised from the test thread."""

    def __init__(self, config: ServiceConfig, controller=None):
        self._config = config
        self._controller = controller
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.server: AdmissionServer | None = None

    def __enter__(self) -> "AdmissionServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10.0), "server failed to start"
        return self.server

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)

    def _run(self) -> None:
        async def main():
            self.server = AdmissionServer(self._config, self._controller)
            self._stop = asyncio.Event()
            self._loop = asyncio.get_running_loop()
            await self.server.start()
            self._ready.set()
            await self._stop.wait()
            await self.server.drain_and_stop()

        asyncio.run(main())


class _SlowController:
    """Delegates to a real controller, but every batch takes ``delay_s`` —
    long enough for the intake queue to fill under concurrent load."""

    def __init__(self, inner, delay_s: float):
        self._inner = inner
        self._delay_s = delay_s

    def process_batch(self, ops):
        time.sleep(self._delay_s)
        return self._inner.process_batch(ops)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _FaultOnceController:
    """Delegates to a real controller, but its first batch raises a
    non-``ReproError``: a program fault, not an answer to any request."""

    def __init__(self, inner):
        self._inner = inner
        self._faulted = False

    def process_batch(self, ops):
        if not self._faulted:
            self._faulted = True
            raise RuntimeError("injected controller fault")
        return self._inner.process_batch(ops)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestServer:
    def test_failed_batch_is_an_internal_error_not_a_drain(self):
        """A batch whose controller raises answers 500 InternalError.  A
        503 Draining would make a cluster router retract a healthy
        worker; the server keeps serving."""
        controller = _FaultOnceController(make_controller())
        internal = metrics.counter("service.errors.internal")
        before = internal.value
        with _ServerThread(ServiceConfig(port=0, n_stations=8), controller) as server:
            with ServiceClient(port=server.port) as client:
                status, payload, headers = client.request(
                    "POST", "/v1/check", {"period_s": 0.032, "payload_bits": 512}
                )
                health = client.healthz()
                after = client.check(0.032, 512.0)
        assert status == 500
        assert payload["error"] == "InternalError"
        assert "injected controller fault" in payload["detail"]
        assert "Retry-After" not in headers
        assert internal.value == before + 1
        assert health["status"] == "ok"
        assert after["admitted"] is True

    def test_sync_client_full_tour(self):
        config = ServiceConfig(port=0, n_stations=8, policy="sufficient")
        with _ServerThread(config) as server:
            with ServiceClient(port=server.port) as client:
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["admitted"] == 0

                decision = client.check(0.032, 512.0)
                assert decision["admitted"] is True
                assert decision["stream_id"] is None

                admitted = client.admit(0.032, 512.0)
                assert admitted["admitted"] is True
                assert admitted["stream_id"] == 1
                assert client.healthz()["admitted"] == 1

                report = client.breakdown()
                assert report["streams"] == 1
                assert report["scale"] > 1.0

                released = client.release(admitted["stream_id"])
                assert released == {
                    "schema_version": WIRE_SCHEMA_VERSION,
                    "released": True,
                    "stream_id": 1,
                }
                with pytest.raises(AdmissionError):
                    client.release(admitted["stream_id"])
                again = client.release(admitted["stream_id"], idempotent=True)
                assert again["released"] is False

                snap = client.metrics()["metrics"]
                assert snap["service.requests"]["value"] >= 5
                assert all(
                    name.startswith(
                        (
                            "service.",
                            "cache.admission.",
                            "trace.",
                        )
                    )
                    for name in snap
                )

    def test_http_error_paths(self):
        config = ServiceConfig(port=0, n_stations=8)
        with _ServerThread(config) as server:
            with ServiceClient(port=server.port) as client:
                status, payload, _ = client.request("GET", "/nope")
                assert status == 404
                status, payload, _ = client.request("GET", "/v1/admit")
                assert status == 405
                status, payload, _ = client.request(
                    "POST", "/v1/check", {"period_s": "soon"}
                )
                assert status == 400
                status, payload, _ = client.request(
                    "POST", "/v1/check", {"period_s": -1.0, "payload_bits": 64}
                )
                assert status == 422  # library-level MessageSetError
                status, payload, _ = client.request(
                    "POST", "/v1/release", {"stream_id": 99}
                )
                assert status == 404
                assert payload["error"] == "AdmissionError"

    @pytest.mark.parametrize(
        "body",
        [
            b'{"period_s": NaN, "payload_bits": 100}',
            b'{"period_s": Infinity, "payload_bits": 100}',
            b'{"period_s": 0.01, "payload_bits": -Infinity}',
        ],
        ids=["nan-period", "inf-period", "-inf-payload"],
    )
    def test_non_finite_stream_is_unprocessable(self, body):
        """JSON ``NaN``/``Infinity`` parse as floats; the stream validator
        rejects them, so the wire answer is 422, not a batch failure."""
        config = ServiceConfig(port=0, n_stations=8)
        with _ServerThread(config) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                conn.request(
                    "POST", "/v1/check", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
        assert response.status == 422
        assert payload["error"] == "MessageSetError"

    def test_oversized_exact_test_is_unprocessable(self):
        """A check whose PDP exact test would need more than
        ``MAX_EXACT_POINTS`` scheduling points is answered 422."""
        config = ServiceConfig(port=0, n_stations=8, policy="exact")
        answers = []
        with _ServerThread(config) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                for path, period in (("/v1/admit", 0.001), ("/v1/check", 1e4)):
                    conn.request(
                        "POST", path,
                        body=json.dumps({"period_s": period, "payload_bits": 100}),
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    answers.append((response.status, json.loads(response.read())))
            finally:
                conn.close()
        (admit_status, _), (status, payload) = answers
        assert admit_status == 200
        assert status == 422
        assert payload["error"] == "MessageSetError"

    @pytest.mark.parametrize("policy", ["exact", "sufficient"])
    def test_ttp_overflowing_period_is_unprocessable(self, policy):
        """On a TTP ring beside an admitted stream, a 1e308 s period has no
        finite token visit count: 422, and the server keeps answering."""
        config = ServiceConfig(
            port=0, n_stations=8, protocol="ttp", policy=policy
        )
        answers = []
        with _ServerThread(config) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                for path, period in (
                    ("/v1/admit", 0.01),
                    ("/v1/check", 1e308),
                    ("/v1/check", 0.01),
                ):
                    conn.request(
                        "POST", path,
                        body=json.dumps({"period_s": period, "payload_bits": 100}),
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    answers.append((response.status, json.loads(response.read())))
            finally:
                conn.close()
        (admit_status, _), (status, payload), (after_status, after) = answers
        assert admit_status == 200
        assert status == 422
        assert payload["error"] == "MessageSetError"
        assert after_status == 200 and after["admitted"]

    def test_server_decisions_match_direct_controller(self):
        """The wire answer equals a direct controller call, field for field."""
        config = ServiceConfig(port=0, n_stations=8, policy="exact")
        twin = build_controller(config)
        script = [
            ("check", 0.032, 512.0),
            ("admit", 0.016, 1024.0),
            ("check", 0.008, 64.0),
            ("admit", 0.008, 30_000.0),  # heavy: may be rejected
            ("check", 0.064, 128.0),
        ]

        async def go():
            server = AdmissionServer(ServiceConfig(**{**config.__dict__}))
            await server.start()
            try:
                async with AsyncServiceClient(port=server.port) as client:
                    answers = []
                    for kind, period_s, payload_bits in script:
                        call = client.check if kind == "check" else client.admit
                        answers.append(await call(period_s, payload_bits))
                    return answers
            finally:
                await server.drain_and_stop()

        answers = asyncio.run(go())
        for (kind, period_s, payload_bits), got in zip(script, answers):
            op = (
                AdmissionOp.check(period_s, payload_bits)
                if kind == "check"
                else AdmissionOp.admit(period_s, payload_bits)
            )
            want = decision_to_wire(issue_directly(twin, op))
            assert got == want

    def test_overload_sheds_and_recovers(self):
        inner = make_controller(policy=AdmissionPolicy.SUFFICIENT)
        config = ServiceConfig(port=0, queue_limit=2, batch_max=1)
        controller = _SlowController(inner, delay_s=0.05)

        async def one_request(port, index):
            async with AsyncServiceClient(
                port=port, client_id=f"flood-{index}"
            ) as client:
                try:
                    return await client.check(0.032, 512.0)
                except Backoff as exc:
                    return exc

        async def go():
            server = AdmissionServer(config, controller)
            await server.start()
            try:
                outcomes = await asyncio.gather(
                    *(one_request(server.port, i) for i in range(16))
                )
                async with AsyncServiceClient(port=server.port) as client:
                    health = await client.healthz()
            finally:
                await server.drain_and_stop()
            return outcomes, health

        outcomes, health = asyncio.run(go())
        shed = [o for o in outcomes if isinstance(o, Backoff)]
        served = [o for o in outcomes if not isinstance(o, Backoff)]
        assert len(shed) + len(served) == 16
        assert shed, "overload never shed despite queue_limit=2"
        assert all(o.status == 429 and o.retry_after_s > 0 for o in shed)
        assert all(o["admitted"] is True for o in served)
        assert health["status"] == "ok"  # survived the flood, still serving

    def test_drain_returns_503_then_stops(self):
        config = ServiceConfig(port=0, n_stations=8)

        async def go():
            server = AdmissionServer(config)
            await server.start()
            async with AsyncServiceClient(port=server.port) as client:
                assert (await client.check(0.032, 512.0))["admitted"] is True
                drain = asyncio.ensure_future(server.drain_and_stop())
                await asyncio.sleep(0)  # drain flag is set synchronously
                with pytest.raises(Backoff) as err:
                    await client.check(0.032, 512.0)
                assert err.value.status == 503
                assert (await client.healthz())["status"] == "draining"
                await drain

        asyncio.run(go())

    def test_per_client_rate_limit(self):
        config = ServiceConfig(
            port=0, rate_limit_rps=0.5, rate_limit_burst=1.0
        )

        async def go():
            server = AdmissionServer(config)
            await server.start()
            try:
                async with AsyncServiceClient(
                    port=server.port, client_id="greedy"
                ) as client:
                    assert (await client.check(0.032, 512.0))["admitted"]
                    with pytest.raises(Backoff) as err:
                        await client.check(0.032, 512.0)
                    assert err.value.status == 429
                    assert err.value.retry_after_s > 0
                async with AsyncServiceClient(
                    port=server.port, client_id="patient"
                ) as other:
                    assert (await other.check(0.032, 512.0))["admitted"]
            finally:
                await server.drain_and_stop()

        asyncio.run(go())


# -- load generator -------------------------------------------------------------


class TestLoadgen:
    def test_spawned_run_and_bench_document(self):
        service_config = ServiceConfig(port=0, n_stations=8, policy="exact")
        load_config = LoadConfig(duration_s=0.8, workers=4, seed=11)
        report, summary = asyncio.run(
            run_against_spawned_server(service_config, load_config)
        )
        assert report.requests > 0
        assert report.errors == 0
        assert report.shed == 0
        assert report.throughput_rps > 0
        assert set(report.latency_s) == {
            "mean", "p50", "p90", "p99", "p999", "max",
        }
        assert report.latency_s["p50"] <= report.latency_s["p99"]
        assert report.latency_s["p99"] <= report.latency_s["p999"]
        assert summary["metrics"]["service.batches"]["value"] > 0

        document = bench_document(
            report, config=load_config, server_summary=summary
        )
        stats = document["benchmarks"][0]["stats"]
        assert stats["rounds"] == len(report.latencies)
        assert stats["ops"] == pytest.approx(report.throughput_rps)

    def test_summary_spans_ignore_the_enclosing_span(self):
        # runner loadgen --spawn serves from inside its runner/loadgen
        # span; the batch flush's spans must still read service/...
        tracing.reset()
        service_config = ServiceConfig(port=0, n_stations=8, policy="exact")
        load_config = LoadConfig(duration_s=0.3, workers=2, seed=11)
        with tracing.span("runner/loadgen"):
            _, summary = asyncio.run(
                run_against_spawned_server(service_config, load_config)
            )
        assert "service/batch" in summary["spans"]
        assert "service/batch/engine" in summary["spans"]

    def test_workload_is_seed_deterministic(self):
        from repro.service.loadgen import _catalogue

        a = _catalogue(LoadConfig(seed=3, catalogue_size=16))
        b = _catalogue(LoadConfig(seed=3, catalogue_size=16))
        c = _catalogue(LoadConfig(seed=4, catalogue_size=16))
        assert a == b
        assert a != c


# -- controller concurrency -----------------------------------------------------


class TestControllerConcurrency:
    def test_threaded_admit_release_keeps_invariants(self):
        controller = make_controller(n=8, policy=AdmissionPolicy.SUFFICIENT)
        n_stations = controller.analysis.ring.n_stations
        errors: list[Exception] = []

        def hammer(worker: int):
            mine: list[int] = []
            try:
                for i in range(30):
                    if i % 3 == 2 and mine:
                        controller.release(mine.pop())
                    else:
                        decision = controller.request(0.032, 64.0)
                        if decision.admitted:
                            mine.append(decision.stream_id)
                for stream_id in mine:
                    controller.release(stream_id)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert controller.admitted_count == 0
        # Every station handed back exactly once: the next 8 admits fill
        # the ring with 8 distinct stations.
        stations = [
            controller.request(0.032, 64.0).station for _ in range(n_stations)
        ]
        assert sorted(stations) == list(range(n_stations))
        assert not controller.request(0.032, 64.0).admitted

    def test_double_release_never_double_frees(self):
        controller = make_controller(n=1)
        decision = controller.request(0.032, 64.0)
        assert controller.release(decision.stream_id).released
        with pytest.raises(AdmissionError):
            controller.release(decision.stream_id)
        outcome = controller.release(decision.stream_id, idempotent=True)
        assert outcome == ReleaseOutcome(released=False, stream_id=1)
        # The single station must have been freed exactly once.
        assert controller.request(0.032, 64.0).admitted
        assert not controller.request(0.032, 64.0).admitted
