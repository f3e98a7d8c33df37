"""End-to-end request tracing through the admission service.

One served request must produce one trace nesting
``request -> batch -> engine -> cache`` with consistent IDs at every
sampling rate — and tracing must never
change a decision (the transport-level twin of the
``admission_tracing_equiv`` fuzz property).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.errors import ServiceError
from repro.obs import prometheus
from repro.obs.tracing import TRACE_SCHEMA_VERSION
from repro.service import AdmissionServer, ServiceClient, ServiceConfig
from repro.service.http import encode_request


class _ServerThread:
    """An :class:`AdmissionServer` on its own loop/thread (test helper)."""

    def __init__(self, config: ServiceConfig):
        self._config = config
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.server: AdmissionServer | None = None

    def __enter__(self) -> AdmissionServer:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10.0), "server failed to start"
        return self.server

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)

    def _run(self) -> None:
        async def main():
            self.server = AdmissionServer(self._config)
            self._stop = asyncio.Event()
            self._loop = asyncio.get_running_loop()
            await self.server.start()
            self._ready.set()
            await self._stop.wait()
            await self.server.drain_and_stop()

        asyncio.run(main())


def _config(sample_rate: float, **overrides) -> ServiceConfig:
    return ServiceConfig(
        port=0,
        n_stations=8,
        trace_sample_rate=sample_rate,
        **overrides,
    )


def _drive_mixed_load(client: ServiceClient) -> list[dict]:
    """Six checks and two admits in a fixed order; returns the decisions."""
    decisions = []
    for index in range(8):
        period_s = (0.008, 0.016, 0.032, 0.064)[index % 4]
        if index in (3, 7):
            decisions.append(client.admit(period_s, 512.0))
        else:
            decisions.append(client.check(period_s, 256.0 + 64.0 * index))
    return decisions


EXPECTED_SAMPLED = {0.0: 0, 0.5: 4, 1.0: 8}


@pytest.mark.parametrize("sample_rate", [0.0, 0.5, 1.0])
class TestRequestTraces:
    def test_one_trace_nests_server_batch_engine_cache(self, sample_rate):
        with _ServerThread(_config(sample_rate)) as server:
            with ServiceClient(port=server.port) as client:
                _drive_mixed_load(client)
                trace_header = client.last_headers.get("x-trace-id")
                payload = client.traces()

        assert payload["schema_version"] == TRACE_SCHEMA_VERSION
        assert payload["sample_rate"] == sample_rate
        traces = payload["traces"]
        assert payload["count"] == len(traces)
        admission = [
            t for t in traces if t["attrs"].get("path", "").startswith("/v1/")
        ]
        assert len(admission) == EXPECTED_SAMPLED[sample_rate]

        if sample_rate == 0.0:
            assert trace_header is None
            return
        # the 8th request was an admit; at 0.5 the even-indexed requests
        # (2nd, 4th, ...) are the sampled ones, so it is traced either way
        assert trace_header is not None
        assert trace_header in {t["trace_id"] for t in traces}

        for trace in admission:
            assert trace["name"] == "request"
            assert trace["attrs"]["method"] == "POST"
            assert trace["attrs"]["status"] == 200
            assert trace["attrs"]["op"] in ("check", "admit")
            (batch,) = trace["spans"]
            assert batch["name"] == "batch"
            assert batch["attrs"]["batch_size"] >= 1
            engines = [s for s in batch["spans"] if s["name"] == "engine"]
            assert len(engines) == 1
            caches = [
                s for s in engines[0]["spans"] if s["name"] == "cache"
            ]
            assert len(caches) == 1
            assert caches[0]["attrs"]["namespace"] == "admission"
            # every op consults the decision cache
            hits = caches[0]["attrs"].get("cache_hits", 0)
            misses = caches[0]["attrs"].get("cache_misses", 0)
            assert hits + misses >= 1

    def test_decisions_identical_with_tracing_on_and_off(self, sample_rate):
        def serve(rate: float) -> list[dict]:
            with _ServerThread(_config(rate)) as server:
                with ServiceClient(port=server.port) as client:
                    return _drive_mixed_load(client)

        assert serve(sample_rate) == serve(0.0)


class TestTraceEndpoint:
    def test_limit_caps_and_orders_the_buffer(self):
        with _ServerThread(_config(1.0)) as server:
            with ServiceClient(port=server.port) as client:
                _drive_mixed_load(client)
                full = client.traces()
                limited = client.traces(limit=3)
        assert limited["count"] == 3
        # the limited cut is the newest suffix of the buffer; the full
        # fetch itself finishes one more trace in between, so the last
        # limited entry may be that /v1/traces request
        full_ids = [t["trace_id"] for t in full["traces"]]
        limited_ids = [t["trace_id"] for t in limited["traces"]]
        assert limited_ids[:2] == full_ids[-2:]

    def test_bad_limit_is_a_400(self):
        with _ServerThread(_config(1.0)) as server:
            with ServiceClient(port=server.port) as client:
                status, payload, _ = client.request(
                    "GET", "/v1/traces?limit=banana"
                )
        assert status == 400
        assert payload["error"] == "BadLimit"

    def test_buffer_is_bounded(self):
        config = _config(1.0, trace_buffer=4)
        with _ServerThread(config) as server:
            with ServiceClient(port=server.port) as client:
                _drive_mixed_load(client)
                payload = client.traces()
        assert payload["count"] == 4


class TestMetricsFormats:
    def test_prometheus_exposition_parses_and_is_typed(self):
        with _ServerThread(_config(1.0)) as server:
            with ServiceClient(port=server.port) as client:
                _drive_mixed_load(client)
                text = client.metrics_text()
                content_type = client.last_headers["content-type"]
                json_snapshot = client.metrics()["metrics"]

        assert content_type == prometheus.CONTENT_TYPE
        families = prometheus.parse(text)
        requests = families["repro_service_http_requests_total"]
        assert requests["type"] == "counter"
        assert requests["samples"][0]["value"] >= 8
        latency = families["repro_service_request_latency_s"]
        assert latency["type"] == "histogram"
        inf_bucket = [
            s
            for s in latency["samples"]
            if s["name"] == "repro_service_request_latency_s_bucket"
            and s["labels"]["le"] == "+Inf"
        ]
        count = [
            s
            for s in latency["samples"]
            if s["name"] == "repro_service_request_latency_s_count"
        ]
        assert inf_bucket[0]["value"] == count[0]["value"]
        # both formats come from the same atomic snapshot machinery
        assert "service.http_requests" in json_snapshot

    def test_json_format_keeps_json_content_type(self):
        with _ServerThread(_config(1.0)) as server:
            with ServiceClient(port=server.port) as client:
                client.healthz()
                status, payload, _ = client.request(
                    "GET", "/metrics?format=json"
                )
                content_type = client.last_headers["content-type"]
        assert status == 200
        assert content_type.startswith("application/json")
        assert "metrics" in payload

    def test_unknown_format_is_a_400(self):
        with _ServerThread(_config(1.0)) as server:
            with ServiceClient(port=server.port) as client:
                status, payload, _ = client.request(
                    "GET", "/metrics?format=bogus"
                )
        assert status == 400
        assert payload["error"] == "BadFormat"

    def test_exemplar_trace_ids_resolve_to_buffered_traces(self):
        with _ServerThread(_config(1.0)) as server:
            with ServiceClient(port=server.port) as client:
                _drive_mixed_load(client)
                snapshot = client.metrics()["metrics"]
                trace_ids = {
                    t["trace_id"] for t in client.traces()["traces"]
                }
        exemplars = (
            snapshot["service.request_latency_s"]["buckets"]["exemplars"]
        )
        assert exemplars, "traced requests must leave exemplars"
        assert any(
            trace_id in trace_ids for trace_id, _ in exemplars.values()
        )


class TestSlowTraceLog:
    def test_slow_requests_increment_the_slow_counter(self):
        config = _config(1.0, slow_trace_s=1e-9)
        with _ServerThread(config) as server:
            with ServiceClient(port=server.port) as client:
                client.check(0.032, 512.0)
                snapshot = client.metrics()["metrics"]
        assert snapshot["trace.slow"]["value"] >= 1


def _exchange(sock: socket.socket, request: bytes) -> tuple[dict, dict]:
    """Send one request; return its (lower-cased) headers and JSON body."""
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    headers = {}
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    while len(body) < int(headers["content-length"]):
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection"
        body += chunk
    return headers, json.loads(body)


def _shape(span: dict):
    """Names, nesting and attribute keys of a serialized span tree."""
    return (
        span["name"],
        sorted(span["attrs"]),
        [_shape(child) for child in span.get("spans", [])],
    )


def _nodes(span: dict) -> list[dict]:
    """Every descendant of ``span``, in tree order."""
    out = []
    for child in span.get("spans", []):
        out.append(child)
        out.extend(_nodes(child))
    return out


class TestSharedBatchTrace:
    """Two requests answered by one flush: the batch, engine and cache
    spans are one shared node in both traces, and every sink serializes
    the same document."""

    def test_one_flush_shares_its_subtree_across_both_traces(self, tmp_path):
        jsonl = tmp_path / "traces.jsonl"
        helper = _ServerThread(_config(1.0, trace_jsonl=str(jsonl)))
        check = encode_request(
            "POST",
            "/v1/check",
            "test",
            json.dumps({"period_s": 0.032, "payload_bits": 512.0}).encode(),
        )
        with helper as server:
            socks = [
                socket.create_connection(("127.0.0.1", server.port), timeout=30)
                for _ in range(2)
            ]
            try:
                # One answered check per connection: both are accepted,
                # and the decision is cached before the shared batch.
                for sock in socks:
                    _exchange(sock, check)
                # Hold the loop while both checks are sent, so one loop
                # tick reads both and one flush answers them.
                held, resume = threading.Event(), threading.Event()
                helper._loop.call_soon_threadsafe(
                    lambda: (held.set(), resume.wait(10.0))
                )
                assert held.wait(10.0)
                for sock in socks:
                    sock.sendall(check)
                resume.set()
                replies = [_exchange(sock, b"") for sock in socks]
            finally:
                for sock in socks:
                    sock.close()
            with ServiceClient(port=server.port) as client:
                served = {t["trace_id"]: t for t in client.traces()["traces"]}
        logged = {}
        for line in jsonl.read_text().splitlines():
            document = json.loads(line)
            logged[document["trace_id"]] = document

        trace_ids = [headers["x-trace-id"] for headers, _ in replies]
        assert len(set(trace_ids)) == 2
        assert replies[0][1] == replies[1][1]
        traces = [served[trace_id] for trace_id in trace_ids]
        for trace in traces:
            assert trace["schema_version"] == TRACE_SCHEMA_VERSION
            assert trace["attrs"]["status"] == 200
            assert trace["attrs"]["op"] == "check"
            assert _shape(trace) == (
                "request",
                ["method", "op", "path", "status"],
                [
                    (
                        "batch",
                        ["batch_size"],
                        [
                            (
                                "engine",
                                ["candidates"],
                                [("cache", ["cache_hits", "namespace"], [])],
                            )
                        ],
                    )
                ],
            )
            (batch,) = trace["spans"]
            assert batch["attrs"]["batch_size"] == 2
            assert batch["spans"][0]["spans"][0]["attrs"]["cache_hits"] == 2
            start, end = trace["start_ts"], trace["start_ts"] + trace["duration_s"]
            for node in _nodes(trace):
                assert start <= node["start_ts"] <= end, node["name"]
            # the JSONL sink wrote the very document /v1/traces serves
            assert logged[trace["trace_id"]] == trace
        first, second = (_nodes(trace) for trace in traces)
        assert [n["name"] for n in first] == ["batch", "engine", "cache"]
        for a, b in zip(first, second):
            assert a["span_id"] == b["span_id"]
            assert a["start_ts"] == b["start_ts"]
            assert a["duration_s"] == b["duration_s"]
        assert traces[0]["span_id"] != traces[1]["span_id"]
