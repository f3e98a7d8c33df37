"""Spans: path aggregation, fan-out groups, sampling, sinks.

The load-bearing properties: every span aggregates by path on its own
thread, whether or not it is traced; sampling is deterministic
(systematic, not random — the ``admission_tracing_equiv`` fuzz property
depends on being able to reason about which requests are traced) and
never changes what is aggregated; and a :class:`SpanGroup` child is one
*shared* node (same ``span_id``) in every member trace — the marker for
amortized batch work.
"""

from __future__ import annotations

import json
import logging
import pickle
import sys
import threading

import pytest

from repro.admission import AdmissionController, AdmissionOp, AdmissionPolicy
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.errors import ConfigurationError
from repro.network.standards import ieee_802_5_ring, paper_frame_format
from repro.obs import tracing
from repro.obs.tracing import (
    TRACE_SCHEMA_VERSION,
    Span,
    SpanGroup,
    SpanStats,
    Tracer,
)
from repro.service.batcher import MicroBatcher
from repro.units import mbps


@pytest.fixture(autouse=True)
def clean_table():
    """Each test starts and ends with an empty span table."""
    tracing.reset()
    yield
    tracing.reset()


class TestSpanStats:
    def test_record_accumulates(self):
        stats = SpanStats()
        stats.record(1.0)
        stats.record(3.0)
        assert stats.count == 2
        assert stats.total_s == 4.0
        assert stats.min_s == 1.0 and stats.max_s == 3.0

    def test_to_dict_empty(self):
        d = SpanStats().to_dict()
        assert d["count"] == 0
        assert d["min_s"] is None and d["max_s"] is None


class TestAggregation:
    def test_nested_spans_build_paths(self):
        with tracing.span("outer"):
            with tracing.span("inner"):
                pass
            with tracing.span("inner"):
                pass
        snap = tracing.snapshot()
        assert set(snap) == {"outer", "outer/inner"}
        assert snap["outer"]["count"] == 1
        assert snap["outer/inner"]["count"] == 2

    def test_sibling_spans_do_not_nest(self):
        with tracing.span("a"):
            pass
        with tracing.span("b"):
            pass
        assert set(tracing.snapshot()) == {"a", "b"}

    def test_inner_time_bounded_by_outer(self):
        with tracing.span("outer"):
            with tracing.span("inner"):
                sum(range(1000))
        snap = tracing.snapshot()
        assert snap["outer/inner"]["total_s"] <= snap["outer"]["total_s"]

    def test_exception_still_recorded(self):
        with pytest.raises(ValueError):
            with tracing.span("risky"):
                raise ValueError("boom")
        assert tracing.snapshot()["risky"]["count"] == 1
        # The frame unwound: the next span is top-level again.
        with tracing.span("after"):
            pass
        assert "after" in tracing.snapshot()

    def test_spans_on_two_threads_do_not_nest(self):
        a_open = threading.Event()
        b_done = threading.Event()

        def thread_a():
            with tracing.span("a"):
                a_open.set()
                b_done.wait(10.0)

        def thread_b():
            a_open.wait(10.0)
            with tracing.span("b"):
                pass
            b_done.set()

        threads = [threading.Thread(target=fn) for fn in (thread_a, thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        assert set(tracing.snapshot()) == {"a", "b"}

    def test_concurrent_spans_lose_no_update(self):
        def work():
            for _ in range(500):
                with tracing.span("hot"):
                    pass

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        snap = tracing.snapshot()
        assert set(snap) == {"hot"}
        assert snap["hot"]["count"] == 8 * 500

    def test_snapshot_is_picklable(self):
        with tracing.span("cell"):
            pass
        snap = tracing.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_merge_adds_counts_and_combines_extremes(self):
        with tracing.span("cell"):
            pass
        first = tracing.snapshot()["cell"]
        tracing.reset()
        with tracing.span("cell"):
            sum(range(2000))
        second = tracing.snapshot()["cell"]
        tracing.merge({"cell": first})
        merged = tracing.snapshot()["cell"]
        assert merged["count"] == 2
        assert merged["total_s"] == first["total_s"] + second["total_s"]
        assert merged["min_s"] == min(first["min_s"], second["min_s"])
        assert merged["max_s"] == max(first["max_s"], second["max_s"])

    def test_merge_skips_empty_entries(self):
        tracing.merge({"ghost": SpanStats().to_dict()})
        assert tracing.snapshot() == {}

    def test_reset_clears_spans(self):
        with tracing.span("x"):
            pass
        tracing.reset()
        assert tracing.snapshot() == {}

    def test_open_span_records_after_a_reset(self):
        with tracing.span("outer"):
            with tracing.span("inner"):
                pass
            tracing.reset()
        snap = tracing.snapshot()
        assert set(snap) == {"outer"}
        assert snap["outer"]["count"] == 1

    def test_a_slash_in_a_name_is_the_same_path_as_nesting(self):
        with tracing.span("a/b"):
            pass
        with tracing.span("a"):
            with tracing.span("b"):
                pass
        snap = tracing.snapshot()
        assert set(snap) == {"a", "a/b"}
        assert snap["a/b"]["count"] == 2

    def test_use_path_roots_the_spans_below_it(self):
        token = tracing.use(None, path="service")
        try:
            with tracing.span("batch"):
                pass
        finally:
            tracing.release(token)
        with tracing.span("after"):
            pass
        assert set(tracing.snapshot()) == {"service/batch", "after"}


class TestSpan:
    def test_child_nesting_and_serialization(self):
        root = Span("request", {"method": "POST"}, trace_id="t1")
        child = root.child("batch", batch_size=3)
        grand = child.child("engine")
        grand.duration_s = 0.25

        doc = root.trace_dict()
        assert doc["schema_version"] == TRACE_SCHEMA_VERSION
        assert doc["trace_id"] == "t1"
        assert doc["name"] == "request"
        assert doc["attrs"] == {"method": "POST"}
        (batch,) = doc["spans"]
        assert batch["name"] == "batch"
        assert batch["attrs"] == {"batch_size": 3}
        (engine,) = batch["spans"]
        assert engine["duration_s"] == 0.25
        assert "spans" not in engine  # leaf spans stay flat
        assert json.loads(json.dumps(doc)) == doc

    def test_span_ids_unique_within_a_trace(self):
        root = Span("request")
        ids = {root.span_id}
        for index in range(5):
            ids.add(root.child(f"c{index}").span_id)
        assert len(ids) == 6

    def test_add_accumulates_numeric_attributes(self):
        span = Span("cache")
        span.add({"cache_hits": 1})
        span.add({"cache_hits": 2, "cache_misses": 1})
        assert span.attrs == {"cache_hits": 3, "cache_misses": 1}


class TestSpanGroup:
    def test_child_is_one_shared_node_across_members(self):
        roots = [Span("request", trace_id=f"t{i}") for i in range(3)]
        group = SpanGroup([root.child("batch") for root in roots])
        engine = group.child("engine", candidates=3)
        span_ids = {
            root.children[0].children[0].span_id for root in roots
        }
        assert span_ids == {engine.span_id}

    def test_add_reaches_every_member(self):
        members = [Span("batch"), Span("batch")]
        SpanGroup(members).add({"levels_reused": 4})
        assert all(m.attrs == {"levels_reused": 4} for m in members)


class TestTracerSampling:
    def test_rate_zero_never_samples(self):
        tracer = Tracer(0.0)
        assert [tracer.begin("request") for _ in range(8)] == [None] * 8

    def test_rate_one_always_samples(self):
        tracer = Tracer(1.0)
        spans = [tracer.begin("request") for _ in range(8)]
        assert all(span is not None for span in spans)
        assert len({span.trace_id for span in spans}) == 8

    def test_rate_half_is_systematic_every_second_request(self):
        tracer = Tracer(0.5)
        pattern = [tracer.begin("request") is not None for _ in range(8)]
        assert pattern == [False, True] * 4

    def test_fractional_rate_hits_exact_long_run_fraction(self):
        tracer = Tracer(0.25)
        sampled = sum(
            tracer.begin("request") is not None for _ in range(400)
        )
        assert sampled == 100

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            Tracer(1.5)
        with pytest.raises(ConfigurationError):
            Tracer(-0.1)
        with pytest.raises(ConfigurationError):
            Tracer(1.0, buffer_size=0)
        with pytest.raises(ConfigurationError):
            Tracer(1.0, slow_threshold_s=-1.0)


class TestTracerSinks:
    def test_ring_buffer_keeps_newest(self):
        tracer = Tracer(1.0, buffer_size=3)
        for index in range(5):
            span = tracer.begin("request", index=index)
            tracer.finish(span)
        recent = tracer.recent()
        assert [t["attrs"]["index"] for t in recent] == [2, 3, 4]
        assert [t["attrs"]["index"] for t in tracer.recent(limit=2)] == [3, 4]

    def test_finish_unsampled_is_a_noop(self):
        tracer = Tracer(0.0)
        tracer.finish(None)
        assert tracer.recent() == []

    def test_finish_honors_explicit_duration(self):
        tracer = Tracer(1.0)
        span = tracer.begin("request")
        tracer.finish(span, duration_s=0.125)
        assert tracer.recent()[-1]["duration_s"] == 0.125

    def test_jsonl_sink_appends_one_line_per_trace(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer(1.0, jsonl_path=str(path))
        for index in range(3):
            tracer.finish(tracer.begin("request", index=index))
        tracer.close()
        tracer.close()  # idempotent
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        documents = [json.loads(line) for line in lines]
        assert [d["attrs"]["index"] for d in documents] == [0, 1, 2]
        assert all(
            d["schema_version"] == TRACE_SCHEMA_VERSION for d in documents
        )

    def test_slow_requests_log_their_span_tree(self, caplog):
        tracer = Tracer(1.0, slow_threshold_s=0.001)
        span = tracer.begin("request")
        span.child("batch")
        with caplog.at_level(logging.WARNING, logger="repro.obs.tracing"):
            tracer.finish(span, duration_s=0.5)
            tracer.finish(tracer.begin("request"), duration_s=0.0001)
        slow = [r for r in caplog.records if "slow request" in r.message]
        assert len(slow) == 1
        assert slow[0].trace_id == span.trace_id
        assert slow[0].trace["spans"][0]["name"] == "batch"


class TestTracerConcurrency:
    """``begin`` at rate 1.0 and ``finish`` without a JSONL sink take no
    lock; fractional rates still serialize the accumulator."""

    @staticmethod
    def hammer(tracer: Tracer, threads: int, per_thread: int) -> list:
        """Begin and finish from many threads while one reads the buffer;
        returns every trace id begun."""
        ids: list = []
        stop = threading.Event()

        def work():
            for _ in range(per_thread):
                span = tracer.begin("request")
                if span is not None:
                    ids.append(span.trace_id)
                tracer.finish(span, duration_s=0.0)

        def read():
            while not stop.is_set():
                tracer.recent()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            reader.start()
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(30.0)
                assert not thread.is_alive()
            stop.set()
            reader.join(30.0)
            assert not reader.is_alive()
        finally:
            sys.setswitchinterval(previous)
        return ids

    def test_every_request_sampled_once_at_rate_one(self):
        tracer = Tracer(1.0, buffer_size=64)
        ids = self.hammer(tracer, threads=8, per_thread=300)
        assert len(ids) == len(set(ids)) == 8 * 300
        recent = tracer.recent()
        assert len(recent) == 64
        assert {t["trace_id"] for t in recent} <= set(ids)

    def test_fractional_rate_keeps_its_exact_count(self):
        tracer = Tracer(0.25, buffer_size=64)
        ids = self.hammer(tracer, threads=8, per_thread=300)
        assert len(ids) == len(set(ids)) == 8 * 300 // 4


class TestContextPropagation:
    def test_span_is_untraced_but_aggregated_without_a_root(self):
        assert tracing.current() is None
        with tracing.span("engine", candidates=4) as span:
            assert span is None
        tracing.annotate(op="check")  # must not raise
        tracing.add(cache_hits=1)
        assert tracing.snapshot()["engine"]["count"] == 1

    def test_span_nests_under_installed_root(self):
        root = Span("request", trace_id="t1")
        token = tracing.use(root)
        try:
            with tracing.span("engine", candidates=2) as engine:
                assert tracing.current() is engine
                tracing.annotate(policy="exact")
                tracing.add(cache_hits=1)
                tracing.add(cache_hits=1)
                with tracing.span("cache"):
                    pass
            assert tracing.current() is root
        finally:
            tracing.release(token)
        assert tracing.current() is None
        assert engine.attrs == {
            "candidates": 2,
            "policy": "exact",
            "cache_hits": 2,
        }
        assert engine.duration_s > 0.0
        assert [c.name for c in root.children] == ["engine"]
        assert [c.name for c in engine.children] == ["cache"]
        snap = tracing.snapshot()
        assert set(snap) == {"engine", "engine/cache"}
        # the trace node and the table read the same clock
        assert snap["engine"]["total_s"] == engine.duration_s

    def test_group_span_shares_one_node(self):
        members = [Span("batch"), Span("batch")]
        token = tracing.use(SpanGroup(members))
        try:
            with tracing.span("engine") as engine:
                tracing.add(levels_computed=3)
        finally:
            tracing.release(token)
        assert members[0].children == [engine]
        assert members[1].children == [engine]
        # the add() landed on the shared engine span, once, not per member
        assert engine.attrs == {"levels_computed": 3}
        assert tracing.snapshot()["engine"]["count"] == 1


def _path_counts(sample_rate: float) -> dict:
    """Span path counts of a fixed run of batches through the batcher's
    worker step, with requests traced at ``sample_rate``."""
    analysis = PDPAnalysis(
        ieee_802_5_ring(mbps(16), n_stations=8),
        paper_frame_format(),
        PDPVariant.MODIFIED,
    )
    batcher = MicroBatcher(AdmissionController(analysis, AdmissionPolicy.EXACT))
    tracer = Tracer(sample_rate)
    tracing.reset()
    for size in (1, 3, 2, 4):
        ops = [
            AdmissionOp.check(0.008 * (1 + index % 4), 256.0 * (1 + index))
            for index in range(size)
        ]
        ops.append(AdmissionOp.admit(0.032, 512.0))
        spans = [tracer.begin("request") for _ in ops]
        batcher._process(ops, spans)
        for span in spans:
            tracer.finish(span)
    return {path: data["count"] for path, data in tracing.snapshot().items()}


def test_sampling_never_changes_aggregation():
    counts = {rate: _path_counts(rate) for rate in (0.0, 0.5, 1.0)}
    assert counts[0.0] == counts[0.5] == counts[1.0]
    assert counts[1.0]["service/batch"] == 4
    assert counts[1.0]["service/batch/engine"] == 4
    assert "service/batch/engine/cache" in counts[1.0]
