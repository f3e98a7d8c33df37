"""The content-addressed result cache (repro.cache).

Key stability is the load-bearing property: a key must be a pure function
of the payload values, the schema version, and the code salt — never of
dict ordering, process identity, or hash seeds.  Corruption must never
produce a wrong answer, only a recomputation.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import cache as cache_mod
from repro.analysis.breakdown import breakdown_scale, breakdown_scales_batch
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.analysis.ttp import TTPAnalysis
from repro.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    canonical_json,
    content_key,
)
from repro.cache import keys as cache_keys
from repro.errors import ConfigurationError
from repro.network.standards import ieee_802_5_ring, paper_frame_format
from repro.obs import metrics
from repro.sim.dispatch import cached_run_pdp, cached_run_ttp, run_pdp, run_ttp
from repro.sim.pdp_sim import PDPSimConfig
from repro.sim.ttp_sim import TTPSimConfig
from repro.units import mbps


@pytest.fixture
def disk_cache(tmp_path):
    """Swap the process-wide cache for a disk-backed one, then restore."""
    store = cache_mod.configure(directory=str(tmp_path))
    yield store
    cache_mod.configure(directory=None)


def _counter(name: str) -> float:
    return metrics.counter(name).value


# -- canonical hashing --------------------------------------------------------


def test_canonical_json_ignores_dict_order():
    a = {"zeta": 1, "alpha": [1.5, {"b": 2, "a": 3}]}
    b = {"alpha": [1.5, {"a": 3, "b": 2}], "zeta": 1}
    assert canonical_json(a) == canonical_json(b)
    assert content_key(a) == content_key(b)


def test_canonical_json_floats_roundtrip_exactly():
    value = 0.1 + 0.2  # not 0.3; repr must preserve the exact double
    assert json.loads(canonical_json({"x": value}))["x"] == value
    assert content_key({"x": value}) != content_key({"x": 0.3})


def test_canonical_json_rejects_unserialisable():
    with pytest.raises(ConfigurationError):
        canonical_json({"x": object()})


def test_content_key_stable_across_processes():
    payload = {"streams": [[0.05, 4096.0, 0]], "rel_tol": 1e-4, "kind": "t"}
    here = content_key(payload)
    script = (
        "from repro.cache import content_key;"
        f"print(content_key({payload!r}))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH"))
        if p
    )
    env["PYTHONHASHSEED"] = "12345"  # must not matter
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == here


def test_schema_version_bump_invalidates_keys(monkeypatch):
    payload = {"kind": "probe"}
    before = content_key(payload)
    monkeypatch.setattr(cache_keys, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1)
    assert content_key(payload) != before


def test_set_signature_is_permutation_invariant():
    pairs = [(0.032, 512.0), (0.008, 1024.0), (0.032, 64.0)]
    assert cache_keys.set_signature(pairs) == cache_keys.set_signature(
        reversed(pairs)
    )
    assert cache_keys.set_signature(pairs) == [
        [0.008, 1024.0],
        [0.032, 64.0],
        [0.032, 512.0],
    ]


def test_set_signature_keeps_multiplicity():
    once = cache_keys.set_signature([(0.008, 64.0)])
    twice = cache_keys.set_signature([(0.008, 64.0), (0.008, 64.0)])
    assert len(twice) == 2 and twice != once


def test_prefix_chain_copies_branch_independently():
    """Extending a copy leaves the seed digest reusable: every branch
    keys exactly what a fresh chain over the same pairs keys."""
    seed = cache_keys.prefix_chain_seed({"signature": "sig"})
    branch = cache_keys.prefix_chain_extend(seed.copy(), 0.008, 512.0)
    other = cache_keys.prefix_chain_extend(seed.copy(), 0.016, 64.0)
    fresh = cache_keys.prefix_chain_seed({"signature": "sig"})
    assert cache_keys.prefix_chain_extend(fresh, 0.008, 512.0) == branch
    assert branch != other


def test_prefix_chain_separates_seeds_and_pairs():
    def key(seed_payload, period, payload):
        digest = cache_keys.prefix_chain_seed(seed_payload)
        return cache_keys.prefix_chain_extend(digest, period, payload)

    assert key({"signature": "a"}, 0.064, 256.0) != key(
        {"signature": "b"}, 0.064, 256.0
    )
    # Field vs record boundaries must not alias: (1.0, 21.0) is not
    # (12.0, 1.0) even though the digit streams could be confused.
    assert key({"signature": "a"}, 1.0, 21.0) != key({"signature": "a"}, 12.0, 1.0)


# -- the store ----------------------------------------------------------------


def test_memory_roundtrip_and_lru_eviction():
    store = ResultCache(max_memory_entries=2)
    store.put("k1", {"v": 1}, namespace="t")
    store.put("k2", {"v": 2}, namespace="t")
    assert store.get("k1", namespace="t") == {"v": 1}  # refreshes k1
    store.put("k3", {"v": 3}, namespace="t")  # evicts k2 (LRU)
    assert store.get("k2", namespace="t") is None
    assert store.get("k1", namespace="t") == {"v": 1}
    assert store.get("k3", namespace="t") == {"v": 3}


def test_disk_roundtrip_across_store_instances(tmp_path):
    writer = ResultCache(directory=str(tmp_path))
    writer.put("deadbeef", {"answer": [1.0, 2]}, namespace="t")
    reader = ResultCache(directory=str(tmp_path))
    assert reader.get("deadbeef", namespace="t") == {"answer": [1.0, 2]}


def test_truncated_disk_entry_is_a_counted_miss(tmp_path):
    writer = ResultCache(directory=str(tmp_path))
    writer.put("cafe01", {"v": 7}, namespace="t")
    (path,) = glob.glob(str(tmp_path / "t" / "*" / "cafe01.json"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"key": "cafe01", "payl')  # truncated mid-record
    errors = _counter("cache.t.errors")
    reader = ResultCache(directory=str(tmp_path))
    assert reader.get("cafe01", namespace="t") is None
    assert _counter("cache.t.errors") == errors + 1
    assert not os.path.exists(path)  # dropped so it cannot re-fire


def test_key_mismatch_disk_entry_is_a_counted_miss(tmp_path):
    store = ResultCache(directory=str(tmp_path))
    store.put("feed01", {"v": 1}, namespace="t")
    (path,) = glob.glob(str(tmp_path / "t" / "*" / "feed01.json"))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"key": "somethingelse", "payload": {"v": 9}}, handle)
    errors = _counter("cache.t.errors")
    fresh = ResultCache(directory=str(tmp_path))
    assert fresh.get("feed01", namespace="t") is None
    assert _counter("cache.t.errors") == errors + 1


# -- cached simulation runs ---------------------------------------------------


def _pdp_inputs(harmonic_set):
    ring = ieee_802_5_ring(mbps(10), n_stations=8)
    frame = paper_frame_format()
    config = PDPSimConfig(variant=PDPVariant.MODIFIED, collect_responses=True)
    return ring, frame, harmonic_set, config, 0.2


def test_cached_run_pdp_replays_bit_identical(harmonic_set, disk_cache):
    ring, frame, ms, config, duration = _pdp_inputs(harmonic_set)
    direct = run_pdp(ring, frame, ms, config, duration)
    misses = _counter("cache.sim.misses")
    first = cached_run_pdp(ring, frame, ms, config, duration)
    assert _counter("cache.sim.misses") == misses + 1
    hits = _counter("cache.sim.hits")
    second = cached_run_pdp(ring, frame, ms, config, duration)
    assert _counter("cache.sim.hits") == hits + 1
    for report in (first, second):
        assert vars(report)["duration"] == direct.duration
        assert report.sync_busy_time == direct.sync_busy_time
        assert report.async_busy_time == direct.async_busy_time
        assert report.token_time == direct.token_time
        assert [vars(s) for s in report.streams] == [
            vars(s) for s in direct.streams
        ]
        assert [vars(r) for r in report.rotations] == [
            vars(r) for r in direct.rotations
        ]


def test_cached_run_pdp_corruption_still_gives_right_answer(
    harmonic_set, disk_cache, tmp_path
):
    ring, frame, ms, config, duration = _pdp_inputs(harmonic_set)
    truth = run_pdp(ring, frame, ms, config, duration)
    cached_run_pdp(ring, frame, ms, config, duration)
    (path,) = glob.glob(str(tmp_path / "sim" / "*" / "*.json"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("not json at all")
    disk_cache.clear()  # force the disk read
    recovered = cached_run_pdp(ring, frame, ms, config, duration)
    assert [vars(s) for s in recovered.streams] == [
        vars(s) for s in truth.streams
    ]


def test_run_pdp_bypasses_the_cache(harmonic_set, disk_cache):
    ring, frame, ms, config, duration = _pdp_inputs(harmonic_set)
    before = (_counter("cache.sim.hits"), _counter("cache.sim.misses"))
    run_pdp(ring, frame, ms, config, duration)
    assert (_counter("cache.sim.hits"), _counter("cache.sim.misses")) == before


def test_cached_run_ttp_replays_bit_identical(harmonic_set, small_ring_fddi, disk_cache):
    frame = paper_frame_format()
    analysis = TTPAnalysis(small_ring_fddi, frame)
    allocation = analysis.analyze(harmonic_set).allocation
    assert allocation is not None
    config = TTPSimConfig(collect_responses=True)
    direct = run_ttp(small_ring_fddi, frame, harmonic_set, allocation, config, 0.2)
    cached_run_ttp(small_ring_fddi, frame, harmonic_set, allocation, config, 0.2)
    hits = _counter("cache.sim.hits")
    replay = cached_run_ttp(small_ring_fddi, frame, harmonic_set, allocation, config, 0.2)
    assert _counter("cache.sim.hits") == hits + 1
    assert [vars(s) for s in replay.streams] == [vars(s) for s in direct.streams]
    assert [vars(r) for r in replay.rotations] == [vars(r) for r in direct.rotations]


def test_cached_runs_distinguish_duration_and_engine(harmonic_set, disk_cache):
    ring, frame, ms, config, _ = _pdp_inputs(harmonic_set)
    a = cached_run_pdp(ring, frame, ms, config, 0.1)
    b = cached_run_pdp(ring, frame, ms, config, 0.2)
    assert a.duration != b.duration  # distinct keys, not a stale replay


# -- breakdown caching --------------------------------------------------------


def _pdp_analysis():
    return PDPAnalysis(
        ieee_802_5_ring(mbps(16), n_stations=8),
        paper_frame_format(),
        PDPVariant.MODIFIED,
    )


def test_breakdown_cache_needs_a_directory(harmonic_set):
    cache_mod.configure(directory=None)
    try:
        before = (
            _counter("cache.breakdown.hits"), _counter("cache.breakdown.misses")
        )
        breakdown_scale(harmonic_set, _pdp_analysis(), rel_tol=1e-3)
        after = (
            _counter("cache.breakdown.hits"), _counter("cache.breakdown.misses")
        )
        assert after == before
    finally:
        cache_mod.configure(directory=None)


def test_breakdown_scale_cached_roundtrip(harmonic_set, disk_cache):
    analysis = _pdp_analysis()
    first = breakdown_scale(harmonic_set, analysis, rel_tol=1e-3)
    hits = _counter("cache.breakdown.hits")
    second = breakdown_scale(harmonic_set, analysis, rel_tol=1e-3)
    assert second == first
    assert _counter("cache.breakdown.hits") == hits + 1
    # A different tolerance is a different computation, not a hit.
    third = breakdown_scale(harmonic_set, analysis, rel_tol=1e-5)
    assert third[0] != first[0] or third[1] != first[1]


def test_numpy_scalar_twin_shares_breakdown_cache_entries(
    harmonic_set, disk_cache
):
    """A set whose streams hold numpy scalars keys to the same breakdown
    row as its native-float twin: the key payload coerces them."""
    from repro.messages.message_set import MessageSet
    from repro.messages.stream import SynchronousStream

    analysis = _pdp_analysis()
    native = MessageSet(
        SynchronousStream(
            period_s=float(s.period_s),
            payload_bits=float(s.payload_bits),
            station=int(s.station),
        )
        for s in harmonic_set
    )
    twin = MessageSet(
        SynchronousStream(
            period_s=np.float64(s.period_s),
            payload_bits=np.float64(s.payload_bits),
            station=np.int64(s.station),
        )
        for s in native
    )
    before_misses = _counter("cache.breakdown.misses")
    scale_obj, _ = breakdown_scale(native, analysis, rel_tol=1e-3)
    assert _counter("cache.breakdown.misses") == before_misses + 1
    before_hits = _counter("cache.breakdown.hits")
    scale_twin, _ = breakdown_scale(twin, analysis, rel_tol=1e-3)
    assert _counter("cache.breakdown.hits") == before_hits + 1
    assert scale_twin == scale_obj


def test_int_float_payload_twin_shares_breakdown_cache_entries(
    harmonic_set, disk_cache
):
    """``harmonic_set`` holds int payloads; its float-payload twin is an
    equal set and keys to the same breakdown row."""
    from repro.messages.message_set import MessageSet
    from repro.messages.stream import SynchronousStream

    analysis = _pdp_analysis()
    twin = MessageSet(
        SynchronousStream(
            period_s=s.period_s,
            payload_bits=float(s.payload_bits),
            station=s.station,
        )
        for s in harmonic_set
    )
    assert twin == harmonic_set
    assert isinstance(harmonic_set[0].payload_bits, int)
    first = breakdown_scale(harmonic_set, analysis, rel_tol=1e-3)
    before_hits = _counter("cache.breakdown.hits")
    assert breakdown_scale(twin, analysis, rel_tol=1e-3) == first
    assert _counter("cache.breakdown.hits") == before_hits + 1


def test_scalar_and_batch_searches_share_breakdown_rows(
    sampler, rng, disk_cache
):
    """Both searches return the same (scale, evaluations) pair, so a
    batch replays the rows the scalar search wrote."""
    analysis = _pdp_analysis()
    sets = [sampler.sample(rng) for _ in range(3)]
    scalar = [breakdown_scale(ms, analysis, rel_tol=1e-3) for ms in sets]
    before_hits = _counter("cache.breakdown.hits")
    assert breakdown_scales_batch(sets, analysis, rel_tol=1e-3) == scalar
    assert _counter("cache.breakdown.hits") == before_hits + 3


def test_breakdown_batch_partial_miss_merges(sampler, rng, disk_cache, tmp_path):
    analysis = _pdp_analysis()
    sets = [sampler.sample(rng) for _ in range(3)]
    first = breakdown_scales_batch(sets, analysis, rel_tol=1e-3)
    disk_cache.clear()
    files = sorted(glob.glob(str(tmp_path / "breakdown" / "*" / "*.json")))
    os.unlink(files[0])  # one set must recompute, two replay from disk
    merged = breakdown_scales_batch(sets, analysis, rel_tol=1e-3)
    assert merged == first


def test_breakdown_plain_callable_predicate_is_never_cached(
    harmonic_set, disk_cache
):
    analysis = _pdp_analysis()
    before = _counter("cache.breakdown.misses")
    breakdown_scale(harmonic_set, analysis.is_schedulable, rel_tol=1e-3)
    assert _counter("cache.breakdown.misses") == before


def test_ttp_custom_policy_opts_out_of_caching(
    harmonic_set, small_ring_fddi, disk_cache
):
    class WeirdPolicy:  # not a dataclass: no canonical description
        def select(self, message_set, bandwidth_bps, delta_s, overhead_s):
            return min(message_set.periods) / 4.0

    analysis = TTPAnalysis(small_ring_fddi, paper_frame_format(), WeirdPolicy())
    assert analysis.cache_signature() is None
    before = _counter("cache.breakdown.misses")
    breakdown_scale(harmonic_set, analysis, rel_tol=1e-3)
    assert _counter("cache.breakdown.misses") == before


def test_mutation_injection_clears_cached_results(harmonic_set, disk_cache):
    from repro.verify.mutation import inject_mutant

    ring, frame, ms, config, duration = _pdp_inputs(harmonic_set)
    clean = cached_run_pdp(ring, frame, ms, config, duration)
    with inject_mutant("pdp_short_frame_dropped"):
        pass  # entry and exit must both drop the memory layer
    assert len(disk_cache._memory) == 0
    replay = cached_run_pdp(ring, frame, ms, config, duration)
    assert [vars(s) for s in replay.streams] == [vars(s) for s in clean.streams]


# -- numpy payloads ------------------------------------------------------------


def test_numpy_scalars_key_like_native_values():
    """Numpy scalars/arrays in key payloads must hash identically to the
    native equivalents, not crash or drift."""
    arr_f = np.array([0.1, 0.25])
    arr_i = np.array([3, 4], dtype=np.int32)
    native = {"f": 0.1, "i": 3, "b": True, "v": [0.1, 0.25], "w": [3, 4]}
    numpied = {
        "f": np.float64(0.1),
        "i": np.int32(3),
        "b": np.bool_(True),
        "v": arr_f,
        "w": arr_i,
    }
    assert canonical_json(numpied) == canonical_json(native)
    assert content_key(numpied) == content_key(native)


def test_numpy_float32_coerces_exactly():
    value = np.float32(0.1)
    assert canonical_json({"x": value}) == canonical_json({"x": float(value)})


def test_unserialisable_payload_rejected():
    with pytest.raises(ConfigurationError):
        canonical_json({"x": object()})

