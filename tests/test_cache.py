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
from repro.admission import AdmissionController, AdmissionPolicy
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


def _fresh_python(script: str, **env_overrides: str) -> str:
    """Run ``script`` in a new interpreter on this checkout; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH"))
        if p
    )
    env.update(env_overrides)
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout.strip()


def test_content_key_stable_across_processes():
    payload = {"streams": [[0.05, 4096.0, 0]], "rel_tol": 1e-4, "kind": "t"}
    here = content_key(payload)
    script = (
        "from repro.cache import content_key;"
        f"print(content_key({payload!r}))"
    )
    # PYTHONHASHSEED must not matter.
    assert _fresh_python(script, PYTHONHASHSEED="12345") == here


def test_salt_covers_only_cached_results():
    """The code salt hashes the analysis and admission modules, whose
    results the cache stores, and no simulator: a keyed controller (the
    served path's) must not import ``repro.sim`` to build its keys."""
    assert not any(
        name.startswith("repro.sim") for name in cache_keys._SALT_MODULES
    )
    script = (
        "import sys;"
        "from repro.admission import AdmissionController;"
        "from repro.analysis.pdp import PDPAnalysis, PDPVariant;"
        "from repro.network.standards import ieee_802_5_ring, paper_frame_format;"
        "analysis = PDPAnalysis(ieee_802_5_ring(16e6), paper_frame_format(),"
        " PDPVariant.MODIFIED);"
        "AdmissionController(analysis, cache_namespace='admission');"
        "print(sorted(m for m in sys.modules if m.startswith('repro.sim')))"
    )
    assert _fresh_python(script) == "[]"


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


# -- what the cache must not hold --------------------------------------------


def _pdp_analysis():
    return PDPAnalysis(
        ieee_802_5_ring(mbps(16), n_stations=8),
        paper_frame_format(),
        PDPVariant.MODIFIED,
    )


def _cache_counters() -> dict:
    return metrics.snapshot(prefix="cache.")


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
@pytest.mark.parametrize("kind", ["pdp", "ttp"])
def test_breakdown_searches_touch_no_cache(
    kind, on_disk, harmonic_set, sampler, rng, small_ring_fddi, tmp_path
):
    """Neither search reads or writes a cache row, whatever the store."""
    analysis = (
        _pdp_analysis()
        if kind == "pdp"
        else TTPAnalysis(small_ring_fddi, paper_frame_format())
    )
    sets = [sampler.sample(rng) for _ in range(3)]
    cache_mod.configure(directory=str(tmp_path) if on_disk else None)
    try:
        before = _cache_counters()
        breakdown_scale(harmonic_set, analysis, rel_tol=1e-3)
        breakdown_scales_batch(sets, analysis, rel_tol=1e-3)
        assert _cache_counters() == before
        assert os.listdir(tmp_path) == []
    finally:
        cache_mod.configure(directory=None)


def test_breakdown_scale_searches_again_under_a_disk_cache(
    harmonic_set, disk_cache
):
    analysis = _pdp_analysis()
    searches = _counter("breakdown.scalar_searches")
    first = breakdown_scale(harmonic_set, analysis, rel_tol=1e-3)
    second = breakdown_scale(harmonic_set, analysis, rel_tol=1e-3)
    assert second == first
    assert _counter("breakdown.scalar_searches") == searches + 2
    # A different tolerance is a different search with a different answer.
    third = breakdown_scale(harmonic_set, analysis, rel_tol=1e-5)
    assert third[0] != first[0] or third[1] != first[1]


def test_scalar_and_batch_searches_agree_under_a_disk_cache(
    sampler, rng, disk_cache
):
    """The batch returns the scalar (scale, evaluations) pairs from a
    lockstep search of its own, not from rows the scalar search left."""
    analysis = _pdp_analysis()
    sets = [sampler.sample(rng) for _ in range(3)]
    scalar = [breakdown_scale(ms, analysis, rel_tol=1e-3) for ms in sets]
    batch_calls = _counter("breakdown.batch_calls")
    assert breakdown_scales_batch(sets, analysis, rel_tol=1e-3) == scalar
    assert _counter("breakdown.batch_calls") > batch_calls


def test_breakdown_batch_is_independent_of_its_membership(sampler, rng):
    analysis = _pdp_analysis()
    sets = [sampler.sample(rng) for _ in range(4)]
    whole = breakdown_scales_batch(sets, analysis, rel_tol=1e-3)
    assert breakdown_scales_batch(sets[1:], analysis, rel_tol=1e-3) == whole[1:]
    assert breakdown_scales_batch(sets[::-1], analysis, rel_tol=1e-3) == whole[::-1]


def test_breakdown_plain_callable_predicate_matches_its_analysis(
    harmonic_set, disk_cache
):
    analysis = _pdp_analysis()
    before = _cache_counters()
    assert breakdown_scale(
        harmonic_set, analysis.is_schedulable, rel_tol=1e-3
    ) == breakdown_scale(harmonic_set, analysis, rel_tol=1e-3)
    assert _cache_counters() == before


def test_ttp_custom_policy_opts_out_of_admission_caching(small_ring_fddi):
    class WeirdPolicy:  # not a dataclass: no canonical description
        def select(self, message_set, bandwidth_bps, delta_s, overhead_s):
            return min(message_set.periods) / 4.0

    analysis = TTPAnalysis(small_ring_fddi, paper_frame_format(), WeirdPolicy())
    assert analysis.cache_signature() is None
    ctrl = AdmissionController(
        analysis, AdmissionPolicy.EXACT, cache_namespace="admission"
    )
    before = _counter("cache.admission.writes")
    ctrl.check(0.05, 8000)
    assert _counter("cache.admission.writes") == before


# -- the admission namespace ---------------------------------------------------


def _admission_controller():
    return AdmissionController(
        _pdp_analysis(), AdmissionPolicy.EXACT, cache_namespace="admission"
    )


def test_admission_corrupt_entry_still_gives_right_answer(disk_cache, tmp_path):
    clean = _admission_controller().check(0.032, 4_096)
    (path,) = glob.glob(str(tmp_path / "admission" / "*" / "*.json"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"key": "')  # truncated mid-record
    disk_cache._memory.clear()
    errors = _counter("cache.admission.errors")
    assert _admission_controller().check(0.032, 4_096) == clean
    assert _counter("cache.admission.errors") == errors + 1


@pytest.mark.parametrize(
    "candidate",
    [(np.float64(0.032), np.int64(4_096)), (0.032, 4_096.0)],
    ids=["numpy-scalars", "float-payload"],
)
def test_admission_twin_candidates_share_one_entry(
    candidate, disk_cache, tmp_path
):
    clean = _admission_controller().check(0.032, 4_096)
    persisted = glob.glob(str(tmp_path / "admission" / "*" / "*.json"))
    hits = _counter("cache.admission.hits")
    misses = _counter("cache.admission.misses")
    assert _admission_controller().check(*candidate) == clean
    assert _counter("cache.admission.hits") == hits + 1
    assert _counter("cache.admission.misses") == misses
    assert glob.glob(str(tmp_path / "admission" / "*" / "*.json")) == persisted

def test_mutation_injection_clears_cached_results(disk_cache, tmp_path):
    from repro.verify.mutation import inject_mutant

    def check():
        controller = AdmissionController(
            _pdp_analysis(), AdmissionPolicy.EXACT, cache_namespace="admission"
        )
        return controller.check(0.032, 4_096)

    clean = check()
    persisted = sorted(glob.glob(str(tmp_path / "**" / "*.json"), recursive=True))
    assert persisted
    with inject_mutant("pdp_short_frame_dropped"):
        # The disk layer is detached: the clean row cannot answer, and
        # the mutant's result is not persisted.
        assert cache_mod.result_cache().directory is None
        misses = _counter("cache.admission.misses")
        check()
        assert _counter("cache.admission.misses") == misses + 1
    assert cache_mod.result_cache() is disk_cache
    assert len(disk_cache._memory) == 0  # entry and exit drop the memory layer
    assert (
        sorted(glob.glob(str(tmp_path / "**" / "*.json"), recursive=True))
        == persisted
    )
    hits = _counter("cache.admission.hits")
    replay = check()
    assert _counter("cache.admission.hits") == hits + 1
    assert replay == clean


def test_warm_disk_cache_cannot_hide_the_lockstep_mutant(disk_cache, tmp_path):
    """A campaign under ``breakdown_lockstep_bracket`` must fail
    ``breakdown_batch`` even after a clean campaign warmed the cache
    directory: breakdown searches are never cached, so the property
    always compares two real searches."""
    from repro.verify.fuzzer import FuzzConfig, run_fuzz
    from repro.verify.mutation import inject_mutant

    assert run_fuzz(FuzzConfig(n_cases=6, shrink=False)).ok
    assert (tmp_path / "admission").exists()
    assert not (tmp_path / "breakdown").exists()
    assert metrics.snapshot(prefix="cache.breakdown.") == {}
    with inject_mutant("breakdown_lockstep_bracket"):
        report = run_fuzz(
            FuzzConfig(
                n_cases=6, checks=("breakdown_batch",), shrink=False,
                max_violations=1,
            )
        )
    assert {v.check for v in report.violations} == {"breakdown_batch"}


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

