"""Direct admission-controller canary: ``BENCH_admission.json``.

``runner bench-admission`` (``make bench-admission``) measures the
admission controller itself — no HTTP, no batcher — over four regimes:

========================  ====================================================
``check_heavy``           the serving steady state: 90% non-mutating checks
                          against a stable admitted population, 5% admits,
                          5% releases
``churn_heavy``           an adversarial mix: 40% admits / 30% releases /
                          30% checks, so the base set mutates constantly and
                          most decisions key a population not seen before
``cold`` vs ``warm``      each mix runs twice: once against a cleared
                          content-addressed result cache, then again on a
                          fresh controller with the cache retained — the
                          warm pass must *hit* (the keys are canonical set
                          signatures, so controller identity cannot matter)
========================  ====================================================

The cold and warm passes replay the **same** deterministic op sequence,
so their decision tallies must match (asserted here — a warm pass that
decides differently means a cached verdict diverged, and fails the
canary rather than writing a wrong-but-green document).

The output uses the summarized-canary schema
(:data:`~repro.obs.benchjson.BENCH_SCHEMA_VERSION`): one benchmark entry
per (mix, phase) cell with per-op latency statistics in ``stats`` and
the decision-cache counter deltas in ``extra_info``.
``tools/verify_smoke.py`` guards the warm cells' hit ratio and compares
means against the committed baseline.
"""

from __future__ import annotations

import datetime
import platform
import random
import statistics
import time

import numpy as np

from repro import cache as result_cache
from repro.admission import AdmissionController, AdmissionPolicy
from repro.analysis.pdp import PDPAnalysis, PDPVariant
from repro.errors import ReproError
from repro.network.standards import ieee_802_5_ring, paper_frame_format
from repro.obs import metrics
from repro.obs.benchjson import BENCH_SCHEMA_VERSION, cpu_info
from repro.units import mbps

__all__ = ["MIXES", "run_admission_bench"]

#: ``mix -> (admit_fraction, release_fraction)``; the remainder is checks.
MIXES: dict[str, tuple[float, float]] = {
    "check_heavy": (0.05, 0.05),
    "churn_heavy": (0.40, 0.30),
}

#: Cache namespace for the canary (isolated from the serving namespace so
#: a bench run cannot pre-warm or poison service measurements).
_NAMESPACE = "admission-bench"

#: Counter families whose per-cell deltas land in ``extra_info``.
_COUNTER_PREFIXES = (f"cache.{_NAMESPACE}.",)


def _catalogue(seed: int, size: int = 32) -> list[tuple[float, float]]:
    """Seeded candidate pool (the loadgen catalogue shape)."""
    rng = random.Random(seed)
    return [
        (
            rng.choice([0.008, 0.016, 0.032, 0.064, 0.128, 0.256]),
            float(rng.randrange(64, 2048, 64)),
        )
        for _ in range(size)
    ]


def _op_sequence(mix: str, seed: int, n_ops: int) -> list[tuple]:
    """One deterministic op list, replayed identically by every cell.

    Releases carry an index resolved against the admitted-id list at
    execution time; because every pass decides identically, the
    resolved ids match across passes too.
    """
    admit_fraction, release_fraction = MIXES[mix]
    rng = random.Random(seed)
    catalogue = _catalogue(seed)
    ops: list[tuple] = []
    for _ in range(n_ops):
        roll = rng.random()
        period_s, payload_bits = rng.choice(catalogue)
        if roll < release_fraction:
            ops.append(("release", rng.randrange(1 << 30)))
        elif roll < release_fraction + admit_fraction:
            ops.append(("admit", period_s, payload_bits))
        else:
            ops.append(("check", period_s, payload_bits))
    return ops


def _build() -> AdmissionController:
    analysis = PDPAnalysis(
        ieee_802_5_ring(mbps(16.0), n_stations=40),
        paper_frame_format(),
        PDPVariant.MODIFIED,
        cache_size=128,
    )
    return AdmissionController(
        analysis, AdmissionPolicy.EXACT, cache_namespace=_NAMESPACE
    )


def _counter_values() -> dict[str, float]:
    return {
        name: float(snap.get("value", 0.0))
        for name, snap in metrics.snapshot(prefix=_COUNTER_PREFIXES).items()
        if "value" in snap
    }


def _run_cell(ops: list[tuple]) -> tuple[list[float], dict]:
    """Replay one op sequence; per-op latencies plus the decision tally."""
    controller = _build()
    admitted_ids: list[int] = []
    samples: list[float] = []
    tally = {"admitted": 0, "rejected": 0, "released": 0, "checks_true": 0}
    for op in ops:
        started = time.perf_counter()
        if op[0] == "check":
            decision = controller.check(op[1], op[2])
            tally["checks_true"] += decision.admitted
        elif op[0] == "admit":
            decision = controller.request(op[1], op[2])
            if decision.admitted:
                tally["admitted"] += 1
                admitted_ids.append(decision.stream_id)
            else:
                tally["rejected"] += 1
        elif admitted_ids:
            stream_id = admitted_ids.pop(op[1] % len(admitted_ids))
            outcome = controller.release(stream_id, idempotent=True)
            tally["released"] += outcome.released
        samples.append(time.perf_counter() - started)
    return samples, tally


def _stats(samples: list[float]) -> dict:
    arr = np.asarray(samples, dtype=float)
    q1, median, q3 = (float(x) for x in np.percentile(arr, [25.0, 50.0, 75.0]))
    total = float(arr.sum())
    return {
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "stddev": float(statistics.pstdev(samples)),
        "median": median,
        "iqr": q3 - q1,
        "q1": q1,
        "q3": q3,
        "ops": len(samples) / total if total > 0 else None,
        "total": total,
        "rounds": len(samples),
        "iterations": 1,
    }


def run_admission_bench(seed: int, *, n_ops: int = 400) -> dict:
    """The full canary document (``BENCH_admission.json`` content).

    Each mix replays the same op sequence twice — cold (result cache
    cleared) then warm (cache retained, fresh controller).  The two
    passes' decision tallies are cross-checked; a divergence raises
    :class:`~repro.errors.ReproError` instead of emitting a document
    that benchmarks two different computations.
    """
    benchmarks = []
    for mix in MIXES:
        ops = _op_sequence(mix, seed, n_ops)
        tallies: dict[str, dict] = {}
        result_cache.clear()
        for phase in ("cold", "warm"):
            before = _counter_values()
            samples, tally = _run_cell(ops)
            deltas = {
                name: value - before.get(name, 0.0)
                for name, value in _counter_values().items()
                if value != before.get(name, 0.0)
            }
            tallies[phase] = tally
            hits = deltas.get(f"cache.{_NAMESPACE}.hits", 0.0)
            misses = deltas.get(f"cache.{_NAMESPACE}.misses", 0.0)
            lookups = hits + misses
            benchmarks.append(
                {
                    "group": "admission",
                    "name": f"{mix}_{phase}",
                    "fullname": (
                        f"repro.experiments.admission_bench::{mix}_{phase}"
                    ),
                    "params": {
                        "mix": mix,
                        "phase": phase,
                        "n_ops": n_ops,
                        "seed": seed,
                    },
                    "extra_info": {
                        "tally": tally,
                        "counters": deltas,
                        "cache_hit_ratio": hits / lookups if lookups else None,
                    },
                    "stats": _stats(samples),
                }
            )
        if tallies["cold"] != tallies["warm"]:
            raise ReproError(
                f"cold/warm divergence in {mix}: "
                f"cold={tallies['cold']} warm={tallies['warm']}"
            )
    uname = platform.uname()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "datetime": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "pytest_benchmark_version": None,
        "commit_info": None,
        "machine": {
            "node": uname.node,
            "machine": uname.machine,
            "system": uname.system,
            "release": uname.release,
            "python_version": platform.python_version(),
            "cpu": cpu_info(arch=uname.machine),
        },
        "benchmarks": benchmarks,
    }
