#!/usr/bin/env python
"""Smoke-verify the observability pipeline and the services end to end.

Runs ``repro.experiments.runner figure1 --fast --jobs 2`` in a temporary
directory and asserts the contract the manifest and structured log are
supposed to honour:

* ``manifest.json`` exists next to the CSV with the schema version, the
  seed, the parameters, a git SHA, and a metrics snapshot whose
  exact-test cache shows one miss and one kernel build per distinct
  period vector of the population (the sweep prepares its population
  once, in the parent, whatever the number of cells and workers);
* every line of the JSONL log parses as JSON and carries the mandatory
  fields;
* the CSV uses the current 10-column schema.

Two short ``runner fuzz --cache-dir D`` runs then hold the result
cache's cross-process disk contract (USAGE.md §13) on the admission
namespace, which the fuzz campaign's admission properties fill: the
first must show ``cache.admission.writes`` in its manifest and leave
entries under ``D/admission``, the second, a fresh process against the
same ``D``, must show ``cache.admission.hits`` and no misses.

It then smoke-tests the verification harness itself
(:mod:`repro.verify`): the mutation smoke must flag **every**
deliberately injected off-by-one bug — a differential harness that
cannot catch known bugs would be handing out vacuous green lights.

Next the admission-service canary spawns the asyncio server in-process
(``runner loadgen --spawn``) and drives two seconds of *paced* load:
at nominal rate the service must shed nothing, see zero transport
errors, keep p99 latency under 250 ms — the operational floor of
USAGE.md §14 — and every check and admit it served must have consulted
the admission decision cache, with at least one hit (the catalogue
repeats against unchanged populations).

The lossy-medium canary reruns a small ``loss-sweep`` in-process and
asserts the retransmission-aware bounds stay *sound*: at loss fractions
{0, 0.01, 0.05}, every message set the fault-aware analysis accepts must
meet all deadlines when simulated against a fault plan drawn at the
budget's rate; breakdown utilization must be positive fault-free and
monotone non-increasing in the loss fraction.  A committed
``BENCH_loss.json`` (from ``make bench-loss``) is held to the same shape
invariants.

The cluster canary spawns a real 2-worker sharded fleet (worker
subprocesses behind the consistent-hash router) and drives paced load
through the front: zero transport errors, traffic on every shard, and
sound fleet accounting — the lease total and the jointly admitted
utilization must stay within the aggregate cap.  A committed
``BENCH_cluster.json`` (from ``make bench-cluster``) must carry the
single-worker baseline and a sound budget in every entry; its measured
multi-worker scaling ratio is held to a 2.5x floor only when it was
recorded on a host with 4+ cores (on fewer cores the honest ratio
cannot exceed ~1x and the floor is skipped with a notice).

Finally the performance trend runs ``tools/bench_trend.py check``:
fresh perfbench runs of ``figure1_paper``, ``serve_check_warm`` and
``serve_admit_churn`` (about 20 s) must each be ``correct`` with no
failed operation, and on a host with a ``BENCH_history.jsonl`` record
must keep at least half the recorded throughput and at most twice the
recorded p90 latency.

Exit code 0 on success; raises (nonzero exit) with a diagnostic on any
violation.  ``make verify`` runs this after the tier-1 test suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _distinct_period_vectors(parameters: dict) -> int:
    """Distinct period vectors of the population a run's parameters draw."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.experiments.config import PaperParameters

    population = PaperParameters(**parameters).sample_population()
    return len({ms.rate_monotonic().periods for ms in population})


def run_smoke() -> None:
    """Execute the smoke run and assert on its artifacts."""
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        csv_path = os.path.join(tmp, "figure1.csv")
        jsonl_path = os.path.join(tmp, "run.jsonl")
        manifest_path = os.path.join(tmp, "manifest.json")
        cache_dir = os.path.join(tmp, "result-cache")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(REPO_ROOT, "src"),
                        env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.runner",
                "figure1", "--fast", "--jobs", "2",
                "--csv", csv_path, "--log-json", jsonl_path, "--quiet",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            raise AssertionError(
                f"runner exited {proc.returncode}\n"
                f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
            )
        if proc.stdout:
            raise AssertionError(
                f"--quiet run still wrote to stdout:\n{proc.stdout}"
            )

        # -- manifest ---------------------------------------------------
        if not os.path.exists(manifest_path):
            raise AssertionError(f"no manifest at {manifest_path}")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        for key in ("schema_version", "command", "parameters", "git",
                    "metrics", "spans", "wall_time_s"):
            if key not in manifest:
                raise AssertionError(f"manifest missing {key!r}")
        if manifest["command"] != "figure1":
            raise AssertionError(f"wrong command: {manifest['command']!r}")
        if "seed" not in manifest["parameters"]:
            raise AssertionError("manifest parameters missing the seed")
        if not manifest["git"]["sha"]:
            raise AssertionError("manifest has no git SHA")
        distinct = _distinct_period_vectors(manifest["parameters"])
        cache = {
            name: manifest["metrics"].get(f"pdp.exact_cache.{name}", {}).get("value")
            for name in ("misses", "kernel_builds")
        }
        if cache != {"misses": distinct, "kernel_builds": distinct}:
            raise AssertionError(
                f"exact-test cache shows {cache}, not one lookup and one "
                f"kernel per distinct period vector ({distinct}) — the "
                "population was not prepared once per sweep, or the "
                "accounting broke"
            )
        if not any("/bw" in key for key in manifest["spans"]):
            raise AssertionError("manifest spans carry no per-cell timings")
        # -- structured log ---------------------------------------------
        with open(jsonl_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            raise AssertionError("JSONL log is empty")
        for number, line in enumerate(lines, 1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise AssertionError(
                    f"line {number} of the JSONL log is not JSON: {error}"
                ) from error
            for field in ("ts", "level", "logger", "msg"):
                if field not in record:
                    raise AssertionError(
                        f"line {number} missing field {field!r}: {line}"
                    )

        # -- CSV schema --------------------------------------------------
        with open(csv_path, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
        if len(header) != 10 or header[-1] != "deg_ttp":
            raise AssertionError(f"unexpected CSV schema: {header}")

        # -- result cache across processes ------------------------------
        # Keys are content-addressed, so nothing about process identity
        # may change them: a second process against the same directory
        # must answer every lookup from what the first one persisted.
        # (The admission properties repeat populations within one run,
        # so hits alone would not show the disk layer at work.)
        first = _run_cached_fuzz(env, cache_dir, tmp, 1)
        if not _admission_count(first, "writes") > 0:
            raise AssertionError(
                "fuzz run 1 against --cache-dir shows no "
                "cache.admission.writes in its manifest"
            )
        if not any(
            name.endswith(".json")
            for _, _, files in os.walk(os.path.join(cache_dir, "admission"))
            for name in files
        ):
            raise AssertionError(
                f"--cache-dir wrote no admission entries under {cache_dir}"
            )
        second = _run_cached_fuzz(env, cache_dir, tmp, 2)
        lookups = {
            event: _admission_count(second, event)
            for event in ("hits", "misses")
        }
        if not (lookups["hits"] > 0 and lookups["misses"] == 0):
            raise AssertionError(
                f"fuzz run 2 against the same --cache-dir shows {lookups}: "
                "a fresh process must answer every admission lookup from "
                "the first run's entries"
            )

    print(
        "verify_smoke: ok (manifest, exact-test misses == kernel builds == "
        "distinct period vectors, JSONL log, CSV schema, admission-cache "
        "hits across processes)"
    )


def _admission_count(manifest: dict, event: str) -> float:
    """A manifest's ``cache.admission.<event>`` counter (0 when absent)."""
    metric = manifest["metrics"].get(f"cache.admission.{event}", {})
    return metric.get("value", 0)


def _run_cached_fuzz(env: dict, cache_dir: str, tmp: str, run: int) -> dict:
    """Run a short fuzz campaign against ``cache_dir``; return its manifest."""
    manifest_path = os.path.join(tmp, f"fuzz-manifest{run}.json")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.experiments.runner",
            "fuzz", "--fuzz-cases", "4", "--cache-dir", cache_dir,
            "--repro-dir", tmp, "--manifest", manifest_path, "--quiet",
        ],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"cached fuzz run {run} exited {proc.returncode}\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    with open(manifest_path, encoding="utf-8") as handle:
        return json.load(handle)


def run_mutation_smoke_check() -> None:
    """Assert the fuzz harness flags every deliberately injected bug."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.verify import run_mutation_smoke

    report = run_mutation_smoke()
    if not report.all_detected:
        raise AssertionError(
            "mutation smoke missed an injected bug:\n" + report.summary()
        )
    print(
        "verify_smoke: ok (mutation smoke "
        f"{sum(report.detected.values())}/{len(report.detected)} detected)"
    )


#: Service canary load: paced (not closed-loop) so the assertion tests
#: behaviour at *nominal* load — the service must shed nothing and stay
#: comfortably under the latency bound when it is not saturated.
_SERVICE_DURATION_S = 2.0
_SERVICE_TARGET_RPS = 400.0
_SERVICE_P99_BOUND_S = 0.25


def run_service_canary() -> None:
    """Spawn the admission service, drive nominal load, check the canary.

    Runs ``runner loadgen --spawn`` (in-process server on an ephemeral
    port) and asserts the operational floor of the service layer: the
    run completes, zero requests are shed (429) or refused (503), zero
    transport errors, p99 latency under the bound, and at least half the
    paced request budget actually served — a stalled batcher cannot hide
    behind a green exit code — and the server summary's spans hold one
    ``service/batch`` execution per counted batch.
    """
    with tempfile.TemporaryDirectory(prefix="repro-service-") as tmp:
        bench_path = os.path.join(tmp, "service.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(REPO_ROOT, "src"),
                        env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.runner", "loadgen",
                "--spawn",
                "--duration", str(_SERVICE_DURATION_S),
                "--load-workers", "4",
                "--target-rps", str(_SERVICE_TARGET_RPS),
                "--bench-json", bench_path,
                "--no-manifest", "--quiet", "--log-level", "error",
            ],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            raise AssertionError(
                f"service canary exited {proc.returncode}\n"
                f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
            )
        with open(bench_path, encoding="utf-8") as handle:
            document = json.load(handle)
        report = document["benchmarks"][0]["extra_info"]["report"]
        if report["shed"] or report["draining"]:
            raise AssertionError(
                f"service shed at nominal load: shed={report['shed']} "
                f"draining={report['draining']} (target "
                f"{_SERVICE_TARGET_RPS} rps, queue should be nowhere near "
                "full)"
            )
        if report["errors"]:
            raise AssertionError(
                f"service canary saw {report['errors']} transport errors"
            )
        p99 = report["latency_s"].get("p99")
        if p99 is None or p99 > _SERVICE_P99_BOUND_S:
            raise AssertionError(
                f"service p99 latency {p99!r}s exceeds the "
                f"{_SERVICE_P99_BOUND_S}s bound at nominal load"
            )
        floor = 0.5 * _SERVICE_TARGET_RPS * _SERVICE_DURATION_S
        if report["requests"] < floor:
            raise AssertionError(
                f"service served only {report['requests']} requests; "
                f"expected at least {floor:.0f} at the paced rate"
            )
        # Decision-cache guard: every served check and admit must look
        # its decision up, and the repeating catalogue must hit.  The
        # ratio itself is a property of this cold, churning mix (a fresh
        # server, 10% of operations change the population): about 0.31
        # with correct keys, so it cannot tell correct keys from broken
        # ones.  Key correctness is guarded by the admission_cache_equiv
        # fuzz property and by the cold/warm replay of
        # tests/test_admission.py.
        cache = document["benchmarks"][0]["extra_info"]["admission_cache"]
        decisions = report["ops"].get("check", 0) + report["ops"].get("admit", 0)
        if cache["hits"] + cache["misses"] < decisions or cache["hits"] < 1:
            raise AssertionError(
                f"admission decision cache not doing its job: {decisions} "
                f"decisions served, hits={cache['hits']:.0f} "
                f"misses={cache['misses']:.0f} — decisions are bypassing "
                "the cache or their keys never repeat"
            )
        # Span guard: the batch flush's spans must reach the server
        # summary whatever span the runner serves from, one service/batch
        # execution per counted batch.
        server = document["benchmarks"][0]["extra_info"]["server"]
        batch_spans = server["spans"].get("service/batch", {}).get("count")
        batches = server["metrics"]["service.batches"]["value"]
        if batch_spans != batches:
            raise AssertionError(
                f"server summary spans count {batch_spans!r} service/batch "
                f"executions for {batches:.0f} batches — batch spans are "
                "lost or filed under another path"
            )
    print(
        "verify_smoke: ok (service canary, "
        f"{report['requests']} requests, p99 {p99 * 1e3:.1f} ms, 0 shed, "
        f"cache hit ratio {cache['hit_ratio']:.2f}, "
        f"{batch_spans} service/batch spans)"
    )


#: Loss fractions the soundness canary probes (0 pins the fault-free path).
_LOSS_FRACTIONS = (0.0, 0.01, 0.05)
_LOSS_RECOVERY_S = 1e-3


def _assert_loss_shape(label, fractions, means) -> None:
    """Positive fault-free baseline, monotone non-increasing degradation."""
    if means[0] <= 0.0:
        raise AssertionError(
            f"{label}: fault-free breakdown utilization must be positive, "
            f"got {means[0]!r}"
        )
    for (f_lo, m_lo), (f_hi, m_hi) in zip(
        zip(fractions, means), list(zip(fractions, means))[1:]
    ):
        if m_hi > m_lo + 1e-9:
            raise AssertionError(
                f"{label}: breakdown utilization must not increase with "
                f"loss ({m_lo:.4f} @ {f_lo:g} -> {m_hi:.4f} @ {f_hi:g})"
            )


def run_loss_canary() -> None:
    """Fault-aware bounds must be sound and degrade monotonically.

    * a small in-process loss sweep must show a positive fault-free
      baseline and monotone non-increasing breakdown utilization for
      both protocols;
    * for each probed loss fraction, message sets scaled to 90% of the
      fault-aware breakdown (hence accepted non-vacuously) must meet
      every deadline when fault-injected at the declared rate;
    * a committed ``BENCH_loss.json`` must honour the same shape.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    import numpy as np

    from repro.analysis.pdp import PDPVariant
    from repro.experiments.config import PaperParameters
    from repro.experiments.loss_sweep import loss_sweep
    from repro.faults import (
        FaultBudget,
        FaultPlan,
        fault_aware_breakdown_scale,
        pdp_fault_aware_schedulable,
        rate_for_loss_fraction,
    )
    from repro.sim.pdp_sim import PDPRingSimulator, PDPSimConfig

    params = PaperParameters().scaled_down(n_stations=8, monte_carlo_sets=4)
    result, _ = loss_sweep(
        params,
        16.0,
        loss_fractions=_LOSS_FRACTIONS,
        recovery_time_s=_LOSS_RECOVERY_S,
    )
    for column in ("IEEE 802.5", "FDDI"):
        _assert_loss_shape(
            f"loss sweep {column}",
            [float(row[0]) for row in result.rows],
            [float(v) for v in result.column(column)],
        )

    analysis = params.pdp_analysis(16.0, PDPVariant.STANDARD)
    rng = np.random.default_rng(params.seed)
    sets = params.sampler().sample_many(rng, 3)
    checked = 0
    for fraction in _LOSS_FRACTIONS:
        budget = FaultBudget(
            token_loss_rate_hz=(
                rate_for_loss_fraction(fraction, _LOSS_RECOVERY_S)
                if fraction
                else 0.0
            ),
            recovery_time_s=_LOSS_RECOVERY_S,
        )
        for index, message_set in enumerate(sets):
            scale = fault_aware_breakdown_scale(
                lambda ms, b=budget: pdp_fault_aware_schedulable(
                    analysis, ms, b
                ),
                message_set,
            )
            if scale <= 0.0:
                continue
            probe = message_set.scaled(scale * 0.9)
            if not pdp_fault_aware_schedulable(analysis, probe, budget):
                continue
            plan = FaultPlan(
                seed=7_001 + index,
                token_loss_rate_hz=budget.token_loss_rate_hz,
                recovery_time_s=_LOSS_RECOVERY_S,
            )
            report = PDPRingSimulator(
                analysis.ring,
                analysis.frame,
                probe,
                PDPSimConfig(faults=plan),
            ).run(4.0 * probe.max_period)
            if not report.deadline_safe:
                missed = [
                    s.stream_index for s in report.streams if s.missed > 0
                ]
                raise AssertionError(
                    "fault-aware analysis accepted a set that missed "
                    f"deadlines under its own budget (loss fraction "
                    f"{fraction:g}, streams {missed}, "
                    f"faults={report.faults!r}) — the retransmission "
                    "inflation is unsound"
                )
            checked += 1
    if checked < 3:
        raise AssertionError(
            f"loss canary only exercised {checked} accepted sets; "
            "the soundness assertion is vacuous"
        )

    baseline_path = os.path.join(REPO_ROOT, "BENCH_loss.json")
    suffix = "no committed BENCH_loss.json"
    if os.path.exists(baseline_path):
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        for protocol in ("pdp", "ttp"):
            cells = sorted(
                (
                    bench["params"]["loss_fraction"],
                    bench["extra_info"]["mean_breakdown_utilization"],
                )
                for bench in baseline.get("benchmarks", [])
                if bench["params"]["protocol"] == protocol
            )
            if not cells:
                raise AssertionError(
                    f"BENCH_loss.json has no {protocol} cells"
                )
            _assert_loss_shape(
                f"BENCH_loss.json {protocol}",
                [fraction for fraction, _ in cells],
                [mean for _, mean in cells],
            )
        suffix = "committed BENCH_loss.json shape holds"
    print(
        f"verify_smoke: ok (loss canary: {checked} accepted sets "
        f"deadline-safe under injected faults at fractions "
        f"{_LOSS_FRACTIONS}; {suffix})"
    )


#: Cluster canary shape: a 2-worker fleet driven for a couple of paced
#: seconds — enough to prove routing, budget accounting, and per-shard
#: telemetry without turning verify into a benchmark run.
_CLUSTER_DURATION_S = 2.0
_CLUSTER_TARGET_RPS = 300.0
_CLUSTER_WORKERS = 2

#: Scaling floor for the *committed* BENCH_cluster.json: a 4-worker
#: fleet must deliver at least this multiple of the single-worker fleet
#: throughput — but only when the canary was recorded on hardware that
#: can physically express it (cores >= _CLUSTER_MIN_CPUS).  On a 1-core
#: host every worker shares the core and the router adds a hop, so the
#: honest measured ratio is <= 1 and the floor is meaningless.
_CLUSTER_SCALING_FLOOR = 2.5
_CLUSTER_MIN_CPUS = 4


def run_cluster_canary() -> None:
    """Spawn a live sharded fleet, then audit the committed cluster bench.

    Live half: ``runner loadgen --workers 2`` spawns two worker
    subprocesses behind the consistent-hash router and drives paced
    load through the front.  The run must complete with zero transport
    errors, traffic must reach *both* shards (per-shard latency
    percentiles present for w0 and w1), and the fleet accounting must
    come back sound: lease total within the aggregate cap and joint
    admitted utilization never past it.

    Committed half: ``BENCH_cluster.json`` (from ``make bench-cluster``)
    must carry the single-worker baseline, a sound budget in every
    entry, and — when it was recorded on a host with at least
    ``_CLUSTER_MIN_CPUS`` cores — a measured multi-worker scaling ratio
    of at least ``_CLUSTER_SCALING_FLOOR``.  Recorded on smaller
    hardware, the ratio is reported but the floor is skipped with a
    notice (a host key keeps the perfbench trend to its own hardware
    for the same reason).
    """
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as tmp:
        bench_path = os.path.join(tmp, "BENCH_cluster_live.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(REPO_ROOT, "src"),
                        env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.runner", "loadgen",
                "--workers", str(_CLUSTER_WORKERS),
                "--duration", str(_CLUSTER_DURATION_S),
                "--load-workers", "4",
                "--target-rps", str(_CLUSTER_TARGET_RPS),
                "--bench-json", bench_path,
                "--no-manifest", "--quiet", "--log-level", "error",
            ],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            raise AssertionError(
                f"cluster canary exited {proc.returncode}\n"
                f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
            )
        with open(bench_path, encoding="utf-8") as handle:
            document = json.load(handle)
        extra = document["benchmarks"][0]["extra_info"]
        report = extra["report"]
        fleet = extra["fleet"]
        if report["errors"]:
            raise AssertionError(
                f"cluster canary saw {report['errors']} transport errors "
                "through the router"
            )
        floor = 0.5 * _CLUSTER_TARGET_RPS * _CLUSTER_DURATION_S
        if report["requests"] < floor:
            raise AssertionError(
                f"cluster served only {report['requests']} requests; "
                f"expected at least {floor:.0f} at the paced rate"
            )
        shard_keys = set(report.get("shard_latency_s", {}))
        expected = {f"w{i}" for i in range(_CLUSTER_WORKERS)}
        if not expected <= shard_keys:
            raise AssertionError(
                "traffic did not reach every shard: per-shard latency "
                f"covers {sorted(shard_keys)}, expected at least "
                f"{sorted(expected)} — the hash router is not spreading "
                "the catalogue"
            )
        if fleet["reachable"] != _CLUSTER_WORKERS:
            raise AssertionError(
                f"only {fleet['reachable']}/{_CLUSTER_WORKERS} workers "
                "reachable at the end of the canary run"
            )
        if not fleet["fleet"]["budget_sound"]:
            raise AssertionError(
                "fleet lease ledger is unsound: granted "
                f"{fleet['fleet']['lease_granted_total']!r} vs cap "
                f"{fleet['fleet']['utilization_cap']!r}"
            )
        cap = fleet["fleet"]["utilization_cap"]
        joint = fleet["fleet"]["utilization"]
        if joint > cap + 1e-9:
            raise AssertionError(
                f"fleet jointly admitted utilization {joint:.6f} past the "
                f"aggregate cap {cap:.6f} — the lease split is not "
                "containing the workers"
            )

    baseline_path = os.path.join(REPO_ROOT, "BENCH_cluster.json")
    suffix = "no committed BENCH_cluster.json"
    if os.path.exists(baseline_path):
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        by_name = {
            bench["name"]: bench for bench in baseline.get("benchmarks", [])
        }
        if "fleet_w1" not in by_name:
            raise AssertionError(
                "BENCH_cluster.json has no single-worker baseline entry"
            )
        for name, bench in sorted(by_name.items()):
            bench_fleet = bench["extra_info"]["fleet"]["fleet"]
            if not bench_fleet["budget_sound"]:
                raise AssertionError(
                    f"BENCH_cluster.json entry {name} records an unsound "
                    "budget ledger"
                )
        scaled = [
            (name, bench)
            for name, bench in sorted(by_name.items())
            if "scaling_vs_single" in bench["extra_info"]
        ]
        if not scaled:
            raise AssertionError(
                "BENCH_cluster.json has no multi-worker scaling entry"
            )
        name, bench = scaled[-1]
        ratio = bench["extra_info"]["scaling_vs_single"]
        recorded_cpus = bench["extra_info"].get("cpu_count") or 0
        if recorded_cpus >= _CLUSTER_MIN_CPUS:
            if ratio < _CLUSTER_SCALING_FLOOR:
                raise AssertionError(
                    f"BENCH_cluster.json {name} scaled only {ratio:.2f}x "
                    f"vs the single-worker fleet on a {recorded_cpus}-core "
                    f"host; the {_CLUSTER_SCALING_FLOOR}x floor means the "
                    "fleet stopped parallelising"
                )
            suffix = (
                f"committed {name} scaling {ratio:.2f}x holds the "
                f"{_CLUSTER_SCALING_FLOOR}x floor"
            )
        else:
            suffix = (
                f"committed {name} scaling {ratio:.2f}x recorded on a "
                f"{recorded_cpus}-core host — floor needs "
                f"{_CLUSTER_MIN_CPUS}+ cores, skipped with this notice"
            )
    print(
        "verify_smoke: ok (cluster canary: "
        f"{report['requests']} requests through the router across "
        f"{len(shard_keys)} shards, fleet budget sound; {suffix})"
    )


def run_top_smoke() -> None:
    """One ``runner top --once --spawn`` frame must render live telemetry.

    Spawns the in-process server, drives the seeded burst, and asserts
    the frame actually shows traffic: the ``req/s`` line, the latency
    percentiles, and the batch-size section all come from the
    ``/metrics`` histograms, so an empty or missing section means the
    bucketed pipeline (or its delta arithmetic) broke.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.experiments.runner", "top",
            "--spawn", "--once", "--interval", "0.5",
            "--no-manifest", "--log-level", "error",
        ],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"runner top --once failed (rc={proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    for needle in ("req/s", "latency", "batches"):
        if needle not in proc.stdout:
            raise AssertionError(
                f"top frame is missing {needle!r}:\n{proc.stdout}"
            )
    print("verify_smoke: ok (runner top --once renders live telemetry)")


def run_perf_trend() -> None:
    """Fresh perfbench runs must be correct and hold this host's record."""
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", "bench_trend.py"),
         "check"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=900,
    )
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise AssertionError(
            f"perfbench trend check failed (rc={proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    print("verify_smoke: ok (perfbench trend)")


if __name__ == "__main__":
    run_smoke()
    run_mutation_smoke_check()
    run_service_canary()
    run_loss_canary()
    run_cluster_canary()
    run_top_smoke()
    run_perf_trend()
