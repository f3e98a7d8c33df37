"""Benchmark of the admission service and the Figure 1 pipeline.

Run from the root of a checkout of this repository::

    python3 perfbench/run.py --workload serve_check_warm --seed 1 \\
        --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it holds the details (sample counts, digests, oracle
outcome counts, the same figures in wall seconds).  Workloads, metrics
and the layer-to-metric table are described in ``BENCHMARK.json`` and
``perfbench/NOTES.md``.

End-to-end timings are in reference seconds of :mod:`hostprobe`: each
stretch of timed work is scaled by a fixed probe timed right around it,
which cancels the host's own changes of speed.

Every workload is count-bound: ``--seconds`` sets the number of
operations (at a fixed nominal rate per workload), never a deadline, so
the work done and every decision are identical on every run of a seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostprobe  # noqa: E402

WORKLOADS = (
    "serve_check_warm",
    "serve_admit_churn",
    "fleet1_check_warm",
    "figure1_paper",
)

#: Timed operations per requested second, per service workload — about
#: what one CPU of a slow, shared x86 host serves, so a run measures for
#: at most about ``--seconds``.  The count, not the clock, bounds the run.
NOMINAL_OPS_PER_S = {
    "serve_check_warm": 1200,
    "serve_admit_churn": 600,
    "fleet1_check_warm": 800,
}

#: Nominal wall time of one Figure 1 sweep, seconds.
NOMINAL_SWEEP_S = 10.0

#: Wall time of service work between two host probes, seconds: short
#: against the seconds a host speed phase lasts, long against the probe.
SLICE_S = 0.02

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Equal-count chunks the timed operations are split into; throughput
#: and latency percentiles are medians over the chunks.
CHUNKS = 10

#: Scratch directory (relative to the checkout root) for cluster
#: runtime files.
RUNTIME_DIR = ".perfbench_run"

#: Seconds to wait for a child process to come up or wind down.
CHILD_TIMEOUT_S = 60.0


#: End-to-end metrics (``--trace 0``) and their units.  Throughput counts
#: served requests, or Figure 1 grid cells, per second.
END_TO_END = {
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.  Times in ``us``
#: are per served request, in ``ms`` per Figure 1 sweep; counts are per
#: run (service) or per sweep (Figure 1).
PER_LAYER = {
    "service.request_us": "us",
    "service.parse_us": "us",
    "service.encode_us": "us",
    "service.ratelimit_us": "us",
    "service.batcher_wait_us": "us",
    "service.batch_size_mean": "ops",
    "service.unattributed_us": "us",
    "obs.trace_us": "us",
    "admission.batch_us": "us",
    "admission.exact_us": "us",
    "admission.exact_candidates": "count",
    "admission.incremental.levels_reused": "count",
    "admission.incremental.levels_computed": "count",
    "admission.incremental.fallbacks": "count",
    "cache.get_us": "us",
    "cache.put_us": "us",
    "cache.key_us": "us",
    "cache.admission.hit_ratio": "ratio",
    "cluster.router_hop_us": "us",
    "cluster.router.retries": "count",
    "latency_p99_ms": "ms",
    "messages.sample_ms": "ms",
    "analysis.rm.structure_builds": "count",
    "analysis.rm.structure_build_ms": "ms",
    "analysis.pdp.probe_ms": "ms",
    "analysis.pdp.probe_calls": "count",
    "analysis.breakdown.search_ms": "ms",
    "analysis.breakdown.probes": "count",
    "analysis.ttp.saturation_ms": "ms",
    "experiments.figure1.sweep_ms": "ms",
    "experiments.figure1.cell_max_ms": "ms",
    "experiments.figure1.unattributed_ms": "ms",
    "trace_overhead_pct": "%",
}


# -- environment -----------------------------------------------------------


def _pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU.

    A closed-loop request/response between processes on different
    vCPUs pays a cross-CPU wake-up per hop, and on a virtual machine each
    wake-up waits on the hypervisor.  On one CPU a request costs its CPU
    work plus context switches, which repeats far better.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _child_env(src: str) -> dict:
    """The environment of every process under test.

    ``REPRO_*`` variables (cache directory, engine override, ...) are
    removed so a run never inherits state or switches from its caller.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """A process under test speaking the JSON-lines control protocol."""

    def __init__(self, argv: list, env: dict, cwd: str):
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=cwd,
            text=True,
        )

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"process {self.proc.args[1]} exited early")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def stop(self) -> None:
        """Ask the process to finish, and wait until it has."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- HTTP client ------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection sending pre-encoded requests."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=CHILD_TIMEOUT_S
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        self.sock.sendall(request)
        rfile = self.rfile
        status = int(rfile.readline().split(b" ", 2)[1])
        length = 0
        while True:
            line = rfile.readline()
            if line in (b"\r\n", b""):
                break
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        return status, rfile.read(length)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _failures(responses, expected) -> int:
    """Operations whose status is not 200 or whose body differs."""
    failed = 0
    for (status, body), want in zip(responses, expected):
        if status != 200:
            failed += 1
            continue
        try:
            got = json.dumps(json.loads(body), sort_keys=True)
        except ValueError:
            failed += 1
            continue
        if got != want:
            failed += 1
    return failed


def _drive(conn: Connection, requests: list, slice_ops: int) -> dict:
    """Issue ``requests`` in order, timing the host probe between slices.

    The requests go out in slices of ``slice_ops``, with one probe before
    the first slice and one after each.  A request's latency and its
    interval (completion since the previous completion, or since its
    slice started) are scaled to reference seconds by the factor of the
    mean of the two probes around its slice.  (Tried on one recording of
    4000 slices: this tracked the host better than medians over wider
    windows of probes, which miss its sub-second changes.)  Returns the
    responses, the raw and the scaled latencies and intervals, and the
    client's CPU time spent on the requests.
    """
    n = len(requests)
    responses = [None] * n
    latencies = [0.0] * n
    intervals = [0.0] * n
    exchange = conn.exchange
    perf = time.perf_counter
    client_cpu_s = 0.0
    probes = []
    gc.collect()
    gc.disable()
    try:
        probes.append(hostprobe.probe_s())
        for lo in range(0, n, slice_ops):
            cpu0 = time.process_time()
            previous = perf()
            for i in range(lo, min(n, lo + slice_ops)):
                t0 = perf()
                responses[i] = exchange(requests[i])
                t1 = perf()
                latencies[i] = t1 - t0
                intervals[i] = t1 - previous
                previous = t1
            client_cpu_s += time.process_time() - cpu0
            probes.append(hostprobe.probe_s())
    finally:
        gc.enable()
    scaled_latencies = [0.0] * n
    scaled_intervals = [0.0] * n
    for k, lo in enumerate(range(0, n, slice_ops)):
        f = hostprobe.factor((probes[k] + probes[k + 1]) / 2.0)
        for i in range(lo, min(n, lo + slice_ops)):
            scaled_latencies[i] = latencies[i] * f
            scaled_intervals[i] = intervals[i] * f
    return {
        "responses": responses,
        "latencies": latencies,
        "intervals": intervals,
        "scaled_latencies": scaled_latencies,
        "scaled_intervals": scaled_intervals,
        "client_cpu_s": client_cpu_s,
    }


def _quantile(values: list, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[index]


def _chunked(latencies: list, intervals: list) -> dict:
    """Throughput and latency percentiles, each the median over chunks.

    The timed operations are split into equal-count chunks; each chunk
    gives a rate (its operations over the sum of their intervals) and its
    own latency percentiles, and each figure is the median over the
    chunks.  A disturbance that slows a few chunks then moves none of
    the figures.
    """
    n = len(latencies)
    chunks = min(CHUNKS, n)
    rates, p50, p90 = [], [], []
    for k in range(chunks):
        lo, hi = k * n // chunks, (k + 1) * n // chunks
        rates.append((hi - lo) / sum(intervals[lo:hi]))
        p50.append(_quantile(latencies[lo:hi], 0.50))
        p90.append(_quantile(latencies[lo:hi], 0.90))
    return {
        "throughput": statistics.median(rates),
        "latency_p50_ms": statistics.median(p50) * 1e3,
        "latency_p90_ms": statistics.median(p90) * 1e3,
    }


# -- service workloads ------------------------------------------------------


def _server_argv(workload: str, root: str, trace: bool) -> list:
    """Arguments of ``server_proc.py`` for one service workload."""
    argv = []
    if workload.startswith("fleet"):
        runtime = os.path.join(root, RUNTIME_DIR)
        os.makedirs(runtime, exist_ok=True)
        argv += ["--mode", "cluster", "--runtime-dir", runtime]
    else:
        argv += ["--mode", "server"]
    if trace:
        argv.append("--trace")
    return argv


class ServiceSession:
    """One process under test, set up with the script's preload+warm-up.

    ``launcher`` is the script that starts the server (``server_proc.py``
    unless a self-test substitutes its own).
    """

    def __init__(self, workload, script, env, root, trace, launcher=None):
        launcher = launcher or os.path.join(HERE, "server_proc.py")
        argv = [launcher, *_server_argv(workload, root, trace)]
        self.workload = workload
        probe_before = hostprobe.steady_probe_s()
        t0 = time.perf_counter()
        self.child = Child(argv, env, root)
        self.conn = None
        try:
            self.port = self.child.read()["port"]
            self.conn = Connection(self.port)
            requests = script.preload_requests + script.warmup_requests
            expected = script.preload_expected + script.warmup_expected
            responses = [self.conn.exchange(r) for r in requests]
        except BaseException:
            self.close()
            raise
        self.raw_setup_s = time.perf_counter() - t0
        factor = hostprobe.factor((probe_before + hostprobe.steady_probe_s()) / 2.0)
        self.setup_s = self.raw_setup_s * factor
        self.attempted = len(requests)
        self.failed = _failures(responses, expected)

    def stats(self) -> dict:
        return self.child.ask("stats")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        self.child.stop()


def _timed_window(session: ServiceSession, script) -> dict:
    """The timed part of a script against a set-up session."""
    slice_ops = max(1, round(NOMINAL_OPS_PER_S[session.workload] * SLICE_S))
    before = session.stats()
    timed = _drive(session.conn, script.timed_requests, slice_ops)
    after = session.stats()
    raw = _chunked(timed["latencies"], timed["intervals"])
    n = len(timed["responses"])
    return {
        "before": before,
        "after": after,
        # Per-layer figures are wall times, as the spans inside them.
        "latencies": timed["latencies"],
        **_chunked(timed["scaled_latencies"], timed["scaled_intervals"]),
        "raw": raw,
        "client_cpu_us_per_op": timed["client_cpu_s"] / n * 1e6,
        "failed": _failures(timed["responses"], script.timed_expected),
        "attempted": n,
    }


def _service_untraced(workload, script, env, root) -> tuple[dict, dict, int, int]:
    setups, raw_setups, attempted, failed = [], [], 0, 0
    session = None
    try:
        for k in range(SETUP_REPEATS):
            session = ServiceSession(workload, script, env, root, trace=False)
            setups.append(session.setup_s)
            raw_setups.append(session.raw_setup_s)
            attempted += session.attempted
            failed += session.failed
            if k < SETUP_REPEATS - 1:
                session.close()
        window = _timed_window(session, script)
    finally:
        if session is not None:
            session.close()
    attempted += window["attempted"]
    failed += window["failed"]
    metrics = {
        "throughput": window["throughput"],
        "latency_p50_ms": window["latency_p50_ms"],
        "latency_p90_ms": window["latency_p90_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": window["after"]["peak_rss_mb"],
    }
    detail = {
        "samples": {
            "requests": window["attempted"],
            "chunks": CHUNKS,
            "setups": len(setups),
        },
        "setup_s_all": setups,
        "raw_setup_s_all": raw_setups,
        "raw": window["raw"],
        "client_cpu_us_per_op": window["client_cpu_us_per_op"],
    }
    return metrics, detail, attempted, failed


def _delta_metrics(before: dict, after: dict) -> dict:
    """Per-window deltas of counters and histogram count/total."""
    out = {}
    for name, data in after.items():
        prior = before.get(name, {})
        if data.get("type") == "counter":
            out[name] = data["value"] - prior.get("value", 0.0)
        elif data.get("type") == "histogram":
            out[name] = (
                data["count"] - prior.get("count", 0),
                data["total"] - prior.get("total", 0.0),
            )
    return out


def _add(total: dict, delta: dict) -> None:
    """Sum per-window deltas (numbers or (count, total) pairs)."""
    for name, value in delta.items():
        if isinstance(value, tuple):
            prior = total.get(name, (0, 0.0))
            total[name] = (prior[0] + value[0], prior[1] + value[1])
        else:
            total[name] = total.get(name, 0.0) + value


def _accumulate(spans: dict, counts: dict, before, after) -> None:
    """Add one window's span self times (s) and counts to the totals."""
    if before is None or after is None:
        return
    for name, data in after["spans"].items():
        prior = before["spans"].get(name, {})
        spans[name] = spans.get(name, 0.0) + data["self_s"] - prior.get("self_s", 0.0)
    for name, value in after["counts"].items():
        counts[name] = counts.get(name, 0) + value - before["counts"].get(name, 0)


#: Server-side spans whose self times partition a served request.
_SERVICE_SPANS = {
    "service.parse_us": "service.parse",
    "service.encode_us": "service.encode",
    "service.ratelimit_us": "service.ratelimit",
    "service.batcher_wait_us": "service.batcher_wait",
    "obs.trace_us": "obs.trace",
    "admission.batch_us": "admission.batch",
    "admission.exact_us": "admission.exact",
    "cache.get_us": "cache.get",
    "cache.put_us": "cache.put",
    "cache.key_us": "cache.key",
}


def _service_layers(windows: list, workload: str) -> dict:
    """Per-layer figures of the traced windows, per served request."""
    n = sum(w["attempted"] for w in windows)
    lat = [x for w in windows for x in w["latencies"]]
    client_mean_us = statistics.fmean(lat) * 1e6
    spans, counts, server, router = {}, {}, {}, {}
    fleet = workload.startswith("fleet")
    for w in windows:
        before, after = w["before"], w["after"]
        _accumulate(spans, counts, before["layers"], after["layers"])
        if fleet:
            worker = _delta_metrics(before["worker_metrics"], after["worker_metrics"])
            _add(server, worker)
            _add(router, _delta_metrics(before["metrics"], after["metrics"]))
        else:
            _add(server, _delta_metrics(before["metrics"], after["metrics"]))
    out = {}
    attributed = 0.0
    for metric, span in _SERVICE_SPANS.items():
        value = spans.get(span, 0.0) / n * 1e6
        out[metric] = value
        attributed += value
    out["service.unattributed_us"] = client_mean_us - attributed if spans else 0.0
    out["service.request_us"] = client_mean_us
    batches, batch_total = server.get("service.batch_size", (0, 0.0))
    out["service.batch_size_mean"] = batch_total / batches if batches else 0.0
    out["admission.exact_candidates"] = counts.get("admission.exact_candidates", 0)
    for name in ("levels_reused", "levels_computed", "fallbacks"):
        key = f"admission.incremental.{name}"
        out[key] = server.get(key, 0.0)
    hits = server.get("cache.admission.hits", 0.0)
    misses = server.get("cache.admission.misses", 0.0)
    out["cache.admission.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if fleet:
        served, served_total = server.get("service.request_latency_s", (0, 0.0))
        out["cluster.router_hop_us"] = client_mean_us - served_total / served * 1e6
        out["cluster.router.retries"] = router.get("cluster.router.retries", 0.0)
    out["latency_p99_ms"] = _quantile(lat, 0.99) * 1e3
    return out


def _service_traced(workload, script, env, root) -> tuple[dict, dict, int, int]:
    """Untraced and traced sessions in A-B-B-A order on the same script.

    The order cancels a linear drift of host speed out of the tracing
    overhead; the per-layer figures come from the two traced windows.
    """
    windows = {False: [], True: []}
    attempted = failed = 0
    for trace in (False, True, True, False):
        session = ServiceSession(workload, script, env, root, trace=trace)
        try:
            window = _timed_window(session, script)
        finally:
            session.close()
        windows[trace].append(window)
        attempted += session.attempted + window["attempted"]
        failed += session.failed + window["failed"]
    metrics = _service_layers(windows[True], workload)
    plain = statistics.fmean(w["throughput"] for w in windows[False])
    traced = statistics.fmean(w["throughput"] for w in windows[True])
    metrics["trace_overhead_pct"] = (plain / traced - 1.0) * 100.0
    detail = {
        "samples": {"traced_requests": sum(w["attempted"] for w in windows[True])},
        "untraced_throughput": plain,
        "traced_throughput": traced,
    }
    return metrics, detail, attempted, failed


def run_service(workload, seed, seconds, trace, env, root):
    from scripts import generate

    n_timed = round(NOMINAL_OPS_PER_S[workload] * seconds)
    if trace:
        # Four sessions share the traced run's budget (see _service_traced).
        n_timed //= 4
    script = generate(workload, seed, max(CHUNKS, n_timed))
    runner = _service_traced if trace else _service_untraced
    try:
        metrics, detail, attempted, failed = runner(workload, script, env, root)
    finally:
        shutil.rmtree(os.path.join(root, RUNTIME_DIR), ignore_errors=True)
    detail.update(
        script_digest=script.script_digest(),
        decision_digest=script.decision_digest(),
        timed_ops=n_timed,
        oracle_outcomes=script.kinds,
    )
    return metrics, detail, attempted, failed


# -- figure1_paper ------------------------------------------------------------

FIGURE1_SPANS = (
    ("messages.sample_ms", "messages.sample"),
    ("analysis.rm.structure_build_ms", "analysis.rm.structure_build"),
    ("analysis.pdp.probe_ms", "analysis.pdp.probe"),
    ("analysis.breakdown.search_ms", "analysis.breakdown.search"),
    ("analysis.ttp.saturation_ms", "analysis.ttp.saturation"),
)


def _load_reference() -> dict:
    with open(os.path.join(HERE, "figure1_reference.json")) as handle:
        return json.load(handle)


def _figure1_failures(sweep: dict, reference: dict) -> int:
    failed = sum(not ok for ok in sweep["shape"].values())
    if sweep["bandwidths_mbps"] != reference["bandwidths_mbps"]:
        return failed + len(reference["means"]) * 3
    for got, want in zip(sweep["means"], reference["means"]):
        failed += sum(g != w for g, w in zip(got, want))
    return failed


def _figure1_session(env, root, trace: bool, sweeps: int):
    """Spawn one sweep process: (setup_s, raw setup_s, [sweep results]).

    ``setup_s`` is in reference seconds, scaled by host probes taken
    just before the spawn and just after the process is ready.
    """
    argv = [os.path.join(HERE, "figure1_proc.py")] + (["--trace"] if trace else [])
    probe_before = hostprobe.steady_probe_s()
    t0 = time.perf_counter()
    child = Child(argv, env, root)
    try:
        child.read()
        raw_setup_s = time.perf_counter() - t0
        factor = hostprobe.factor((probe_before + hostprobe.steady_probe_s()) / 2.0)
        results = [child.ask("sweep") for _ in range(sweeps)]
    finally:
        child.stop()
    return raw_setup_s * factor, raw_setup_s, results


def _cell_rate(sweep: dict) -> float:
    """Cells per reference second of the sweep."""
    return len(sweep["scaled_cell_s"]) / sweep["scaled_elapsed_s"]


def _figure1_layers(results: list) -> dict:
    """Per-layer figures of the traced sweeps, per sweep."""
    sweeps = len(results)
    spans: dict = {}
    for r in results:
        for name, data in r["layers"]["spans"].items():
            calls, self_s = spans.get(name, (0, 0.0))
            spans[name] = (calls + data["calls"], self_s + data["self_s"])
    out = {}
    attributed = 0.0
    for metric, span in FIGURE1_SPANS:
        out[metric] = spans.get(span, (0, 0.0))[1] / sweeps * 1e3
        attributed += out[metric]
    sweep_ms = sum(r["elapsed_s"] for r in results) / sweeps * 1e3
    out["experiments.figure1.sweep_ms"] = sweep_ms
    out["experiments.figure1.unattributed_ms"] = sweep_ms - attributed
    cells = [c for r in results for c in r["cell_s"]]
    out["experiments.figure1.cell_max_ms"] = max(cells) * 1e3
    for metric, span in (
        ("analysis.rm.structure_builds", "analysis.rm.structure_build"),
        ("analysis.pdp.probe_calls", "analysis.pdp.probe"),
    ):
        out[metric] = spans.get(span, (0, 0.0))[0] / sweeps
    probes = sum(r["breakdown_probes"] for r in results)
    out["analysis.breakdown.probes"] = probes / sweeps
    return out


def run_figure1(seed, seconds, trace, env, root):
    # The sweep always runs at the paper seed: its outputs are checked
    # against the committed reference means of that seed.
    del seed
    reference = _load_reference()
    sweeps = max(1, int(seconds // NOMINAL_SWEEP_S))
    if not trace:
        setups, raw_setups = [], []
        for k in range(SETUP_REPEATS):
            setup_s, raw_setup_s, results = _figure1_session(
                env, root, False, sweeps if k == SETUP_REPEATS - 1 else 0
            )
            setups.append(setup_s)
            raw_setups.append(raw_setup_s)
        cells = [c for r in results for c in r["scaled_cell_s"]]
        raw_cells = [c for r in results for c in r["cell_s"]]
        metrics = {
            "throughput": statistics.median(_cell_rate(r) for r in results),
            "latency_p50_ms": _quantile(cells, 0.50) * 1e3,
            "latency_p90_ms": _quantile(cells, 0.90) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": results[-1]["peak_rss_mb"],
        }
        detail = {
            "samples": {
                "sweeps": len(results),
                "cells": len(cells),
                "setups": len(setups),
            },
            "setup_s_all": setups,
            "raw_setup_s_all": raw_setups,
            "raw": {
                "throughput": statistics.median(
                    len(r["cell_s"]) / r["elapsed_s"] for r in results
                ),
                "latency_p50_ms": _quantile(raw_cells, 0.50) * 1e3,
                "latency_p90_ms": _quantile(raw_cells, 0.90) * 1e3,
            },
        }
    else:
        # One untraced and one traced sweep process share the budget.
        sweeps = max(1, sweeps // 2)
        plain = _figure1_session(env, root, False, sweeps)[2]
        results = _figure1_session(env, root, True, sweeps)[2]
        metrics = _figure1_layers(results)
        plain_rate = statistics.median(_cell_rate(r) for r in plain)
        traced_rate = statistics.median(_cell_rate(r) for r in results)
        metrics["trace_overhead_pct"] = (plain_rate / traced_rate - 1.0) * 100.0
        results = results + plain
        detail = {"samples": {"traced_sweeps": sweeps, "untraced_sweeps": sweeps}}
    failed = sum(_figure1_failures(r, reference) for r in results)
    attempted = sum(len(r["cell_s"]) for r in results)
    detail["shape"] = results[-1]["shape"]
    return metrics, detail, attempted, failed


# -- entry point --------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no repro package under {src}; run from a checkout", file=sys.stderr)
        return 2
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, src)
    env = _child_env(src)
    cpu = _pin_to_one_cpu()
    if args.workload == "figure1_paper":
        outcome = run_figure1(args.seed, args.seconds, bool(args.trace), env, root)
    else:
        outcome = run_service(
            args.workload, args.seed, args.seconds, bool(args.trace), env, root
        )
    metrics, detail, attempted, failed = outcome
    detail["cpu"] = cpu
    # Every metric of the chosen set is reported on every workload; a
    # layer the workload does not run reads 0.
    table = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"detail": dict(detail, workload=args.workload, seed=args.seed)}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in table.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
