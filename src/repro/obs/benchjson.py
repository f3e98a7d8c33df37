"""Summarize pytest-benchmark JSON into a compact, versioned canary.

``make bench-sim`` keeps the simulator canary in ``BENCH_sim.json``.
The raw pytest-benchmark output is
tens of thousands of lines — every individual sample of every round plus
the host's full CPU flag list — which swamps diffs and buries the signal.
This module reduces it to what trajectory comparison needs:

* per-benchmark summary statistics (mean / stddev / quantiles / ops /
  rounds) with the raw ``data`` arrays dropped,
* a trimmed machine fingerprint (enough to tell runs on different
  hardware apart, nothing more),
* any ``extra_info`` the benchmark attached (e.g. span snapshots
  from the observability layer), and
* an explicit ``schema_version`` so future format changes stay
  detectable instead of silently breaking comparisons.

CLI::

    python -m repro.obs.benchjson RAW.json [OUT.json]

With one path, the file is summarized in place.

The summarized document shape is also the *native* format for canaries
that never pass through pytest-benchmark: the service load generator
(``runner loadgen --bench-json``), the loss sweep (``BENCH_loss.json``),
and the cluster bench (``BENCH_cluster.json`` via
:mod:`repro.experiments.cluster_bench`) emit this schema directly —
``schema_version`` + ``machine`` (with :func:`cpu_info`) +
``benchmarks[]`` rows of ``{group, name, fullname, params, extra_info,
stats}``.  The performance record of Figure 1 and of the admission
service is perfbench's (``perfbench/run.py``, trended by
``tools/bench_trend.py``), not a document of this schema.
"""

from __future__ import annotations

import json
import os
import sys

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "cpu_info",
    "summarize_benchmark_json",
    "main",
]

#: Version of the summarized canary format (raw pytest-benchmark has none).
BENCH_SCHEMA_VERSION = 2

#: Per-benchmark statistics worth tracking across PRs.
_STAT_FIELDS = (
    "min",
    "max",
    "mean",
    "stddev",
    "median",
    "iqr",
    "q1",
    "q3",
    "ops",
    "total",
    "rounds",
    "iterations",
)

#: Machine fingerprint fields worth keeping (of ~100 in the raw output).
_MACHINE_FIELDS = ("node", "machine", "system", "release", "python_version")


def cpu_info(arch: str | None = None) -> dict:
    """``{"brand", "count", "arch"}`` for the canary machine block.

    pytest-benchmark fills these from ``py-cpuinfo`` when it is
    installed; without it (and in the hand-built loadgen documents) the
    block used to come out all-``null``, which made the verify guard's
    same-hardware comparison vacuous.  ``count`` comes from
    :func:`os.cpu_count`; ``brand`` is a best-effort read of the first
    ``model name`` line in ``/proc/cpuinfo`` (absent on non-Linux hosts,
    in which case it stays ``None`` rather than guessing).
    """
    brand = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    _, _, value = line.partition(":")
                    brand = value.strip() or None
                    break
    except OSError:
        pass
    return {"brand": brand, "count": os.cpu_count(), "arch": arch}


def summarize_benchmark_json(raw: dict) -> dict:
    """Reduce a raw pytest-benchmark document to the tracked summary.

    Idempotent: summarizing an already-summarized document returns it
    unchanged, so re-running the ``make bench-sim`` post-processing is
    safe.
    """
    if raw.get("schema_version") == BENCH_SCHEMA_VERSION:
        return raw
    machine_info = raw.get("machine_info", {})
    machine = {k: machine_info.get(k) for k in _MACHINE_FIELDS}
    cpu = machine_info.get("cpu", {})
    if isinstance(cpu, dict):
        probed = cpu_info(arch=cpu.get("arch"))
        machine["cpu"] = {
            "brand": cpu.get("brand_raw") or probed["brand"],
            "count": cpu.get("count") or probed["count"],
            "arch": cpu.get("arch"),
        }
    benchmarks = []
    for bench in raw.get("benchmarks", []):
        stats = bench.get("stats", {})
        benchmarks.append(
            {
                "group": bench.get("group"),
                "name": bench.get("name"),
                "fullname": bench.get("fullname"),
                "params": bench.get("params"),
                "extra_info": bench.get("extra_info", {}),
                "stats": {k: stats.get(k) for k in _STAT_FIELDS},
            }
        )
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "datetime": raw.get("datetime"),
        "pytest_benchmark_version": raw.get("version"),
        "commit_info": raw.get("commit_info"),
        "machine": machine,
        "benchmarks": benchmarks,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: summarize ``RAW.json`` into ``OUT.json``."""
    args = sys.argv[1:] if argv is None else list(argv)
    if not 1 <= len(args) <= 2:
        print(
            "usage: python -m repro.obs.benchjson RAW.json [OUT.json]",
            file=sys.stderr,
        )
        return 2
    raw_path = args[0]
    out_path = args[1] if len(args) == 2 else args[0]
    with open(raw_path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    summary = summarize_benchmark_json(raw)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
