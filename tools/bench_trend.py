#!/usr/bin/env python
"""The perfbench trend: fresh benchmark runs against recorded fresh runs.

Both verbs run ``python3 perfbench/run.py --workload W --seed 1
--seconds 2 --trace 0`` from the repository root, one subprocess per
workload of :data:`WORKLOADS` (``check`` takes about 20 s on a 2-vCPU
host, ``record`` three times that).
perfbench replays every answer against its oracle (each admission
decision, and the 48 Figure 1 means bit for bit), so whether a run is
``correct`` does not depend on the host.

``check``
    Fails when any run is not ``correct`` or has ``failed > 0``.  Then
    compares each workload with the newest ``BENCH_history.jsonl`` line
    for the same workload and host key (CPU brand|arch), and
    fails, naming the workload and the metric, when ``throughput`` fell
    below half the recorded value or ``latency_p90_ms`` more than
    doubled.  Without a line for this host it prints a notice and skips
    the comparison.  ``make verify`` runs this through
    ``tools/verify_smoke.py``.

``record``
    Runs every workload :data:`RECORD_RUNS` times and appends one history
    line per workload: the median of each end-to-end metric, the host
    key, the commit (``dirty`` when the tree held uncommitted changes)
    and the time.  Nothing is recorded if any run is not correct.
    ``make bench-record`` runs this.

perfbench reports times in reference seconds (``perfbench/hostprobe.py``),
which cancels most of a host's changes of speed; the host key still keeps
records from other hardware out of the comparison.  The key has no CPU
count and no kernel release: perfbench pins itself and its children to
one CPU, so neither bears on the figures compared.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.obs.benchjson import cpu_info  # noqa: E402

#: The perfbench workloads the trend runs: the Figure 1 sweep, and the
#: service under a check-heavy and a churn-heavy admission mix.
WORKLOADS = ("figure1_paper", "serve_check_warm", "serve_admit_churn")

#: perfbench arguments after ``--workload W``.
RUN_ARGS = ("--seed", "1", "--seconds", "2", "--trace", "0")

#: A fresh run regresses when its throughput is below this share of the
#: record's, or its p90 latency above this multiple of the record's.
MIN_THROUGHPUT_RATIO = 0.5
MAX_P90_RATIO = 2.0

#: ``record`` stores the per-metric median of this many runs, so one
#: noisy run does not set the baseline (``serve_admit_churn`` spreads
#: about 1.6x between 2 s runs on one host).
RECORD_RUNS = 3

#: Seconds one perfbench run may take; three fit within the 900 s that
#: ``tools/verify_smoke.py`` gives the whole ``check``.
RUN_TIMEOUT_S = 280


def host_key() -> str:
    """The hardware a record is comparable on: CPU brand|arch."""
    cpu = cpu_info(arch=platform.machine())
    return f"{cpu['brand']}|{cpu['arch']}"


def run_perfbench(workload: str, root: str) -> dict:
    """One fresh perfbench run: its result line, or a failed stand-in."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, *RUN_ARGS],
            cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return _failed(f"no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _failed(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return _failed(f"last stdout line is not JSON: {exc}")


def _failed(error: str) -> dict:
    return {"correct": False, "failed": None, "error": error}


def _fresh_runs(root: str) -> dict[str, dict]:
    results = {}
    for workload in WORKLOADS:
        started = time.monotonic()
        results[workload] = run_perfbench(workload, root)
        print(
            f"bench-trend: ran {workload} in "
            f"{time.monotonic() - started:.1f} s"
        )
    return results


def _incorrect(results: dict[str, dict]) -> dict[str, str]:
    return {
        workload: f"{workload}: correct={result.get('correct')} "
        f"failed={result.get('failed')} {result.get('error', '')}".rstrip()
        for workload, result in results.items()
        if result.get("correct") is not True or result.get("failed") != 0
    }


def _load_history(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                print(f"bench-trend: ignoring malformed line {number}: {exc}")
    return entries


def _commit(root: str) -> tuple[str | None, bool | None]:
    def git(*args):
        proc = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True
        )
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha is None:
        return None, None
    return sha, bool(git("status", "--porcelain", "--untracked-files=no"))


def _value(result: dict, metric: str) -> float:
    return result["metrics"][metric]["value"]


def cmd_check(root: str, history_path: str) -> int:
    """Fresh runs must be correct and within 2x of this host's record."""
    results = _fresh_runs(root)
    incorrect = _incorrect(results)
    problems = [f"{line} (incorrect run)" for line in incorrect.values()]
    history = _load_history(history_path)
    host = host_key()
    # Later lines overwrite earlier ones: the newest record wins.
    records = {
        entry["workload"]: entry
        for entry in history
        if entry.get("host") == host and "workload" in entry
    }
    if not history:
        print(
            f"bench-trend: no history at {history_path}; run "
            "`make bench-record` to start one -- comparison skipped"
        )
    elif not records:
        print(
            f"bench-trend: no record for host {host!r} -- comparison "
            "skipped (records from other hardware are not comparable)"
        )
    for workload, result in results.items():
        record = records.get(workload)
        if record is None or workload in incorrect:
            continue
        throughput = _value(result, "throughput")
        p90 = _value(result, "latency_p90_ms")
        base_throughput = record["metrics"]["throughput"]
        base_p90 = record["metrics"]["latency_p90_ms"]
        print(
            f"bench-trend: {workload}: throughput {throughput:.1f}/s "
            f"(record {base_throughput:.1f}/s), p90 {p90:.3f} ms "
            f"(record {base_p90:.3f} ms)"
        )
        if throughput < MIN_THROUGHPUT_RATIO * base_throughput:
            problems.append(
                f"{workload}: throughput {base_throughput:.1f} -> "
                f"{throughput:.1f}/s, below half the record"
            )
        if p90 > MAX_P90_RATIO * base_p90:
            problems.append(
                f"{workload}: latency_p90_ms {base_p90:.3f} -> "
                f"{p90:.3f} ms, more than double the record"
            )
    if problems:
        print(f"bench-trend: {len(problems)} problem(s):")
        for line in problems:
            print(f"  FAIL  {line}")
        return 1
    print(f"bench-trend: ok ({len(results)} fresh perfbench runs)")
    return 0


def cmd_record(root: str, history_path: str) -> int:
    """Append one history line per workload: medians of correct runs."""
    rounds = [_fresh_runs(root) for _ in range(RECORD_RUNS)]
    incorrect = [
        line for results in rounds for line in _incorrect(results).values()
    ]
    if incorrect:
        print("bench-trend: not recording incorrect runs:")
        for line in incorrect:
            print(f"  {line}")
        return 1
    commit, dirty = _commit(root)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(history_path, "a", encoding="utf-8") as handle:
        for workload in WORKLOADS:
            entry = {
                "workload": workload,
                "host": host_key(),
                "commit": commit,
                "dirty": dirty,
                "datetime": stamp,
                "runs": RECORD_RUNS,
                "metrics": {
                    name: statistics.median(
                        _value(results[workload], name) for results in rounds
                    )
                    for name in rounds[0][workload]["metrics"]
                },
            }
            json.dump(entry, handle, separators=(",", ":"), sort_keys=True)
            handle.write("\n")
    print(
        f"bench-trend: recorded {', '.join(WORKLOADS)} "
        f"at {commit}{' (dirty)' if dirty else ''} to {history_path}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_trend",
        description="Check or record fresh perfbench runs",
    )
    parser.add_argument("command", choices=["check", "record"])
    parser.add_argument(
        "--root", default=REPO_ROOT,
        help="checkout root perfbench runs from",
    )
    parser.add_argument(
        "--history", default=None, metavar="PATH",
        help="history JSONL path (default: <root>/BENCH_history.jsonl)",
    )
    args = parser.parse_args(argv)
    history_path = args.history or os.path.join(
        args.root, "BENCH_history.jsonl"
    )
    if args.command == "record":
        return cmd_record(args.root, history_path)
    return cmd_check(args.root, history_path)


if __name__ == "__main__":
    sys.exit(main())
