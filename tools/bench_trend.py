#!/usr/bin/env python
"""Track and guard the performance trajectory across ``BENCH_*.json`` files.

The committed canaries (``BENCH_figure1.json``, ``BENCH_sim.json``,
``BENCH_service.json``, ``BENCH_admission.json``) each hold only the
*latest* run — good for a point-in-time guard, blind to slow drift.
This tool keeps a history:

``append``
    Summarize every current ``BENCH_*.json`` into one JSONL line each
    (per-benchmark mean and ops, plus the machine identity and the
    commit the run was made on) appended to ``BENCH_history.jsonl``.
    The commit is the document's ``commit_info.id`` when it has one;
    ``dirty`` copies ``commit_info.dirty`` — a dirty run measured
    uncommitted changes on top of that commit, not the commit itself.
    A run is identified by ``(file, datetime, commit)``.  A document whose run
    is already in the history (an unchanged file appended again) or
    that carries no ``datetime`` is refused, so the history cannot count
    one run twice.  History lines written before the commit was recorded
    match on ``(file, datetime)`` alone.  ``make bench-trend`` runs this
    after regenerating the canaries.

``check``
    Compare every current ``BENCH_*.json`` against the **newest
    same-machine** history entry for that file.  A benchmark whose mean
    grew by more than ``--threshold`` (default 25%) — with an absolute
    floor so microsecond jitter cannot trip it — or whose throughput
    (``ops``) dropped by more than the same fraction is a regression:
    nonzero exit, one diagnostic line per offender.  No history or a
    machine mismatch skips with a notice (a trend against somebody
    else's hardware is noise, same rule as the verify bench guard).
    ``make verify`` runs this.

History entries are plain JSON objects — one per (BENCH file, run
datetime, commit) — so the file diffs cleanly and tolerates
hand-pruning.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HISTORY_SCHEMA_VERSION = 1

#: Mean-time regressions smaller than this are jitter, not signal.
ABS_FLOOR_S = 0.001

#: Throughput (ops) drops smaller than this many ops/s are jitter.
ABS_FLOOR_OPS = 1.0


def _machine_key(machine: dict | None) -> str:
    """A comparable hardware identity (brand + arch + core count)."""
    machine = machine or {}
    cpu = machine.get("cpu") or {}
    return "|".join(
        str(part)
        for part in (
            cpu.get("brand"),
            machine.get("machine"),
            cpu.get("count"),
        )
    )


def _summarize(path: str) -> dict | None:
    """One BENCH document as a history entry (None if unreadable)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench-trend: skipping {path}: {exc}")
        return None
    benchmarks = {}
    for bench in document.get("benchmarks", []):
        stats = bench.get("stats") or {}
        if stats.get("mean") is None:
            continue
        benchmarks[bench["fullname"]] = {
            "mean": stats["mean"],
            "ops": stats.get("ops"),
        }
    if not benchmarks:
        return None
    commit_info = document.get("commit_info") or {}
    return {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "file": os.path.basename(path),
        "datetime": document.get("datetime"),
        "commit": commit_info.get("id"),
        "dirty": commit_info.get("dirty"),
        "machine": _machine_key(document.get("machine")),
        "benchmarks": benchmarks,
    }


def _bench_paths(root: str) -> list[str]:
    return sorted(glob.glob(os.path.join(root, "BENCH_*.json")))


def _load_history(path: str) -> list[dict]:
    entries: list[dict] = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                print(
                    f"bench-trend: ignoring malformed history line "
                    f"{line_number}: {exc}"
                )
    return entries


def cmd_append(root: str, history_path: str) -> int:
    """Append one history line per BENCH file run not yet recorded."""
    seen = {
        (entry.get("file"), entry.get("datetime"), entry.get("commit"))
        for entry in _load_history(history_path)
    }
    entries = []
    for entry in (_summarize(path) for path in _bench_paths(root)):
        if entry is None:
            continue
        run = (entry["file"], entry["datetime"])
        if entry["datetime"] is None:
            print(f"bench-trend: refusing {entry['file']}: no datetime")
        elif run + (entry["commit"],) in seen or run + (None,) in seen:
            print(
                f"bench-trend: refusing {entry['file']}: run "
                f"{entry['datetime']} is already in the history"
            )
        else:
            entries.append(entry)
    if not entries:
        print("bench-trend: no new BENCH_*.json runs to append")
        return 0
    with open(history_path, "a", encoding="utf-8") as handle:
        for entry in entries:
            json.dump(entry, handle, separators=(",", ":"), sort_keys=True)
            handle.write("\n")
    print(
        f"bench-trend: appended {len(entries)} entries "
        f"({', '.join(e['file'] for e in entries)}) to {history_path}"
    )
    return 0


def cmd_check(root: str, history_path: str, threshold: float) -> int:
    """Compare current BENCH files against their newest same-machine entry."""
    history = _load_history(history_path)
    if not history:
        print(
            f"bench-trend: no history at {history_path}; "
            "run `make bench-trend` to seed it -- skipping"
        )
        return 0
    regressions: list[str] = []
    compared = 0
    for path in _bench_paths(root):
        current = _summarize(path)
        if current is None:
            continue
        baseline = next(
            (
                entry
                for entry in reversed(history)
                if entry.get("file") == current["file"]
                and entry.get("machine") == current["machine"]
            ),
            None,
        )
        if baseline is None:
            print(
                f"bench-trend: no same-machine history for "
                f"{current['file']}; skipping"
            )
            continue
        for fullname, stats in sorted(current["benchmarks"].items()):
            base = baseline["benchmarks"].get(fullname)
            if base is None:
                continue
            compared += 1
            mean, base_mean = stats["mean"], base["mean"]
            if (
                base_mean
                and mean > base_mean * (1.0 + threshold)
                and mean - base_mean > ABS_FLOOR_S
            ):
                regressions.append(
                    f"{current['file']}: {fullname} mean "
                    f"{base_mean * 1e3:.3f} ms -> {mean * 1e3:.3f} ms "
                    f"(+{(mean / base_mean - 1.0):.0%})"
                )
            ops, base_ops = stats.get("ops"), base.get("ops")
            if (
                ops is not None
                and base_ops
                and ops < base_ops * (1.0 - threshold)
                and base_ops - ops > ABS_FLOOR_OPS
            ):
                regressions.append(
                    f"{current['file']}: {fullname} throughput "
                    f"{base_ops:.1f} -> {ops:.1f} ops/s "
                    f"({(ops / base_ops - 1.0):.0%})"
                )
    if regressions:
        print(
            f"bench-trend: {len(regressions)} regression(s) beyond "
            f"{threshold:.0%} against {history_path}:"
        )
        for line in regressions:
            print(f"  REGRESSION  {line}")
        return 1
    print(
        f"bench-trend: {compared} benchmark(s) within {threshold:.0%} "
        f"of their history baselines"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_trend",
        description="Append to / check against the BENCH_*.json history",
    )
    parser.add_argument("command", choices=["append", "check"])
    parser.add_argument(
        "--root", default=REPO_ROOT,
        help="directory holding the BENCH_*.json files",
    )
    parser.add_argument(
        "--history", default=None, metavar="PATH",
        help="history JSONL path (default: <root>/BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="fractional regression tolerance (default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)
    history_path = args.history or os.path.join(
        args.root, "BENCH_history.jsonl"
    )
    if args.command == "append":
        return cmd_append(args.root, history_path)
    return cmd_check(args.root, history_path, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
