"""The bench-trend guard: history append, regression detection, skips.

``tools/bench_trend.py`` is what keeps ``make verify`` honest about the
performance trajectory: the committed ``BENCH_*.json`` canaries only
hold the latest run, the JSONL history holds the trend.  These tests pin
the comparison semantics — same-machine baselines only, relative
threshold with absolute jitter floors, tolerant of malformed history
lines.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_trend",
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tools",
        "bench_trend.py",
    ),
)
bench_trend = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trend)


MACHINE = {
    "node": "vm",
    "machine": "x86_64",
    "cpu": {"brand": "TestCPU", "count": 4, "arch": "x86_64"},
}


def write_bench(
    root,
    name,
    mean,
    ops,
    machine=MACHINE,
    stamp="2026-08-08T00:00:00+00:00",
    commit=None,
    dirty=False,
):
    document = {
        "datetime": stamp,
        "machine": machine,
        **({"commit_info": {"id": commit, "dirty": dirty}} if commit else {}),
        "benchmarks": [
            {
                "fullname": "repro.bench::case",
                "stats": {"mean": mean, "ops": ops},
            }
        ],
    }
    path = os.path.join(root, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return path


@pytest.fixture
def trend_dir(tmp_path):
    root = str(tmp_path)
    return root, os.path.join(root, "BENCH_history.jsonl")


def run(command, root, history, threshold=0.25):
    return bench_trend.main(
        [
            command,
            "--root",
            root,
            "--history",
            history,
            "--threshold",
            str(threshold),
        ]
    )


class TestAppend:
    def test_append_writes_one_line_per_bench_file(self, trend_dir):
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.010, 100.0)
        write_bench(root, "BENCH_b.json", 0.020, 50.0)
        assert run("append", root, history) == 0
        entries = [
            json.loads(line)
            for line in open(history, encoding="utf-8")
        ]
        assert [e["file"] for e in entries] == [
            "BENCH_a.json",
            "BENCH_b.json",
        ]
        assert entries[0]["machine"] == "TestCPU|x86_64|4"
        assert entries[0]["benchmarks"]["repro.bench::case"]["mean"] == 0.010

    def test_append_without_bench_files_is_a_noop(self, trend_dir):
        root, history = trend_dir
        assert run("append", root, history) == 0
        assert not os.path.exists(history)

    def test_appending_unchanged_files_again_adds_nothing(self, trend_dir):
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.010, 100.0)
        write_bench(root, "BENCH_b.json", 0.020, 50.0)
        assert run("append", root, history) == 0
        first = open(history, encoding="utf-8").read()
        assert run("append", root, history) == 0
        assert open(history, encoding="utf-8").read() == first
        # a fresh run of one file is new; the other is still a duplicate
        write_bench(
            root, "BENCH_a.json", 0.011, 95.0, stamp="2026-08-09T00:00:00+00:00"
        )
        assert run("append", root, history) == 0
        lines = open(history, encoding="utf-8").read().splitlines()
        assert len(lines) == 3

    def test_commit_is_part_of_the_run_key(self, trend_dir):
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.010, 100.0, commit="aaa111")
        assert run("append", root, history) == 0
        assert run("append", root, history) == 0  # same run: refused
        # the same file and datetime measured on another commit is a
        # different run
        write_bench(root, "BENCH_a.json", 0.009, 110.0, commit="bbb222")
        assert run("append", root, history) == 0
        entries = [
            json.loads(line) for line in open(history, encoding="utf-8")
        ]
        assert [e["commit"] for e in entries] == ["aaa111", "bbb222"]

    def test_dirty_runs_are_marked(self, trend_dir):
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.010, 100.0, commit="aaa111", dirty=True)
        write_bench(root, "BENCH_b.json", 0.010, 100.0, commit="aaa111")
        write_bench(root, "BENCH_c.json", 0.010, 100.0)
        assert run("append", root, history) == 0
        entries = {
            entry["file"]: entry
            for entry in map(json.loads, open(history, encoding="utf-8"))
        }
        assert entries["BENCH_a.json"]["dirty"] is True
        assert entries["BENCH_b.json"]["dirty"] is False
        assert entries["BENCH_c.json"]["dirty"] is None

    def test_legacy_lines_without_commit_still_block_reappends(self, trend_dir):
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.010, 100.0)
        assert run("append", root, history) == 0
        (entry,) = [
            json.loads(line) for line in open(history, encoding="utf-8")
        ]
        assert entry["commit"] is None
        entry.pop("commit")  # a line written before commits were recorded
        with open(history, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
        write_bench(root, "BENCH_a.json", 0.010, 100.0, commit="aaa111")
        assert run("append", root, history) == 0
        assert len(open(history, encoding="utf-8").read().splitlines()) == 1

    def test_append_refuses_documents_without_datetime(self, trend_dir):
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.010, 100.0, stamp=None)
        assert run("append", root, history) == 0
        assert not os.path.exists(history)


class TestCheck:
    def test_steady_state_passes(self, trend_dir):
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.010, 100.0)
        run("append", root, history)
        write_bench(root, "BENCH_a.json", 0.011, 95.0)  # within 25%
        assert run("check", root, history) == 0

    def test_mean_regression_fails(self, trend_dir):
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.010, 100.0)
        run("append", root, history)
        write_bench(root, "BENCH_a.json", 0.030, 100.0)  # 3x slower
        assert run("check", root, history) == 1

    def test_throughput_regression_fails(self, trend_dir):
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.010, 100.0)
        run("append", root, history)
        write_bench(root, "BENCH_a.json", 0.010, 40.0)  # -60% ops
        assert run("check", root, history) == 1

    def test_jitter_below_absolute_floor_passes(self, trend_dir):
        """A 2x blowup on a microsecond benchmark is noise, not signal."""
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.0001, 1e6)
        run("append", root, history)
        write_bench(root, "BENCH_a.json", 0.0002, 1e6)
        assert run("check", root, history) == 0

    def test_no_history_skips(self, trend_dir, capsys):
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.010, 100.0)
        assert run("check", root, history) == 0
        assert "no history" in capsys.readouterr().out

    def test_machine_mismatch_skips(self, trend_dir, capsys):
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.010, 100.0)
        run("append", root, history)
        other = dict(MACHINE, cpu={"brand": "OtherCPU", "count": 1})
        write_bench(root, "BENCH_a.json", 0.900, 1.0, machine=other)
        assert run("check", root, history) == 0
        assert "no same-machine history" in capsys.readouterr().out

    def test_newest_same_machine_entry_wins(self, trend_dir):
        """The baseline is the latest entry, not the first."""
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.010, 100.0)
        run("append", root, history)
        write_bench(
            root, "BENCH_a.json", 0.030, 100.0, stamp="2026-08-09T00:00:00+00:00"
        )
        run("append", root, history)  # the regression becomes the baseline
        assert run("check", root, history) == 0

    def test_malformed_history_lines_are_ignored(self, trend_dir):
        root, history = trend_dir
        write_bench(root, "BENCH_a.json", 0.010, 100.0)
        run("append", root, history)
        with open(history, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        assert run("check", root, history) == 0
