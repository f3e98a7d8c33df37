"""The perfbench trend tool: correctness gate, 2x bounds, host keys, record.

``tools/bench_trend.py`` runs perfbench as subprocesses; these tests
replace that runner with synthetic perfbench result lines, so the suite
runs no benchmark.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess

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

HOST = "TestCPU|x86_64"

#: Per-workload (throughput, latency_p90_ms) of the synthetic record.
BASE = {
    "figure1_paper": (60.0, 20.0),
    "serve_check_warm": (5000.0, 0.2),
    "serve_admit_churn": (3000.0, 0.4),
}


def result_line(throughput, p90, correct=True, failed=0):
    """One perfbench ``--trace 0`` result line."""
    return {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "throughput": {"value": throughput, "unit": "1/s"},
            "latency_p50_ms": {"value": p90 / 2, "unit": "ms"},
            "latency_p90_ms": {"value": p90, "unit": "ms"},
            "setup_s": {"value": 0.3, "unit": "s"},
            "peak_rss_mb": {"value": 50.0, "unit": "MB"},
        },
    }


@pytest.fixture
def trend(tmp_path, monkeypatch):
    """Run the tool against synthetic results; returns (run, history)."""
    results = {w: result_line(*BASE[w]) for w in bench_trend.WORKLOADS}
    monkeypatch.setattr(
        bench_trend, "run_perfbench", lambda workload, root: results[workload]
    )
    monkeypatch.setattr(bench_trend, "host_key", lambda: HOST)
    history = tmp_path / "BENCH_history.jsonl"

    def run(command):
        return bench_trend.main(
            [command, "--root", str(tmp_path), "--history", str(history)]
        )

    run.results = results
    return run, history


def test_record_appends_one_line_per_workload(trend):
    run, history = trend
    assert run("record") == 0
    assert run("record") == 0
    entries = [json.loads(line) for line in history.read_text().splitlines()]
    assert [e["workload"] for e in entries] == list(bench_trend.WORKLOADS) * 2
    first = entries[0]
    assert first["host"] == HOST
    assert "commit" in first and "dirty" in first
    assert first["metrics"]["throughput"] == BASE["figure1_paper"][0]


def test_record_stores_the_median_of_its_runs(trend, monkeypatch):
    run, history = trend
    throughputs = iter([3000.0, 5000.0, 1000.0] * len(bench_trend.WORKLOADS))
    monkeypatch.setattr(
        bench_trend,
        "run_perfbench",
        lambda workload, root: result_line(next(throughputs), 0.4),
    )
    assert run("record") == 0
    entries = [json.loads(line) for line in history.read_text().splitlines()]
    assert len(entries) == len(bench_trend.WORKLOADS)
    for entry in entries:
        assert entry["runs"] == bench_trend.RECORD_RUNS == 3
    # Rounds run every workload in turn, so each sees a different trio.
    assert sorted(e["metrics"]["throughput"] for e in entries) == [
        1000.0, 3000.0, 5000.0,
    ]


def test_record_refuses_an_incorrect_run(trend):
    run, history = trend
    run.results["serve_admit_churn"]["correct"] = False
    assert run("record") == 1
    assert not history.exists()


def test_steady_runs_pass_and_print_against_the_record(trend, capsys):
    run, _ = trend
    run("record")
    capsys.readouterr()
    assert run("check") == 0
    out = capsys.readouterr().out
    for workload in bench_trend.WORKLOADS:
        assert f"{workload}: throughput" in out


def test_halved_throughput_fails_naming_workload_and_metric(trend, capsys):
    run, _ = trend
    run("record")
    capsys.readouterr()
    run.results["serve_admit_churn"] = result_line(1499.0, 0.4)
    assert run("check") == 1
    out = capsys.readouterr().out
    assert "serve_admit_churn: throughput" in out
    assert "FAIL  serve_admit_churn" in out
    assert "serve_check_warm: throughput" not in out.split("problem(s)")[1]


def test_doubled_p90_fails_naming_workload_and_metric(trend, capsys):
    run, _ = trend
    run("record")
    capsys.readouterr()
    run.results["figure1_paper"] = result_line(60.0, 41.0)
    assert run("check") == 1
    assert "FAIL  figure1_paper: latency_p90_ms" in capsys.readouterr().out


def test_drop_of_1_9x_passes(trend):
    run, _ = trend
    run("record")
    for workload, (throughput, p90) in BASE.items():
        run.results[workload] = result_line(throughput / 1.9, p90 * 1.9)
    assert run("check") == 0


def test_newest_record_of_the_host_is_the_baseline(trend):
    run, _ = trend
    run("record")
    run.results["serve_check_warm"] = result_line(2000.0, 0.2)
    run("record")  # the slower run becomes the record
    assert run("check") == 0


@pytest.mark.parametrize(
    "correct, failed", [(False, 0), (True, 3)], ids=["incorrect", "failed"]
)
def test_incorrect_or_failed_run_fails(trend, capsys, correct, failed):
    run, _ = trend
    run("record")
    capsys.readouterr()
    run.results["serve_check_warm"]["correct"] = correct
    run.results["serve_check_warm"]["failed"] = failed
    assert run("check") == 1
    assert "FAIL  serve_check_warm: correct=" in capsys.readouterr().out


def test_incorrect_run_fails_without_history(trend):
    run, _ = trend
    run.results["figure1_paper"]["failed"] = 1
    assert run("check") == 1


def test_other_host_skips_with_a_notice(trend, monkeypatch, capsys):
    run, _ = trend
    run("record")
    monkeypatch.setattr(bench_trend, "host_key", lambda: "OtherCPU|arm64")
    run.results["serve_admit_churn"] = result_line(1.0, 100.0)
    capsys.readouterr()
    assert run("check") == 0
    assert "no record for host 'OtherCPU|arm64'" in capsys.readouterr().out


def test_malformed_history_lines_are_ignored(trend, capsys):
    run, history = trend
    run("record")
    with open(history, "a", encoding="utf-8") as handle:
        handle.write("{not json\n")
    run.results["serve_admit_churn"] = result_line(1499.0, 0.4)
    capsys.readouterr()
    assert run("check") == 1  # still compared against the record
    out = capsys.readouterr().out
    assert "ignoring malformed line 4" in out
    assert "FAIL  serve_admit_churn: throughput" in out


def test_empty_history_prints_a_notice(trend, capsys):
    run, history = trend
    history.write_text("")
    assert run("check") == 0
    assert "no history at" in capsys.readouterr().out


def test_host_key_has_no_cpu_count_or_kernel_release():
    key = bench_trend.host_key()
    assert key.count("|") == 1
    assert key.endswith(f"|{os.uname().machine}")
    assert os.uname().release not in key


@pytest.mark.parametrize(
    "outcome, error",
    [
        (subprocess.TimeoutExpired("run.py", 1), "no result within"),
        (
            subprocess.CompletedProcess([], 0, "warming up\nDone.\n", ""),
            "not JSON",
        ),
        (subprocess.CompletedProcess([], 2, "", "Traceback"), "exit 2"),
    ],
    ids=["timeout", "not-json", "exit-status"],
)
def test_a_broken_run_is_a_failed_stand_in(monkeypatch, outcome, error):
    def fake_run(*args, **kwargs):
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(bench_trend.subprocess, "run", fake_run)
    result = bench_trend.run_perfbench("serve_check_warm", ".")
    assert result["correct"] is False and result["failed"] is None
    assert error in result["error"]
