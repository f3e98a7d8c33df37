"""Graceful interruption: partial manifests, signal routing, exit codes.

An interrupted run must still account for itself — the runner writes its
manifest (flagged ``extra.interrupted``) and exits 130, and
:func:`repro.experiments.parallel.parallel_map` folds the finished
cells' observability into the parent before re-raising.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.experiments import parallel, runner
from repro.obs import metrics


class TestSigtermRouting:
    def test_sigterm_becomes_keyboard_interrupt(self):
        previous = parallel._sigterm_as_interrupt()
        assert previous is not None  # installed from the main thread
        try:
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGTERM)
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_merge_completed_folds_only_finished_cells(self):
        class FakeFuture:
            def __init__(self, payload=None, cancelled=False):
                self._payload = payload
                self._cancelled = cancelled

            def done(self):
                return True

            def cancelled(self):
                return self._cancelled

            def exception(self):
                return None

            def result(self):
                return self._payload

        before = metrics.counter("interrupt_test.cells").value
        snap = {"interrupt_test.cells": {"type": "counter", "value": 2.0}}
        parallel._merge_completed(
            [FakeFuture((None, snap, {})), FakeFuture(cancelled=True)]
        )
        assert metrics.counter("interrupt_test.cells").value == before + 2.0


class TestRunnerInterrupt:
    def test_interrupted_run_still_writes_manifest(self, tmp_path, monkeypatch):
        manifest_path = tmp_path / "manifest.json"

        def explode(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "ttrt_sweep", explode)
        code = runner.main(
            [
                "ttrt",
                "--fast",
                "--quiet",
                "--log-level",
                "error",
                "--manifest",
                str(manifest_path),
            ]
        )
        assert code == 130
        document = json.loads(manifest_path.read_text())
        assert document["extra"] == {"interrupted": True}
        assert document["command"] == "ttrt"
        assert "runner/ttrt" in document["spans"]

    def test_clean_run_is_not_flagged(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        code = runner.main(
            [
                "loadgen",
                "--spawn",
                "--duration",
                "0.4",
                "--load-workers",
                "2",
                "--quiet",
                "--log-level",
                "error",
                "--bench-json",
                str(tmp_path / "service.json"),
                "--manifest",
                str(manifest_path),
            ]
        )
        assert code == 0
        document = json.loads(manifest_path.read_text())
        assert "interrupted" not in document.get("extra", {})
        assert "loadgen" in document["extra"]
        assert document["extra"]["loadgen"]["errors"] == 0
        bench = json.loads((tmp_path / "service.json").read_text())
        assert bench["schema_version"] == 2
        assert bench["benchmarks"][0]["group"] == "service"

    def test_loadgen_writes_a_bench_document_only_on_request(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = runner.main(
            [
                "loadgen", "--spawn", "--duration", "0.2",
                "--load-workers", "1", "--quiet", "--log-level", "error",
                "--no-manifest",
            ]
        )
        assert code == 0
        assert os.listdir(tmp_path) == []
