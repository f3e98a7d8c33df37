"""Package-level hygiene: exports, error hierarchy, version, CLI runner."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_repro_error_is_exception(self):
        assert issubclass(errors.ReproError, Exception)

    def test_catchable_as_base(self):
        from repro.messages.stream import SynchronousStream

        with pytest.raises(errors.ReproError):
            SynchronousStream(period_s=-1.0, payload_bits=0)

    def test_simulation_error_distinct_from_config(self):
        assert not issubclass(errors.SimulationError, errors.ConfigurationError)


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_analysis_exports_resolve(self):
        from repro import analysis

        for name in analysis.__all__:
            assert hasattr(analysis, name), name

    def test_sim_exports_resolve(self):
        from repro import sim

        for name in sim.__all__:
            assert hasattr(sim, name), name

    def test_experiments_exports_resolve(self):
        from repro import experiments

        for name in experiments.__all__:
            assert hasattr(experiments, name), name

    def test_network_exports_resolve(self):
        from repro import network

        for name in network.__all__:
            assert hasattr(network, name), name

    def test_messages_exports_resolve(self):
        from repro import messages

        for name in messages.__all__:
            assert hasattr(messages, name), name


class TestRunnerCLI:
    def run_cli(self, *args: str, cwd=None) -> subprocess.CompletedProcess:
        # cwd keeps default-location artifacts (manifest.json) out of the
        # repository checkout; an absolute src path on PYTHONPATH keeps
        # the package importable from any working directory.
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", *args],
            capture_output=True,
            text=True,
            timeout=600,
            cwd=cwd,
            env=env,
        )

    def test_help(self):
        result = self.run_cli("--help")
        assert result.returncode == 0
        assert "figure1" in result.stdout

    def test_rejects_unknown_experiment(self):
        result = self.run_cli("nonsense")
        assert result.returncode != 0

    def test_tiny_figure1_run(self, tmp_path):
        csv_path = tmp_path / "fig1.csv"
        result = self.run_cli(
            "figure1", "--stations", "5", "--sets", "2", "--csv", str(csv_path)
        )
        assert result.returncode == 0, result.stderr
        assert "shape checks" in result.stdout
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("bandwidth_mbps")

    def test_tiny_sba_run(self, tmp_path):
        result = self.run_cli("sba", "--stations", "5", "--sets", "2",
                              "--bandwidth", "100", cwd=str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert "local" in result.stdout
        assert (tmp_path / "manifest.json").exists()

    def test_tiny_report_run(self, tmp_path):
        out = tmp_path / "report.md"
        result = self.run_cli(
            "report", "--stations", "5", "--sets", "2", "--out", str(out),
            cwd=str(tmp_path),
        )
        assert result.returncode == 0, result.stderr
        text = out.read_text()
        assert "## Figure 1" in text
        assert "## Crossover frontier" in text

    def test_mc_strata_without_mc_eps_is_an_error(self, tmp_path):
        result = self.run_cli("figure1", "--mc-strata", "4", cwd=str(tmp_path))
        assert result.returncode == 2
        assert "--mc-strata needs --mc-eps" in result.stderr
        assert not (tmp_path / "manifest.json").exists()

    def test_mc_eps_help_names_the_figure1_experiments(self):
        result = self.run_cli("--help")
        assert result.returncode == 0
        text = " ".join(result.stdout.split())
        assert "--mc-eps EPS run the Figure 1 cells (figure1, all, report)" in text

    def test_main_importable(self):
        from repro.experiments.runner import main

        assert callable(main)
