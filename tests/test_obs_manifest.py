"""Run manifests and the runner's observability flags, end to end."""

import json

import pytest

from repro.experiments import runner
from repro.experiments.config import PaperParameters
from repro.obs import logging as obslog
from repro.obs import manifest as obsmanifest
from repro.obs import metrics, tracing


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Isolate global logging/metrics/span state per test."""
    obslog.teardown_logging()
    metrics.reset()
    tracing.reset()
    yield
    obslog.teardown_logging()
    metrics.reset()
    tracing.reset()


class TestGitRevision:
    def test_inside_repo_reports_sha(self):
        info = obsmanifest.git_revision()
        assert set(info) == {"sha", "dirty"}
        if info["sha"] is not None:
            assert len(info["sha"]) == 40
            assert isinstance(info["dirty"], bool)

    def test_outside_repo_reports_nulls(self, tmp_path):
        assert obsmanifest.git_revision(cwd=str(tmp_path)) == {
            "sha": None,
            "dirty": None,
        }


class TestDescribeParameters:
    def test_dataclass_serializes_init_fields(self):
        desc = obsmanifest.describe_parameters(PaperParameters())
        assert desc["seed"] == PaperParameters().seed
        assert desc["n_stations"] == 100
        json.dumps(desc)  # JSON-safe

    def test_non_dataclass_falls_back_to_repr(self):
        assert obsmanifest.describe_parameters(object())["repr"]


class TestBuildManifest:
    def test_contains_provenance_fields(self):
        doc = obsmanifest.build_manifest(
            command="figure1",
            cli_args={"fast": True},
            parameters=PaperParameters(),
            wall_time_s=1.5,
            metrics={"m": {"type": "counter", "value": 1.0}},
            spans={"s": {"count": 1}},
            artifacts=["out.csv"],
        )
        assert doc["schema_version"] == obsmanifest.MANIFEST_SCHEMA_VERSION
        assert doc["command"] == "figure1"
        assert doc["parameters"]["seed"] == PaperParameters().seed
        assert doc["environment"]["python"]
        assert doc["environment"]["numpy"]
        assert doc["wall_time_s"] == 1.5
        assert doc["artifacts"] == ["out.csv"]
        json.dumps(doc)

    def test_write_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "a" / "b" / "manifest.json"
        obsmanifest.write_manifest(
            str(path), obsmanifest.build_manifest(command="x")
        )
        assert json.loads(path.read_text())["command"] == "x"


class TestResolveManifestPath:
    def _args(self, **overrides):
        import argparse

        defaults = {"no_manifest": False, "manifest": None, "csv": None}
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_no_manifest_wins(self):
        args = self._args(no_manifest=True, manifest="x.json")
        assert runner.resolve_manifest_path(args) is None

    def test_explicit_path_wins_over_csv(self):
        args = self._args(manifest="m.json", csv="out/f.csv")
        assert runner.resolve_manifest_path(args) == "m.json"

    def test_defaults_next_to_csv(self):
        args = self._args(csv="out/f.csv")
        assert runner.resolve_manifest_path(args) == "out/manifest.json"

    def test_falls_back_to_cwd(self):
        assert runner.resolve_manifest_path(self._args()) == "manifest.json"


class TestRunnerEndToEnd:
    def test_fast_run_emits_manifest_and_jsonl(self, tmp_path, capsys):
        csv = tmp_path / "figure1.csv"
        jsonl = tmp_path / "run.jsonl"
        code = runner.main(
            [
                "figure1",
                "--fast",
                "--sets", "4",
                "--stations", "10",
                "--csv", str(csv),
                "--log-json", str(jsonl),
                "--quiet",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""  # --quiet really is quiet

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "figure1"
        assert manifest["parameters"]["seed"] == PaperParameters().seed
        assert manifest["parameters"]["monte_carlo_sets"] == 4
        assert manifest["cli_args"]["quiet"] is True
        assert manifest["wall_time_s"] > 0
        assert "git" in manifest

        # The population's exact tests are prepared once per sweep: one
        # lookup and one kernel per distinct period vector, whatever the
        # number of cells.
        population = runner.build_parameters(True, 4, 10).sample_population()
        distinct = len({ms.rate_monotonic().periods for ms in population})
        cache = {
            name: manifest["metrics"][f"pdp.exact_cache.{name}"]["value"]
            for name in ("misses", "kernel_builds")
        }
        assert cache == {"misses": distinct, "kernel_builds": distinct}
        assert manifest["metrics"]["breakdown.probes"]["value"] > 0

        # Per-cell spans made it into the manifest.
        cell_spans = [k for k in manifest["spans"] if "/bw" in k]
        assert len(cell_spans) == 16 * 3

        # Every log line parses as JSON, and the quiet console output was
        # still mirrored into the structured log.
        records = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        assert records
        loggers = {r["logger"] for r in records}
        assert obslog.CONSOLE_LOGGER_NAME in loggers
        assert "repro.experiments.parallel" in loggers

        # The CSV artifact is listed and uses the 10-column schema.
        assert str(csv) in manifest["artifacts"]
        header = csv.read_text().splitlines()[0]
        assert header.split(",")[-3:] == [
            "deg_standard", "deg_modified", "deg_ttp",
        ]

    def test_no_manifest_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = runner.main(
            [
                "throughput",
                "--fast",
                "--sets", "2",
                "--stations", "8",
                "--no-manifest",
                "--quiet",
            ]
        )
        assert code == 0
        assert not (tmp_path / "manifest.json").exists()
