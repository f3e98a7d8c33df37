"""Run manifests: every experiment artifact carries its own provenance.

A *manifest* is a small JSON file written next to an experiment's output
(CSV, report) capturing everything needed to regenerate it exactly:

* the command and parsed CLI arguments,
* the full :class:`~repro.experiments.config.PaperParameters` (seed
  included — the Monte Carlo is deterministic given these),
* the code version (git SHA + dirty flag) and the Python/numpy versions,
* wall time, and
* the final metrics and span snapshots of the run, so the
  manifest doubles as the run's performance record (exact-test cache hit
  rates, probe counts, per-cell wall times).

The schema is versioned (:data:`MANIFEST_SCHEMA_VERSION`); consumers
should reject manifests with a newer major version rather than guess.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import platform
import subprocess
import sys

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "git_revision",
    "describe_parameters",
    "build_manifest",
    "write_manifest",
]

#: Bumped whenever a field is renamed or re-typed (additions are free).
MANIFEST_SCHEMA_VERSION = 1


def git_revision(cwd: str | None = None) -> dict:
    """The current git SHA and dirty flag, or nulls outside a checkout."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        dirty = bool(
            subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        )
        return {"sha": sha, "dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def describe_parameters(parameters: object) -> dict:
    """A JSON-safe description of a parameter object.

    Dataclasses serialize their *init* fields only (derived caches and
    other non-init state are implementation detail, not provenance);
    anything else falls back to ``repr``.
    """
    if dataclasses.is_dataclass(parameters) and not isinstance(parameters, type):
        return {
            f.name: getattr(parameters, f.name)
            for f in dataclasses.fields(parameters)
            if f.init
        }
    return {"repr": repr(parameters)}


def build_manifest(
    command: str,
    cli_args: dict | None = None,
    parameters: object | None = None,
    wall_time_s: float | None = None,
    metrics: dict | None = None,
    spans: dict | None = None,
    artifacts: list | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble a manifest dict (see the module docstring for the fields).

    Args:
        command: what was run (e.g. ``"figure1"`` or a full argv string).
        cli_args: parsed arguments, JSON-safe values only.
        parameters: the parameter object driving the run; dataclasses are
            expanded field by field (the seed rides along here).
        wall_time_s: total wall time of the invocation.
        metrics: a :func:`repro.obs.metrics.snapshot`.
        spans: a :func:`repro.obs.tracing.snapshot` (span path -> count,
            total, min, max and mean seconds).
        artifacts: paths of files the run wrote (CSV, reports).
        extra: free-form additions (kept under their own key).
    """
    import numpy

    manifest: dict = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": command,
        "cli_args": cli_args or {},
        "parameters": (
            describe_parameters(parameters) if parameters is not None else None
        ),
        "git": git_revision(),
        "environment": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "wall_time_s": wall_time_s,
        "metrics": metrics or {},
        "spans": spans or {},
        "artifacts": artifacts or [],
    }
    if extra:
        manifest["extra"] = extra
    return manifest


def write_manifest(path: str, manifest: dict) -> str:
    """Write ``manifest`` to ``path`` as indented JSON; returns ``path``."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path
