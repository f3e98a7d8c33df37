"""Observability: structured logging, metrics, spans and traces, manifests.

The shared instrumentation layer for the whole library.  Six small
modules with one design contract between them — *instrumentation never
changes results*:

* :mod:`repro.obs.logging` — human-readable stderr logging plus a JSONL
  sink, and the :func:`~repro.obs.logging.console` replacement for bare
  ``print`` in experiment entry points.
* :mod:`repro.obs.metrics` — a registry of counters / gauges /
  histograms wired into the hot paths (exact-test cache, lockstep
  bisection, Monte Carlo sampling, simulators); snapshots are picklable
  and mergeable across worker processes.
* :mod:`repro.obs.manifest` — run manifests: a JSON provenance record
  (seed, parameters, git SHA, environment, metrics, spans) written next
  to every experiment artifact.
* :mod:`repro.obs.benchjson` — the versioned schema of the
  ``BENCH_*.json`` canaries (``make bench-loss``, ``bench-cluster``,
  ``runner loadgen --bench-json``).
* :mod:`repro.obs.tracing` — one span API: every span aggregates its
  wall time by path (one path per grid cell in the experiment sweeps),
  and sampled requests additionally get trace trees propagated across
  the serving path (server → batcher → engine → cache), with a ring
  buffer behind ``/v1/traces``, a JSONL sink, and a slow-request log.
* :mod:`repro.obs.prometheus` — Prometheus text exposition of metric
  snapshots (bucketed histograms with trace-id exemplars) behind
  ``/metrics?format=prometheus``.

Everything defaults to *on* because the cost is negligible by design
(updates are O(1) and happen per batch / per run, never per inner-loop
iteration); ``metrics.disable()`` turns metric updates into strict
no-ops for paranoid benchmarking.
"""

from __future__ import annotations

from repro.obs import logging, manifest, metrics, prometheus, tracing
from repro.obs.logging import console, get_logger, setup_logging
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.metrics import MetricsRegistry, counter, gauge, histogram
from repro.obs.tracing import Tracer, span

__all__ = [
    "logging",
    "manifest",
    "metrics",
    "prometheus",
    "tracing",
    "Tracer",
    "console",
    "get_logger",
    "setup_logging",
    "build_manifest",
    "write_manifest",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "span",
]
