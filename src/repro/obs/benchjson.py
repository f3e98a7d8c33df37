"""The versioned schema of the ``BENCH_*.json`` canary documents.

The service load generator (``runner loadgen --bench-json``), the loss
sweep (``BENCH_loss.json``) and the cluster bench (``BENCH_cluster.json``
via :mod:`repro.experiments.cluster_bench`) emit one document shape:
``schema_version`` + ``machine`` (with :func:`cpu_info`) +
``benchmarks[]`` rows of ``{group, name, fullname, params, extra_info,
stats}``.  This module holds what they share: the schema version and the
CPU block of the machine fingerprint.  The performance record of
Figure 1 and of the admission service is perfbench's
(``perfbench/run.py``, trended by ``tools/bench_trend.py``), not a
document of this schema.
"""

from __future__ import annotations

import os

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "cpu_info",
]

#: Version of the canary document format.
BENCH_SCHEMA_VERSION = 2


def cpu_info(arch: str | None = None) -> dict:
    """``{"brand", "count", "arch"}`` for the canary machine block.

    ``count`` comes from :func:`os.cpu_count`; ``brand`` is a
    best-effort read of the first ``model name`` line in
    ``/proc/cpuinfo`` (absent on non-Linux hosts, in which case it stays
    ``None`` rather than guessing), so the verify guard's same-hardware
    comparison has a brand to compare.
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
