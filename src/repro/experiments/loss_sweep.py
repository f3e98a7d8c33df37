"""Breakdown utilization under a lossy medium: the ``loss-sweep`` experiment.

The paper's comparison assumes a fault-free medium.  This sweep repeats
the Figure-1-style Monte Carlo estimate with the retransmission-aware
criteria of :mod:`repro.faults.analysis` across a range of *loss
fractions* — the fraction of medium time the token claim/recovery process
can consume when ring faults arrive at their rate bound
(``loss_fraction = rate × T_rec``; see
:func:`repro.faults.plan.rate_for_loss_fraction`).  At fraction 0 the
fault-aware tests are identical to the original theorems, so the first
row doubles as a baseline cross-check; as the fraction grows, breakdown
utilization degrades for both protocols — the PDP pays the recovery
budget per priority level, the TTP loses whole token visits.

Outputs: a :class:`~repro.experiments.sweeps.SweepResult` table, an ASCII
breakdown-utilization-versus-loss-fraction figure for both protocols, and
a summarized-canary document (``BENCH_loss.json``) whose per-cell
``extra_info`` carries the mean utilizations ``tools/verify_smoke.py``
guards for monotone degradation.

Every cell reuses the paired-sampling design: one population, drawn
from the seed once per sweep, at every loss fraction and for both
protocols, so the curves are directly comparable and deterministic
under ``--jobs``.
"""

from __future__ import annotations

import datetime
import platform
import time

import numpy as np

from repro.analysis.pdp import PDPVariant
from repro.experiments.config import PaperParameters
from repro.experiments.parallel import parallel_map
from repro.experiments.reporting import ascii_plot
from repro.experiments.sweeps import SweepResult
from repro.faults.analysis import (
    FaultBudget,
    fault_aware_breakdown_scale,
    pdp_fault_aware_schedulable,
    ttp_fault_aware_schedulable,
)
from repro.faults.plan import rate_for_loss_fraction
from repro.obs import tracing
from repro.obs.benchjson import BENCH_SCHEMA_VERSION, cpu_info
from repro.units import mbps

__all__ = [
    "DEFAULT_LOSS_FRACTIONS",
    "DEFAULT_RECOVERY_S",
    "loss_sweep",
    "loss_figure",
    "loss_bench_document",
]

#: Loss fractions swept by default; 0 pins the fault-free baseline.
DEFAULT_LOSS_FRACTIONS: tuple[float, ...] = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1)

#: Token claim/recovery latency charged per ring fault (1 ms — the order
#: of an 802.5 claim-token exchange at the paper's ring scale).
DEFAULT_RECOVERY_S = 1e-3

#: Sweep columns, shared with the CSV export.
HEADERS: tuple[str, ...] = (
    "loss fraction",
    "loss rate (Hz)",
    "IEEE 802.5",
    "stderr",
    "FDDI",
    "stderr",
)


def _loss_cell(shared, task) -> tuple[float, float, float]:
    """One (loss fraction, protocol) estimate: (mean, stderr, seconds)."""
    parameters, bandwidth_mbps, recovery_time_s, population = shared
    loss_fraction, protocol = task
    budget = FaultBudget(
        token_loss_rate_hz=(
            rate_for_loss_fraction(loss_fraction, recovery_time_s)
            if loss_fraction > 0.0
            else 0.0
        ),
        recovery_time_s=recovery_time_s,
    )
    if protocol == "pdp":
        analysis = parameters.pdp_analysis(bandwidth_mbps, PDPVariant.STANDARD)

        def accepts(message_set):
            return pdp_fault_aware_schedulable(analysis, message_set, budget)

    else:
        analysis = parameters.ttp_analysis(bandwidth_mbps)

        def accepts(message_set):
            return ttp_fault_aware_schedulable(analysis, message_set, budget)

    bandwidth = mbps(bandwidth_mbps)
    utilizations: list[float] = []
    started = time.perf_counter()
    with tracing.span(f"loss-sweep/{protocol}/l{loss_fraction:g}"):
        for message_set in population:
            scale = fault_aware_breakdown_scale(accepts, message_set, rel_tol=1e-3)
            utilizations.append(
                message_set.scaled(scale).utilization(bandwidth)
                if scale > 0
                else 0.0
            )
    elapsed = time.perf_counter() - started
    arr = np.asarray(utilizations)
    stderr = (
        float(np.std(arr, ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    )
    return float(arr.mean()), stderr, elapsed


def loss_sweep(
    parameters: PaperParameters,
    bandwidth_mbps: float,
    loss_fractions: tuple[float, ...] = DEFAULT_LOSS_FRACTIONS,
    recovery_time_s: float = DEFAULT_RECOVERY_S,
    jobs: int | None = 1,
) -> tuple[SweepResult, dict]:
    """Average breakdown utilization versus loss fraction, both protocols.

    Returns ``(result, cell_seconds)`` where ``cell_seconds`` maps
    ``(loss_fraction, protocol)`` to that cell's wall time — the bench
    document reports it so the canary tracks sweep cost too.  Every cell
    evaluates one population drawn once per sweep.
    """
    protocols = ("pdp", "ttp")
    grid = [
        (fraction, protocol)
        for fraction in loss_fractions
        for protocol in protocols
    ]
    cells = parallel_map(
        _loss_cell,
        grid,
        shared=(
            parameters,
            bandwidth_mbps,
            recovery_time_s,
            parameters.sample_population(),
        ),
        jobs=jobs,
        label="loss-sweep",
    )
    by_task = dict(zip(grid, cells))
    rows = [
        (
            fraction,
            rate_for_loss_fraction(fraction, recovery_time_s)
            if fraction > 0.0
            else 0.0,
            by_task[(fraction, "pdp")][0],
            by_task[(fraction, "pdp")][1],
            by_task[(fraction, "ttp")][0],
            by_task[(fraction, "ttp")][1],
        )
        for fraction in loss_fractions
    ]
    result = SweepResult(
        name=(
            f"loss-sweep@{bandwidth_mbps}Mbps "
            f"(T_rec={recovery_time_s:g}s, token-loss budget)"
        ),
        headers=HEADERS,
        rows=tuple(rows),
    )
    cell_seconds = {task: cell[2] for task, cell in by_task.items()}
    return result, cell_seconds


def loss_figure(result: SweepResult) -> str:
    """The breakdown-utilization-versus-loss-fraction figure, ASCII."""
    fractions = [float(value) for value in result.column("loss fraction")]
    return ascii_plot(
        fractions,
        {
            "IEEE 802.5 (PDP, fault-aware)": [
                float(v) for v in result.column("IEEE 802.5")
            ],
            "FDDI (TTP, fault-aware)": [
                float(v) for v in result.column("FDDI")
            ],
        },
        title="breakdown utilization vs loss fraction",
    )


def _cell_stats(seconds: float) -> dict:
    """Single-measurement stats block (the sweep runs each cell once)."""
    return {
        "min": seconds,
        "max": seconds,
        "mean": seconds,
        "stddev": 0.0,
        "median": seconds,
        "iqr": 0.0,
        "q1": seconds,
        "q3": seconds,
        "ops": 1.0 / seconds if seconds > 0 else None,
        "total": seconds,
        "rounds": 1,
        "iterations": 1,
    }


def loss_bench_document(
    result: SweepResult,
    cell_seconds: dict,
    parameters: PaperParameters,
    bandwidth_mbps: float,
    recovery_time_s: float,
) -> dict:
    """The ``BENCH_loss.json`` canary document.

    One benchmark entry per (protocol, loss fraction) cell; the mean
    breakdown utilization and its stderr ride in ``extra_info`` so the
    verify guard can assert the loss-degradation shape (monotone
    non-increasing, positive fault-free baseline) without re-running the
    sweep.
    """
    columns = {"pdp": ("IEEE 802.5", 3), "ttp": ("FDDI", 5)}
    benchmarks = []
    for protocol, (column, stderr_index) in columns.items():
        for row in result.rows:
            fraction = float(row[0])
            benchmarks.append(
                {
                    "group": "loss",
                    "name": f"{protocol}_loss_{fraction:g}",
                    "fullname": (
                        "repro.experiments.loss_sweep::"
                        f"{protocol}_loss_{fraction:g}"
                    ),
                    "params": {
                        "protocol": protocol,
                        "loss_fraction": fraction,
                        "recovery_time_s": recovery_time_s,
                        "bandwidth_mbps": bandwidth_mbps,
                        "n_stations": parameters.n_stations,
                        "monte_carlo_sets": parameters.monte_carlo_sets,
                        "seed": parameters.seed,
                    },
                    "extra_info": {
                        "mean_breakdown_utilization": float(
                            row[result.headers.index(column)]
                        ),
                        "stderr": float(row[stderr_index]),
                        "loss_rate_hz": float(row[1]),
                    },
                    "stats": _cell_stats(
                        float(cell_seconds[(fraction, protocol)])
                    ),
                }
            )
    uname = platform.uname()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "datetime": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "pytest_benchmark_version": None,
        "commit_info": None,
        "machine": {
            "node": uname.node,
            "machine": uname.machine,
            "system": uname.system,
            "release": uname.release,
            "python_version": platform.python_version(),
            "cpu": cpu_info(arch=uname.machine),
        },
        "benchmarks": benchmarks,
    }
