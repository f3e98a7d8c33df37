"""The Figure 1 sweep under test, in its own process.

``python3 figure1_proc.py [--trace]``

Prints ``{"ready": true, "pid": ...}`` once the pipeline is imported,
then answers stdin commands, one JSON line each:

* ``sweep`` — one full 16-bandwidth x 3-protocol sweep at a fresh
  ``PaperParameters()`` with ``jobs=1``: wall time, per-cell times, both
  also in reference seconds of the :mod:`hostprobe` ``analysis`` probe
  (timed before the sweep and after each cell), the 48 means, ``shape_report()``, the ``breakdown.probes`` count and (with
  ``--trace``) the span totals of :mod:`layers`;
* ``stop`` (or end of input) — exit.

A fresh ``PaperParameters`` per sweep matters: its shared exact-test
structure cache would otherwise let a repeat sweep skip every
``ExactRMTest`` build.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostprobe  # noqa: E402
from layers import Recorder, install_figure1  # noqa: E402


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import repro.experiments.figure1 as figure1
    from repro.experiments.config import PaperParameters
    from repro.obs import metrics

    recorder = None
    if args.trace:
        recorder = Recorder()
        install_figure1(recorder)

    cell_s: list[float] = []
    probe_s: list[float] = []
    cell = figure1.average_breakdown_utilization

    @functools.wraps(cell)
    def timed_cell(*a, **kw):
        t0 = time.perf_counter()
        try:
            return cell(*a, **kw)
        finally:
            cell_s.append(time.perf_counter() - t0)
            probe_s.append(hostprobe.probe_s("analysis"))

    figure1.average_breakdown_utilization = timed_cell
    probes = metrics.counter("breakdown.probes")

    _emit({"ready": True, "pid": os.getpid()})
    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        if command != "sweep":
            continue
        cell_s.clear()
        probe_s[:] = [hostprobe.probe_s("analysis")]
        probes_before = probes.value
        t0 = time.perf_counter()
        result = figure1.run_figure1(PaperParameters(), jobs=1)
        elapsed = time.perf_counter() - t0
        # One factor per sweep, from the median of its 49 probes: cells
        # and probes follow each other over seconds but not over the
        # host's short bursts, so per-cell factors would add noise.
        probe_total = sum(probe_s[1:])
        factor = hostprobe.factor(statistics.median(probe_s), "analysis")
        _emit(
            {
                "elapsed_s": elapsed - probe_total,
                "cell_s": list(cell_s),
                "scaled_elapsed_s": (elapsed - probe_total) * factor,
                "scaled_cell_s": [c * factor for c in cell_s],
                "means": [
                    [p.pdp_standard.mean, p.pdp_modified.mean, p.ttp.mean]
                    for p in result.points
                ],
                "bandwidths_mbps": list(result.bandwidths),
                "shape": result.shape_report(),
                "breakdown_probes": probes.value - probes_before,
                "layers": recorder.snapshot() if recorder is not None else None,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
            }
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
