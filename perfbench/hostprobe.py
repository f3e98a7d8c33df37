"""Fixed reference workloads that measure the host's current speed.

The virtual machines this benchmark runs on change speed by themselves,
by up to 1.7x within seconds, as other guests load the shared cores.
The benchmark therefore times a probe between short stretches of the
work under test and expresses every timing in *reference seconds*: the
measured time scaled by ``NOMINAL_S[kind] / probe time``, i.e. the time
the work would have taken on a host where the probe takes its nominal
time.

The probes import nothing from the repository, so a change to the
program under test never changes them.  Different work slows down by
different amounts on a loaded core, so each workload family has a probe
that resembles it:

* ``service``: JSON round trips, dict and string work, small numpy
  arithmetic and integer loops, the interpreter work of a served request
  (also used for set-up, which is process start and imports);
* ``analysis``: a stacked matrix product against a matrix the size of
  the Figure 1 exact-test structures (9000 scheduling points x 100
  streams), then the threshold test and per-stream OR-reduction, the
  work that takes most of a Figure 1 cell.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy

#: Probe time, in seconds, that defines one reference second per kind:
#: about each probe's time where the benchmark takes it (between slices
#: of requests, after a Figure 1 cell) on the host the benchmark was
#: built on in a fast phase.
NOMINAL_S = {"service": 0.002, "analysis": 0.005}

_BODY = {
    "period_s": 0.032,
    "payload_bits": 512.5,
    "stream_id": 17,
    "station": 3,
    "tags": ["rm", "pdp", "ttp"],
}

_VEC = numpy.linspace(1.0, 2.0, 48)


def _service_work() -> int:
    acc = 0
    for i in range(90):
        text = json.dumps(_BODY, sort_keys=True)
        body = json.loads(text)
        pairs = sorted((key, repr(value)) for key, value in body.items())
        acc += len(pairs) + len(text)
        y = _VEC * (1.0 + i) + 0.5
        acc += int(numpy.maximum(y, 2.0).sum()) + int(numpy.cumsum(y)[-1])
        for j in range(60):
            acc += j * j % 7
    return acc


@functools.cache
def _analysis_arrays():
    points, streams, batch = 9000, 100, 22
    matrix = numpy.linspace(0.0, 1.0, points * streams).reshape(points, streams)
    costs = numpy.linspace(0.01, 0.02, batch * streams).reshape(batch, streams)
    thresholds = numpy.linspace(0.5, 2.0, points)
    segments = numpy.arange(0, points, points // streams)
    return matrix, costs, thresholds, segments


def _analysis_work() -> int:
    matrix, costs, thresholds, segments = _analysis_arrays()
    acc = 0
    for _ in range(2):
        ok = costs @ matrix.T + 0.1 <= thresholds
        acc += int(numpy.logical_or.reduceat(ok, segments, axis=1).all(axis=1).sum())
    return acc


_WORK = {"service": _service_work, "analysis": _analysis_work}


def probe_s(kind: str = "service") -> float:
    """Wall time of one pass of the ``kind`` reference workload, seconds."""
    work = _WORK[kind]
    t0 = time.perf_counter()
    if work() < 0:  # keeps the work observable
        raise AssertionError(kind)
    return time.perf_counter() - t0


def factor(probe: float, kind: str = "service") -> float:
    """Reference seconds per wall second, given a probe time."""
    return NOMINAL_S[kind] / probe


def steady_probe_s(repeats: int = 15) -> float:
    """Median of several ``service`` probe timings, to bracket a set-up."""
    return statistics.median(probe_s() for _ in range(repeats))
