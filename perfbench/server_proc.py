"""The system under test for the service workloads, in its own process.

``python3 server_proc.py --mode server|cluster [--trace] [--runtime-dir D]``

* ``server`` runs one :class:`~repro.service.server.AdmissionServer` with
  the defaults ``runner serve`` ships (``ServiceConfig()`` on an
  ephemeral port).
* ``cluster`` runs what ``runner cluster --workers 1`` runs: a
  :class:`~repro.cluster.supervisor.WorkerPool` of one worker process
  behind a :class:`~repro.cluster.router.ClusterRouter`, with its
  runtime files under ``--runtime-dir``.
* ``--trace`` installs the per-layer wrappers of :mod:`layers` before
  the server is built.

Control channel: once serving, the process prints one JSON line
``{"port": ..., "pid": ...}`` to stdout, then answers commands read
from stdin, one per line, each with one JSON line:

* ``stats`` — metric snapshot, span totals and peak RSS;
* ``stop`` (or end of input) — drain, print ``{"stopped": true}``, exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import Recorder, install_service  # noqa: E402


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_peak_rss_mb(pid: int) -> float:
    """VmHWM of another process, in MB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _control(loop, stop: asyncio.Event, stats) -> None:
    """Serve stdin commands until ``stop`` or end of input."""
    for line in sys.stdin:
        command = line.strip()
        if command == "stats":
            _emit(stats())
        elif command == "stop":
            break
    loop.call_soon_threadsafe(stop.set)


async def _serve(args, recorder: Recorder | None) -> None:
    from repro.obs import metrics
    from repro.service.protocol import ServiceConfig

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    if args.mode == "server":
        from repro.service.server import AdmissionServer

        server = AdmissionServer(ServiceConfig(port=0))
        await server.start()
        port, worker_pid, worker_port = server.port, None, None
        shutdown = server.drain_and_stop
    else:
        from repro.cluster.config import ClusterConfig
        from repro.cluster.router import ClusterRouter
        from repro.cluster.supervisor import WorkerPool

        config = ClusterConfig(
            n_workers=1,
            router_port=0,
            runtime_dir=args.runtime_dir,
            service=ServiceConfig(port=0),
        )
        pool = WorkerPool(config)
        router = ClusterRouter(config, pool)
        await loop.run_in_executor(None, pool.start)
        await router.start()
        port = router.port
        ((worker_pid, worker_port),) = pool.running().values()
        shutdown = router.drain_and_stop

    def stats() -> dict:
        out = {
            "metrics": metrics.snapshot(),
            "layers": recorder.snapshot() if recorder is not None else None,
            "peak_rss_mb": _own_peak_rss_mb(),
        }
        if worker_port is not None:
            from repro.service.client import ServiceClient

            with ServiceClient("127.0.0.1", worker_port) as client:
                out["worker_metrics"] = client.metrics()["metrics"]
            out["peak_rss_mb"] += _proc_peak_rss_mb(worker_pid)
        return out

    control = threading.Thread(
        target=_control, args=(loop, stop, stats), name="bench-control", daemon=True
    )
    control.start()
    _emit({"port": port, "pid": os.getpid(), "worker_pid": worker_pid})
    await stop.wait()
    await shutdown()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("server", "cluster"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--runtime-dir", default=None)
    args = parser.parse_args()
    recorder = None
    if args.trace:
        recorder = Recorder()
        install_service(recorder)
    asyncio.run(_serve(args, recorder))
    _emit({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
