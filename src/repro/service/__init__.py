"""The admission-control service layer (USAGE.md §14).

The library's schedulability criteria answer *offline* questions; this
package serves the *online* one — "can this stream join the ring right
now?" — over JSON/HTTP, fast enough to sit in a connection-setup path:

* :mod:`repro.service.protocol` — wire schema, :class:`ServiceConfig`,
  controller construction;
* :mod:`repro.service.http` — the HTTP/1.1 framing shared by the
  server, the cluster router and the asyncio client;
* :mod:`repro.service.batcher` — dynamic micro-batching into
  :meth:`~repro.admission.AdmissionController.process_batch`;
* :mod:`repro.service.server` — the asyncio HTTP server with rate
  limiting, load shedding, and graceful drain;
* :mod:`repro.service.client` — blocking and asyncio clients;
* :mod:`repro.service.loadgen` — the closed-loop load generator behind
  ``runner loadgen`` (the committed performance record of the service is
  perfbench's ``serve_*`` workloads).

Everything is stdlib + numpy; there is no new dependency surface.
"""

from repro.service.batcher import MicroBatcher, QueueFullError
from repro.service.client import AsyncServiceClient, Backoff, ServiceClient
from repro.service.loadgen import LoadConfig, LoadReport, run_load
from repro.service.protocol import ServiceConfig, build_controller
from repro.service.server import AdmissionServer

__all__ = [
    "AdmissionServer",
    "AsyncServiceClient",
    "Backoff",
    "LoadConfig",
    "LoadReport",
    "MicroBatcher",
    "QueueFullError",
    "ServiceClient",
    "ServiceConfig",
    "build_controller",
    "run_load",
]
