"""Wire schema and configuration of the admission-control service.

The service speaks JSON over HTTP/1.1.  Endpoints:

=================  ======  =====================================================
``/v1/check``      POST    non-mutating what-if decision for one stream
``/v1/admit``      POST    admission request (installs the stream on acceptance)
``/v1/release``    POST    release a previously admitted stream
``/v1/breakdown``  GET     headroom report for the admitted population
``/v1/lease``      GET     this worker's utilization-budget lease
``/v1/lease``      POST    install a new lease cap (cluster control plane)
``/healthz``       GET     liveness/drain status plus queue depth, shard
                           identity (``shard_id``/``worker_pid``), and
                           cache corruption counters
``/metrics``       GET     metric snapshot; ``?format=prometheus`` for
                           text exposition, ``?format=json`` (default)
``/v1/traces``     GET     recent request traces (``?limit=N``), newest last
=================  ======  =====================================================

Request bodies: ``{"period_s": float, "payload_bits": float}`` for
check/admit, ``{"stream_id": int, "idempotent": bool}`` for release.
Every response is a JSON object; decision responses mirror
:class:`repro.admission.AdmissionDecision` field for field, so a wire
decision compares equal to a direct controller call (the
``service_batch_equiv`` fuzz property holds the server to that).

Backpressure semantics: a full batch queue or an exhausted per-client
token bucket answers **429** with a ``Retry-After`` header (seconds); a
draining server answers **503**.  Neither consumes admission state —
a shed request was never evaluated.

This module is deliberately transport-free: pure dataclasses and
encode/decode helpers shared by the server, both clients, and the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    OpFault,
    ReleaseOutcome,
)
from repro.errors import ConfigurationError, ServiceError
from repro.network.standards import fddi_ring, ieee_802_5_ring, paper_frame_format
from repro.units import mbps

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "ServiceConfig",
    "build_controller",
    "decision_to_wire",
    "release_to_wire",
    "fault_to_wire",
    "fault_status",
    "parse_stream_body",
    "parse_release_body",
    "dump_body",
    "load_body",
]

#: Version tag carried in every response envelope; consumers should
#: reject a newer major version rather than guess at field meanings.
WIRE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one admission-server session needs.

    The analysis side (protocol, bandwidth, ring size, policy) mirrors
    the library constructors; the serving side (batch size, queue
    bound, rate limit) tunes the micro-batcher and backpressure.
    ``policy`` selects semantics: ``"exact"`` (the default, Theorems 4.1
    and 5.1) or ``"sufficient"`` (the utilization bound only, more
    conservative).  Decisions are always fronted by the content-addressed
    result cache under the ``"admission"`` namespace.
    """

    host: str = "127.0.0.1"
    port: int = 8711
    protocol: str = "pdp"  # "pdp" | "ttp"
    variant: str = "modified"  # PDP only: "standard" | "modified"
    bandwidth_mbps: float = 16.0
    n_stations: int = 40
    policy: str = "exact"  # "exact" | "sufficient"
    batch_max: int = 64
    queue_limit: int = 256
    rate_limit_rps: float = 0.0  # per client; 0 disables
    rate_limit_burst: float = 50.0
    drain_grace_s: float = 5.0
    shard_id: str | None = None  # cluster worker identity; None standalone
    utilization_cap: float | None = None  # budget lease; None unbounded
    trace_sample_rate: float = 1.0  # fraction of requests traced
    trace_buffer: int = 256  # traces retained for /v1/traces
    trace_jsonl: str | None = None  # append finished traces here
    slow_trace_s: float = 0.0  # log full span tree above this; 0 off

    def __post_init__(self) -> None:
        if self.protocol not in ("pdp", "ttp"):
            raise ConfigurationError(
                f"protocol must be 'pdp' or 'ttp', got {self.protocol!r}"
            )
        if self.variant not in ("standard", "modified"):
            raise ConfigurationError(
                f"variant must be 'standard' or 'modified', got {self.variant!r}"
            )
        if self.policy not in ("exact", "sufficient"):
            raise ConfigurationError(
                f"policy must be 'exact' or 'sufficient', got {self.policy!r}"
            )
        if self.batch_max < 1:
            raise ConfigurationError(
                f"batch_max must be at least 1, got {self.batch_max!r}"
            )
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be at least 1, got {self.queue_limit!r}"
            )
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigurationError(
                f"trace_sample_rate must be within [0, 1], got "
                f"{self.trace_sample_rate!r}"
            )
        if self.trace_buffer < 1:
            raise ConfigurationError(
                f"trace_buffer must be at least 1, got {self.trace_buffer!r}"
            )
        if self.slow_trace_s < 0:
            raise ConfigurationError(
                f"slow_trace_s must be non-negative, got {self.slow_trace_s!r}"
            )
        if self.utilization_cap is not None and not self.utilization_cap >= 0:
            raise ConfigurationError(
                f"utilization_cap must be non-negative, got "
                f"{self.utilization_cap!r}"
            )


def build_controller(config: ServiceConfig) -> AdmissionController:
    """The admission controller a server session runs (ring + analysis
    from the config, decisions fronted by the result cache).

    The exact-test structure LRU is sized for serving (a load-generator
    catalogue rotates more period vectors than the library default of 4
    holds, and a structure rebuild costs ~ms — it was the dominant term
    in served-decision p99).
    """
    from repro.analysis.pdp import PDPAnalysis, PDPVariant
    from repro.analysis.ttp import TTPAnalysis

    frame = paper_frame_format()
    bandwidth = mbps(config.bandwidth_mbps)
    if config.protocol == "pdp":
        variant = (
            PDPVariant.STANDARD
            if config.variant == "standard"
            else PDPVariant.MODIFIED
        )
        analysis = PDPAnalysis(
            ieee_802_5_ring(bandwidth, n_stations=config.n_stations),
            frame,
            variant,
            cache_size=1024,
        )
    else:
        analysis = TTPAnalysis(
            fddi_ring(bandwidth, n_stations=config.n_stations), frame
        )
    return AdmissionController(
        analysis,
        AdmissionPolicy(config.policy),
        cache_namespace="admission",
        utilization_cap=config.utilization_cap,
    )


# -- body parsing ---------------------------------------------------------------


def load_body(raw: bytes) -> dict:
    """Decode a JSON request body, mapping malformed input to 400s."""
    if not raw:
        return {}
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise ServiceError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    return body


#: The one response encoder: ``json.dumps`` with ``separators`` would
#: build an equal encoder on every call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def dump_body(payload: dict) -> bytes:
    """Encode a response body (compact separators, UTF-8)."""
    return _ENCODER.encode(payload).encode("utf-8")


def _number(body: dict, key: str) -> float:
    value = body.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ServiceError(f"field {key!r} must be a number, got {value!r}")
    return float(value)


def parse_stream_body(body: dict) -> tuple[float, float]:
    """``(period_s, payload_bits)`` of a check/admit body."""
    return _number(body, "period_s"), _number(body, "payload_bits")


def parse_release_body(body: dict) -> tuple[int, bool]:
    """``(stream_id, idempotent)`` of a release body."""
    stream_id = body.get("stream_id")
    if not isinstance(stream_id, int) or isinstance(stream_id, bool):
        raise ServiceError(
            f"field 'stream_id' must be an integer, got {stream_id!r}"
        )
    idempotent = body.get("idempotent", False)
    if not isinstance(idempotent, bool):
        raise ServiceError(
            f"field 'idempotent' must be a boolean, got {idempotent!r}"
        )
    return stream_id, idempotent


# -- result encoding ------------------------------------------------------------


def decision_to_wire(decision: AdmissionDecision) -> dict:
    """An :class:`AdmissionDecision` as its wire object (field for field)."""
    return {
        "schema_version": WIRE_SCHEMA_VERSION,
        "admitted": decision.admitted,
        "stream_id": decision.stream_id,
        "station": decision.station,
        "reason": decision.reason,
        "tested_by": decision.tested_by,
        "utilization_after": decision.utilization_after,
    }


def release_to_wire(outcome: ReleaseOutcome) -> dict:
    """A :class:`ReleaseOutcome` as its wire object."""
    return {
        "schema_version": WIRE_SCHEMA_VERSION,
        "released": outcome.released,
        "stream_id": outcome.stream_id,
    }


def fault_to_wire(fault: OpFault) -> dict:
    """An :class:`OpFault` as its wire object."""
    return {
        "schema_version": WIRE_SCHEMA_VERSION,
        "error": fault.error,
        "detail": fault.detail,
    }


def fault_status(fault: OpFault) -> int:
    """HTTP status for a captured operation fault.

    ``AdmissionError`` (unknown/already-released stream) is the caller
    naming a resource that does not exist — 404; every other library
    error is a semantically invalid request — 422.
    """
    return 404 if fault.error == "AdmissionError" else 422
