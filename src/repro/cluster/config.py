"""Configuration of one sharded admission cluster session."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.service.protocol import ServiceConfig

__all__ = ["ClusterConfig", "worker_service_config", "shard_name"]


def shard_name(index: int) -> str:
    """The canonical shard id of worker ``index`` (``w0``, ``w1``, ...)."""
    return f"w{index}"


@dataclass(frozen=True)
class ClusterConfig:
    """Everything one cluster session needs.

    ``service`` is the *template* each worker starts from — every worker
    gets a copy with its own ``shard_id``, an ephemeral port, and its
    initial budget lease filled in.  The analysis side of the template
    (protocol, bandwidth, stations, policy) must be identical
    across workers or the shard-equivalence pin is meaningless; keeping
    one template makes that true by construction.

    ``utilization_cap`` is the *fleet* budget — the cap a single
    controller would enforce — which the router's ledger splits into
    per-worker leases (see :mod:`repro.cluster.budget`).  ``cache_dir``
    (when set) is exported to every worker as ``REPRO_CACHE_DIR`` so all
    shards share one disk cache tier: prefix-keyed verdicts computed by
    one worker warm the whole fleet.
    """

    n_workers: int = 4
    host: str = "127.0.0.1"
    router_port: int = 0  # 0 → ephemeral
    utilization_cap: float = 0.9
    cache_dir: str | None = None
    runtime_dir: str | None = None  # port files + worker logs; None → temp
    service: ServiceConfig = field(
        default_factory=lambda: ServiceConfig(port=0)
    )
    heartbeat_s: float = 0.5  # router health/lease reconciliation cadence
    restart_backoff_s: float = 0.2  # supervisor delay before a respawn
    max_restarts: int = 5  # per worker, per session

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be at least 1, got {self.n_workers!r}"
            )
        if not self.utilization_cap >= 0.0:
            raise ConfigurationError(
                f"utilization_cap must be non-negative, "
                f"got {self.utilization_cap!r}"
            )
        if self.heartbeat_s <= 0:
            raise ConfigurationError(
                f"heartbeat_s must be positive, got {self.heartbeat_s!r}"
            )
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be non-negative, got {self.max_restarts!r}"
            )

    def shard_ids(self) -> tuple:
        """The shard ids of this cluster, in worker order."""
        return tuple(shard_name(i) for i in range(self.n_workers))


def worker_service_config(
    config: ClusterConfig, shard_id: str, initial_cap: float
) -> ServiceConfig:
    """The per-worker :class:`ServiceConfig` derived from the template."""
    return replace(
        config.service,
        host=config.host,
        port=0,  # each worker binds its own ephemeral port
        shard_id=shard_id,
        utilization_cap=initial_cap,
    )
