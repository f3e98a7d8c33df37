"""Consistent-hash ring: how the router picks a shard for each stream.

The router hashes a request's *stream key* onto a ring of virtual
nodes.  Consistent hashing buys two things the admission
tier actually needs:

* **cache affinity** — a repeat candidate (same period/payload against
  the same shard population) lands on the same worker, so that worker's
  content-addressed verdict cache answers it without recomputing;
* **minimal disruption** — removing a dead shard moves only the keys it
  owned (to their next virtual node clockwise); every other key keeps
  its assignment, so a worker death invalidates one shard's cache
  affinity, not the fleet's.  :meth:`HashRing.without` is the rebalance
  the router applies while retrying around a death, and the
  only-owned-keys-move property is pinned by the ``cluster_shard_equiv``
  fuzz check.

Hashing is SHA-256 over UTF-8 text — deterministic across processes and
interpreter runs (``PYTHONHASHSEED`` does not reach it), which the
router, the load generator's direct-to-shard mode, and the differential
fuzz harness all rely on to agree about placement without talking.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.errors import ConfigurationError

__all__ = ["HashRing", "stream_key"]


def _hash64(text: str) -> int:
    """The first 8 bytes of SHA-256 as an unsigned 64-bit ring position."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream_key(period_s: float, payload_bits: float) -> str:
    """The routing key of one stream candidate.

    ``repr`` of the floats keeps distinct values distinct (repr is
    shortest-round-trip in Python 3) and identical values identical
    across processes — the property consistent placement needs.
    """
    return f"{period_s!r}/{payload_bits!r}"


class HashRing:
    """A consistent-hash ring over shard ids.

    Each shard contributes ``replicas`` virtual nodes.  Lookup walks
    clockwise from the key's position to the next virtual node.  The
    ring is immutable; :meth:`without` / :meth:`with_shard` return new
    rings (the router swaps the whole ring atomically on membership
    change, so a concurrent lookup never sees a half-built table).
    """

    def __init__(self, shards, *, replicas: int = 64):
        shard_list = list(dict.fromkeys(shards))  # de-dup, keep order
        if not shard_list:
            raise ConfigurationError("HashRing needs at least one shard")
        if replicas < 1:
            raise ConfigurationError(
                f"replicas must be at least 1, got {replicas!r}"
            )
        self._shards = tuple(shard_list)
        self._replicas = replicas
        points: list[tuple[int, str]] = []
        for shard in shard_list:
            for replica in range(replicas):
                points.append((_hash64(f"{shard}#{replica}"), shard))
        points.sort()
        self._positions = [p for p, _ in points]
        self._owners = [s for _, s in points]

    @property
    def shards(self) -> tuple:
        """The shard ids on the ring, in construction order."""
        return self._shards

    @property
    def replicas(self) -> int:
        """Virtual nodes per shard."""
        return self._replicas

    def lookup(self, key: str) -> str:
        """The shard owning ``key`` (first virtual node clockwise)."""
        position = _hash64(key)
        index = bisect.bisect_right(self._positions, position)
        if index == len(self._positions):
            index = 0  # wrap: the ring is circular
        return self._owners[index]

    def without(self, shard: str) -> "HashRing":
        """The ring with ``shard`` removed (the death rebalance).

        Only keys the dead shard owned move; everything else keeps its
        virtual node and therefore its owner.
        """
        survivors = [s for s in self._shards if s != shard]
        if len(survivors) == len(self._shards):
            return self
        return HashRing(survivors, replicas=self._replicas)

    def with_shard(self, shard: str) -> "HashRing":
        """The ring with ``shard`` added (a restarted worker rejoining)."""
        if shard in self._shards:
            return self
        return HashRing([*self._shards, shard], replicas=self._replicas)

