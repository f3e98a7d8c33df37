"""Content-addressed result store: in-memory LRU plus an optional disk layer.

The in-memory layer is always on and free: repeated admission decisions
on the same population inside one process (served checks, fuzz rounds)
hit it without any configuration.  The disk layer is
opt-in — via :func:`configure`, the runner's ``--cache-dir``, or the
``REPRO_CACHE_DIR`` environment variable — and persists entries across
processes as ``<dir>/<namespace>/<key[:2]>/<key>.json``.

Safety rules:

* **Corruption can never produce a wrong answer.**  A truncated,
  malformed, or mismatched cache file is counted (``cache.<ns>.errors``),
  logged as a warning, removed best-effort, and treated as a miss — the
  caller recomputes.
* **Writes are atomic** (temp file + ``os.replace``) so a crashed writer
  leaves either the old entry or none.
* **Metrics never feed back into results**: hit/miss/write/error counters
  (``cache.<namespace>.hits`` etc.) are observational only.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from collections import OrderedDict

from repro.obs import logging as obslog
from repro.obs import metrics as _metrics
from repro.obs import tracing

__all__ = ["ResultCache", "clear", "configure", "detached", "result_cache"]

_LOG = obslog.get_logger("cache")

#: Default bound on in-memory entries; old entries evict LRU-first.
_DEFAULT_MEMORY_ENTRIES = 4096


class ResultCache:
    """One content-addressed store (see module docstring)."""

    def __init__(
        self,
        directory: str | None = None,
        max_memory_entries: int = _DEFAULT_MEMORY_ENTRIES,
    ):
        self.directory = directory
        self._max_memory = max(int(max_memory_entries), 1)
        self._memory: "OrderedDict[str, object]" = OrderedDict()
        # (namespace, event) -> the ``cache.<namespace>.<event>`` counter,
        # so a lookup neither formats the name nor takes the registry
        # lock to find it (registry counters are singletons, zeroed in
        # place).
        self._counters: "dict[tuple[str, str], _metrics.Counter]" = {}

    # -- internals ------------------------------------------------------------

    def _count(self, namespace: str, event: str) -> None:
        counter = self._counters.get((namespace, event))
        if counter is None:
            counter = self._counters[namespace, event] = _metrics.counter(
                f"cache.{namespace}.{event}"
            )
        counter.inc()

    def _path(self, key: str, namespace: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, namespace, key[:2], f"{key}.json")

    def _memory_key(self, key: str, namespace: str) -> str:
        return f"{namespace}/{key}"

    def _remember(self, mkey: str, payload: object) -> None:
        self._memory[mkey] = payload
        self._memory.move_to_end(mkey)
        while len(self._memory) > self._max_memory:
            self._memory.popitem(last=False)
        _metrics.gauge("cache.memory_entries").set(len(self._memory))

    def _read_disk(self, key: str, namespace: str) -> object | None:
        path = self._path(key, namespace)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            if not isinstance(record, dict) or record.get("key") != key:
                raise ValueError("cache record key mismatch")
            return record["payload"]
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError) as exc:
            # Corrupt or unreadable entry: warn, count, drop, recompute.
            self._count(namespace, "errors")
            _LOG.warning(
                "discarding unreadable cache entry %s (%s); recomputing",
                path, exc,
                extra={"namespace": namespace, "key": key},
            )
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def _write_disk(self, key: str, payload: object, namespace: str) -> None:
        path = self._path(key, namespace)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump({"key": key, "payload": payload}, handle)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self._count(namespace, "errors")
            _LOG.warning(
                "failed to write cache entry %s (%s); continuing uncached",
                path, exc,
                extra={"namespace": namespace, "key": key},
            )

    # -- public API -----------------------------------------------------------

    def get(self, key: str, namespace: str) -> object | None:
        """The stored payload, or None on a miss (including corruption)."""
        mkey = self._memory_key(key, namespace)
        if mkey in self._memory:
            self._memory.move_to_end(mkey)
            self._count(namespace, "hits")
            tracing.add(cache_hits=1)
            return self._memory[mkey]
        if self.directory is not None:
            payload = self._read_disk(key, namespace)
            if payload is not None:
                self._remember(mkey, payload)
                self._count(namespace, "hits")
                tracing.add(cache_hits=1)
                return payload
        self._count(namespace, "misses")
        tracing.add(cache_misses=1)
        return None

    def put(self, key: str, payload: object, namespace: str) -> None:
        """Store a payload under its content key."""
        self._remember(self._memory_key(key, namespace), payload)
        if self.directory is not None:
            self._write_disk(key, payload, namespace)
        self._count(namespace, "writes")
        tracing.add(cache_writes=1)

    def clear(self) -> None:
        """Drop every in-memory entry (disk entries are left alone)."""
        self._memory.clear()
        _metrics.gauge("cache.memory_entries").set(0)


_CACHE: ResultCache | None = None


def result_cache() -> ResultCache:
    """The process-wide cache (disk layer from ``REPRO_CACHE_DIR`` if set)."""
    global _CACHE
    if _CACHE is None:
        _CACHE = ResultCache(directory=os.environ.get("REPRO_CACHE_DIR"))
    return _CACHE


def configure(
    directory: str | None = None,
    max_memory_entries: int = _DEFAULT_MEMORY_ENTRIES,
) -> ResultCache:
    """Replace the process-wide cache (e.g. for ``--cache-dir``)."""
    global _CACHE
    _CACHE = ResultCache(
        directory=directory, max_memory_entries=max_memory_entries
    )
    return _CACHE


def clear() -> None:
    """Drop the process-wide cache's in-memory entries."""
    if _CACHE is not None:
        _CACHE.clear()


@contextlib.contextmanager
def detached():
    """Run with a fresh memory-only process-wide cache, then reinstate the caller's.

    Nothing stored inside reaches the caller's memory or disk layers, and
    nothing the caller stored answers inside.
    """
    global _CACHE
    saved = result_cache()
    configure(directory=None)
    try:
        yield
    finally:
        _CACHE = saved
