"""Canonical content hashing for the result cache.

Key stability contract: a key depends only on the *values* of the payload
(dict insertion order is canonicalised away, floats round-trip through
``repr`` exactly), on :data:`CACHE_SCHEMA_VERSION`, and on the source
bytes of the modules whose results the cache stores — never on process
identity, ``PYTHONHASHSEED``, or filesystem state.  Two processes hashing
the same payload against the same checkout therefore produce the same
key, and any edit to analysis or admission semantics (or a deliberate
schema bump) invalidates every previously stored entry at once.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "canonical_json",
    "chain_fragment",
    "code_salt",
    "content_key",
    "set_signature",
]

#: Bump to invalidate every cached result without touching code the salt
#: already covers (e.g. when the *meaning* of a stored payload changes).
CACHE_SCHEMA_VERSION = 1

#: Modules whose source participates in the code-version salt: the ones
#: whose results the cache stores.  The admission service caches
#: ``(schedulable, tested_by)`` decisions the analysis modules compute, so
#: an edit to any analysis or admission semantics must orphan them.
_SALT_MODULES: tuple[str, ...] = (
    "repro.analysis.rm",
    "repro.analysis.pdp",
    "repro.analysis.ttp",
    "repro.analysis.ttrt",
    "repro.analysis.boundary",
    "repro.analysis.bounds",
    "repro.admission",
)

#: Salt memo keyed by schema version, so tests that bump the version see a
#: recomputed salt while normal runs hash the module sources exactly once.
_SALT_BY_VERSION: dict[int, str] = {}


def _unserialisable(value: object):
    # Numpy scalars/arrays coerce to their exact native equivalents rather
    # than failing: a payload built from array columns must hash
    # identically to the same payload built from Python floats.
    # (``np.float64`` never reaches here — it subclasses ``float`` and
    # ``json`` serialises it natively, with the same ``repr`` exactness.)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise ConfigurationError(
        f"cache key payloads must be JSON-representable, got {type(value).__name__}"
    )


def canonical_json(payload: object) -> str:
    """The payload as order-independent, float-exact JSON text."""
    return json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,  # an inf or nan input hashes like any other float
        default=_unserialisable,
    )


def _module_source(name: str) -> bytes:
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, ValueError):
        return b"<unresolvable>"
    if spec is None or not spec.origin or not os.path.exists(spec.origin):
        return b"<missing>"
    with open(spec.origin, "rb") as handle:
        return handle.read()


def code_salt() -> str:
    """Digest of the schema version plus the salt modules' source bytes.

    Computed lazily (never at import time: resolving module specs imports
    parent packages, which would cycle during package init) and memoised
    per schema version.
    """
    version = CACHE_SCHEMA_VERSION
    salt = _SALT_BY_VERSION.get(version)
    if salt is None:
        digest = hashlib.sha256()
        digest.update(f"schema={version}".encode("ascii"))
        for name in _SALT_MODULES:
            digest.update(name.encode("ascii"))
            digest.update(b"\x00")
            digest.update(_module_source(name))
            digest.update(b"\x00")
        salt = digest.hexdigest()
        _SALT_BY_VERSION[version] = salt
    return salt


def content_key(payload: object) -> str:
    """SHA-256 over (code salt, canonical payload JSON) as a hex string."""
    digest = hashlib.sha256()
    digest.update(code_salt().encode("ascii"))
    digest.update(b"\x00")
    digest.update(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


def set_signature(
    pairs: "Iterable[Sequence[float]]",
) -> list[list[float]]:
    """Canonical signature of a ``(period, payload)`` multiset.

    Both schedulability criteria depend only on the multiset of
    ``(period, payload)`` pairs — never on construction order or station
    placement — so permutation-equivalent message sets must share cache
    entries.  The signature is the sorted list of pairs, floats kept
    exact (``canonical_json`` round-trips them through ``repr``).
    """
    return sorted([float(period), float(payload)] for period, payload in pairs)


def prefix_chain_seed(seed_payload: object):
    """The running digest every prefix key chain starts from.

    Covers the code salt and the caller's seed payload exactly like
    :func:`content_key`, so chained keys share the same invalidation
    behaviour.  The returned object is a ``hashlib`` digest; callers may
    ``.copy()`` it to branch a chain cheaply (the admission controller
    seeds one chain per controller, folds in its population's sorted
    fragments once per change and extends a copy per candidate).
    """
    digest = hashlib.sha256()
    digest.update(code_salt().encode("ascii"))
    digest.update(b"\x00")
    digest.update(canonical_json(seed_payload).encode("utf-8"))
    return digest


def chain_fragment(period: float, payload: float) -> bytes:
    """The bytes one ``(period, payload)`` pair adds to a key chain.

    Floats go through ``repr`` (the same exactness contract as
    :func:`canonical_json`), behind a record separator and split by a
    field separator, so a concatenation of fragments parses back into
    its pairs and no two multisets' sorted concatenations alias.
    """
    return f"\x00{float(period)!r}\x1f{float(payload)!r}".encode("ascii")


def prefix_chain_extend(digest, period: float, payload: float) -> str:
    """Fold one ``(period, payload)`` pair into a chain; the prefix's key.

    Mutates ``digest`` in place by the pair's :func:`chain_fragment` and
    returns the content key of the multiset consumed so far.
    """
    digest.update(chain_fragment(period, payload))
    return digest.hexdigest()
