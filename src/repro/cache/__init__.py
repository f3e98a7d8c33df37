"""Content-addressed result cache (see USAGE.md §13).

Admission decisions are memoised under a canonical hash of their full
inputs plus a code-version salt, so identical recomputations — repeated
admission checks, fuzz rounds, restarted workers sharing a disk layer —
are answered from the cache with bit-identical payloads.  Hit/miss
counters surface as ``cache.*`` metrics in manifests.
"""

from repro.cache.keys import (
    CACHE_SCHEMA_VERSION,
    canonical_json,
    code_salt,
    content_key,
    set_signature,
)
from repro.cache.store import ResultCache, clear, configure, detached, result_cache

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "canonical_json",
    "clear",
    "code_salt",
    "configure",
    "content_key",
    "detached",
    "result_cache",
    "set_signature",
]
