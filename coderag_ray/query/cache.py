"""Search-result LRU cache with TTL — ST5 proper
(``/root/reference/packages/core/src/search-cache.ts:24-132``).

Same contract as the reference: bounded LRU (default 100 entries),
5-minute TTL, TTL refresh on access, hit/miss stats, explicit
``invalidate()`` on index rebuild, ``cleanup()`` sweep.  The clock is
injectable so TTL tests don't sleep.

:class:`CachedSearcher` wires it in front of :func:`search`: the cache
key is the reference's ``createCacheKey`` pipe-join
(``search-cache.ts:139-155``), and a manifest mtime change (a new build
landed) reopens the reader and invalidates everything — the
static-snapshot analog of the reference's "call invalidate() when the
index is updated".
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    size: int
    max_size: int
    hits: int
    misses: int
    hit_rate: float


class LRUCache:
    """LRU + TTL, semantics of ``search-cache.ts:24-132``."""

    def __init__(self, max_size: int = 100, ttl_minutes: float = 5.0,
                 clock=time.monotonic):
        self._cache: OrderedDict[str, tuple[object, float, int]] = OrderedDict()
        self.max_size = max_size
        self.ttl = ttl_minutes * 60.0
        self._clock = clock
        self._hits = 0
        self._misses = 0

    def get(self, key: str):
        entry = self._cache.get(key)
        if entry is None:
            self._misses += 1
            return None
        value, ts, hits = entry
        now = self._clock()
        if now - ts > self.ttl:
            del self._cache[key]
            self._misses += 1
            return None
        # refresh TTL + move to MRU position, like the reference
        del self._cache[key]
        self._cache[key] = (value, now, hits + 1)
        self._hits += 1
        return value

    def set(self, key: str, value) -> None:
        if key in self._cache:
            del self._cache[key]
        if len(self._cache) >= self.max_size:
            self._cache.popitem(last=False)  # evict LRU
        self._cache[key] = (value, self._clock(), 0)

    def clear(self) -> None:
        self._cache.clear()
        self._hits = 0
        self._misses = 0

    def invalidate(self) -> None:
        """Call when the index is updated."""
        self.clear()

    def cleanup(self) -> None:
        now = self._clock()
        for key in [k for k, (_, ts, _) in self._cache.items()
                    if now - ts > self.ttl]:
            del self._cache[key]

    def stats(self) -> CacheStats:
        total = self._hits + self._misses
        return CacheStats(
            size=len(self._cache),
            max_size=self.max_size,
            hits=self._hits,
            misses=self._misses,
            hit_rate=(self._hits / total) if total else 0.0,
        )


def create_cache_key(query: str, *, limit: int | None = None,
                     file_extensions: list[str] | None = None,
                     path_filter: str | None = None,
                     exclude_paths: list[str] | None = None,
                     extra: dict | None = None) -> str:
    """``createCacheKey`` (``search-cache.ts:139-155``): lowercased
    trimmed query | limit (default 10) | sorted extensions | path filter
    | sorted excludes, pipe-joined.  ``extra`` canonically serializes any
    engine-side options beyond the reference's key (mode, min_score, ...)
    so e.g. a cosine query never returns a cached bm25 result for the
    same text."""
    parts = [
        query.lower().strip(),
        str(limit) if limit is not None else "10",
        ",".join(sorted(file_extensions)) if file_extensions else "",
        path_filter or "",
        ",".join(sorted(exclude_paths)) if exclude_paths else "",
    ]
    if extra:
        parts.append(",".join(f"{k}={extra[k]!r}" for k in sorted(extra)))
    return "|".join(parts)


# search() kwarg defaults — kwargs equal to these are dropped from the
# cache key so `search(q)` and `search(q, mode="bm25")` share one entry
_SEARCH_KWARG_DEFAULTS = {
    "mode": "bm25", "min_score": 0.0, "with_doc_columns": True,
}


class CachedSearcher:
    """Query-server front: search with result caching + rebuild
    invalidation.  A new build reopens the reader (same index dir and
    shard) and drops every cached result."""

    def __init__(self, reader, max_size: int = 100, ttl_minutes: float = 5.0,
                 clock=time.monotonic):
        from coderag_ray.index.manifest import MANIFEST_NAME

        self.reader = reader
        self.cache = LRUCache(max_size, ttl_minutes, clock)
        self._manifest = os.path.join(reader.index_dir, MANIFEST_NAME)
        self._mtime = self._manifest_mtime()

    def _manifest_mtime(self) -> float | None:
        try:
            return os.path.getmtime(self._manifest)
        except OSError:
            return None

    def search(self, query: str, k: int = 10, *, filters=None, **kwargs):
        from coderag_ray.index.reader import IndexReader
        from coderag_ray.query.search import search

        mtime = self._manifest_mtime()
        if mtime != self._mtime:  # a new build landed → reader and results are stale
            self.reader = IndexReader(self.reader.index_dir, self.reader.shard)
            self.cache.invalidate()
            self._mtime = mtime
        extra = {k_: v for k_, v in kwargs.items()
                 if _SEARCH_KWARG_DEFAULTS.get(k_, object()) != v}
        key = create_cache_key(
            query, limit=k,
            file_extensions=getattr(filters, "file_extensions", None),
            path_filter=getattr(filters, "path_filter", None),
            exclude_paths=getattr(filters, "exclude_paths", None),
            extra=extra,
        )
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        res = search(self.reader, query, k, filters=filters, **kwargs)
        self.cache.set(key, res)
        return res
