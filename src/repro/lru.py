"""Bounded, thread-safe LRU that builds values on a miss.

The thermal model cache and the response-operator cache both hold
entries that are large (a sparse LU factorization, a dense operator),
so both need a real memory bound and visible hit/miss/eviction counts.
:class:`BoundedLRU` is that one mechanism; each user picks the metric
prefix its counters are exported under.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, NamedTuple

from .errors import ConfigurationError
from .obs import counter

__all__ = ["BoundedLRU", "CacheInfo"]


class CacheInfo(NamedTuple):
    """``functools.lru_cache``-style statistics."""

    hits: int
    misses: int
    evictions: int
    maxsize: int
    currsize: int


class BoundedLRU:
    """Bounded, thread-safe LRU keyed map.

    Every hit, miss and eviction is kept locally (:meth:`cache_info`)
    and exported through the metrics registry as ``<prefix>_hit`` /
    ``_miss`` / ``_eviction``. The factory of a miss runs under the
    lock, so concurrent misses on one key build it once.

    Args:
        capacity: maximum number of resident entries (>= 1).
        metric_prefix: name prefix of the exported counters.
    """

    def __init__(self, capacity: int, *, metric_prefix: str) -> None:
        self._check(capacity)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._capacity = capacity
        self._prefix = metric_prefix
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def _check(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"{type(self).__name__} capacity must be >= 1")

    @property
    def capacity(self) -> int:
        """Maximum number of resident entries."""
        return self._capacity

    def set_capacity(self, capacity: int) -> None:
        """Change the bound, evicting LRU entries if now over it."""
        self._check(capacity)
        with self._lock:
            self._capacity = capacity
            self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1
            counter(f"{self._prefix}_eviction").inc()

    def get_or_build(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the entry for ``key``, building it on a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                counter(f"{self._prefix}_hit").inc()
                return value
            self._misses += 1
            counter(f"{self._prefix}_miss").inc()
            value = factory()
            self._entries[key] = value
            self._evict_over_capacity()
            return value

    def cache_info(self) -> CacheInfo:
        """Hit/miss/eviction counts and occupancy."""
        with self._lock:
            return CacheInfo(hits=self._hits, misses=self._misses,
                             evictions=self._evictions,
                             maxsize=self._capacity,
                             currsize=len(self._entries))

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
