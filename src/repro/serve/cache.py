"""Bounded TTL result cache for served experiment outcomes.

Keyed by the SHA-256 config hash (:func:`~repro.serve.request.
spec_hash`) and layered *above* the thermal layer's
:class:`~repro.thermal.response.ResponseCache`: that cache saves the
response operator of a geometry, this one saves the finished
:class:`~repro.serve.runner.SpecOutcome`, so a repeated what-if query
costs a dict lookup instead of even a matvec.

Every hit, miss, eviction, and TTL expiry is counted in the metrics
registry (``serve.cache_*``) and kept locally for
:meth:`ResultCache.stats`, which the broker folds into its shutdown
manifest.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable

from ..errors import ConfigurationError
from ..obs import counter

__all__ = ["ResultCache"]


class ResultCache:
    """Thread-safe LRU with optional per-entry time-to-live.

    Args:
        capacity: maximum resident entries (>= 1).
        ttl_s: seconds an entry stays servable (None = no expiry).
            Expired entries are dropped lazily on access and count as
            misses — an expired answer is recomputed, not served.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, capacity: int = 256,
                 ttl_s: float | None = None, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if capacity < 1:
            raise ConfigurationError(
                "result cache capacity must be >= 1")
        if ttl_s is not None and ttl_s <= 0:
            raise ConfigurationError(
                "result cache ttl_s must be > 0 or None")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, tuple[Any, float | None]]" = \
            OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    def get(self, key: str) -> Any | None:
        """The live entry for ``key``, or None (miss or expired)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                value, expires_at = entry
                if expires_at is not None and self._clock() >= expires_at:
                    del self._entries[key]
                    self._expirations += 1
                    counter("serve.cache_expired").inc()
                else:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    counter("serve.cache_hit").inc()
                    return value
            self._misses += 1
            counter("serve.cache_miss").inc()
            return None

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries over the
        bound."""
        with self._lock:
            expires_at = (self._clock() + self.ttl_s
                          if self.ttl_s is not None else None)
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, expires_at)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
                counter("serve.cache_eviction").inc()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are lifetime
        totals)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, Any]:
        """Lifetime counters plus current occupancy."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "ttl_s": self.ttl_s,
                "size": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "expirations": self._expirations,
            }
