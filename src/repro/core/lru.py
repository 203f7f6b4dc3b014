"""A bounded, counted, thread-safe least-recently-used cache.

The process-wide compiled-artifact caches (optimized plans in
:mod:`repro.logic.optimize`, generated columnar code in
:mod:`repro.logic.codegen`) are shared by every thread that evaluates a
query, so each must stay bounded without forgetting its whole working
set at once: past its limit the cache drops only the entry touched
longest ago.  The hit / miss / eviction counters are lifetime totals
(:meth:`LRUCache.clear` drops entries, not counts).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

__all__ = ["LRUCache"]


class LRUCache:
    """At most ``limit`` entries; ``None`` is never a stored value (a
    :meth:`get` returning ``None`` is a miss)."""

    def __init__(self, limit: int):
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()
        # One lock covers every read-modify-write of the order and the
        # counters; computing a missing value happens outside it, so a
        # race between two threads costs a duplicate computation at worst.
        self._lock = threading.Lock()

    def get(self, key: Hashable):
        """The cached value (now the most recently used), else ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Store ``value`` as the most recently used entry, evicting the
        least recently used ones past the limit."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
