"""Bounded, thread-safe cross-decision memoization.

Workload benchmarks (E9, E15) and real query logs re-decide containment for
repeated (query, schema) pairs; the Section 6 pipeline re-derives the same
subproblems across recursion branches.  A :class:`BoundedMemo` is a plain
dict with FIFO eviction — deterministic, no clocks — sized so steady-state
memory stays bounded while repeated schemas keyed by
:meth:`NormalizedTBox.content_key` hit cache.

The containment service (``repro.service``) shares these memos across
scheduler threads, so get/put/clear are serialized by a per-memo lock, and
hit/miss/eviction counters are maintained under it for the service metrics
surface.  The lock is uncontended in single-threaded use; its overhead is
noise next to the decision procedures the memos guard.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Optional


class BoundedMemo:
    """A dict with FIFO eviction once ``max_entries`` is reached.

    Thread-safe: lookups, insertions, and clears hold an internal lock, so
    concurrent scheduler threads see consistent contents and counters.
    (Stored values are shared, not copied — callers must treat them as
    immutable, which every memo in this codebase already does.)
    """

    __slots__ = ("max_entries", "name", "_data", "_lock", "hits", "misses",
                 "evictions", "__weakref__")

    def __init__(self, max_entries: int = 4096, name: str = "") -> None:
        self.max_entries = max_entries
        self.name = name
        self._data: dict[Hashable, Any] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if name:
            # The registry holds only a weak reference, so naming a memo
            # never extends its lifetime.
            from repro.obs.registry import REGISTRY

            REGISTRY.register_object_probe(f"memo.{name}", self)

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key not in self._data and len(self._data) >= self.max_entries:
                self._data.pop(next(iter(self._data)))
                self.evictions += 1
            self._data[key] = value

    def stats(self) -> dict[str, int]:
        """A consistent snapshot of the hit/miss/eviction counters."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._data),
                "max_entries": self.max_entries,
            }

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
