"""Per-session service counters and latency percentiles.

One :class:`ServiceMetrics` instance lives for the lifetime of a server (or
one ``repro batch`` run) and is shared by the scheduler, the session
manager, and the persistent cache.  Everything is counter-or-list state
guarded by one lock — cheap enough to update on every request, rich enough
to answer the ``stats`` wire request and the ``--metrics-json`` shutdown
dump:

* request traffic: received / decided / errored, per request type;
* amortization: persistent-cache hits, in-batch dedup collapses, schema
  sessions created vs. reused (= normalization/memo reuse);
* queue health: current and high-water queue depth;
* latency: per-request wall-clock percentiles (p50/p90/p95/p99/max).

The multi-tenant gateway adds three labeled families on top of the flat
counters (all optional — the sequential server never touches them):

* **per-tenant counters** (:meth:`ServiceMetrics.tenant_count`) —
  admitted / rejected / dequeued / completed traffic per tenant, the
  raw material for the fairness assertions in E23;
* **per-shard counters** (:meth:`ServiceMetrics.shard_count`) —
  dispatch / completion / respawn traffic per worker shard;
* **named gauges** (:meth:`ServiceMetrics.gauge_set`) with high-water
  tracking — in-flight decisions, per-tenant queue depths;
* **latency split by admission outcome**
  (``observe_latency_ms(..., outcome=...)``) — an ``overloaded``
  rejection answered in microseconds must not drag down (or hide) the
  percentiles of admitted work, so each outcome keeps its own sample
  list and the snapshot reports them side by side.

Percentiles use the nearest-rank method on the recorded sample list —
deterministic and exact for the modest request counts a session sees; the
sample lists are capped to keep a very long-lived server bounded.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Optional

_MAX_LATENCY_SAMPLES = 65536

_PERCENTILE_FRACTIONS = (("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99))


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (not necessarily sorted).

    Edge cases are pinned down by direct unit tests: an empty sample list
    yields 0.0 (a metrics placeholder, not a statistic), a single sample is
    every percentile of itself, ``fraction=0.0`` yields the minimum (rank
    clamps to 1), and ``fraction=1.0`` the maximum.  Fractions outside
    [0, 1] are rejected rather than silently clamped.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def latency_summary(samples: list[float]) -> dict:
    """The standard percentile block for one latency sample list."""
    summary = {"count": len(samples)}
    for name, fraction in _PERCENTILE_FRACTIONS:
        summary[name] = round(percentile(samples, fraction), 3)
    summary["max"] = round(max(samples), 3) if samples else 0.0
    return summary


class ServiceMetrics:
    """Thread-safe counters + latency samples for one service lifetime."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._latencies_ms: list[float] = []
        self._latencies_by_outcome: dict[str, list[float]] = {}
        self._tenant_counters: dict[str, dict[str, int]] = {}
        self._shard_counters: dict[str, dict[str, int]] = {}
        self._gauges: dict[str, float] = {}
        self._gauge_high_water: dict[str, float] = {}
        self._queue_depth = 0
        self._queue_high_water = 0

    # ------------------------------------------------------------- #
    # updates

    def count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def tenant_count(self, tenant: str, name: str, delta: int = 1) -> None:
        """Bump a per-tenant counter (gateway traffic accounting)."""
        with self._lock:
            bucket = self._tenant_counters.setdefault(tenant, {})
            bucket[name] = bucket.get(name, 0) + delta

    def shard_count(self, shard: str, name: str, delta: int = 1) -> None:
        """Bump a per-shard counter (gateway fleet accounting)."""
        with self._lock:
            bucket = self._shard_counters.setdefault(str(shard), {})
            bucket[name] = bucket.get(name, 0) + delta

    def observe_latency_ms(
        self, elapsed_ms: float, outcome: Optional[str] = None
    ) -> None:
        """Record one request latency, optionally tagged with an admission
        outcome (``admitted`` / ``rejected`` / ...).  The overall list is
        always fed so the legacy ``latency_ms`` block stays complete."""
        with self._lock:
            if len(self._latencies_ms) < _MAX_LATENCY_SAMPLES:
                self._latencies_ms.append(elapsed_ms)
            if outcome is not None:
                samples = self._latencies_by_outcome.setdefault(outcome, [])
                if len(samples) < _MAX_LATENCY_SAMPLES:
                    samples.append(elapsed_ms)

    def gauge_set(self, name: str, value: float) -> None:
        """Set a named gauge; its high-water mark is tracked alongside."""
        with self._lock:
            self._gauges[name] = value
            previous = self._gauge_high_water.get(name)
            if previous is None or value > previous:
                self._gauge_high_water[name] = value

    def gauge_add(self, name: str, delta: float) -> float:
        """Adjust a named gauge by ``delta``; returns the new value."""
        with self._lock:
            value = self._gauges.get(name, 0) + delta
            self._gauges[name] = value
            previous = self._gauge_high_water.get(name)
            if previous is None or value > previous:
                self._gauge_high_water[name] = value
            return value

    def queue_changed(self, depth: int) -> None:
        with self._lock:
            self._queue_depth = depth
            self._queue_high_water = max(self._queue_high_water, depth)

    # ------------------------------------------------------------- #
    # reads

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def tenant_counter(self, tenant: str, name: str) -> int:
        with self._lock:
            return self._tenant_counters.get(tenant, {}).get(name, 0)

    def shard_counter(self, shard: str, name: str) -> int:
        with self._lock:
            return self._shard_counters.get(str(shard), {}).get(name, 0)

    def gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0)

    def gauge_high_water(self, name: str) -> float:
        with self._lock:
            return self._gauge_high_water.get(name, 0)

    def snapshot(self) -> dict:
        """A JSON-able view: counters, queue gauges, latency percentiles,
        plus the process-wide memo counters the service relies on and the
        ``repro.obs`` registry (unified pipeline counters + per-phase
        wall-clock aggregates).  Labeled families (tenants, shards, named
        gauges, per-outcome latency) appear only once fed, so sequential
        snapshots keep their historical shape."""
        from repro.core.containment import decision_memo_stats
        from repro.obs import REGISTRY
        from repro.queries.compiled import compile_cache_stats
        from repro.queries.factorization import factorization_cache_stats

        with self._lock:
            counters = dict(sorted(self._counters.items()))
            samples = list(self._latencies_ms)
            by_outcome = {
                outcome: list(s)
                for outcome, s in sorted(self._latencies_by_outcome.items())
            }
            tenants = {
                tenant: dict(sorted(bucket.items()))
                for tenant, bucket in sorted(self._tenant_counters.items())
            }
            shards = {
                shard: dict(sorted(bucket.items()))
                for shard, bucket in sorted(self._shard_counters.items())
            }
            gauges = {
                name: {
                    "value": self._gauges[name],
                    "high_water": self._gauge_high_water.get(name, self._gauges[name]),
                }
                for name in sorted(self._gauges)
            }
            queue = {
                "depth": self._queue_depth,
                "high_water": self._queue_high_water,
            }
        payload = {
            "counters": counters,
            "queue": queue,
            "latency_ms": {
                "count": len(samples),
                "p50": round(percentile(samples, 0.50), 3),
                "p90": round(percentile(samples, 0.90), 3),
                "p99": round(percentile(samples, 0.99), 3),
                "max": round(max(samples), 3) if samples else 0.0,
            },
            "memos": {
                "decision": decision_memo_stats(),
                "compile": compile_cache_stats(),
                "factorization": factorization_cache_stats(),
            },
            "obs": REGISTRY.snapshot(),
        }
        if by_outcome:
            payload["latency_ms_by_outcome"] = {
                outcome: latency_summary(s) for outcome, s in by_outcome.items()
            }
        if tenants:
            payload["tenants"] = tenants
        if shards:
            payload["shards"] = shards
        if gauges:
            payload["gauges"] = gauges
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
