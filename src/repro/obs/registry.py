"""Unified counter/gauge registry for the decision pipeline.

One process-wide :data:`REGISTRY` absorbs the previously ad-hoc stats
(memo hit/miss/eviction, transposition-table hits, CI-violation cache,
one-way worklist rounds, journal hits, ...) so every component reports
through a single API and every exporter reads from a single snapshot.

Hot-path discipline: inner loops keep their plain local integer counters
(e.g. :class:`repro.kernel.memo.BoundedMemo` attributes, the search loop's
``tt_hits``) and either

* register a *probe* — a zero-argument callable sampled lazily at
  snapshot time (:meth:`CounterRegistry.register_probe`), or
* *flush* their totals once per run via :meth:`CounterRegistry.inc`.

so the locked ``inc`` path only runs at low-frequency points.  Phase
aggregates (count + total wall-clock per span name) are fed by the
tracing collectors in :mod:`repro.obs.trace`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Dict, Mapping, Optional


class CounterRegistry:
    """Named monotonic counters, sampled probes, and per-phase aggregates."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._probes: Dict[str, Callable[[], Mapping[str, int]]] = {}
        self._phase_counts: Dict[str, int] = {}
        self._phase_ms: Dict[str, float] = {}

    # ------------------------------------------------------------- #
    # counters

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def inc_many(self, values: Mapping[str, int]) -> None:
        """Flush a batch of local totals in one lock acquisition."""
        with self._lock:
            for name, amount in values.items():
                if amount:
                    self._counters[name] = self._counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    # ------------------------------------------------------------- #
    # probes: lazily sampled stats owned by another object

    def register_probe(self, name: str, sample: Callable[[], Mapping[str, int]]) -> None:
        """Register ``sample`` to be called at snapshot time; its mapping is
        reported under ``{name}.{key}``.  Re-registering a name replaces the
        previous probe (process-cache resets recreate their memos)."""
        with self._lock:
            self._probes[name] = sample

    def register_object_probe(self, name: str, obj: object, sample_attr: str = "stats") -> None:
        """Probe that holds only a weak reference to ``obj`` so the registry
        never extends the lifetime of a decision-scoped structure."""
        ref = weakref.ref(obj)

        def sample() -> Mapping[str, int]:
            target = ref()
            if target is None:
                return {}
            return getattr(target, sample_attr)()

        self.register_probe(name, sample)

    def unregister_probe(self, name: str) -> None:
        with self._lock:
            self._probes.pop(name, None)

    # ------------------------------------------------------------- #
    # phase aggregates (fed by the tracing collectors)

    def observe_phase(self, name: str, dur_ms: float) -> None:
        with self._lock:
            self._phase_counts[name] = self._phase_counts.get(name, 0) + 1
            self._phase_ms[name] = self._phase_ms.get(name, 0.0) + dur_ms

    # ------------------------------------------------------------- #
    # snapshots

    def snapshot(self) -> dict:
        """One coherent view: flushed counters, sampled probes, phases.

        Probe samples are merged under ``{probe}.{key}``; a probe whose
        owner was garbage-collected (or that raises) contributes nothing.
        """
        with self._lock:
            counters = dict(self._counters)
            probes = list(self._probes.items())
            phases = {
                name: {"count": self._phase_counts[name], "total_ms": self._phase_ms[name]}
                for name in self._phase_counts
            }
        for prefix, sample in probes:
            try:
                values = sample()
            except Exception:
                continue
            for key, value in values.items():
                counters[f"{prefix}.{key}"] = value
        return {
            "counters": {name: counters[name] for name in sorted(counters)},
            "phases": {name: phases[name] for name in sorted(phases)},
        }

    def counters_snapshot(self) -> Dict[str, int]:
        return dict(self.snapshot()["counters"])

    def snapshot_prefixed(self, prefix: str) -> Dict[str, int]:
        """The flushed counters of one family (``audit.``, ``semcache.``,
        ``faults.``), without sampling probes — cheap enough for a stats
        response to call per request."""
        with self._lock:
            return {
                name: value
                for name, value in self._counters.items()
                if name.startswith(prefix)
            }

    def flushed_counters(self) -> Dict[str, int]:
        """Only the explicitly flushed counters, without sampling probes —
        the cheap view for before/after deltas around one operation."""
        with self._lock:
            return dict(self._counters)

    def reset(self) -> None:
        """Zero counters and phase aggregates (probes stay registered)."""
        with self._lock:
            self._counters.clear()
            self._phase_counts.clear()
            self._phase_ms.clear()


REGISTRY = CounterRegistry()


def counter_delta(before: Mapping[str, int], after: Mapping[str, int]) -> Dict[str, int]:
    """Per-name change between two counter snapshots, dropping zeros.

    Probe-backed entries can legitimately shrink (a memo owner was
    collected and re-created), so negative deltas are kept as-is rather
    than clamped — an explain report should show what actually happened.
    """
    delta: Dict[str, int] = {}
    for name in sorted(set(before) | set(after)):
        change = after.get(name, 0) - before.get(name, 0)
        if change:
            delta[name] = change
    return delta
