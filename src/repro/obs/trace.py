"""Hierarchical spans behind a near-zero-cost disabled path.

One module-level *collector* slot gates everything: :func:`span` returns a
shared no-op singleton while no collector is installed, so an instrumented
call site costs one global read plus one function call when observability
is off (measured by ``benchmarks/bench_obs_overhead.py`` — E19).  Two
collectors ship:

* :class:`Tracer` — builds the full span tree (per-decision explain
  reports, Chrome ``trace_event`` export, JSONL event logs);
* :class:`PhaseAggregator` — keeps only per-phase ``(count, total_ms)``
  aggregates in the counter registry, bounded memory for long-running
  services.

Determinism contract: span *content* (names, attributes, child order,
sequence numbers) is a function of the computation alone — timestamps live
exclusively in the dedicated ``start_ms``/``dur_ms`` fields, never inside
names or attributes — so traced runs stay bit-identical in verdicts and
countermodels, and two traces of the same decision differ only in their
timing fields.

Collectors are installed per process and are not thread-safe; install one
per thread-of-control (the decision procedures are single-threaded, and
the service's scheduler drains sequentially).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs.registry import REGISTRY, CounterRegistry


class _NullSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    @property
    def recording(self) -> bool:
        return False


NULL_SPAN = _NullSpan()

_COLLECTOR: Optional[object] = None


def span(name: str, **attrs: Any):
    """Open a span under the installed collector (or a no-op when none).

    Use as a context manager::

        with span("reduction", seeds=3) as sp:
            ...
            sp.set(outcome="found")
    """
    collector = _COLLECTOR
    if collector is None:
        return NULL_SPAN
    return collector.span(name, attrs)


def install(collector: object) -> object:
    """Install ``collector`` as the process-wide span sink; returns it."""
    global _COLLECTOR
    _COLLECTOR = collector
    return collector


def uninstall() -> None:
    global _COLLECTOR
    _COLLECTOR = None


def active_collector() -> Optional[object]:
    return _COLLECTOR


def enabled() -> bool:
    return _COLLECTOR is not None


@contextmanager
def tracing(trace_id: str = "", registry: Optional[CounterRegistry] = None) -> Iterator["Tracer"]:
    """Install a fresh :class:`Tracer` for the block, restoring the
    previously installed collector (if any) afterwards."""
    global _COLLECTOR
    tracer = Tracer(trace_id=trace_id, registry=registry)
    previous = _COLLECTOR
    _COLLECTOR = tracer
    try:
        yield tracer
    finally:
        _COLLECTOR = previous


class Span:
    """One recorded span: a named, attributed, timed tree node.

    ``seq`` is the deterministic open-order index within the owning tracer;
    ``start_ms``/``dur_ms`` are wall-clock fields relative to the tracer's
    origin and are the *only* nondeterministic content.
    """

    __slots__ = ("name", "attrs", "seq", "children", "start_ms", "dur_ms", "status", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = dict(attrs)
        self.seq = -1
        self.children: list[Span] = []
        self.start_ms = 0.0
        self.dur_ms = 0.0
        self.status = "open"

    # ------------------------------------------------------------- #

    @property
    def recording(self) -> bool:
        return True

    @property
    def own_ms(self) -> float:
        """Wall time not covered by child spans."""
        return max(0.0, self.dur_ms - sum(child.dur_ms for child in self.children))

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    # ------------------------------------------------------------- #
    # context manager protocol (exception-safe: a raising body still
    # closes the span and records its duration and error status)

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        else:
            self.status = "ok"
        self._tracer._close(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, seq={self.seq}, children={len(self.children)})"


class Tracer:
    """Collects a forest of spans with deterministic sequence numbers."""

    def __init__(
        self,
        trace_id: str = "",
        registry: Optional[CounterRegistry] = None,
        clock=time.perf_counter,
    ) -> None:
        self.trace_id = trace_id
        self.registry = registry if registry is not None else REGISTRY
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._clock = clock
        self._t0 = clock()
        self._seq = 0

    # ------------------------------------------------------------- #
    # collector protocol

    def span(self, name: str, attrs: dict) -> Span:
        return Span(self, name, attrs)

    # ------------------------------------------------------------- #

    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def span_count(self) -> int:
        return self._seq

    def walk(self) -> Iterator[tuple[Span, int]]:
        """Every recorded span with its depth, in open (seq) order."""

        def visit(node: Span, depth: int) -> Iterator[tuple[Span, int]]:
            yield node, depth
            for child in node.children:
                yield from visit(child, depth + 1)

        for root in self.roots:
            yield from visit(root, 0)

    # ------------------------------------------------------------- #
    # span lifecycle (called by Span.__enter__/__exit__)

    def _open(self, node: Span) -> None:
        node.seq = self._seq
        self._seq += 1
        node.start_ms = (self._clock() - self._t0) * 1000.0
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)

    def _close(self, node: Span) -> None:
        node.dur_ms = (self._clock() - self._t0) * 1000.0 - node.start_ms
        # exception safety: unwind past spans whose __exit__ was skipped by
        # a non-local exit (they stay recorded with the time observed here)
        while self._stack:
            top = self._stack.pop()
            if top is node:
                break
            if top.status == "open":
                top.status = "error"
                top.dur_ms = (self._clock() - self._t0) * 1000.0 - top.start_ms
        self.registry.observe_phase(node.name, node.dur_ms)


class _PhaseSpan:
    """A weightless span that only feeds the phase aggregates."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: CounterRegistry, name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    @property
    def recording(self) -> bool:
        return False

    def set(self, **attrs: Any) -> "_PhaseSpan":
        return self

    def __enter__(self) -> "_PhaseSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._registry.observe_phase(
            self._name, (time.perf_counter() - self._start) * 1000.0
        )
        return False


class PhaseAggregator:
    """A bounded-memory collector: per-phase (count, total wall) only.

    The containment service installs one for the lifetime of a serve loop so
    ``stats`` responses report per-phase aggregates without accumulating an
    unbounded span tree.
    """

    def __init__(self, registry: Optional[CounterRegistry] = None) -> None:
        self.registry = registry if registry is not None else REGISTRY

    def span(self, name: str, attrs: dict) -> _PhaseSpan:
        return _PhaseSpan(self.registry, name)
