"""In-memory span store for the benchmark's traced runs.

A :class:`SpanStore` is two things at once:

* a ``repro.obs`` collector (it implements ``span(name, attrs)`` and
  ``absorb(payload)``), so once installed with ``repro.obs.install`` the
  program's own spans (``decision``, ``sparse``, ``elimination``, ``wave``,
  ``vec.wave``, ``service.decide``, ...) land in it;
* the sink for spans the benchmark records itself, either around its own
  calls or through :func:`wrap_attr`, which replaces a module or class
  attribute with a span-recording wrapper for the traced run only.

Each span keeps a name, start, end, parent and request id; everything stays
in memory until the run ends, when :meth:`SpanStore.write_jsonl` writes it
out and :meth:`SpanStore.summary` folds it into per-layer aggregates.  A
span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Optional


class _Span:
    __slots__ = ("store", "name", "attrs", "start", "end", "parent", "rid", "child_s", "index")

    def __init__(self, store: "SpanStore", name: str, attrs: Optional[dict]) -> None:
        self.store = store
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.start = 0.0
        self.end = 0.0
        self.parent = -1
        self.rid = None
        self.child_s = 0.0
        self.index = -1

    @property
    def recording(self) -> bool:
        return True

    def set(self, **attrs: Any) -> "_Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        self.store._open(self)
        return self

    def __exit__(self, *exc: object) -> bool:
        self.store._close(self)
        return False


class SpanStore:
    """Collects closed spans as ``(name, start, end, parent, rid, self_s, attrs)``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.records: list[tuple] = []
        self._stack: list[_Span] = []
        self.rid = None
        """Request id stamped on every span opened while it is set."""

    # repro.obs collector protocol -------------------------------------
    def span(self, name: str, attrs: Optional[dict] = None) -> _Span:
        return _Span(self, name, attrs)

    def absorb(self, payload: dict) -> None:
        """Worker payloads only arrive from process pools, which the
        benchmark never enables; their spans are dropped, not guessed."""

    # lifecycle ----------------------------------------------------------
    def _open(self, node: _Span) -> None:
        node.parent = self._stack[-1].index if self._stack else -1
        node.index = len(self.records)
        self.records.append(None)  # placeholder keeps parents' indices stable
        node.rid = self.rid
        self._stack.append(node)
        node.start = self.clock()

    def _close(self, node: _Span) -> None:
        node.end = self.clock()
        while self._stack:
            top = self._stack.pop()
            if top is node:
                break
        duration = node.end - node.start
        if self._stack:
            self._stack[-1].child_s += duration
        self.records[node.index] = (
            node.name, node.start, node.end, node.parent, node.rid,
            max(0.0, duration - node.child_s), node.attrs,
        )

    def closed(self) -> list[tuple]:
        return [record for record in self.records if record is not None]

    def write_jsonl(self, path) -> None:
        """Append every closed span to ``path``, one JSON object a line."""
        with open(path, "a") as out:
            for name, start, end, parent, rid, self_s, attrs in self.closed():
                out.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent, "rid": rid,
                    "self_ms": self_s * 1000.0, **({"attrs": attrs} if attrs else {}),
                }, default=str) + "\n")

    def summary(self, key: Callable[[tuple], Optional[str]] = lambda r: r[0]) -> dict:
        """``{group: {"count", "total_ms", "self_ms"}}`` over closed spans,
        grouped by ``key(record)`` (the span name by default; ``None``
        skips a record)."""
        out: dict = defaultdict(lambda: {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        for record in self.closed():
            group = key(record)
            if group is None:
                continue
            entry = out[group]
            entry["count"] += 1
            entry["total_ms"] += (record[2] - record[1]) * 1000.0
            entry["self_ms"] += record[5] * 1000.0
        return dict(out)


def wrap_attr(store: SpanStore, owner: Any, attr: str, name: str, rid_arg: Optional[Callable] = None) -> Callable[[], None]:
    """Replace ``owner.attr`` by a wrapper recording span ``name`` around
    every call; returns a function that restores the original.

    ``rid_arg(args, kwargs)`` may return a request id to stamp on the span
    and on everything nested under it."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        previous = store.rid
        if rid_arg is not None:
            rid = rid_arg(args, kwargs)
            if rid is not None:
                store.rid = rid
        try:
            with store.span(name):
                return original(*args, **kwargs)
        finally:
            store.rid = previous

    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)
