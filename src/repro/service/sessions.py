"""Schema sessions: one normalized schema per distinct wire schema.

:func:`repro.dl.normalize.normalize` caches its result on the ``TBox``
object it is given, so a library caller that reuses one schema object
normalizes it once.  A wire request carries the schema as JSON, and each
decoded payload is a new ``TBox``; a *schema session* maps the payload to
the :class:`~repro.dl.normalize.NormalizedTBox` normalized when the schema
was first seen and keeps it alive for the server's lifetime, so every later
request against the same schema starts from the same object, with the
caches it carries (content key, the chase's compiled rules) already built.

Sessions are keyed by the schema's *raw* CI text (cheap to compute from a
wire payload), not by ``content_key`` (which requires normalizing first).
Two textually different schemas that normalize to the same ``content_key``
simply converge on the same downstream memo entries.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Optional, Union

from repro.dl.normalize import NormalizedTBox, normalize
from repro.dl.tbox import TBox
from repro.io import tbox_from_dict
from repro.service.metrics import ServiceMetrics


@dataclass
class SchemaSession:
    """One normalized schema plus reuse counters."""

    key: tuple
    tbox: NormalizedTBox
    name: str = ""
    decisions: int = 0
    """Decide requests dispatched under this session (reuse = decisions - 1)."""
    semantic: Optional[object] = None
    """The session's containment lattice
    (:class:`repro.cache.semantic.SemanticLattice`), built lazily by
    :meth:`semantic_lattice` the first time the scheduler consults it."""

    def semantic_lattice(self):
        """The per-session semantic lattice, created on first use."""
        if self.semantic is None:
            from repro.cache.semantic import SemanticLattice

            self.semantic = SemanticLattice()
        return self.semantic

    @property
    def content_key(self) -> tuple:
        return self.tbox.content_key()


def schema_session_key(tbox: TBox) -> tuple:
    """A cheap, normalization-free identity for a raw schema."""
    return tuple(sorted(str(ci) for ci in tbox))


class SessionManager:
    """The server's session table: raw schema key → :class:`SchemaSession`.

    Also holds the ``schema_ref`` registry populated by ``schema`` wire
    requests, so a batch can upload a TBox once and reference it by name.
    """

    def __init__(self, metrics: Optional[ServiceMetrics] = None) -> None:
        self._lock = threading.Lock()
        self._sessions: dict[tuple, SchemaSession] = {}
        self._refs: dict[str, SchemaSession] = {}
        self.metrics = metrics if metrics is not None else ServiceMetrics()

    def __len__(self) -> int:
        return len(self._sessions)

    def register(self, ref: str, tbox_data: dict) -> SchemaSession:
        """Register a wire schema under ``ref`` (idempotent per content)."""
        session = self.session_for(tbox_from_dict(tbox_data))
        with self._lock:
            self._refs[ref] = session
        return session

    def by_ref(self, ref: str) -> Optional[SchemaSession]:
        with self._lock:
            return self._refs.get(ref)

    def session_for(
        self, tbox: Union[None, dict, TBox, NormalizedTBox]
    ) -> Optional[SchemaSession]:
        """The (possibly new) session for a schema; ``None`` for schema-less
        decisions.  New sessions are normalized on creation."""
        if tbox is None:
            return None
        if isinstance(tbox, dict):
            tbox = tbox_from_dict(tbox)
        if isinstance(tbox, NormalizedTBox):
            # already normalized by the caller: key by content, skip the
            # normalization this manager would otherwise amortize
            key = ("normalized", tbox.content_key())
            raw_name = ""
            normalized = tbox
        else:
            key = schema_session_key(tbox)
            raw_name = tbox.name
            normalized = None
        with self._lock:
            session = self._sessions.get(key)
        if session is not None:
            self.metrics.count("sessions_reused")
            return session
        if normalized is None:
            normalized = normalize(tbox)
        session = SchemaSession(key=key, tbox=normalized, name=raw_name)
        with self._lock:
            existing = self._sessions.get(key)
            if existing is not None:
                return existing
            self._sessions[key] = session
        self.metrics.count("sessions_created")
        return session

    def snapshot(self) -> list[dict]:
        """Per-session counters for the metrics surface."""
        with self._lock:
            sessions = list(self._sessions.values())
        return [
            {
                "name": s.name,
                "decisions": s.decisions,
                "concepts": len(s.tbox.concept_names()),
                "fragment": s.tbox.fragment(),
            }
            for s in sessions
        ]

    def semantic_snapshot(self) -> list[dict]:
        """Per-session semantic-lattice stats (sessions with a live
        lattice only)."""
        with self._lock:
            sessions = list(self._sessions.values())
        return [
            {"name": s.name, **s.semantic.stats()}
            for s in sessions
            if s.semantic is not None
        ]


def reset_process_caches() -> None:
    """Drop every process-wide memo the service warms.

    This is the programmatic equivalent of a cold CLI start: the decision
    memo, the parsed-query table, Tp cache, factorization cache,
    compiled-matcher caches, and the bitset compilation cache are all
    cleared, and so is the vec table cache when a fixpoint has loaded
    :mod:`repro.kernel.vec` (clearing it never imports it, so a process that
    only decides stays free of numpy).  A normalized schema lives on the
    caller's ``TBox`` object, not in a process table, so it is not cleared:
    a caller that wants a cold normalization passes a new ``TBox``.
    Benchmarks use it to measure cold-vs-warm honestly; servers never call
    it.
    """
    from repro.core import containment, reduction
    from repro.kernel import bitset
    from repro.queries import compiled, factorization, parser

    containment._DECISION_MEMO.clear()
    parser._PARSED.clear()
    reduction._TP_MEMO.clear()
    factorization._FACTORIZATION_MEMO.clear()
    compiled._AUTOMATON_MEMO.clear()
    compiled._DISJUNCT_MEMO.clear()
    compiled._QUERY_MEMO.clear()
    compiled._FINGERPRINT_MEMO.clear()
    bitset._COMPILED_CACHE.clear()
    vec = sys.modules.get("repro.kernel.vec")
    if vec is not None:
        vec._TABLE_CACHE.clear()
