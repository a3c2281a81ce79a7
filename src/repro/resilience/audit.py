"""Verdict integrity auditing: prove answers before (and after) serving them.

Every scale layer the service grew — persistent journal, semantic
inference, in-process memos, sharded gateway — is a new way to serve a
wrong verdict if a component is buggy or a disk corrupts a line.  This module is
the counterweight, three checks of increasing reach:

**Serve-time witness check** (:meth:`VerdictAuditor.check_false`).  A
``contained: false`` verdict carries its own proof: the countermodel.
Re-verifying it is *evaluation*, not search — the PR 2 compiled matchers
decide ``model ⊨ lhs``, ``model ⊭ rhs`` and the TBox decides
``model ⊨ T`` in microseconds.  The scheduler gates every False verdict
on this check once, when it enters the dedup memo (a fresh computation,
or the first read of a journal entry); a failure quarantines the record
and falls back to a fresh decision, so a corrupted or stale witness can
never reach a client.  Dedup hits are not re-checked: the decision key
covers both queries, the schema's content key, the method and every
budget; this check is a deterministic function of (verdict, lhs, rhs, T);
and the memo holds the audited verdict as frozen JSON text that cannot
change in place — so a re-check could only repeat its first answer.

**A/B re-decide** (:meth:`VerdictAuditor.ab_verdict`).  True verdicts
have no finite witness.  A deterministic 1-in-N sample of freshly computed
complete verdicts is re-decided with every cache bypassed and no deadline;
a mismatch is counted, and the reference re-decide is the answer served
and stored.  It runs the same decision procedure as the first answer, so
it catches a stale or corrupted cache entry, not a wrong procedure.

**Journal scrubber** (:class:`JournalScrubber`).  Walks the decision
and semantic journals the way a warm restart would — CRC + JSON + code
fingerprint at the file layer, witness structure at the record layer —
and quarantines anything that fails to ``quarantine.jsonl``, so latent
disk corruption is surfaced and evicted *before* a restart would have
trusted it.  Runs as one synchronous pass (``repro cache scrub``).

All outcomes land on the obs registry under the ``audit.*`` counter
family (plus ``semcache.quarantined`` for semantic-journal evictions).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.io import graph_from_dict
from repro.obs import REGISTRY
from repro.queries.evaluation import satisfies_union
from repro.queries.parser import parse_query


def model_satisfies_tbox(tbox, model) -> bool:
    """Does a *served* countermodel satisfy the schema?

    ``tbox`` is a schema as the service holds it: a :class:`~repro.dl.tbox.TBox`
    or the :class:`~repro.dl.normalize.NormalizedTBox` that ``normalize``
    returned for one.  Countermodels leave the decision pipeline with the
    normalization's fresh names stripped
    (:func:`repro.core.display.strip_internal_labels`), so a normalized
    TBox is checked through the schema as written, ``tbox.original``, by
    direct semantics.  Normalization is a conservative extension — ``G ⊨ T``
    iff ``complete(G) ⊨ normalize(T)`` (``TestConservativity`` in
    ``tests/dl/test_normalize.py``) — so this is the property the completed
    check decides, without copying the graph or evaluating the fresh
    names' definitions.  A normalized TBox without an original falls back
    to that completed check: ``complete()`` re-places the fresh names from
    their definitions before the normal-form clauses are evaluated."""
    original = getattr(tbox, "original", None)
    if original is not None:
        return original.satisfied_by(model)
    completer = getattr(tbox, "complete", None)
    if completer is not None:
        model = completer(model)
    return tbox.satisfied_by(model)


class AuditFailure(RuntimeError):
    """A verdict failed its integrity audit and no sound fallback was
    available.  Deliberately *not* an ``OSError`` subclass: the scheduler
    must not retry it as transient — the same bad witness would fail
    again."""


def verdict_shape_error(verdict: object) -> Optional[str]:
    """Structural well-formedness of a persisted verdict dict.

    Returns a reason string for the first violated invariant, or ``None``.
    Used by the scrubber on records whose queries are no longer around
    (the exact journal stores digests, not texts), so it checks only what
    the dict itself must satisfy:

    * ``contained``/``complete`` are booleans;
    * a countermodel, when present, decodes to a graph;
    * a ``contained: true`` verdict never carries a countermodel (the
      witness proves *non*-containment — its presence on a True verdict
      means the record was tampered with or torn).
    """
    if not isinstance(verdict, dict):
        return "not a dict"
    if not isinstance(verdict.get("contained"), bool):
        return "contained not a bool"
    if not isinstance(verdict.get("complete"), bool):
        return "complete not a bool"
    countermodel = verdict.get("countermodel")
    if countermodel is not None:
        if verdict["contained"]:
            return "countermodel on a True verdict"
        try:
            graph_from_dict(countermodel)
        except Exception:
            return "countermodel does not decode"
    return None


class VerdictAuditor:
    """Serve-time witness checks plus the sampled A/B re-decide."""

    def __init__(
        self,
        metrics=None,
        ab_sample_every: int = 64,
    ) -> None:
        self.metrics = metrics
        """Optional :class:`~repro.service.metrics.ServiceMetrics`-like
        sink (anything with ``count``); the obs registry is always fed."""
        self.ab_sample_every = ab_sample_every
        """Re-decide every Nth freshly computed complete verdict with every
        cache bypassed; ``0`` disables the re-decide."""
        self.seconds = 0.0
        """Cumulative wall time spent inside witness checks and A/B
        re-decides — the audit's direct cost, attributable without the
        noise of subtracting two whole-run timings (E25 gates on the
        ratio of this to total serve time)."""
        self._computed = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------- #
    # counters

    def _count(self, name: str) -> None:
        REGISTRY.inc(name)
        if self.metrics is not None:
            self.metrics.count(name.replace(".", "_"))

    # ------------------------------------------------------------- #
    # witness check

    def check_false(
        self,
        verdict: dict,
        lhs,
        rhs,
        tbox=None,
        source: str = "computed",
    ) -> bool:
        """True iff this verdict is safe to serve.

        True verdicts pass trivially (no finite witness to check — only
        the sampled A/B re-decide looks at them).  A False verdict must
        present a countermodel that the compiled matchers accept: a T-model
        that satisfies the left-hand side and avoids the right-hand side.
        """
        start = time.perf_counter()
        try:
            return self._check_false(verdict, lhs, rhs, tbox, source)
        finally:
            self.seconds += time.perf_counter() - start

    def _check_false(self, verdict, lhs, rhs, tbox, source) -> bool:
        if not isinstance(verdict, dict):
            self._fail(source, "malformed")
            return False
        if verdict.get("contained") is not False:
            return True
        countermodel = verdict.get("countermodel")
        if countermodel is None:
            # an incomplete "not contained within budget" answer carries no
            # witness; nothing to verify (and nothing a client could trust)
            self._count("audit.false.nowitness")
            return True
        try:
            model = graph_from_dict(countermodel)
        except Exception:
            self._fail(source, "decode")
            return False
        try:
            if not satisfies_union(model, lhs):
                self._fail(source, "lhs")
                return False
            if satisfies_union(model, rhs):
                self._fail(source, "rhs")
                return False
            if tbox is not None and not model_satisfies_tbox(tbox, model):
                self._fail(source, "tbox")
                return False
        except Exception:
            self._fail(source, "evaluation")
            return False
        self._count("audit.false.ok")
        return True

    def _fail(self, source: str, why: str) -> None:
        self._count("audit.false.fail")
        REGISTRY.inc_many(
            {
                f"audit.false.fail.source.{source}": 1,
                f"audit.false.fail.reason.{why}": 1,
            }
        )

    # ------------------------------------------------------------- #
    # A/B re-decide

    def should_ab_sample(self) -> bool:
        """Deterministic 1-in-N gate over freshly computed verdicts."""
        if self.ab_sample_every <= 0:
            return False
        with self._lock:
            self._computed += 1
            return self._computed % self.ab_sample_every == 0

    def ab_verdict(self, lhs, rhs, tbox, method: str, options) -> dict:
        """Re-decide with caches bypassed and no deadline; returns the
        re-decided verdict dict."""
        from dataclasses import replace

        from repro.core.containment import is_contained
        from repro.io import verdict_to_dict

        start = time.perf_counter()
        try:
            fresh = replace(options, deadline=None, use_cache=False)
            result = is_contained(lhs, rhs, tbox, method=method, options=fresh)
        finally:
            self.seconds += time.perf_counter() - start
        self._count("audit.ab.checked")
        return verdict_to_dict(result)


class JournalScrubber:
    """Walk the persisted journals re-verifying what a restart would load.

    Two layers per pass:

    * **file layer** (delegated to ``DecisionCache.scrub_files``): every
      line on disk must parse as JSON, carry a matching CRC32, and (for
      current-fingerprint lines) match the loaded index — torn, flipped,
      or tampered lines are quarantined and healed away by compaction;
    * **record layer**: every verdict the in-memory index would serve must
      be structurally sound (:func:`verdict_shape_error`), and every
      semantic premise must have a parseable lhs whose stored countermodel
      (if any) still satisfies it — the schema-free half of the lattice's
      own trust gate, run *before* any request hydrates the group.

    Failures are quarantined through the cache (so they also disappear
    from the journals), counted under ``audit.scrub.*``, and summarized in
    the report dict — the payload of ``repro cache scrub``.
    """

    def __init__(self, cache) -> None:
        self.cache = cache
        self.passes = 0

    def scrub_once(self) -> dict:
        files = self.cache.scrub_files()
        records = self._scrub_records()
        self.passes += 1
        REGISTRY.inc("audit.scrub.passes")
        report = {
            "files": files,
            "records": records,
            "quarantined_lines": self.cache.quarantine_count(),
            "passes": self.passes,
        }
        return report

    def _scrub_records(self) -> dict:
        checked = quarantined = 0
        for digest, verdict in self.cache.entries():
            checked += 1
            reason = verdict_shape_error(verdict)
            if reason is not None:
                self.cache.quarantine_digest(digest, f"scrub.{reason}")
                REGISTRY.inc("audit.scrub.record_quarantined")
                quarantined += 1
        sem_checked = sem_quarantined = 0
        for group in list(self.cache.semantic_groups()):
            for lhs_text, verdict in self.cache.semantic_entries(group):
                sem_checked += 1
                reason = self._semantic_record_error(lhs_text, verdict)
                if reason is not None:
                    self.cache.quarantine_semantic(group, lhs_text, f"scrub.{reason}")
                    REGISTRY.inc("audit.scrub.record_quarantined")
                    sem_quarantined += 1
        return {
            "decision_records": checked,
            "decision_quarantined": quarantined,
            "semantic_records": sem_checked,
            "semantic_quarantined": sem_quarantined,
        }

    @staticmethod
    def _semantic_record_error(lhs_text: str, verdict: dict) -> Optional[str]:
        reason = verdict_shape_error(verdict)
        if reason is not None:
            return reason
        try:
            lhs = parse_query(lhs_text)
        except Exception:
            return "lhs does not parse"
        countermodel = verdict.get("countermodel")
        if countermodel is not None and verdict.get("contained") is False:
            model = graph_from_dict(countermodel)
            try:
                if not satisfies_union(model, lhs):
                    return "countermodel does not satisfy lhs"
            except Exception:
                return "countermodel evaluation failed"
        return None
