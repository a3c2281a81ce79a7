"""Decision scheduling: dedup, priority order, cache consult, dispatch.

The scheduler buffers ``decide`` requests and drains them in *(priority,
arrival)* order — smaller priority first, FIFO within a level.  Each unique
decision identity (:func:`repro.core.containment.decision_key`) is resolved
exactly once per server lifetime:

1. **dedup** — an identical earlier request already produced the verdict
   (collapsed, zero work);
2. **cache** — the persistent journal has it from a previous process
   (deserialized, no search runs);
3. **semantic** — no exact hit, but the session's containment lattice
   (:mod:`repro.cache.semantic`) *infers* the answer from already-decided
   premises: transitivity through a cached certain True, or replay of a
   cached countermodel against the new left-hand side.  Both rules are
   proofs, so the verdict is certain — and it cost an evaluation, not a
   search.  Semantic verdicts are never written back to the dedup memo or
   the journal: they are derived facts, not fresh decisions, and a later
   exact request should still record the search-produced verdict;
4. **computed** — dispatched through :func:`repro.core.containment.is_contained`
   in this process.  Computed deterministic verdicts feed the lattice (and
   its on-disk journal) as premises for future inference.

Responses are *emitted* in arrival order regardless of execution order, so
a batch's output is byte-deterministic and comparable line-by-line against
sequential ``is_contained`` calls — the bit-identical contract the E18
benchmark enforces.

Requests arrive validated (:class:`repro.service.protocol.DecideModel`);
what needs server state — query parse, ``schema_ref`` resolution — is
checked at submit time, so malformed requests fail fast with an ``error``
response and never occupy the queue.  Query texts are *interned*: a
bounded table maps each text to its parsed :class:`UCRPQ`, so a repeated
text is parsed, keyed (:func:`repro.core.reduction.query_key` caches on the
object) and matcher-compiled once per scheduler lifetime — the compiled
matcher memos are keyed by query identity, so a fresh parse per request
would miss them.  Parse errors are never stored.

When an auditor is attached (:class:`repro.resilience.audit.VerdictAuditor`,
the service default), a False verdict's countermodel is re-verified by the
compiled matchers when the verdict *enters* the dedup memo: when it is
freshly computed, or on its first read from the persistent journal.  A
failed journal entry is quarantined and the request falls through to a
fresh decision; a failed *computed* verdict triggers one re-decide on the
reference configuration (every cache bypassed, no deadline), and only if
*that* also fails does the request answer with a structured error.  A
deterministic 1-in-N sample of freshly computed complete verdicts is
additionally re-decided with every cache bypassed; on a mismatch the
reference answer is the one served and stored.

The memo holds each audited verdict as frozen canonical JSON text, and
every response carries a freshly decoded copy, so no stored object is
reachable from a response.  A dedup hit is therefore served without a
second audit: the decision key covers both queries, the schema's content
key, the method and every budget; the audit is a deterministic function of
(verdict, lhs, rhs, T); and the memo's text cannot change in place — so a
re-check could only repeat the answer it gave when the verdict entered.
Semantic hits need no serve-time gate either: the lattice replays
countermodels against the new lhs at lookup time, which *is* the audit.

Resolution is fail-soft: transient infrastructure failures (an OS error,
an injected fault) are retried up to :data:`MAX_RETRIES` times with capped
exponential backoff; anything else answers that one request with a structured
``error`` response while the rest of the batch keeps flowing.  A request
with a ``timeout_ms`` budget (own or server default) runs under a
:class:`repro.resilience.Deadline` armed at execution time; a verdict the
deadline actually cut short is emitted normally (``complete: false``,
``deadline_expired: true``) but excluded from the dedup memo and the
persistent journal, which only ever hold deterministic results.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.containment import (
    ContainmentOptions,
    decision_key,
    decision_key_parts,
    is_contained,
    supported_combination,
)
from repro.core.reduction import query_key
from repro.io import FORMAT_VERSION, query_to_text, verdict_to_dict
from repro.kernel.memo import BoundedMemo
from repro.obs import REGISTRY, span
from repro.queries.parser import parse_query
from repro.queries.ucrpq import UCRPQ
from repro.resilience import FaultInjected, faults
from repro.resilience.audit import AuditFailure, VerdictAuditor
from repro.resilience.deadline import Deadline
from repro.service.cache import DecisionCache, semantic_group_digest
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    DecideModel,
    ProtocolError,
    build_options,
    error_response,
    verdict_response,
)
from repro.service.sessions import SchemaSession, SessionManager

QUERY_INTERN_MAX = 2048
"""Distinct query texts one scheduler keeps parsed (FIFO beyond that).
Matches the compiled-query memo (``compile.query``), so a working set that
fits the intern table also keeps its compiled matchers."""

MAX_RETRIES = 2
"""Retries of a transient failure before the request answers an error."""

RETRY_BACKOFF_S = 0.05
"""First retry's backoff; each further retry doubles it, capped at 1 s."""

_TRANSIENT_ERRORS = (OSError, FaultInjected)
"""Exception classes the scheduler treats as retryable infrastructure
failures (a transient OS hiccup, an injected fault) as opposed to
deterministic decision errors."""


@dataclass(order=True)
class _Item:
    priority: int
    seq: int
    request: DecideModel = field(compare=False)
    session: Optional[SchemaSession] = field(compare=False, default=None)
    lhs: Optional[UCRPQ] = field(compare=False, default=None)
    rhs: Optional[UCRPQ] = field(compare=False, default=None)
    options: Optional[ContainmentOptions] = field(compare=False, default=None)
    key: Optional[tuple] = field(compare=False, default=None)
    timeout_ms: Optional[int] = field(compare=False, default=None)


class DecisionScheduler:
    """Buffers validated decide requests; drains them deduped and ordered."""

    def __init__(
        self,
        sessions: Optional[SessionManager] = None,
        cache: Optional[DecisionCache] = None,
        metrics: Optional[ServiceMetrics] = None,
        default_timeout_ms: Optional[int] = None,
        semantic_cache: bool = True,
        auditor: Optional[VerdictAuditor] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.sessions = sessions if sessions is not None else SessionManager(self.metrics)
        self.cache = cache
        self.default_timeout_ms = default_timeout_ms
        """Wall-clock cap applied to requests without their own
        ``options.timeout_ms``; ``None`` leaves them unbounded."""
        self.semantic_cache = semantic_cache
        """Server-level switch for the per-session semantic lattices; a
        request can additionally opt out via ``options.semantic_cache``."""
        self.auditor = auditor
        """Optional integrity auditor gating every False verdict that
        enters the dedup memo (and A/B-sampling computed ones); ``None``
        disables auditing."""
        self._queue: list[_Item] = []
        self._results = BoundedMemo(max_entries=8192, name="service.results")
        """Lifetime memo keyed by decision key (dedup source): each value
        is an audited verdict frozen as canonical JSON text."""
        self._queries = BoundedMemo(max_entries=QUERY_INTERN_MAX, name="service.queries")
        """Query text → parsed :class:`UCRPQ` intern table."""

    def pending(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------- #
    # intake

    def submit(self, request: DecideModel) -> Optional[dict]:
        """Validate and enqueue one decide request.

        Returns ``None`` on success or an ``error`` response dict; nothing
        is enqueued on error.
        """
        self.metrics.count("decide_requests")
        try:
            item = self._validate(request)
        except (ProtocolError, ValueError) as exc:
            self.metrics.count("errors")
            return error_response(request.id, str(exc))
        heapq.heappush(self._queue, item)
        self.metrics.queue_changed(len(self._queue))
        return None

    def _validate(self, request: DecideModel) -> _Item:
        if request.schema_ref is not None:
            session = self.sessions.by_ref(request.schema_ref)
            if session is None:
                raise ProtocolError(f"unknown schema_ref {request.schema_ref!r}")
        else:
            session = self.sessions.session_for(request.schema)
        try:
            lhs = self._intern(request.lhs)
            rhs = self._intern(request.rhs)
        except Exception as exc:
            raise ProtocolError(f"query parse error: {exc}") from exc
        options = build_options(request.options)
        key = decision_key(
            lhs, rhs,
            session.tbox if session is not None else None,
            method=request.method,
            options=options,
        )
        timeout_ms = request.options.get("timeout_ms", self.default_timeout_ms)
        return _Item(
            priority=request.priority,
            seq=request.seq,
            request=request,
            session=session,
            lhs=lhs,
            rhs=rhs,
            options=options,
            key=key,
            timeout_ms=timeout_ms,
        )

    def _intern(self, text: str) -> UCRPQ:
        """The parsed query for ``text``, shared by every request (and
        hydrated premise) carrying the same text.  Raises on a parse
        error, which is never stored."""
        query = self._queries.get(text)
        if query is None:
            query = parse_query(text)
            self._queries.put(text, query)
        return query

    # ------------------------------------------------------------- #
    # drain

    def drain(self) -> list[dict]:
        """Resolve every buffered request; responses in arrival order."""
        items: list[_Item] = []
        while self._queue:
            items.append(heapq.heappop(self._queue))
        self.metrics.queue_changed(0)
        responses = [self._resolve(item) for item in items]
        responses.sort(key=lambda pair: pair[0])
        return [response for _, response in responses]

    def _resolve(self, item: _Item) -> tuple[int, dict]:
        start = time.perf_counter()
        with span("service.decide", priority=item.priority) as sp:
            try:
                verdict, source = self._verdict_with_retry(item)
            except Exception as exc:
                # one decision failing must never take the batch down: the
                # request answers with a structured error and the drain
                # keeps emitting the remaining verdicts
                sp.set(source="error")
                self.metrics.count("errors")
                self.metrics.count("decision_failures")
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                self.metrics.observe_latency_ms(elapsed_ms)
                return item.seq, error_response(
                    item.request.id, f"decision failed: {exc}"
                )
            sp.set(source=source)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.metrics.observe_latency_ms(elapsed_ms)
        self.metrics.count(f"verdicts_{source}")
        return item.seq, verdict_response(item.request.id, verdict, source, elapsed_ms)

    def _verdict_with_retry(self, item: _Item) -> tuple[dict, str]:
        """Run the decision, retrying transient infrastructure failures
        (OS errors, injected faults) with capped exponential backoff."""
        attempt = 0
        while True:
            try:
                return self._verdict_for(item)
            except _TRANSIENT_ERRORS:
                attempt += 1
                if attempt > MAX_RETRIES:
                    raise
                self.metrics.count("decision_retries")
                time.sleep(min(1.0, RETRY_BACKOFF_S * (2 ** (attempt - 1))))

    def _verdict_for(self, item: _Item) -> tuple[dict, str]:
        frozen = self._results.get(item.key)
        if frozen is not None:
            # audited when it entered the memo; the text cannot have changed
            self.metrics.count("dedup_collapses")
            return json.loads(frozen), "dedup"
        if self.cache is not None:
            stored = self.cache.get(item.key)
            if stored is not None:
                if self._audit_gate(item, stored):
                    return self._remember(item.key, stored), "cache"
                self.cache.quarantine_entry(item.key, "audit.countermodel")
        semantic = self._semantic_lookup(item)
        if semantic is not None:
            # no serve-time gate here: a replay hit *is* a countermodel
            # re-verification, and transitive hits are proofs over premises
            # the lattice's trust gate already re-verified
            self.metrics.count("semantic_hits")
            return semantic, "semantic"
        faults.maybe_fault("scheduler.dispatch")
        if item.session is not None:
            if item.session.decisions > 0:
                self.metrics.count("kernel_reuse")
            item.session.decisions += 1
        options = item.options
        if item.timeout_ms is not None:
            # armed at execution time, never part of the decision identity
            options = replace(options, deadline=Deadline.after_ms(item.timeout_ms))
        result = is_contained(
            item.lhs,
            item.rhs,
            item.session.tbox if item.session is not None else None,
            method=item.request.method,
            options=options,
        )
        self.metrics.count("decisions_executed")
        verdict = verdict_to_dict(result)
        if result.deadline_expired:
            # wall-clock-cut verdicts are nondeterministic: answer the
            # caller but keep them out of the dedup memo and the journal
            # (and out of the auditor's reach — there is nothing to prove)
            self.metrics.count("timeouts")
            return verdict, "computed"
        verdict = self._audit_computed(item, verdict)
        served = self._remember(item.key, verdict)
        if self.cache is not None:
            self.cache.put(item.key, verdict)
        self._semantic_insert(item, verdict)
        return served, "computed"

    def _remember(self, key: tuple, verdict: dict) -> dict:
        """Freeze an audited verdict into the dedup memo as canonical JSON
        text and return a fresh copy of it to serve.  Verdict dicts are
        JSON-native, so the copy equals ``verdict``."""
        frozen = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
        self._results.put(key, frozen)
        return json.loads(frozen)

    # ------------------------------------------------------------- #
    # integrity audit

    def _audit_gate(self, item: _Item, verdict: dict) -> bool:
        """Witness check for a journal verdict about to enter the dedup
        memo; True when safe (or no auditor is attached)."""
        if self.auditor is None:
            return True
        tbox = item.session.tbox if item.session is not None else None
        return self.auditor.check_false(
            verdict, item.lhs, item.rhs, tbox, source="cache"
        )

    def _audit_computed(self, item: _Item, verdict: dict) -> dict:
        """Audit a freshly computed deterministic verdict.

        A failed witness check means the engine itself produced a bad
        countermodel (or memory corrupted it): re-decide once on the
        reference configuration and serve that — or fail the request if
        even the reference answer cannot prove itself.  Complete verdicts
        that pass are additionally A/B-sampled: re-decided with every cache
        bypassed."""
        if self.auditor is None:
            return verdict
        tbox = item.session.tbox if item.session is not None else None
        if not self.auditor.check_false(
            verdict, item.lhs, item.rhs, tbox, source="computed"
        ):
            return self._reference_verdict(item, tbox)
        if verdict.get("complete") and self.auditor.should_ab_sample():
            redecided = self.auditor.ab_verdict(
                item.lhs, item.rhs, tbox, item.request.method, item.options
            )
            if redecided != verdict:
                REGISTRY.inc("audit.ab.mismatch")
                self.metrics.count("audit_ab_mismatches")
                return self._reference_verdict(item, tbox)
        return verdict

    def _reference_verdict(self, item: _Item, tbox) -> dict:
        """Last-resort sound fallback: every cache and inference layer
        bypassed, no deadline — then audited again."""
        self.metrics.count("audit_reference_redecides")
        REGISTRY.inc("audit.reference.redecides")
        options = replace(
            item.options,
            use_cache=False,
            semantic_cache=False,
            deadline=None,
        )
        result = is_contained(
            item.lhs, item.rhs, tbox, method=item.request.method, options=options
        )
        verdict = verdict_to_dict(result)
        if not self.auditor.check_false(
            verdict, item.lhs, item.rhs, tbox, source="reference"
        ):
            raise AuditFailure(
                "audit failed: countermodel rejected even on the reference "
                "re-decide (caches bypassed)"
            )
        return verdict

    # ------------------------------------------------------------- #
    # semantic layer

    def _lattice_for(self, item: _Item):
        """The lattice for this request, or ``None`` when the semantic
        layer doesn't apply (disabled, opted out, or schema-less)."""
        if not self.semantic_cache or item.session is None:
            return None
        if item.options is not None and not item.options.semantic_cache:
            return None
        return item.session.semantic_lattice()

    def _semantic_lookup(self, item: _Item) -> Optional[dict]:
        lattice = self._lattice_for(item)
        if lattice is None:
            return None
        lhs_key, group_key = decision_key_parts(item.key)
        self._semantic_hydrate(lattice, group_key)
        hit = lattice.lookup(
            group_key, item.lhs, lhs_key, rhs=item.rhs, tbox=item.session.tbox
        )
        self._quarantine_rejected(lattice)
        if hit is None:
            return None
        # both rules are proofs, so the derived verdict is certain; the
        # method names the rule so responses are auditable end to end
        return {
            "format": FORMAT_VERSION,
            "contained": hit.contained,
            "complete": True,
            "method": f"semantic.{hit.kind}",
            "seeds_tried": 0,
            "supported_by_theory": supported_combination(
                item.lhs, item.rhs, item.session.tbox
            ),
            "countermodel": hit.countermodel,
        }

    def _quarantine_rejected(self, lattice) -> None:
        """Evict the journal lines behind records the lattice's trust gate
        rejected during the last lookup, so disk heals with memory."""
        if self.cache is None:
            return
        for group_key, lhs_text in lattice.take_rejected():
            digest = semantic_group_digest(group_key, self.cache.fingerprint)
            self.cache.quarantine_semantic(digest, lhs_text, "audit.countermodel")

    def _semantic_hydrate(self, lattice, group_key: tuple) -> None:
        """Load a persisted premise group into the lattice on first touch.

        Hydrated records are marked untrusted: the lattice re-verifies
        their countermodels (T-model, avoids Q) before the first replay is
        allowed to answer anything."""
        if self.cache is None:
            return
        digest = semantic_group_digest(group_key, self.cache.fingerprint)
        if not lattice.needs_hydration(digest):
            return
        lattice.mark_hydrated(digest)
        for lhs_text, verdict in self.cache.semantic_entries(digest):
            try:
                premise = self._intern(lhs_text)
            except Exception:
                self.metrics.count("semantic_hydrate_errors")
                continue
            lattice.insert(
                group_key, premise, query_key(premise), verdict, trusted=False
            )

    def _semantic_insert(self, item: _Item, verdict: dict) -> None:
        """Feed a freshly computed deterministic verdict to the lattice as
        a premise, and persist it to the semantic journal."""
        lattice = self._lattice_for(item)
        if lattice is None:
            return
        lhs_key, group_key = decision_key_parts(item.key)
        if not lattice.insert(group_key, item.lhs, lhs_key, verdict):
            return
        if self.cache is not None:
            digest = semantic_group_digest(group_key, self.cache.fingerprint)
            self.cache.put_semantic(digest, query_to_text(item.lhs), verdict)
