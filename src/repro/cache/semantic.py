"""Semantic decision cache: answer containment from containment.

The persistent journal and the in-batch dedup memo only serve *exact*
decision-key hits — a request whose query differs trivially from one
already decided re-runs a full search.  This module closes that gap by
turning the engine on itself: containment is a preorder on queries, and
that preorder is exactly the cache-lookup relation.  Two sound inference
rules answer a new request ``P ⊆_T Q`` from cached decisions without any
kernel search:

**(a) True by transitivity.**  If ``P ⊆ P′`` holds on *all* graphs (a
fortiori modulo any schema) and ``P′ ⊆_T Q`` is cached True **with
certainty** (``complete=True``), then ``P ⊆_T Q`` holds, with certainty.
The all-graphs edges come from two sound sources:

* the syntactic disjunct-subset screen (PR 1): every disjunct of ``P``
  textually present in ``P′`` means each is contained in the union
  outright, so ``P ⊆ P′`` — a proof, computed with set operations;
* bounded **probes**: :func:`repro.core.baseline.contained_no_schema`
  under a small expansion budget; only a ``contained ∧ complete`` probe
  result (full finite enumeration) adds an edge, so edges stay theorems.

Requiring the cached premise to be *complete* is what keeps the rule
sound relative to a fresh run: an incomplete True ("no countermodel found
within budget") says nothing certain about ``P′``, so nothing about ``P``.

**(b) False by countermodel replay.**  A "not contained" verdict carries
a verified countermodel ``M``: a T-model matching ``P′`` and avoiding
``Q``.  For a new left-hand side ``P``, evaluating ``P`` over ``M`` with
the compiled matchers (:func:`repro.queries.evaluation.satisfies_union` —
a cheap evaluation, not a decision) suffices: if ``M ⊨ P`` then ``M`` is
*already* a countermodel for ``P ⊆_T Q``, no lattice edge needed.  The
premise's own ``P′`` plays no role in the conclusion, which is why one
stored False fans out to every query its countermodel matches.

Both rules are proofs, so a semantic verdict is always ``complete=True``
and can never *flip* a complete fresh verdict; on budget-bounded searches
it can only be more certain, never less (see DESIGN.md §2.16 for the full
argument).

**Structure.**  One :class:`SemanticLattice` lives on each schema session
(:class:`repro.service.sessions.SchemaSession`).  Cached decisions are
bucketed into *premise groups* keyed by the decision key with the
left-hand side removed (method, rhs key, schema ``content_key``, option
budgets — :func:`repro.core.containment.decision_key_parts`): every
decision in a group differs only in ``P``, which is exactly the family
the two rules range over.  The partial order itself is kept *across*
groups — ``P ⊆ P′`` is schema- and rhs-independent — as ``up``/``down``
edge sets on a per-session node registry, so one probe paid against one
rhs serves every other rhs in the session.

**Bounds.**  Nodes are LRU-ordered and capped (``max_nodes``); total
records and edges are capped; probe results are remembered (positively as
edges, negatively in a bounded pair set) so a miss is never re-probed on
every request; replay and probe work per lookup is budgeted.  Eviction
removes a node's edges and every group record it owns, counted under
``semcache.evict``.

**Trust.**  Records inserted by the live engine are trusted (the decision
procedures verify every countermodel before returning it).  Records
hydrated from the persistent semantic journal are not: their countermodel
is re-verified once — a T-model avoiding ``Q`` — before its first replay
is allowed to answer anything, and a record that fails is dropped and
counted under ``semcache.reject``.  True premises are not re-checkable
(certainty is a universal statement), so hydrated True records rest on
the same code-fingerprint contract as the exact decision journal.

Rejected records are additionally queued for *quarantine*: the scheduler
drains :meth:`SemanticLattice.take_rejected` after each lookup and evicts
the backing journal lines through
:meth:`repro.service.cache.DecisionCache.quarantine_semantic`, so a
premise that failed its trust gate is gone from disk too — not just
skipped until the next restart rediscovers it (counted under
``semcache.quarantined.records``).

All counters live in the process-wide :data:`repro.obs.REGISTRY`:
``semcache.hit.transitive``, ``semcache.hit.countermodel``,
``semcache.probe``, ``semcache.evict``, ``semcache.miss``,
``semcache.insert``, ``semcache.reject``,
``semcache.quarantined.records``.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.baseline import contained_no_schema
from repro.graphs.graph import Graph
from repro.io import graph_from_dict, query_to_text
from repro.obs import REGISTRY
from repro.queries.evaluation import satisfies_union
from repro.queries.ucrpq import UCRPQ
from repro.resilience.audit import model_satisfies_tbox

COUNTER_HIT_TRANSITIVE = "semcache.hit.transitive"
COUNTER_HIT_COUNTERMODEL = "semcache.hit.countermodel"
COUNTER_PROBE = "semcache.probe"
COUNTER_EVICT = "semcache.evict"
COUNTER_MISS = "semcache.miss"
COUNTER_INSERT = "semcache.insert"
COUNTER_REJECT = "semcache.reject"
COUNTER_QUARANTINED = "semcache.quarantined.records"


def syntactic_subset(sub_key: tuple, sup_key: tuple) -> bool:
    """The sound syntactic screen as an edge oracle: every disjunct of
    ``sub`` textually present in ``sup`` proves ``sub ⊆ sup`` on all
    graphs.  Keys are :func:`repro.core.reduction.query_key` tuples."""
    if not sub_key:
        return False
    return frozenset(sub_key) <= frozenset(sup_key)


@dataclass
class SemanticHit:
    """One lattice-inference answer.

    ``kind`` is ``"transitive"`` (rule a) or ``"countermodel"`` (rule b);
    ``premise_key`` names the cached decision the answer was derived from;
    ``countermodel`` is the stored wire-format countermodel dict for
    replay hits (``None`` for transitive hits).  Both rules are proofs, so
    the conclusion is always certain (``complete=True``)."""

    kind: str
    contained: bool
    premise_key: tuple
    countermodel: Optional[dict] = None


class _Node:
    """One query in the session's partial order."""

    __slots__ = ("key", "query", "up", "down", "groups")

    def __init__(self, key: tuple, query: UCRPQ) -> None:
        self.key = key
        self.query = query
        self.up: set = set()
        """Keys of known supersets: ``self ⊆ other`` on all graphs."""
        self.down: set = set()
        self.groups: set = set()
        """Premise groups holding a cached verdict for this query."""


class _Record:
    """One cached decision inside a premise group."""

    __slots__ = ("verdict", "graph", "trusted", "bad")

    def __init__(self, verdict: dict, trusted: bool) -> None:
        self.verdict = verdict
        self.graph: Optional[Graph] = None
        self.trusted = trusted
        self.bad = False

    def usable_true(self) -> bool:
        return bool(self.verdict.get("contained")) and bool(
            self.verdict.get("complete")
        )

    def usable_false(self) -> bool:
        return (
            not self.verdict.get("contained")
            and self.verdict.get("countermodel") is not None
        )

    def countermodel_graph(self) -> Graph:
        if self.graph is None:
            self.graph = graph_from_dict(self.verdict["countermodel"])
        return self.graph


class SemanticLattice:
    """Per-schema-session containment lattice over cached decisions.

    Not thread-safe by design: each lattice is owned by exactly one
    sequential scheduler (one server, or one gateway shard worker), the
    same ownership discipline as the scheduler's queue itself.
    """

    def __init__(
        self,
        max_nodes: int = 512,
        max_edges: int = 4096,
        max_records: int = 2048,
        probe_budget: int = 4,
        replay_budget: int = 16,
        probe_word_length: int = 3,
        probe_expansions: int = 32,
    ) -> None:
        self.max_nodes = max_nodes
        self.max_edges = max_edges
        self.max_records = max_records
        self.probe_budget = probe_budget
        """Baseline probes allowed per lookup (each counted under
        ``semcache.probe``); failed pairs are remembered, so a stable miss
        costs its probes once, not per request."""
        self.replay_budget = replay_budget
        """Stored countermodels replayed per lookup."""
        self.probe_word_length = probe_word_length
        self.probe_expansions = probe_expansions
        self._nodes: "OrderedDict[tuple, _Node]" = OrderedDict()
        self._groups: dict[tuple, "OrderedDict[tuple, _Record]"] = {}
        self._edge_count = 0
        self._record_count = 0
        self._probed: set[tuple] = set()
        self._probed_cap = 4096
        self._hydrated: set[str] = set()
        self._rejected: list[tuple[tuple, tuple]] = []
        """(group key, premise node key) pairs rejected since the last
        :meth:`take_rejected` drain — the journal-quarantine feed."""

    # ------------------------------------------------------------- #
    # node registry + partial order

    def __len__(self) -> int:
        return self._record_count

    def needs_hydration(self, digest: str) -> bool:
        """Has this persisted premise group been loaded yet?"""
        return digest not in self._hydrated

    def mark_hydrated(self, digest: str) -> None:
        self._hydrated.add(digest)

    def _ensure_node(self, query: UCRPQ, key: tuple) -> _Node:
        node = self._nodes.get(key)
        if node is not None:
            self._nodes.move_to_end(key)
            return node
        node = _Node(key, query)
        # seed the order with syntactic-subset edges against every live
        # node — pure set operations on disjunct keys, capped globally
        for other_key, other in self._nodes.items():
            if self._edge_count >= self.max_edges:
                break
            if syntactic_subset(key, other_key):
                self._add_edge(node, other)
            elif syntactic_subset(other_key, key):
                self._add_edge(other, node)
        self._nodes[key] = node
        while len(self._nodes) > self.max_nodes:
            if not self._evict_lru(keep=key):
                break
        return node

    def _add_edge(self, sub: _Node, sup: _Node) -> None:
        if sup.key in sub.up or sub.key == sup.key:
            return
        sub.up.add(sup.key)
        sup.down.add(sub.key)
        self._edge_count += 1

    def _evict_lru(
        self, keep: Optional[tuple] = None, require_records: bool = False
    ) -> bool:
        """Drop the least-recently-used node, its edges, and its records.

        With ``require_records`` the victim is the LRU node that *owns* at
        least one group record — the record cap is about records, and
        evicting a record-less node would not move the count (while still
        wasting a node unrelated to the cap being enforced).  Returns
        whether a node was evicted.
        """
        victim = None
        for key, candidate in self._nodes.items():
            if key == keep:
                continue
            if require_records and not candidate.groups:
                continue
            victim = key
            break
        if victim is None:
            return False
        node = self._nodes.pop(victim)
        for up in node.up:
            other = self._nodes.get(up)
            if other is not None:
                other.down.discard(victim)
        for down in node.down:
            other = self._nodes.get(down)
            if other is not None:
                other.up.discard(victim)
        self._edge_count -= len(node.up) + len(node.down)
        if self._edge_count < 0:
            self._edge_count = 0
        for group_key in node.groups:
            group = self._groups.get(group_key)
            if group is not None and group.pop(victim, None) is not None:
                self._record_count -= 1
                if not group:
                    del self._groups[group_key]
        REGISTRY.inc(COUNTER_EVICT)
        return True

    def _up_closure(self, node: _Node) -> list:
        """Reflexive-transitive up-set of a node, in deterministic BFS
        order (self first, then breadth layers; ties by repr)."""
        seen = {node.key}
        order = [node.key]
        frontier = [node.key]
        while frontier:
            layer = []
            for key in frontier:
                current = self._nodes.get(key)
                if current is None:
                    continue
                for up in sorted(current.up, key=repr):
                    if up not in seen:
                        seen.add(up)
                        order.append(up)
                        layer.append(up)
            frontier = layer
        return order

    # ------------------------------------------------------------- #
    # maintenance

    def insert(
        self,
        group_key: tuple,
        query: UCRPQ,
        lhs_key: tuple,
        verdict: dict,
        trusted: bool = True,
    ) -> bool:
        """Record one decided verdict as a premise; returns whether it was
        stored.  Only *usable* verdicts are kept: certain Trues (rule a
        premises) and Falses carrying a countermodel (rule b premises);
        deadline-cut verdicts are nondeterministic and never stored."""
        if verdict.get("deadline_expired"):
            return False
        record = _Record(verdict, trusted)
        if not (record.usable_true() or record.usable_false()):
            return False
        node = self._ensure_node(query, lhs_key)
        group = self._groups.setdefault(group_key, OrderedDict())
        if lhs_key in group:
            return False
        group[lhs_key] = record
        node.groups.add(group_key)
        self._record_count += 1
        while self._record_count > self.max_records:
            if not self._evict_lru(keep=lhs_key, require_records=True):
                break  # nothing evictable (single hot node): stop
        REGISTRY.inc(COUNTER_INSERT)
        return True

    # ------------------------------------------------------------- #
    # inference

    def lookup(
        self,
        group_key: tuple,
        lhs: UCRPQ,
        lhs_key: tuple,
        rhs: Optional[UCRPQ] = None,
        tbox=None,
    ) -> Optional[SemanticHit]:
        """Answer ``lhs ⊆_T Q`` for the premise group, by inference.

        Rule order is cheapest-first and deterministic: (a) over known
        edges (set ops), then (b) countermodel replay (compiled-matcher
        evaluations), then (a) again via bounded baseline probes.  ``rhs``
        and ``tbox``, when given, are used to re-verify countermodels
        hydrated from disk before their first use.
        """
        group = self._groups.get(group_key)
        if not group:
            REGISTRY.inc(COUNTER_MISS)
            return None
        node = self._ensure_node(lhs, lhs_key)

        # rule (a): a certain True premise above us in the order
        ancestors = self._up_closure(node)
        for key in ancestors:
            record = group.get(key)
            if record is not None and record.usable_true():
                REGISTRY.inc(COUNTER_HIT_TRANSITIVE)
                return SemanticHit("transitive", True, key)

        # rule (b): replay stored countermodels against the new P
        replays = 0
        for key, record in list(group.items()):
            if replays >= self.replay_budget:
                break
            if record.bad or not record.usable_false():
                continue
            replays += 1
            try:
                model = record.countermodel_graph()
            except Exception:
                self._reject(group_key, key, record)
                continue
            if not record.trusted:
                if not self._verify_countermodel(model, rhs, tbox):
                    self._reject(group_key, key, record)
                    continue
                record.trusted = True
            if satisfies_union(model, lhs):
                REGISTRY.inc(COUNTER_HIT_COUNTERMODEL)
                # hand out a private copy: the wire dict nests lists, and a
                # caller mutating the returned verdict must not poison the
                # lattice record (same discipline as the exact-decision memo)
                return SemanticHit(
                    "countermodel", False, key,
                    countermodel=copy.deepcopy(record.verdict["countermodel"]),
                )

        # rule (a) again, paying for edges we don't have yet
        hit = self._probe_for_ancestor(group, node, set(ancestors))
        if hit is not None:
            return hit
        REGISTRY.inc(COUNTER_MISS)
        return None

    def _probe_for_ancestor(
        self, group: "OrderedDict[tuple, _Record]", node: _Node, known: set
    ) -> Optional[SemanticHit]:
        probes = 0
        for key, record in list(group.items()):
            if probes >= self.probe_budget:
                break
            if key in known or not record.usable_true():
                continue
            pair = (node.key, key)
            if pair in self._probed:
                continue
            premise = self._nodes.get(key)
            if premise is None:
                continue
            if len(self._probed) >= self._probed_cap:
                self._probed.clear()
            self._probed.add(pair)
            probes += 1
            REGISTRY.inc(COUNTER_PROBE)
            base = contained_no_schema(
                node.query, premise.query,
                self.probe_word_length, self.probe_expansions,
            )
            # only a *complete* probe result is a theorem; an exhausted
            # budget proves nothing and the pair is remembered as unknown
            if base.contained and base.complete:
                self._add_edge(node, premise)
                REGISTRY.inc(COUNTER_HIT_TRANSITIVE)
                return SemanticHit("transitive", True, key)
        return None

    def _reject(self, group_key: tuple, key: tuple, record: "_Record") -> None:
        """Mark a record bad and queue its journal line for quarantine."""
        record.bad = True
        REGISTRY.inc(COUNTER_REJECT)
        self._rejected.append((group_key, key))

    def take_rejected(self) -> list[tuple[tuple, str]]:
        """Drain ``(group key, canonical lhs text)`` for records rejected
        since the last drain.  The text is the node's canonical rendering —
        identical to what :meth:`~repro.service.scheduler.DecisionScheduler`
        persisted, so it addresses the journal line exactly."""
        out: list[tuple[tuple, str]] = []
        for group_key, key in self._rejected:
            node = self._nodes.get(key)
            if node is not None:
                out.append((group_key, query_to_text(node.query)))
                REGISTRY.inc(COUNTER_QUARANTINED)
        self._rejected.clear()
        return out

    @staticmethod
    def _verify_countermodel(model: Graph, rhs, tbox) -> bool:
        """Re-establish the stored invariant for a disk-loaded record:
        the graph is a T-model avoiding Q.  (Its match of the *original*
        P′ is irrelevant to rule b and not rechecked.)

        The schema leg is the serve-time audit's own
        :func:`~repro.resilience.audit.model_satisfies_tbox`, so the trust
        gate and the audit check one property by one piece of code —
        including its handling of the fresh names the normalization
        introduced and served witnesses no longer carry."""
        if rhs is not None and satisfies_union(model, rhs):
            return False
        return tbox is None or model_satisfies_tbox(tbox, model)

    # ------------------------------------------------------------- #
    # introspection

    def stats(self) -> dict:
        return {
            "nodes": len(self._nodes),
            "edges": self._edge_count,
            "groups": len(self._groups),
            "records": self._record_count,
            "probed_pairs": len(self._probed),
        }
