"""Countermodel search: a disjunctive chase with reuse and query avoidance.

This engine powers the practical side of every decision procedure in the
library.  Given a normalized TBox T, a query Q to avoid, and a protected
seed graph G, it searches for a finite graph G' ⊇ G with G' ⊨ T and
G' ⊭ Q — a witness that Q is **not** finitely entailed by (G, T).

The search maintains a growing graph whose labels are decided-positive
(absent labels read as complements, matching graph semantics) and repairs
violations:

* clausal CI with all-false head → branch over adding a positive head label;
* A ⊑ ∀r.B with an r-successor missing B → forced: add B to the successor;
* A ⊑ ∃≥n r.B short of witnesses → branch: reuse an existing B-node, add B
  to an existing r-successor, or create a fresh node (node reuse is what
  folds infinite chases into finite models, in the spirit of the coil);
* A ⊑ ∃≤n r.B exceeded → dead end (edges are never removed);
* a match of Q → branch over the match's complement atoms ¬C(x): granting C
  at the matched node destroys the match (for factorized queries Q̂ this is
  exactly permission granting); with no complement atoms, dead end.

Before it repairs a violation, the search closes the node label sets under
the forced repairs and fails the state if that reaches a monotone dead end
(`_DeadEnds`).  The cut is exact: below a state the chase only adds labels,
edges and nodes, and an accepting leaf satisfies every CI, so it holds every
forced label and would violate the dead end.  The states that remain keep
their depth-first order, so a finished search finds the same countermodel.

The search is complete up to its node budget for label placements reachable
through repairs; `SearchOutcome.exhausted` reports whether the space was
fully explored (certifying "no countermodel within the budget") or a step
budget cut it short.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from repro.dl.normalize import AtLeastCI, AtMostCI, ClauseCI, NormalizedTBox, UniversalCI
from repro.obs import REGISTRY, span
from repro.resilience import faults
from repro.resilience.deadline import Deadline
from repro.graphs.graph import Graph, Node
from repro.graphs.labels import NodeLabel, Role
from repro.graphs.types import Type, type_of
from repro.queries.crpq import CRPQ
from repro.queries.evaluation import find_union_match
from repro.queries.incremental import IncrementalUnionEvaluator
from repro.queries.ucrpq import UCRPQ


@dataclass
class SearchLimits:
    """Budgets for the countermodel search."""

    max_nodes: int = 10
    max_steps: int = 50_000
    max_fresh_types: int = 64
    """Cap on distinct type choices considered per fresh node."""
    incremental: bool = True
    """Use the incremental evaluation layer (compiled matchers, delta
    re-evaluation, transposition table).  Verdicts and countermodels are
    bit-identical either way; ``False`` forces the straight-line engine
    (the A/B baseline)."""
    deadline: Optional[Deadline] = None
    """Cooperative wall-clock budget polled once per chase step.  ``None``
    (the default) keeps the pre-deadline instruction stream exactly; an
    expired deadline ends the search with a clean incomplete outcome
    (``exhausted=False``, ``deadline_expired=True``) — never an exception.
    Deliberately excluded from decision keys and caches: see
    ``repro.core.containment``."""


@dataclass
class SearchOutcome:
    """Result of a countermodel search."""

    countermodel: Optional[Graph]
    exhausted: bool
    steps: int
    tt_hits: int = 0
    """Chase states pruned because an isomorphic state already failed."""
    tt_misses: int = 0
    """Chase states entered with no transposition-table hit."""
    pruned: int = 0
    """Chase states failed because their forced repairs reach a dead end."""
    deadline_expired: bool = False
    """The wall-clock deadline cut this search short (implies
    ``exhausted=False``)."""

    @property
    def found(self) -> bool:
        return self.countermodel is not None


class _Budget(Exception):
    """Internal: step budget exhausted."""


class _Expired(Exception):
    """Internal: the wall-clock deadline expired mid-search."""


@dataclass
class _Violation:
    kind: str
    node: Node
    ci: object = None
    match: dict = field(default_factory=dict)
    disjunct: object = None


_UNKNOWN = -2
_CLEAN = -1


class _VFrame:
    """Undo log of one violation-cache checkpoint (first-touch saves)."""

    __slots__ = ("saved", "poisoned")

    def __init__(self) -> None:
        self.saved: dict[Node, Optional[list[int]]] = {}
        self.poisoned = False


class _ViolationCache:
    """Incremental CI-violation scanning over the chase graph.

    Caches, per node and per CI category, the index of the first violated
    CI (or "clean"), and invalidates only the *dirty closure* of each graph
    delta: ``holds_at`` reads a node's labels and its successors' labels,
    so a label addition at ``w`` can only change verdicts at ``w`` and its
    neighbours, and an edge addition only at its two endpoints.

    :meth:`first_violation` replays the exact full-scan order (category,
    then node insertion order, then CI order), so the repair chosen at
    every chase state is bit-identical with the cache on or off.
    """

    def __init__(self, categories: tuple, graph: Graph) -> None:
        graph.enable_change_tracking()
        self.graph = graph
        self._categories = categories
        """``(kind, cis, compiled checks)`` in repair order
        (:attr:`_TBoxRules.categories`)."""
        self._entries: dict[Node, list[int]] = {}
        self._frames: list[_VFrame] = []
        self._cursor = len(graph.journal or ())

    def _drop_all(self) -> None:
        self._entries.clear()

    _ALL = (0, 1, 2, 3)
    _NEIGHBORLY = (1, 2, 3)
    """Categories whose ``holds_at`` reads successor labels (universal,
    atmost, atleast); clauses (0) read only the node's own labels."""

    def _invalidate(self, node: Node, categories: tuple[int, ...]) -> None:
        frame = self._frames[-1] if self._frames else None
        entry = self._entries.get(node)
        if frame is not None and node not in frame.saved:
            frame.saved[node] = None if entry is None else list(entry)
        if entry is not None:
            for category in categories:
                entry[category] = _UNKNOWN

    def _sync(self) -> None:
        journal = self.graph.journal
        assert journal is not None
        if self._cursor == len(journal):
            return
        entries = journal[self._cursor :]
        self._cursor = len(journal)
        for entry in entries:
            if entry[0] in ("-label", "-edge", "-node"):
                # unmanaged non-monotone change: drop everything
                self._drop_all()
                for frame in self._frames:
                    frame.poisoned = True
                return
        graph = self.graph
        for entry in entries:
            kind = entry[0]
            if kind == "+label":
                node = entry[1]
                self._invalidate(node, self._ALL)
                for neighbor in graph.neighbors(node):
                    self._invalidate(neighbor, self._NEIGHBORLY)
            elif kind == "+edge":
                # clause verdicts don't read edges; only the endpoints'
                # successor-reading categories can flip
                self._invalidate(entry[1], self._NEIGHBORLY)
                self._invalidate(entry[3], self._NEIGHBORLY)
            elif kind == "+node":
                self._invalidate(entry[1], self._ALL)

    def checkpoint(self) -> int:
        self._sync()
        token = len(self._frames)
        self._frames.append(_VFrame())
        return token

    def rollback(self, token: int) -> None:
        frames = self._frames[token:]
        del self._frames[token:]
        if any(frame.poisoned for frame in frames):
            self._drop_all()
        else:
            entries = self._entries
            for frame in reversed(frames):
                for node, saved in frame.saved.items():
                    if saved is None:
                        entries.pop(node, None)
                    else:
                        entries[node] = saved
        self._cursor = len(self.graph.journal or ())

    def commit(self, token: int) -> None:
        """Dissolve frames, keeping the mutations.

        First-touch saves merge into the enclosing frame (earliest snapshot
        wins), so an outer rollback after a nested commit stays exact."""
        frames = self._frames[token:]
        del self._frames[token:]
        parent = self._frames[-1] if self._frames else None
        if parent is None:
            return
        for frame in frames:
            if frame.poisoned:
                parent.poisoned = True
            for node, saved in frame.saved.items():
                parent.saved.setdefault(node, saved)

    def first_violation(self) -> Optional[_Violation]:
        """The first violation in (category, node insertion, CI) order.

        Replays the exact full-scan order over the cached slots; only
        slots the dirty closure invalidated since the last call re-run
        their compiled checks, so the common case is a slot-read sweep.
        The result is bit-identical with the full scan.
        """
        self._sync()
        graph = self.graph
        entries = self._entries
        labels_of = graph._labels
        for cat_index, (kind, cis, checks) in enumerate(self._categories):
            if not cis:
                continue
            for node in labels_of:
                entry = entries.get(node)
                if entry is None:
                    entry = [_UNKNOWN] * len(self._categories)
                    entries[node] = entry
                index = entry[cat_index]
                if index == _UNKNOWN:
                    index = _CLEAN
                    labels = labels_of[node]
                    for i, check in enumerate(checks):
                        if check(graph, node, labels):
                            index = i
                            break
                    entry[cat_index] = index
                if index != _CLEAN:
                    return _Violation(kind, node, ci=cis[index])
        return None


def _compile_clause(clause: ClauseCI):
    """An exact negation of ``ClauseCI.holds_at`` over raw label sets."""
    body = tuple((lit.name, lit.negated) for lit in clause.body)
    head = tuple((lit.name, lit.negated) for lit in clause.head)

    def violated(graph: Graph, node: Node, labels) -> bool:
        for name, negated in body:
            if (name in labels) == negated:
                return False
        for name, negated in head:
            if (name in labels) != negated:
                return False
        return True

    return violated


def _compile_successor_ci(ci, kind: str):
    """Exact negations of the successor-reading ``holds_at`` checks."""
    s_name, s_negated = ci.subject.name, ci.subject.negated
    r_name, r_inverted = ci.role.name, ci.role.inverted
    f_name, f_negated = ci.filler.name, ci.filler.negated
    bound = getattr(ci, "n", None)

    def violated(graph: Graph, node: Node, labels) -> bool:
        if (s_name in labels) == s_negated:
            return False
        successors = graph.successors_by_name(node, r_name, r_inverted)
        labels_of = graph._labels
        if kind == "universal":
            return any(
                (f_name in labels_of[w]) == f_negated for w in successors
            )
        count = sum(
            1 for w in successors if (f_name in labels_of[w]) != f_negated
        )
        return count > bound if kind == "atmost" else count < bound

    return violated


class _DeadEnds:
    """A TBox's forced repairs and monotone dead ends: clauses with a
    positive body and at most one positive head literal (negated head
    literals read as premises), universals with a positive subject, and
    at-most CIs with a positive subject and filler (a universal with a
    negated filler is the bound 0).  Adding labels can repair the rest."""

    def __init__(self, tbox: NormalizedTBox) -> None:
        self.clauses: dict[Optional[str], list] = {}  # premise (None: ⊤) → rules
        self.universals: dict[str, list] = {}  # subject → (role, inverted, filler)
        self.limits, self.clashes = [], False  # (subject, role, inverted, filler, bound)
        for clause in tbox.clauses:
            heads = [lit.name for lit in clause.head if not lit.negated]
            if len(heads) > 1 or any(lit.negated for lit in clause.body):
                continue
            premises = {lit.name for lit in clause.body}
            premises.update(lit.name for lit in clause.head if lit.negated)
            self.clashes = self.clashes or not heads
            for name in premises or (None,):
                self.clauses.setdefault(name, []).append((premises, heads[0] if heads else None))
        for ci in tbox.universals + tbox.at_mosts:
            counting = isinstance(ci, AtMostCI)
            if ci.subject.negated or (counting and ci.filler.negated):
                continue
            edge = (ci.role.name, ci.role.inverted, ci.filler.name)
            if counting or ci.filler.negated:
                self.limits.append((ci.subject.name, *edge, ci.n if counting else 0))
            else:
                self.universals.setdefault(ci.subject.name, []).append(edge)

    def reached(self, graph: Graph) -> bool:
        """Does the closure of the label sets under the forced repairs reach a dead end?"""
        forced = {node: set(names) for node, names in graph._labels.items()}
        stack = [(node, name) for node, names in forced.items() for name in (None, *names)]
        while stack:
            node, name = stack.pop()
            names = forced[node]
            for premises, head in self.clauses.get(name, ()):
                if premises <= names and head not in names:
                    if head is None:
                        return True
                    names.add(head)
                    stack.append((node, head))
            for role_name, inverted, filler in self.universals.get(name, ()):
                for w in graph.successors_by_name(node, role_name, inverted):
                    if filler not in forced[w]:
                        forced[w].add(filler)
                        stack.append((w, filler))
        return any(
            subject in names
            and sum(filler in forced[w] for w in graph.successors_by_name(node, r, inv)) > bound
            for subject, r, inv, filler, bound in self.limits
            for node, names in forced.items()
        )


class _TBoxRules:
    """What every chase over one TBox derives from it alone: the compiled
    violation checks in repair order, the forced-repair dead ends (``None``
    when no state can reach one) and the TBox's concept and role names.
    Built once per :class:`NormalizedTBox` and cached on it (:func:`_rules_for`)."""

    def __init__(self, tbox: NormalizedTBox) -> None:
        self.categories = (
            ("clause", tbox.clauses, [_compile_clause(c) for c in tbox.clauses]),
            ("universal", tbox.universals,
             [_compile_successor_ci(c, "universal") for c in tbox.universals]),
            ("atmost", tbox.at_mosts,
             [_compile_successor_ci(c, "atmost") for c in tbox.at_mosts]),
            ("atleast", tbox.at_leasts,
             [_compile_successor_ci(c, "atleast") for c in tbox.at_leasts]),
        )
        dead_ends = _DeadEnds(tbox)
        self.dead_ends = dead_ends if dead_ends.limits or dead_ends.clashes else None
        self.concept_names = frozenset(tbox.concept_names())
        self.role_names = frozenset(tbox.role_names())


def _rules_for(tbox: NormalizedTBox) -> _TBoxRules:
    rules = vars(tbox).get("_chase_rules")
    if rules is None:
        rules = tbox._chase_rules = _TBoxRules(tbox)
    return rules


class CountermodelSearch:
    """One search instance; call :meth:`run`."""

    def __init__(
        self,
        tbox: NormalizedTBox,
        avoid: UCRPQ,
        seed: Graph,
        limits: Optional[SearchLimits] = None,
        allowed_types: Optional[Iterable[Type]] = None,
        type_signature: Optional[Sequence[str]] = None,
        allowed_roles: Optional[Iterable[str]] = None,
        pinned_nodes: Optional[object] = None,
        accept: Optional[callable] = None,
    ) -> None:
        self.accept = accept
        self.tbox = tbox
        self.avoid = avoid
        self.seed = seed
        self.limits = limits or SearchLimits()
        # pinned_nodes: either a dict node -> frozen label names, or an
        # iterable of nodes (then the full type signature is frozen)
        if pinned_nodes is None:
            self.pinned: dict[Node, Optional[frozenset[str]]] = {}
        elif isinstance(pinned_nodes, dict):
            self.pinned = {node: frozenset(names) for node, names in pinned_nodes.items()}
        else:
            self.pinned = {node: None for node in pinned_nodes}
        self._rules = _rules_for(tbox)
        self.allowed_types = list(allowed_types) if allowed_types is not None else None
        self.type_signature = (
            sorted(type_signature)
            if type_signature is not None
            else sorted(
                self._rules.concept_names
                | avoid.node_label_names()
                | seed.node_label_names()
            )
        )
        roles = (
            set(allowed_roles)
            if allowed_roles is not None
            else self._rules.role_names | avoid.role_names() | seed.role_names()
        )
        self.roles = sorted(roles)
        self.steps = 0
        self._fresh_counter = 0
        self.tt_hits = 0
        self.tt_misses = 0
        self.pruned = 0
        self._dead_ends = self._rules.dead_ends
        self._deadline = self.limits.deadline
        self._fault_step = faults.site_armed("search.step")
        self._evaluator: Optional[IncrementalUnionEvaluator] = None
        self._vcache: Optional[_ViolationCache] = None
        self._tt: Optional[set[tuple]] = None
        self._key_labels: dict[Node, frozenset] = {}
        self._key_edges: dict[tuple, frozenset] = {}
        self._key_edges_tuple: Optional[tuple] = None
        self._key_cursor = 0

    # ------------------------------------------------------------- #

    def run(self) -> SearchOutcome:
        with span(
            "search",
            seed_nodes=len(self.seed),
            incremental=self.limits.incremental,
        ) as sp:
            outcome = self._run()
            sp.set(
                found=outcome.found,
                exhausted=outcome.exhausted,
                steps=outcome.steps,
                tt_hits=outcome.tt_hits,
                tt_misses=outcome.tt_misses,
                pruned=outcome.pruned,
            )
            if outcome.deadline_expired:
                sp.set(deadline_expired=True)
        # the hot loop keeps plain local counters; totals flush to the
        # registry once per run (SearchOutcome keeps the per-run view)
        totals = {
            "search.runs": 1,
            "search.steps": outcome.steps,
            "search.tt_hits": outcome.tt_hits,
            "search.tt_misses": outcome.tt_misses,
            "search.pruned": outcome.pruned,
            "search.found": 1 if outcome.found else 0,
            "search.exhausted": 1 if outcome.exhausted else 0,
        }
        if outcome.deadline_expired:
            totals["search.deadline_expired"] = 1
        if self._evaluator is not None:
            for key, value in self._evaluator.stats().items():
                totals[f"incremental.{key}"] = value
        REGISTRY.inc_many(totals)
        return outcome

    def _run(self) -> SearchOutcome:
        graph = self.seed.copy()
        if self.limits.incremental:
            self._evaluator = IncrementalUnionEvaluator(graph, self.avoid)
            self._vcache = _ViolationCache(self._rules.categories, graph)
            self._tt = set()
            self._key_labels = {
                node: frozenset(names) for node, names in graph._labels.items()
            }
            self._key_edges = {
                (node, r_name): frozenset(targets)
                for node, by_role in graph._out.items()
                for r_name, targets in by_role.items()
                if targets
            }
            self._key_edges_tuple = None
            self._key_cursor = len(graph.journal)
        try:
            found, exhausted, expired = self._solve(graph, depth=0), True, False
        except _Budget:
            found, exhausted, expired = False, False, False
        except _Expired:
            found, exhausted, expired = False, False, True
        return SearchOutcome(
            graph if found else None, exhausted, self.steps, self.tt_hits,
            self.tt_misses, self.pruned, expired,
        )

    # ------------------------------------------------------------- #
    # incremental bookkeeping (no-ops when limits.incremental is off)

    def _checkpoint(self) -> Optional[tuple[int, int]]:
        if self._evaluator is None:
            return None
        return (self._evaluator.checkpoint(), self._vcache.checkpoint())

    def _rollback(self, token: Optional[tuple[int, int]]) -> None:
        if token is not None:
            self._evaluator.rollback(token[0])
            self._vcache.rollback(token[1])

    def _commit(self, token: Optional[tuple[int, int]]) -> None:
        if token is not None:
            self._evaluator.commit(token[0])
            self._vcache.commit(token[1])

    def _state_key(self, graph: Graph) -> tuple:
        """Exact, cheap key of the chase state.

        Equal keys imply *equal* graphs — same nodes in the same insertion
        order, same labels, same edge set — so an equal-key state provably
        repeats an already-explored subtree (pins, budgets, and fresh-node
        naming are functions of the instance plus the graph content).  The
        chase's branching blowup is dominated by permuted repair orders
        converging on the very same graph, which this key collapses; full
        isomorphism canonicalization (:func:`canonical_key`) would catch
        slightly more but costs more per step than it prunes.

        The two parts are maintained incrementally from the change journal
        (one frozenset rebuild per touched node / edge group instead of an
        O(graph) rebuild per step).  Each replayed entry recomputes its key
        from the *final* graph, so replay is idempotent and handles the
        managed rollback entries like any other mutation.  ``_key_labels``
        mirrors ``graph._labels``'s exact insert/delete sequence, so both
        dicts always iterate in the same order.
        """
        journal = graph.journal
        key_labels = self._key_labels
        key_edges = self._key_edges
        if self._key_cursor != len(journal):
            labels_of = graph._labels
            out = graph._out
            for entry in journal[self._key_cursor :]:
                kind = entry[0]
                if kind == "+label" or kind == "-label":
                    node = entry[1]
                    names = labels_of.get(node)
                    if names is not None:
                        key_labels[node] = frozenset(names)
                elif kind == "+edge" or kind == "-edge":
                    group = (entry[1], entry[2])
                    targets = out.get(entry[1], {}).get(entry[2])
                    if targets:
                        key_edges[group] = frozenset(targets)
                    else:
                        key_edges.pop(group, None)
                    self._key_edges_tuple = None
                elif kind == "+node":
                    node = entry[1]
                    if node in labels_of:
                        key_labels[node] = frozenset(labels_of[node])
                else:  # -node (labels drop silently; edges got -edge entries)
                    key_labels.pop(entry[1], None)
            self._key_cursor = len(journal)
        edges_tuple = self._key_edges_tuple
        if edges_tuple is None:
            edges_tuple = self._key_edges_tuple = tuple(key_edges.items())
        return (tuple(key_labels.items()), edges_tuple)

    # ------------------------------------------------------------- #
    # violations

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.limits.max_steps:
            raise _Budget()
        if self._fault_step:
            faults.maybe_fault("search.step")
        if self._deadline is not None and self._deadline.poll():
            raise _Expired()

    def _find_violation(self, graph: Graph) -> Optional[_Violation]:
        # 1. query matches (most constraining; handles permission granting)
        if self._evaluator is not None:
            hit = self._evaluator.find_union_match()
        else:
            hit = find_union_match(graph, self.avoid)
        if hit is not None:
            disjunct, match = hit
            return _Violation("query", None, match=match, disjunct=disjunct)
        if self._vcache is not None:
            return self._vcache.first_violation()
        # 2. clausal CIs
        for node in graph.node_list():
            for clause in self.tbox.clauses:
                if not clause.holds_at(graph, node):
                    return _Violation("clause", node, ci=clause)
        # 3. universals (forced repairs)
        for node in graph.node_list():
            for ci in self.tbox.universals:
                if not ci.holds_at(graph, node):
                    return _Violation("universal", node, ci=ci)
        # 4. at-most (dead ends)
        for node in graph.node_list():
            for ci in self.tbox.at_mosts:
                if not ci.holds_at(graph, node):
                    return _Violation("atmost", node, ci=ci)
        # 5. allowed-type completeness (prune handled separately; here we
        #    only check finality below)
        # 6. at-least (generative)
        for node in graph.node_list():
            for ci in self.tbox.at_leasts:
                if not ci.holds_at(graph, node):
                    return _Violation("atleast", node, ci=ci)
        return None

    def _dead_end(self, graph: Graph) -> bool:
        """Do this state's forced repairs already reach a dead end?"""
        return self._dead_ends is not None and self._dead_ends.reached(graph)

    def _types_ok_partial(self, graph: Graph, node: Node) -> bool:
        """Monotone prune: can this node's labels still grow into an allowed type?"""
        if self.allowed_types is None:
            return True
        positives = {
            name for name in self.type_signature if graph.has_label(node, name)
        }
        return any(positives <= theta.positive_names for theta in self.allowed_types)

    def _types_ok_final(self, graph: Graph) -> bool:
        if self.allowed_types is None:
            return True
        for node in graph.node_list():
            node_type = type_of(graph, node, self.type_signature)
            if not any(theta <= node_type for theta in self.allowed_types):
                return False
        return True

    # ------------------------------------------------------------- #
    # repairs

    _TT_MISS_CUTOFF = 512
    """Stop keying states once this many lookups have all missed: a search
    whose repair tree never revisits a state (e.g. monotone label chases
    with distinct head choices) would otherwise pay the per-step key build
    for nothing.  Disabling the table is always sound — it only ever
    *skips* re-exploration — so verdicts are unaffected."""

    def _solve(self, graph: Graph, depth: int) -> bool:
        self._tick()
        key = None
        if self._tt is not None:
            if self.tt_hits == 0 and self.tt_misses >= self._TT_MISS_CUTOFF:
                self._tt = None
            else:
                key = self._state_key(graph)
                if key in self._tt:
                    # an equal state was already fully explored and failed
                    self.tt_hits += 1
                    return False
                self.tt_misses += 1
        violation = self._find_violation(graph)
        if violation is None:
            if not self._types_ok_final(graph):
                result = False
            else:
                result = self.accept is None or bool(self.accept(graph))
        elif self._dead_end(graph):
            self.pruned += 1
            result = False
        else:
            handler = getattr(self, f"_repair_{violation.kind}")
            result = handler(graph, violation, depth)
        if self._tt is not None and not result:
            # only complete failures are recorded: a budget exhaustion
            # raises _Budget past this point, so partial explorations
            # never poison the table
            self._tt.add(key)
        return result

    def _with_label(self, graph: Graph, node: Node, name: str, depth: int) -> bool:
        if graph.has_label(node, name):
            return False
        if node in self.pinned:
            frozen = self.pinned[node]
            if frozen is None:
                frozen = frozenset(self.type_signature)
            if name in frozen:
                return False  # the node's type over these names is frozen
        token = self._checkpoint()
        graph.add_label(node, name)
        ok = self._types_ok_partial(graph, node) and self._solve(graph, depth + 1)
        if not ok:
            graph.remove_label(node, name)
            self._rollback(token)
        else:
            self._commit(token)
        return ok

    def _repair_query(self, graph: Graph, violation: _Violation, depth: int) -> bool:
        disjunct: CRPQ = violation.disjunct
        match = violation.match
        # destroy the match by granting a label some complement atom forbids
        for atom in sorted(disjunct.concept_atoms, key=str):
            if atom.label.negated:
                node = match[atom.variable]
                if self._with_label(graph, node, atom.label.name, depth):
                    return True
        return False

    def _repair_clause(self, graph: Graph, violation: _Violation, depth: int) -> bool:
        clause: ClauseCI = violation.ci
        for literal in sorted(clause.head, key=str):
            if not literal.negated:
                if self._with_label(graph, violation.node, literal.name, depth):
                    return True
        return False

    def _repair_universal(self, graph: Graph, violation: _Violation, depth: int) -> bool:
        ci: UniversalCI = violation.ci
        # forced: every offending successor must gain the filler label (or,
        # if the filler is negative, the branch is dead)
        offenders = [
            w
            for w in graph.successors(violation.node, ci.role)
            if not graph.has_label(w, ci.filler)
        ]
        if not offenders:
            return self._solve(graph, depth + 1)
        if ci.filler.negated:
            return False  # the successor HAS the complement label; unfixable
        return self._with_label(graph, sorted(offenders, key=repr)[0], ci.filler.name, depth)

    def _repair_atmost(self, graph: Graph, violation: _Violation, depth: int) -> bool:
        return False  # edges are never removed; over-count is terminal

    def _fresh_node_types(self, filler: NodeLabel) -> Iterator[frozenset[str]]:
        """Label sets to try for a fresh witness node, smallest first."""
        base: set[str] = set()
        if not filler.negated:
            base.add(filler.name)
        if self.allowed_types is None:
            yield frozenset(base)
            return
        # try each allowed type's positive part that is consistent with the
        # filler requirement, smallest first
        seen: set[frozenset[str]] = set()
        candidates = sorted(
            self.allowed_types, key=lambda t: (len(t.positive_names), str(t))
        )
        emitted = 0
        for theta in candidates:
            positives = frozenset(theta.positive_names | base)
            if filler.negated and filler.name in positives:
                continue
            if positives in seen:
                continue
            seen.add(positives)
            yield positives
            emitted += 1
            if emitted >= self.limits.max_fresh_types:
                return

    def _repair_atleast(self, graph: Graph, violation: _Violation, depth: int) -> bool:
        ci: AtLeastCI = violation.ci
        node = violation.node
        # (a) reuse: add an edge to an existing node carrying the filler
        for target in sorted(graph.node_list(), key=repr):
            if not graph.has_label(target, ci.filler):
                continue
            if target in graph.successors(node, ci.role):
                continue
            if self._with_edge(graph, node, ci.role, target, depth):
                return True
        # (b) promote: add the filler label to an existing r-successor
        if not ci.filler.negated:
            for target in sorted(graph.successors(node, ci.role), key=repr):
                if not graph.has_label(target, ci.filler):
                    if self._with_label(graph, target, ci.filler.name, depth):
                        return True
        # (c) generate: a fresh witness node
        if len(graph) < self.limits.max_nodes:
            for labels in self._fresh_node_types(ci.filler):
                fresh = ("w", self._fresh_counter)
                self._fresh_counter += 1
                token = self._checkpoint()
                graph.add_node(fresh, sorted(labels))
                if ci.role.inverted:
                    graph.add_edge(fresh, ci.role.base, node)
                else:
                    graph.add_edge(node, ci.role, fresh)
                if self._types_ok_partial(graph, fresh) and self._solve(graph, depth + 1):
                    self._commit(token)
                    return True
                graph.remove_node(fresh)
                self._rollback(token)
                self._fresh_counter -= 1
        return False

    def _with_edge(self, graph: Graph, source: Node, role: Role, target: Node, depth: int) -> bool:
        token = self._checkpoint()
        graph.add_edge(source, role, target)
        ok = self._solve(graph, depth + 1)
        if not ok:
            graph.remove_edge(source, role, target)
            self._rollback(token)
        else:
            self._commit(token)
        return ok

