"""Containment → finite entailment — the Section 3 reduction.

The criterion (end of Section 3): p ⊄_T Q iff there is a |p|-sparse graph
H₀ with

* H₀ ⊨ p,  H₀ ⊨ T₀ (T without participation constraints),  H₀ ⊭ Q̂,
* every node violating a participation constraint of T has a type from
  Tp(T, Q̂) — the maximal types realizable in finite T-models refuting Q̂ —
  and only one incident edge (and, for ALCQ, no outgoing edges).

Tp membership is decided by per-type finite-entailment calls
(:func:`repro.core.entailment.realizable_type`); a successful H₀ is then
expanded into a *verified* star-like countermodel per Lemma 3.5 by gluing
the per-type witnessing models onto the violating nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.baseline import expansions
from repro.core.entailment import realizable_type
from repro.core.search import CountermodelSearch, SearchLimits, SearchOutcome
from repro.core.starlike import Attachment, StarLikeGraph
from repro.dl.normalize import NormalizedTBox
from repro.graphs.graph import Graph, Node
from repro.graphs.types import Type, type_of
from repro.kernel.memo import BoundedMemo
from repro.obs import REGISTRY, span
from repro.queries.crpq import CRPQ
from repro.queries.evaluation import satisfies, satisfies_union
from repro.queries.factorization import Factorization, factorize
from repro.queries.ucrpq import UCRPQ


@dataclass
class ReductionConfig:
    max_word_length: int = 4
    max_expansions: int = 200
    central_limits: SearchLimits = field(
        default_factory=lambda: SearchLimits(max_nodes=48, max_steps=30_000)
    )
    peripheral_limits: SearchLimits = field(
        default_factory=lambda: SearchLimits(max_nodes=8, max_steps=20_000)
    )
    use_tp_memo: bool = True
    """Share Tp verdicts across decisions with structurally equal inputs."""


def query_key(query: UCRPQ) -> tuple:
    """A canonical, hashable key for a UCRPQ (atoms + isolated variables).

    Computed once per query object and cached on it (queries are frozen),
    the way :meth:`NormalizedTBox.content_key` caches the schema side."""
    cached = getattr(query, "_query_key", None)
    if cached is None:
        cached = tuple(
            (
                tuple(str(atom) for atom in disjunct.atoms),
                tuple(sorted(str(v) for v in disjunct.isolated_variables)),
            )
            for disjunct in query
        )
        object.__setattr__(query, "_query_key", cached)
    return cached


_TP_MEMO = BoundedMemo(max_entries=4096, name="tp_oracle")
"""Cross-decision Tp cache: workloads re-deciding structurally equal
(T, Q̂) pairs (keyed via :meth:`NormalizedTBox.content_key`) reuse per-type
entailment verdicts and their witnessing models."""


@dataclass
class ReductionResult:
    contained: bool
    complete: bool
    countermodel: Optional[Graph]
    star: Optional[StarLikeGraph]
    seeds_tried: int
    entailment_calls: int

    def __bool__(self) -> bool:
        return self.contained


class _TpOracle:
    """Lazily decides τ ∈ Tp(T, Q̂), caching witnessing models.

    Verdicts are additionally shared through the module-level
    :data:`_TP_MEMO`, so a workload deciding many containments against the
    same schema pays for each (τ, T, Q̂) entailment once.  ``calls`` counts
    oracle queries per unique τ (memo hits included); ``computed`` counts
    actual chase runs.
    """

    def __init__(
        self,
        tbox: NormalizedTBox,
        q_hat: UCRPQ,
        limits: SearchLimits,
        use_memo: bool = True,
    ) -> None:
        self.tbox = tbox
        self.q_hat = q_hat
        self.limits = limits
        self.cache: dict[Type, SearchOutcome] = {}
        self.calls = 0
        self.computed = 0
        self.uncertain = False
        self._memo_prefix = (
            (tbox.content_key(), query_key(q_hat),
             limits.max_nodes, limits.max_steps, limits.max_fresh_types,
             limits.incremental)
            if use_memo
            else None
        )

    def _outcome(self, tau: Type) -> SearchOutcome:
        memo_key = None
        if self._memo_prefix is not None:
            memo_key = (*self._memo_prefix, tau)
            cached = _TP_MEMO.get(memo_key)
            if cached is not None:
                return cached
        self.computed += 1
        with span("elimination", procedure="tp", type=str(tau)) as sp:
            outcome = realizable_type(tau, self.tbox, self.q_hat, limits=self.limits)
            sp.set(found=outcome.found, exhausted=outcome.exhausted)
        if memo_key is not None:
            _TP_MEMO.put(memo_key, outcome)
        return outcome

    def witness(self, tau: Type) -> Optional[Graph]:
        if tau not in self.cache:
            self.calls += 1
            outcome = self._outcome(tau)
            if not outcome.found and not outcome.exhausted:
                self.uncertain = True
            self.cache[tau] = outcome
        return self.cache[tau].countermodel


def contains_via_reduction(
    lhs: CRPQ,
    rhs: UCRPQ,
    tbox: NormalizedTBox,
    factorization: Optional[Factorization] = None,
    config: Optional[ReductionConfig] = None,
) -> ReductionResult:
    """Decide p ⊆_T Q through the star-like countermodel criterion.

    The TBox must be ALCI or ALCQ (Lemma 3.5's hypotheses); a "not
    contained" answer comes with a fully verified star-like countermodel.
    """
    with span("reduction") as sp:
        result = _contains_via_reduction(lhs, rhs, tbox, factorization, config)
        sp.set(
            contained=result.contained,
            complete=result.complete,
            seeds_tried=result.seeds_tried,
            entailment_calls=result.entailment_calls,
        )
    REGISTRY.inc_many(
        {
            "reduction.calls": 1,
            "reduction.seeds_tried": result.seeds_tried,
            "reduction.entailment_calls": result.entailment_calls,
        }
    )
    return result


def _contains_via_reduction(
    lhs: CRPQ,
    rhs: UCRPQ,
    tbox: NormalizedTBox,
    factorization: Optional[Factorization] = None,
    config: Optional[ReductionConfig] = None,
) -> ReductionResult:
    if tbox.uses_inverse_roles() and tbox.uses_counting():
        raise ValueError("Lemma 3.5 requires an ALCI or ALCQ TBox (no mixing)")
    config = config or ReductionConfig()
    fact = factorization if factorization is not None else factorize(rhs)
    q_hat = fact.factored
    t_zero = tbox.without_participation()
    alcq_mode = tbox.uses_counting()
    signature = sorted(tbox.concept_names() | q_hat.node_label_names())
    oracle = _TpOracle(
        tbox, q_hat, config.peripheral_limits, use_memo=config.use_tp_memo
    )

    def violating_nodes(graph: Graph) -> list[Node]:
        nodes = []
        for node in graph.node_list():
            if any(not ci.holds_at(graph, node) for ci in tbox.at_leasts):
                nodes.append(node)
        return nodes

    def acceptable(graph: Graph) -> bool:
        for node in violating_nodes(graph):
            if graph.degree(node) > 1:
                return False
            if alcq_mode and any(
                graph.successors(node, r) for r in graph.role_names()
            ):
                return False
            tau = type_of(graph, node, signature)
            if oracle.witness(tau) is None:
                return False
        return True

    deadline = config.central_limits.deadline
    seeds = 0
    for expansion in expansions(lhs, config.max_word_length, config.max_expansions):
        if deadline is not None and deadline.expired():
            # cut: "contained so far", explicitly incomplete
            REGISTRY.inc("reduction.deadline_cut")
            return ReductionResult(True, False, None, None, seeds, oracle.calls)
        seeds += 1
        with span("expansion", index=seeds) as exp_sp:
            search = CountermodelSearch(
                t_zero,
                q_hat,
                expansion.graph,
                limits=config.central_limits,
                accept=acceptable,
            )
            outcome = search.run()
            exp_sp.set(found=outcome.found)
        if not outcome.found:
            continue
        central = outcome.countermodel
        star = _assemble_star(central, violating_nodes(central), signature, oracle)
        assembled = star.assemble()
        # full verification of the Lemma 3.5 countermodel
        if not tbox.satisfied_by(assembled):
            continue  # assembly failed a side condition; try other seeds
        if not satisfies(assembled, lhs):
            continue
        if satisfies_union(assembled, rhs):
            continue
        return ReductionResult(
            False, True, assembled, star, seeds, oracle.calls
        )
    # a positive (contained) verdict is bounded by the expansion budget and
    # the chase budgets, so it is never reported as certain
    return ReductionResult(True, False, None, None, seeds, oracle.calls)


def _assemble_star(
    central: Graph,
    violating: list[Node],
    signature: list[str],
    oracle: _TpOracle,
) -> StarLikeGraph:
    """Lemma 3.5: glue a Tp-witness model onto every violating node."""
    attachments = []
    for node in violating:
        tau = type_of(central, node, signature)
        witness = oracle.witness(tau)
        assert witness is not None, "acceptable() guaranteed a witness"
        # the witness realizes τ at its pinned seed node ("tau", 0); labels
        # must match the central node's exactly for the star-like gluing
        shared = ("tau", 0)
        peripheral = witness.copy()
        for name in central.labels_of(node):
            if not peripheral.has_label(shared, name):
                peripheral.add_label(shared, name)
        attachments.append(Attachment(peripheral, shared, node))
    return StarLikeGraph(central, attachments)
