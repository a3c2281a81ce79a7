"""Entailment of one-way queries in ALCI — Section 5 / Appendix A.

Decides whether a type τ is realized in a finite graph that satisfies an
ALCI TBox T and *refutes* a connected UCRPQ Q (i.e. avoids the factorized
query Q̂).  The procedure is the greatest-fixpoint type elimination of
Appendix A.2 over *alternating frames*:

* countermodels decompose into uniformly *forward* (label C→) and *backward*
  components, alternating through directed connectors;
* a forward component provides its nodes' forward witnesses internally
  (TBox T→) and receives backward witnesses through connectors whose
  distinguished node satisfies T← with leaves of backward types — and
  symmetrically;
* the fixpoint Ψ keeps exactly the maximal types over Γ₀ (the labels of τ,
  T, Q̂, plus the direction label) realizable in such frames; τ is realizable
  iff some surviving type refines it.

Productivity of abstract components is decided by the chase engine of
:mod:`repro.core.search`; the search's step budget makes each oracle call
sound but possibly incomplete, which the result records.

The type space is 2^|Γ₀| — doubly exponential in the input overall, exactly
the complexity the paper predicts.  ``max_types`` guards against accidental
blow-ups; pass a hand-crafted factorization (e.g. the paper's Example 3.6)
to keep Γ₀ small.

The elimination itself runs as a dependency-tracking worklist on the bitset
kernel (:mod:`repro.kernel.bitset`): each survivor records the types its
productivity witness realizes and the leaf types of its connector, and is
re-examined only when one of those supporting types dies.  Because the
recorded witness graph remains a genuine witness as long as its support
survives, skipped re-checks are semantically exact — the fixpoint is the
same greatest fixpoint the round-based restart-the-world loop computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional

from repro.core.entailment import realizable_type
from repro.core.frames import ConcreteFrame, coil_frame
from repro.core.search import SearchLimits
from repro.dl.fragments import backward_projection, forward_projection
from repro.dl.normalize import AtLeastCI, ClauseCI, NormalizedTBox
from repro.graphs.graph import Graph, PointedGraph
from repro.graphs.labels import NodeLabel
from repro.graphs.types import Type, realized_types, type_of
from repro.kernel.backend import resolve_backend
from repro.kernel.bitset import compiled_clauses_for, inert_partition
from repro.obs import REGISTRY, span
from repro.queries.evaluation import satisfies_union
from repro.queries.factorization import Factorization, factorize
from repro.queries.ucrpq import UCRPQ

DIRECTION_LABEL = "Cdir"
"""The fresh node label C→ (its complement plays the role of C←)."""


class ProcedureInfeasible(RuntimeError):
    """The doubly-exponential type space exceeds the configured guard."""


@dataclass
class OneWayResult:
    realizable: bool
    iterations: int
    type_counts: list[int]
    complete: bool
    gamma: list[str] = field(default_factory=list)
    round_stats: list[dict] = field(default_factory=list)
    """Per-wave counters: types checked, productivity runs, cache hits,
    witnesses (component models + connector stars) materialized, eliminated."""
    backend: str = "bitset"
    """Which kernel backend ran the elimination (``"bitset"`` or ``"vec"``)."""
    survivors: frozenset = frozenset()
    """The surviving core types (fixpoint Ψ) — identical across backends;
    the A/B harness compares these directly."""

    def __bool__(self) -> bool:
        return self.realizable


def _direction_clause(forward: bool) -> ClauseCI:
    label = NodeLabel(DIRECTION_LABEL, negated=not forward)
    return ClauseCI(frozenset(), frozenset({label}))


def _is_forward(sigma: Type) -> bool:
    return NodeLabel(DIRECTION_LABEL) in sigma


def _materialize_connector(
    center: Type, witnesses: list[tuple[AtLeastCI, Type]]
) -> Graph:
    """A directed connector: centre of type ``center``; one leaf per
    participation constraint, wired backward→forward."""
    star = Graph()
    centre_node = ("c", 0)
    star.add_node(centre_node, sorted(center.positive_names))
    for index, (ci, leaf_type) in enumerate(witnesses):
        leaf = ("l", index)
        star.add_node(leaf, sorted(leaf_type.positive_names))
        # ci.role is inverted for a forward centre (incoming edges), forward
        # for a backward centre (outgoing edges); add_edge resolves inverses
        star.add_edge(centre_node, ci.role, leaf)
    return star


def _consistent_gamma_types(tbox: NormalizedTBox, gamma: Iterable[str]) -> set[Type]:
    """All clause-consistent maximal types over Γ₀, via the bitset kernel."""
    compiled = compiled_clauses_for(tbox, gamma)
    decode = compiled.kernel.decode
    return {decode(bits) for bits in compiled.consistent_bits()}


def realizable_refuting_oneway(
    tau: Type,
    tbox: NormalizedTBox,
    query: UCRPQ,
    factorization: Optional[Factorization] = None,
    limits: Optional[SearchLimits] = None,
    max_types: int = 4096,
    max_connector_candidates: int = 200_000,
    backend: str = "auto",
) -> OneWayResult:
    """Is τ realized in a finite graph satisfying T and refuting Q?

    T must be ALCI (no counting); Q must be a connected one-way UCRPQ.
    """
    with span("elimination", procedure="oneway") as sp:
        result = _realizable_refuting_oneway(
            tau,
            tbox,
            query,
            factorization=factorization,
            limits=limits,
            max_types=max_types,
            max_connector_candidates=max_connector_candidates,
            backend=backend,
        )
        sp.set(
            backend=result.backend,
            realizable=result.realizable,
            waves=result.iterations,
            initial_types=result.type_counts[0] if result.type_counts else 0,
            surviving_types=result.type_counts[-1] if result.type_counts else 0,
            complete=result.complete,
        )
    # per-wave dicts stay the authoritative per-call view (round_stats);
    # process totals accumulate on the registry
    totals = {"oneway.calls": 1, "oneway.waves": result.iterations}
    for stats in result.round_stats:
        for key, value in stats.items():
            totals[f"oneway.{key}"] = totals.get(f"oneway.{key}", 0) + value
    REGISTRY.inc_many(totals)
    return result


def _realizable_refuting_oneway(
    tau: Type,
    tbox: NormalizedTBox,
    query: UCRPQ,
    factorization: Optional[Factorization] = None,
    limits: Optional[SearchLimits] = None,
    max_types: int = 4096,
    max_connector_candidates: int = 200_000,
    backend: str = "auto",
) -> OneWayResult:
    if tbox.uses_counting():
        raise ValueError("the one-way procedure supports ALCI TBoxes (no counting)")
    if not query.is_one_way():
        raise ValueError("the one-way procedure requires a one-way UCRPQ")
    deadline = limits.deadline if limits is not None else None
    fact = factorization if factorization is not None else factorize(query)
    q_hat = fact.factored

    gamma = sorted(
        {DIRECTION_LABEL}
        | {lbl.name for lbl in tau}
        | tbox.concept_names()
        | q_hat.node_label_names()
    )
    if 2 ** len(gamma) > max_types:
        raise ProcedureInfeasible(
            f"type space 2^{len(gamma)} exceeds max_types={max_types}; "
            "use a smaller signature or a hand-crafted factorization"
        )

    # signature separation: names whose coupling component touches neither
    # τ, the query, the direction label, nor any role CI are *inert* — the
    # type space factors as (core types) × (inert assignments), eliminations
    # remove whole slabs, and witnesses lift by decorating nodes with any
    # consistent inert assignment.  Run the fixpoint over the core only and
    # multiply the counts back.
    seeds = (
        {DIRECTION_LABEL} | {lbl.name for lbl in tau} | q_hat.node_label_names()
    )
    core_names, inert_names, inert_scale = inert_partition(tbox, gamma, seeds)
    work_gamma = gamma
    work_tbox = tbox
    if inert_names:
        work_gamma = list(core_names)
        inert_set = set(inert_names)
        # inert-only clauses constrain the dropped factor; compiling them
        # over the core signature would mis-fold (their literals read as
        # absent labels), so strip them from the working TBox
        work_tbox = NormalizedTBox(
            clauses=[
                cl
                for cl in tbox.clauses
                if not all(l.name in inert_set for l in cl.body | cl.head)
            ],
            universals=list(tbox.universals),
            at_leasts=list(tbox.at_leasts),
            at_mosts=list(tbox.at_mosts),
            original=tbox.original,
            fresh_names=set(tbox.fresh_names),
            name=f"{tbox.name}_core",
        )
    chosen_backend = resolve_backend(backend, 2 ** len(work_gamma))
    if inert_scale == 0:
        # no consistent inert assignment: no consistent types at all
        return OneWayResult(False, 1, [0, 0], True, gamma, [], chosen_backend)

    t_fwd = forward_projection(work_tbox)
    t_bwd = backward_projection(work_tbox)
    component_tbox = {
        True: t_fwd.extend(clauses=[_direction_clause(True)], name="fwd_component"),
        False: t_bwd.extend(clauses=[_direction_clause(False)], name="bwd_component"),
    }
    connector_tbox = {True: t_bwd, False: t_fwd}
    # the projections copy T's clause list verbatim, and Γ₀ covers every
    # clause name — so clause CIs hold at any clause-consistent centre by
    # construction and only the role CIs need re-checking on candidate stars
    centre_role_cis = {
        side: list(ct.universals) + list(ct.at_leasts) + list(ct.at_mosts)
        for side, ct in connector_tbox.items()
    }

    # start from all clause-consistent maximal types (clause-inconsistent
    # ones are unrealizable in any T-model, a sound pre-elimination).  The
    # vec table enumerates the same compiled clauses in the same increasing
    # integer order, so both backends seed the identical Ψ.
    vt = None
    if chosen_backend == "vec":
        from repro.kernel.vec_fixpoint import OnewayVecTable

        vt = OnewayVecTable(work_tbox, work_gamma, DIRECTION_LABEL)
        psi = set(vt.types)
    else:
        psi = _consistent_gamma_types(work_tbox, work_gamma)
    if not psi:
        return OneWayResult(False, 1, [0, 0], True, gamma, [], chosen_backend)
    # precomputed total order: str-keying inside the loops would re-render
    # every type on every comparison
    str_key = {sigma: str(sigma) for sigma in psi}
    if vt is not None:
        vt.set_order(str_key)
    side_sets = {
        True: {s for s in psi if _is_forward(s)},
        False: {s for s in psi if not _is_forward(s)},
    }
    side_version = {True: 0, False: 0}

    complete = True
    type_counts: list[int] = [len(psi)]
    round_stats: list[dict] = []
    iterations = 0

    # productivity memo (retained across waves — a survivor re-checked with
    # an unchanged same-side set must not re-run the chase) plus witness
    # supports: the types each survivor's witnesses actually rely on
    productivity_cache: dict[tuple[Type, frozenset[Type]], tuple[bool, Optional[frozenset[Type]]]] = {}
    prod_support: dict[Type, frozenset[Type]] = {}
    conn_support: dict[Type, frozenset[Type]] = {}
    dependents: dict[Type, set[Type]] = {}
    # vec mirrors of the support sets as packed row bitsets: liveness of a
    # whole support collapses to one word-level subset test
    prod_support_packed: dict[Type, object] = {}
    conn_support_packed: dict[Type, object] = {}

    # per-(side version, filler) candidate lists, str-ordered once
    candidate_cache: dict[tuple, list[Type]] = {}

    def candidates_for(opposite_forward: bool, filler: NodeLabel) -> list[Type]:
        key = (opposite_forward, side_version[opposite_forward], filler)
        cached = candidate_cache.get(key)
        if cached is None:
            if vt is not None:
                cached = vt.candidates(opposite_forward, filler)
            else:
                pool = sorted(side_sets[opposite_forward], key=str_key.__getitem__)
                cached = [
                    theta
                    for theta in pool
                    if (filler in theta)
                    or (filler.negated and filler.name not in theta.signature())
                ]
            candidate_cache[key] = cached
        return cached

    def support_alive(
        support: frozenset, packed, pool: set, side_forward: bool
    ) -> bool:
        """Is every supporting type still in the pool?  Component witnesses
        only realize same-side types (the direction clause forces the side)
        and connector leaves come from the opposite pool, so pool membership
        reduces to aliveness — which the vec path tests on packed rows."""
        if vt is not None:
            return vt.all_alive(packed)
        return support <= pool

    def productive(sigma: Type, stats: dict) -> bool:
        nonlocal complete
        forward = _is_forward(sigma)
        same = side_sets[forward]
        support = prod_support.get(sigma)
        if support is not None and support_alive(
            support, prod_support_packed.get(sigma), same, forward
        ):
            # the recorded witness component only realizes surviving types,
            # so it is still a witness — no re-run needed
            stats["cache_hits"] += 1
            return True
        same_frozen = frozenset(same)
        key = (sigma, same_frozen)
        cached = productivity_cache.get(key)
        if cached is not None:
            stats["cache_hits"] += 1
            found, support = cached
        else:
            stats["productivity_runs"] += 1
            outcome = realizable_type(
                sigma,
                component_tbox[forward],
                q_hat,
                allowed_types=same_frozen,
                type_signature=work_gamma,
                limits=limits,
            )
            if not outcome.found and not outcome.exhausted:
                complete = False
            support = None
            if outcome.found:
                stats["witnesses_materialized"] += 1
                support = frozenset(realized_types(outcome.countermodel, work_gamma))
            found = outcome.found
            productivity_cache[key] = (found, support)
        if found and support is not None:
            prod_support[sigma] = support
            if vt is not None:
                prod_support_packed[sigma] = vt.pack_types(support)
            for theta in support:
                dependents.setdefault(theta, set()).add(sigma)
        return found

    def connector_exists(sigma: Type, stats: dict) -> bool:
        """A directed connector refuting Q with centre σ satisfying the
        opposite-side TBox, leaves typed from the opposite side of Ψ."""
        forward = _is_forward(sigma)
        support = conn_support.get(sigma)
        if support is not None and support_alive(
            support, conn_support_packed.get(sigma), side_sets[not forward], not forward
        ):
            stats["cache_hits"] += 1
            return True
        side_tbox = connector_tbox[forward]
        applicable = [ci for ci in side_tbox.at_leasts if ci.subject in sigma]
        # candidate leaf types per constraint (must carry the filler)
        options: list[list[Type]] = []
        for ci in applicable:
            candidates = candidates_for(not forward, ci.filler)
            # with counting disallowed (ALCI), one witness per constraint
            # suffices, but it must exist
            if not candidates:
                return False
            options.append(candidates)
        total = 1
        for candidates in options:
            total *= len(candidates)
            if total > max_connector_candidates:
                raise ProcedureInfeasible("connector candidate space too large")
        centre = ("c", 0)
        for pick in product(*options) if options else [()]:
            star = _materialize_connector(sigma, list(zip(applicable, pick)))
            stats["witnesses_materialized"] += 1
            if not all(ci.holds_at(star, centre) for ci in centre_role_cis[forward]):
                continue
            if satisfies_union(star, q_hat):
                continue
            leaves = frozenset(pick)
            conn_support[sigma] = leaves
            if vt is not None:
                conn_support_packed[sigma] = vt.pack_types(leaves)
            for theta in leaves:
                dependents.setdefault(theta, set()).add(sigma)
            return True
        return False

    deadline_cut = False
    pending = sorted(psi, key=str_key.__getitem__)
    while pending:
        iterations += 1
        stats = {
            "checked": 0,
            "productivity_runs": 0,
            "cache_hits": 0,
            "witnesses_materialized": 0,
            "eliminated": 0,
        }
        eliminated_now: list[Type] = []
        with span("wave", index=iterations, pending=len(pending)) as wave_sp:
            for sigma in pending:
                if deadline is not None and deadline.expired():
                    deadline_cut = True
                    break
                if sigma not in psi:
                    continue
                stats["checked"] += 1
                if productive(sigma, stats) and connector_exists(sigma, stats):
                    continue
                psi.discard(sigma)
                side_sets[_is_forward(sigma)].discard(sigma)
                side_version[_is_forward(sigma)] += 1
                if vt is not None:
                    vt.eliminate(sigma)
                eliminated_now.append(sigma)
            stats["eliminated"] = len(eliminated_now)
            wave_sp.set(**stats)
        type_counts.append(len(psi))
        round_stats.append(stats)
        if deadline_cut:
            # the fixpoint was cut mid-wave: psi over-approximates the true
            # survivors, so the (possibly-realizable) answer is incomplete
            complete = False
            REGISTRY.inc("oneway.deadline_cut")
            break
        if not psi:
            break
        affected: set[Type] = set()
        for theta in eliminated_now:
            affected |= dependents.pop(theta, set())
        pending = sorted(
            (s for s in affected if s in psi), key=str_key.__getitem__
        )

    if vt is not None:
        realizable = vt.any_alive_refining(tau)
    else:
        realizable = any(tau <= sigma for sigma in psi)
    if inert_scale != 1:
        type_counts = [count * inert_scale for count in type_counts]
    return OneWayResult(
        realizable,
        iterations,
        type_counts,
        complete,
        gamma,
        round_stats,
        chosen_backend,
        frozenset(psi),
    )


def synthesize_countermodel_oneway(
    tau: Type,
    tbox: NormalizedTBox,
    query: UCRPQ,
    factorization: Optional[Factorization] = None,
    limits: Optional[SearchLimits] = None,
    max_types: int = 4096,
    coil_recall: Optional[int] = None,
    backend: str = "auto",
) -> Optional[Graph]:
    """Build a *verified* finite graph realizing τ, satisfying T, refuting Q
    — the constructive right-to-left direction of Lemma 5.3.

    Runs the fixpoint, materializes witnessing components for the surviving
    types, wires them into an alternating concrete frame following each
    type's connector, and — when the raw frame still matches Q̂ — applies the
    Lemma 4.3 coil restructuring.  The result is re-verified (T model check,
    Q and Q̂ evaluation, τ realization) before being returned; ``None`` means
    τ is not realizable (or synthesis exceeded its budgets).
    """
    if tbox.uses_counting():
        raise ValueError("the one-way procedure supports ALCI TBoxes (no counting)")
    fact = factorization if factorization is not None else factorize(query)
    q_hat = fact.factored
    gamma = sorted(
        {DIRECTION_LABEL}
        | {lbl.name for lbl in tau}
        | tbox.concept_names()
        | q_hat.node_label_names()
    )

    t_fwd = forward_projection(tbox)
    t_bwd = backward_projection(tbox)
    component_tbox = {
        True: t_fwd.extend(clauses=[_direction_clause(True)], name="fwd_component"),
        False: t_bwd.extend(clauses=[_direction_clause(False)], name="bwd_component"),
    }
    connector_tbox = {True: t_bwd, False: t_fwd}

    # fixpoint (re-run to obtain the surviving type set)
    result = realizable_refuting_oneway(
        tau,
        tbox,
        query,
        factorization=fact,
        limits=limits,
        max_types=max_types,
        backend=backend,
    )
    if not result.realizable:
        return None

    # recompute Ψ and keep witnesses + connector choices per type.  When the
    # fixpoint completed and exposed its survivor set over the full Γ, seed
    # Ψ directly from it — the stable-elimination loop below re-derives every
    # witness anyway, so the unrestricted per-type realizability scan over
    # all of Γ₀'s consistent types is redundant work
    gamma_set = set(gamma)
    seeded = (
        result.complete
        and result.survivors is not None
        and all(s.signature() == gamma_set for s in result.survivors)
    )
    witnesses: dict[Type, Graph] = {}
    if seeded:
        psi: set[Type] = set(result.survivors)
        str_key = {sigma: str(sigma) for sigma in psi}
    else:
        all_types = _consistent_gamma_types(tbox, gamma)
        str_key = {sigma: str(sigma) for sigma in all_types}
        psi = set()
        for sigma in sorted(all_types, key=str_key.__getitem__):
            outcome = realizable_type(
                sigma,
                component_tbox[_is_forward(sigma)],
                q_hat,
                type_signature=gamma,
                limits=limits,
            )
            if outcome.found:
                psi.add(sigma)
                witnesses[sigma] = outcome.countermodel
    by_key = str_key.__getitem__
    def connector_witness(sigma: Type, pool: set[Type]) -> Optional[list[tuple[AtLeastCI, Type]]]:
        """One leaf-type choice per applicable opposite-side constraint."""
        side_tbox = connector_tbox[_is_forward(sigma)]
        opposite = [s for s in sorted(pool, key=by_key) if _is_forward(s) != _is_forward(sigma)]
        applicable = [ci for ci in side_tbox.at_leasts if ci.subject in sigma]
        choices: list[list[Type]] = []
        for ci in applicable:
            candidates = [theta for theta in opposite if ci.filler in theta]
            if not candidates:
                return None
            choices.append(candidates)
        for pick in product(*choices) if choices else [()]:
            star = _materialize_connector(sigma, list(zip(applicable, pick)))
            centre = ("c", 0)
            if not all(ci.holds_at(star, centre) for ci in side_tbox.all_cis()):
                continue
            if satisfies_union(star, q_hat):
                continue
            return list(zip(applicable, pick))
        return None

    # iterate elimination consistently with the fixpoint: a type survives
    # only with a witnessing component (respecting Ψ) AND a connector
    connectors: dict[Type, list] = {}
    while True:
        stable = True
        connectors = {}
        for sigma in sorted(psi, key=by_key):
            same = frozenset(s for s in psi if _is_forward(s) == _is_forward(sigma))
            outcome = realizable_type(
                sigma,
                component_tbox[_is_forward(sigma)],
                q_hat,
                allowed_types=same,
                type_signature=gamma,
                limits=limits,
            )
            chosen = connector_witness(sigma, psi) if outcome.found else None
            if outcome.found and chosen is not None:
                witnesses[sigma] = outcome.countermodel
                connectors[sigma] = chosen
            else:
                psi.discard(sigma)
                stable = False
                break
        if stable:
            break
    start = next((sigma for sigma in sorted(psi, key=by_key) if tau <= sigma), None)
    if start is None:
        return None

    # assemble the alternating concrete frame: one component copy per
    # (type, incident role) so that the "(v,r) and (v,s) have different
    # targets" frame condition holds by construction
    role_tags = sorted(
        {str(ci.role) for chosen in connectors.values() for ci, _theta in chosen}
    )
    tags = ["root"] + role_tags
    frame = ConcreteFrame({})
    for index, sigma in enumerate(sorted(psi, key=by_key)):
        witness = witnesses[sigma]
        for tag in tags:
            copy = witness.relabel_nodes(lambda v, i=index, t=tag: ("cmp", i, t, v))
            frame.add_component(
                (sigma, tag), PointedGraph(copy, ("cmp", index, tag, ("tau", 0)))
            )
    for sigma in sorted(psi, key=by_key):
        for tag in tags:
            component = frame.components[(sigma, tag)].graph
            for node in component.node_list():
                node_type = type_of(component, node, gamma)
                if node_type not in connectors:
                    return None  # witness realized a type outside Ψ (budget artefact)
                seen: set[tuple] = set()
                for ci, theta in connectors[node_type]:
                    key = (str(ci.role), theta)
                    if key in seen:
                        continue
                    seen.add(key)
                    frame.add_edge((sigma, tag), node, ci.role, (theta, str(ci.role)))
    frame.validate()

    recall = coil_recall if coil_recall is not None else max(
        2, max((d.size() for d in q_hat.disjuncts), default=1) + 2
    )
    for candidate_frame in (frame, coil_frame(frame, recall)):
        graph = candidate_frame.represented_graph()
        if not tbox.satisfied_by(graph):
            continue
        if satisfies_union(graph, q_hat) or satisfies_union(graph, query):
            continue
        if not any(tau.holds_at(graph, v) for v in graph.node_list()):
            continue
        return graph
    return None
