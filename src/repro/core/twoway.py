"""Entailment of simple two-way queries in ALCQ — Section 6 / Appendix B.

Decides whether a type τ is realized in a finite graph that satisfies an
ALCQ TBox T, respects a set Θ of types, and refutes a simple connected
UC2RPQ Q modulo Σ₀-reachability (Q̂ with its Σ₀-reachability atoms dropped).
The original problem is recovered with Θ = {∅} and Σ₀ = Σ_T ∪ {fresh}.

The pipeline alternates two reductions until no roles remain:

* **P1 — entailment modulo Σ₀-reachability** (Lemma 6.3 / B.3): countermodels
  decompose into trees of strongly-connected components; within an SCC all
  Σ_T-reachability atoms hold trivially, so components only need to refute
  Q modulo Σ_T-reachability.  A least fixpoint grows the set Ψ of types
  realizable at component roots, using the ALCQ counter factorization
  (Γ_T, T_p, T_c): components satisfy T_p, connectors discharge the number
  restrictions their centre's counters leave open.

* **P2 — entailment modulo Σ_T-reachability** (Lemma 6.5 / B.6): components
  become *role-alternating* — each is an "r-node" component whose counted
  r-successors all live in connectors (counters C_{0,r,D} everywhere), and
  connectors are role-directed r-stars with (r-next)-typed leaves.  A
  greatest fixpoint eliminates types; productivity recurses into P1 with
  the role r dropped from the TBox — one role fewer, so the recursion
  terminates after 2·|Σ_T| alternations (Appendix B.7).

The no-roles base case (B.1) enumerates single-node graphs directly.

Everything is doubly exponential by design; ``TwoWayConfig`` carries the
budgets that keep accidental blow-ups from hanging the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement, product
from math import comb
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.core.search import SearchLimits
from repro.dl.fragments import ALCQFactorization, alcq_factorization
from repro.dl.normalize import NormalizedTBox
from repro.dl.types import clause_consistent
from repro.graphs.graph import Graph, single_node_graph
from repro.graphs.labels import NodeLabel, Role
from repro.graphs.types import Type
from repro.kernel.backend import resolve_backend
from repro.obs import REGISTRY, span
from repro.queries.atoms import PathAtom
from repro.queries.crpq import CRPQ
from repro.queries.evaluation import satisfies_union
from repro.queries.factorization import Factorization, factorize
from repro.queries.ucrpq import UCRPQ
from repro.resilience.deadline import Deadline

if TYPE_CHECKING:
    from repro.kernel.vec_fixpoint import PsiMaskAnswer

class ProcedureInfeasible(RuntimeError):
    """A type space or connector space exceeded the configured guard."""


class _DeadlineCut(Exception):
    """Internal: the config's wall-clock deadline expired mid-pipeline.

    Raised *before* any memo store, so partially-computed P1/P2/connector
    verdicts never pollute the cross-call memo; caught at the entry point
    and converted into an incomplete :class:`TwoWayResult`."""


@dataclass
class TwoWayConfig:
    limits: SearchLimits = field(default_factory=lambda: SearchLimits(max_nodes=5, max_steps=8000))
    max_types: int = 4096
    max_connector_candidates: int = 50_000
    max_leaves_per_constraint: Optional[int] = None
    """Defaults to N (the TBox's cardinality cap) when unset."""
    memo: dict = field(default_factory=dict)
    """Cross-call result cache (P1/P2/base-case/connector memoization, plus
    the shared per-context fixpoint Ψ sets the per-type oracles answer
    from)."""
    answers: dict = field(default_factory=dict)
    """Vectorized survivor indexes (:class:`PsiMaskAnswer`) keyed like the
    fixpoint-context memos; acceleration only — the frozenset Ψ stored in
    ``memo`` stays authoritative and the scalar fallback answers any type
    the index cannot cover."""
    counters: dict = field(default_factory=lambda: {
        "types_checked": 0, "cache_hits": 0, "witnesses_materialized": 0,
    })
    """Work counters accumulated across the pipeline, surfaced on the result."""
    backend: str = "auto"
    """Kernel backend for candidate enumeration (``"auto"``/``"bitset"``/
    ``"vec"``); auto-selected per fixpoint by candidate-space size."""
    top_psi: Optional[frozenset] = None
    """Survivors of the outermost P1 fixpoint from the last entry-point call
    (``None`` when that fixpoint was served from the memo)."""
    chosen_backend: str = "bitset"
    """The backend the outermost fixpoint actually resolved to."""


@dataclass
class TwoWayResult:
    realizable: bool
    complete: bool
    recursion_depth: int
    stats: dict = field(default_factory=dict)
    """Pipeline-wide counters: types checked, memo hits, and connector picks
    examined (``witnesses_materialized``)."""
    backend: str = "bitset"
    """Which kernel backend the outermost fixpoint ran on."""
    survivors: Optional[frozenset] = None
    """Outermost P1 fixpoint Ψ — identical across backends; ``None`` when
    the verdict came from the cross-call memo without re-running."""

    def __bool__(self) -> bool:
        return self.realizable


# --------------------------------------------------------------------- #
# Σ₀-reachability atoms


def _star_roles(atom: PathAtom) -> Optional[set[Role]]:
    """For a simple star atom (single-state automaton), its role set."""
    auto = atom.compiled.automaton
    if len(auto.states) != 1 or atom.compiled.pair.start != atom.compiled.pair.end:
        return None
    labels = {lbl for _s, lbl, _t in auto.transitions}
    if not all(isinstance(lbl, Role) for lbl in labels):
        return None
    return set(labels)  # type: ignore[return-value]


def is_reachability_atom(atom: PathAtom, sigma0: Iterable[str]) -> bool:
    """Is the atom a Σ₀-reachability atom: (r₁+…+r_k)* with {rᵢ} ⊇ Σ₀ or ⊇ Σ₀⁻?"""
    roles = _star_roles(atom)
    if roles is None:
        return False
    wanted = set(sigma0)
    forward = {r.name for r in roles if not r.inverted}
    backward = {r.name for r in roles if r.inverted}
    return wanted <= forward or wanted <= backward


def drop_reachability(query: UCRPQ, sigma0: Iterable[str]) -> UCRPQ:
    """Q mod Σ₀: every Σ₀-reachability atom removed from every disjunct."""
    sigma = set(sigma0)
    out = []
    for disjunct in query:
        kept = tuple(
            atom
            for atom in disjunct.atoms
            if not (isinstance(atom, PathAtom) and is_reachability_atom(atom, sigma))
        )
        out.append(CRPQ(kept, disjunct.isolated_variables | disjunct.variables))
    return UCRPQ.of(out)


# --------------------------------------------------------------------- #
# type enumeration over counter groups


def _type_space_size(
    free_names: Sequence[str], counter_groups: Sequence[Sequence[NodeLabel]]
) -> int:
    count = 1
    for group in counter_groups:
        count *= len(group)
    return (2 ** len(free_names)) * count


def _guard_type_space(total: int, max_types: int) -> None:
    if total > max_types:
        raise ProcedureInfeasible(
            f"type space of size {total} exceeds max_types={max_types}"
        )


def _enumerate_types(
    free_names: Sequence[str],
    counter_groups: Sequence[Sequence[NodeLabel]],
    max_types: int,
):
    """Maximal types over free names + one positive label per counter group.

    The exactly-one clauses of T_p make all other counter combinations
    inconsistent, so enumerating group choices directly avoids the 2^|Γ_T|
    blow-up the filter would otherwise wade through.

    :class:`repro.kernel.vec_fixpoint.TwowayVecEnumerator` materializes this
    exact sequence as bit-matrix rows; any change to the order here must be
    mirrored there.
    """
    _guard_type_space(_type_space_size(free_names, counter_groups), max_types)
    free_pairs = [
        (NodeLabel(name), NodeLabel(name, True)) for name in sorted(free_names)
    ]
    group_choices = [
        [
            tuple(label if label == pick else label.complement() for label in group)
            for pick in group
        ]
        for group in counter_groups
    ]
    for free_literals in product(*free_pairs):
        for picks in product(*group_choices):
            yield Type(chain(free_literals, *picks))


def _signature_names(
    tau: Type, tbox: NormalizedTBox, thetas: Iterable[Type], query: UCRPQ
) -> set[str]:
    names = {lbl.name for lbl in tau} | tbox.concept_names() | query.node_label_names()
    for theta in thetas:
        names |= {lbl.name for lbl in theta}
    return names


# --------------------------------------------------------------------- #
# connectors


def _build_star(center: Type, leaves: Sequence[tuple[Role, Type]]) -> Graph:
    star = Graph()
    centre = ("c", 0)
    star.add_node(centre, sorted(center.positive_names))
    for index, (role, leaf_type) in enumerate(leaves):
        leaf = ("l", index)
        star.add_node(leaf, sorted(leaf_type.positive_names))
        star.add_edge(centre, role, leaf)
    return star


def _connector_exists(
    center: Type,
    pool: Iterable[Type],
    connectors_tbox: NormalizedTBox,
    refute: UCRPQ,
    roles: Sequence[Role],
    max_leaves: int,
    max_candidates: int,
    memo: Optional[dict] = None,
    refute_tag: str = "",
    order: Optional[dict] = None,
    counters: Optional[dict] = None,
    deadline: Optional[Deadline] = None,
) -> bool:
    """Search for a connector: centre + leaves wired by ``roles``, centre
    satisfying T_c, the star refuting the query.

    Per Appendix A.2/B.3 it suffices to consider at most ``max_leaves``
    leaves per (role, filler) pair of T_c's participation constraints; leaf
    types must carry the filler.  T_c's fresh normalization names are placed
    on the candidate star via :meth:`NormalizedTBox.complete` before the
    centre's CIs are checked, so the check evaluates the original T_c.

    Each pick runs the cheapest exact test first.  Adding nodes and edges
    keeps every match of the query (no existing node's labels change), so a
    pick holding a leaf that matches the query together with the centre
    alone cannot refute it; the raw star's query test comes next, and only
    a refuting star is completed and checked against T_c.  The first
    accepted pick, and so the verdict, is the one the CI-check-first order
    finds.  ``counters["witnesses_materialized"]`` counts picks examined.

    ``order`` is an optional precomputed ``{type: str(type)}`` map so the
    candidate ordering does not re-render every type on every call.
    """
    memo_key = None
    if memo is not None:
        memo_key = (
            "conn", center, frozenset(pool), connectors_tbox.content_key(),
            tuple(str(r) for r in roles), refute_tag,
        )
        if memo_key in memo:
            if counters is not None:
                counters["cache_hits"] += 1
            return memo[memo_key]

    allowed = set(roles)
    pairs: list[tuple[Role, NodeLabel]] = []
    for ci in connectors_tbox.at_leasts:
        pair = (ci.role, ci.filler)
        if ci.role in allowed and pair not in pairs:
            pairs.append(pair)

    sort_key = order.__getitem__ if order is not None else str
    per_pair: list[list[Type]] = []
    for _role, filler in pairs:
        per_pair.append([
            theta
            for theta in sorted(pool, key=sort_key)
            if (filler in theta)
            or (filler.negated and filler.name not in theta.signature())
        ])

    # guard the pick space *before* materializing any bundle list: one
    # bundle list per pair holds the empty bundle plus every multiset of up
    # to max_leaves candidates
    total = 1
    for candidates in per_pair:
        n = len(candidates)
        total *= 1 + sum(comb(n + k - 1, k) for k in range(1, max_leaves + 1))
        if total > max_candidates:
            raise ProcedureInfeasible("connector candidate space too large")

    options: list[list[tuple]] = []
    for (role, _filler), candidates in zip(pairs, per_pair):
        bundles: list[tuple] = [()]
        for k in range(1, max_leaves + 1):
            for combo in combinations_with_replacement(candidates, k):
                bundles.append(tuple((role, theta) for theta in combo))
        options.append(bundles)

    matched_alone: dict[tuple[Role, Type], bool] = {}

    def matches_alone(leaf: tuple[Role, Type]) -> bool:
        hit = matched_alone.get(leaf)
        if hit is None:
            hit = satisfies_union(_build_star(center, [leaf]), refute)
            matched_alone[leaf] = hit
        return hit

    centre_node = ("c", 0)
    found = False
    for pick in product(*options) if options else [()]:
        if deadline is not None and deadline.poll():
            raise _DeadlineCut()
        if counters is not None:
            counters["witnesses_materialized"] += 1
        leaves: list[tuple[Role, Type]] = [leaf for bundle in pick for leaf in bundle]
        if any(matches_alone(leaf) for leaf in leaves):
            continue
        star = _build_star(center, leaves)
        if satisfies_union(star, refute):
            continue
        completed = connectors_tbox.complete(star)
        if not all(ci.holds_at(completed, centre_node) for ci in connectors_tbox.all_cis()):
            continue
        found = True
        break
    if memo is not None:
        memo[memo_key] = found
    return found


# --------------------------------------------------------------------- #
# the pipeline


def _base_case_no_roles(
    tau: Type,
    tbox: NormalizedTBox,
    thetas: frozenset[Type],
    avoid: UCRPQ,
    config: TwoWayConfig,
) -> bool:
    """Appendix B.1: single-isolated-node countermodels.

    All per-type checks except the final τ-refinement are independent of τ,
    so the surviving single-node types are computed once per
    ``(TBox, Θ, names)`` context and each τ in the batch answers with one
    refinement sweep over that set."""
    key = ("base", tau, tbox.content_key(), thetas)
    if key in config.memo:
        config.counters["cache_hits"] += 1
        return config.memo[key]
    names = tuple(sorted(_signature_names(tau, tbox, thetas, avoid)))
    ctx_key = ("basectx", tbox.content_key(), thetas, names)
    passing = config.memo.get(ctx_key)
    if passing is None:
        passing = _base_case_types(names, tbox, thetas, avoid, config)
        config.memo[ctx_key] = passing
    else:
        config.counters["cache_hits"] += 1
    result = any(tau <= sigma for sigma in passing)
    config.memo[key] = result
    return result


def _base_case_types(
    names: Sequence[str],
    tbox: NormalizedTBox,
    thetas: frozenset[Type],
    avoid: UCRPQ,
    config: TwoWayConfig,
) -> frozenset[Type]:
    """Single-node types over ``names`` respecting Θ, consistent with T,
    refuting the query, and free of at-least obligations.

    The maximal types respecting Θ are exactly the maximal extensions of
    Θ's members over the remaining names, so only those are enumerated,
    not all 2^|names| types."""
    if 2 ** len(names) > config.max_types:
        raise ProcedureInfeasible("base-case type space too large")
    literal_pairs = {name: (NodeLabel(name), NodeLabel(name, True)) for name in names}
    respecting: set[Type] = set()
    for theta in thetas:
        signature = theta.signature()
        if not signature <= literal_pairs.keys():
            continue  # no type over ``names`` refines θ
        rest = [pair for name, pair in literal_pairs.items() if name not in signature]
        for extension in product(*rest):
            respecting.add(Type(chain(theta, extension)))
    passing = []
    for sigma in respecting:
        if not clause_consistent(tbox, sigma):
            continue
        node_graph = single_node_graph(sorted(sigma.positive_names))
        if satisfies_union(node_graph, avoid):
            continue
        # role CIs: at-leasts are unsatisfiable on an isolated node
        if any(ci.subject in sigma for ci in tbox.at_leasts):
            continue
        passing.append(sigma)
    return frozenset(passing)


def vec_fallback_reason(
    free_names: Iterable[str],
    counter_groups: Iterable[Sequence[NodeLabel]],
) -> Optional[str]:
    """Why a candidate space cannot run on the vec enumerator — ``None``
    when it can.

    Negated counter labels are supported (complemented columns), so the
    only remaining obstruction is a *name collision*: a counter-label name
    repeated across the groups (or clashing with a free name) makes the
    per-name column ambiguous — and makes the scalar generator emit
    contradictory literal lists anyway.  The reason string feeds the
    ``kernel.backend.fallback.<reason>`` obs counters:

    * ``"negated_counters"`` — a collision involving a negated label (the
      residual negation shape the enumerator cannot encode);
    * ``"counter_collision"`` — a collision between positive labels.
    """
    seen = set(free_names)
    collisions: set[str] = set()
    negated_names: set[str] = set()
    for group in counter_groups:
        for label in group:
            if label.negated:
                negated_names.add(label.name)
            if label.name in seen:
                collisions.add(label.name)
            seen.add(label.name)
    if not collisions:
        return None
    return "negated_counters" if collisions & negated_names else "counter_collision"


def _resolve_with_reason(
    config: TwoWayConfig,
    free_names: Sequence[str],
    counter_groups: Sequence[Sequence[NodeLabel]],
    total: int,
) -> str:
    """Resolve the fixpoint backend, downgrading *before* the resolve when
    the candidate space cannot be vectorized — the reported backend and the
    ``kernel.backend.*`` counters must name the path that actually runs —
    and recording the downgrade reason on the obs registry."""
    reason = vec_fallback_reason(free_names, counter_groups)
    if reason is not None and config.backend != "bitset":
        REGISTRY.inc(f"kernel.backend.fallback.{reason}")
    return resolve_backend(config.backend if reason is None else "bitset", total)


def _any_refines(tau: Type, psi: Iterable[Type], answer) -> bool:
    """Does some σ ∈ Ψ refine τ?  The batched oracles' per-type answer —
    one vectorized sweep over the survivor index when it covers τ, the
    scalar scan otherwise (identical verdicts either way)."""
    if answer is not None and answer.covers(tau):
        return answer.any_refines(tau)
    return any(tau <= sigma for sigma in psi)


def _entailment_mod_reachability(
    tau: Type,
    tbox: NormalizedTBox,
    thetas: frozenset[Type],
    q_hat: UCRPQ,
    sigma0: frozenset[str],
    config: TwoWayConfig,
    depth: int,
) -> bool:
    """P1: is τ realized in a finite graph satisfying T, respecting Θ, and
    refuting Q modulo Σ₀-reachability?  (Lemma 6.3 / B.3.)

    τ only enters through its signature names and the final refinement
    check, so one least fixpoint per ``(TBox, Θ, Σ₀, names)`` context
    serves every type in a batch — the per-round oracle storm of the
    calling fixpoints collapses to membership lookups."""
    key = ("P1", tau, tbox.content_key(), thetas, sigma0)
    if key in config.memo:
        config.counters["cache_hits"] += 1
        return config.memo[key]
    sigma_t = frozenset(tbox.role_names())
    assert sigma_t <= sigma0, "Σ₀ must contain the TBox's roles"
    if not sigma_t:
        result = _base_case_no_roles(
            tau, tbox, thetas, drop_reachability(q_hat, sigma0), config
        )
    else:
        psi, answer = _p1_fixpoint(tau, tbox, thetas, q_hat, sigma0, config, depth)
        result = _any_refines(tau, psi, answer)
    config.memo[key] = result
    return result


def _factorization(
    tbox: NormalizedTBox, config: TwoWayConfig, depth: int
) -> ALCQFactorization:
    """(Γ_T, T_p, T_c) for ``tbox`` at ``depth``, built once per config:
    every P1/P2 context over one TBox and depth needs it, memo hit or not."""
    key = ("factorization", tbox.content_key(), depth)
    factor = config.memo.get(key)
    if factor is None:
        factor = config.memo[key] = alcq_factorization(tbox, tag=f"g{depth}")
    return factor


def _p1_fixpoint(
    tau: Type,
    tbox: NormalizedTBox,
    thetas: frozenset[Type],
    q_hat: UCRPQ,
    sigma0: frozenset[str],
    config: TwoWayConfig,
    depth: int,
) -> tuple[frozenset[Type], Optional[PsiMaskAnswer]]:
    """The shared P1 least fixpoint for one ``(TBox, Θ, Σ₀, names)``
    context: the set Ψ of types realizable at component roots."""
    sigma_t = frozenset(tbox.role_names())
    factor = _factorization(tbox, config, depth)
    counter_groups = [labels for labels in factor.counters.values()]
    counter_names = {lbl.name for group in counter_groups for lbl in group}
    free_names = sorted(
        _signature_names(tau, tbox, thetas, q_hat) - counter_names
    )
    ctx_key = ("P1ctx", tbox.content_key(), thetas, sigma0, tuple(free_names))
    cached = config.memo.get(ctx_key)
    if cached is not None:
        config.counters["cache_hits"] += 1
        psi, chosen = cached
        if depth == 0:
            config.top_psi = psi
            config.chosen_backend = chosen
        return psi, config.answers.get(ctx_key)

    q_mod_sigma0 = drop_reachability(q_hat, sigma0)
    roles = sorted(Role(name) for name in sigma_t)
    max_leaves = config.max_leaves_per_constraint or factor.cap

    total = _type_space_size(free_names, counter_groups)
    _guard_type_space(total, config.max_types)
    chosen = _resolve_with_reason(config, free_names, counter_groups, total)
    if depth == 0:
        config.chosen_backend = chosen
    if chosen == "vec":
        # one bulk sweep per filter over the whole candidate space, yielding
        # the same types in the same enumeration order as the generator
        from repro.kernel.vec_fixpoint import TwowayVecEnumerator

        enum = TwowayVecEnumerator(free_names, counter_groups)
        mask = enum.refines_any(thetas)
        mask &= enum.clause_mask(factor.components_tbox)
        candidates = enum.types_where(mask)
    else:
        candidates = [
            sigma
            for sigma in _enumerate_types(free_names, counter_groups, config.max_types)
            if any(theta <= sigma for theta in thetas)
            and clause_consistent(factor.components_tbox, sigma)
        ]
    str_key = {sigma: str(sigma) for sigma in candidates}
    deadline = config.limits.deadline
    psi: frozenset[Type] = frozenset()
    def fresh_connector(sigma: Type) -> bool:
        config.counters["types_checked"] += 1
        return _connector_exists(
            sigma, psi, factor.connectors_tbox, q_mod_sigma0, roles,
            max_leaves, config.max_connector_candidates,
            memo=config.memo, refute_tag=f"P1:{sorted(sigma0)}",
            order=str_key, counters=config.counters, deadline=deadline,
        )

    # least fixpoint over a growing Ψ with exact oracles: both checks are
    # monotone in their pool argument, so a type that entered Ψ stays in —
    # only the not-yet-established candidates need re-examination each round
    while True:
        if deadline is not None and deadline.expired():
            raise _DeadlineCut()
        established = psi
        psi_prime = frozenset(
            sigma
            for sigma in candidates
            if sigma in established or fresh_connector(sigma)
        )
        psi_next = frozenset(
            sigma
            for sigma in psi_prime
            if sigma in established
            or _entailment_mod_sigma_t(
                sigma, factor.components_tbox, psi_prime, q_hat, config, depth + 1
            )
        )
        if psi_next == psi:
            break
        psi = psi_next
    if depth == 0:
        config.top_psi = psi
    config.memo[ctx_key] = (psi, chosen)
    answer = None
    if chosen == "vec" and psi:
        from repro.kernel.vec_fixpoint import PsiMaskAnswer

        answer = PsiMaskAnswer(psi)
        config.answers[ctx_key] = answer
    return psi, answer


def _entailment_mod_sigma_t(
    tau: Type,
    tbox: NormalizedTBox,
    thetas: frozenset[Type],
    q_hat: UCRPQ,
    config: TwoWayConfig,
    depth: int,
) -> bool:
    """P2: entailment modulo Σ_T-reachability via role-alternating frames
    (Lemma 6.5 / B.6).

    Batched like P1: one greatest fixpoint per ``(TBox, Θ, names)``
    context, each τ answered by a refinement sweep over its survivors."""
    key = ("P2", tau, tbox.content_key(), thetas)
    if key in config.memo:
        config.counters["cache_hits"] += 1
        return config.memo[key]
    if not tbox.role_names():
        result = _base_case_no_roles(
            tau, tbox, thetas, drop_reachability(q_hat, frozenset()), config
        )
    else:
        psi, answer = _p2_fixpoint(tau, tbox, thetas, q_hat, config, depth)
        result = _any_refines(tau, psi, answer)
    config.memo[key] = result
    return result


def _p2_fixpoint(
    tau: Type,
    tbox: NormalizedTBox,
    thetas: frozenset[Type],
    q_hat: UCRPQ,
    config: TwoWayConfig,
    depth: int,
) -> tuple[frozenset[Type], Optional[PsiMaskAnswer]]:
    """The shared P2 greatest fixpoint for one ``(TBox, Θ, names)``
    context: the surviving role-alternating types."""
    sigma_t = sorted(tbox.role_names())
    factor = _factorization(tbox, config, depth)
    q_mod_sigma_t = drop_reachability(q_hat, sigma_t)
    role_labels = {r: NodeLabel(f"Crole_{r}") for r in sigma_t}
    counter_groups = list(factor.counters.values())
    counter_names = {lbl.name for group in counter_groups for lbl in group}
    free_names = sorted(
        (_signature_names(tau, tbox, thetas, q_hat) - counter_names)
        | {lbl.name for lbl in role_labels.values()}
    )
    ctx_key = ("P2ctx", tbox.content_key(), thetas, tuple(free_names))
    cached = config.memo.get(ctx_key)
    if cached is not None:
        config.counters["cache_hits"] += 1
        return cached, config.answers.get(ctx_key)
    max_leaves = config.max_leaves_per_constraint or factor.cap
    next_role = {r: sigma_t[(i + 1) % len(sigma_t)] for i, r in enumerate(sigma_t)}

    def role_of(sigma: Type) -> Optional[str]:
        """The unique r with C_r ∈ σ (role-alternating types)."""
        chosen = [r for r in sigma_t if role_labels[r] in sigma]
        return chosen[0] if len(chosen) == 1 else None

    def admissible(sigma: Type) -> bool:
        r = role_of(sigma)
        if r is None:
            return False
        # all zero-counters for role r present
        for (ci_role, filler), labels in factor.counters.items():
            if ci_role.name == r and labels[0] not in sigma:
                return False
        if not any(theta <= sigma for theta in thetas):
            return False
        return clause_consistent(factor.components_tbox, sigma)

    total = _type_space_size(free_names, counter_groups)
    _guard_type_space(total, config.max_types)
    chosen = _resolve_with_reason(config, free_names, counter_groups, total)
    if chosen == "vec":
        # the admissibility conjuncts as bulk masks: exactly one role label,
        # role r's zero-counters present, Θ-refinement, clause consistency
        from repro.kernel.vec_fixpoint import TwowayVecEnumerator

        enum = TwowayVecEnumerator(free_names, counter_groups)
        role_cols = {r: enum.positive_column(role_labels[r].name) for r in sigma_t}
        count = sum(col.astype("uint8") for col in role_cols.values())
        mask = count == 1
        for r in sigma_t:
            zero_req = enum.new_mask(True)
            for (ci_role, _filler), labels in factor.counters.items():
                if ci_role.name == r:
                    zero_req &= enum.positive_column(labels[0].name)
            mask &= ~role_cols[r] | zero_req
        mask &= enum.refines_any(thetas)
        mask &= enum.clause_mask(factor.components_tbox)
        candidates = enum.types_where(mask)
    else:
        candidates = [
            sigma
            for sigma in _enumerate_types(free_names, counter_groups, config.max_types)
            if admissible(sigma)
        ]
    str_key = {sigma: str(sigma) for sigma in candidates}
    deadline = config.limits.deadline
    reduced_tbox = {
        r: factor.components_tbox.restrict_roles(set(sigma_t) - {r}) for r in sigma_t
    }
    psi: frozenset[Type] = frozenset(candidates)
    # greatest fixpoint over a shrinking Ψ: a survivor's verdict depends only
    # on the pools of its own role (productivity) and the next role
    # (connector), so it is re-examined only when one of those pools shrank
    prev_by_role: dict[str, frozenset[Type]] = {}
    while True:
        by_role: dict[str, frozenset[Type]] = {
            r: frozenset(s for s in psi if role_of(s) == r) for r in sigma_t
        }
        changed = {r for r in sigma_t if by_role.get(r) != prev_by_role.get(r)}
        survivors: set[Type] = set()
        for sigma in sorted(psi, key=str_key.__getitem__):
            if deadline is not None and deadline.expired():
                raise _DeadlineCut()
            r = role_of(sigma)
            assert r is not None
            if prev_by_role and r not in changed and next_role[r] not in changed:
                survivors.add(sigma)
                config.counters["cache_hits"] += 1
                continue
            config.counters["types_checked"] += 1
            # productivity: recurse with role r dropped from the TBox
            productive = _entailment_mod_reachability(
                sigma,
                reduced_tbox[r],
                by_role[r],
                q_hat,
                frozenset(sigma_t),
                config,
                depth + 1,
            )
            if not productive:
                continue
            # role-directed connector: r-edges to (next-role)-typed leaves
            ok = _connector_exists(
                sigma,
                by_role[next_role[r]],
                factor.connectors_tbox,
                q_mod_sigma_t,
                [Role(r)],
                max_leaves,
                config.max_connector_candidates,
                memo=config.memo, refute_tag="P2",
                order=str_key, counters=config.counters, deadline=deadline,
            )
            if ok:
                survivors.add(sigma)
        if frozenset(survivors) == psi:
            break
        prev_by_role = by_role
        psi = frozenset(survivors)
        if not psi:
            break
    config.memo[ctx_key] = psi
    answer = None
    if chosen == "vec" and psi:
        from repro.kernel.vec_fixpoint import PsiMaskAnswer

        answer = PsiMaskAnswer(psi)
        config.answers[ctx_key] = answer
    return psi, answer


def realizable_refuting_twoway(
    tau: Type,
    tbox: NormalizedTBox,
    query: UCRPQ,
    factorization: Optional[Factorization] = None,
    config: Optional[TwoWayConfig] = None,
) -> TwoWayResult:
    """Is τ realized in a finite graph satisfying T (ALCQ) and refuting the
    simple connected UC2RPQ Q?  Entry point of the Section 6 pipeline."""
    if tbox.uses_inverse_roles():
        raise ValueError("the two-way procedure supports ALCQ TBoxes (no inverses)")
    if not query.is_simple():
        raise ValueError("the two-way procedure requires a simple UC2RPQ")
    config = config or TwoWayConfig()
    fact = factorization if factorization is not None else factorize(query)
    q_hat = fact.factored
    fresh_role = "zz_fresh"
    while fresh_role in tbox.role_names() | query.role_names():
        fresh_role += "_"
    sigma0 = frozenset(tbox.role_names()) | {fresh_role}
    # a caller-provided config may be reused across calls, so flush only
    # this call's counter growth to the registry
    counters_before = dict(config.counters)
    config.top_psi = None
    config.chosen_backend = "bitset"
    cut = False
    with span("elimination", procedure="twoway") as sp:
        try:
            realizable = _entailment_mod_reachability(
                tau, tbox, frozenset({Type()}), q_hat, sigma0, config, depth=0
            )
        except _DeadlineCut:
            # deadline expired mid-pipeline: surface a clean incomplete
            # "no countermodel found (yet)" answer instead of hanging
            cut = True
            realizable = False
        sp.set(
            realizable=realizable,
            deadline_cut=cut,
            backend=config.chosen_backend,
            **config.counters,
        )
    flush = {
        f"twoway.{key}": value - counters_before.get(key, 0)
        for key, value in config.counters.items()
    }
    flush["twoway.calls"] = 1
    if cut:
        flush["twoway.deadline_cut"] = 1
    REGISTRY.inc_many(flush)
    return TwoWayResult(
        realizable,
        complete=not cut,
        recursion_depth=2 * len(tbox.role_names()),
        stats=dict(config.counters),
        backend=config.chosen_backend,
        survivors=config.top_psi,
    )
