"""Section 6: the two-way pipeline (reachability relativization, counter
factorization, role-alternating frames, role-elimination recursion)."""

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import SearchLimits
from repro.core.twoway import (
    ProcedureInfeasible,
    TwoWayConfig,
    _base_case_types,
    _build_star,
    _connector_exists,
    _enumerate_types,
    _signature_names,
    drop_reachability,
    is_reachability_atom,
    realizable_refuting_twoway,
)
from repro.dl.normalize import normalize
from repro.dl.tbox import TBox
from repro.dl.types import clause_consistent
from repro.graphs.graph import single_node_graph
from repro.graphs.labels import NodeLabel
from repro.graphs.types import Type, maximal_types
from repro.kernel.vec import HAVE_NUMPY
from repro.queries.evaluation import satisfies_union
from repro.queries.parser import parse_query


def config():
    return TwoWayConfig(max_types=500_000, max_connector_candidates=500_000)


class TestReachabilityAtoms:
    def test_classification(self):
        q = parse_query("(r|s)*(x,y), r(y,z), (r)*(x,z)")
        atoms = q.disjuncts[0].path_atoms
        assert is_reachability_atom(atoms[0], {"r", "s"})
        assert not is_reachability_atom(atoms[1], {"r", "s"})
        assert not is_reachability_atom(atoms[2], {"r", "s"})
        assert is_reachability_atom(atoms[2], {"r"})

    def test_backward_reachability(self):
        q = parse_query("(r-|s-)*(x,y)")
        assert is_reachability_atom(q.disjuncts[0].path_atoms[0], {"r", "s"})

    def test_mixed_directions_not_reachability(self):
        q = parse_query("(r|s-)*(x,y)")
        assert not is_reachability_atom(q.disjuncts[0].path_atoms[0], {"r", "s"})

    def test_drop_keeps_variables(self):
        q = parse_query("(r|s)*(x,y), A(x)")
        dropped = drop_reachability(q, {"r", "s"})
        assert dropped.disjuncts[0].variables == {"x", "y"}
        assert len(dropped.disjuncts[0].path_atoms) == 0


class TestDecisions:
    def test_forced_single_edge(self):
        tbox = normalize(TBox.of([("A", "exists r.B")]))
        q = parse_query("A(x), r(x,y), B(y)")
        assert not realizable_refuting_twoway(Type.of("A"), tbox, q, config=config()).realizable
        assert realizable_refuting_twoway(Type.of("B"), tbox, q, config=config()).realizable

    def test_unforced_label(self):
        tbox = normalize(TBox.of([("A", "exists r.B")]))
        q = parse_query("A(x), r(x,y), C(y)")
        assert realizable_refuting_twoway(Type.of("A"), tbox, q, config=config()).realizable

    def test_counting_constraints(self):
        tbox = normalize(TBox.of([("A", ">=2 r.B"), ("A", "<=2 r.B")]))
        q = parse_query("B(x), r(x,y)")
        result = realizable_refuting_twoway(Type.of("A"), tbox, q, config=config())
        assert result.realizable  # B-witnesses need no outgoing edges

    def test_empty_tbox_base_case(self):
        tbox = normalize(TBox.empty())
        q = parse_query("A(x), r(x,y), B(y)")
        assert realizable_refuting_twoway(Type.of("A"), tbox, q, config=config()).realizable

    def test_unsatisfiable_type(self):
        tbox = normalize(TBox.of([("A", "bottom")]))
        q = parse_query("Zz(x), r(x,y)")
        assert not realizable_refuting_twoway(Type.of("A"), tbox, q, config=config()).realizable


class TestGuards:
    def test_inverse_tbox_rejected(self):
        tbox = normalize(TBox.of([("A", "exists r-.B")]))
        with pytest.raises(ValueError):
            realizable_refuting_twoway(Type.of("A"), tbox, parse_query("r(x,y)"))

    def test_non_simple_query_rejected(self):
        tbox = normalize(TBox.empty())
        with pytest.raises(ValueError):
            realizable_refuting_twoway(Type.of("A"), tbox, parse_query("(r.s)(x,y)"))

    def test_recursion_depth_reported(self):
        tbox = normalize(TBox.of([("A", "exists r.B")]))
        q = parse_query("A(x), r(x,y), C(y)")
        result = realizable_refuting_twoway(Type.of("A"), tbox, q, config=config())
        assert result.recursion_depth == 2


class TestReachabilityQueryPipeline:
    """A genuinely *simple* star query through the full Section 6 pipeline,
    exercising the Σ₀/Σ_T-reachability relativization: the (r|s)* atom IS a
    reachability atom for Σ_T ⊆ {r, s} and gets dropped inside components."""

    def test_forced_reachability_unrealizable(self):
        from repro.queries.presets import multi_reachability_factorization

        fact = multi_reachability_factorization(["r"], star=True)
        tbox = normalize(TBox.of([("A", "exists r.B")]))
        result = realizable_refuting_twoway(
            Type.of("A"), tbox, fact.original, factorization=fact, config=config()
        )
        assert not result.realizable  # A reaches B in one step, and A(x)∧ε∧B?
        # (also directly: the one-step edge satisfies the star)

    def test_escape_realizable(self):
        from repro.queries.presets import multi_reachability_factorization

        fact = multi_reachability_factorization(["r"], star=True)
        tbox = normalize(TBox.of([("A", "exists r.M")]))
        result = realizable_refuting_twoway(
            Type.of("A"), tbox, fact.original, factorization=fact, config=config()
        )
        assert result.realizable  # the witness chain never reaches a B


def _base_case_types_reference(names, tbox, thetas, avoid, config):
    """Reference for the base case: all 2^|names| maximal types, filtered
    by Θ-refinement, then the same clause, query and at-least checks."""
    if 2 ** len(names) > config.max_types:
        raise ProcedureInfeasible("base-case type space too large")
    passing = []
    for sigma in _enumerate_types(list(names), [], config.max_types):
        if not any(theta <= sigma for theta in thetas):
            continue
        if not clause_consistent(tbox, sigma):
            continue
        node_graph = single_node_graph(sorted(sigma.positive_names))
        if satisfies_union(node_graph, avoid):
            continue
        if any(ci.subject in sigma for ci in tbox.at_leasts):
            continue
        passing.append(sigma)
    return frozenset(passing)


BASE_NAMES = ["A", "B", "C"]


@st.composite
def base_case_inputs(draw):
    """Small ALCQ TBoxes (clause chains, an optional at-least), a query to
    refute, and Θ drawn as {∅}, partial types, maximal types, or ∅."""
    size = draw(st.integers(min_value=2, max_value=3))
    names = BASE_NAMES[:size]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names)),
            max_size=2,
        )
    )
    cis = [(a, b) for a, b in pairs if a != b]
    if draw(st.booleans()):
        cis.append((names[0], f">=1 r.{names[-1]}"))
    tbox = normalize(TBox.of(cis, name="basecase"))
    avoid = parse_query(
        draw(
            st.sampled_from([
                f"{names[-1]}(x)",
                f"{names[0]}(x), {names[-1]}(x)",
                f"{names[0]}(x), r(x,y), {names[-1]}(y)",
            ])
        )
    )
    base = sorted(_signature_names(Type(), tbox, (), avoid))
    shape = draw(st.sampled_from(["top", "partial", "maximal", "empty"]))
    if shape == "top":
        thetas = frozenset({Type()})
    elif shape == "empty":
        thetas = frozenset()
    elif shape == "partial":
        partial = st.dictionaries(st.sampled_from(base), st.booleans()).map(
            lambda signs: Type(NodeLabel(name, neg) for name, neg in signs.items())
        )
        thetas = frozenset(draw(st.lists(partial, min_size=1, max_size=3)))
    else:
        maximal = st.sampled_from(list(maximal_types(base)))
        thetas = frozenset(draw(st.lists(maximal, min_size=1, max_size=4)))
    signature = sorted(_signature_names(Type(), tbox, thetas, avoid))
    # occasionally leave a name out, so some θ mentions a name that no
    # type over ``names`` carries
    dropped = draw(st.sampled_from([None, *signature]))
    names = tuple(name for name in signature if name != dropped)
    max_types = draw(st.sampled_from([4, 2 ** len(names), 2**16]))
    return names, tbox, thetas, avoid, TwoWayConfig(max_types=max_types)


@settings(max_examples=80, deadline=None)
@given(base_case_inputs())
def test_base_case_types_match_reference(instance):
    """Enumerating only Θ's maximal extensions keeps exactly the types the
    full 2^|names| filter kept, and raises on exactly the same inputs."""
    try:
        expected = _base_case_types_reference(*instance)
    except ProcedureInfeasible:
        with pytest.raises(ProcedureInfeasible):
            _base_case_types(*instance)
        return
    assert _base_case_types(*instance) == expected


@pytest.mark.parametrize("backend", ["bitset", "vec"])
def test_e22_base_instance_pinned(backend):
    """E22's base row (A ⊑ ≥1 r.B, τ = {A}): the pipeline's work counters
    and survivors are pinned, so a faster enumeration cannot change what
    the fixpoints examine."""
    if backend == "vec" and not HAVE_NUMPY:
        pytest.skip("numpy not installed; vec backend unavailable")
    tbox = normalize(TBox.of([("A", ">=1 r.B")], name="e22_1_0"))
    query = parse_query("A(x), r(x,y), B(y)")
    config = TwoWayConfig(
        limits=SearchLimits(max_nodes=3, max_steps=500),
        max_types=2**22,
        max_connector_candidates=5_000_000,
        backend=backend,
    )
    result = realizable_refuting_twoway(Type.of("A"), tbox, query, config=config)
    assert result.backend == backend
    assert not result.realizable
    assert result.stats == {
        "types_checked": 84, "cache_hits": 70, "witnesses_materialized": 1448,
    }
    assert len(result.survivors) == 12


def _connector_exists_reference(
    center, pool, connectors_tbox, refute, roles, max_leaves, counters
):
    """Reference for the connector search: every pick's star is completed
    and checked against T_c at the centre before the query is tested, with
    no leaf screen."""
    allowed = set(roles)
    pairs = []
    for ci in connectors_tbox.at_leasts:
        if ci.role in allowed and (ci.role, ci.filler) not in pairs:
            pairs.append((ci.role, ci.filler))
    options = []
    for role, filler in pairs:
        candidates = [
            theta
            for theta in sorted(pool, key=str)
            if filler in theta
            or (filler.negated and filler.name not in theta.signature())
        ]
        bundles = [()]
        for k in range(1, max_leaves + 1):
            for combo in combinations_with_replacement(candidates, k):
                bundles.append(tuple((role, theta) for theta in combo))
        options.append(bundles)
    for pick in product(*options):
        counters["witnesses_materialized"] += 1
        star = _build_star(center, [leaf for bundle in pick for leaf in bundle])
        completed = connectors_tbox.complete(star)
        if not all(
            ci.holds_at(completed, ("c", 0)) for ci in connectors_tbox.all_cis()
        ):
            continue
        if satisfies_union(star, refute):
            continue
        return True
    return False


CONNECTOR_TBOXES = {
    "at_least": [("A", ">=1 r.B")],
    "counting_fresh": [("A", ">=2 r.B"), ("B", "C"), ("C", "<=2 r.B")],
    "universal": [("A", ">=1 r.B"), ("A", "forall r.C")],
    "disjunctive_filler": [("A", ">=1 r.(B | C)")],
    "two_roles": [("A", ">=1 r.B"), ("A", ">=1 s.C")],
    "inverse_at_least": [("A", ">=1 r-.B")],
    "forall_in_filler": [("A", ">=1 r.(B & forall r.C)")],
}

CONNECTOR_QUERIES = [
    "A(x), r(x,y), !C(y)",  # a negated label
    "B(x), r-(x,y)",  # an inverse path
    "A(x), r*(x,y), C(y)",  # a starred path (matches the centre alone)
    "C(x); A(x), r(x,y), B(y)",  # a union
    "A(x)",  # the centre alone
    "!A(x), s(y,x), C(x)",  # the second role
]


@st.composite
def connector_inputs(draw):
    """A TBox shape as T_c, a query to refute, the roles the connector
    wires, a centre and a pool of maximal types over the TBox's names
    (fresh ones included) and the query's."""
    tbox = normalize(
        TBox.of(CONNECTOR_TBOXES[draw(st.sampled_from(sorted(CONNECTOR_TBOXES)))])
    )
    refute = parse_query(draw(st.sampled_from(CONNECTOR_QUERIES)))
    wired = sorted({ci.role for ci in tbox.at_leasts}, key=str)
    roles = draw(st.lists(st.sampled_from(wired), min_size=1, unique=True))
    types = list(maximal_types(tbox.concept_names() | refute.node_label_names()))
    center = draw(st.sampled_from(types))
    pool = draw(st.lists(st.sampled_from(types), max_size=4, unique=True))
    max_leaves = draw(st.integers(min_value=1, max_value=2))
    return center, pool, tbox, refute, roles, max_leaves


@settings(max_examples=300, deadline=None)
@given(connector_inputs())
def test_connector_exists_matches_reference(instance):
    """Screening out picks with a leaf that matches the query next to the
    centre, and testing the raw star before completing it, finds the same
    connector after the same number of examined picks as checking T_c
    first on every pick."""
    center, pool, tbox, refute, roles, max_leaves = instance
    expected_counters = {"witnesses_materialized": 0}
    expected = _connector_exists_reference(
        center, pool, tbox, refute, roles, max_leaves, expected_counters
    )
    counters = {"witnesses_materialized": 0, "cache_hits": 0}
    found = _connector_exists(
        center, pool, tbox, refute, roles, max_leaves,
        max_candidates=500_000, counters=counters,
    )
    assert (found, counters["witnesses_materialized"]) == (
        expected, expected_counters["witnesses_materialized"]
    )

