"""Theorem 3.1 (sparsification) and Theorem 3.2 (no-participation search)."""

import pytest

from repro.core.containment import ContainmentOptions, is_contained
from repro.core.search import SearchLimits
from repro.core.sparse_search import contained_without_participation, sparsify
from repro.dl.normalize import normalize
from repro.dl.tbox import TBox
from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.graphs.homomorphism import maps_into
from repro.graphs.sparse import is_sparse
from repro.queries.evaluation import satisfies
from repro.queries.parser import parse_crpq, parse_query


class TestSparsify:
    def test_sparse_and_satisfying(self):
        for seed in range(10):
            g = random_connected_graph(6, 4, ["A", "B"], ["r"], seed=seed)
            q = parse_crpq("r*(x,y), r(y,z)")
            if not satisfies(g, q):
                continue
            shadow = sparsify(g, q)
            assert shadow is not None
            assert satisfies(shadow, q)
            assert is_sparse(shadow, q.size())

    def test_maps_homomorphically(self):
        g = Graph()
        g.add_node(0, ["A"])
        g.add_node(1, ["A"])
        g.add_edge(0, "r", 1)
        g.add_edge(1, "r", 0)
        q = parse_crpq("(r.r.r)(x,y)")
        shadow = sparsify(g, q)
        assert shadow is not None
        assert maps_into(shadow, g)

    def test_no_match_returns_none(self):
        g = Graph()
        g.add_node(0, ["A"])
        assert sparsify(g, parse_crpq("r(x,y)")) is None


class TestNoParticipationContainment:
    def test_universal_makes_containment(self):
        # T: every r-target of an A node is B  ⟹  A(x),r(x,y) ⊆ B(y)-version
        tbox = normalize(TBox.of([("A", "forall r.B")]))
        lhs = parse_crpq("A(x), r(x,y)")
        rhs = parse_query("r(x,y), B(y)")
        result = contained_without_participation(lhs, rhs, tbox)
        assert result.contained
        # a finite lhs language, fully enumerated: the True is certain
        assert result.complete

    def test_without_schema_not_contained(self):
        tbox = normalize(TBox.empty())
        lhs = parse_crpq("A(x), r(x,y)")
        rhs = parse_query("r(x,y), B(y)")
        result = contained_without_participation(lhs, rhs, tbox)
        assert not result.contained
        assert result.countermodel is not None
        assert satisfies(result.countermodel, lhs)

    def test_disjointness_schema(self):
        # A and B disjoint: A(x) ∧ B(x) is unsatisfiable, so contained in anything
        tbox = normalize(TBox.of([("A & B", "bottom")]))
        lhs = parse_crpq("A(x), B(x)")
        rhs = parse_query("Zz(w)")
        result = contained_without_participation(lhs, rhs, tbox)
        assert result.contained

    def test_counting_without_participation(self):
        # ≤-constraints are allowed (no at-least); ALCQI without participation
        tbox = normalize(TBox.of([("A", "<=1 r.B")]))
        lhs = parse_crpq("A(x), r(x,y), B(y)")
        rhs = parse_query("B(y)")
        result = contained_without_participation(lhs, rhs, tbox)
        assert result.contained

    def test_rejects_participation(self):
        tbox = normalize(TBox.of([("A", "exists r.B")]))
        with pytest.raises(ValueError):
            contained_without_participation(parse_crpq("A(x)"), parse_query("B(x)"), tbox)

    def test_countermodel_stays_sparse(self):
        tbox = normalize(TBox.of([("A", "forall r.B")]))
        lhs = parse_crpq("A(x), r*(x,y)")
        rhs = parse_query("C(z)")
        result = contained_without_participation(lhs, rhs, tbox)
        assert not result.contained
        assert is_sparse(result.countermodel, lhs.size() + 1)


# ∀-chain schema whose countermodel needs an r-path of 6 nodes (A, L1…L4, E)
FORALL_CHAIN = TBox.of([
    ("A", "forall r.L1"), ("L1", "forall r.L2"),
    ("L2", "forall r.L3"), ("L3", "forall r.L4"),
])
FORALL_CHAIN_LHS = "A(x), (r*)(x,y), E(y)"
FORALL_CHAIN_RHS = "A(y), E(y); L1(y), E(y); L2(y), E(y); L3(y), E(y); L4(y), E(y)"

STEP_CUT_SCHEMA = TBox.of([("A", "B"), ("B", "forall r.D")])


class TestCertainTrueNeedsCertificate:
    """A sparse True is complete only when the sweep saw every candidate."""

    def test_unbounded_lhs_true_is_incomplete(self):
        result = is_contained(FORALL_CHAIN_LHS, FORALL_CHAIN_RHS, FORALL_CHAIN)
        assert result.method == "sparse"
        assert result.contained is True
        assert result.complete is False
        # the True was wrong: longer words reach the 6-node countermodel
        longer = is_contained(
            FORALL_CHAIN_LHS, FORALL_CHAIN_RHS, FORALL_CHAIN,
            options=ContainmentOptions(max_word_length=6),
        )
        assert longer.contained is False and longer.complete is True
        assert FORALL_CHAIN.satisfied_by(longer.countermodel)

    def test_step_budget_cut_refutes_nothing(self):
        limited = is_contained(
            "A(x), r(x,y)", "C(y)", STEP_CUT_SCHEMA,
            options=ContainmentOptions(limits=SearchLimits(max_steps=3)),
        )
        assert limited.method == "sparse"
        assert limited.contained is True
        assert limited.complete is False
        # with the default budget the chase finishes and finds the witness
        assert is_contained("A(x), r(x,y)", "C(y)", STEP_CUT_SCHEMA).contained is False

    def test_expansion_budget_reached_is_incomplete(self):
        tbox = normalize(TBox.of([("A", "forall r.B")]))
        result = contained_without_participation(
            parse_crpq("A(x), r(x,y)"), parse_query("r(x,y), B(y)"), tbox,
            max_expansions=1,
        )
        assert result.contained and not result.complete
