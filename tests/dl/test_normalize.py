"""TBox normalization: normal forms, conservativity, fragment detection."""

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.containment import ContainmentOptions, is_contained
from repro.dl.concepts import parse_concept
from repro.dl.normalize import nnf, normalize
from repro.dl.pg_schema import figure1_schema
from repro.dl.tbox import TBox
from repro.graphs.generators import random_graph


class TestNNF:
    def test_double_negation(self):
        assert str(nnf(parse_concept("~~A"))) == "A"

    def test_de_morgan(self):
        c = nnf(parse_concept("~(A & B)"))
        assert " | " in str(c)

    def test_negated_forall(self):
        c = nnf(parse_concept("~(forall r.A)"))
        assert "exists r" in str(c) and "!A" in str(c)

    def test_negated_atleast(self):
        assert "<=1" in str(nnf(parse_concept("~(>=2 r.A)")))

    def test_negated_atmost(self):
        assert ">=4" in str(nnf(parse_concept("~(<=3 r.A)")))

    def test_negated_exists_zero(self):
        assert str(nnf(parse_concept("~(>=0 r.A)"))) == "bottom"


class TestNormalForms:
    def test_shapes(self):
        t = normalize(TBox.of([
            ("A", "forall r.(B | C)"),
            ("A & B", "exists r.(B & C)"),
            ("A", "<=2 r.B"),
        ]))
        # every universal/at-least/at-most has literal subject and filler
        for ci in t.universals:
            assert ci.subject.name and ci.filler.name
        assert t.at_leasts and t.at_mosts and t.universals

    def test_fragments(self):
        assert normalize(TBox.of([("A", "exists r.B")])).fragment() == "ALC"
        assert normalize(TBox.of([("A", "exists r-.B")])).fragment() == "ALCI"
        assert normalize(TBox.of([("A", ">=2 r.B")])).fragment() == "ALCQ"
        assert normalize(TBox.of([("A", ">=2 r.B"), ("B", "exists s-.A")])).fragment() == "ALCQI"

    def test_participation_detection(self):
        with_p = normalize(TBox.of([("A", "exists r.B")]))
        without_p = normalize(TBox.of([("A", "forall r.B"), ("A", "<=2 r.B")]))
        assert with_p.has_participation_constraints()
        assert not without_p.has_participation_constraints()
        assert not with_p.without_participation().has_participation_constraints()

    def test_max_cardinality(self):
        t = normalize(TBox.of([("A", ">=3 r.B"), ("A", "<=5 r.B")]))
        assert t.max_cardinality() == 5

    def test_restrict_roles(self):
        t = normalize(TBox.of([("A", "exists r.B"), ("A", "exists s.B")]))
        restricted = t.restrict_roles({"r"})
        assert restricted.role_names() == {"r"}
        assert restricted.clauses == t.clauses


SCHEMAS = [
    [("A", "exists r.B")],
    [("A", "forall r.(B | C)"), ("C", "~A")],
    [("A & B", "bottom"), ("top", "A | B")],
    [("A", ">=2 r.(B & ~C)")],
    [("A", "<=1 r.B"), ("B", "exists r-.A")],
    [("A", "exists r.(exists r.B))".replace("))", ")"))],
]


class TestConservativity:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 5000), st.sampled_from(range(len(SCHEMAS))))
    def test_normalized_equivalent_after_completion(self, seed, index):
        """G ⊨ T  ⟺  complete(G) ⊨ normalize(T)."""
        tbox = TBox.of(SCHEMAS[index])
        normalized = normalize(tbox)
        graph = random_graph(4, 6, ["A", "B", "C"], ["r"], seed=seed)
        completed = normalized.complete(graph)
        assert tbox.satisfied_by(graph) == normalized.satisfied_by(completed)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5000), st.sampled_from(range(len(SCHEMAS))))
    def test_normalized_model_is_original_model(self, seed, index):
        """Any model of normalize(T) is a model of T (over the old signature)."""
        tbox = TBox.of(SCHEMAS[index])
        normalized = normalize(tbox)
        graph = random_graph(
            3, 5, ["A", "B", "C"] + sorted(normalized.fresh_names), ["r"], seed=seed
        )
        if normalized.satisfied_by(graph):
            assert tbox.satisfied_by(graph)


class TestCachedOnTheTBox:
    """``normalize`` caches its result on the TBox object it is given."""

    def test_same_object_is_returned_and_points_back(self):
        tbox = TBox.of(SCHEMAS[0])
        normalized = normalize(tbox)
        assert normalize(tbox) is normalized
        assert normalized.original is tbox

    def test_pickles_and_copies_carry_no_cache(self):
        tbox = figure1_schema()
        normalized = normalize(tbox)
        options = ContainmentOptions(use_cache=False)
        assert is_contained("Customer(x)", "owns(x,y)", tbox, options=options).contained
        assert "_chase_rules" in vars(normalized)
        for clone in (pickle.loads(pickle.dumps(tbox)), copy.deepcopy(tbox)):
            assert clone == tbox
            assert normalize(clone) is not normalized
            assert normalize(clone) == normalized
        clone = pickle.loads(pickle.dumps(normalized))
        assert clone == normalized and "_chase_rules" not in vars(clone)

    def test_equal_but_distinct_tbox_gets_its_own_object_and_verdicts(self):
        tbox = figure1_schema()
        twin = TBox(tbox.cis, tbox.name)
        assert twin == tbox and twin is not tbox
        assert normalize(twin) is not normalize(tbox)
        assert normalize(twin) == normalize(tbox)
        options = ContainmentOptions(use_cache=False)
        q1 = "(owns.earns.partner.owns*)(x,y)"
        q2 = "(owns.earns.partner)(x,z), RetailCompany(z), owns*(z,y)"
        for lhs, rhs in ((q2, q1), ("Customer(x)", "owns(x,y)"), ("CredCard(x)", "Customer(x)")):
            answers = []
            for schema in (tbox, twin):
                r = is_contained(lhs, rhs, schema, options=options)
                model = r.countermodel.describe() if r.countermodel is not None else None
                answers.append((r.contained, r.complete, r.method, r.seeds_tried, model))
            assert answers[0] == answers[1], (lhs, rhs)
