"""Node types: maximal types, realization, respect."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph, single_node_graph
from repro.graphs.labels import NodeLabel
from repro.graphs.types import Type, maximal_types, realized_types, respects, type_of


class TestType:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            Type.of("A", "!A")

    def test_positive_negative_names(self):
        t = Type.of("A", "!B")
        assert t.positive_names == {"A"}
        assert t.negative_names == {"B"}
        assert t.signature() == {"A", "B"}

    def test_maximality(self):
        assert Type.of("A", "!B").is_maximal_over(["A", "B"])
        assert not Type.of("A").is_maximal_over(["A", "B"])

    def test_restrict(self):
        t = Type.of("A", "!B", "C")
        assert t.restrict(["A", "B"]) == Type.of("A", "!B")

    def test_extend(self):
        assert Type.of("A").extend(["!B"]) == Type.of("A", "!B")
        with pytest.raises(ValueError):
            Type.of("A").extend(["!A"])

    def test_contains_type(self):
        assert Type.of("A", "!B").contains_type(Type.of("A"))
        assert not Type.of("A").contains_type(Type.of("A", "!B"))

    def test_holds_at(self):
        g = single_node_graph(["A"], node=0)
        assert Type.of("A", "!B").holds_at(g, 0)
        assert not Type.of("A", "B").holds_at(g, 0)


class TestTypeComputation:
    def test_type_of(self):
        g = single_node_graph(["A", "C"], node=0)
        assert type_of(g, 0, ["A", "B"]) == Type.of("A", "!B")

    def test_maximal_types_count(self):
        assert len(list(maximal_types(["A", "B", "C"]))) == 8

    def test_maximal_types_are_maximal(self):
        for t in maximal_types(["A", "B"]):
            assert t.is_maximal_over(["A", "B"])

    def test_realized_types(self):
        g = Graph()
        g.add_node(1, ["A"])
        g.add_node(2, ["A"])
        g.add_node(3, ["B"])
        realized = realized_types(g, ["A", "B"])
        assert realized == {Type.of("A", "!B"), Type.of("!A", "B")}

    def test_respects(self):
        g = Graph()
        g.add_node(1, ["A"])
        g.add_node(2, ["B"])
        assert respects(g, [Type.of("A"), Type.of("B")])
        assert not respects(g, [Type.of("A", "B")])
        assert respects(g, [Type()])  # the empty type allows everything


LITERAL_NAMES = ["A", "B", "C", "D"]

name_lists = st.integers(min_value=3, max_value=4).map(lambda n: LITERAL_NAMES[:n])


@st.composite
def literal_lists(draw):
    names = draw(name_lists)
    literal = st.builds(NodeLabel, st.sampled_from(names), st.booleans())
    return draw(st.lists(literal, max_size=8))


class TestNameLevelChecks:
    """Consistency and ``type_of`` work on names; building each name's
    ``NodeLabel`` literals one by one is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(literal_lists())
    def test_type_raises_iff_a_name_is_both_plain_and_complemented(self, lits):
        clash = any(NodeLabel(lbl.name, not lbl.negated) in lits for lbl in lits)
        if clash:
            with pytest.raises(ValueError):
                Type(lits)
        else:
            assert Type(lits) == frozenset(lits)

    @settings(max_examples=100, deadline=None)
    @given(name_lists, st.sets(st.sampled_from(LITERAL_NAMES + ["E"])))
    def test_type_of_matches_per_name_reference(self, names, carried):
        g = single_node_graph(sorted(carried), node=0)
        expected = frozenset(NodeLabel(name, not g.has_label(0, name)) for name in names)
        assert type_of(g, 0, names) == expected
