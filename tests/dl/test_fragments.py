"""Directional projections (Section 5) and the ALCQ counter factorization
(Section 6)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dl.fragments import alcq_factorization, backward_projection, forward_projection, reverse_roles
from repro.dl.normalize import normalize
from repro.dl.tbox import TBox
from repro.graphs.generators import random_graph
from repro.graphs.labels import Role


class TestProjections:
    def setup_method(self):
        self.tbox = normalize(TBox.of([
            ("A", "exists r.B"),
            ("B", "exists s-.A"),
            ("A", "forall r.C"),
            ("C", "forall s-.B"),
        ], name="alci"))

    def test_forward_drops_inverse_participation(self):
        fwd = forward_projection(self.tbox)
        assert all(not ci.role.inverted for ci in fwd.at_leasts)
        assert len(fwd.at_leasts) == 1

    def test_backward_drops_forward_participation(self):
        bwd = backward_projection(self.tbox)
        assert all(ci.role.inverted for ci in bwd.at_leasts)
        assert len(bwd.at_leasts) == 1

    def test_forward_universals_are_forward(self):
        fwd = forward_projection(self.tbox)
        assert all(not ci.role.inverted for ci in fwd.universals)

    def test_flip_preserves_semantics(self):
        # A ⊑ ∀r⁻.B and its flip B̄ ⊑ ∀r.Ā hold in exactly the same graphs
        original = normalize(TBox.of([("A", "forall r-.B")]))
        flipped = forward_projection(original)
        for seed in range(30):
            g = random_graph(4, 6, ["A", "B"], ["r"], seed=seed)
            assert original.satisfied_by(g) == flipped.satisfied_by(g), seed

    def test_reverse_roles_semantics(self):
        tbox = normalize(TBox.of([("A", "exists r.B")]))
        reversed_tbox = reverse_roles(tbox)
        for seed in range(20):
            g = random_graph(4, 6, ["A", "B"], ["r"], seed=seed)
            mirrored = g.copy()
            # build the edge-reversed graph
            from repro.graphs.graph import Graph

            mirrored = Graph()
            for v in g.node_list():
                mirrored.add_node(v, g.labels_of(v))
            for a, r, b in g.edges():
                mirrored.add_edge(b, r, a)
            assert tbox.satisfied_by(g) == reversed_tbox.satisfied_by(mirrored), seed


class TestALCQFactorization:
    def setup_method(self):
        self.tbox = normalize(TBox.of([
            ("A", ">=2 r.B"),
            ("A", "<=3 r.B"),
            ("C", "exists r.B"),
        ], name="alcq"))
        self.factor = alcq_factorization(self.tbox)

    def test_cap(self):
        assert self.factor.cap == 4  # max cardinality 3, plus one

    def test_gamma_size(self):
        # one (role, filler) pair, counters 0..cap
        assert len(self.factor.gamma) == self.factor.cap + 1

    def test_unique_counter_placement(self):
        for seed in range(20):
            g = random_graph(5, 8, ["A", "B", "C"], ["r"], seed=seed)
            completed = self.tbox.complete(g)
            self.factor.place_counters(completed)
            # T_p's counter CIs and exactly-one clauses hold after placement
            for node in completed.node_list():
                for clause in self.factor.components_tbox.clauses:
                    if clause not in self.tbox.clauses:
                        assert clause.holds_at(completed, node), (seed, str(clause))
            assert all(
                ci.holds_at(completed, node)
                for node in completed.node_list()
                for ci in self.factor.components_tbox.at_leasts
                + self.factor.components_tbox.at_mosts
            )

    def test_tc_splits_counts_between_component_and_connector(self):
        # a connector centre with counter C_i needs exactly max(0, n-i) leaf
        # witnesses to discharge A ⊑ ∃≥2 r.B through T_c
        from repro.graphs.graph import Graph

        (role, filler), labels = next(iter(self.factor.counters.items()))
        tc = self.factor.connectors_tbox
        for component_count in range(self.factor.cap + 1):
            for leaves in range(4):
                star = Graph()
                star.add_node("c", ["A", labels[component_count].name])
                for i in range(leaves):
                    star.add_node(("l", i), ["B"])
                    star.add_edge("c", "r", ("l", i))
                completed = tc.complete(star)
                centre_ok = all(ci.holds_at(completed, "c") for ci in tc.all_cis())
                # the at-least needs component_count + leaves >= 2 and the
                # at-most needs component_count + leaves <= 3
                expected = (component_count + leaves >= 2) and (component_count + leaves <= 3)
                assert centre_ok == expected, (component_count, leaves)

    def test_tc_leaves_the_normalization_cached_on_its_raw_tbox_untouched(self):
        # T_c adds T's definitions and fresh names to a new object, so the
        # result cached on T_c's raw TBox stays a plain normalization of it
        tc = self.factor.connectors_tbox
        raw = tc.original
        cached = normalize(raw)
        assert cached is not tc
        assert cached == normalize(TBox(raw.cis, raw.name))
        assert self.tbox.fresh_names <= tc.fresh_names
        assert set(self.tbox.definitions) <= set(tc.definitions)
        assert not self.tbox.fresh_names <= cached.fresh_names

    def test_inverse_roles_rejected(self):
        bad = normalize(TBox.of([("A", ">=2 r-.B")]))
        try:
            alcq_factorization(bad)
            assert False, "expected ValueError"
        except ValueError:
            pass

    def test_generation_tags(self):
        tagged = alcq_factorization(self.tbox, tag="g1")
        assert all("Cntg1_" in str(lbl) for lbl in tagged.gamma)
        assert not any(lbl in self.factor.gamma for lbl in tagged.gamma)
