"""Edge-case units for the bitset kernel: empty and single-name signatures.

The property suites cover random mid-sized signatures; these pin the
degenerate ends — Γ₀ = ∅ (one maximal type: the empty type) and |Γ₀| = 1 —
plus the out-of-Γ₀ literal folding rules on those signatures, where an
off-by-one in mask construction would be invisible to the random tests,
and a signature too wide for any scan of its 2^|Γ₀| candidates.
"""

from repro.dl.normalize import ClauseCI
from repro.graphs.labels import NodeLabel
from repro.graphs.types import Type
from repro.kernel.bitset import CompiledClauses, TypeKernel


def clause(body, head):
    return ClauseCI(frozenset(body), frozenset(head))


class TestEmptySignature:
    def test_decode_zero_is_the_empty_type(self):
        kernel = TypeKernel([])
        assert kernel.size == 0
        assert kernel.full_mask == 0
        sigma = kernel.decode(0)
        assert sigma == Type([])
        assert sigma.signature() == frozenset()
        assert kernel.encode(sigma) == 0

    def test_no_clauses_keeps_the_empty_type(self):
        compiled = CompiledClauses(TypeKernel([]), [])
        assert list(compiled.consistent_bits()) == [0]

    def test_top_implies_bottom_kills_the_empty_type(self):
        # ⊤ ⊑ ⊥: empty body always holds, empty head never does
        compiled = CompiledClauses(TypeKernel([]), [clause([], [])])
        assert list(compiled.consistent_bits()) == []

    def test_out_of_signature_positive_body_is_vacuous(self):
        # B ⊑ ⊥ with B ∉ Γ₀: the body can never hold, clause dropped
        compiled = CompiledClauses(
            TypeKernel([]), [clause([NodeLabel("B")], [])]
        )
        assert compiled.rows == []
        assert list(compiled.consistent_bits()) == [0]

    def test_out_of_signature_negated_head_always_holds(self):
        # ⊤ ⊑ ¬B with B ∉ Γ₀: the head always holds, clause dropped
        compiled = CompiledClauses(
            TypeKernel([]), [clause([], [NodeLabel("B", True)])]
        )
        assert compiled.rows == []
        assert list(compiled.consistent_bits()) == [0]

    def test_out_of_signature_positive_head_never_holds(self):
        # ⊤ ⊑ B with B ∉ Γ₀: the head literal folds away, leaving ⊤ ⊑ ⊥
        compiled = CompiledClauses(
            TypeKernel([]), [clause([], [NodeLabel("B")])]
        )
        assert compiled.rows == [(0, 0, 0, 0)]
        assert list(compiled.consistent_bits()) == []


class TestSingleName:
    def test_decode_both_polarities(self):
        kernel = TypeKernel(["A"])
        assert kernel.decode(0) == Type([NodeLabel("A", True)])
        assert kernel.decode(1) == Type([NodeLabel("A")])
        for bits in (0, 1):
            sigma = kernel.decode(bits)
            assert sigma.is_maximal_over(["A"])
            assert kernel.encode(sigma) == bits

    def test_decode_is_cached(self):
        kernel = TypeKernel(["A"])
        assert kernel.decode(1) is kernel.decode(1)

    def test_a_implies_bottom(self):
        compiled = CompiledClauses(
            TypeKernel(["A"]), [clause([NodeLabel("A")], [])]
        )
        assert list(compiled.consistent_bits()) == [0]

    def test_top_implies_a(self):
        compiled = CompiledClauses(
            TypeKernel(["A"]), [clause([], [NodeLabel("A")])]
        )
        assert list(compiled.consistent_bits()) == [1]

    def test_tautology_keeps_both_types(self):
        # A ⊑ A never fires inconsistently
        compiled = CompiledClauses(
            TypeKernel(["A"]), [clause([NodeLabel("A")], [NodeLabel("A")])]
        )
        assert list(compiled.consistent_bits()) == [0, 1]

    def test_contradictory_body_never_fires(self):
        # A ⊓ ¬A ⊑ ⊥: the body is unsatisfiable on a maximal type
        compiled = CompiledClauses(
            TypeKernel(["A"]),
            [clause([NodeLabel("A"), NodeLabel("A", True)], [])],
        )
        assert list(compiled.consistent_bits()) == [0, 1]


class TestWideSignature:
    def test_forty_name_chain_enumerates_its_41_types(self):
        # A0 ⊑ A1 ⊑ … ⊑ A39: a type is consistent iff its positive names are
        # A_t … A_39 for some t ≤ 40.  A scan would test 2^40 candidates.
        names = [f"A{i}" for i in range(40)]
        kernel = TypeKernel(names)
        compiled = CompiledClauses(
            kernel,
            [clause([NodeLabel(f"A{i}")], [NodeLabel(f"A{i + 1}")]) for i in range(39)],
        )
        expected = sorted(
            sum(1 << kernel.index[f"A{i}"] for i in range(t, 40)) for t in range(41)
        )
        found, tested = compiled.search()
        assert found == expected
        assert tested < 10_000
