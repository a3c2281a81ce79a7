"""Property tests: the bitset kernel agrees with the frozenset reference.

Random clausal TBoxes over signatures up to |Γ₀| = 10; the kernel's
compiled-clause evaluation, encode/decode round-trip, refinement test, and
consistent-type enumeration must match the original frozenset
implementations literal for literal.  The enumeration must also list
exactly what a scan of all 2^|Γ₀| candidates keeps, in the same order.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dl.normalize import ClauseCI, NormalizedTBox
from repro.dl.types import clause_consistent, clause_consistent_reference
from repro.graphs.labels import NodeLabel
from repro.graphs.types import Type, maximal_types
from repro.kernel.bitset import CompiledClauses, TypeKernel, inert_partition

NAMES = [f"A{i}" for i in range(10)]
OUTSIDE = ["B0", "B1"]
"""Names no drawn signature contains: the kernel folds their literals away."""


@st.composite
def signatures(draw):
    size = draw(st.integers(min_value=1, max_value=10))
    return NAMES[:size]


@st.composite
def literals(draw, names):
    name = draw(st.sampled_from(names))
    negated = draw(st.booleans())
    return NodeLabel(name, negated)


@st.composite
def clauses(draw, names):
    body = draw(st.lists(literals(names), max_size=3))
    head = draw(st.lists(literals(names), max_size=3))
    return ClauseCI(frozenset(body), frozenset(head))


@st.composite
def tboxes(draw, names):
    clause_list = draw(st.lists(clauses(names), max_size=5))
    return NormalizedTBox(
        clauses=clause_list, universals=[], at_leasts=[], at_mosts=[],
        name="prop",
    )


@st.composite
def instances(draw, outside=()):
    names = draw(signatures())
    tbox = draw(tboxes(names + list(outside)))
    bits = draw(st.integers(min_value=0, max_value=2 ** len(names) - 1))
    return names, tbox, bits


@settings(max_examples=200, deadline=None)
@given(instances())
def test_kernel_clause_eval_matches_reference(instance):
    names, tbox, bits = instance
    kernel = TypeKernel(names)
    compiled = CompiledClauses(kernel, tbox.clauses)
    sigma = kernel.decode(bits)
    assert compiled.consistent(bits) == clause_consistent_reference(tbox, sigma)
    # and the public entry point (which routes through the kernel) agrees
    assert clause_consistent(tbox, sigma) == clause_consistent_reference(tbox, sigma)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_encode_decode_roundtrip(instance):
    names, _tbox, bits = instance
    kernel = TypeKernel(names)
    sigma = kernel.decode(bits)
    assert kernel.encode(sigma) == bits
    assert sigma.is_maximal_over(names)
    assert sigma.signature() == frozenset(names)


@settings(max_examples=200, deadline=None)
@given(instances(), st.data())
def test_refines_matches_frozenset_subset(instance, data):
    names, _tbox, bits = instance
    kernel = TypeKernel(names)
    sigma = kernel.decode(bits)
    partial_literals = data.draw(
        st.lists(literals(names), max_size=len(names), unique_by=lambda l: l.name)
    )
    partial = Type(partial_literals)
    pos, neg = kernel.encode_partial(partial)
    assert kernel.refines(bits, pos, neg) == (partial <= sigma)


@settings(max_examples=100, deadline=None)
@given(instances(outside=OUTSIDE))
@example((
    ["A0", "A1"],
    # ¬B0 always holds and B1 never does: the clause folds to ⊤ ⊑ ⊥
    NormalizedTBox(
        clauses=[ClauseCI(frozenset({NodeLabel("B0", True)}), frozenset({NodeLabel("B1")}))],
        universals=[], at_leasts=[], at_mosts=[], name="prop",
    ),
    0,
))
def test_consistent_enumeration_matches_filtering(instance):
    names, tbox, _bits = instance
    kernel = TypeKernel(names)
    compiled = CompiledClauses(kernel, tbox.clauses)
    scan = [bits for bits in range(1 << len(names)) if compiled.consistent(bits)]
    assert compiled.consistent_bits() == scan
    via_reference = {
        sigma
        for sigma in maximal_types(names)
        if clause_consistent_reference(tbox, sigma)
    }
    assert {kernel.decode(bits) for bits in scan} == via_reference


@settings(max_examples=100, deadline=None)
@given(instances())
def test_inert_partition_counts_product_factor(instance):
    names, tbox, _bits = instance
    core, inert, count = inert_partition(tbox, names, seeds=[names[0]])
    assert set(core) | set(inert) == set(names)
    assert not set(core) & set(inert)
    # |consistent types over names| == |consistent core types| × count
    kernel = TypeKernel(names)
    full = sum(1 for _ in CompiledClauses(kernel, tbox.clauses).consistent_bits())
    core_kernel = TypeKernel(core)
    core_clauses = [
        cl
        for cl in tbox.clauses
        if all(l.name in set(core) for l in cl.body | cl.head)
    ]
    core_count = sum(
        1 for _ in CompiledClauses(core_kernel, core_clauses).consistent_bits()
    )
    assert full == core_count * count
