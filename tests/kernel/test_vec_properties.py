"""Property tests: the vec (bit-matrix) backend agrees with the bitset
backend bit for bit.

Random small TBoxes and signatures; for each instance the vec table must
hold the types a scan of all 2^|Γ₀| candidates keeps (same order
included), and both backends must produce the same oneway elimination
fixpoint (verdict, waves, per-wave counters, survivor set) and the same
twoway fixpoint (verdict, pipeline stats, top-level survivors).  The vec
backend is *forced* (``backend="vec"``) rather than auto-selected, so
these sizes — far below the auto threshold — still exercise the
vectorized paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oneway import realizable_refuting_oneway
from repro.core.search import SearchLimits
from repro.core.twoway import (
    TwoWayConfig,
    _enumerate_types,
    realizable_refuting_twoway,
    vec_fallback_reason,
)
from repro.dl.normalize import ClauseCI, NormalizedTBox, normalize
from repro.dl.tbox import TBox
from repro.graphs.labels import NodeLabel
from repro.graphs.types import Type
from repro.kernel.backend import HAVE_NUMPY
from repro.kernel.bitset import CompiledClauses, TypeKernel
from repro.queries.parser import parse_query

if not HAVE_NUMPY:  # pragma: no cover - exercised only in numpy-less envs
    pytest.skip("numpy not installed; vec backend unavailable", allow_module_level=True)

from repro.kernel.vec import VecTypeTable, unpack_row
from repro.kernel.vec_fixpoint import TwowayVecEnumerator

NAMES = [f"A{i}" for i in range(8)]


@st.composite
def signatures(draw):
    size = draw(st.integers(min_value=1, max_value=8))
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
        name="vecprop",
    )


@st.composite
def instances(draw):
    names = draw(signatures())
    tbox = draw(tboxes(names))
    return names, tbox


@settings(max_examples=100, deadline=None)
@given(instances())
def test_enumeration_matches_bitset(instance):
    names, tbox = instance
    compiled = CompiledClauses(TypeKernel(names), tbox.clauses)
    table = VecTypeTable.from_consistent(compiled)
    scan = [bits for bits in range(1 << len(names)) if compiled.consistent(bits)]
    # the scan's types in the scan's (increasing-integer) order, in both
    # the packed rows and their int twins
    assert [unpack_row(row) for row in table.table] == scan
    assert table.ints == scan


def _oneway_fingerprint(result):
    return (
        result.realizable,
        result.iterations,
        tuple(result.type_counts),
        result.complete,
        tuple(result.gamma),
        tuple(tuple(sorted(stats.items())) for stats in result.round_stats),
        frozenset(result.survivors),
    )


@settings(max_examples=25, deadline=None)
@given(instances())
def test_oneway_fixpoint_matches_bitset(instance):
    names, tbox = instance
    tau = Type.of(names[0])
    query = parse_query(f"{names[0]}(x), r(x,y), {names[-1]}(y)")
    limits = SearchLimits(max_nodes=3, max_steps=500)
    results = {}
    for backend in ("bitset", "vec"):
        results[backend] = realizable_refuting_oneway(
            tau, tbox, query, limits=limits, max_types=2**16, backend=backend
        )
    assert results["bitset"].backend == "bitset"
    assert results["vec"].backend == "vec"
    assert _oneway_fingerprint(results["bitset"]) == _oneway_fingerprint(results["vec"])


@st.composite
def counter_spaces(draw):
    """Free names + counter groups with random signs on distinct names —
    the shapes the complemented-column encoding must reproduce exactly."""
    free = NAMES[: draw(st.integers(min_value=0, max_value=3))]
    groups = []
    serial = 0
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        group = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            group.append(NodeLabel(f"Cnt{serial}", draw(st.booleans())))
            serial += 1
        groups.append(group)
    return free, groups


@settings(max_examples=100, deadline=None)
@given(counter_spaces())
def test_enumerator_matches_scalar_with_negated_counters(space):
    free, groups = space
    # distinct names are always vectorizable, negated labels included
    assert vec_fallback_reason(free, groups) is None
    enum = TwowayVecEnumerator(free, groups)
    via_vec = enum.types_where(enum.new_mask(True))
    via_scalar = list(_enumerate_types(free, groups, 2**16))
    assert via_vec == via_scalar


def test_fallback_reason_classifies_collisions():
    pos, neg = NodeLabel("A0"), NodeLabel("A0", True)
    assert vec_fallback_reason(["A0"], [[neg]]) == "negated_counters"
    assert vec_fallback_reason([], [[pos], [pos]]) == "counter_collision"
    assert vec_fallback_reason(["A1"], [[pos, NodeLabel("A2", True)]]) is None


@st.composite
def alcq_tboxes(draw):
    """Small raw TBoxes mixing clause chains with an optional at-least, so
    the twoway pipeline sees both vectorizable and counter-bearing cases."""
    size = draw(st.integers(min_value=2, max_value=3))
    names = NAMES[:size]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names)),
            max_size=2,
        )
    )
    cis = [(a, b) for a, b in pairs if a != b]
    if draw(st.booleans()):
        cis.append((names[0], f">=1 r.{names[-1]}"))
    return names, TBox.of(cis, name="vecprop2")


@settings(max_examples=10, deadline=None)
@given(alcq_tboxes())
def test_twoway_fixpoint_matches_bitset(instance):
    names, raw = instance
    tbox = normalize(raw)
    tau = Type.of(names[0])
    query = parse_query(f"{names[0]}(x), r(x,y), {names[-1]}(y)")
    results = {}
    for backend in ("bitset", "vec"):
        config = TwoWayConfig(
            limits=SearchLimits(max_nodes=3, max_steps=500),
            max_types=2**16,
            backend=backend,
        )
        results[backend] = realizable_refuting_twoway(tau, tbox, query, config=config)
    bits, vec = results["bitset"], results["vec"]
    assert bits.realizable == vec.realizable
    assert bits.complete == vec.complete
    assert bits.stats == vec.stats
    assert bits.survivors == vec.survivors


@settings(max_examples=10, deadline=None)
@given(alcq_tboxes())
def test_twoway_batched_oracles_match_fresh_configs(instance):
    """A shared config batches the P1/P2/base oracles through the per-context
    fixpoint memos; verdicts must match per-type runs with fresh configs,
    on both backends."""
    names, raw = instance
    tbox = normalize(raw)
    query = parse_query(f"{names[0]}(x), r(x,y), {names[-1]}(y)")
    taus = [Type.of(name) for name in names]

    def run(backend, shared):
        limits = SearchLimits(max_nodes=3, max_steps=500)
        config = TwoWayConfig(limits=limits, max_types=2**16, backend=backend)
        verdicts = []
        for tau in taus:
            if not shared:
                config = TwoWayConfig(
                    limits=limits, max_types=2**16, backend=backend
                )
            verdicts.append(
                realizable_refuting_twoway(tau, tbox, query, config=config).realizable
            )
        return verdicts

    batched_vec = run("vec", shared=True)
    assert batched_vec == run("vec", shared=False)
    assert batched_vec == run("bitset", shared=True)
    assert batched_vec == run("bitset", shared=False)
