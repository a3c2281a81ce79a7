"""Connector search guard + vec backend plumbing.

Covers: the eager connector-space guard (fires before any bundle list is
built), the counting-TBox end-to-end run whose T_c carries fresh-name
definitions (bitset and vec identical), the backend-downgrade reason
counters, and the negated-counter end-to-end acceptance run
(`TwoWayResult.backend == "vec"` with
`kernel.backend.fallback.negated_counters` untouched).
"""

import pytest

import repro.core.twoway as twoway
import repro.dl.fragments as fragments
from repro.core.search import SearchLimits
from repro.core.twoway import (
    ProcedureInfeasible,
    TwoWayConfig,
    _connector_exists,
    _resolve_with_reason,
    realizable_refuting_twoway,
)
from repro.dl.normalize import AtLeastCI, NormalizedTBox, normalize
from repro.dl.tbox import TBox
from repro.graphs.labels import NodeLabel, Role
from repro.graphs.types import Type
from repro.kernel import vec
from repro.kernel.vec import HAVE_NUMPY, VEC_MAX_ROWS, resolve_backend
from repro.obs import REGISTRY, counter_delta
from repro.queries.parser import parse_query

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed; vec backend unavailable"
)

R = Role("r")
NAMES = ["A", "B", "C"]


def _maximal_pool():
    """All 8 maximal types over A, B, C."""
    return [
        Type([NodeLabel(nm, not (bits >> i) & 1) for i, nm in enumerate(NAMES)])
        for bits in range(8)
    ]


def test_oversized_space_fails_before_bundles_are_built(monkeypatch):
    """The ProcedureInfeasible guard must fire eagerly — before any
    connector bundle list is materialized."""

    def boom(*_args, **_kwargs):  # pragma: no cover - guard must preempt this
        raise AssertionError("bundle list built despite the space guard")

    monkeypatch.setattr(twoway, "combinations_with_replacement", boom)
    tbox = NormalizedTBox(
        clauses=[], universals=[],
        at_leasts=[AtLeastCI(NodeLabel("A"), 1, R, NodeLabel("B"))],
        at_mosts=[], name="cv1",
    )
    with pytest.raises(ProcedureInfeasible, match="connector candidate space"):
        _connector_exists(
            Type.of("A"), _maximal_pool(), tbox,
            parse_query("C(x)"), [R], max_leaves=3, max_candidates=5,
        )


@needs_numpy
def test_counting_fresh_names_twoway_matches_bitset():
    """A counting TBox whose T_c carries fresh-name definitions: verdict,
    stats (incl. connector picks examined), and survivors identical on
    both backends.  E22's full run repeats this with ``<=3 r.B``, a larger
    pick space."""
    raw = TBox.of([("A", ">=2 r.B"), ("B", "C"), ("C", "<=2 r.B")], name="scan")
    tbox = normalize(raw)
    assert fragments.alcq_factorization(tbox).connectors_tbox.definitions
    query = parse_query("A(x), r(x,y), B(y)")
    results = {}
    for backend in ("bitset", "vec"):
        config = TwoWayConfig(
            limits=SearchLimits(max_nodes=3, max_steps=500),
            max_types=2**20, max_connector_candidates=500_000, backend=backend,
        )
        results[backend] = realizable_refuting_twoway(
            Type.of("A"), tbox, query, config=config
        )
    bits, vecr = results["bitset"], results["vec"]
    assert bits.realizable == vecr.realizable
    assert bits.stats == vecr.stats
    assert bits.survivors == vecr.survivors
    assert vecr.backend == "vec"


@needs_numpy
def test_negated_counter_labels_run_on_vec(monkeypatch):
    """Acceptance: with the complemented-column encoding, a P1/P2 instance
    whose factorization emits *negated* counter labels stays on the vec
    backend (no `negated_counters` fallback) and matches bitset bit for
    bit."""
    orig = fragments.counter_label

    def negated_counters(i, role, filler, tag):
        label = orig(i, role, filler, tag)
        return NodeLabel(label.name, i % 2 == 1)

    monkeypatch.setattr(fragments, "counter_label", negated_counters)
    tbox = normalize(TBox.of([("A", ">=1 r.B")], name="negc"))
    query = parse_query("A(x), r(x,y), B(y)")
    before = REGISTRY.counters_snapshot()
    results = {}
    for backend in ("bitset", "vec"):
        config = TwoWayConfig(
            limits=SearchLimits(max_nodes=3, max_steps=500),
            max_types=2**20, backend=backend,
        )
        results[backend] = realizable_refuting_twoway(
            Type.of("A"), tbox, query, config=config
        )
    delta = counter_delta(before, REGISTRY.counters_snapshot())
    bits, vecr = results["bitset"], results["vec"]
    assert bits.realizable == vecr.realizable
    assert bits.stats == vecr.stats
    assert bits.survivors == vecr.survivors
    assert vecr.backend == "vec"
    assert delta.get("kernel.backend.fallback.negated_counters", 0) == 0


def test_downgrade_records_negated_counters_reason():
    """A name collision involving a negated counter label downgrades the
    fixpoint to bitset and counts the reason."""
    config = TwoWayConfig(backend="auto")
    before = REGISTRY.counters_snapshot()
    chosen = _resolve_with_reason(
        config, ["A0"], [[NodeLabel("A0", True)]], total=8
    )
    delta = counter_delta(before, REGISTRY.counters_snapshot())
    assert chosen == "bitset"
    assert delta.get("kernel.backend.fallback.negated_counters") == 1


def test_downgrade_not_recorded_when_bitset_requested():
    config = TwoWayConfig(backend="bitset")
    before = REGISTRY.counters_snapshot()
    _resolve_with_reason(config, ["A0"], [[NodeLabel("A0", True)]], total=8)
    delta = counter_delta(before, REGISTRY.counters_snapshot())
    assert delta.get("kernel.backend.fallback.negated_counters", 0) == 0


def test_resolve_backend_records_table_too_large():
    before = REGISTRY.counters_snapshot()
    assert resolve_backend("auto", VEC_MAX_ROWS * 2) == "bitset"
    delta = counter_delta(before, REGISTRY.counters_snapshot())
    assert delta.get("kernel.backend.fallback.table_too_large") == 1


def test_resolve_backend_records_numpy_missing(monkeypatch):
    monkeypatch.setattr(vec, "HAVE_NUMPY", False)
    before = REGISTRY.counters_snapshot()
    assert resolve_backend("auto", 2**20) == "bitset"
    delta = counter_delta(before, REGISTRY.counters_snapshot())
    assert delta.get("kernel.backend.fallback.numpy_missing") == 1
    assert delta.get("kernel.backend.auto_fallback") == 1
