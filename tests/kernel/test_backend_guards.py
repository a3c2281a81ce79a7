"""Regression tests: backend-resolution guards and vec table-cache bounds.

Covers the failure modes around infeasibly wide signatures: explicit
``backend="vec"`` must fail eagerly at resolve time (not lazily inside an
enumeration), ``"auto"`` must never select a table the enumerator cannot
materialize, and the per-process table cache must bound retained *rows*,
not just entry count.
"""

import pytest

from repro.dl.normalize import NormalizedTBox
from repro.kernel import vec
from repro.kernel.backend import (
    HAVE_NUMPY,
    VEC_MAX_ROWS,
    VecUnavailable,
    resolve_backend,
)

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy not installed; vec backend unavailable"
)


def _empty_tbox(name="guards"):
    return NormalizedTBox(
        clauses=[], universals=[], at_leasts=[], at_mosts=[], name=name
    )


def test_auto_never_selects_vec_beyond_enum_limit():
    assert resolve_backend("auto", VEC_MAX_ROWS * 2) == "bitset"


@needs_numpy
def test_explicit_vec_beyond_enum_limit_raises_eagerly():
    with pytest.raises(VecUnavailable, match="candidate rows"):
        resolve_backend("vec", VEC_MAX_ROWS * 2)


@needs_numpy
def test_table_cache_skips_oversized_tables(monkeypatch):
    monkeypatch.setattr(vec, "_TABLE_CACHE", {})
    monkeypatch.setattr(vec, "_TABLE_CACHE_ENTRY_ROWS", 4)
    table = vec.vec_table_for(_empty_tbox(), ["A0", "A1", "A2"])
    assert len(table) == 8  # built and returned...
    assert vec._TABLE_CACHE == {}  # ...but not retained


@needs_numpy
def test_table_cache_row_budget_evicts_oldest(monkeypatch):
    monkeypatch.setattr(vec, "_TABLE_CACHE", {})
    monkeypatch.setattr(vec, "_TABLE_CACHE_MAX_ROWS", 10)
    tbox = _empty_tbox()
    vec.vec_table_for(tbox, ["A0", "A1", "A2"])  # 8 rows
    second = vec.vec_table_for(tbox, ["B0", "B1", "B2"])  # 8 more: over budget
    assert len(vec._TABLE_CACHE) == 1
    assert next(iter(vec._TABLE_CACHE.values())) is second


@needs_numpy
def test_table_cache_hit_returns_same_table():
    vec._TABLE_CACHE.clear()
    tbox = _empty_tbox()
    first = vec.vec_table_for(tbox, ["A0", "A1"])
    assert vec.vec_table_for(tbox, ["A0", "A1"]) is first
