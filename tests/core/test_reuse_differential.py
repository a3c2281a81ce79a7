"""Reused inputs decide exactly like fresh ones.

``parse_query`` keeps one parsed object per text and ``normalize`` caches on
the ``TBox`` object, so a loop over one schema decides every pair from shared
objects and the caches they carry.  A seeded differential decides query-log
pairs that way, then again from fresh inputs: a new, equal ``TBox`` and
``reset_process_caches()`` before each call.  Everything a caller sees must
agree: verdict, certainty, method, seeds tried and the countermodel.
"""

import random

import pytest

from repro.core.containment import is_contained
from repro.dl.tbox import TBox
from repro.io import query_to_text
from repro.service.sessions import reset_process_caches
from repro.workloads.er_schemas import ERProfile, random_er_schema
from repro.workloads.generators import chain_schema, log_like_queries


def _chain():
    return chain_schema(3), [f"L{i}" for i in range(4)], ["r", "s"]


def _er():
    schema = random_er_schema(ERProfile(entities=4, relationships=3), seed=4)
    return schema.to_tbox(), sorted(schema.node_labels), sorted(schema.roles)


def _pairs(labels, roles, seed: int, count: int) -> list[tuple[str, str]]:
    log = [query_to_text(q) for _, q in log_like_queries(48, labels, roles, seed=seed)]
    rng = random.Random(seed)
    return [(rng.choice(log), rng.choice(log)) for _ in range(count)]


def _view(result) -> tuple:
    model = result.countermodel.describe() if result.countermodel is not None else None
    return (result.contained, result.complete, result.method, result.seeds_tried, model)


@pytest.mark.parametrize("build, seed, count", [(_chain, 11, 150), (_er, 12, 80)])
def test_reused_inputs_answer_like_fresh_ones(build, seed, count):
    tbox, labels, roles = build()
    pairs = _pairs(labels, roles, seed, count)
    reused = [_view(is_contained(lhs, rhs, tbox)) for lhs, rhs in pairs]
    fresh = []
    for lhs, rhs in pairs:
        reset_process_caches()
        fresh.append(_view(is_contained(lhs, rhs, TBox(tbox.cis, tbox.name))))
    assert reused == fresh
    # the pairs reach both verdicts and the chase
    assert {view[0] for view in reused} == {True, False}
    assert any(view[2] == "direct" for view in reused)
