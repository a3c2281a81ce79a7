"""The decision scheduler: dedup, priority execution, deterministic output."""

import copy
import json

from repro.core.containment import (
    ContainmentOptions,
    ContainmentResult,
    decision_key,
    is_contained,
)
from repro.core.reduction import query_key
from repro.dl.pg_schema import figure1_schema
from repro.dl.tbox import TBox
from repro.graphs.graph import Graph
from repro.io import query_to_text, tbox_to_dict, verdict_to_dict
from repro.obs import REGISTRY
from repro.queries import parser as parser_module
from repro.queries.parser import parse_crpq, parse_query
from repro.resilience.audit import VerdictAuditor
from repro.service import scheduler as scheduler_module
from repro.service.cache import DecisionCache
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import Request, parse_request
from repro.service.scheduler import DecisionScheduler
from repro.workloads.generators import log_like_queries


def _tbox_dict():
    return tbox_to_dict(
        TBox.of(
            [("Customer", "forall owns.CredCard"), ("Customer", "exists owns.CredCard")],
            name="cards",
        )
    )


def _decide(seq, id=None, lhs="owns(x,y)", rhs="CredCard(y)", **extra):
    payload = {"type": "decide", "id": id or f"r{seq}", "lhs": lhs, "rhs": rhs}
    payload.update(extra)
    return parse_request(json.dumps(payload), seq=seq)


class TestDedupAndOrdering:
    def test_identical_requests_collapse(self):
        metrics = ServiceMetrics()
        scheduler = DecisionScheduler(metrics=metrics)
        for seq in range(1, 4):
            assert scheduler.submit(_decide(seq)) is None
        responses = scheduler.drain()
        assert [r["id"] for r in responses] == ["r1", "r2", "r3"]
        assert [r["source"] for r in responses] == ["computed", "dedup", "dedup"]
        assert metrics.counter("decisions_executed") == 1
        assert metrics.counter("dedup_collapses") == 2
        # collapsed responses carry the identical verdict payload
        assert responses[0]["verdict"] == responses[1]["verdict"] == responses[2]["verdict"]

    def test_priority_orders_execution_not_emission(self):
        scheduler = DecisionScheduler()
        scheduler.submit(_decide(1, id="late", priority=5))
        scheduler.submit(_decide(2, id="early", priority=-5))
        responses = scheduler.drain()
        # emission stays in arrival order...
        assert [r["id"] for r in responses] == ["late", "early"]
        # ...but the high-priority request ran first and owns the computation
        assert {r["id"]: r["source"] for r in responses} == {
            "early": "computed", "late": "dedup",
        }

    def test_different_options_do_not_collapse(self):
        metrics = ServiceMetrics()
        scheduler = DecisionScheduler(metrics=metrics)
        scheduler.submit(_decide(1))
        scheduler.submit(_decide(2, options={"max_word_length": 3}))
        scheduler.drain()
        assert metrics.counter("decisions_executed") == 2


class TestVerdictFidelity:
    def test_bit_identical_to_sequential_calls(self):
        scheduler = DecisionScheduler()
        cases = [
            ("owns(x,y)", "CredCard(y)", None),
            ("Customer(x), owns(x,y)", "owns(x,y), CredCard(y)", _tbox_dict()),
            ("A(x)", "A(x); B(x)", None),
        ]
        for seq, (lhs, rhs, schema) in enumerate(cases, 1):
            scheduler.submit(_decide(seq, lhs=lhs, rhs=rhs, schema=schema))
        responses = scheduler.drain()
        for (lhs, rhs, schema), response in zip(cases, responses):
            tbox = None
            if schema is not None:
                from repro.io import tbox_from_dict

                tbox = tbox_from_dict(schema)
            expected = is_contained(
                lhs, rhs, tbox, options=ContainmentOptions(use_cache=False)
            )
            assert response["verdict"] == verdict_to_dict(expected)

    def test_schema_session_reused_across_requests(self):
        metrics = ServiceMetrics()
        scheduler = DecisionScheduler(metrics=metrics)
        scheduler.submit(_decide(1, lhs="Customer(x)", schema=_tbox_dict()))
        scheduler.submit(_decide(2, lhs="Company(x)", schema=_tbox_dict()))
        scheduler.drain()
        assert metrics.counter("sessions_created") == 1
        assert metrics.counter("kernel_reuse") == 1


class TestCacheIntegration:
    def test_persistent_hits_skip_execution(self, tmp_path):
        first = DecisionScheduler(cache=DecisionCache(tmp_path))
        first.submit(_decide(1))
        (cold,) = first.drain()
        metrics = ServiceMetrics()
        warm = DecisionScheduler(cache=DecisionCache(tmp_path, metrics), metrics=metrics)
        warm.submit(_decide(1))
        (hit,) = warm.drain()
        assert hit["source"] == "cache"
        assert hit["verdict"] == cold["verdict"]
        assert metrics.counter("decisions_executed") == 0


class TestValidation:
    def test_parse_error_returns_error_response(self):
        scheduler = DecisionScheduler()
        error = scheduler.submit(_decide(1, lhs="not a query (("))
        assert error is not None and error["type"] == "error"
        assert scheduler.pending() == 0

    def test_unknown_schema_ref(self):
        scheduler = DecisionScheduler()
        error = scheduler.submit(_decide(1, schema_ref="ghost"))
        assert error["type"] == "error" and "ghost" in error["error"]


class TestInterning:
    def test_same_text_yields_same_query_object(self, parsed):
        scheduler = DecisionScheduler()
        scheduler.submit(_decide(1))
        scheduler.submit(_decide(2, rhs="owns(x,y)"))
        first, second = sorted(scheduler._queue)
        assert first.lhs is second.lhs
        scheduler.drain()
        scheduler.submit(_decide(3))
        (third,) = scheduler._queue
        assert third.lhs is first.lhs and third.rhs is first.rhs
        # one parse per distinct text, however many requests carry it
        assert sorted(parsed) == ["CredCard(y)", "owns(x,y)"]

    def test_parse_errors_answer_every_time_and_are_never_stored(self, parsed):
        scheduler = DecisionScheduler()
        for seq in (1, 2):
            error = scheduler.submit(_decide(seq, lhs="not a query (("))
            assert error["type"] == "error"
            assert error["error"].startswith("query parse error")
        assert parsed == ["not a query ((", "not a query (("]
        assert "not a query ((" not in parser_module._PARSED
        assert scheduler.pending() == 0

    def test_table_stays_at_its_cap(self, parsed):
        scheduler = DecisionScheduler()
        cap = parser_module._PARSED.max_entries
        for seq in range(cap + 10):
            assert scheduler.submit(_decide(seq, lhs=f"A{seq}(x)", rhs="B(x)")) is None
        assert len(parser_module._PARSED) == cap
        # FIFO: the first texts were evicted, the newest are kept
        assert "A0(x)" not in parser_module._PARSED
        assert f"A{cap + 9}(x)" in parser_module._PARSED

    def test_cached_query_key_equals_fresh_computation(self):
        scheduler = DecisionScheduler()
        texts = [
            query_to_text(query)
            for _shape, query in log_like_queries(
                60, ["A", "B", "C"], ["r", "s"], seed=5
            )
        ]
        for text in texts:
            assert scheduler.submit(_decide(1, lhs=text, rhs=text)) is None
            (item,) = scheduler._queue
            scheduler._queue.clear()
            interned = item.lhs
            assert interned is item.rhs is parse_query(text)
            fresh = tuple(
                (
                    tuple(str(atom) for atom in disjunct.atoms),
                    tuple(sorted(str(v) for v in disjunct.isolated_variables)),
                )
                for disjunct in (parse_crpq(part) for part in text.split(";"))
            )
            assert query_key(interned) == fresh
            # the second call answers from the cache on the object
            assert query_key(interned) is query_key(interned)
            assert decision_key(interned, interned) == decision_key(text, text)


class TestAuditAtMemoEntry:
    """A verdict is audited once, when it enters the dedup memo; the memo
    holds it as frozen text, so repeats are served without a re-check."""

    @staticmethod
    def _audited(**kwargs):
        metrics = ServiceMetrics()
        scheduler = DecisionScheduler(
            metrics=metrics,
            auditor=VerdictAuditor(metrics, ab_sample_every=0),
            semantic_cache=False,
            **kwargs,
        )
        return metrics, scheduler

    def test_mutated_served_verdict_cannot_reach_the_memo(self):
        metrics, scheduler = self._audited()
        schema = tbox_to_dict(figure1_schema())
        scheduler.submit(_decide(1, lhs="Company(x)", rhs="CredCard(x)", schema=schema))
        (served,) = scheduler.drain()
        assert served["source"] == "computed"
        first = copy.deepcopy(served["verdict"])
        assert first["contained"] is False
        # poison the served witness in place with a disjointness violation
        # (Figure 1 declares Customer and Company disjoint)
        nodes = served["verdict"]["countermodel"]["nodes"]
        for node, labels in nodes.items():
            if "Company" in labels:
                nodes[node] = list(labels) + ["Customer"]
        assert served["verdict"] != first
        audit_before = REGISTRY.snapshot_prefixed("audit.false.")

        scheduler.submit(_decide(2, lhs="Company(x)", rhs="CredCard(x)", schema=schema))
        (again,) = scheduler.drain()
        assert again["source"] == "dedup"
        assert again["verdict"] == first
        assert metrics.counter("decisions_executed") == 1
        # the dedup hit ran no witness check
        assert REGISTRY.snapshot_prefixed("audit.false.") == audit_before

    def test_computed_verdict_failing_its_audit_is_never_stored(
        self, tmp_path, monkeypatch
    ):
        # an engine bug: the "countermodel" matches the rhs, on the first
        # decision and on the reference re-decide alike
        bogus = Graph()
        bogus.add_node("n", ["A", "B"])

        def broken(lhs, rhs, tbox, method="auto", options=None):
            return ContainmentResult(
                contained=False, complete=True, method="direct", countermodel=bogus
            )

        monkeypatch.setattr(scheduler_module, "is_contained", broken)
        cache = DecisionCache(tmp_path)
        _metrics, scheduler = self._audited(cache=cache)
        request = _decide(1, lhs="A(x)", rhs="B(x)")
        key = scheduler._validate(request).key
        redecides = REGISTRY.get("audit.reference.redecides")

        scheduler.submit(request)
        (answer,) = scheduler.drain()
        assert answer["type"] == "error"
        assert "audit failed" in answer["error"]
        assert REGISTRY.get("audit.reference.redecides") == redecides + 1
        assert key not in scheduler._results
        assert cache.get(key) is None
        assert not (tmp_path / "decisions.jsonl").exists()
