"""Chaos acceptance suite: injected failures never corrupt an answer.

Each test arms the deterministic fault harness, drives a real pipeline
path, and asserts the degraded-but-correct outcome the resilience layer
promises — expired deadlines surfacing as *incomplete* verdicts, failed
decisions isolated to error responses while the batch flows, journal write
failures degrading to memory-only.  No test expects an unhandled exception
anywhere.
"""

import io
import json

import pytest

from repro.core.containment import ContainmentOptions, is_contained
from repro.dl.tbox import TBox
from repro.io import tbox_to_dict
from repro.resilience import Deadline, clear_faults, injected_faults
from repro.service.server import ContainmentServer


@pytest.fixture(autouse=True)
def _no_faults():
    """Every test starts and ends without an armed fault plan."""
    clear_faults()
    yield
    clear_faults()


def _decision(prefix):
    """A forall-typed containment instance with concept names unique to the
    calling test — the process-wide decision memo may legitimately answer
    an already-completed identical decision before consulting a deadline,
    so each test needs a decision no other test (or suite) has run."""
    tbox = TBox.of([(f"{prefix}A", f"forall {prefix}_r.{prefix}B")])
    return f"{prefix}A(x), {prefix}_r(x,y)", f"{prefix}B(y)", tbox


class TestDeadlineCut:
    def test_expired_deadline_yields_incomplete_verdict(self):
        lhs, rhs, tbox = _decision("Zap")
        options = ContainmentOptions(deadline=Deadline.after_ms(0))
        result = is_contained(lhs, rhs, tbox, options=options)
        assert result.complete is False
        assert result.deadline_expired is True

    def test_cut_decision_does_not_poison_caches(self):
        lhs, rhs, tbox = _decision("Poi")
        cut = is_contained(
            lhs, rhs, tbox,
            options=ContainmentOptions(deadline=Deadline.after_ms(0)),
        )
        assert cut.deadline_expired
        # the same decision without a deadline must now run to completion
        full = is_contained(lhs, rhs, tbox)
        assert full.complete is True
        assert full.deadline_expired is False
        assert full.contained is True

    def test_no_deadline_and_never_deadline_agree(self):
        lhs, rhs, tbox = _decision("Agr")
        plain = is_contained(lhs, rhs, tbox)
        never = is_contained(
            lhs, rhs, tbox,
            options=ContainmentOptions(deadline=Deadline.never()),
        )
        assert plain == never


def _serve(server, requests):
    out = io.StringIO()
    text = "\n".join(
        r if isinstance(r, str) else json.dumps(r) for r in requests
    )
    server.serve_pipe(io.StringIO(text + "\n"), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestServiceChaos:
    def test_transient_dispatch_fault_is_retried(self):
        server = ContainmentServer(use_cache=False)
        with injected_faults("scheduler.dispatch:raise:1") as plan:
            responses = _serve(server, [
                {"type": "decide", "id": "a", "lhs": "A(x)", "rhs": "A(x)"},
            ])
            assert plan.report()["scheduler.dispatch"]["fired"] == 1
        assert responses[-1]["type"] == "verdict"
        assert responses[-1]["verdict"]["contained"] is True
        assert server.scheduler.metrics.counter("decision_retries") == 1

    def test_persistent_fault_isolated_to_error_response(self):
        server = ContainmentServer(use_cache=False)
        with injected_faults("scheduler.dispatch:raise:-1"):
            responses = _serve(server, [
                {"type": "decide", "id": "doomed", "lhs": "A(x)", "rhs": "A(x)"},
                {"type": "flush"},
            ])
        # retries exhausted -> structured error, the loop did not die
        errors = [r for r in responses if r["type"] == "error"]
        assert len(errors) == 1
        assert errors[0]["id"] == "doomed"
        assert "decision failed" in errors[0]["error"]
        # and the same request succeeds once the fault clears
        after = _serve(server, [
            {"type": "decide", "id": "doomed", "lhs": "A(x)", "rhs": "A(x)"},
        ])
        assert after[-1]["type"] == "verdict"

    def test_timeout_ms_request_yields_incomplete_response(self):
        server = ContainmentServer(use_cache=False)
        # concept names unique to this test: the process-wide decision memo
        # may legitimately answer an already-completed identical decision
        # even under an expired deadline
        schema = tbox_to_dict(TBox.of([("ChaosA", "forall s.ChaosB")], name="chaos"))
        responses = _serve(server, [
            {"type": "schema", "ref": "s1", "tbox": schema},
            {"type": "decide", "id": "t", "lhs": "ChaosA(x), s(x,y)",
             "rhs": "ChaosB(y)", "schema_ref": "s1",
             "options": {"timeout_ms": 0}},
            {"type": "decide", "id": "ok", "lhs": "A(x)", "rhs": "A(x)"},
        ])
        by_id = {r["id"]: r for r in responses if "id" in r}
        assert by_id["t"]["type"] == "verdict"
        assert by_id["t"]["verdict"]["deadline_expired"] is True
        assert by_id["t"]["verdict"]["complete"] is False
        # the batch kept flowing around the timed-out decision
        assert by_id["ok"]["verdict"]["contained"] is True
        assert server.scheduler.metrics.counter("timeouts") == 1

    def test_cache_append_fault_degrades_to_memory_only(self, tmp_path):
        server = ContainmentServer(
            cache_dir=tmp_path, use_cache=True
        )
        with injected_faults("cache.append:raise:-1"):
            responses = _serve(server, [
                {"type": "decide", "id": "a", "lhs": "A(x)", "rhs": "A(x)"},
            ])
        cache = server.scheduler.cache
        assert responses[-1]["type"] == "verdict"
        assert cache.metrics.counter("cache_write_failures") == 1
        # memory-only: the verdict is indexed but never reached disk
        assert len(cache) == 1
        assert not (tmp_path / "decisions.jsonl").exists()
        # the in-memory copy still answers a warm repeat of the request
        again = _serve(server, [
            {"type": "decide", "id": "a2", "lhs": "A(x)", "rhs": "A(x)"},
        ])
        assert again[-1]["type"] == "verdict"
        assert again[-1]["source"] == "dedup"
