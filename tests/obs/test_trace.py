"""Span nesting, exception safety, determinism, and the tracing context."""

import pytest

from repro.obs import (
    NULL_SPAN,
    CounterRegistry,
    PhaseAggregator,
    Tracer,
    active_collector,
    enabled,
    install,
    span,
    tracing,
    uninstall,
)


@pytest.fixture(autouse=True)
def _clean_collector():
    uninstall()
    yield
    uninstall()


class TestDisabledPath:
    def test_span_without_collector_is_the_null_singleton(self):
        assert span("anything") is NULL_SPAN
        assert span("other", attr=1) is NULL_SPAN

    def test_null_span_supports_the_full_protocol(self):
        with span("x") as sp:
            assert sp.set(foo=1) is sp
            assert not sp.recording

    def test_null_span_swallows_nothing(self):
        with pytest.raises(ValueError):
            with span("x"):
                raise ValueError("must propagate")

    def test_enabled_reflects_installation(self):
        assert not enabled()
        install(Tracer(registry=CounterRegistry()))
        assert enabled()
        uninstall()
        assert not enabled()


class TestNesting:
    def test_children_attach_in_open_order(self):
        with tracing(registry=CounterRegistry()) as tracer:
            with span("root"):
                with span("a"):
                    with span("a1"):
                        pass
                with span("b"):
                    pass
        (root,) = tracer.roots
        assert root.name == "root"
        assert [child.name for child in root.children] == ["a", "b"]
        assert [child.name for child in root.children[0].children] == ["a1"]

    def test_seq_is_open_order(self):
        with tracing(registry=CounterRegistry()) as tracer:
            with span("root"):
                with span("a"):
                    pass
                with span("b"):
                    pass
        names = {node.seq: node.name for node, _ in tracer.walk()}
        assert names == {0: "root", 1: "a", 2: "b"}

    def test_durations_nest(self):
        with tracing(registry=CounterRegistry()) as tracer:
            with span("outer"):
                with span("inner"):
                    pass
        (outer,) = tracer.roots
        (inner,) = outer.children
        assert outer.dur_ms >= inner.dur_ms >= 0.0
        assert outer.own_ms == pytest.approx(outer.dur_ms - inner.dur_ms)

    def test_sibling_roots(self):
        with tracing(registry=CounterRegistry()) as tracer:
            with span("first"):
                pass
            with span("second"):
                pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_attrs_via_kwargs_and_set(self):
        with tracing(registry=CounterRegistry()) as tracer:
            with span("s", before=1) as sp:
                sp.set(after=2)
        (node,) = tracer.roots
        assert node.attrs == {"before": 1, "after": 2}


class TestExceptionSafety:
    def test_raising_span_still_closes_and_records(self):
        with tracing(registry=CounterRegistry()) as tracer:
            with pytest.raises(RuntimeError):
                with span("outer"):
                    with span("boom"):
                        raise RuntimeError("inner failure")
        (outer,) = tracer.roots
        (boom,) = outer.children
        assert boom.status == "error"
        assert boom.attrs["error"] == "RuntimeError"
        assert boom.dur_ms >= 0.0
        assert outer.status == "error"  # the exception traversed it too

    def test_spans_after_exception_attach_correctly(self):
        with tracing(registry=CounterRegistry()) as tracer:
            with span("root"):
                try:
                    with span("fails"):
                        raise ValueError()
                except ValueError:
                    pass
                with span("recovers"):
                    pass
        (root,) = tracer.roots
        assert [c.name for c in root.children] == ["fails", "recovers"]
        assert root.status == "ok"
        assert root.children[0].status == "error"
        assert root.children[1].status == "ok"

    def test_phase_observed_for_error_spans(self):
        registry = CounterRegistry()
        with tracing(registry=registry):
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError()
        phases = registry.snapshot()["phases"]
        assert phases["doomed"]["count"] == 1


class TestTracingContext:
    def test_restores_previous_collector(self):
        outer = install(PhaseAggregator(CounterRegistry()))
        with tracing(registry=CounterRegistry()) as tracer:
            assert active_collector() is tracer
        assert active_collector() is outer

    def test_trace_id_carried(self):
        with tracing("d-123", registry=CounterRegistry()) as tracer:
            pass
        assert tracer.trace_id == "d-123"


class TestPhaseAggregator:
    def test_aggregates_counts_and_totals_without_tree(self):
        registry = CounterRegistry()
        install(PhaseAggregator(registry))
        for _ in range(3):
            with span("decision"):
                with span("search"):
                    pass
        uninstall()
        phases = registry.snapshot()["phases"]
        assert phases["decision"]["count"] == 3
        assert phases["search"]["count"] == 3
        assert phases["decision"]["total_ms"] >= phases["search"]["total_ms"] >= 0.0
