"""E19 — observability overhead A/B: disabled tracing is (near) free.

The ``repro.obs`` spans stay in the hot paths permanently, so the claim
that matters is about the *disabled* mode: with no collector installed,
``span(...)`` is one module-global read plus returning the shared
``NULL_SPAN`` singleton.  This experiment quantifies that on two real
workloads — the E5 largest row (type elimination at |Γ₀|=4) and the E7
n=128 incremental-chase sweep point — and verifies tracing is passive:

* **disabled overhead** — a microbenchmark measures the per-call cost of
  a disabled ``span()``; multiplied by the span count the workload
  actually emits and divided by its untraced wall time (the median of
  ``TIMED_CALLS`` calls), that bounds the overhead the instrumentation adds
  when nobody is tracing.  Asserted under 3% on both workloads.  The traced
  column is likewise the median of ``TIMED_CALLS`` calls, each under its
  own ``Tracer``.
* **bit-identity** — running the same workload under a live ``Tracer``
  must not change the outcome: verdict fingerprints (including
  countermodels) from every traced and untraced call are compared exactly.
* **trace shape** — the Fig. 1 reduction decision must export valid
  Chrome ``trace_event`` JSON with correctly nested
  reduction → elimination → search spans.

Also runnable standalone as a CI smoke::

    python benchmarks/bench_obs_overhead.py --quick

which runs trimmed workloads (sub-second) and exits non-zero on any
fingerprint divergence, overhead breach, or malformed trace.
"""

import argparse
import statistics
import sys
import time

from conftest import print_table

from repro.core.containment import ContainmentOptions, is_contained
from repro.core.oneway import realizable_refuting_oneway
from repro.core.reduction import ReductionConfig
from repro.core.search import CountermodelSearch, SearchLimits
from repro.dl.normalize import normalize
from repro.dl.pg_schema import figure1_schema
from repro.dl.tbox import TBox
from repro.graphs.generators import path_graph
from repro.graphs.types import Type
from repro.obs import chrome_trace, enabled, span, tracing, uninstall
from repro.queries.parser import parse_query
from repro.queries.presets import example_36_factorization, example_36_query

OVERHEAD_BUDGET_PCT = 3.0

TIMED_CALLS = 5
"""Timed calls per arm; each arm's time is their median."""


# --------------------------------------------------------------------- #
# workloads (shared with E5 / E17 — kept in sync with those benches)


def _e5_workload(extra: int):
    """E5 row: type elimination with `extra` padding labels inflating Γ₀."""
    cis = [("A", "exists r.B")] + [(f"X{i}", f"Y{i}") for i in range(extra)]
    tbox = normalize(TBox.of(cis, name=f"pad{extra}"))

    def run():
        result = realizable_refuting_oneway(
            Type.of("A"), tbox, example_36_query(),
            factorization=example_36_factorization(),
            limits=SearchLimits(max_nodes=4, max_steps=4000),
            max_types=2**18,
        )
        return (
            result.realizable, result.iterations,
            tuple(result.type_counts), tuple(result.gamma),
        )

    return f"E5 |Γ₀|={extra + 1}", run


def _e7_workload(n: int):
    """E7 sweep point: disjunctive labelling over an n-node r-path."""
    tbox = normalize(TBox.of([("A", "B | C")]))
    query = parse_query("r*(x,y), B(y), C(y)")

    def run():
        seed = path_graph(n, "r")
        for node in seed.node_list():
            seed.add_label(node, "A")
        outcome = CountermodelSearch(
            tbox, query, seed, limits=SearchLimits(max_nodes=n + 4)
        ).run()
        model = outcome.countermodel
        return (outcome.found, None if model is None else model.describe())

    return f"E7 sweep n={n}", run


# --------------------------------------------------------------------- #
# measurements


def disabled_span_cost_ns(calls: int = 200_000) -> float:
    """Per-call wall cost of ``span()`` with no collector installed.

    Includes the loop and context-manager overhead, so it *over*-estimates
    the marginal cost — conservative for the <3% claim.
    """
    uninstall()
    assert not enabled()
    start = time.perf_counter()
    for _ in range(calls):
        with span("bench"):
            pass
    return (time.perf_counter() - start) / calls * 1e9


def _timed(run, traced: bool):
    """One call: (fingerprint, seconds, spans emitted; 0 when untraced)."""
    start = time.perf_counter()
    if not traced:
        print_of = run()
        return print_of, time.perf_counter() - start, 0
    with tracing("e19") as tracer:
        print_of = run()
    return print_of, time.perf_counter() - start, tracer.span_count()


def measure_workload(name, run, cost_ns):
    """One A/B row: median untraced and traced timings over ``TIMED_CALLS``
    calls each, span census, identity."""
    run()  # warm caches (compiled matchers, memos) out of the measurement
    untraced = [_timed(run, traced=False) for _ in range(TIMED_CALLS)]
    traced = [_timed(run, traced=True) for _ in range(TIMED_CALLS)]
    untraced_s = statistics.median(elapsed for _print, elapsed, _spans in untraced)
    traced_s = statistics.median(elapsed for _print, elapsed, _spans in traced)

    spans = max(count for _print, _elapsed, count in traced)
    est_pct = spans * cost_ns / (untraced_s * 1e9) * 100.0
    reference = untraced[0][0]
    identical = all(print_of == reference for print_of, _e, _s in untraced + traced)
    row = [
        name,
        f"{untraced_s * 1000:.1f}ms",
        f"{traced_s * 1000:.1f}ms",
        spans,
        f"{est_pct:.3f}%",
        "✓" if identical else "✗",
    ]
    return row, est_pct, identical


def check_fig1_trace_shape():
    """The acceptance-criterion decision: Fig. 1 by reduction must produce a
    valid Chrome trace with reduction → elimination → search nesting.

    ``use_tp_memo=False`` so the Tp oracle actually runs its eliminations
    instead of answering from the cross-decision memo.
    """
    options = ContainmentOptions(
        use_cache=False, reduction=ReductionConfig(use_tp_memo=False)
    )
    result = is_contained(
        "Customer(x)", "PremCC(y)", figure1_schema(),
        method="reduction", options=options, trace=True,
    )
    doc = chrome_trace(result.trace)
    events = doc["traceEvents"]
    problems = []
    if result.contained:
        problems.append("Fig. 1 Customer ⊆ PremCC should NOT be contained")
    if not events or any(e["ph"] != "X" for e in events):
        problems.append("trace events are not all complete ('X') events")
    # reconstruct ancestry from the span tree itself
    paths, stack = [], []
    for node, depth in result.trace.walk():
        del stack[depth:]
        stack.append(node.name)
        paths.append(list(stack))
    if not any("reduction" in p and p[-1] == "elimination" for p in paths):
        problems.append("no elimination span below a reduction span")
    if not any("elimination" in p and p[-1] == "search" for p in paths):
        problems.append("no search span below an elimination span")
    return problems


HEADERS = ["workload", "untraced", "traced", "spans", "est. disabled ovh", "identical"]
TITLE = "E19 — observability overhead (disabled-span cost, traced bit-identity)"


def run_rows(quick: bool):
    cost_ns = disabled_span_cost_ns(calls=50_000 if quick else 200_000)
    workloads = (
        [_e5_workload(1), _e7_workload(32)]
        if quick
        else [_e5_workload(3), _e7_workload(128)]
    )
    rows, failures = [], []
    for name, run in workloads:
        row, est_pct, identical = measure_workload(name, run, cost_ns)
        rows.append(row)
        if est_pct >= OVERHEAD_BUDGET_PCT:
            failures.append(f"{name}: estimated disabled overhead {est_pct:.3f}%")
        if not identical:
            failures.append(f"{name}: traced run diverged from untraced run")
    failures += check_fig1_trace_shape()
    return cost_ns, rows, failures


def test_obs_overhead_table(benchmark):
    cost_ns, rows, failures = benchmark.pedantic(
        lambda: run_rows(quick=False), rounds=1, iterations=1
    )
    print(f"\ndisabled span() cost: {cost_ns:.0f}ns/call")
    print_table(TITLE, HEADERS, rows)
    assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="trimmed workloads (sub-second CI smoke); exits 1 on any failure",
    )
    args = parser.parse_args(argv)
    cost_ns, rows, failures = run_rows(quick=args.quick)
    print(f"disabled span() cost: {cost_ns:.0f}ns/call")
    if args.quick:
        # smoke run: print only, never overwrite the persisted full table
        for row in rows:
            print("  ".join(str(cell) for cell in row))
    else:
        print_table(TITLE, HEADERS, rows)
    if failures:
        print("E19 FAILURE: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
