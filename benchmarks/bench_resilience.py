"""E20 — resilience overhead: deadlines are near-free.

The resilience layer (PR 5) threads cooperative :class:`Deadline` polling
through every hot loop, which must be effectively free when nothing goes
wrong.  This experiment quantifies that, following the E19 methodology:

* **armed-poll overhead** — a microbenchmark measures the per-call cost of
  ``Deadline.poll()`` on an *armed* far-future deadline (the worst
  non-expiring case: decrement + compare, one clock read per stride).
  Multiplied by the chase steps the workload actually executes
  (``search.steps`` counter) and divided by its baseline wall time (the
  median of ``TIMED_CALLS`` calls), that bounds the overhead a live
  deadline adds.  Asserted under 3% on the E5 largest row and the E7 n=128
  sweep point.
* **bit-identity** — running the same workload with no deadline, with
  ``Deadline.never()``, and with a far-future armed deadline must produce
  identical outcome fingerprints: a deadline that never fires never
  changes an answer.

Also runnable standalone as a CI smoke::

    python benchmarks/bench_resilience.py --quick

which runs trimmed workloads (sub-second) and exits non-zero on any
identity divergence or overhead breach.
"""

import argparse
import statistics
import sys
import time

from conftest import print_table

from repro.core.search import CountermodelSearch, SearchLimits
from repro.core.oneway import realizable_refuting_oneway
from repro.dl.normalize import normalize
from repro.dl.tbox import TBox
from repro.graphs.generators import path_graph
from repro.graphs.types import Type
from repro.obs import REGISTRY
from repro.queries.parser import parse_query
from repro.queries.presets import example_36_factorization, example_36_query
from repro.resilience import Deadline

OVERHEAD_BUDGET_PCT = 3.0

FAR_FUTURE_MS = 3_600_000  # armed but never expiring within any run

TIMED_CALLS = 5
"""Timed calls per row; the row's baseline is their median."""


# --------------------------------------------------------------------- #
# workloads (shared with E5 / E7 / E19 — kept in sync with those benches)


def _e5_workload(extra: int):
    """E5 row: type elimination with `extra` padding labels inflating Γ₀."""
    cis = [("A", "exists r.B")] + [(f"X{i}", f"Y{i}") for i in range(extra)]
    tbox = normalize(TBox.of(cis, name=f"pad{extra}"))

    def run(deadline=None):
        result = realizable_refuting_oneway(
            Type.of("A"), tbox, example_36_query(),
            factorization=example_36_factorization(),
            limits=SearchLimits(max_nodes=4, max_steps=4000, deadline=deadline),
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

    def run(deadline=None):
        seed = path_graph(n, "r")
        for node in seed.node_list():
            seed.add_label(node, "A")
        outcome = CountermodelSearch(
            tbox, query, seed,
            limits=SearchLimits(max_nodes=n + 4, deadline=deadline),
        ).run()
        model = outcome.countermodel
        return (outcome.found, None if model is None else model.describe())

    return f"E7 sweep n={n}", run


# --------------------------------------------------------------------- #
# measurements


def armed_poll_cost_ns(calls: int = 200_000) -> float:
    """Per-call wall cost of ``Deadline.poll()`` on an armed deadline.

    Includes the loop overhead, so it *over*-estimates the marginal cost —
    conservative for the <3% claim.
    """
    deadline = Deadline.after_ms(FAR_FUTURE_MS)
    start = time.perf_counter()
    for _ in range(calls):
        deadline.poll()
    return (time.perf_counter() - start) / calls * 1e9


def _chase_steps(run) -> tuple[object, float, int]:
    """Run a workload; return (fingerprint, wall seconds, chase steps)."""
    before = REGISTRY.flushed_counters().get("search.steps", 0)
    start = time.perf_counter()
    print_of = run()
    elapsed = time.perf_counter() - start
    steps = REGISTRY.flushed_counters().get("search.steps", 0) - before
    return print_of, elapsed, steps


def measure_workload(name, run, cost_ns):
    """One row: median baseline timing over ``TIMED_CALLS`` calls + step
    census, deadline-variant identity."""
    run()  # warm caches (compiled matchers, memos) out of the measurement
    samples = [_chase_steps(run) for _ in range(TIMED_CALLS)]
    baseline_print = samples[0][0]
    baseline_s = statistics.median(elapsed for _print, elapsed, _steps in samples)
    steps = max(steps for _print, _elapsed, steps in samples)
    never_print = run(deadline=Deadline.never())
    armed_print = run(deadline=Deadline.after_ms(FAR_FUTURE_MS))

    est_pct = steps * cost_ns / (baseline_s * 1e9) * 100.0
    identical = (
        all(print_of == baseline_print for print_of, _elapsed, _steps in samples)
        and baseline_print == never_print == armed_print
    )
    row = [
        name,
        f"{baseline_s * 1000:.1f}ms",
        steps,
        f"{est_pct:.3f}%",
        "✓" if identical else "✗",
    ]
    return row, est_pct, identical


DEADLINE_HEADERS = ["workload", "baseline", "chase steps", "est. armed ovh", "identical"]
TITLE = "E20 — resilience overhead (armed-deadline cost, bit-identity)"


def run_rows(quick: bool):
    cost_ns = armed_poll_cost_ns(calls=50_000 if quick else 200_000)
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
            failures.append(f"{name}: estimated armed-deadline overhead {est_pct:.3f}%")
        if not identical:
            failures.append(f"{name}: a non-firing deadline changed the outcome")
    return cost_ns, rows, failures


def test_resilience_table(benchmark):
    cost_ns, rows, failures = benchmark.pedantic(
        lambda: run_rows(quick=False), rounds=1, iterations=1
    )
    print(f"\narmed Deadline.poll() cost: {cost_ns:.0f}ns/call")
    print_table(TITLE, DEADLINE_HEADERS, rows)
    assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="trimmed workloads (sub-second CI smoke); exits 1 on any failure",
    )
    args = parser.parse_args(argv)
    cost_ns, rows, failures = run_rows(quick=args.quick)
    print(f"armed Deadline.poll() cost: {cost_ns:.0f}ns/call")
    if args.quick:
        # smoke run: print only, never overwrite the persisted full tables
        for row in rows:
            print("  ".join(str(cell) for cell in row))
    else:
        print_table(TITLE, DEADLINE_HEADERS, rows)
    if failures:
        print("E20 FAILURE: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
