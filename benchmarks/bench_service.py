"""E18 — batched containment service vs sequential cold calls.

The service amortizes three things a cold one-shot `is_contained` call
pays every time: query parsing and schema normalization (a cold process
starts with an empty parsed-query table and decodes a new TBox; the
service keeps one schema session per distinct TBox), repeated identical
decisions (in-batch dedup), and — across runs — the search itself (the
persistent decision journal).  This benchmark replays query-log-like
request batches that all share one schema and measures:

* **sequential cold** — each request handled on its own with all process
  caches reset and the schema re-normalized, emulating N independent CLI
  invocations (conservatively: real cold processes would also pay
  interpreter start-up and imports, which this loop does not charge);
* **batch cold** — the same requests through ``ContainmentServer`` with a
  fresh cache directory;
* **batch warm** — the same batch again against the populated cache: every
  verdict must come back from the journal with zero searches executed.

Verdicts are compared request-by-request as wire dicts (countermodels
included), so the table *asserts* bit-identity before reporting speedups.
Workloads: the Fig. 1 / Example 1.1 schema log (headline, includes the
slow q1 ⊆_S q2 row) and an E7-flavored chase sweep (disjunctive
`A ⊑ B ⊔ C` repairs along r-paths of growing length).

Also runnable standalone as a CI smoke::

    python benchmarks/bench_service.py --quick

which replays trimmed fast-row batches (sub-second), checks batch ==
sequential bit-identity and warm-run full cache hits, and exits non-zero
on any divergence; without ``--quick`` the full workloads run, the table
is persisted, and the headline ≥5× speedup is asserted.
"""

import argparse
import io
import json
import sys
import tempfile
import time
from pathlib import Path

from conftest import print_table

from repro.core.containment import is_contained
from repro.dl.normalize import normalize
from repro.dl.pg_schema import figure1_schema
from repro.dl.tbox import TBox
from repro.io import query_to_text, tbox_from_dict, tbox_to_dict, verdict_to_dict
from repro.queries.presets import example_11_q1, example_11_q2
from repro.service.protocol import build_options
from repro.service.server import ContainmentServer
from repro.service.sessions import reset_process_caches


class Workload:
    """A shared-schema request log: ``distinct`` cases × ``repetition``."""

    def __init__(self, name, schema_dict, distinct, repetition, options=None):
        self.name = name
        self.schema = schema_dict
        self.distinct = distinct
        self.repetition = repetition
        self.options = options or {}
        # round-robin interleave so duplicates never arrive adjacent
        self.requests = [
            {
                "id": f"{case_name}#{rep}",
                "lhs": lhs,
                "rhs": rhs,
                "options": self.options,
            }
            for rep in range(repetition)
            for case_name, lhs, rhs in distinct
        ]


def fig1_workload(repetition=8, include_slow=True):
    """The headline log: Example 1.1 plus typing/negative/star decisions,
    all under the Fig. 1 rewards schema."""
    q1, q2 = query_to_text(example_11_q1()), query_to_text(example_11_q2())
    distinct = [
        ("fwd", q2, q1),
        ("typed-owns", "Customer(x), owns(x,y)", "owns(x,y), CredCard(y)"),
        ("typed-earns", "PremCC(x), earns(x,y)", "earns(x,y), RwrdProg(y)"),
        ("typed-partner", "RwrdProg(x), partner(x,y)", "partner(x,y), RetailCompany(y)"),
        ("subtype", "PremCC(x)", "CredCard(x)"),
        ("neg-company", "Company(x), owns(x,y)", "CredCard(y)"),
        ("star-owns", "Company(x), owns*(x,y)", "owns*(x,y), Company(y)"),
    ]
    if include_slow:
        distinct.insert(1, ("slow", q1, q2))
    return Workload(
        "fig1 log", tbox_to_dict(figure1_schema()), distinct, repetition
    )


def _path_lhs(n):
    labels = ", ".join(f"A(x{i})" for i in range(n))
    edges = ", ".join(f"r(x{i},x{i+1})" for i in range(n - 1))
    return f"{labels}, {edges}"


def chase_workload(repetition=4, sizes=(4, 6, 8, 10)):
    """E7-flavored: disjunctive labelling repairs along an r-path — every
    node is A, A ⊑ B ⊔ C, and the right-hand side asks for a reachable
    node that is both B and C (never forced, so each row carries a
    countermodel that must survive the wire bit-identically)."""
    schema = tbox_to_dict(TBox.of([("A", "B | C")], name="disj"))
    distinct = [
        (f"chase-n{n}", _path_lhs(n), "r*(x,y), B(y), C(y)") for n in sizes
    ]
    options = {"max_nodes": max(sizes) + 4, "max_steps": 200_000}
    return Workload("chase sweep", schema, distinct, repetition, options)


# --------------------------------------------------------------------- #
# the three measured modes


def run_sequential_cold(workload):
    """N independent decisions: caches reset and schema re-normalized per
    call, exactly what N one-shot ``repro contain`` invocations pay."""
    verdicts = {}
    start = time.perf_counter()
    for request in workload.requests:
        reset_process_caches()
        tbox = normalize(tbox_from_dict(workload.schema))
        options = build_options(request["options"])
        result = is_contained(request["lhs"], request["rhs"], tbox, options=options)
        verdicts[request["id"]] = verdict_to_dict(result)
    elapsed = time.perf_counter() - start
    reset_process_caches()  # leave no warmth behind for the next mode
    return elapsed, verdicts


def run_batch(workload, cache_dir):
    """One server conversation over the whole log (pipe transport)."""
    reset_process_caches()
    server = ContainmentServer(cache_dir=cache_dir, use_cache=cache_dir is not None)
    lines = [{"type": "schema", "ref": "shared", "tbox": workload.schema}]
    lines += [dict(request, schema_ref="shared") for request in workload.requests]
    in_stream = io.StringIO("\n".join(json.dumps(line) for line in lines) + "\n")
    out_stream = io.StringIO()
    start = time.perf_counter()
    server.serve_pipe(in_stream, out_stream)
    elapsed = time.perf_counter() - start
    responses = [json.loads(line) for line in out_stream.getvalue().splitlines()]
    verdicts = {
        r["id"]: r["verdict"] for r in responses if r["type"] == "verdict"
    }
    executed = server.metrics.counter("decisions_executed")
    return elapsed, verdicts, executed


def run_workload_rows(workload, cache_root):
    """Three rows (sequential cold / batch cold / batch warm) + checks."""
    cache_dir = Path(cache_root) / workload.name.replace(" ", "-")
    n, d = len(workload.requests), len(workload.distinct)
    seq_s, seq_verdicts = run_sequential_cold(workload)
    cold_s, cold_verdicts, cold_executed = run_batch(workload, cache_dir)
    warm_s, warm_verdicts, warm_executed = run_batch(workload, cache_dir)

    def row(mode, elapsed, executed, verdicts):
        identical = verdicts == seq_verdicts
        return [
            workload.name,
            mode,
            n,
            d,
            executed,
            f"{elapsed*1000:.1f}ms",
            f"{n/elapsed:.0f}/s",
            f"{seq_s/max(elapsed, 1e-9):.1f}x",
            "✓" if identical else "✗",
        ]

    return [
        row("sequential cold", seq_s, n, seq_verdicts),
        row("batch cold", cold_s, cold_executed, cold_verdicts),
        row("batch warm", warm_s, warm_executed, warm_verdicts),
    ]


HEADERS = [
    "workload", "mode", "N", "distinct", "executed", "wall", "thr",
    "speedup", "identical",
]
TITLE = "E18 — batched service vs sequential cold calls (shared-schema logs)"


def _check_rows(rows):
    """Invariants every run (quick or full) must satisfy."""
    problems = []
    for row in rows:
        if row[-1] != "✓":
            problems.append(f"{row[0]}/{row[1]}: verdicts diverge from sequential")
        if row[1] == "batch warm" and row[4] != 0:
            problems.append(f"{row[0]}: warm run executed {row[4]} searches")
        if row[1] == "batch cold" and row[4] != row[3]:
            problems.append(
                f"{row[0]}: cold batch executed {row[4]} searches for {row[3]} "
                "distinct decisions"
            )
    return problems


def run_full(cache_root):
    return run_workload_rows(fig1_workload(), cache_root) + run_workload_rows(
        chase_workload(), cache_root
    )


def run_quick(cache_root):
    return run_workload_rows(
        fig1_workload(repetition=2, include_slow=False), cache_root
    ) + run_workload_rows(chase_workload(repetition=2, sizes=(4, 6)), cache_root)


def test_service_batch_table(benchmark, tmp_path):
    rows = benchmark.pedantic(lambda: run_full(tmp_path), rounds=1, iterations=1)
    print_table(TITLE, HEADERS, rows)
    assert _check_rows(rows) == []
    # the acceptance headline: the shared-schema batch of N ≥ 32 requests
    # beats N sequential cold calls by ≥ 5×
    headline = next(r for r in rows if r[0] == "fig1 log" and r[1] == "batch cold")
    assert headline[2] >= 32
    assert float(headline[7].rstrip("x")) >= 5.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="trimmed fast-row batches (sub-second CI smoke); "
        "exits 1 on divergence, asserts no speedup",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-e18-") as cache_root:
        if args.quick:
            rows = run_quick(cache_root)
            # smoke run: print only, never overwrite the persisted full table
            for row in rows:
                print("  ".join(str(cell) for cell in row))
        else:
            rows = run_full(cache_root)
            print_table(TITLE, HEADERS, rows)
    problems = _check_rows(rows)
    if problems:
        print("VERDICT DIVERGENCE: " + "; ".join(problems), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
