"""E24 — the semantic decision cache: answer containment from containment.

The persistent journal (E18) only serves *exact* decision-key repeats.
The semantic layer (:mod:`repro.cache.semantic`) serves *near-duplicates*
by inference: a new P ⊆_T Q answers True by transitivity through a cached
certain True premise (P ⊆ P′ on all graphs, P′ ⊆_T Q cached), or False by
replaying a cached countermodel against the new P with the compiled
matchers — an evaluation, not a search.  This benchmark asserts the two
contracts the subsystem ships under:

* **identity** — a mixed True/False workload (with near-duplicates in the
  stream, so inference actually fires) run through a semantic-on and a
  semantic-off server must agree on every verdict: ``contained`` and
  ``complete`` equal everywhere, responses *byte-identical* (modulo
  ``elapsed_ms``) wherever the answer was not semantically served, and
  every replayed countermodel independently re-verified here (a T-model,
  matches the new P, avoids Q).  Semantically served responses differ
  only in provenance (``method: semantic.*``, ``seeds_tried: 0``) — by
  construction they are proofs, so they can never flip a verdict;
* **warm inference** — after a seeding phase, a near-duplicate phase must
  be served ≥ half by lattice inference with **zero** kernel searches for
  those requests (``decisions_executed`` moves only for the fresh
  remainder), and the per-source latency split shows what a hit saves.

Also runnable standalone as a CI smoke::

    python benchmarks/bench_semantic_cache.py --quick

which runs trimmed workloads (sub-second), performs every assertion, and
exits non-zero printing ``VERDICT DIVERGENCE`` on any violation.
"""

import argparse
import io
import json
import sys
import tempfile
import time
from pathlib import Path

from conftest import print_table

from repro.dl.normalize import normalize
from repro.io import graph_from_dict, tbox_from_dict, tbox_to_dict
from repro.dl.tbox import TBox
from repro.queries.evaluation import satisfies_union
from repro.queries.parser import parse_query
from repro.service.server import ContainmentServer
from repro.service.sessions import reset_process_caches


def _path_lhs(n):
    labels = ", ".join(f"A(x{i})" for i in range(n))
    edges = ", ".join(f"r(x{i},x{i+1})" for i in range(n - 1))
    return f"{labels}, {edges}"


class SemanticWorkload:
    """A seed phase that populates the lattice + a warm phase of
    near-duplicates it should infer (plus fresh decisions it can't)."""

    def __init__(self, name, schema_dict, seeds, near_dups, fresh):
        self.name = name
        self.schema = schema_dict
        self.seeds = [
            {"id": f"seed-{i}", "lhs": lhs, "rhs": rhs, "schema_ref": "shared"}
            for i, (lhs, rhs) in enumerate(seeds)
        ]
        self.warm = [
            {"id": f"dup-{i}", "lhs": lhs, "rhs": rhs, "schema_ref": "shared"}
            for i, (lhs, rhs) in enumerate(near_dups)
        ] + [
            {"id": f"fresh-{i}", "lhs": lhs, "rhs": rhs, "schema_ref": "shared"}
            for i, (lhs, rhs) in enumerate(fresh)
        ]
        self.near_dup_count = len(near_dups)


def chain_workload():
    """A ⊑ B: certain-True premises, then syntactic-subset near-dups that
    answer by transitivity (rule a)."""
    rhs = "B(x)"
    seeds = [("A(x); B(x)", rhs), ("A(x); B(x); A(y), r(y,z)", rhs)]
    near_dups = [
        ("A(x)", rhs),              # disjunct subset of seed 0
        ("B(w)", rhs),              # canonicalizes into seed 0's disjuncts
        ("A(y), r(y,z)", rhs),      # disjunct subset of seed 1
        ("A(x); A(y), r(y,z)", rhs),
    ]
    fresh = [("C(x)", rhs)]         # no premise covers C
    return SemanticWorkload(
        "chain A⊑B", tbox_to_dict(TBox.of([("A", "B")], name="chain")),
        seeds, near_dups, fresh,
    )


def disj_workload(seed_n=6, dup_sizes=(2, 3, 4, 5)):
    """A ⊑ B ⊔ C: a certain-False premise whose countermodel (a repaired
    r-path) replays against every shorter path (rule b)."""
    rhs = "r*(x,y), B(y), C(y)"
    seeds = [(_path_lhs(seed_n), rhs)]
    near_dups = [(_path_lhs(n), rhs) for n in dup_sizes]
    fresh = [("s(x,y), A(x)", rhs)]  # role s never appears in the model
    return SemanticWorkload(
        "disj A⊑B⊔C", tbox_to_dict(TBox.of([("A", "B | C")], name="disj")),
        seeds, near_dups, fresh,
    )


# --------------------------------------------------------------------- #
# driving the service


def _pipe(server, lines):
    """One serve_pipe conversation; returns responses keyed by id."""
    in_stream = io.StringIO(
        "\n".join(json.dumps(line) for line in lines) + "\n"
    )
    out_stream = io.StringIO()
    start = time.perf_counter()
    server.serve_pipe(in_stream, out_stream)
    elapsed = time.perf_counter() - start
    responses = {}
    for raw in out_stream.getvalue().splitlines():
        response = json.loads(raw)
        if response["type"] == "verdict":
            responses[response["id"]] = response
    return elapsed, responses


def _schema_line(workload):
    return {"type": "schema", "ref": "shared", "tbox": workload.schema}


def run_identity(workload, cache_root, quick):
    """The same seed+warm stream through semantic-on and semantic-off
    servers (fresh cache dirs each), compared response by response."""
    del quick
    lines = [_schema_line(workload)] + workload.seeds + workload.warm
    runs = {}
    for flag in (True, False):
        cache_dir = Path(cache_root) / f"{workload.name}-{'on' if flag else 'off'}"
        reset_process_caches()
        server = ContainmentServer(cache_dir=cache_dir, use_cache=True, semantic_cache=flag)
        runs[flag] = _pipe(server, lines)
    _, on_responses = runs[True]
    _, off_responses = runs[False]

    problems = []
    semantic_served = 0
    tbox = normalize(tbox_from_dict(workload.schema))
    for rid, off in off_responses.items():
        on = on_responses.get(rid)
        if on is None:
            problems.append(f"{workload.name}/{rid}: missing in semantic-on run")
            continue
        for field in ("contained", "complete"):
            if on["verdict"][field] != off["verdict"][field]:
                problems.append(
                    f"{workload.name}/{rid}: {field} differs "
                    f"({on['verdict'][field]} vs {off['verdict'][field]})"
                )
        if on["source"] != "semantic":
            strip = lambda r: {k: v for k, v in r.items() if k != "elapsed_ms"}
            if strip(on) != strip(off):
                problems.append(
                    f"{workload.name}/{rid}: non-semantic response not "
                    "byte-identical across semantic on/off"
                )
            continue
        semantic_served += 1
        cm = on["verdict"]["countermodel"]
        if cm is not None:
            # rule (b) answered: re-establish the countermodel's three
            # obligations here, independently of the cache's own checks
            model = graph_from_dict(cm)
            lhs = parse_query(_request_lhs(workload, rid))
            rhs = parse_query(_request_rhs(workload, rid))
            if not tbox.satisfied_by(model):
                problems.append(f"{workload.name}/{rid}: replayed model breaks T")
            if not satisfies_union(model, lhs):
                problems.append(f"{workload.name}/{rid}: replayed model misses P")
            if satisfies_union(model, rhs):
                problems.append(f"{workload.name}/{rid}: replayed model meets Q")
    if semantic_served == 0:
        problems.append(
            f"{workload.name}: identity run never exercised the semantic path"
        )
    return problems, semantic_served, len(off_responses)


def _request_lhs(workload, rid):
    for request in workload.seeds + workload.warm:
        if request["id"] == rid:
            return request["lhs"]
    raise KeyError(rid)


def _request_rhs(workload, rid):
    for request in workload.seeds + workload.warm:
        if request["id"] == rid:
            return request["rhs"]
    raise KeyError(rid)


def run_warm(workload, cache_root):
    """Seed phase then warm phase on one server; returns the table row and
    any contract violations."""
    cache_dir = Path(cache_root) / f"{workload.name}-warm"
    reset_process_caches()
    server = ContainmentServer(cache_dir=cache_dir, use_cache=True, semantic_cache=True)
    seed_s, _ = _pipe(server, [_schema_line(workload)] + workload.seeds)
    executed_before = server.metrics.counter("decisions_executed")
    # the obs registry is process-wide: report this warm phase's delta,
    # not the accumulated total across every run in this process
    obs_before = dict(server.stats()["obs"]["counters"])
    warm_s, responses = _pipe(server, workload.warm)
    executed_delta = (
        server.metrics.counter("decisions_executed") - executed_before
    )

    by_source = {}
    latency = {}
    for response in responses.values():
        source = response["source"]
        by_source[source] = by_source.get(source, 0) + 1
        latency.setdefault(source, []).append(response["elapsed_ms"])
    semantic_hits = by_source.get("semantic", 0)
    total = len(responses)

    problems = []
    if semantic_hits * 2 < total:
        problems.append(
            f"{workload.name}: only {semantic_hits}/{total} warm requests "
            "served by lattice inference (need ≥ half)"
        )
    if executed_delta != total - semantic_hits:
        problems.append(
            f"{workload.name}: {executed_delta} kernel searches for "
            f"{total - semantic_hits} non-semantic warm requests — "
            "semantic hits must cost zero searches"
        )
    stats = server.stats()["obs"]["counters"]
    delta = lambda name: stats.get(name, 0) - obs_before.get(name, 0)
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    row = [
        workload.name,
        total,
        semantic_hits,
        delta("semcache.hit.transitive"),
        delta("semcache.hit.countermodel"),
        delta("semcache.probe"),
        executed_delta,
        f"{warm_s * 1000:.1f}ms",
        f"{mean(latency.get('semantic', [])):.2f}ms",
        f"{mean(latency.get('computed', [])):.2f}ms",
        f"{semantic_hits / total:.0%}",
    ]
    return row, problems


HEADERS = [
    "workload", "warm N", "semantic", "transitive", "countermodel",
    "probes", "searched", "wall", "hit ms", "miss ms", "hit rate",
]
TITLE = "E24 — semantic decision cache (inference vs search on warm near-duplicates)"


def run_all(cache_root, quick):
    workloads = [
        chain_workload(),
        disj_workload(seed_n=4 if quick else 8,
                      dup_sizes=(2, 3) if quick else (2, 3, 4, 5, 6, 7)),
    ]
    problems, rows = [], []
    for workload in workloads:
        identity_problems, served, n = run_identity(workload, cache_root, quick)
        problems += identity_problems
        row, warm_problems = run_warm(workload, cache_root)
        row.append(f"{served}/{n} sem (identity ✓)" if not identity_problems else "✗")
        rows.append(row)
        problems += warm_problems
    return rows, problems


def test_semantic_cache_table(benchmark, tmp_path):
    rows, problems = benchmark.pedantic(
        lambda: run_all(tmp_path, quick=False), rounds=1, iterations=1
    )
    print_table(TITLE, HEADERS + ["identity"], rows)
    assert problems == []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="trimmed workloads (sub-second CI smoke); same assertions",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-e24-") as cache_root:
        rows, problems = run_all(cache_root, quick=args.quick)
    if args.quick:
        for row in rows:
            print("  ".join(str(cell) for cell in row))
    else:
        print_table(TITLE, HEADERS + ["identity"], rows)
    if problems:
        print("VERDICT DIVERGENCE: " + "; ".join(problems), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
