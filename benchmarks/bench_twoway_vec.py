"""E22 — vectorized twoway connector scan + batched oracles, A/B verified.

The PR-7 claim: the twoway pipeline's remaining scalar inner loops — the
connector star search and the per-type P1/P2 productivity oracles — run as
bulk column ops (``ConnectorVecScanner``, ``PsiMaskAnswer``) without
changing a single bit of output.  Every row runs the same pipeline twice —
``backend="bitset"`` then ``backend="vec"`` — from cold process caches,
and asserts equality of

* the verdict and completeness flag,
* the pipeline stats (types checked, memo hits, *examined connector
  picks* — equal pick counts on equal verdicts prove the scan preserves
  the scalar enumeration order and first-success index),
* the outermost fixpoint survivor set,
* synthesized countermodels (via the survivor-seeded oneway synthesis).

Workloads put the weight on the connector scan: an at-least of 2–3 forces
multi-leaf bundles, and pad labels injected through the query widen the
type pool, so the pick space per centre reaches the 10^5–10^6 range the
scalar loop walked star by star (E21's open item).  One more row runs a
counting TBox whose T_c carries fresh-name definitions (``C ⊑ ≤3 r.B``)
with the scan threshold forced to 1, so every connector search goes
through the scanner; the tier-1 test runs the same shape at ``≤2``.

Also runnable standalone as a CI smoke::

    python benchmarks/bench_twoway_vec.py --quick

which runs a trimmed row with the scan threshold forced to 1 (so the
scanner engages even on the small space) and exits non-zero on any
divergence.  The ≥3× speedup criterion is asserted only in the full run.
"""

import argparse
import json
import sys
import time

from conftest import RESULTS_DIR, print_table

import repro.core.twoway as twoway_module
from repro.core.oneway import synthesize_countermodel_oneway
from repro.core.search import SearchLimits
from repro.core.twoway import TwoWayConfig, realizable_refuting_twoway
from repro.dl.normalize import normalize
from repro.dl.tbox import TBox
from repro.graphs.types import Type
from repro.kernel.vec import HAVE_NUMPY
from repro.queries.parser import parse_query
from repro.service.sessions import reset_process_caches

SPEEDUP_FLOOR = 3.0
"""Acceptance criterion: vec beats bitset by at least this on the largest
connector-bound row (full mode only)."""

ROWS = {
    # name -> (at_least_n, pad_labels); pads widen the candidate pool, the
    # at-least widens the bundles, and together they set the pick space
    "base": (1, 0),
    "mid": (3, 1),
    "largest": (2, 2),
}


def _instance(at_least_n: int, pads: int):
    tbox = normalize(
        TBox.of([("A", f">={at_least_n} r.B")], name=f"e22_{at_least_n}_{pads}")
    )
    extra = "; " + ", ".join(f"X{i}(z)" for i in range(pads)) if pads else ""
    query = parse_query("A(x), r(x,y), B(y)" + extra)
    return tbox, query


def _time(thunk):
    start = time.perf_counter()
    value = thunk()
    return time.perf_counter() - start, value


def _fingerprint(result):
    return (
        result.realizable,
        result.complete,
        tuple(sorted(result.stats.items())),
        result.survivors,
    )


def _run(tbox, query, backend: str):
    reset_process_caches()
    config = TwoWayConfig(
        limits=SearchLimits(max_nodes=3, max_steps=500),
        max_types=2**22,
        max_connector_candidates=5_000_000,
        backend=backend,
    )
    return _time(
        lambda: realizable_refuting_twoway(Type.of("A"), tbox, query, config=config)
    )


def _ab_row(name: str, label: str, tbox, query):
    """Run one instance on both backends: table row, summary, failures."""
    failures = []
    bits_s, bits = _run(tbox, query, "bitset")
    vec_s, vec = _run(tbox, query, "vec")
    if bits.backend != "bitset" or vec.backend != "vec":
        failures.append(f"twoway {name}: backend not honored")
    if _fingerprint(bits) != _fingerprint(vec):
        failures.append(f"twoway {name}: backends diverged")
    speedup = bits_s / vec_s if vec_s else float("inf")
    picks = bits.stats["witnesses_materialized"]
    row = [label, picks, len(bits.survivors or ()),
           f"{bits_s * 1e3:.1f}ms", f"{vec_s * 1e3:.1f}ms", f"{speedup:.1f}x"]
    summary = {"row": name, "picks_examined": picks, "realizable": bits.realizable,
               "survivors": len(bits.survivors or ()),
               "bitset_s": bits_s, "vec_s": vec_s, "speedup": speedup}
    return row, summary, failures


def twoway_rows(names):
    rows, summary, failures = [], [], []
    for name in names:
        at_least_n, pads = ROWS[name]
        row, entry, problems = _ab_row(
            name, f"twoway {name} (>={at_least_n}, pads={pads})",
            *_instance(at_least_n, pads),
        )
        rows.append(row)
        summary.append({**entry, "at_least": at_least_n, "pads": pads})
        failures += problems
    return rows, summary, failures


def forced_scan_row():
    """A counting TBox whose T_c carries fresh-name definitions, with the
    scan threshold forced to 1 so every connector search goes through the
    scanner."""
    tbox = normalize(
        TBox.of([("A", ">=2 r.B"), ("B", "C"), ("C", "<=3 r.B")], name="e22_scan")
    )
    query = parse_query("A(x), r(x,y), B(y)")
    saved = twoway_module.VEC_SCAN_MIN_CANDIDATES
    twoway_module.VEC_SCAN_MIN_CANDIDATES = 1
    try:
        return _ab_row("forced_scan", "counting <=3 r.B, forced scan", tbox, query)
    finally:
        twoway_module.VEC_SCAN_MIN_CANDIDATES = saved


def check_countermodels(width: int):
    """The survivor-seeded countermodel synthesis must stay bit-identical:
    both backends produce the same verified graph (or both fail)."""
    cis = [(f"A{i}", f"A{i+1}") for i in range(width - 1)]
    tbox = normalize(TBox.of(cis, name=f"e22chain{width}"))
    tau = Type.of("A0")
    query = parse_query(f"Z(x), r(x,y), A{width - 1}(y)")
    models = {}
    for backend in ("bitset", "vec"):
        reset_process_caches()
        graph = synthesize_countermodel_oneway(
            tau, tbox, query,
            limits=SearchLimits(max_nodes=4, max_steps=4000),
            max_types=2**22,
            backend=backend,
        )
        models[backend] = None if graph is None else graph.describe()
    if models["bitset"] != models["vec"]:
        return [f"countermodel w={width}: backends synthesized different models"]
    if models["bitset"] is None:
        return [f"countermodel w={width}: expected a realizable instance"]
    return []


# --------------------------------------------------------------------- #
# driver

HEADERS = ["row", "picks examined", "survivors", "bitset", "vec", "speedup"]
TITLE = "E22 — vectorized twoway connector scan + batched oracles (A/B verified)"


def run_rows(quick: bool):
    if quick:
        # force the scanner onto the trimmed row's small pick spaces so the
        # smoke still exercises the vectorized scan end to end
        twoway_module.VEC_SCAN_MIN_CANDIDATES = 1
        rows, summary, failures = twoway_rows(["base"])
        failures += check_countermodels(8)
        return rows, summary, failures
    rows, summary, failures = twoway_rows(["base", "mid", "largest"])
    row, entry, problems = forced_scan_row()
    rows.append(row)
    summary.append(entry)
    failures += problems
    failures += check_countermodels(10)
    largest = next(s for s in summary if s["row"] == "largest")
    if largest["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"largest connector-bound row speedup {largest['speedup']:.1f}x "
            f"below the {SPEEDUP_FLOOR:.0f}x floor"
        )
    return rows, summary, failures


def _write_json(summary) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "bench_twoway_vec.json"
    path.write_text(json.dumps({"e22": summary}, indent=2) + "\n")


def test_twoway_vec_table(benchmark):
    if not HAVE_NUMPY:
        import pytest

        pytest.skip("numpy not installed; vec backend unavailable")
    rows, summary, failures = benchmark.pedantic(
        lambda: run_rows(quick=False), rounds=1, iterations=1
    )
    print_table(TITLE, HEADERS, rows)
    _write_json(summary)
    assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="trimmed row (CI smoke, scan threshold forced to 1); "
        "exits 1 on any divergence",
    )
    args = parser.parse_args(argv)
    if not HAVE_NUMPY:
        print("numpy not installed; vec backend unavailable — nothing to compare")
        return 0
    rows, summary, failures = run_rows(quick=args.quick)
    if args.quick:
        # smoke run: print only, never overwrite the persisted full table
        for row in rows:
            print("  ".join(str(cell) for cell in row))
    else:
        print_table(TITLE, HEADERS, rows)
        _write_json(summary)
    if failures:
        print("E22 FAILURE: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
