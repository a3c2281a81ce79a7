"""E22 — twoway pipeline on bitset and vec, A/B verified on connector-bound rows.

The twoway pipeline's connector star search is one scalar pick loop on
both backends; ``backend="vec"`` changes the candidate enumeration
(``TwowayVecEnumerator``) and the per-type P1/P2 survivor oracles
(``PsiMaskAnswer``).  Every row runs the same pipeline twice —
``backend="bitset"`` then ``backend="vec"`` — from cold process caches,
and asserts equality of

* the verdict and completeness flag,
* the pipeline stats (types checked, memo hits, *examined connector
  picks*),
* the outermost fixpoint survivor set,
* synthesized countermodels (via the survivor-seeded oneway synthesis).

Each row's examined picks and survivor count are also pinned to fixed
figures (``PINNED``), so a faster pick loop cannot change what the
connector search examines.

Workloads put the weight on the connector search: an at-least of 2–3
forces multi-leaf bundles, and pad labels injected through the query widen
the type pool, so the pick space per centre reaches the 10^5–10^6 range.
One more row runs a counting TBox whose T_c carries fresh-name definitions
(``C ⊑ ≤3 r.B``); the tier-1 test runs the same shape at ``≤2``.

Also runnable standalone as a CI smoke::

    python benchmarks/bench_twoway_vec.py --quick

which runs the base row and a countermodel check and exits non-zero on any
divergence or pinned-count change.
"""

import argparse
import json
import sys
import time

from conftest import RESULTS_DIR, print_table

from repro.core.oneway import synthesize_countermodel_oneway
from repro.core.search import SearchLimits
from repro.core.twoway import TwoWayConfig, realizable_refuting_twoway
from repro.dl.normalize import normalize
from repro.dl.tbox import TBox
from repro.graphs.types import Type
from repro.kernel.backend import HAVE_NUMPY
from repro.queries.parser import parse_query
from repro.service.sessions import reset_process_caches

ROWS = {
    # name -> (at_least_n, pad_labels); pads widen the candidate pool, the
    # at-least widens the bundles, and together they set the pick space
    "base": (1, 0),
    "mid": (3, 1),
    "largest": (2, 2),
}

PINNED = {
    # name -> (connector picks examined, outermost survivors)
    "base": (1448, 12),
    "mid": (86368, 20),
    "largest": (973080, 48),
    "counting": (54017, 34),
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
    survivors = len(bits.survivors or ())
    if (picks, survivors) != PINNED[name]:
        failures.append(
            f"twoway {name}: {picks} picks / {survivors} survivors, "
            f"pinned {PINNED[name][0]} / {PINNED[name][1]}"
        )
    row = [label, picks, survivors,
           f"{bits_s * 1e3:.1f}ms", f"{vec_s * 1e3:.1f}ms", f"{speedup:.1f}x"]
    summary = {"row": name, "picks_examined": picks, "realizable": bits.realizable,
               "survivors": survivors,
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


def counting_row():
    """A counting TBox whose T_c carries fresh-name definitions."""
    tbox = normalize(
        TBox.of([("A", ">=2 r.B"), ("B", "C"), ("C", "<=3 r.B")], name="e22_scan")
    )
    query = parse_query("A(x), r(x,y), B(y)")
    return _ab_row("counting", "counting <=3 r.B", tbox, query)


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
TITLE = "E22 — twoway pipeline, bitset vs vec (A/B verified, picks pinned)"


def run_rows(quick: bool):
    if quick:
        rows, summary, failures = twoway_rows(["base"])
        failures += check_countermodels(8)
        return rows, summary, failures
    rows, summary, failures = twoway_rows(["base", "mid", "largest"])
    row, entry, problems = counting_row()
    rows.append(row)
    summary.append(entry)
    failures += problems
    failures += check_countermodels(10)
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
        help="trimmed row (CI smoke); exits 1 on any divergence or "
        "pinned-count change",
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
