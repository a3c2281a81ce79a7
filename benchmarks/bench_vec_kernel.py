"""E21 — vec (bit-matrix) kernel vs bitset worklist kernel, A/B verified.

The PR-6 claim: packing the whole Γ₀ table into numpy uint64 bit matrices
and running each elimination pass as bulk boolean ops buys a large constant
factor on enumeration-dominated instances *without changing a single bit of
output*.  Every row here runs the same fixpoint twice — ``backend="bitset"``
then ``backend="vec"`` — from cold process caches, and asserts equality of

* the verdict, wave count, per-wave type counts, and completeness flag,
* the per-wave work counters (``round_stats``) — the vec path preserves the
  bitset path's exact check order and candidate ordering,
* the surviving (and hence eliminated) type sets,
* synthesized countermodels (oneway) / pipeline stats (twoway).

Workloads are E5/E7-style scale-ups with *coupled* signatures (clause
chains), so the inert-signature separation cannot factor the pads out and
the 2^|Γ₀| enumeration genuinely dominates — the regime the vec backend
targets and the auto threshold selects it for.

Also runnable standalone as a CI smoke::

    python benchmarks/bench_vec_kernel.py --quick

which runs trimmed rows (sub-second) and exits non-zero on any divergence.
The ≥5× speedup criterion is asserted only in the full run (timing noise
makes it meaningless on trimmed rows).
"""

import argparse
import json
import sys
import time

from conftest import RESULTS_DIR, print_table

from repro.core.oneway import (
    realizable_refuting_oneway,
    synthesize_countermodel_oneway,
)
from repro.core.search import SearchLimits
from repro.core.twoway import TwoWayConfig, realizable_refuting_twoway
from repro.dl.normalize import normalize
from repro.dl.tbox import TBox
from repro.graphs.types import Type
from repro.kernel.backend import HAVE_NUMPY
from repro.queries.parser import parse_query
from repro.service.sessions import reset_process_caches

SPEEDUP_FLOOR = 5.0
"""Acceptance criterion: vec beats bitset by at least this on the largest
oneway row (full mode only)."""


def _chain_tbox(width: int, prefix: str = "A", extra=()):
    """A_i ⊑ A_{i+1} chains: every name coupled to every other, so the
    inert-signature separation keeps the whole Γ₀ core and the fixpoint
    really enumerates 2^|Γ₀| candidates."""
    cis = [(f"{prefix}{i}", f"{prefix}{i+1}") for i in range(width - 1)]
    return normalize(TBox.of(list(extra) + cis, name=f"vchain{width}"))


def _time(thunk):
    start = time.perf_counter()
    value = thunk()
    return time.perf_counter() - start, value


# --------------------------------------------------------------------- #
# oneway rows


def _oneway_fingerprint(result):
    return (
        result.realizable,
        result.iterations,
        tuple(result.type_counts),
        result.complete,
        tuple(result.gamma),
        tuple(tuple(sorted(stats.items())) for stats in result.round_stats),
        frozenset(result.survivors),
    )


def _run_oneway(width: int, backend: str):
    tbox = _chain_tbox(width)
    tau = Type.of("A0")
    query = parse_query(f"Z(x), r(x,y), A{width - 1}(y)")
    reset_process_caches()
    return _time(
        lambda: realizable_refuting_oneway(
            tau, tbox, query,
            limits=SearchLimits(max_nodes=4, max_steps=4000),
            max_types=2**25,
            backend=backend,
        )
    )


def oneway_rows(widths):
    rows, summary, failures = [], [], []
    for width in widths:
        bits_s, bits = _run_oneway(width, "bitset")
        vec_s, vec = _run_oneway(width, "vec")
        if bits.backend != "bitset" or vec.backend != "vec":
            failures.append(f"oneway w={width}: backend not honored")
        if _oneway_fingerprint(bits) != _oneway_fingerprint(vec):
            failures.append(f"oneway w={width}: backends diverged")
        speedup = bits_s / vec_s if vec_s else float("inf")
        gamma = len(bits.gamma)
        rows.append(
            [f"oneway w={width}", f"2^{gamma}", bits.type_counts[0],
             f"{bits_s * 1e3:.1f}ms", f"{vec_s * 1e3:.1f}ms", f"{speedup:.1f}x"]
        )
        summary.append(
            {"row": f"oneway_w{width}", "gamma": gamma,
             "consistent": bits.type_counts[0], "realizable": bits.realizable,
             "bitset_s": bits_s, "vec_s": vec_s, "speedup": speedup}
        )
    return rows, summary, failures


def check_countermodels(width: int):
    """The constructive direction must also be bit-identical: both backends
    synthesize the same verified countermodel graph (or both fail)."""
    tbox = _chain_tbox(width)
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
# twoway rows


def _twoway_fingerprint(result):
    return (
        result.realizable,
        result.complete,
        tuple(sorted(result.stats.items())),
        result.survivors,
    )


def _run_twoway(backend: str):
    # ALCQ instance: one at-least + a clause — the recursive pipeline where
    # chase work (shared between backends) dominates, so the point of this
    # row is verdict/stats/survivor *identity*, not speedup.  Wide coupled
    # chains recurse too deeply to be benchmarkable here.
    tbox = normalize(TBox.of([("A", ">=1 r.B")], name="vtwoway"))
    tau = Type.of("A")
    query = parse_query("A(x), r(x,y), B(y)")
    reset_process_caches()
    config = TwoWayConfig(
        limits=SearchLimits(max_nodes=4, max_steps=4000),
        max_types=2**22,
        backend=backend,
    )
    return _time(lambda: realizable_refuting_twoway(tau, tbox, query, config=config))


def twoway_rows():
    bits_s, bits = _run_twoway("bitset")
    vec_s, vec = _run_twoway("vec")
    failures = []
    if _twoway_fingerprint(bits) != _twoway_fingerprint(vec):
        failures.append("twoway counters: backends diverged")
    speedup = bits_s / vec_s if vec_s else float("inf")
    rows = [
        ["twoway counters", "-", len(bits.survivors or ()),
         f"{bits_s * 1e3:.1f}ms", f"{vec_s * 1e3:.1f}ms", f"{speedup:.1f}x"]
    ]
    summary = [
        {"row": "twoway_counters", "survivors": len(bits.survivors or ()),
         "realizable": bits.realizable,
         "bitset_s": bits_s, "vec_s": vec_s, "speedup": speedup}
    ]
    return rows, summary, failures


# --------------------------------------------------------------------- #
# driver

HEADERS = ["row", "table", "survivors/Γ₀-consistent", "bitset", "vec", "speedup"]
TITLE = "E21 — vec bit-matrix kernel vs bitset worklist kernel (A/B verified)"


def run_rows(quick: bool):
    ow = (8, 10) if quick else (15, 18, 21)
    rows, summary, failures = oneway_rows(ow)
    rows2, summary2, failures2 = twoway_rows()
    rows += rows2
    summary += summary2
    failures += failures2
    failures += check_countermodels(ow[0])
    if not quick:
        largest = max(
            (s for s in summary if s["row"].startswith("oneway")),
            key=lambda s: s["gamma"],
        )
        if largest["speedup"] < SPEEDUP_FLOOR:
            failures.append(
                f"largest oneway row speedup {largest['speedup']:.1f}x "
                f"below the {SPEEDUP_FLOOR:.0f}x floor"
            )
    return rows, summary, failures


def _write_json(summary) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "bench_vec_kernel.json"
    path.write_text(json.dumps({"e21": summary}, indent=2) + "\n")


def test_vec_vs_bitset_table(benchmark):
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
        help="trimmed rows (sub-second CI smoke); exits 1 on any divergence",
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
        print("E21 FAILURE: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
