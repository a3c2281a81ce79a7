"""E16 — bitset kernel vs frozenset types.

Enumerating + clause-checking all maximal types over a growing Γ₀,
frozenset reference vs compiled bitmask kernel.

A JSON summary lands next to the text table in ``benchmarks/results/``.
"""

import json
import time

from conftest import RESULTS_DIR, print_table

from repro.dl.normalize import normalize
from repro.dl.tbox import TBox
from repro.dl.types import clause_consistent_reference
from repro.graphs.types import maximal_types
from repro.kernel.bitset import CompiledClauses, TypeKernel


def _chain_tbox(width: int):
    """A_i ⊑ A_{i+1} chains: every second name forced, clauses everywhere."""
    cis = [(f"A{i}", f"A{i+1}") for i in range(width - 1)]
    return normalize(TBox.of(cis, name=f"chain{width}"))


def _time(thunk) -> tuple[float, object]:
    start = time.perf_counter()
    value = thunk()
    return time.perf_counter() - start, value


def test_kernel_vs_frozenset(benchmark):
    def measure():
        rows = []
        summary = []
        for width in (8, 12, 16):
            tbox = _chain_tbox(width)
            names = sorted(tbox.concept_names())

            def via_reference():
                return sum(
                    1
                    for sigma in maximal_types(names)
                    if clause_consistent_reference(tbox, sigma)
                )

            def via_kernel():
                compiled = CompiledClauses(TypeKernel(names), tbox.clauses)
                return sum(1 for _ in compiled.consistent_bits())

            ref_time, ref_count = _time(via_reference)
            ker_time, ker_count = _time(via_kernel)
            assert ref_count == ker_count
            speedup = ref_time / ker_time if ker_time else float("inf")
            rows.append(
                [width, 2 ** width, ref_count,
                 f"{ref_time * 1e3:.1f}ms", f"{ker_time * 1e3:.1f}ms",
                 f"{speedup:.1f}x"]
            )
            summary.append(
                {
                    "gamma": width,
                    "types": 2 ** width,
                    "consistent": ref_count,
                    "frozenset_s": ref_time,
                    "bitset_s": ker_time,
                    "speedup": speedup,
                }
            )
        return rows, summary

    (rows, summary) = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "E16a — consistent-type enumeration: frozenset vs bitset kernel",
        ["|Γ₀|", "2^|Γ₀|", "consistent", "frozenset", "bitset", "speedup"],
        rows,
    )
    _write_json("kernel_ops", summary)
    # the kernel must win clearly at the largest size
    assert summary[-1]["speedup"] > 2


def _write_json(section: str, payload) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "bench_kernel.json"
    data = {}
    if path.exists():
        data = json.loads(path.read_text())
    data[section] = payload
    path.write_text(json.dumps(data, indent=2) + "\n")
