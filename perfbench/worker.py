"""Fresh-interpreter entry points the benchmark measures.

``python perfbench/worker.py library|fixpoint CONFIG_JSON``
    Imports the program, builds the workload's inputs, prints ``READY``,
    then waits for one stdin line: ``EXIT`` ends a set-up-only sample,
    ``GO`` runs the timed loop and writes a result file.

``python perfbench/worker.py server CONFIG_JSON``
    The sequential pipe server exactly as ``repro serve`` runs it (through
    ``repro.cli.main``), optionally with the traced run's span wrappers,
    dumping spans and counters to a file when the pipe closes.

Every worker runs with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import pool  # noqa: E402
from perfbench.calib import Calibrator, factor_of  # noqa: E402
from perfbench.spans import SpanStore, wrap_attr  # noqa: E402


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM) in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ready() -> bool:
    """Signal set-up done; True when the parent wants the timed run."""
    print("READY", flush=True)
    return sys.stdin.readline().strip() == "GO"


def _memo_entries() -> dict:
    from repro.obs import REGISTRY

    counters = REGISTRY.counters_snapshot()
    return {
        name[len("memo."):-len(".entries")]: value
        for name, value in counters.items()
        if name.startswith("memo.") and name.endswith(".entries")
    }


def _vec_table_rows() -> int:
    from repro.kernel import vec

    return sum(len(table.ints) for table in vec._TABLE_CACHE.values())


def _run_passes(one_pass, passes: int) -> tuple[int, float]:
    """``passes`` whole passes; returns (passes, seconds)."""
    start = time.perf_counter()
    for _ in range(passes):
        one_pass()
    return passes, time.perf_counter() - start


def _counter_pass(store_into: dict, body) -> None:
    """Run ``body`` and add the registry counter deltas it caused."""
    from repro.obs import REGISTRY, counter_delta

    before = REGISTRY.counters_snapshot()
    body()
    for name, value in counter_delta(before, REGISTRY.counters_snapshot()).items():
        store_into[name] = store_into.get(name, 0) + value


# --------------------------------------------------------------------- #
# library-cold


def library(cfg: dict) -> dict:
    from repro import is_contained
    from repro.dl.normalize import normalize
    from repro.service.sessions import reset_process_caches

    schemas = pool.schemas()
    for tbox in schemas.values():
        normalize(tbox)
    items = {item.id: item for item in pool.decision_items()}
    order = [items[i] for i in cfg["order"]]
    if not _ready():
        return {}

    samples: list = []
    counters: dict = {}
    models: dict = {}
    cal = Calibrator()

    def one_pass(sink=None):
        def body():
            for item in order:
                cal.tick()
                t0 = time.perf_counter()
                if sink is None:
                    result = is_contained(item.lhs, item.rhs, schemas.get(item.schema))
                else:
                    sink.rid = item.id
                    with sink.span("is_contained") as sp:
                        result = is_contained(item.lhs, item.rhs, schemas.get(item.schema))
                        sp.set(method=result.method)
                ms = (time.perf_counter() - t0) * 1000.0
                samples.append((item.id, ms, result.contained, result.complete, result.method, t0))
                if result.countermodel is not None:
                    models.setdefault((item.id, result.countermodel.describe()), result.countermodel)

        reset_process_caches()
        _counter_pass(counters, body)

    out = {}
    if not cfg["trace"]:
        passes, elapsed = _run_passes(one_pass, cfg["passes"])
    else:
        # untraced arm, then the same number of traced passes; the
        # untraced samples stay the run's end-to-end figures, and each
        # arm's time is scaled by its own reference blocks
        passes, elapsed = _run_passes(one_pass, max(1, cfg["passes"] // 2))
        elapsed *= factor_of(cal.refs)
        mark = len(cal.refs)
        untraced = list(samples)
        counters.clear()
        store = SpanStore()
        restore = _traced_library_wrappers(store)
        from repro.obs import install, uninstall

        install(store)
        t0 = time.perf_counter()
        for _ in range(passes):
            one_pass(store)
        traced_s = (time.perf_counter() - t0) * factor_of(cal.refs[mark:])
        uninstall()
        for undo in restore:
            undo()
        store.write_jsonl(cfg["spans"])
        samples[:] = untraced
        out["traced_s"] = traced_s
        out["spans"] = _span_tables(store)
        out["memo_entries"] = _memo_entries()
        out["vec_table_rows"] = _vec_table_rows()
    from perfbench.checks import VerdictChecker, load_answers

    # wrong verdicts are counted by the parent; here only the witnesses of
    # expected-False items are re-checked
    checker = VerdictChecker(items, schemas, load_answers())
    bad_models = {
        item_id for (item_id, _), model in models.items()
        if not checker.answers[item_id]["contained"] and not checker.check(item_id, False, model)
    }
    out.update(
        samples=samples, passes=passes, elapsed_s=elapsed, counters=counters,
        model_failures=sorted(bad_models), check_failures=checker.failures,
        peak_rss_mb=peak_rss_mb(), refs=cal.refs,
    )
    return out


def _traced_library_wrappers(store: SpanStore) -> list:
    from repro.core import containment
    from repro.core.search import CountermodelSearch

    return [
        wrap_attr(store, containment, "parse_query", "parse_query"),
        wrap_attr(store, containment, "normalize", "normalize"),
        wrap_attr(store, CountermodelSearch, "run", "search.run"),
    ]


def _span_tables(store: SpanStore) -> dict:
    """Span aggregates the parent turns into per-layer metrics."""
    return {
        "by_name": store.summary(),
        "decide_by_method": store.summary(
            lambda r: r[6].get("method") if r[0] == "is_contained" else None
        ),
        "vec_wave_by_op": store.summary(
            lambda r: r[6].get("op") if r[0] == "vec.wave" else None
        ),
        "decisions": sum(1 for r in store.closed() if r[0] == "is_contained"),
    }


# --------------------------------------------------------------------- #
# fixpoint


def fixpoint(cfg: dict) -> dict:
    from repro.core.oneway import realizable_refuting_oneway
    from repro.core.search import SearchLimits
    from repro.core.twoway import TwoWayConfig, realizable_refuting_twoway
    from repro.service.sessions import reset_process_caches

    instances = {item.id: (item, pool.fixpoint_instance(item)) for item in pool.fixpoint_items()}
    order = [instances[i] for i in cfg["order"]]
    if not _ready():
        return {}

    samples: list = []
    counters: dict = {}
    cal = Calibrator()

    def call(item, instance):
        tau, tbox, query = instance
        if item.procedure == "oneway":
            return realizable_refuting_oneway(tau, tbox, query, max_types=2**25, backend="auto")
        config = TwoWayConfig(
            limits=SearchLimits(max_nodes=4, max_steps=4000), max_types=2**22, backend="auto"
        )
        return realizable_refuting_twoway(tau, tbox, query, config=config)

    def one_pass(sink=None):
        def body():
            for item, instance in order:
                cal.tick()
                t0 = time.perf_counter()
                if sink is None:
                    result = call(item, instance)
                else:
                    sink.rid = item.id
                    with sink.span(f"fixpoint.{item.procedure}"):
                        result = call(item, instance)
                ms = (time.perf_counter() - t0) * 1000.0
                samples.append((
                    item.id, ms, result.realizable, result.complete,
                    getattr(result, "backend", ""),
                    getattr(result, "iterations", 0),
                    len(result.survivors or ()),
                    t0,
                ))

        reset_process_caches()
        _counter_pass(counters, body)

    out = {}
    if not cfg["trace"]:
        passes, elapsed = _run_passes(one_pass, cfg["passes"])
    else:
        passes, elapsed = _run_passes(one_pass, max(1, cfg["passes"] // 2))
        elapsed *= factor_of(cal.refs)
        mark = len(cal.refs)
        untraced = list(samples)
        counters.clear()
        store = SpanStore()
        from repro.core.search import CountermodelSearch
        from repro.obs import install, uninstall

        restore = [wrap_attr(store, CountermodelSearch, "run", "search.run")]
        install(store)
        t0 = time.perf_counter()
        for _ in range(passes):
            one_pass(store)
        out["traced_s"] = (time.perf_counter() - t0) * factor_of(cal.refs[mark:])
        samples[:] = untraced
        uninstall()
        for undo in restore:
            undo()
        store.write_jsonl(cfg["spans"])
        out["spans"] = _span_tables(store)
        chase = store.summary(
            lambda r: "chase" if r[0] == "search.run" and _under(store, r, "fixpoint.") else None
        )
        out["spans"]["fixpoint_chase"] = chase.get("chase", {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        out["memo_entries"] = _memo_entries()
        out["vec_table_rows"] = _vec_table_rows()
    out.update(samples=samples, passes=passes, elapsed_s=elapsed, counters=counters,
               peak_rss_mb=peak_rss_mb(), refs=cal.refs)
    return out


def _under(store: SpanStore, record: tuple, prefix: str) -> bool:
    records = store.records
    parent = record[3]
    while parent >= 0:
        node = records[parent]
        if node is not None and node[0].startswith(prefix):
            return True
        parent = node[3] if node is not None else -1
    return False


# --------------------------------------------------------------------- #
# sequential pipe server


def server(cfg: dict) -> int:
    from repro import cli

    argv = ["serve", "--cache-dir", cfg["cache_dir"], "--metrics-json", cfg["metrics_json"]]
    if not cfg.get("trace"):
        code = cli.main(argv)
        Path(cfg["rss_json"]).write_text(json.dumps({"peak_rss_mb": peak_rss_mb()}))
        return code

    from repro.cache.semantic import SemanticLattice
    from repro.core import containment
    from repro.core.search import CountermodelSearch
    from repro.obs import install
    from repro.resilience.audit import VerdictAuditor
    from repro.service import scheduler, sessions
    from repro.service.cache import DecisionCache
    from repro.service.scheduler import DecisionScheduler
    from repro.service.sessions import SessionManager

    store = SpanStore()

    def request_id(args, kwargs):
        request = args[1] if len(args) > 1 else None
        return getattr(request, "id", None)

    def item_id(args, kwargs):
        item = args[1] if len(args) > 1 else None
        return getattr(getattr(item, "request", None), "id", None)

    restore = [
        wrap_attr(store, scheduler, "parse_query", "parse_query"),
        wrap_attr(store, containment, "parse_query", "parse_query"),
        wrap_attr(store, sessions, "normalize", "normalize"),
        wrap_attr(store, containment, "normalize", "normalize"),
        wrap_attr(store, scheduler, "is_contained", "is_contained"),
        wrap_attr(store, SessionManager, "register", "SessionManager.register"),
        wrap_attr(store, DecisionScheduler, "submit", "DecisionScheduler.submit", request_id),
        wrap_attr(store, DecisionScheduler, "drain", "DecisionScheduler.drain"),
        wrap_attr(store, DecisionScheduler, "_resolve", "scheduler.resolve", item_id),
        wrap_attr(store, DecisionCache, "get", "DecisionCache.get"),
        wrap_attr(store, DecisionCache, "put", "DecisionCache.put"),
        wrap_attr(store, DecisionCache, "_load", "DecisionCache.load"),
        wrap_attr(store, DecisionCache, "_load_semantic", "DecisionCache.load"),
        wrap_attr(store, SemanticLattice, "lookup", "SemanticLattice.lookup"),
        wrap_attr(store, SemanticLattice, "insert", "SemanticLattice.insert"),
        wrap_attr(store, VerdictAuditor, "check_false", "VerdictAuditor.check_false"),
        wrap_attr(store, VerdictAuditor, "ab_verdict", "VerdictAuditor.ab_verdict"),
        wrap_attr(store, CountermodelSearch, "run", "search.run"),
    ]
    install(store)
    code = cli.main(argv)
    for undo in restore:
        undo()
    store.write_jsonl(cfg["spans"])
    Path(cfg["rss_json"]).write_text(json.dumps({
        "peak_rss_mb": peak_rss_mb(),
        "spans": _span_tables(store) | {
            "decide_by_method": store.summary(
                lambda r: r[6].get("method") if r[0] == "decision" and not r[6].get("cached") else None
            ),
        },
        "vec_table_rows": _vec_table_rows(),
    }))
    return code


def main(argv: list[str]) -> int:
    mode, cfg = argv[1], json.loads(argv[2])
    if mode == "server":
        return server(cfg)
    result = {"library": library, "fixpoint": fixpoint}[mode](cfg)
    if result:
        Path(cfg["result"]).write_text(json.dumps(result))
        print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
