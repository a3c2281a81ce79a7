"""Per-layer metrics of the traced runs, named after the repository's modules.

Every workload reports every metric below.  Where a layer does not run on
a workload, or cannot be observed from outside its process, the value is 0
and the report says why.  Times (``*_ms``) and counts are per decision (per
request on the serving workloads, per procedure call on ``fixpoint``)
unless the name says otherwise; ``*_ratio`` / ``*_share`` are fractions.
"""

from __future__ import annotations

METHODS = ("syntactic", "baseline", "sparse", "direct")
SOURCES = ("dedup", "cache", "semantic", "computed")
WAVE_OPS = ("candidates", "refine", "enumerate", "clauses", "connector_columns", "connector_cis")
MEMOS = (
    "decision", "tp_oracle", "compile.automaton", "compile.disjunct",
    "compile.query", "compile.fingerprint", "factorization", "service.results",
)

PER_LAYER = {
    "queries.parse_ms": "ms",
    "queries.compile.hit_ratio": "ratio",
    "dl.normalize_ms": "ms",
    "dl.normalize.calls": "count",
    **{f"core.decide_ms.{m}": "ms" for m in METHODS},
    **{f"core.method_share.{m}": "ratio" for m in METHODS},
    "core.search.steps": "count",
    "core.search.tt_hit_ratio": "ratio",
    "core.seeds_tried": "count",
    "core.decision_memo.hit_ratio": "ratio",
    "fixpoint.oneway_ms": "ms",
    "fixpoint.twoway_ms": "ms",
    "fixpoint.elimination_self_ms": "ms",
    "fixpoint.realizability_chase_ms": "ms",
    "fixpoint.waves": "count",
    "fixpoint.survivors": "count",
    **{f"kernel.vec.wave_ms.{op}": "ms" for op in WAVE_OPS},
    "kernel.vec.rows_filtered": "count",
    "kernel.vec.bulk_ops": "count",
    "kernel.backend.bitset": "count",
    "kernel.backend.vec": "count",
    "kernel.backend.fallback": "count",
    "sessions.register_ms": "ms",
    "scheduler.submit_ms": "ms",
    "scheduler.resolve_ms": "ms",
    **{f"scheduler.source_share.{s}": "ratio" for s in SOURCES},
    "scheduler.retries": "count",
    "journal.load_ms": "ms",
    "journal.get_ms": "ms",
    "journal.hit_ratio": "ratio",
    "journal.put_ms": "ms",
    "journal.bytes_per_put": "B",
    "journal.quarantined": "count",
    "semantic.lookup_ms": "ms",
    "semantic.insert_ms": "ms",
    "semantic.hit_ratio": "ratio",
    "semantic.probe_yield": "ratio",
    "audit.check_ms": "ms",
    "audit.share": "ratio",
    "audit.ab_ms": "ms",
    "audit.redecides": "count",
    "gateway.outside_shard_ms.p50": "ms",
    "gateway.outside_shard_ms.p99": "ms",
    "gateway.shard_busy_share": "ratio",
    "gateway.fair_queue.high_water": "count",
    "gateway.rejected": "count",
    "gateway.respawns": "count",
    "obs.trace_overhead_pct": "%",
    **{f"memo.entries.{m}": "count" for m in MEMOS},
    "semantic.nodes": "count",
    "kernel.vec.table_rows": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.sent": "count",
}


def _ratio(hit: float, miss: float) -> float:
    return hit / (hit + miss) if hit + miss else 0.0


class Layers:
    """Collects values; ``finish`` fills every absent metric with a reason."""

    def __init__(self, run, absent: dict) -> None:
        self.run = run
        self.absent = absent
        """prefix -> reason, for whole layers this workload bypasses."""

    def set(self, name: str, value: float, note: str = "") -> None:
        self.run.layers[name] = (float(value), PER_LAYER[name], note)

    def missing(self, name: str, reason: str) -> None:
        self.run.layers[name] = (0.0, PER_LAYER[name], f"absent: {reason}")

    def finish(self) -> None:
        for name in PER_LAYER:
            if name in self.run.layers:
                continue
            reason = next(
                (why for prefix, why in self.absent.items() if name.startswith(prefix)),
                "not observed on this workload",
            )
            self.missing(name, reason)
        self.run.layers = {name: self.run.layers[name] for name in PER_LAYER}


def _memo_ratio(counters: dict, names) -> float:
    hits = sum(counters.get(f"memo.{n}.hits", 0) for n in names)
    misses = sum(counters.get(f"memo.{n}.misses", 0) for n in names)
    return _ratio(hits, misses)


def _span(spans: dict, name: str) -> dict:
    return spans["by_name"].get(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})


def _mean(entry: dict, key: str = "total_ms") -> float:
    return entry[key] / entry["count"] if entry["count"] else 0.0


def _core(layers: Layers, spans: dict, counters: dict, decisions: int) -> None:
    """``decisions``: the computed decisions the counters cover."""
    by_method = spans["decide_by_method"]
    decided = sum(entry["count"] for entry in by_method.values())
    for method in METHODS:
        entry = by_method.get(method, {"count": 0, "total_ms": 0.0})
        layers.set(f"core.decide_ms.{method}", _mean(entry), f"{entry['count']} decisions")
        layers.set(f"core.method_share.{method}", entry["count"] / decided if decided else 0.0)
    layers.set("core.search.steps", counters.get("search.steps", 0) / max(1, decisions))
    layers.set("core.search.tt_hit_ratio", _ratio(counters.get("search.tt_hits", 0), counters.get("search.tt_misses", 0)))
    layers.set("core.seeds_tried", counters.get("decision.seeds_tried", 0) / max(1, decisions))
    layers.set("core.decision_memo.hit_ratio", _memo_ratio(counters, ["decision"]))


def _kernel(layers: Layers, spans: dict, counters: dict, calls: int) -> None:
    waves = spans.get("vec_wave_by_op", {})
    for op in WAVE_OPS:
        entry = waves.get(op, {"count": 0, "self_ms": 0.0})
        layers.set(f"kernel.vec.wave_ms.{op}", entry["self_ms"] / max(1, calls), f"{entry['count']} waves")
    layers.set("kernel.vec.rows_filtered", counters.get("vec.rows_filtered", 0) / max(1, calls))
    layers.set("kernel.vec.bulk_ops", counters.get("vec.bulk_ops", 0) / max(1, calls))
    layers.set("kernel.backend.bitset", counters.get("kernel.backend.bitset", 0) / max(1, calls))
    layers.set("kernel.backend.vec", counters.get("kernel.backend.vec", 0) / max(1, calls))
    fallback = sum(v for k, v in counters.items() if k.startswith("kernel.backend.fallback."))
    layers.set("kernel.backend.fallback", fallback / max(1, calls))


def _memory(layers: Layers, memo_entries: dict, table_rows) -> None:
    for memo in MEMOS:
        if memo in memo_entries:
            layers.set(f"memo.entries.{memo}", memo_entries[memo], "at run end")
    if table_rows is not None:
        layers.set("kernel.vec.table_rows", table_rows, "at run end")


def _overhead(layers: Layers, untraced_s: float, traced_s: float) -> None:
    pct = (traced_s - untraced_s) / untraced_s * 100.0 if untraced_s else 0.0
    layers.set("obs.trace_overhead_pct", pct, f"traced {traced_s:.3f}s vs untraced {untraced_s:.3f}s, both scaled")


SERVICE_ABSENT = "no service layer runs in-process on this workload"


def library_layers(run, result: dict) -> None:
    spans, counters = result["spans"], result["counters"]
    decisions = spans["decisions"]
    layers = Layers(run, {
        "fixpoint.": "auto dispatch never calls the oneway/twoway procedures",
        "sessions.": SERVICE_ABSENT, "scheduler.": SERVICE_ABSENT, "journal.": SERVICE_ABSENT,
        "semantic.": SERVICE_ABSENT, "audit.": SERVICE_ABSENT, "memo.entries.service": SERVICE_ABSENT,
        "gateway.": "no gateway on this workload", "loadgen.": "closed loop, no load generator",
    })
    parse = _span(spans, "parse_query")
    layers.set("queries.parse_ms", parse["total_ms"] / max(1, decisions), f"{parse['count']} calls")
    layers.set("queries.compile.hit_ratio", _memo_ratio(counters, ["compile.automaton", "compile.disjunct", "compile.query", "compile.fingerprint"]))
    norm = _span(spans, "normalize")
    layers.set("dl.normalize_ms", norm["total_ms"] / max(1, decisions), f"{norm['count']} calls")
    layers.set("dl.normalize.calls", norm["count"] / max(1, decisions))
    _core(layers, spans, counters, decisions)
    _kernel(layers, spans, counters, decisions)
    _memory(layers, result["memo_entries"], result["vec_table_rows"])
    _overhead(layers, result["elapsed_s"], result["traced_s"])
    layers.finish()
    total = sum(e["total_ms"] for e in spans["decide_by_method"].values())
    parse_norm = parse["total_ms"] + norm["total_ms"]
    run.shares.append(
        f"library-cold: core (is_contained minus parse/normalize) holds "
        f"{(total - parse_norm) / max(total, 1e-9):.0%} of decision time; parse {parse['total_ms'] / max(total, 1e-9):.1%}, "
        f"normalize {norm['total_ms'] / max(total, 1e-9):.1%}; no service/cache/audit/gateway code ran "
        "(premise: core, queries and dl do nearly all the work)"
    )


def fixpoint_layers(run, result: dict) -> None:
    spans, counters = result["spans"], result["counters"]
    oneway, twoway = _span(spans, "fixpoint.oneway"), _span(spans, "fixpoint.twoway")
    calls = oneway["count"] + twoway["count"]
    layers = Layers(run, {
        "queries.parse_ms": "instances are parsed once in set-up, outside the timed loop",
        "dl.": "instances are normalized once in set-up, outside the timed loop",
        "core.decide_ms.": "no is_contained call on this workload",
        "core.method_share.": "no is_contained call on this workload",
        "core.seeds_tried": "no is_contained call on this workload",
        "sessions.": SERVICE_ABSENT, "scheduler.": SERVICE_ABSENT, "journal.": SERVICE_ABSENT,
        "semantic.": SERVICE_ABSENT, "audit.": SERVICE_ABSENT, "memo.entries.service": SERVICE_ABSENT,
        "gateway.": "no gateway on this workload", "loadgen.": "closed loop, no load generator",
    })
    layers.set("queries.compile.hit_ratio", _memo_ratio(counters, ["compile.automaton", "compile.disjunct", "compile.query", "compile.fingerprint"]))
    _core_search(layers, counters, calls)
    layers.set("fixpoint.oneway_ms", _mean(oneway), f"{oneway['count']} calls")
    layers.set("fixpoint.twoway_ms", _mean(twoway), f"{twoway['count']} calls")
    elimination = _span(spans, "elimination")
    layers.set("fixpoint.elimination_self_ms", elimination["self_ms"] / max(1, calls), f"{elimination['count']} spans")
    chase = spans["fixpoint_chase"]
    layers.set("fixpoint.realizability_chase_ms", chase["total_ms"] / max(1, calls), f"{chase['count']} chase runs")
    samples = result["samples"]
    layers.set("fixpoint.waves", sum(s[5] for s in samples) / max(1, len(samples)))
    layers.set("fixpoint.survivors", sum(s[6] for s in samples) / max(1, len(samples)))
    _kernel(layers, spans, counters, calls)
    _memory(layers, result["memo_entries"], result["vec_table_rows"])
    _overhead(layers, result["elapsed_s"], result["traced_s"])
    layers.finish()
    total = oneway["total_ms"] + twoway["total_ms"]
    vec = sum(e["self_ms"] for e in spans["vec_wave_by_op"].values())
    run.shares.append(
        f"fixpoint: oneway/twoway hold 100% of the loop; elimination self {elimination['self_ms'] / max(total, 1e-9):.0%}, "
        f"vec waves {vec / max(total, 1e-9):.0%}, realizability chase {chase['total_ms'] / max(total, 1e-9):.0%} "
        "(premise: core.oneway/twoway and repro.kernel are the only code measured)"
    )


def _core_search(layers: Layers, counters: dict, calls: int) -> None:
    layers.set("core.search.steps", counters.get("search.steps", 0) / max(1, calls))
    layers.set("core.search.tt_hit_ratio", _ratio(counters.get("search.tt_hits", 0), counters.get("search.tt_misses", 0)))
    layers.set("core.decision_memo.hit_ratio", _memo_ratio(counters, ["decision"]))


def batch_layers(run, passes: list, untraced_s: float, traced_s: float, requests: int) -> None:
    """Traced sequential-server passes: span tables from the server
    process, counters from its ``--metrics-json`` snapshot."""
    n = len(passes) * requests
    spans = {"by_name": {}, "decide_by_method": {}, "vec_wave_by_op": {}}
    counters: dict = {}
    service: dict = {}
    audit_s = wall = growth = quarantined = nodes = 0.0
    sources: dict = {}
    for p in passes:
        tables = p["rss"]["spans"]
        for table in ("by_name", "decide_by_method", "vec_wave_by_op"):
            for name, entry in tables[table].items():
                acc = spans[table].setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
                for key in acc:
                    acc[key] += entry[key]
        metrics = p["metrics"]
        for name, value in metrics["obs"]["counters"].items():
            if isinstance(value, (int, float)):
                counters[name] = counters.get(name, 0) + value
        for name, value in metrics["counters"].items():
            service[name] = service.get(name, 0) + value
        audit_s += metrics.get("audit", {}).get("seconds", 0.0)
        wall += p["wall"]
        growth += p["journal_growth"]
        quarantined += metrics.get("cache", {}).get("quarantined", 0)
        nodes = max(nodes, sum(s.get("nodes", 0) for s in metrics.get("semantic", [])))
        for name, value in p["sources"].items():
            sources[name] = sources.get(name, 0) + value
    layers = Layers(run, {
        "fixpoint.": "auto dispatch never calls the oneway/twoway procedures",
        "gateway.": "no gateway on this workload", "loadgen.": "closed loop, no load generator",
    })
    parse = _span(spans, "parse_query")
    layers.set("queries.parse_ms", parse["total_ms"] / n, f"{parse['count']} calls")
    layers.set("queries.compile.hit_ratio", _memo_ratio(counters, ["compile.automaton", "compile.disjunct", "compile.query", "compile.fingerprint"]))
    norm = _span(spans, "normalize")
    layers.set("dl.normalize_ms", norm["total_ms"] / n, f"{norm['count']} calls")
    layers.set("dl.normalize.calls", norm["count"] / n)
    _core(layers, spans, counters, service.get("decisions_executed", 0))
    _kernel(layers, spans, counters, n)
    register = _span(spans, "SessionManager.register")
    layers.set("sessions.register_ms", _mean(register), f"{register['count']} registrations")
    submit = _span(spans, "DecisionScheduler.submit")
    layers.set("scheduler.submit_ms", _mean(submit, "self_ms"), "self time per request")
    resolve = _span(spans, "scheduler.resolve")
    layers.set("scheduler.resolve_ms", _mean(resolve, "self_ms"), "self time per request")
    total_sources = max(1, sum(sources.values()))
    for source in SOURCES:
        layers.set(f"scheduler.source_share.{source}", sources.get(source, 0) / total_sources)
    layers.set("scheduler.retries", service.get("decision_retries", 0) / n)
    load = _span(spans, "DecisionCache.load")
    layers.set("journal.load_ms", load["total_ms"] / max(1, len(passes)), "per server start")
    get, put = _span(spans, "DecisionCache.get"), _span(spans, "DecisionCache.put")
    layers.set("journal.get_ms", _mean(get), f"{get['count']} reads")
    layers.set("journal.hit_ratio", _ratio(service.get("cache_hits", 0), service.get("cache_misses", 0)))
    layers.set("journal.put_ms", _mean(put), f"{put['count']} appends")
    layers.set("journal.bytes_per_put", growth / max(1, service.get("cache_writes", 0)))
    layers.set("journal.quarantined", quarantined)
    lookup, insert = _span(spans, "SemanticLattice.lookup"), _span(spans, "SemanticLattice.insert")
    layers.set("semantic.lookup_ms", _mean(lookup), f"{lookup['count']} lookups")
    layers.set("semantic.insert_ms", _mean(insert), f"{insert['count']} inserts")
    _semantic_ratios(layers, counters)
    check, ab = _span(spans, "VerdictAuditor.check_false"), _span(spans, "VerdictAuditor.ab_verdict")
    layers.set("audit.check_ms", _mean(check), f"{check['count']} checks")
    layers.set("audit.share", audit_s / wall if wall else 0.0, "auditor seconds over serve time")
    layers.set("audit.ab_ms", ab["total_ms"] / n, f"{ab['count']} mirror re-decides")
    layers.set("audit.redecides", (counters.get("audit.ab.checked", 0) + counters.get("audit.reference.redecides", 0)) / n)
    # sampled by --metrics-json while the server (and its memos) is alive
    last = passes[-1]["metrics"]["obs"]["counters"]
    memo_entries = {name[len("memo."):-len(".entries")]: v for name, v in last.items()
                    if name.startswith("memo.") and name.endswith(".entries")}
    _memory(layers, memo_entries, passes[-1]["rss"]["vec_table_rows"])
    layers.set("semantic.nodes", nodes, "at server exit")
    _overhead(layers, untraced_s, traced_s)
    layers.finish()
    decide = _span(spans, "is_contained")
    run.shares.append(
        f"batch-replay: computed decisions (is_contained) take {decide['total_ms'] / (wall * 1000):.0%} of serve time "
        f"for {sources.get('computed', 0) / total_sources:.0%} of requests; auditor {audit_s / wall:.0%}, "
        f"journal reads {get['total_ms'] / (wall * 1000):.1%}, lattice {lookup['total_ms'] / (wall * 1000):.0%} "
        "(premise: verdict tiers and the auditor do most of the work; computation is a minority)"
    )


def _semantic_ratios(layers: Layers, counters: dict) -> None:
    hits = counters.get("semcache.hit.transitive", 0) + counters.get("semcache.hit.countermodel", 0)
    layers.set("semantic.hit_ratio", _ratio(hits, counters.get("semcache.miss", 0)))
    probes = counters.get("semcache.probe", 0)
    layers.set("semantic.probe_yield", hits / probes if probes else 0.0, f"{probes} schema-free probes")


def gateway_layers(run, nominal: dict, traced: dict, deep: dict, register_ms: float, journal_bytes: int) -> None:
    """Gateway: client-side timing, each reply's ``elapsed_ms`` and one
    ``GET /v1/stats?deep=1`` snapshot (the shard is another process)."""
    from perfbench.run import percentile

    inside = "inside the shard process; only its counters and phase totals are exported"
    layers = Layers(run, {
        "queries.parse_ms": inside, "dl.normalize_ms": inside,
        "fixpoint.": "auto dispatch never calls the oneway/twoway procedures",
        "kernel.vec.wave_ms.": inside, "kernel.vec.table_rows": inside,
        "scheduler.submit_ms": inside, "journal.load_ms": "fresh cache directory: nothing to load",
        "journal.get_ms": inside, "journal.put_ms": inside,
        "semantic.lookup_ms": inside, "semantic.insert_ms": inside, "audit.ab_ms": inside,
    })
    shard = [s for s in deep.get("shard_snapshots", []) if s.get("stats")]
    counters: dict = {}
    service: dict = {}
    audit_s = nodes = 0.0
    respawns = sum(s.get("respawns", 0) for s in deep.get("shard_snapshots", []))
    for snap in shard:
        stats = snap["stats"]
        for name, value in stats["obs"]["counters"].items():
            if isinstance(value, (int, float)):
                counters[name] = counters.get(name, 0) + value
        for name, value in stats["counters"].items():
            service[name] = service.get(name, 0) + value
        audit_s += stats.get("audit", {}).get("seconds", 0.0)
        nodes += sum(s.get("nodes", 0) for s in stats.get("semantic", []))
    requests = max(1, sum(service.get(f"verdicts_{s}", 0) for s in SOURCES))
    outside, by_method, sources = [], {}, {}
    for _, ms, reply in traced["records"]:
        if reply is None or reply.get("type") != "verdict":
            continue
        outside.append(ms - reply.get("elapsed_ms", 0.0))
        sources[reply["source"]] = sources.get(reply["source"], 0) + 1
        if reply["source"] == "computed":
            entry = by_method.setdefault(reply["verdict"]["method"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["count"] += 1
            entry["total_ms"] += reply.get("elapsed_ms", 0.0)
    answered = max(1, len(outside))
    layers.set("queries.compile.hit_ratio", _memo_ratio(counters, ["compile.automaton", "compile.disjunct", "compile.query", "compile.fingerprint"]))
    layers.set("dl.normalize.calls", service.get("sessions_created", 0) / requests, "sessions created per request")
    _core(layers, {"decide_by_method": by_method}, counters, service.get("decisions_executed", 0))
    for name in ("kernel.vec.rows_filtered", "kernel.vec.bulk_ops", "kernel.backend.bitset", "kernel.backend.vec"):
        key = name[len("kernel."):] if name.startswith("kernel.vec.") else name
        layers.set(name, counters.get(key, 0) / requests)
    fallback = sum(v for k, v in counters.items() if k.startswith("kernel.backend.fallback."))
    layers.set("kernel.backend.fallback", fallback / requests)
    layers.set("sessions.register_ms", register_ms, "client-side, schema broadcast to every shard")
    decide_ms = sum(
        snap["stats"]["obs"]["phases"].get("service.decide", {}).get("total_ms", 0.0) for snap in shard
    )
    elapsed = [reply.get("elapsed_ms", 0.0) for _, _, reply in traced["records"] if reply and reply.get("type") == "verdict"]
    layers.set("scheduler.resolve_ms", sum(elapsed) / answered, "shard-reported elapsed_ms per request")
    for source in SOURCES:
        layers.set(f"scheduler.source_share.{source}", sources.get(source, 0) / answered)
    layers.set("scheduler.retries", service.get("decision_retries", 0) / requests)
    layers.set("journal.hit_ratio", _ratio(service.get("cache_hits", 0), service.get("cache_misses", 0)))
    layers.set("journal.bytes_per_put", journal_bytes / max(1, service.get("cache_writes", 0)))
    layers.set("journal.quarantined", service.get("cache_quarantined", 0))
    _semantic_ratios(layers, counters)
    layers.set("audit.check_ms", audit_s * 1000.0 / requests, "auditor seconds per request")
    layers.set("audit.share", audit_s * 1000.0 / decide_ms if decide_ms else 0.0,
               "auditor seconds over the shards' service.decide time")
    layers.set("audit.redecides", (counters.get("audit.ab.checked", 0) + counters.get("audit.reference.redecides", 0)) / requests)
    layers.set("gateway.outside_shard_ms.p50", percentile(outside, 0.50), f"{len(outside)} requests")
    layers.set("gateway.outside_shard_ms.p99", percentile(outside, 0.99), f"{len(outside)} requests")
    busy_share = sum(elapsed) / (traced["span_s"] * 1000.0)
    layers.set("gateway.shard_busy_share", busy_share, "shard-reported elapsed_ms over the traced window")
    gauges = deep.get("gauges", {})
    high = max((g.get("high_water", 0) for name, g in gauges.items() if name.startswith("gateway.fair_queue.")), default=0)
    layers.set("gateway.fair_queue.high_water", high, "whole gateway life")
    rejected = sum(v for k, v in deep.get("counters", {}).items() if "rejected" in k)
    layers.set("gateway.rejected", rejected, "whole gateway life")
    layers.set("gateway.respawns", respawns, "whole gateway life")
    base, with_spans = nominal["stats"]["p50"], traced["stats"]["p50"]
    layers.set("obs.trace_overhead_pct", (with_spans - base) / base * 100.0 if base else 0.0,
               f"p50 at nominal rate, client spans on {with_spans:.2f}ms vs off {base:.2f}ms")
    memo_entries = {name[len("memo."):-len(".entries")]: v for name, v in counters.items()
                    if name.startswith("memo.") and name.endswith(".entries")}
    _memory(layers, memo_entries, None)
    layers.set("semantic.nodes", nodes, "at run end")
    layers.set("loadgen.lag_p99_ms", percentile(traced["lag_ms"], 0.99), f"{len(traced['lag_ms'])} sends")
    layers.set("loadgen.sent", len(traced["lag_ms"]), "requests in the traced window")
    layers.finish()
    out_p50 = percentile(outside, 0.50)
    run.shares.append(
        f"gateway-open: outside-shard time (front, admission, DRR queue, IPC) is {out_p50:.2f}ms of the "
        f"{nominal['raw_p50']:.2f}ms nominal p50 (both unscaled); shard busy {busy_share:.0%} of the window; "
        f"computed {sources.get('computed', 0) / answered:.0%} of replies "
        "(premise: latency is set by the gateway front and queueing behind fresh decisions)"
    )
