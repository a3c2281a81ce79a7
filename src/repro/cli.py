"""Command-line interface:  python -m repro <command> ...

Commands
--------

contain   decide P ⊆_T Q
    python -m repro contain "A(x), r(x,y)" "r(x,y), B(y)" --schema schema.tbox
entail    decide G, T ⊨fin Q for a graph file
    python -m repro entail graph.edges schema.tbox "B(x)"
eval      evaluate a query over a graph file
    python -m repro eval graph.edges "A(x), r*(x,y)"
batch     run a JSONL request file through the containment service
    python -m repro batch requests.jsonl -o verdicts.jsonl
serve     long-running containment service: JSONL on stdin/stdout, or the
          concurrent gateway on a Unix socket / TCP / HTTP
    python -m repro serve --socket /tmp/repro.sock --shards 1 --shard-threads
cache     inspect or clear the persistent decision journals
    python -m repro cache stats

``batch`` and ``serve`` speak the ``repro.service`` wire format (see
``repro/service/protocol.py``): schema sessions, request dedup, and a
persistent decision cache make a batch sharing one schema much faster
than sequential ``contain`` calls, with bit-identical verdicts.

File formats
------------

Schema files: one CI per line, ``lhs <= rhs`` in the concept text syntax;
``#`` comments and blank lines ignored.

Graph files: one item per line — ``node: Label1,Label2`` declares a node,
``a -r-> b`` an edge; ``#`` comments ignored.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.containment import is_contained
from repro.core.entailment import finitely_entails
from repro.dl.tbox import CI, TBox
from repro.graphs.graph import Graph
from repro.queries.evaluation import find_union_match
from repro.queries.parser import parse_query


def load_schema(path: str) -> TBox:
    cis = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "<=" not in line:
            raise SystemExit(f"{path}:{line_no}: expected 'lhs <= rhs'")
        lhs, rhs = line.split("<=", 1)
        cis.append(CI.of(lhs.strip(), rhs.strip()))
    return TBox.of(cis, name=Path(path).stem)


def load_graph(path: str) -> Graph:
    graph = Graph()
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            try:
                left, target = line.rsplit("->", 1)
                source, role = left.rsplit("-", 1)
            except ValueError:
                raise SystemExit(f"{path}:{line_no}: expected 'a -r-> b'")
            graph.add_edge(source.strip(), role.strip(), target.strip())
        elif ":" in line:
            node, labels = line.split(":", 1)
            graph.add_node(
                node.strip(), [l.strip() for l in labels.split(",") if l.strip()]
            )
        else:
            graph.add_node(line)
    return graph


def _decision_inputs(args: argparse.Namespace):
    """Resolve (lhs, rhs, tbox, options) shared by ``contain``/``explain``."""
    if args.preset:
        from repro.dl.pg_schema import figure1_schema
        from repro.queries.presets import example_11_q1, example_11_q2

        if args.lhs or args.rhs or args.schema:
            raise SystemExit("--preset replaces the lhs/rhs/--schema arguments")
        lhs, rhs = example_11_q1(), example_11_q2()
        tbox = figure1_schema()
    else:
        if not args.lhs or not args.rhs:
            raise SystemExit(f"{args.command} requires lhs and rhs queries (or --preset)")
        lhs, rhs = args.lhs, args.rhs
        tbox = load_schema(args.schema) if args.schema else None
    options = None
    timeout_ms = getattr(args, "timeout_ms", None)
    if timeout_ms is not None:
        from repro.core.containment import ContainmentOptions
        from repro.resilience import Deadline

        options = ContainmentOptions(deadline=Deadline.after_ms(timeout_ms))
    return lhs, rhs, tbox, options


def cmd_contain(args: argparse.Namespace) -> int:
    lhs, rhs, tbox, options = _decision_inputs(args)
    result = is_contained(
        lhs, rhs, tbox, method=args.method, options=options,
        trace=bool(args.trace),
    )
    if args.trace:
        from repro.obs import write_chrome_trace

        write_chrome_trace(result.trace, args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    verdict = "CONTAINED" if result.contained else "NOT CONTAINED"
    certainty = "certain" if result.complete else "within search budgets"
    if result.deadline_expired:
        certainty = "incomplete: timeout expired"
    print(f"{verdict}  (method: {result.method}, {certainty})")
    if not result.supported_by_theory:
        print("note: this (query, schema) combination is open in the paper;")
        print("      the verdict comes from the sound-but-incomplete engine")
    if result.countermodel is not None:
        print("countermodel:")
        print("  " + result.countermodel.describe().replace("\n", "\n  "))
    return 0 if result.contained else 1


def cmd_explain(args: argparse.Namespace) -> int:
    lhs, rhs, tbox, options = _decision_inputs(args)
    if options is None:
        from repro.core.containment import ContainmentOptions

        options = ContainmentOptions()
    if args.no_memo:
        # a warm decision memo would collapse the whole run into one cached
        # span; profiling usually wants the actual work visible
        from dataclasses import replace as _replace

        options = _replace(options, use_cache=False)
    result = is_contained(
        lhs, rhs, tbox, method=args.method, options=options, trace=True,
    )
    print(result.explain())
    if args.trace:
        from repro.obs import write_chrome_trace

        write_chrome_trace(result.trace, args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.events:
        from repro.obs import write_jsonl_events

        write_jsonl_events(result.trace, args.events)
        print(f"event log written to {args.events}", file=sys.stderr)
    return 0 if result.contained else 1


def cmd_entail(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    tbox = load_schema(args.schema)
    query = parse_query(args.query)
    result = finitely_entails(graph, tbox, query)
    print("ENTAILED" if result.entailed else "NOT ENTAILED", f"(method: {result.method})")
    if result.countermodel is not None:
        print("countermodel:")
        print("  " + result.countermodel.describe().replace("\n", "\n  "))
    return 0 if result.entailed else 1


def cmd_eval(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    query = parse_query(args.query)
    hit = find_union_match(graph, query)
    if hit is None:
        print("NO MATCH")
        return 1
    disjunct, match = hit
    print("MATCH")
    for variable, node in sorted(match.items(), key=lambda kv: str(kv[0])):
        print(f"  {variable} -> {node}")
    return 0


def _build_server(args: argparse.Namespace):
    from repro.service.server import ContainmentServer

    return ContainmentServer(
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        default_timeout_ms=args.timeout_ms,
        semantic_cache=args.semantic_cache != "off",
        audit=args.audit != "off",
    )


def _dump_metrics(server, path: str | None) -> None:
    if path:
        Path(path).write_text(
            json.dumps(server.stats(), indent=2, sort_keys=True) + "\n"
        )


def cmd_batch(args: argparse.Namespace) -> int:
    server = _build_server(args)
    with open(args.requests) as in_stream:
        if args.output:
            with open(args.output, "w") as out_stream:
                server.serve_pipe(in_stream, out_stream)
        else:
            server.serve_pipe(in_stream, sys.stdout)
    _dump_metrics(server, args.metrics_json)
    return 1 if server.metrics.counter("errors") else 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the persistent journals (``repro cache ...``)."""
    from repro.service.cache import (
        JOURNAL_NAME,
        QUARANTINE_NAME,
        SEMANTIC_JOURNAL_NAME,
        DecisionCache,
        default_cache_dir,
    )

    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    if args.cache_command == "clear":
        # unlink without loading: a corrupt journal must still be clearable
        removed = 0
        for name in (JOURNAL_NAME, SEMANTIC_JOURNAL_NAME, QUARANTINE_NAME):
            path = cache_dir / name
            if path.exists():
                path.unlink()
                removed += 1
                print(f"removed {path}")
        if not removed:
            print(f"nothing to clear under {cache_dir}")
        return 0

    cache = DecisionCache(cache_dir, auto_heal=False)
    if args.cache_command == "stats":
        payload = {
            "cache_dir": str(cache_dir),
            "fingerprint": cache.fingerprint,
            "decisions": cache.stats(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if args.cache_command == "scrub":
        from repro.resilience.audit import JournalScrubber

        report = JournalScrubber(cache).scrub_once()
        print(json.dumps(report, indent=2, sort_keys=True))
        bad = (
            report["records"]["decision_quarantined"]
            + report["records"]["semantic_quarantined"]
        )
        print(
            f"scrub: {report['records']['decision_records']} decision + "
            f"{report['records']['semantic_records']} semantic records checked, "
            f"{bad} quarantined this pass, "
            f"{report['quarantined_lines']} line(s) in quarantine.jsonl",
            file=sys.stderr,
        )
        return 0

    # ls: one line per entry, exact journal then semantic groups
    limit = args.limit
    shown = 0
    for digest, verdict in cache.entries():
        if limit is not None and shown >= limit:
            print("...")
            return 0
        shown += 1
        contained = verdict.get("contained")
        method = verdict.get("method")
        print(f"decision {digest[:16]} contained={contained} method={method}")
    for group, count in sorted(cache.semantic_groups().items()):
        if limit is not None and shown >= limit:
            print("...")
            return 0
        shown += 1
        print(f"semantic-group {group[:16]} premises={count}")
    if not shown:
        print(f"no cached entries under {cache_dir}")
    return 0


def _parse_host_port(spec: str) -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


def cmd_serve(args: argparse.Namespace) -> int:
    if args.socket or args.tcp or args.http:
        return _serve_gateway(args)
    server = _build_server(args)
    try:
        server.serve_pipe(sys.stdin, sys.stdout)
    finally:
        _dump_metrics(server, args.metrics_json)
    return 0


def _serve_gateway(args: argparse.Namespace) -> int:
    """The concurrent multi-tenant gateway (``--socket`` / ``--tcp`` /
    ``--http``)."""
    import asyncio
    import signal

    from repro.service.gateway import GatewayConfig, GatewayServer
    from repro.service.gateway.admission import parse_quota_spec

    default_quota = None
    tenant_quotas = {}
    for spec in args.tenant_quota or []:
        try:
            tenant, quota = parse_quota_spec(spec)
        except ValueError as exc:
            print(f"repro serve: {exc}", file=sys.stderr)
            return 2
        if tenant is None:
            default_quota = quota
        else:
            tenant_quotas[tenant] = quota
    config = GatewayConfig(
        shards=args.shards,
        processes=not args.shard_threads,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        tenant_quotas=tenant_quotas,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        default_timeout_ms=args.timeout_ms,
        semantic_cache=args.semantic_cache != "off",
        audit=args.audit != "off",
    )
    if default_quota is not None:
        config.default_quota = default_quota

    async def _run() -> None:
        gateway = GatewayServer(config)
        stop = asyncio.Event()
        mode = {"drain": False}
        loop = asyncio.get_running_loop()

        def _on_signal(drain: bool) -> None:
            mode["drain"] = drain
            stop.set()

        # SIGINT stops immediately; SIGTERM drains gracefully — in-flight
        # decisions complete (and journal) while new ones get a structured
        # "draining" rejection, then the gateway exits 0.  Installed before
        # the banner so a supervisor reacting to it can't race the default
        # (killing) disposition.
        for sig, drain in ((signal.SIGINT, False), (signal.SIGTERM, True)):
            try:
                loop.add_signal_handler(sig, _on_signal, drain)
            except (NotImplementedError, RuntimeError):
                pass
        await gateway.start()
        endpoints = []
        if args.socket:
            await gateway.start_unix(args.socket)
            endpoints.append(f"unix:{args.socket}")
        if args.tcp:
            host, port = args.tcp
            server = await gateway.start_tcp(host, port)
            port = server.sockets[0].getsockname()[1]
            endpoints.append(f"tcp:{host}:{port}")
        if args.http:
            host, port = args.http
            server = await gateway.start_http(host, port)
            port = server.sockets[0].getsockname()[1]
            endpoints.append(f"http:{host}:{port}")
        print(
            f"repro gateway: {config.shards} shard(s) on "
            + ", ".join(endpoints),
            file=sys.stderr,
        )
        try:
            await stop.wait()
            if mode["drain"]:
                print("repro gateway: draining (SIGTERM)", file=sys.stderr)
                await gateway.drain()
        finally:
            if args.metrics_json:
                Path(args.metrics_json).write_text(
                    json.dumps(gateway.stats(), indent=2, sort_keys=True) + "\n"
                )
            await gateway.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent decision-cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent decision cache",
    )
    parser.add_argument(
        "--metrics-json", default=None, metavar="FILE",
        help="write the final metrics snapshot to FILE on exit",
    )
    parser.add_argument(
        "--timeout-ms", default=None, type=int, metavar="MS", dest="timeout_ms",
        help="default wall-clock cap per decision for requests without "
        "their own options.timeout_ms; cut decisions answer with an "
        "incomplete verdict instead of blocking the batch",
    )
    parser.add_argument(
        "--semantic-cache", default="on", choices=["on", "off"],
        dest="semantic_cache",
        help="answer near-duplicate requests by inference over the "
        "per-session containment lattice instead of a fresh search "
        "(default: on; sound either way — semantic answers are proofs)",
    )
    parser.add_argument(
        "--audit", default="on", choices=["on", "off"],
        help="verdict integrity audit: re-verify every False verdict's "
        "countermodel before serving it and re-decide a sample of complete "
        "verdicts with every cache bypassed (default: on; ~free on the "
        "clean path)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="containment of graph queries modulo schema"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    contain = sub.add_parser("contain", help="decide P ⊆_T Q")
    contain.add_argument("lhs", nargs="?", default=None, help="left query P")
    contain.add_argument("rhs", nargs="?", default=None, help="right query Q")
    contain.add_argument("--schema", help="TBox file", default=None)
    contain.add_argument(
        "--method", default="auto",
        choices=["auto", "baseline", "sparse", "reduction", "direct"],
    )
    contain.add_argument(
        "--timeout-ms", default=None, type=int, metavar="MS", dest="timeout_ms",
        help="wall-clock cap for the decision; on expiry the verdict is "
        "reported as incomplete instead of hanging",
    )
    contain.add_argument(
        "--preset", default=None, choices=["example11"],
        help="run a built-in instance (Example 1.1: q1 vs q2 under the "
        "Figure 1 schema) instead of giving queries",
    )
    contain.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record the decision and write a Chrome trace_event JSON to "
        "FILE (open in chrome://tracing or Perfetto); the verdict is "
        "bit-identical with or without tracing",
    )
    contain.set_defaults(func=cmd_contain)

    explain = sub.add_parser(
        "explain", help="profile one decision: phase times, sizes, cache hits"
    )
    explain.add_argument("lhs", nargs="?", default=None, help="left query P")
    explain.add_argument("rhs", nargs="?", default=None, help="right query Q")
    explain.add_argument("--schema", help="TBox file", default=None)
    explain.add_argument(
        "--method", default="auto",
        choices=["auto", "baseline", "sparse", "reduction", "direct"],
    )
    explain.add_argument(
        "--timeout-ms", default=None, type=int, metavar="MS", dest="timeout_ms",
        help="wall-clock cap for the profiled decision",
    )
    explain.add_argument(
        "--preset", default=None, choices=["example11"],
        help="profile a built-in instance (Example 1.1 under Figure 1)",
    )
    explain.add_argument(
        "--trace", default=None, metavar="FILE",
        help="also write the Chrome trace_event JSON to FILE",
    )
    explain.add_argument(
        "--events", default=None, metavar="FILE",
        help="also write a JSONL span event log to FILE",
    )
    explain.add_argument(
        "--no-memo", action="store_true",
        help="bypass the cross-call decision memo so the real phases show "
        "(a warm memo collapses the run into one cached lookup)",
    )
    explain.set_defaults(func=cmd_explain)

    entail = sub.add_parser("entail", help="decide G, T ⊨fin Q")
    entail.add_argument("graph", help="graph file")
    entail.add_argument("schema", help="TBox file")
    entail.add_argument("query", help="query Q")
    entail.set_defaults(func=cmd_entail)

    evaluate = sub.add_parser("eval", help="evaluate a query over a graph")
    evaluate.add_argument("graph", help="graph file")
    evaluate.add_argument("query", help="query")
    evaluate.set_defaults(func=cmd_eval)

    batch = sub.add_parser(
        "batch", help="run a JSONL request file through the containment service"
    )
    batch.add_argument("requests", help="JSONL request file (service wire format)")
    batch.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write JSONL responses to FILE (default: stdout)",
    )
    _add_service_flags(batch)
    batch.set_defaults(func=cmd_batch)

    serve = sub.add_parser(
        "serve", help="long-running containment service (stdin/stdout pipe, "
        "or the concurrent gateway on a socket, TCP or HTTP)"
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="gateway mode: concurrent JSONL clients on a local Unix socket "
        "at PATH (a stale socket file is reclaimed, any other file refused; "
        "--shards 1 --shard-threads keeps it in one process)",
    )
    serve.add_argument(
        "--tcp", default=None, type=_parse_host_port, metavar="HOST:PORT",
        help="gateway mode: concurrent JSONL clients on HOST:PORT "
        "(port 0 picks a free port)",
    )
    serve.add_argument(
        "--http", default=None, type=_parse_host_port, metavar="HOST:PORT",
        help="gateway mode: HTTP/JSON facade on HOST:PORT "
        "(POST /v1/decide, POST /v1/schemas, GET /v1/stats, GET /v1/healthz, "
        "GET /v1/readyz)",
    )
    serve.add_argument(
        "--shards", default=2, type=int, metavar="N",
        help="gateway worker shards; requests route by schema fingerprint "
        "(default: 2)",
    )
    serve.add_argument(
        "--shard-threads", action="store_true",
        help="run shards as in-process threads instead of forked worker "
        "processes (single-CPU machines; same code path minus fork)",
    )
    serve.add_argument(
        "--tenant-quota", action="append", default=None,
        metavar="[TENANT=]RATE[:BURST[:WEIGHT]]",
        help="admission quota: requests/second RATE with burst BURST and "
        "fair-dequeue WEIGHT; without TENANT= it sets the default quota "
        "(repeatable)",
    )
    serve.add_argument(
        "--max-inflight", default=2048, type=int, metavar="N",
        help="gateway-wide cap on admitted-but-unanswered requests "
        "(default: 2048)",
    )
    serve.add_argument(
        "--max-queue", default=1024, type=int, metavar="N",
        help="per-tenant cap on requests waiting for a shard slot "
        "(default: 1024)",
    )
    _add_service_flags(serve)
    serve.set_defaults(func=cmd_serve)

    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent decision journals"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "entry counts, fingerprints, hit and quarantine counters"),
        ("ls", "list journal entries and semantic premise groups"),
        ("scrub", "one synchronous integrity pass over both journals; "
         "failing lines/records move to quarantine.jsonl"),
        ("clear", "remove both journals (and quarantine.jsonl) from the "
         "cache directory"),
    ):
        cache_cmd = cache_sub.add_parser(name, help=help_text)
        cache_cmd.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
        )
        if name == "ls":
            cache_cmd.add_argument(
                "--limit", default=None, type=int, metavar="N",
                help="show at most N lines",
            )
        cache_cmd.set_defaults(func=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        # parse errors, unreadable files, bad schemas: a diagnostic and a
        # distinct exit code, never a traceback
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
