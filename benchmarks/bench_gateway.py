"""E23 — concurrent multi-tenant gateway under load skew.

The gateway multiplexes many concurrent clients over schema-sharded
worker processes with admission control and deficit-round-robin fair
dequeue.  This benchmark drives one gateway with four always-admitted
tenants — one offering **10× the load** of each of the others — plus a
fifth, hard-throttled tenant whose requests mostly bounce off the token
bucket, and checks the three properties the design claims:

* **correctness is untouched by concurrency** — every verdict the gateway
  answers is bit-identical to the sequential ``ContainmentServer`` replay
  of the same request set (rejected requests answer structured
  ``overloaded`` errors and never reach a shard);
* **admission outcomes get separate percentiles** — a rejection answered
  in microseconds must not pollute the admitted-path latency numbers, so
  ``latency_ms_by_outcome`` reports p50/p90/p95/p99 per outcome from the
  shared :mod:`repro.service.metrics` sink;
* **nobody starves under skew** — with equal DRR weights, each light
  tenant's *last* dequeue position precedes the heavy tenant's on every
  shard both touch: the light tenants are fully served while the heavy
  tenant's backlog is still draining.  The fair-queue ``dequeued`` /
  ``last_position`` counters recorded per shard are the proof.

Full mode launches 1300 decisions as simultaneously-admitted asyncio
tasks (the ``gateway.inflight`` high-water must reach ≥ 1000) over ≥ 2
shards; ``--quick`` is the CI smoke: one-tenth the load, same
assertions minus the 1k in-flight floor.  ``--threads`` runs the shards
as in-process threads for single-CPU machines; verdicts are identical
either way.

Run standalone::

    python benchmarks/bench_gateway.py [--quick] [--threads]
"""

import argparse
import asyncio
import json
import sys

from conftest import print_table

from repro.service.gateway import GatewayConfig, GatewayServer, TenantQuota
from repro.service.protocol import DecideModel, SchemaModel
from repro.service.server import ContainmentServer

HEAVY = "heavy"
LIGHT_TENANTS = ("light-a", "light-b", "light-c")
THROTTLED = "throttled"

QUERY_CASES = [
    ("A(x)", "B(x)"),
    ("B(x)", "A(x)"),
    ("A(x), r(x,y)", "B(x)"),
    ("A(x)", "A(x)"),
]


def pick_schemas(shard_count):
    """Deterministic schema pool covering every shard at least once."""
    from repro.service.gateway.shards import shard_for

    chosen, covered = [], set()
    for i in range(64):
        tbox = {"cis": [["A", "B"], [f"S{i}", "A"]]}
        key = GatewayServer._schema_key(tbox)
        shard = shard_for(key, shard_count)
        if shard not in covered or len(chosen) < 4:
            chosen.append((f"schema-{i}", tbox))
            covered.add(shard)
        if len(covered) == shard_count and len(chosen) >= 4:
            break
    assert len(covered) == shard_count, "schema pool failed to cover shards"
    return chosen


def build_requests(schemas, heavy_n, light_n, throttled_n):
    """The offered load: one request = (id, tenant, lhs, rhs, schema_ref)."""
    requests = []

    def add(tenant, count):
        for i in range(count):
            ref = schemas[i % len(schemas)][0]
            lhs, rhs = QUERY_CASES[i % len(QUERY_CASES)]
            requests.append((f"{tenant}-{i}", tenant, lhs, rhs, ref))

    add(HEAVY, heavy_n)
    for tenant in LIGHT_TENANTS:
        add(tenant, light_n)
    add(THROTTLED, throttled_n)
    return requests


async def drive_gateway(config, schemas, requests):
    gateway = GatewayServer(config)
    await gateway.start()
    try:
        for ref, tbox in schemas:
            responses = await gateway.register_schema(
                SchemaModel(id=f"reg-{ref}", ref=ref, tbox=tbox)
            )
            assert all(r.get("type") == "ack" for r in responses), responses

        async def one(rid, tenant, lhs, rhs, ref):
            model = DecideModel(
                id=rid, lhs=lhs, rhs=rhs, tenant=tenant, schema_ref=ref
            )
            outcome, responses = await gateway.decide(model)
            return rid, outcome, responses[0]

        # create every task before awaiting any: each admits on first run,
        # so the whole offered load is in flight before the shards drain it
        tasks = [asyncio.ensure_future(one(*request)) for request in requests]
        results = await asyncio.gather(*tasks)
        return {
            "results": results,
            "snapshot": gateway.metrics.snapshot(),
            "fair": gateway.fair_dequeue_stats(),
            "peak_inflight": gateway.metrics.gauge_high_water("gateway.inflight"),
        }
    finally:
        await gateway.stop()


def sequential_replay(schemas, requests):
    """The same decisions through the sequential reference server."""
    server = ContainmentServer(use_cache=False)
    stream = server.new_stream()
    for ref, tbox in schemas:
        server.handle_line(json.dumps(
            {"type": "schema", "id": f"reg-{ref}", "ref": ref, "tbox": tbox}
        ), stream)
    for rid, _tenant, lhs, rhs, ref in requests:
        server.handle_line(json.dumps({
            "type": "decide", "id": rid, "lhs": lhs, "rhs": rhs,
            "schema_ref": ref,
        }), stream)
    responses, _stop = server.handle_line(json.dumps({"type": "flush"}), stream)
    return {r["id"]: r["verdict"] for r in responses if r["type"] == "verdict"}


def check_bit_identity(results, reference):
    compared = 0
    for rid, _outcome, response in results:
        if response.get("type") != "verdict":
            continue
        assert response["verdict"] == reference[rid], (
            f"verdict for {rid} diverged from the sequential server"
        )
        compared += 1
    assert compared, "no verdicts to compare"
    return compared


def check_fairness(fair_stats, offered):
    """No tenant starves: on every shard the heavy tenant shares with a
    light tenant, the light tenant is fully served first."""
    checks = 0
    for shard_id, stats in fair_stats.items():
        last = stats["last_position"]
        if HEAVY not in last:
            continue
        for tenant in LIGHT_TENANTS:
            if tenant not in last:
                continue
            assert last[tenant] < last[HEAVY], (
                f"shard {shard_id}: {tenant} finished at position "
                f"{last[tenant]}, after {HEAVY} at {last[HEAVY]}"
            )
            checks += 1
    assert checks, "skewed tenants never shared a shard; fairness unproven"
    return checks


def run_benchmark(quick=False, threads=False):
    shard_count = 2
    heavy_n, light_n, throttled_n = (100, 10, 10) if quick else (1000, 100, 100)
    schemas = pick_schemas(shard_count)
    requests = build_requests(schemas, heavy_n, light_n, throttled_n)

    config = GatewayConfig(
        shards=shard_count,
        processes=not threads,
        max_inflight=4096,
        max_queue=2048,
        tenant_quotas={
            # ~burst admitted, the rest bounced: populates the rejected
            # percentile block without touching the fairness tenants
            THROTTLED: TenantQuota(rate=0.001, burst=max(2, throttled_n // 4)),
        },
    )

    outcome = asyncio.run(drive_gateway(config, schemas, requests))
    reference = sequential_replay(schemas, requests)

    compared = check_bit_identity(outcome["results"], reference)
    fairness_checks = check_fairness(outcome["fair"], requests)

    snapshot = outcome["snapshot"]
    by_outcome = snapshot["latency_ms_by_outcome"]
    rejected = sum(
        1 for _rid, decision, _r in outcome["results"] if decision == "rejected"
    )

    # distinct text before the em-dash per table: print_table slugs on it,
    # so a shared "E23" prefix would collapse all three into one file
    print_table(
        "E23 latency — gateway latency by admission outcome",
        ["outcome", "count", "p50 ms", "p90 ms", "p95 ms", "p99 ms", "max ms"],
        [
            [name, block["count"], block["p50"], block["p90"], block["p95"],
             block["p99"], block["max"]]
            for name, block in sorted(by_outcome.items())
        ],
        persist=not quick,
    )

    fairness_rows = []
    for shard_id, stats in sorted(outcome["fair"].items()):
        for tenant in sorted(stats["dequeued"]):
            fairness_rows.append([
                shard_id, tenant, stats["dequeued"][tenant],
                stats["last_position"][tenant], stats["dequeues"],
            ])
    print_table(
        "E23 fairness — fair dequeue under 10:1 skew",
        ["shard", "tenant", "dequeued", "last position", "shard dequeues"],
        fairness_rows,
        persist=not quick,
    )

    shard_rows = [
        [shard, counters.get("dispatched", 0), counters.get("completed", 0),
         counters.get("respawns", 0)]
        for shard, counters in sorted(snapshot.get("shards", {}).items())
    ]
    print_table(
        "E23 shards — shard fleet",
        ["shard", "dispatched", "completed", "respawns"],
        shard_rows,
        persist=not quick,
    )

    total = len(requests)
    admitted = by_outcome["admitted"]["count"]
    print(
        f"\n{total} offered ({heavy_n} heavy / 3×{light_n} light / "
        f"{throttled_n} throttled), {admitted} admitted, {rejected} rejected; "
        f"peak in-flight {int(outcome['peak_inflight'])}; "
        f"{compared} verdicts bit-identical to the sequential server; "
        f"{fairness_checks} fairness orderings checked"
    )

    # acceptance gates
    assert len([r for r in shard_rows if r[1] > 0]) == shard_count, (
        "load never reached every shard"
    )
    assert rejected > 0 and by_outcome["rejected"]["count"] == rejected
    assert admitted + rejected == total
    if not quick:
        assert outcome["peak_inflight"] >= 1000, (
            f"peak in-flight {outcome['peak_inflight']} < 1000"
        )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: one-tenth the load, same assertions minus the "
        "1k in-flight floor",
    )
    parser.add_argument(
        "--threads", action="store_true",
        help="thread-mode shards (single-CPU machines; verdicts identical)",
    )
    args = parser.parse_args(argv)
    return run_benchmark(quick=args.quick, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
