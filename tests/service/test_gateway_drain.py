"""Gateway drain + health ladder: structured draining rejections, in-flight
completion, readiness probes, degraded dispatch, and quarantine recovery.

Thread-shard mode for speed; the real SIGTERM-against-a-process shape is
in ``test_gateway_sigterm.py`` (marked ``gateway_mp``).
"""

import asyncio
import json

import pytest

from repro.resilience import faults
from repro.resilience.health import DEGRADED, HEALTHY, QUARANTINED, HealthPolicy
from repro.service.gateway import GatewayConfig, GatewayServer


def run(coro):
    return asyncio.run(coro)


async def tcp_gateway(**overrides):
    overrides.setdefault("shards", 1)
    overrides.setdefault("processes", False)
    gateway = GatewayServer(GatewayConfig(**overrides))
    await gateway.start()
    server = await gateway.start_tcp("127.0.0.1", 0)
    return gateway, server.sockets[0].getsockname()[1]


async def send(writer, obj):
    writer.write((json.dumps(obj) + "\n").encode())
    await writer.drain()


async def recv(reader):
    line = await asyncio.wait_for(reader.readline(), timeout=30)
    assert line, "connection closed unexpectedly"
    return json.loads(line)


async def recv_id(reader, want_id):
    """Read until the response for ``want_id`` (verdicts stream unordered)."""
    for _ in range(50):
        response = await recv(reader)
        if response.get("id") == want_id:
            return response
    raise AssertionError(f"no response for {want_id}")


# ------------------------------------------------------------------ #
# drain


def test_drain_rejects_new_decides_and_finishes_inflight():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            with faults.injected_faults("scheduler.dispatch:delay:1:0.4"):
                await send(writer, {"type": "decide", "id": "slow",
                                    "lhs": "A(x)", "rhs": "B(x)"})
                await asyncio.sleep(0.1)  # let it reach the shard
                gateway.begin_drain()
                await send(writer, {"type": "decide", "id": "late",
                                    "lhs": "A(x)", "rhs": "A(x)"})
                late = await recv_id(reader, "late")
                assert late["type"] == "error"
                assert late["code"] == "draining"
                # the in-flight decision still completes with its verdict
                slow = await recv_id(reader, "slow")
                assert slow["type"] == "verdict"
                assert slow["verdict"]["contained"] is False
            ready, payload = gateway.readiness()
            assert ready is False
            assert payload["draining"] is True
            writer.close()
        finally:
            await gateway.stop()

    run(scenario())


def test_drain_coroutine_reports_clean_completion():
    async def scenario():
        gateway, _port = await tcp_gateway()
        assert await gateway.drain(timeout_s=5.0) is True
        assert gateway.stats()["gateway"]["draining"] is True

    run(scenario())


def test_readyz_http_flips_to_503_on_drain():
    async def scenario():
        gateway, _port = await tcp_gateway()
        http = await gateway.start_http("127.0.0.1", 0)
        http_port = http.sockets[0].getsockname()[1]
        try:
            async def get(path):
                reader, writer = await asyncio.open_connection("127.0.0.1", http_port)
                writer.write(f"GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n".encode())
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                head, _sep, body = raw.partition(b"\r\n\r\n")
                return int(head.split()[1]), json.loads(body)

            status, payload = await get("/v1/readyz")
            assert status == 200 and payload["ready"] is True
            status, _payload = await get("/v1/healthz")
            assert status == 200
            gateway.begin_drain()
            status, payload = await get("/v1/readyz")
            assert status == 503 and payload["draining"] is True
            status, _payload = await get("/v1/healthz")  # liveness unaffected
            assert status == 200
        finally:
            await gateway.stop()

    run(scenario())


# ------------------------------------------------------------------ #
# health ladder


def test_shard_faults_climb_the_ladder_and_degrade_dispatch():
    async def scenario():
        gateway, port = await tcp_gateway(
            health_policy=HealthPolicy(degrade_after=1),
        )
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            with faults.injected_faults("gateway.shard.handle:raise:1"):
                await send(writer, {"type": "decide", "id": "f0",
                                    "lhs": "A(x)", "rhs": "B(x)"})
                # shard-fault errors carry no request id
                response = await recv(reader)
                assert "shard fault" in response.get("error", "")
            health = gateway.health[0]
            assert health.state == DEGRADED
            assert health.rung == 1
            assert health.overrides() == {"semantic_cache": False}
            # degraded dispatch still answers, verdict unchanged
            await send(writer, {"type": "decide", "id": "ok",
                                "lhs": "A(x)", "rhs": "B(x)"})
            response = await recv_id(reader, "ok")
            assert response["type"] == "verdict"
            assert response["verdict"]["contained"] is False
            assert gateway.metrics.shard_counter(0, "degraded_dispatch") >= 1
            writer.close()
        finally:
            await gateway.stop()

    run(scenario())


def test_quarantined_shard_recovers_via_half_open_probe():
    async def scenario():
        gateway, port = await tcp_gateway(
            health_policy=HealthPolicy(degrade_after=1, probe_cooloff_s=0.05),
            health_interval_s=0.02,
        )
        try:
            gateway.health[0].quarantine("forced by test")
            assert gateway.health[0].state == QUARANTINED
            for _ in range(200):
                if gateway.health[0].state == HEALTHY:
                    break
                await asyncio.sleep(0.05)
            assert gateway.health[0].state == HEALTHY
            assert gateway.health[0].readmissions == 1
            # the readmitted shard serves traffic again
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await send(writer, {"type": "decide", "id": "after",
                                "lhs": "A(x)", "rhs": "A(x)"})
            response = await recv_id(reader, "after")
            assert response["verdict"]["contained"] is True
            snap = gateway.stats()["gateway"]["health"][0]
            assert snap["readmissions"] == 1
            writer.close()
        finally:
            await gateway.stop()

    run(scenario())


def test_routing_steers_around_a_quarantined_shard():
    async def scenario():
        gateway, port = await tcp_gateway(shards=2)
        try:
            gateway.health[0].quarantine("forced by test")
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for i in range(6):
                await send(writer, {"type": "decide", "id": f"q{i}",
                                    "lhs": f"A{i}(x)", "rhs": f"A{i}(x)"})
            for i in range(6):
                response = await recv_id(reader, f"q{i}")
                assert response["type"] == "verdict"
                assert response["verdict"]["contained"] is True
            # shard 0 took nothing; at least one request was rerouted
            assert gateway.metrics.shard_counter(0, "dispatched") == 0
            assert gateway.metrics.counter("gateway_rerouted") >= 1
            writer.close()
        finally:
            await gateway.stop()

    run(scenario())


def test_no_accepting_shard_answers_structured_unavailable():
    async def scenario():
        gateway, port = await tcp_gateway(shards=1, max_respawns=0)
        try:
            gateway.health[0].quarantine("forced by test")
            gateway.fleet.shards[0].dead = True
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await send(writer, {"type": "decide", "id": "x",
                                "lhs": "A(x)", "rhs": "A(x)"})
            response = await recv(reader)
            assert response["type"] == "error"
            assert "unavailable" in response["error"]
            ready, _payload = gateway.readiness()
            assert ready is False
            writer.close()
        finally:
            await gateway.stop()

    run(scenario())
