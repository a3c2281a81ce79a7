"""The asyncio gateway in thread-shard mode: transports, semantics, stats.

Thread mode (``processes=False``) runs the exact gateway code path minus
fork, so these tests are fast and single-CPU safe; the multi-process shape
(spawn, crash, respawn) is covered by ``test_gateway_mp.py``.
"""

import asyncio
import json
import logging

import pytest

from repro.service.gateway import GatewayConfig, GatewayServer, TenantQuota
from repro.service.gateway.gateway import _Connection
from repro.service.protocol import REQUEST_TYPES
from repro.service.server import ContainmentServer


def run(coro):
    return asyncio.run(coro)


def make_gateway(**overrides):
    overrides.setdefault("shards", 2)
    overrides.setdefault("processes", False)
    return GatewayServer(GatewayConfig(**overrides))


class Client:
    """One JSONL connection to a gateway listener."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def tcp(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    @classmethod
    async def unix(cls, path):
        reader, writer = await asyncio.open_unix_connection(str(path))
        return cls(reader, writer)

    async def send(self, obj):
        self.writer.write((json.dumps(obj) + "\n").encode())
        await self.writer.drain()

    async def recv(self):
        line = await asyncio.wait_for(self.reader.readline(), timeout=30)
        assert line, "connection closed unexpectedly"
        return json.loads(line)

    async def ask(self, obj):
        await self.send(obj)
        return await self.recv()

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def tcp_gateway(**overrides):
    gateway = make_gateway(**overrides)
    await gateway.start()
    server = await gateway.start_tcp("127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    return gateway, port


SCHEMA = {"cis": [["A", "B"]]}


def test_decide_over_tcp_matches_sequential_server():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            client = await Client.tcp(port)
            ack = await client.ask({"type": "schema", "ref": "s", "tbox": SCHEMA})
            assert ack["type"] == "ack"
            got = {}
            for rid, lhs, rhs in [
                ("sub", "A(x)", "B(x)"),
                ("not-sub", "B(x)", "A(x)"),
                ("self", "A(x)", "A(x)"),
            ]:
                response = await client.ask({
                    "type": "decide", "id": rid, "lhs": lhs, "rhs": rhs,
                    "schema_ref": "s",
                })
                assert response["type"] == "verdict"
                got[rid] = response["verdict"]
            await client.close()
            return got
        finally:
            await gateway.stop()

    gateway_verdicts = run(scenario())

    reference = ContainmentServer(use_cache=False)
    stream = reference.new_stream()
    reference.handle_line(json.dumps(
        {"type": "schema", "ref": "s", "tbox": SCHEMA}), stream)
    for rid, lhs, rhs in [
        ("sub", "A(x)", "B(x)"),
        ("not-sub", "B(x)", "A(x)"),
        ("self", "A(x)", "A(x)"),
    ]:
        reference.handle_line(json.dumps({
            "type": "decide", "id": rid, "lhs": lhs, "rhs": rhs,
            "schema_ref": "s",
        }), stream)
    responses, _stop = reference.handle_line(
        json.dumps({"type": "flush", "id": "f"}), stream)
    for response in responses:
        if response["type"] != "verdict":
            continue
        # the bit-identity contract: same verdict payload either path
        assert gateway_verdicts[response["id"]] == response["verdict"]
    verdict_ids = {r["id"] for r in responses if r["type"] == "verdict"}
    assert verdict_ids == set(gateway_verdicts)


def test_unix_listener_speaks_the_same_protocol(tmp_path):
    async def scenario():
        gateway = make_gateway()
        await gateway.start()
        path = tmp_path / "gw.sock"
        await gateway.start_unix(path)
        try:
            client = await Client.unix(path)
            pong = await client.ask({"type": "ping", "id": "p"})
            assert pong == {"type": "pong", "id": "p"}
            verdict = await client.ask({
                "type": "decide", "id": "d", "lhs": "A(x)", "rhs": "A(x)",
            })
            assert verdict["verdict"]["contained"] is True
            await client.close()
        finally:
            await gateway.stop()

    run(scenario())


def test_default_ids_are_per_connection():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            first = await Client.tcp(port)
            second = await Client.tcp(port)
            r1 = await first.ask({"type": "decide", "lhs": "A(x)", "rhs": "A(x)"})
            r2 = await second.ask({"type": "decide", "lhs": "A(x)", "rhs": "A(x)"})
            # both connections count from 1 — no shared sequence
            assert r1["id"] == "req-1"
            assert r2["id"] == "req-1"
            await first.close()
            await second.close()
        finally:
            await gateway.stop()

    run(scenario())


def test_shutdown_closes_one_connection_not_the_gateway():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            doomed = await Client.tcp(port)
            survivor = await Client.tcp(port)
            bye = await doomed.ask({"type": "shutdown", "id": "end"})
            assert bye == {"type": "bye", "id": "end"}
            assert await doomed.reader.read() == b""  # connection closed
            # the other tenant's connection is unaffected
            pong = await survivor.ask({"type": "ping", "id": "still-here"})
            assert pong["type"] == "pong"
            await survivor.close()
        finally:
            await gateway.stop()

    run(scenario())


def test_flush_acks_after_outstanding_decides():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            client = await Client.tcp(port)
            for i in range(5):
                await client.send({
                    "type": "decide", "id": f"d{i}",
                    "lhs": "A(x)", "rhs": "B(x)", "schema": SCHEMA,
                })
            await client.send({"type": "flush", "id": "f"})
            responses = [await client.recv() for _ in range(6)]
            # the ack comes last: all decisions were answered first
            assert responses[-1] == {"type": "ack", "id": "f"}
            assert {r["id"] for r in responses[:-1]} == {f"d{i}" for i in range(5)}
            await client.close()
        finally:
            await gateway.stop()

    run(scenario())


def test_tenant_quota_rejection_is_structured():
    async def scenario():
        gateway, port = await tcp_gateway(
            tenant_quotas={"throttled": TenantQuota(rate=0.001, burst=1)},
        )
        try:
            client = await Client.tcp(port)
            ok = await client.ask({
                "type": "decide", "id": "first", "tenant": "throttled",
                "lhs": "A(x)", "rhs": "A(x)",
            })
            assert ok["type"] == "verdict"
            rejected = await client.ask({
                "type": "decide", "id": "second", "tenant": "throttled",
                "lhs": "A(x)", "rhs": "A(x)",
            })
            assert rejected["type"] == "error"
            assert rejected["code"] == "overloaded"
            assert rejected["reason"] == "tenant_quota"
            assert rejected["retry_after_ms"] > 0
            await client.close()
            return gateway.stats()
        finally:
            await gateway.stop()

    stats = run(scenario())
    assert stats["counters"]["gateway_rejected_tenant_quota"] == 1
    assert stats["tenants"]["throttled"]["rejected_tenant_quota"] == 1


def test_invalid_decide_answers_error_and_keeps_connection():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            client = await Client.tcp(port)
            error = await client.ask({
                "type": "decide", "id": "bad", "lhs": "A(x)", "rhs": "",
            })
            assert error["type"] == "error"
            assert error["id"] == "bad"
            # connection still serves after the validation error
            pong = await client.ask({"type": "ping", "id": "p"})
            assert pong["type"] == "pong"
            await client.close()
        finally:
            await gateway.stop()

    run(scenario())


def test_unknown_option_error_keeps_the_request_id():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            client = await Client.tcp(port)
            error = await client.ask({
                "id": "x", "lhs": "A(x)", "rhs": "B(x)", "options": {"workers": 2},
            })
            assert error == {
                "type": "error", "id": "x", "error": "unknown options: workers",
            }
            await client.close()
        finally:
            await gateway.stop()

    run(scenario())


def test_backend_option_is_unknown_and_keeps_the_request_id():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            client = await Client.tcp(port)
            error = await client.ask({
                "id": "b", "lhs": "A(x)", "rhs": "B(x)", "options": {"backend": "bitset"},
            })
            assert error == {
                "type": "error", "id": "b", "error": "unknown options: backend",
            }
            await client.close()
        finally:
            await gateway.stop()

    run(scenario())


class _CapturingWriter:
    """Stands in for a client connection's stream writer."""

    def __init__(self):
        self.data = bytearray()

    def write(self, payload):
        self.data += payload

    async def drain(self):
        pass

    def close(self):
        pass


def test_junk_request_types_add_no_counters():
    """Regression: the JSONL front counted ``requests_<type>`` before it
    checked the type, so every distinct client-chosen type added a counter
    (1,000 junk types made 1,000 of them).  Only known types count; the
    rest are errors that keep their ``id``."""

    async def scenario():
        gateway = make_gateway()
        writer = _CapturingWriter()
        conn = _Connection(writer)
        for n in range(1000):
            line = json.dumps({"type": f"junk-{n}", "id": f"j{n}"})
            await gateway._handle_wire_line(line.encode() + b"\n", conn)
        await gateway._handle_wire_line(b'{"type": "ping", "id": "p"}\n', conn)
        return gateway, writer

    gateway, writer = run(scenario())
    responses = [json.loads(line) for line in writer.data.decode().splitlines()]
    assert responses[:-1] == [
        {"type": "error", "id": f"j{n}", "error": f"unknown request type 'junk-{n}'"}
        for n in range(1000)
    ]
    assert responses[-1] == {"type": "pong", "id": "p"}
    counters = gateway.metrics.snapshot()["counters"]
    request_counters = {name for name in counters if name.startswith("requests_")}
    assert request_counters == {"requests_ping"}
    assert request_counters <= {f"requests_{rtype}" for rtype in REQUEST_TYPES}
    assert counters["errors"] == 1000
    assert counters["requests"] == 1001


def test_unknown_schema_ref_is_a_structured_error():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            client = await Client.tcp(port)
            error = await client.ask({
                "type": "decide", "id": "x", "lhs": "A(x)", "rhs": "B(x)",
                "schema_ref": "never-registered",
            })
            assert error["type"] == "error"
            assert "schema_ref" in error["error"]
            await client.close()
        finally:
            await gateway.stop()

    run(scenario())


def test_schema_routes_to_stable_shard():
    async def scenario():
        gateway, port = await tcp_gateway(shards=4)
        try:
            client = await Client.tcp(port)
            await client.ask({"type": "schema", "ref": "s", "tbox": SCHEMA})
            for i in range(6):
                await client.ask({
                    "type": "decide", "id": f"d{i}",
                    "lhs": "A(x)", "rhs": "B(x)", "schema_ref": "s",
                })
            await client.close()
            shards = {
                shard: counters for shard, counters in
                gateway.stats()["shards"].items()
                if counters.get("dispatched")
            }
            return shards
        finally:
            await gateway.stop()

    shards = run(scenario())
    # same schema fingerprint → same shard, every time
    assert len(shards) == 1
    assert next(iter(shards.values()))["dispatched"] == 6


def test_stats_exposes_gateway_block():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            client = await Client.tcp(port)
            await client.ask({"type": "decide", "lhs": "A(x)", "rhs": "A(x)"})
            stats = (await client.ask({"type": "stats", "id": "s"}))["stats"]
            await client.close()
            return stats
        finally:
            await gateway.stop()

    stats = run(scenario())
    assert stats["gateway"]["shards"] == 2
    assert stats["gateway"]["inflight"] == 0
    assert stats["latency_ms_by_outcome"]["admitted"]["count"] == 1
    assert "p95" in stats["latency_ms_by_outcome"]["admitted"]


def test_concurrent_clients_multiplex():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            async def one_client(n):
                client = await Client.tcp(port)
                response = await client.ask({
                    "type": "decide", "id": f"c{n}", "tenant": f"tenant{n % 3}",
                    "lhs": "A(x)", "rhs": "B(x)", "schema": SCHEMA,
                })
                await client.close()
                return response

            responses = await asyncio.gather(*(one_client(n) for n in range(12)))
            assert all(r["type"] == "verdict" for r in responses)
            assert {r["id"] for r in responses} == {f"c{n}" for n in range(12)}
        finally:
            await gateway.stop()

    run(scenario())


def test_stop_logs_no_asyncio_error(caplog):
    """Stopping with one client parked on an open connection and another
    that has just hung up ends both handlers without leaving either
    cancelled: asyncio logs no error from the stream protocol's
    done-callback."""
    caplog.set_level(logging.ERROR, logger="asyncio")

    async def scenario():
        gateway, port = await tcp_gateway()
        parked = await Client.tcp(port)
        leaving = await Client.tcp(port)
        for client in (parked, leaving):
            assert (await client.ask({"type": "ping", "id": "p"}))["type"] == "pong"
        await leaving.close()
        await asyncio.wait_for(gateway.stop(), timeout=20)
        assert await parked.reader.read() == b""
        await parked.close()

    run(scenario())
    errors = [r for r in caplog.records if r.name == "asyncio" and r.levelno >= logging.ERROR]
    assert errors == []


def test_stop_resolves_parked_connections():
    async def scenario():
        gateway, port = await tcp_gateway()
        client = await Client.tcp(port)
        pong = await client.ask({"type": "ping", "id": "p"})
        assert pong["type"] == "pong"
        # client sits parked in the gateway's readline; stop() must not hang
        await asyncio.wait_for(gateway.stop(), timeout=20)
        assert await client.reader.read() == b""

    run(scenario())
