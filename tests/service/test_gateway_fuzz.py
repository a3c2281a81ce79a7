"""Async framing fuzz: the accept loop must survive any client behaviour.

The PR 5 fuzz contract ("no request line may kill the serve loop"),
extended to the gateway's concurrent transports: arbitrary TCP
segmentation, torn lines, mid-request disconnects, binary garbage,
oversized lines, and interleaved tenants — after each abuse the gateway
still answers a well-formed client, and torn connections are counted
under ``connections_dropped``.
"""

import asyncio
import json
import random

from repro.service.gateway import GatewayConfig, GatewayServer


def run(coro):
    return asyncio.run(coro)


async def tcp_gateway(**overrides):
    overrides.setdefault("shards", 2)
    overrides.setdefault("processes", False)
    gateway = GatewayServer(GatewayConfig(**overrides))
    await gateway.start()
    server = await gateway.start_tcp("127.0.0.1", 0)
    return gateway, server.sockets[0].getsockname()[1]


async def healthy_roundtrip(port, rid="健康"):
    """A clean client still gets a verdict — the liveness probe."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write((json.dumps({
        "type": "decide", "id": rid, "lhs": "A(x)", "rhs": "A(x)",
    }) + "\n").encode())
    await writer.drain()
    response = json.loads(await asyncio.wait_for(reader.readline(), timeout=30))
    writer.close()
    assert response["type"] == "verdict", response
    assert response["id"] == rid


def test_single_byte_segmentation():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            line = json.dumps({
                "type": "decide", "id": "slow", "lhs": "A(x)", "rhs": "B(x)",
            }) + "\n"
            for byte in line.encode():
                writer.write(bytes([byte]))
                await writer.drain()
            response = json.loads(await asyncio.wait_for(
                reader.readline(), timeout=30))
            assert response["id"] == "slow"
            assert response["type"] == "verdict"
            writer.close()
        finally:
            await gateway.stop()

    run(scenario())


def test_mid_request_disconnect_counts_dropped():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"type": "decide", "id": "torn", "lhs": "A(')
            await writer.drain()
            writer.close()  # no newline ever arrives
            for _ in range(200):
                if gateway.metrics.counter("connections_dropped"):
                    break
                await asyncio.sleep(0.01)
            assert gateway.metrics.counter("connections_dropped") == 1
            await healthy_roundtrip(port)
        finally:
            await gateway.stop()

    run(scenario())


def test_oversized_line_drops_only_that_connection():
    async def scenario():
        gateway, port = await tcp_gateway(max_line_bytes=4096)
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"type": "decide", "lhs": "' + b"A" * 65536)
            await writer.drain()
            # the gateway hangs up on the overflowing client
            assert await asyncio.wait_for(reader.read(), timeout=30) == b""
            writer.close()
            assert gateway.metrics.counter("gateway_line_overflow") == 1
            assert gateway.metrics.counter("connections_dropped") == 1
            await healthy_roundtrip(port)
        finally:
            await gateway.stop()

    run(scenario())


def test_garbage_lines_answer_errors_not_disconnects():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for payload in [
                b"\xff\xfe\x00garbage\n",
                b"not json at all\n",
                b"[1, 2, 3]\n",
                b'{"type": "warp"}\n',
            ]:
                writer.write(payload)
                await writer.drain()
                response = json.loads(await asyncio.wait_for(
                    reader.readline(), timeout=30))
                assert response["type"] == "error"
            # still alive on the same connection
            writer.write(b'{"type": "ping", "id": "p"}\n')
            await writer.drain()
            pong = json.loads(await asyncio.wait_for(
                reader.readline(), timeout=30))
            assert pong["type"] == "pong"
            writer.close()
        finally:
            await gateway.stop()

    run(scenario())


def test_random_segmentation_with_interleaved_tenants():
    async def scenario():
        gateway, port = await tcp_gateway()
        rng = random.Random(23)
        try:
            async def one_tenant(tenant, count):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                payload = b"".join(
                    (json.dumps({
                        "type": "decide", "id": f"{tenant}-{i}",
                        "tenant": tenant, "lhs": "A(x)", "rhs": "B(x)",
                        "schema": {"cis": [["A", "B"]]},
                    }) + "\n").encode()
                    for i in range(count)
                )
                # write in random-size chunks with yields between them, so
                # tenants' segments interleave on the loop
                offset = 0
                while offset < len(payload):
                    size = rng.randint(1, 80)
                    writer.write(payload[offset:offset + size])
                    await writer.drain()
                    offset += size
                    await asyncio.sleep(0)
                ids = set()
                for _ in range(count):
                    response = json.loads(await asyncio.wait_for(
                        reader.readline(), timeout=30))
                    assert response["type"] == "verdict", response
                    ids.add(response["id"])
                writer.close()
                return ids

            results = await asyncio.gather(
                one_tenant("red", 7), one_tenant("blue", 7), one_tenant("green", 7)
            )
            for tenant, ids in zip(("red", "blue", "green"), results):
                assert ids == {f"{tenant}-{i}" for i in range(7)}
        finally:
            await gateway.stop()

    run(scenario())


def test_abrupt_resets_never_kill_the_accept_loop():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            for i in range(10):
                _reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(f'{{"type": "decide", "id": "r{i}", "lhs"'.encode())
                await writer.drain()
                # hard close with data in flight (RST on most stacks)
                sock = writer.get_extra_info("socket")
                try:
                    sock.setsockopt(
                        __import__("socket").SOL_SOCKET,
                        __import__("socket").SO_LINGER,
                        __import__("struct").pack("ii", 1, 0),
                    )
                except OSError:
                    pass
                writer.close()
            await asyncio.sleep(0.05)
            await healthy_roundtrip(port)
            assert gateway.metrics.counter("connections_dropped") >= 1
        finally:
            await gateway.stop()

    run(scenario())


def test_disconnect_with_inflight_decides_releases_admission():
    async def scenario():
        gateway, port = await tcp_gateway()
        try:
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for i in range(8):
                writer.write((json.dumps({
                    "type": "decide", "id": f"d{i}", "lhs": "A(x)", "rhs": "B(x)",
                    "schema": {"cis": [["A", "B"]]},
                }) + "\n").encode())
            await writer.drain()
            writer.close()  # vanish while decisions are in flight
            for _ in range(500):
                if gateway.admission.inflight == 0:
                    break
                await asyncio.sleep(0.01)
            # every admitted decision was released despite the dead client
            assert gateway.admission.inflight == 0
            await healthy_roundtrip(port)
        finally:
            await gateway.stop()

    run(scenario())
