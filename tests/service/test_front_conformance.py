"""One request line, three fronts, one answer.

Each row is sent through the pipe server's request loop
(``ContainmentServer.handle_line``), the gateway's JSONL listener with
thread-mode shards, and the HTTP facade (``POST /v1/decide``, or
``/v1/schemas`` for schema rows).  Every front accepts or rejects the line
alike, with the same error object: its text, and the line's ``id`` when it
had one.  A request without an ``id`` is ``req-N``, N counting the
requests of its connection — every row is the first on a fresh one.
"""

import asyncio
import json

import pytest

from repro.service.gateway import GatewayConfig, GatewayServer
from repro.service.server import ContainmentServer


def _line(**payload):
    return json.dumps(payload)


def _error(message, request_id=None):
    response = {"type": "error", "error": message}
    if request_id is not None:
        response["id"] = request_id
    return response


LONG_LHS = "A(x)" + ", B(x)" * 3999  # 23,998 characters

ROWS = [
    # field types and caps: a null tenant, booleans are not integers, and
    # the length, range and timeout caps
    pytest.param(
        "decide", _line(lhs="A(x)", rhs="B(x)", tenant=None),
        {"type": "verdict", "id": "req-1"}, id="null-tenant-is-default",
    ),
    pytest.param(
        "decide", _line(id="p", lhs="A(x)", rhs="B(x)", priority=True),
        _error("field 'priority' must be an integer", "p"), id="bool-priority",
    ),
    pytest.param(
        "decide", _line(id="p", lhs="A(x)", rhs="B(x)", priority=10**9),
        _error("field 'priority' must be within ±65536", "p"), id="huge-priority",
    ),
    pytest.param(
        "decide", _line(id="q", lhs=LONG_LHS, rhs="B(x)"),
        _error("field 'lhs' exceeds 16384 characters (23998)", "q"), id="long-query",
    ),
    pytest.param(
        "decide", _line(id="r", lhs="A(x)", rhs="B(x)", schema_ref=5),
        _error("field 'schema_ref' must be a string", "r"), id="int-schema-ref",
    ),
    pytest.param(
        "decide", _line(id="t", lhs="A(x)", rhs="B(x)", options={"timeout_ms": 10**12}),
        _error("option 'timeout_ms' exceeds the 86400000 ms cap", "t"), id="huge-timeout",
    ),
    pytest.param(
        "schema", _line(type="schema", id="s", ref="s" * 300, tbox={"cis": []}),
        _error("field 'ref' exceeds 256 characters (300)", "s"), id="long-schema-ref",
    ),
    # malformed lines, unknown names, a control request, a registration
    pytest.param(
        "decide", "not json",
        _error("bad JSON: Expecting value: line 1 column 1 (char 0)"), id="bad-json",
    ),
    pytest.param(
        "decide", "[" * 100000,
        _error("bad JSON: maximum recursion depth exceeded while decoding a "
               "JSON array from a unicode string"),
        id="nested-too-deep",
    ),
    pytest.param(
        "decide", "[1, 2]", _error("request must be a JSON object"), id="non-object",
    ),
    pytest.param(
        "decide", _line(type="explode", id="u"),
        _error("unknown request type 'explode'", "u"), id="unknown-type",
    ),
    pytest.param(
        "decide", _line(id="o", lhs="A(x)", rhs="B(x)", options={"warp_speed": 9}),
        _error("unknown options: warp_speed", "o"), id="unknown-option",
    ),
    pytest.param(
        "decide", _line(id="n", lhs="A(x)", rhs="B(x)", options={"max_nodes": -1}),
        _error("option 'max_nodes' must be a non-negative integer", "n"),
        id="negative-budget",
    ),
    pytest.param(
        "decide", _line(type="ping", id="g", tenant="no spaces"),
        _error("field 'tenant' must be 1-64 characters of [A-Za-z0-9._-]", "g"),
        id="ping-bad-tenant",
    ),
    pytest.param(
        "schema", _line(type="schema", id="k", ref="s1", tbox={"cis": [["A", "B"]]}),
        {"type": "ack", "id": "k", "ref": "s1"}, id="schema-ack",
    ),
]


def _comparable(response):
    """A response without what legitimately differs between fronts: which
    cache layer answered and how long it took."""
    return {
        key: value for key, value in response.items()
        if key not in ("source", "elapsed_ms")
    }


def via_pipe(line):
    server = ContainmentServer(use_cache=False)
    stream = server.new_stream()
    responses, _stop = server.handle_line(line, stream)
    responses += server.scheduler.drain()
    (response,) = responses
    return response


async def via_jsonl(port, line):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(line.encode() + b"\n")
    await writer.drain()
    response = json.loads(await asyncio.wait_for(reader.readline(), 30))
    writer.close()
    await writer.wait_closed()
    return response


async def via_http(port, route, line):
    path = "/v1/decide" if route == "decide" else "/v1/schemas"
    body = line.encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"POST {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    status = int((await asyncio.wait_for(reader.readline(), 30)).split()[1])
    length = 0
    while (header := (await reader.readline()).strip()):
        name, _, value = header.decode().partition(":")
        if name.lower() == "content-length":
            length = int(value)
    response = json.loads(await reader.readexactly(length))
    writer.close()
    await writer.wait_closed()
    return status, response


def via_gateway(route, line):
    async def scenario():
        gateway = GatewayServer(GatewayConfig(shards=1, processes=False))
        await gateway.start()
        try:
            tcp = await gateway.start_tcp("127.0.0.1", 0)
            http = await gateway.start_http("127.0.0.1", 0)
            jsonl = await via_jsonl(tcp.sockets[0].getsockname()[1], line)
            status, body = await via_http(http.sockets[0].getsockname()[1], route, line)
            return jsonl, status, body
        finally:
            await gateway.stop()

    return asyncio.run(scenario())


@pytest.mark.parametrize("route,line,expected", ROWS)
def test_every_front_answers_a_line_alike(route, line, expected):
    pipe = via_pipe(line)
    jsonl, status, http = via_gateway(route, line)
    assert _comparable(pipe) == _comparable(jsonl) == _comparable(http)
    if expected["type"] == "error":
        assert pipe == jsonl == http == expected
        assert status == 400
    else:
        assert status == 200
        for key, value in expected.items():
            assert pipe[key] == value
