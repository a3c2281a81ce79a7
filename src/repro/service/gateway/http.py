"""A minimal HTTP/1.1 JSON facade over the gateway.

No web framework — the container ships none we may add — so this module
implements just enough HTTP/1.1 on asyncio streams for curl-able,
keep-alive JSON endpoints, all funnelling into the same request model
(:func:`repro.service.protocol.parse_request`) + admission + shard
dispatch path as the JSONL transport:

=======  =====================  ===========================================
method   path                   action
=======  =====================  ===========================================
POST     ``/v1/decide``         one containment decision (body = a decide
                                request line; tenant also accepted via
                                ``X-Repro-Tenant``)
POST     ``/v1/schemas``        register a schema for ``schema_ref`` reuse
GET      ``/v1/stats``          gateway metrics snapshot
                                (``?deep=1`` adds per-shard snapshots)
GET      ``/v1/healthz``        liveness probe (true while the process runs,
                                even mid-drain)
GET      ``/v1/readyz``         readiness probe — 200 only when started,
                                not draining, and ≥1 shard accepts traffic;
                                503 otherwise (what load balancers gate on)
=======  =====================  ===========================================

Status mapping: validation failures → 400 with the error object the JSONL
front writes for the same line (its ``id`` kept; requests without one are
numbered ``req-N`` per connection), admission rejections → 429 with a
``Retry-After`` header (seconds, rounded up), shard loss → 503, unknown
paths → 404.  Responses are ``application/json`` with explicit
``Content-Length``; ``Connection: close`` (or HTTP/1.0) ends the
keep-alive loop.

Body size is capped (16 MB) and header count bounded — a hostile client
disconnecting mid-body or overrunning limits is dropped and counted under
``connections_dropped``, identical to the JSONL framing contract.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import TYPE_CHECKING, Optional

from repro.service.protocol import (
    DEFAULT_TENANT,
    ProtocolError,
    error_response,
    parse_request,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.gateway.gateway import GatewayServer

MAX_BODY_BYTES = 16 * 1024 * 1024
MAX_HEADERS = 100

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _encode(
    status: int,
    payload: dict,
    *,
    keep_alive: bool,
    extra_headers: Optional[dict[str, str]] = None,
) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    headers = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[tuple[str, str, str, dict[str, str], bytes]]:
    """Parse one request; ``None`` on clean EOF before a request line.

    Returns ``(method, path, version, headers, body)``; raises
    :class:`_HttpError` on malformed input and ``ConnectionError`` on a
    mid-request disconnect."""
    request_line = await reader.readline()
    if not request_line:
        return None
    if not request_line.endswith(b"\n") and reader.at_eof():
        raise ConnectionResetError("mid-request disconnect")
    try:
        method, path, version = request_line.decode("latin-1").strip().split(" ", 2)
    except ValueError:
        raise _HttpError(400, "malformed request line")
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = await reader.readline()
        if not line.endswith(b"\n") and reader.at_eof():
            raise ConnectionResetError("mid-headers disconnect")
        line = line.strip()
        if not line:
            break
        if len(headers) >= MAX_HEADERS:
            raise _HttpError(400, "too many headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header {name[:40]!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(400, "unterminated headers")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise _HttpError(400, "bad Content-Length")
        if length < 0:
            raise _HttpError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length)
    return method, path, version, headers, body


async def serve_http_connection(
    gateway: "GatewayServer",
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One HTTP client: requests in a keep-alive loop, errors as JSON."""
    gateway.metrics.count("connections")
    gateway.metrics.count("http_connections")
    dropped = False
    seq = 0
    gateway._track_connection(writer)
    try:
        while True:
            try:
                parsed = await _read_request(reader)
            except _HttpError as exc:
                gateway.metrics.count("errors")
                writer.write(_encode(
                    exc.status, error_response(None, exc.message), keep_alive=False
                ))
                await writer.drain()
                break
            except (ConnectionError, asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError, ValueError, OSError):
                dropped = True
                break
            if parsed is None:
                break
            seq += 1
            method, path, version, headers, body = parsed
            keep_alive = (
                version.upper() != "HTTP/1.0"
                and headers.get("connection", "").lower() != "close"
            )
            try:
                status, payload, extra = await _handle(
                    gateway, method, path, headers, body, seq
                )
            except _HttpError as exc:
                status, payload, extra = exc.status, error_response(None, exc.message), None
                gateway.metrics.count("errors")
            except Exception as exc:  # never kill the accept loop
                status, payload, extra = 500, error_response(None, f"internal error: {exc}"), None
                gateway.metrics.count("errors")
            gateway.metrics.count(f"http_{status}")
            try:
                writer.write(_encode(
                    status, payload, keep_alive=keep_alive, extra_headers=extra
                ))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                dropped = True
                break
            if not keep_alive:
                break
    except asyncio.CancelledError:
        pass  # event-loop teardown, not a client drop
    finally:
        if dropped:
            gateway.metrics.count("connections_dropped")
        try:
            writer.close()
        except Exception:
            pass


_ROUTE_TYPES = {"/v1/decide": "decide", "/v1/schemas": "schema", "/v1/schema": "schema"}


async def _handle(
    gateway: "GatewayServer",
    method: str,
    path: str,
    headers: dict[str, str],
    body: bytes,
    seq: int,
) -> tuple[int, dict, Optional[dict[str, str]]]:
    route = path.split("?", 1)[0].rstrip("/") or "/"
    query = path.split("?", 1)[1] if "?" in path else ""
    if route in _ROUTE_TYPES:
        if method != "POST":
            raise _HttpError(405, "POST required")
        return await _handle_request(gateway, _ROUTE_TYPES[route], headers, body, seq)
    if route == "/v1/stats":
        if method != "GET":
            raise _HttpError(405, "GET required")
        payload = gateway.stats()
        if "deep=1" in query:
            payload["shard_snapshots"] = await gateway.shard_stats()
        return 200, payload, None
    if route == "/v1/healthz":
        if method != "GET":
            raise _HttpError(405, "GET required")
        return 200, {"ok": True, "shards": gateway.config.shards}, None
    if route == "/v1/readyz":
        if method != "GET":
            raise _HttpError(405, "GET required")
        ready, payload = gateway.readiness()
        return (200 if ready else 503), payload, None
    raise _HttpError(404, f"no route {route!r}")


async def _handle_request(
    gateway: "GatewayServer",
    rtype: str,
    headers: dict[str, str],
    body: bytes,
    seq: int,
) -> tuple[int, dict, Optional[dict[str, str]]]:
    """A decide or schema request: the body is one wire line, validated by
    the same :func:`parse_request` as the JSONL front; a body without a
    ``type`` is the route's type."""
    try:
        request = parse_request(
            body, seq, default_type=rtype,
            default_tenant=headers.get("x-repro-tenant", DEFAULT_TENANT),
        )
    except ProtocolError as exc:
        gateway.metrics.count("errors")
        return 400, error_response(exc.request_id, str(exc)), None
    if request.type != rtype:
        gateway.metrics.count("errors")
        message = f"this route takes a {rtype} request, not {request.type!r}"
        return 400, error_response(request.id, message), None
    if rtype == "schema":
        responses = await gateway.register_schema(request)
    else:
        outcome, responses = await gateway.decide(request)
        if outcome == "rejected":
            retry_ms = responses[0].get("retry_after_ms", 0) or 0
            return 429, responses[0], {
                "Retry-After": str(max(1, math.ceil(retry_ms / 1000)))
            }
    first = responses[0] if responses else error_response(request.id, "no response")
    if first.get("type") == "error":
        if "shard unavailable" in first.get("error", ""):
            return 503, first, None
        return 400, first, None
    return 200, first, None
