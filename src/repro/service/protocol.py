"""The JSONL wire format of the containment service.

One JSON object per line, in both directions.  Requests:

``decide``
    ``{"type": "decide", "id": "r1", "lhs": "A(x)", "rhs": "B(x)",
    "schema": {"name": ..., "cis": [["lhs","rhs"], ...]} | null,
    "schema_ref": "s1", "method": "auto", "priority": 0,
    "options": {"max_nodes": 12, "timeout_ms": 500, ...}}``

    Any request may carry an optional ``"tenant": "t1"`` label ([A-Za-z0-9._-],
    ≤64 chars; default ``"default"``).  The sequential server records and
    ignores it; the concurrent gateway keys admission quotas and fair
    dequeue on it.

    Queries use the text syntax (:func:`repro.queries.parser.parse_query`);
    the schema is either inline (the :func:`repro.io.tbox_to_dict` shape)
    or a ``schema_ref`` naming a previously registered schema.  ``priority``
    orders execution (smaller runs first, FIFO within a priority level);
    response *emission* stays in submission order, so output is
    deterministic regardless of priorities.  ``options.timeout_ms`` caps
    the request's wall-clock execution: a decision cut short answers with
    a normal ``verdict`` whose payload carries ``complete: false`` and
    ``deadline_expired: true`` while the rest of the batch keeps flowing.

``schema``
    ``{"type": "schema", "ref": "s1", "tbox": {...}}`` — register a schema
    once, reference it from many decide requests.

``stats`` / ``ping`` / ``flush`` / ``shutdown``
    Control requests.  ``flush`` forces the scheduler to drain and emit
    buffered verdicts; ``stats`` answers immediately with the metrics
    snapshot; ``shutdown`` drains, answers ``bye``, and stops the server.
    End-of-input acts as an implicit ``flush`` + ``shutdown``.

Responses mirror request ids: ``verdict`` (with a ``source`` of
``computed`` / ``cache`` / ``dedup`` and the :func:`repro.io.verdict_to_dict`
payload), ``stats``, ``ack`` (schema registration), ``pong``, ``error``,
and ``bye``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.core.containment import ContainmentOptions

WIRE_VERSION = 1

DEFAULT_TENANT = "default"
"""Tenant assigned to requests that don't name one.  The sequential server
ignores tenancy entirely; the gateway keys quotas and fair queues on it."""

_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

REQUEST_TYPES = ("decide", "schema", "stats", "ping", "flush", "shutdown")

_METHODS = ("auto", "baseline", "sparse", "reduction", "direct")


class ProtocolError(ValueError):
    """A malformed request line (bad JSON, unknown type, missing fields).

    ``request_id`` is the ``id`` of the offending JSON object when the
    line parsed to one, so the error response can still name it."""

    request_id: Any = None


@dataclass
class Request:
    """One parsed wire request.  ``seq`` is the server-side arrival index;
    it breaks priority ties FIFO and orders response emission."""

    type: str
    seq: int
    id: str
    lhs: Optional[str] = None
    rhs: Optional[str] = None
    schema: Optional[dict] = None
    schema_ref: Optional[str] = None
    method: str = "auto"
    priority: int = 0
    options: dict = field(default_factory=dict)
    tbox: Optional[dict] = None
    ref: Optional[str] = None
    tenant: str = DEFAULT_TENANT


_OPTION_FIELDS = (
    "max_word_length", "max_expansions", "max_nodes", "max_steps",
    "timeout_ms", "semantic_cache",
)

_NON_NEGATIVE_INT_FIELDS = (
    "max_word_length", "max_expansions", "max_nodes", "max_steps", "timeout_ms",
)


def _validate_budgets(options: dict) -> None:
    for name in _NON_NEGATIVE_INT_FIELDS:
        if name not in options:
            continue
        value = options[name]
        # bool is an int subclass; reject it explicitly
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ProtocolError(f"option {name!r} must be a non-negative integer")
    if "semantic_cache" in options and not isinstance(
        options["semantic_cache"], bool
    ):
        raise ProtocolError("option 'semantic_cache' must be a boolean")


def parse_request(line: str, seq: int) -> Request:
    """Parse one request line; raises :class:`ProtocolError` on bad input."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError("request must be a JSON object")
    try:
        return _request_from(data, seq)
    except ProtocolError as exc:
        exc.request_id = data.get("id")
        raise


def _request_from(data: dict, seq: int) -> Request:
    rtype = data.get("type", "decide")
    if rtype not in REQUEST_TYPES:
        raise ProtocolError(f"unknown request type {rtype!r}")
    tenant = data.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise ProtocolError(
            "tenant must be 1-64 characters of [A-Za-z0-9._-]"
        )
    request = Request(
        type=rtype,
        seq=seq,
        id=str(data.get("id", f"req-{seq}")),
        tenant=tenant,
    )
    if rtype == "decide":
        for side in ("lhs", "rhs"):
            value = data.get(side)
            if not isinstance(value, str) or not value.strip():
                raise ProtocolError(f"decide request needs a query string {side!r}")
        schema = data.get("schema")
        if schema is not None and not isinstance(schema, dict):
            raise ProtocolError("schema must be a TBox object or null")
        method = data.get("method", "auto")
        if method not in _METHODS:
            raise ProtocolError(f"unknown method {method!r}")
        options = data.get("options") or {}
        if not isinstance(options, dict):
            raise ProtocolError("options must be an object")
        unknown = sorted(set(options) - set(_OPTION_FIELDS))
        if unknown:
            raise ProtocolError(f"unknown options: {', '.join(unknown)}")
        _validate_budgets(options)
        priority = data.get("priority", 0)
        if not isinstance(priority, int):
            raise ProtocolError("priority must be an integer")
        request = replace(
            request,
            lhs=data["lhs"],
            rhs=data["rhs"],
            schema=schema,
            schema_ref=data.get("schema_ref"),
            method=method,
            priority=priority,
            options=options,
        )
        if request.schema is not None and request.schema_ref is not None:
            raise ProtocolError("give either an inline schema or a schema_ref")
    elif rtype == "schema":
        ref = data.get("ref")
        if not isinstance(ref, str) or not ref:
            raise ProtocolError("schema registration needs a string 'ref'")
        tbox = data.get("tbox")
        if not isinstance(tbox, dict):
            raise ProtocolError("schema registration needs a 'tbox' object")
        request = replace(request, ref=ref, tbox=tbox)
    return request


def build_options(raw: dict) -> ContainmentOptions:
    """Materialize a request's ``options`` object (already whitelisted).

    ``timeout_ms`` is deliberately *not* materialized here: a deadline is
    relative to when the decision starts executing, not when the request
    was parsed, so the scheduler arms it per-execution (and excludes it
    from the decision's cache identity)."""
    options = ContainmentOptions()
    if "max_word_length" in raw:
        options = replace(options, max_word_length=int(raw["max_word_length"]))
    if "max_expansions" in raw:
        options = replace(options, max_expansions=int(raw["max_expansions"]))
    if "semantic_cache" in raw:
        options = replace(options, semantic_cache=bool(raw["semantic_cache"]))
    limits = options.limits
    if "max_nodes" in raw:
        limits = replace(limits, max_nodes=int(raw["max_nodes"]))
    if "max_steps" in raw:
        limits = replace(limits, max_steps=int(raw["max_steps"]))
    if limits is not options.limits:
        options = replace(options, limits=limits)
    return options


# --------------------------------------------------------------------- #
# responses


def encode_response(payload: dict) -> str:
    """One response line (compact JSON, sorted keys — byte-deterministic)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def verdict_response(
    request_id: str,
    verdict: dict,
    source: str,
    elapsed_ms: float,
) -> dict:
    return {
        "type": "verdict",
        "id": request_id,
        "verdict": verdict,
        "source": source,
        "elapsed_ms": round(elapsed_ms, 3),
    }


def error_response(request_id: Optional[str], message: str) -> dict:
    payload: dict[str, Any] = {"type": "error", "error": message}
    if request_id is not None:
        payload["id"] = request_id
    return payload


def overloaded_response(
    request_id: Optional[str],
    reason: str,
    tenant: Optional[str] = None,
    retry_after_ms: Optional[int] = None,
) -> dict:
    """A structured admission rejection.

    ``code`` is always ``"overloaded"`` so clients can branch without
    string-matching the message; ``reason`` names the exhausted bound
    (``tenant_quota`` / ``queue_full`` / ``inflight_limit``) and
    ``retry_after_ms``, when present, is the token-bucket refill estimate.
    """
    payload: dict[str, Any] = {
        "type": "error",
        "code": "overloaded",
        "reason": reason,
        "error": f"overloaded: {reason}",
    }
    if request_id is not None:
        payload["id"] = request_id
    if tenant is not None:
        payload["tenant"] = tenant
    if retry_after_ms is not None:
        payload["retry_after_ms"] = int(retry_after_ms)
    return payload


def draining_response(request_id: Optional[str]) -> dict:
    """A structured drain rejection: the gateway received SIGTERM and is
    letting in-flight decisions finish; new work should go elsewhere.

    ``code`` is ``"draining"`` so load balancers and retrying clients can
    branch without string-matching (the same contract as ``overloaded``);
    a drained gateway also fails its ``/v1/readyz`` probe.
    """
    payload: dict[str, Any] = {
        "type": "error",
        "code": "draining",
        "error": "draining: gateway is shutting down; retry against another instance",
    }
    if request_id is not None:
        payload["id"] = request_id
    return payload
