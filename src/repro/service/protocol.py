"""The JSONL wire format of the containment service.

One JSON object per line, in both directions.  Requests:

``decide``
    ``{"type": "decide", "id": "r1", "lhs": "A(x)", "rhs": "B(x)",
    "schema": {"name": ..., "cis": [["lhs","rhs"], ...]} | null,
    "schema_ref": "s1", "method": "auto", "priority": 0,
    "options": {"max_nodes": 12, "timeout_ms": 500, ...}}``

    Any request may carry an optional ``"tenant": "t1"`` label ([A-Za-z0-9._-],
    1-64 chars); a missing or ``null`` tenant is ``"default"``.  The pipe
    server records and ignores it; the gateway keys admission quotas and
    fair dequeue on it.

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
    snapshot; ``shutdown`` drains and answers ``bye``: the pipe server
    stops, a gateway closes that one connection.  End-of-input acts as an
    implicit ``flush`` + ``shutdown``.

Every front — the pipe server, the gateway's JSONL listeners and its HTTP
facade — validates a line with :func:`parse_request`, so a line is accepted
or rejected alike everywhere, with the same error text.  The caps keep an
untrusted client from parking a huge request in a queue: query strings
(either side) up to :data:`MAX_QUERY_LENGTH` characters, schema refs up to
:data:`MAX_REF_LENGTH`, at most :data:`MAX_SCHEMA_CIS` concept inclusions in
an inline or registered schema, ``priority`` within ±:data:`MAX_PRIORITY`
(booleans are not integers), and ``options.timeout_ms`` up to
:data:`MAX_TIMEOUT_MS`.  A request without an ``id`` gets ``req-N``, N
counting the requests of its connection; an error keeps the line's ``id``
when it had one.

Responses mirror request ids: ``verdict`` (with a ``source`` of
``computed`` / ``cache`` / ``dedup`` and the :func:`repro.io.verdict_to_dict`
payload), ``stats``, ``ack`` (schema registration), ``pong``, ``error``,
and ``bye``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Union

from repro.core.containment import ContainmentOptions

WIRE_VERSION = 1

DEFAULT_TENANT = "default"
"""Tenant assigned to requests that don't name one.  The pipe server
ignores tenancy entirely; the gateway keys quotas and fair queues on it."""

_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

REQUEST_TYPES = ("decide", "schema", "stats", "ping", "flush", "shutdown")

_METHODS = ("auto", "baseline", "sparse", "reduction", "direct")

_OPTION_FIELDS = (
    "max_word_length", "max_expansions", "max_nodes", "max_steps",
    "timeout_ms", "semantic_cache",
)

_NON_NEGATIVE_INT_FIELDS = (
    "max_word_length", "max_expansions", "max_nodes", "max_steps", "timeout_ms",
)

MAX_QUERY_LENGTH = 16384
"""Longest accepted query string (either side).  Far beyond any workload
in the repo — the paper's examples are tens of characters — but small
enough that a hostile client cannot park megabytes in a queue."""

MAX_REF_LENGTH = 256
"""Longest accepted schema ``ref``."""

MAX_SCHEMA_CIS = 4096
"""Most concept inclusions accepted in one inline/registered schema."""

MAX_TIMEOUT_MS = 24 * 60 * 60 * 1000
"""Largest accepted per-decision timeout (24h): effectively unbounded for
real use while keeping the value arithmetic-safe."""

MAX_PRIORITY = 1 << 16


class ProtocolError(ValueError):
    """A malformed request line (bad JSON, unknown type, a field that fails
    validation).

    ``request_id`` is the ``id`` of the offending JSON object when the
    line parsed to one, so the error response can still name it."""

    request_id: Any = None


@dataclass(kw_only=True)
class Request:
    """One validated wire request.  Control requests (``stats``, ``ping``,
    ``flush``, ``shutdown``) are plain requests; ``decide`` and ``schema``
    requests are the :class:`DecideModel` and :class:`SchemaModel`
    subclasses.  ``seq`` is the request's index on its connection; it
    breaks priority ties FIFO and orders response emission."""

    type: str
    id: str
    seq: int = 0
    tenant: str = DEFAULT_TENANT


@dataclass(kw_only=True)
class DecideModel(Request):
    """One validated containment-decision request."""

    type: str = field(default="decide", init=False)
    lhs: str
    rhs: str
    schema: Optional[dict] = None
    schema_ref: Optional[str] = None
    method: str = "auto"
    priority: int = 0
    options: dict = field(default_factory=dict)

    @classmethod
    def from_wire(cls, data: dict, *, id: str, seq: int, tenant: str) -> "DecideModel":
        """Validate a decoded decide request (``id``, ``seq`` and ``tenant``
        already resolved by :func:`parse_request`)."""
        lhs = _require_str(data, "lhs", MAX_QUERY_LENGTH)
        rhs = _require_str(data, "rhs", MAX_QUERY_LENGTH)
        schema = data.get("schema")
        if schema is not None:
            if not isinstance(schema, dict):
                raise ProtocolError("field 'schema' must be an object or null")
            _check_cis(schema, "schema")
        schema_ref = data.get("schema_ref")
        if schema_ref is not None and not isinstance(schema_ref, str):
            raise ProtocolError("field 'schema_ref' must be a string")
        if schema is not None and schema_ref is not None:
            raise ProtocolError("give either an inline schema or a schema_ref")
        method = data.get("method", "auto")
        if method not in _METHODS:
            raise ProtocolError(f"unknown method {method!r}")
        priority = data.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ProtocolError("field 'priority' must be an integer")
        if abs(priority) > MAX_PRIORITY:
            raise ProtocolError(f"field 'priority' must be within ±{MAX_PRIORITY}")
        options = data.get("options") or {}
        if not isinstance(options, dict):
            raise ProtocolError("field 'options' must be an object")
        _check_options(options)
        return cls(
            id=id,
            seq=seq,
            tenant=tenant,
            lhs=lhs,
            rhs=rhs,
            schema=schema,
            schema_ref=schema_ref,
            method=method,
            priority=priority,
            options=dict(options),
        )

    def wire_line(self) -> str:
        """The canonical wire line of this request (what a shard parses)."""
        payload: dict[str, Any] = {
            "type": "decide",
            "id": self.id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tenant": self.tenant,
            "method": self.method,
            "priority": self.priority,
            "options": self.options,
        }
        if self.schema is not None:
            payload["schema"] = self.schema
        if self.schema_ref is not None:
            payload["schema_ref"] = self.schema_ref
        return encode_response(payload)


@dataclass(kw_only=True)
class SchemaModel(Request):
    """One validated schema registration."""

    type: str = field(default="schema", init=False)
    ref: str
    tbox: dict

    @classmethod
    def from_wire(cls, data: dict, *, id: str, seq: int, tenant: str) -> "SchemaModel":
        """Validate a decoded schema registration."""
        ref = _require_str(data, "ref", MAX_REF_LENGTH)
        tbox = data.get("tbox")
        if not isinstance(tbox, dict):
            raise ProtocolError("field 'tbox' must be an object")
        _check_cis(tbox, "tbox")
        return cls(id=id, seq=seq, tenant=tenant, ref=ref, tbox=tbox)

    def wire_line(self) -> str:
        return encode_response({
            "type": "schema",
            "id": self.id,
            "ref": self.ref,
            "tbox": self.tbox,
            "tenant": self.tenant,
        })


def _require_str(data: dict, name: str, max_len: int) -> str:
    value = data.get(name)
    if not isinstance(value, str) or not value.strip():
        raise ProtocolError(f"field {name!r} must be a non-empty string")
    if len(value) > max_len:
        raise ProtocolError(
            f"field {name!r} exceeds {max_len} characters ({len(value)})"
        )
    return value


def _check_cis(tbox: dict, name: str) -> None:
    cis = tbox.get("cis")
    if isinstance(cis, list) and len(cis) > MAX_SCHEMA_CIS:
        raise ProtocolError(
            f"field {name!r} exceeds {MAX_SCHEMA_CIS} concept inclusions"
        )


def _check_options(options: dict) -> None:
    unknown = sorted(set(options) - set(_OPTION_FIELDS))
    if unknown:
        raise ProtocolError(f"unknown options: {', '.join(unknown)}")
    for name in _NON_NEGATIVE_INT_FIELDS:
        if name not in options:
            continue
        value = options[name]
        # bool is an int subclass; reject it explicitly
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ProtocolError(f"option {name!r} must be a non-negative integer")
    if options.get("timeout_ms", 0) > MAX_TIMEOUT_MS:
        raise ProtocolError(
            f"option 'timeout_ms' exceeds the {MAX_TIMEOUT_MS} ms cap"
        )
    if "semantic_cache" in options and not isinstance(
        options["semantic_cache"], bool
    ):
        raise ProtocolError("option 'semantic_cache' must be a boolean")


def parse_request(
    line: Union[str, bytes],
    seq: int,
    default_type: str = "decide",
    default_tenant: str = DEFAULT_TENANT,
) -> Request:
    """Decode and validate one request line; raises :class:`ProtocolError`.

    ``seq`` numbers the request on its connection (the default id is
    ``req-<seq>``).  A line without a ``type`` is a ``default_type``
    request, and one without a ``tenant`` (or with ``null``) belongs to
    ``default_tenant`` — the HTTP facade passes its route's type and the
    ``X-Repro-Tenant`` header here."""
    try:
        data = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the decoder's
        # recursion limit, which a line far below any length cap can reach
        raise ProtocolError(f"bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError("request must be a JSON object")
    try:
        rtype = data.get("type", default_type)
        if rtype not in REQUEST_TYPES:
            raise ProtocolError(f"unknown request type {rtype!r}")
        tenant = data.get("tenant")
        if tenant is None:
            tenant = default_tenant
        if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
            raise ProtocolError(
                "field 'tenant' must be 1-64 characters of [A-Za-z0-9._-]"
            )
        fields = {"id": str(data.get("id", f"req-{seq}")), "seq": seq, "tenant": tenant}
        if rtype == "decide":
            return DecideModel.from_wire(data, **fields)
        if rtype == "schema":
            return SchemaModel.from_wire(data, **fields)
        return Request(type=rtype, **fields)
    except ProtocolError as exc:
        exc.request_id = data.get("id")
        raise


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
    """One wire line (compact JSON, sorted keys — byte-deterministic)."""
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
