"""``repro.service.gateway`` — the concurrent multi-tenant front-end.

The pipe server (:class:`repro.service.server.ContainmentServer`) stays
the deterministic reference path; this package puts a concurrent service
tier, and every socket listener, in front of the same decision machinery.
Every front validates a line with
:func:`repro.service.protocol.parse_request`:

* :mod:`~repro.service.gateway.admission` — per-tenant token-bucket
  quotas, bounded queues/in-flight, and deficit-round-robin fair dequeue;
* :mod:`~repro.service.gateway.shards` — the schema-sharded worker fleet:
  each shard process owns its schema sessions, memos and journal
  segment, so hot TBoxes stay cache-local;
* :mod:`~repro.service.gateway.gateway` — the asyncio front-end
  multiplexing many JSONL clients (AF_UNIX and TCP) over the fleet;
* :mod:`~repro.service.gateway.http` — a minimal HTTP/1.1 JSON facade on
  the same admission/dispatch path.

Verdict payloads are bit-identical to the pipe server by
construction — the shards run the same scheduler/kernel stack — which the
E23 benchmark asserts per request id.
"""

from repro.service.gateway.admission import (
    AdmissionController,
    FairQueue,
    TenantQuota,
    TokenBucket,
)
from repro.service.gateway.gateway import GatewayConfig, GatewayServer
from repro.service.gateway.shards import ShardFleet, shard_for

__all__ = [
    "AdmissionController",
    "FairQueue",
    "GatewayConfig",
    "GatewayServer",
    "ShardFleet",
    "TenantQuota",
    "TokenBucket",
    "shard_for",
]
