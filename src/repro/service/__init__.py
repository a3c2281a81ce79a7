"""Batched containment service: schema sessions, dedup, persistent cache.

The library's decision procedures amortize beautifully — normalized TBoxes
and memos are all keyed by stable content identities — but
a cold ``is_contained`` call rebuilds everything and a process exit throws
it away.  This package keeps that state alive across many decisions and
many processes:

* :mod:`repro.service.protocol` — the JSONL wire format: the one request
  model every front validates with, responses, option whitelisting;
* :mod:`repro.service.sessions` — schema sessions: one normalization per
  distinct schema;
* :mod:`repro.service.scheduler` — request dedup, priority/FIFO ordering,
  dispatch through :func:`repro.core.containment.is_contained`;
* :mod:`repro.service.cache` — the persistent, fingerprint-versioned,
  corruption-tolerant decision journal;
* :mod:`repro.service.metrics` — per-session counters and latency
  percentiles behind the ``stats`` request;
* :mod:`repro.service.server` — the pipe transport (every socket listener
  is the gateway's, :mod:`repro.service.gateway`).

Batch runs are bit-identical to sequential ``is_contained`` calls — the
scheduler only reorders and reuses, never changes, decisions (enforced by
benchmark E18).  CLI entry points: ``repro serve`` and ``repro batch``.
"""

from repro.service.cache import DecisionCache, default_cache_dir
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import ProtocolError, Request, parse_request
from repro.service.scheduler import DecisionScheduler
from repro.service.server import ContainmentServer
from repro.service.sessions import SchemaSession, SessionManager, reset_process_caches

__all__ = [
    "ContainmentServer",
    "DecisionCache",
    "DecisionScheduler",
    "ProtocolError",
    "Request",
    "SchemaSession",
    "ServiceMetrics",
    "SessionManager",
    "default_cache_dir",
    "parse_request",
    "reset_process_caches",
]
