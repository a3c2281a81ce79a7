"""The containment server: JSONL over a pipe.

:meth:`ContainmentServer.serve_pipe` reads requests from an input stream
and writes responses to an output stream until end of input or a
``shutdown`` request.  ``repro serve`` with no listener flag and ``repro
batch`` both run it (batch feeds it a file instead of stdin).  Every socket
listener is the gateway's (:mod:`repro.service.gateway`), whose shard
workers run this class's :meth:`~ContainmentServer.handle_line` — so one
request loop serves every transport.

Verdict emission is buffered: ``decide`` requests queue in the scheduler
until a ``flush`` / ``shutdown`` / end-of-input, so the scheduler can
dedup and priority-order a whole batch before any search runs.  That
buffering is why the pipe stays sequential and deterministic: verdicts
drain in priority order and are emitted in arrival order.  Control
requests (``stats``, ``ping``, ``schema``) answer immediately.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Optional, Union

from repro.obs import REGISTRY, PhaseAggregator, active_collector, install, uninstall
from repro.resilience.audit import VerdictAuditor
from repro.service.cache import DecisionCache
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    ProtocolError,
    encode_response,
    error_response,
    parse_request,
)
from repro.service.scheduler import DecisionScheduler
from repro.service.sessions import SessionManager


class StreamState:
    """Per-connection request numbering.

    One instance per stream; ``seq`` feeds default request ids and
    intra-stream emission order.  Kept deliberately tiny — every gateway
    shard worker allocates one for its feed."""

    __slots__ = ("seq",)

    def __init__(self) -> None:
        self.seq = 0

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq


class ContainmentServer:
    """One scheduler + session table + cache behind a wire transport."""

    def __init__(
        self,
        cache_dir: Union[None, str, Path] = None,
        use_cache: bool = True,
        default_timeout_ms: Optional[int] = None,
        semantic_cache: bool = True,
        audit: bool = True,
    ) -> None:
        metrics = ServiceMetrics()
        self.scheduler = DecisionScheduler(
            SessionManager(metrics),
            DecisionCache(cache_dir, metrics) if use_cache else None,
            metrics,
            default_timeout_ms=default_timeout_ms,
            semantic_cache=semantic_cache,
            auditor=VerdictAuditor(metrics) if audit else None,
        )
        self.metrics = metrics
        self.sessions = self.scheduler.sessions
        self._default_stream = StreamState()

    # ------------------------------------------------------------- #
    # request handling (transport-independent)

    def new_stream(self) -> "StreamState":
        """A fresh per-connection request counter.

        Each stream (pipe conversation, gateway shard feed) numbers its
        requests independently, so two concurrent clients
        get stable default ids (``req-1``, ``req-2``, ...) and deterministic
        intra-stream emission order without sharing a mutable counter."""
        return StreamState()

    def handle_line(
        self, line: str, stream: Optional["StreamState"] = None
    ) -> tuple[list[dict], bool]:
        """Process one request line under ``stream``'s sequence counter
        (a server-level default stream when none is given — the historical
        single-client behaviour).

        Returns ``(responses to emit now, stop serving?)``; decide requests
        buffer in the scheduler and emit nothing until a flush.
        """
        state = stream if stream is not None else self._default_stream
        line = line.strip()
        if not line:
            return [], False
        seq = state.next_seq()
        self.metrics.count("requests")
        try:
            request = parse_request(line, seq)
        except ProtocolError as exc:
            self.metrics.count("errors")
            return [error_response(exc.request_id, str(exc))], False
        try:
            return self._dispatch(request)
        except Exception as exc:
            # no request line, however malformed its payload, may kill the
            # serve loop — answer with a structured error and keep going
            self.metrics.count("errors")
            return [error_response(request.id, f"internal error: {exc}")], False

    def _dispatch(self, request) -> tuple[list[dict], bool]:
        self.metrics.count(f"requests_{request.type}")
        if request.type == "decide":
            error = self.scheduler.submit(request)
            return ([error] if error is not None else []), False
        if request.type == "schema":
            try:
                self.sessions.register(request.ref, request.tbox)
            except Exception as exc:
                self.metrics.count("errors")
                return [error_response(request.id, f"bad schema: {exc}")], False
            return [{"type": "ack", "id": request.id, "ref": request.ref}], False
        if request.type == "stats":
            return [{"type": "stats", "id": request.id, "stats": self.stats()}], False
        if request.type == "ping":
            return [{"type": "pong", "id": request.id}], False
        if request.type == "flush":
            return self.scheduler.drain(), False
        # shutdown: drain what's buffered, say goodbye, stop
        responses = self.scheduler.drain()
        responses.append({"type": "bye", "id": request.id})
        return responses, True

    def stats(self) -> dict:
        payload = self.metrics.snapshot()
        payload["sessions"] = self.sessions.snapshot()
        payload["pending"] = self.scheduler.pending()
        if self.scheduler.cache is not None:
            payload["cache"] = self.scheduler.cache.stats()
        semantic = self.sessions.semantic_snapshot()
        if semantic:
            payload["semantic"] = semantic
        audit = REGISTRY.snapshot_prefixed("audit.")
        if self.scheduler.auditor is not None or audit:
            payload["audit"] = {
                "enabled": self.scheduler.auditor is not None,
                "counters": audit,
            }
            if self.scheduler.auditor is not None:
                payload["audit"]["seconds"] = round(
                    self.scheduler.auditor.seconds, 6
                )
        return payload

    # ------------------------------------------------------------- #
    # pipe transport

    def serve_pipe(self, in_stream: IO[str], out_stream: IO[str]) -> None:
        """Serve one JSONL conversation from stream to stream, until end of
        input (an implicit flush) or a ``shutdown`` request.

        Per-phase span timings are aggregated for the loop's lifetime
        (bounded memory: counts + totals only, surfaced via ``stats``); an
        already-installed collector — e.g. a benchmark's tracer — wins."""
        installed = active_collector() is None
        if installed:
            install(PhaseAggregator())
        stream = self.new_stream()

        def emit(responses: list[dict]) -> None:
            for response in responses:
                out_stream.write(encode_response(response) + "\n")
            out_stream.flush()

        try:
            for line in in_stream:
                responses, stop = self.handle_line(line, stream)
                emit(responses)
                if stop:
                    return
            emit(self.scheduler.drain())
        except KeyboardInterrupt:
            # graceful shutdown: drain buffered work, emit, then stop
            self.metrics.count("interrupted")
            emit(self.scheduler.drain())
        finally:
            if installed:
                uninstall()
