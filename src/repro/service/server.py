"""The containment server: JSONL over a pipe or a local Unix socket.

Two transports, one request loop:

* **pipe mode** (:meth:`ContainmentServer.serve_pipe`) — read requests from
  an input stream, write responses to an output stream, until end of input.
  ``repro serve`` with no flags and ``repro batch`` both run this loop
  (batch feeds it a file instead of stdin).
* **socket mode** (:meth:`ContainmentServer.serve_socket`) — bind a local
  ``AF_UNIX`` stream socket and serve connections *sequentially*: each
  connection speaks the same JSONL protocol, a client's half-close acts as
  its ``flush``, and sessions / caches / metrics persist across
  connections.  Sequential accept keeps execution order deterministic; the
  amortization lives in the shared state, not in connection concurrency.

Verdict emission is buffered: ``decide`` requests queue in the scheduler
until a ``flush`` / ``shutdown`` / end-of-input, so the scheduler can
dedup and priority-order a whole batch before any search runs.  Control
requests (``stats``, ``ping``, ``schema``) answer immediately.
"""

from __future__ import annotations

import socket
import stat
from pathlib import Path
from typing import IO, Iterable, Optional, Union

from repro.obs import REGISTRY, PhaseAggregator, active_collector, install, uninstall
from repro.resilience.audit import JournalScrubber, VerdictAuditor
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

    One instance per stream/connection; ``seq`` feeds default request ids
    and intra-stream emission order.  Kept deliberately tiny — the gateway
    allocates one per shard feed and one per client connection."""

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
        scheduler: Optional[DecisionScheduler] = None,
        cache_dir: Union[None, str, Path] = None,
        use_cache: bool = True,
        default_timeout_ms: Optional[int] = None,
        semantic_cache: bool = True,
        audit: bool = True,
        ab_sample_every: int = 64,
        scrub_interval_s: Optional[float] = None,
    ) -> None:
        if scheduler is not None:
            self.scheduler = scheduler
        else:
            metrics = ServiceMetrics()
            cache = DecisionCache(cache_dir, metrics) if use_cache else None
            auditor = (
                VerdictAuditor(metrics, ab_sample_every=ab_sample_every)
                if audit
                else None
            )
            self.scheduler = DecisionScheduler(
                SessionManager(metrics),
                cache, metrics,
                default_timeout_ms=default_timeout_ms,
                semantic_cache=semantic_cache,
                auditor=auditor,
            )
        self.metrics = self.scheduler.metrics
        self.sessions = self.scheduler.sessions
        self.scrubber: Optional[JournalScrubber] = None
        if scrub_interval_s is not None and self.scheduler.cache is not None:
            self.scrubber = JournalScrubber(
                self.scheduler.cache, self.metrics, interval_s=scrub_interval_s
            )
        self._default_stream = StreamState()

    # ------------------------------------------------------------- #
    # request handling (transport-independent)

    def new_stream(self) -> "StreamState":
        """A fresh per-connection request counter.

        Each stream (pipe conversation, socket connection, gateway shard
        feed) numbers its requests independently, so two concurrent clients
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
            if self.scrubber is not None:
                payload["audit"]["scrub_passes"] = self.scrubber.passes
        return payload

    # ------------------------------------------------------------- #
    # transports

    def _run_stream(self, lines: Iterable[str], out_stream: IO[str]) -> bool:
        """Drive the loop over ``lines``; returns True on explicit shutdown.
        End of input drains the scheduler (implicit flush)."""
        stream = self.new_stream()

        def emit(responses: list[dict]) -> None:
            for response in responses:
                out_stream.write(encode_response(response) + "\n")
            out_stream.flush()

        try:
            for line in lines:
                responses, stop = self.handle_line(line, stream)
                emit(responses)
                if stop:
                    return True
        except KeyboardInterrupt:
            # graceful shutdown: drain buffered work, emit, then stop
            self.metrics.count("interrupted")
            emit(self.scheduler.drain())
            return True
        emit(self.scheduler.drain())
        return False

    def serve_pipe(self, in_stream: IO[str], out_stream: IO[str]) -> None:
        """Serve one JSONL conversation from stream to stream."""
        installed = self._install_aggregator()
        if self.scrubber is not None:
            self.scrubber.start()
        try:
            self._run_stream(in_stream, out_stream)
        finally:
            if self.scrubber is not None:
                self.scrubber.stop()
            if installed:
                uninstall()

    @staticmethod
    def _install_aggregator() -> bool:
        """Aggregate per-phase span timings for the serve loop's lifetime
        (bounded memory: counts + totals only, surfaced via ``stats``).
        An already-installed collector — e.g. a benchmark's tracer — wins."""
        if active_collector() is not None:
            return False
        install(PhaseAggregator())
        return True

    def _remove_stale_socket(self, socket_path: Path) -> None:
        """Unlink a socket file a previously crashed server left behind.

        Only actual sockets are removed: binding over a regular file or a
        directory almost certainly means a mistyped path, and silently
        deleting user data to grab it would be far worse than failing.

        The lstat → unlink window races against any other server starting
        on the same path: whoever unlinks second sees ``FileNotFoundError``,
        which counts as success — the stale file is gone either way."""
        try:
            mode = socket_path.lstat().st_mode
        except FileNotFoundError:
            return
        if not stat.S_ISSOCK(mode):
            raise OSError(
                f"refusing to remove {socket_path}: exists and is not a socket"
            )
        try:
            socket_path.unlink()
        except FileNotFoundError:
            return
        self.metrics.count("stale_socket_removed")

    def serve_socket(self, path: Union[str, Path]) -> None:
        """Serve connections on a local Unix socket until a client sends
        ``shutdown``.  Connections are handled one at a time; state (schema
        sessions, persistent cache, metrics) is shared across them."""
        socket_path = Path(path)
        self._remove_stale_socket(socket_path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        installed = self._install_aggregator()
        if self.scrubber is not None:
            self.scrubber.start()
        try:
            listener.bind(str(socket_path))
            listener.listen(8)
            stop = False
            while not stop:
                try:
                    conn, _ = listener.accept()
                except KeyboardInterrupt:
                    self.metrics.count("interrupted")
                    break
                with conn:
                    reader = conn.makefile("r", encoding="utf-8")
                    writer = conn.makefile("w", encoding="utf-8")
                    try:
                        stop = self._run_stream(reader, writer)
                    except (BrokenPipeError, ConnectionResetError):
                        self.metrics.count("connections_dropped")
                    finally:
                        self.metrics.count("connections")
                        # the makefile wrappers hold the socket fd open past
                        # conn.close(); close them or the client never sees EOF
                        for stream in (writer, reader):
                            try:
                                stream.close()
                            except OSError:
                                pass
        finally:
            if self.scrubber is not None:
                self.scrubber.stop()
            if installed:
                uninstall()
            listener.close()
            if socket_path.exists():
                socket_path.unlink()
