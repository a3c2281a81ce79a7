"""The asyncio gateway: many concurrent clients over the shard fleet.

One :class:`GatewayServer` multiplexes any number of concurrent JSONL
clients — AF_UNIX (:meth:`GatewayServer.start_unix`) and TCP
(:meth:`GatewayServer.start_tcp`) speak the exact wire protocol of the
pipe server; :mod:`repro.service.gateway.http` adds an HTTP/JSON facade
on the same path — over a :class:`ShardFleet` of kernel worker processes
sharded by schema fingerprint.  Every socket the service listens on is
one of these.

Request path for a ``decide`` line::

    read line → parse_request (the one request model) → admission
    (quota / queue / in-flight gates) → per-shard fair queue → DRR
    dispatcher → shard worker (ContainmentServer) → response written back

Differences from the pipe server, by design:

* ``decide`` responses stream back *as they complete* — there is no
  batch-flush buffering, so concurrent clients are never serialized
  behind each other.  Clients match responses by ``id``.  Verdict
  *payloads* are still bit-identical to the pipe server (same
  scheduler/kernel stack in each shard), which E23 asserts.
* ``flush`` waits for the connection's outstanding decisions (whose
  verdicts have then already been written) and answers an ``ack``.
* ``shutdown`` ends *that connection* (drain + ``bye``), on every
  listener, unix sockets included — one client must not be able to stop
  the service for the rest.  Stopping the gateway is the owner's call:
  :meth:`stop`, or a signal to ``repro serve`` (SIGTERM drains first).
* rejected requests answer a structured ``overloaded`` error immediately
  and never occupy a shard slot.

Framing robustness: lines arrive in arbitrary TCP segmentation; a
connection that dies mid-line, overruns the line limit, or resets is
counted under ``connections_dropped`` and never takes down the accept
loop (the PR 5 fuzz contract, extended to the async path).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import stat
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.resilience import faults
from repro.resilience.health import QUARANTINED, HealthPolicy, ShardHealth
from repro.service.gateway.admission import AdmissionController, FairQueue, TenantQuota
from repro.service.gateway.shards import ShardFleet, ShardUnavailable
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    DecideModel,
    ProtocolError,
    SchemaModel,
    draining_response,
    encode_response,
    error_response,
    overloaded_response,
    parse_request,
)

OUTCOME_ADMITTED = "admitted"
OUTCOME_REJECTED = "rejected"

SHARD_PIPELINE = 4
"""Envelopes kept in flight per shard socket: enough to hide the
round-trip, small enough that fairness is decided in the DRR queue, not in
the worker's FIFO."""


@dataclass
class GatewayConfig:
    """Tunables for one gateway instance (all bounded by default)."""

    shards: int = 2
    processes: bool = True
    """Process workers (the real deployment shape) or in-process threads
    (single-CPU test mode; same code path minus fork)."""
    max_inflight: int = 2048
    max_queue: int = 1024
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    tenant_quotas: dict[str, TenantQuota] = field(default_factory=dict)
    cache_dir: Union[None, str, Path] = None
    use_cache: bool = False
    default_timeout_ms: Optional[int] = None
    semantic_cache: bool = True
    """Enable the per-session semantic lattices on every shard worker
    (:mod:`repro.cache.semantic`); requests can still opt out per-decision
    via ``options.semantic_cache``."""
    max_line_bytes: int = 1 << 20
    max_respawns: int = 5
    audit: bool = True
    """Run the verdict integrity auditor inside every shard worker (the
    serve-time countermodel check + sampled A/B re-decide)."""
    health_policy: Optional[HealthPolicy] = None
    """Tunables of the per-shard health ladder (``healthy → degraded →
    quarantined`` with half-open recovery probes); ``None`` uses
    :class:`HealthPolicy` defaults."""
    health_interval_s: float = 0.05
    """Cadence of the probe loop that re-admits quarantined shards."""


class _Connection:
    """Per-client state: write lock, outstanding decide tasks, stream."""

    _ids = 0

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        _Connection._ids += 1
        self.id = _Connection._ids
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.tasks: set[asyncio.Task] = set()
        self.alive = True
        self.dropped = False
        self.seq = 0
        """Per-connection request counter (stable default ids, like the
        pipe server's per-stream :class:`StreamState`)."""


class GatewayServer:
    """The concurrent multi-tenant front-end over a shard fleet."""

    def __init__(
        self,
        config: Optional[GatewayConfig] = None,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        self.config = config if config is not None else GatewayConfig()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.admission = AdmissionController(
            default_quota=self.config.default_quota,
            tenant_quotas=self.config.tenant_quotas,
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
            metrics=self.metrics,
        )
        self.fleet = ShardFleet(
            self.config.shards,
            processes=self.config.processes,
            cache_dir=self.config.cache_dir,
            use_cache=self.config.use_cache,
            default_timeout_ms=self.config.default_timeout_ms,
            semantic_cache=self.config.semantic_cache,
            audit=self.config.audit,
            metrics=self.metrics,
            max_respawns=self.config.max_respawns,
            on_worker_loss=self._on_worker_loss,
        )
        self.health = [
            ShardHealth(i, policy=self.config.health_policy)
            for i in range(self.config.shards)
        ]
        self._queues = [
            FairQueue(self.admission.weight_of) for _ in range(self.config.shards)
        ]
        self._queue_events = [asyncio.Event() for _ in range(self.config.shards)]
        self._dispatchers: list[asyncio.Task] = []
        self._servers: list[asyncio.base_events.Server] = []
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._unix_paths: list[Path] = []
        self._ref_keys: dict[str, str] = {}
        self._started = False
        self._draining = False
        self._health_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------- #
    # lifecycle

    async def start(self) -> None:
        """Start the fleet and the per-shard dispatchers (no listeners yet
        — add them with :meth:`start_unix` / :meth:`start_tcp` /
        :meth:`start_http`)."""
        await self.fleet.start()
        self._dispatchers = [
            asyncio.ensure_future(self._dispatch_loop(i))
            for i in range(self.config.shards)
        ]
        self._health_task = asyncio.ensure_future(self._health_loop())
        self._started = True

    async def stop(self) -> None:
        self._started = False
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except (asyncio.CancelledError, Exception):
                pass
            self._health_task = None
        for server in self._servers:
            server.close()
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:
                pass
        self._servers = []
        for path in self._unix_paths:
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        self._unix_paths = []
        # connection handlers park on readline: aborting each transport
        # hands them EOF, so every handler ends on its own (a cancelled
        # stream handler makes asyncio log an error) and is awaited here
        for writer in list(self._connections.values()):
            writer.transport.abort()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        self._connections.clear()
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._dispatchers = []
        # queued-but-undispatched decisions must still resolve: their
        # awaiting tasks would otherwise never finish
        for queue in self._queues:
            while True:
                popped = queue.pop()
                if popped is None:
                    break
                _tenant, (_line, future) = popped
                if not future.done():
                    future.set_exception(ShardUnavailable("gateway stopping"))
        await self.fleet.stop()

    async def start_unix(self, path: Union[str, Path]) -> asyncio.base_events.Server:
        """Listen for JSONL clients on a local AF_UNIX socket.

        A socket file a crashed server left at ``path`` is removed first
        (counted under ``stale_socket_removed``).  Anything else there is
        refused with :class:`OSError` and left untouched: binding over a
        regular file or a directory almost certainly means a mistyped path,
        and deleting user data to grab it would be far worse than failing.
        :meth:`stop` removes the socket file again."""
        socket_path = Path(path)
        self._remove_stale_socket(socket_path)
        server = await asyncio.start_unix_server(
            self._serve_jsonl, path=str(socket_path),
            limit=self.config.max_line_bytes,
        )
        self._servers.append(server)
        self._unix_paths.append(socket_path)
        return server

    def _remove_stale_socket(self, socket_path: Path) -> None:
        """Unlink a stale socket file at ``socket_path``; refuse any other
        file.  The lstat → unlink window races against any other server
        starting on the same path: whoever unlinks second sees
        ``FileNotFoundError``, which counts as success — the stale file is
        gone either way."""
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

    async def start_tcp(self, host: str, port: int) -> asyncio.base_events.Server:
        """Listen for JSONL clients on TCP ``host:port``."""
        server = await asyncio.start_server(
            self._serve_jsonl, host=host, port=port,
            limit=self.config.max_line_bytes,
        )
        self._servers.append(server)
        return server

    async def start_http(self, host: str, port: int) -> asyncio.base_events.Server:
        """Listen for HTTP/JSON clients on TCP ``host:port``."""
        from repro.service.gateway.http import serve_http_connection

        async def handler(reader, writer):
            await serve_http_connection(self, reader, writer)

        server = await asyncio.start_server(
            handler, host=host, port=port, limit=self.config.max_line_bytes,
        )
        self._servers.append(server)
        return server

    # ------------------------------------------------------------- #
    # JSONL transport

    async def _serve_jsonl(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection; never raises into the accept loop."""
        conn = _Connection(writer)
        self.metrics.count("connections")
        self._track_connection(writer)
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # line longer than the limit: hostile or broken framing
                    self.metrics.count("gateway_line_overflow")
                    conn.dropped = True
                    break
                except (ConnectionResetError, BrokenPipeError, OSError):
                    conn.dropped = True
                    break
                if not raw:
                    break
                if not raw.endswith(b"\n") and reader.at_eof():
                    # mid-request disconnect: a torn partial line
                    if raw.strip():
                        conn.dropped = True
                    break
                stop = await self._handle_wire_line(raw, conn)
                if stop:
                    break
        except (ConnectionResetError, BrokenPipeError, OSError):
            conn.dropped = True
        except asyncio.CancelledError:
            # cancelled from outside (event-loop teardown): close out
            # quietly, not a client-caused drop
            conn.alive = False
        finally:
            await asyncio.shield(self._finish_connection(conn))

    def _track_connection(self, writer: asyncio.StreamWriter) -> None:
        """Register the running connection handler so :meth:`stop` can end
        it by aborting its transport."""
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
            task.add_done_callback(lambda done: self._connections.pop(done, None))

    async def _finish_connection(self, conn: _Connection) -> None:
        # outstanding decisions still complete (and release admission);
        # their writes fail silently once the client is gone
        if conn.tasks:
            await asyncio.gather(*conn.tasks, return_exceptions=True)
        if conn.dropped:
            self.metrics.count("connections_dropped")
        conn.alive = False
        try:
            conn.writer.close()
        except Exception:
            pass

    async def _handle_wire_line(self, raw: bytes, conn: _Connection) -> bool:
        """Process one framed line; returns True to close the connection."""
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            self.metrics.count("errors")
            await self._write(conn, [error_response(None, "bad encoding: not UTF-8")])
            return False
        if not line:
            return False
        conn.seq += 1
        self.metrics.count("requests")
        try:
            request = parse_request(line, conn.seq)
        except ProtocolError as exc:
            self.metrics.count("errors")
            await self._write(conn, [error_response(exc.request_id, str(exc))])
            return False
        self.metrics.count(f"requests_{request.type}")
        if request.type == "decide":
            task = asyncio.ensure_future(self._decide_and_write(conn, request))
            conn.tasks.add(task)
            task.add_done_callback(conn.tasks.discard)
        elif request.type == "schema":
            await self._write(conn, await self.register_schema(request))
        elif request.type == "ping":
            await self._write(conn, [{"type": "pong", "id": request.id}])
        elif request.type == "stats":
            await self._write(conn, [
                {"type": "stats", "id": request.id, "stats": self.stats()}
            ])
        else:
            # flush and shutdown wait for this connection's decisions;
            # shutdown then closes the connection, never the gateway
            await self._drain_connection(conn)
            if request.type == "flush":
                await self._write(conn, [{"type": "ack", "id": request.id}])
            else:
                await self._write(conn, [{"type": "bye", "id": request.id}])
                return True
        return False

    async def _drain_connection(self, conn: _Connection) -> None:
        while conn.tasks:
            tasks = list(conn.tasks)
            await asyncio.gather(*tasks, return_exceptions=True)
            for task in tasks:
                conn.tasks.discard(task)

    async def _write(self, conn: _Connection, responses: list[dict]) -> None:
        if not responses or not conn.alive:
            return
        payload = "".join(encode_response(r) + "\n" for r in responses).encode()
        async with conn.write_lock:
            if not conn.alive:
                return
            try:
                conn.writer.write(payload)
                await conn.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                conn.alive = False
                conn.dropped = True

    async def _decide_and_write(self, conn: _Connection, model: DecideModel) -> None:
        _outcome, responses = await self.decide(model)
        await self._write(conn, responses)

    # ------------------------------------------------------------- #
    # core request path (shared by JSONL and HTTP facades)

    async def register_schema(self, model: SchemaModel) -> list[dict]:
        """Broadcast a schema registration to every shard."""
        self._ref_keys[model.ref] = self._schema_key(model.tbox)
        try:
            return await self.fleet.broadcast_schema(model.wire_line())
        except ShardUnavailable as exc:
            self.metrics.count("errors")
            return [error_response(model.id, f"shard unavailable: {exc}")]

    async def decide(self, model: DecideModel) -> tuple[str, list[dict]]:
        """Admit, route, dispatch one decision; returns
        ``(admission outcome, responses)``."""
        start = time.perf_counter()
        tenant = model.tenant
        if self._draining:
            self.metrics.count("gateway_drain_rejected")
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            self.metrics.observe_latency_ms(elapsed_ms, outcome=OUTCOME_REJECTED)
            return OUTCOME_REJECTED, [draining_response(model.id)]
        reason = self.admission.admit(tenant)
        if reason is not None:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            self.metrics.observe_latency_ms(elapsed_ms, outcome=OUTCOME_REJECTED)
            return OUTCOME_REJECTED, [overloaded_response(
                model.id, reason, tenant=tenant,
                retry_after_ms=self.admission.retry_after_ms(tenant) or None,
            )]
        shard_id = self._route(model)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queues[shard_id].push(tenant, (model.wire_line(), future))
        self._queue_events[shard_id].set()
        try:
            responses = await future
        finally:
            self.admission.release(tenant)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            self.metrics.observe_latency_ms(elapsed_ms, outcome=OUTCOME_ADMITTED)
        return OUTCOME_ADMITTED, responses

    @staticmethod
    def _schema_key(tbox: dict) -> str:
        return hashlib.sha256(
            json.dumps(tbox, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    def _route(self, model: DecideModel) -> int:
        """Shard index for a decision: schema fingerprint when there is a
        schema (cache locality), query text otherwise (load spreading)."""
        if model.schema_ref is not None:
            key = self._ref_keys.get(model.schema_ref)
            if key is None:
                # unknown ref: still deterministic — the shard will answer
                # the structured "unknown schema_ref" error
                key = f"ref:{model.schema_ref}"
        elif model.schema is not None:
            key = self._schema_key(model.schema)
        else:
            key = f"queries:{model.lhs}\x00{model.rhs}"
        base = self.fleet.shard_id_for(key)
        return self._route_healthy(base)

    def _route_healthy(self, base: int) -> int:
        """Steer around quarantined/dead shards: scan forward from the
        fingerprint's home shard to the first one taking traffic (schemas
        are broadcast to every shard, so any shard can serve any decision
        — the reroute costs cache locality, not correctness).  When no
        shard accepts, keep the home shard: it answers the structured
        ``shard unavailable`` error."""
        for offset in range(self.config.shards):
            candidate = (base + offset) % self.config.shards
            if (
                self.health[candidate].accepts_traffic()
                and not self.fleet.shards[candidate].dead
            ):
                if candidate != base:
                    self.metrics.count("gateway_rerouted")
                    self.metrics.shard_count(base, "rerouted_away")
                return candidate
        return base

    # ------------------------------------------------------------- #
    # dispatch

    async def _dispatch_loop(self, shard_id: int) -> None:
        """Drain shard ``shard_id``'s fair queue into its worker, keeping
        at most :data:`SHARD_PIPELINE` envelopes in flight."""
        queue = self._queues[shard_id]
        event = self._queue_events[shard_id]
        semaphore = asyncio.Semaphore(SHARD_PIPELINE)
        while True:
            await event.wait()
            # clear *before* draining: a push that lands mid-drain re-sets
            # the event, so no item can be stranded behind a lost wakeup
            event.clear()
            while True:
                popped = queue.pop()
                if popped is None:
                    break
                tenant, (line, future) = popped
                self.admission.dequeued(tenant)
                self.metrics.gauge_set(
                    f"gateway.fair_queue.{shard_id}", len(queue)
                )
                await semaphore.acquire()
                task = asyncio.ensure_future(
                    self._run_on_shard(shard_id, tenant, line, future)
                )
                task.add_done_callback(lambda _t: semaphore.release())

    async def _run_on_shard(
        self,
        shard_id: int,
        tenant: str,
        line: str,
        future: asyncio.Future,
    ) -> None:
        health = self.health[shard_id]
        overrides = health.overrides()
        if overrides:
            line = self._apply_overrides(line, overrides)
            self.metrics.shard_count(shard_id, "degraded_dispatch")
        try:
            faults.maybe_fault("gateway.dispatch")
            responses = await self.fleet.submit(shard_id, line)
        except faults.FaultInjected as exc:
            self.metrics.count("errors")
            responses = [error_response(None, f"gateway fault: {exc}")]
            health.record_failure("fault", str(exc))
        except ShardUnavailable as exc:
            self.metrics.count("errors")
            self.metrics.count("gateway_shard_unavailable")
            responses = [error_response(None, f"shard unavailable: {exc}")]
        except Exception as exc:  # the dispatch loop must never die
            self.metrics.count("errors")
            responses = [error_response(None, f"internal gateway error: {exc}")]
            health.record_failure("fault", str(exc))
        else:
            self._observe_shard_responses(health, responses)
        self.metrics.tenant_count(tenant, "responses")
        for response in responses:
            # per-tenant verdict provenance: which cache layer answered
            # (dedup / cache / semantic / computed) — the gateway-level
            # visibility the semantic cache's warm-shard win shows up in
            source = response.get("source")
            if response.get("type") == "verdict" and isinstance(source, str):
                self.metrics.tenant_count(tenant, f"verdicts_{source}")
                if source == "semantic":
                    self.metrics.tenant_count(tenant, "semcache_hits")
        if not future.done():
            future.set_result(responses)

    # ------------------------------------------------------------- #
    # health ladder

    @staticmethod
    def _apply_overrides(line: str, overrides: dict) -> str:
        """Merge degradation-ladder overrides into a decide wire line.

        Every ladder key (``semantic_cache``) is excluded from decision
        identity, so the rewritten request gets the same verdict — computed
        with less machinery."""
        try:
            data = json.loads(line)
        except ValueError:
            return line
        if not isinstance(data, dict) or data.get("type", "decide") != "decide":
            return line
        options = data.get("options")
        options = dict(options) if isinstance(options, dict) else {}
        options.update(overrides)
        data["options"] = options
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def _observe_shard_responses(
        self, health: ShardHealth, responses: list[dict]
    ) -> None:
        """Fold one dispatch's outcome into the shard's health machine.

        Only *shard-side* failures count against health: injected shard
        faults and audit failures (the scheduler's ``decision failed:
        audit failed`` error).  Client mistakes — unparseable queries,
        unknown ``schema_ref`` — are normal service and must not climb
        the ladder."""
        failed = False
        for response in responses:
            if response.get("type") != "error":
                continue
            message = response.get("error", "")
            if "audit failed" in message:
                health.record_failure("audit_failure", message)
                self.metrics.count("gateway_audit_failures")
                failed = True
            elif "shard fault" in message:
                health.record_failure("fault", message)
                failed = True
        if not failed:
            health.record_success()

    def _on_worker_loss(self, shard_id: int, dead: bool) -> None:
        """Fleet callback: a worker died (``dead`` once the respawn budget
        is exhausted — straight to quarantine, probes take it from there)."""
        health = self.health[shard_id]
        if dead:
            health.quarantine("respawn budget exhausted")
        else:
            health.record_failure("worker_loss")

    async def _health_loop(self) -> None:
        """Half-open recovery driver: each tick, any quarantined shard past
        its cooloff gets one probe — a cold worker respawn followed by a
        self-test pair of decisions with known answers."""
        while True:
            await asyncio.sleep(self.config.health_interval_s)
            for health in self.health:
                if health.state == QUARANTINED and health.allow_probe():
                    try:
                        ok = await self._probe_shard(health.shard_id)
                    except Exception:
                        ok = False
                    health.on_probe_result(ok)
                    self.metrics.shard_count(health.shard_id, "probes")
                    if ok:
                        self.metrics.shard_count(health.shard_id, "readmitted")
                        self.metrics.count("gateway_shard_readmissions")

    async def _probe_shard(self, shard_id: int) -> bool:
        """Cold-respawn a quarantined shard and self-test it: one known
        containment and one known non-containment must both come back
        complete and correct before the shard takes tenant traffic again."""
        try:
            await self.fleet.restart_shard(shard_id)
        except Exception:
            return False
        probes = (
            ({"type": "decide", "id": "probe-pos", "lhs": "A(x)", "rhs": "A(x)"}, True),
            ({"type": "decide", "id": "probe-neg", "lhs": "A(x)", "rhs": "B(x)"}, False),
        )
        for request, expected in probes:
            try:
                responses = await self.fleet.submit(
                    shard_id, json.dumps(request, sort_keys=True, separators=(",", ":"))
                )
            except Exception:
                return False
            if not self._probe_ok(responses, expected):
                return False
        return True

    @staticmethod
    def _probe_ok(responses: list[dict], expected: bool) -> bool:
        for response in responses:
            if response.get("type") == "verdict":
                verdict = response.get("verdict") or {}
                return (
                    verdict.get("contained") is expected
                    and verdict.get("complete") is True
                )
        return False

    # ------------------------------------------------------------- #
    # drain

    def begin_drain(self) -> None:
        """Stop admitting decide requests; in-flight work keeps running."""
        if not self._draining:
            self._draining = True
            self.metrics.count("gateway_drains")

    async def drain(self, timeout_s: float = 30.0) -> bool:
        """Graceful shutdown: reject new decisions, wait for in-flight ones
        to complete (and journal), then stop the gateway.  Returns True
        when everything in flight finished inside the timeout."""
        self.begin_drain()
        deadline = time.monotonic() + timeout_s
        while self.admission.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        drained = self.admission.inflight == 0
        await self.stop()
        return drained

    def readiness(self) -> tuple[bool, dict]:
        """The ``/v1/readyz`` payload: ready iff started, not draining, and
        at least one shard accepts traffic (liveness — ``/v1/healthz`` —
        stays true through a drain; readiness is what load balancers gate
        new traffic on)."""
        accepting = sum(
            1
            for i, health in enumerate(self.health)
            if health.accepts_traffic() and not self.fleet.shards[i].dead
        )
        ready = self._started and not self._draining and accepting > 0
        return ready, {
            "ready": ready,
            "started": self._started,
            "draining": self._draining,
            "shards_accepting": accepting,
            "shards": self.config.shards,
        }

    # ------------------------------------------------------------- #
    # stats

    def fair_dequeue_stats(self) -> dict:
        """Per-shard DRR queue statistics (the E23 fairness evidence)."""
        return {
            str(shard_id): queue.stats()
            for shard_id, queue in enumerate(self._queues)
        }

    def stats(self) -> dict:
        payload = self.metrics.snapshot()
        payload["gateway"] = {
            "shards": self.config.shards,
            "processes": self.config.processes,
            "inflight": self.admission.inflight,
            "fair_queues": self.fair_dequeue_stats(),
            "schema_refs": len(self._ref_keys),
            "draining": self._draining,
            "audit": self.config.audit,
            "health": [h.snapshot() for h in self.health],
        }
        return payload

    async def shard_stats(self) -> list[dict]:
        """Deep per-shard snapshots (one stats envelope per worker)."""
        return await self.fleet.stats()
