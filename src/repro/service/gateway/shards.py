"""The schema-sharded kernel worker fleet.

A :class:`ShardFleet` owns N *shard workers*, each a separate process (or
a thread in ``processes=False`` mode) running its own
:class:`repro.service.server.ContainmentServer` — its own schema sessions,
memos, and (when caching is on) its own journal segment under
``<cache_dir>/shard-<i>/``.  Decisions are routed by
**schema fingerprint** (:func:`shard_for`), so every decision against a
given TBox always lands on the shard whose sessions and memos are already
warm for it: hot schemas stay cache-local instead of thrashing across a
worker pool.

Transport is a socketpair speaking JSONL *envelopes*::

    → {"corr": 17, "op": "req", "req": "<one wire-protocol line>"}
    ← {"corr": 17, "responses": [<response dict>, ...]}

The worker handles each envelope with the transport-independent
``ContainmentServer.handle_line`` + an immediate scheduler drain, so one
envelope in yields exactly one envelope out carrying every response the
request produced (a ``decide`` answers with its verdict right away —
cross-request amortization still happens through the server's lifetime
dedup memo, session table, and journal).  ``op: "stats"`` envelopes
return the worker's full metrics snapshot for fleet-wide aggregation.

Fork hygiene: a forked worker inherits every file descriptor the gateway
process had open — including the *parent* ends of sibling shards'
socketpairs.  Left open, those copies would keep a sibling's stream alive
after its worker died, so the parent would never see the EOF that triggers
recovery.  Every worker therefore receives the list of foreign socketpair
fds and closes them before serving (thread mode shares the address space
and skips this).

Resilience reuses the PR 5 machinery:

* the worker loop passes a kill callback to the ``gateway.shard.handle``
  fault site, so a chaos plan can crash (``kill_worker``) or stall
  (``delay``) a shard deterministically;
* the parent watches each shard's stream — on EOF/reset it **respawns**
  the worker with capped exponential backoff, replays every schema
  registration the fleet has seen, and resubmits the envelopes that were
  in flight (decisions are deterministic, so a resubmit is safe), counted
  under ``shard_count(i, "respawns")``;
* after ``max_respawns`` losses the shard is marked dead and pending +
  future submissions fail with :class:`ShardUnavailable`, which the
  gateway answers as a structured error (degraded, never wedged).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import socket
import threading
from pathlib import Path
from typing import Optional, Union

from repro.resilience import faults
from repro.service.metrics import ServiceMetrics

_ENVELOPE_LIMIT = 16 * 1024 * 1024
"""Stream reader line limit for shard envelopes (a schema broadcast can
carry a few thousand CIs; verdict countermodels can be large)."""

RESPAWN_BACKOFF_S = 0.05
"""First respawn delay after a worker loss; it doubles per loss of the
same shard, capped at 1 s."""

KILL_SITE = "gateway.shard.handle"
"""Fault site fired by the worker loop around each envelope; its
``kill_worker`` action takes the whole worker down (``os._exit`` in
process mode, ``SystemExit`` in thread mode)."""


class ShardUnavailable(RuntimeError):
    """The target shard is dead (respawn budget exhausted) or stopping."""


def shard_for(key_material: str, count: int) -> int:
    """Deterministic shard index for a schema identity string.

    Stable across processes and runs (sha256, not ``hash()``), so a
    restarted gateway routes the same schema to the same shard and its
    journal segment."""
    if count <= 1:
        return 0
    digest = hashlib.sha256(key_material.encode()).digest()
    return int.from_bytes(digest[:8], "big") % count


def _shard_server(config: dict, shard_id: int):
    """Build the worker-side ContainmentServer from the fleet config."""
    from repro.service.server import ContainmentServer

    cache_dir = config.get("cache_dir")
    if cache_dir is not None:
        cache_dir = str(Path(cache_dir) / f"shard-{shard_id}")
    return ContainmentServer(
        cache_dir=cache_dir,
        use_cache=config.get("use_cache", False),
        default_timeout_ms=config.get("default_timeout_ms"),
        semantic_cache=config.get("semantic_cache", True),
        audit=config.get("audit", True),
    )


def _worker_loop(
    sock: socket.socket,
    shard_id: int,
    config: dict,
    close_fds: tuple[int, ...] = (),
) -> None:
    """The shard worker: envelopes in, envelopes out, until EOF.

    Runs in a forked process (process mode) or a daemon thread (inline
    mode).  Never lets a request error escape — ``handle_line`` already
    guarantees that — and treats a broken parent pipe as shutdown."""
    from repro.obs import PhaseAggregator, active_collector, install

    in_process = config.get("processes", True)
    if in_process:
        for fd in close_fds:
            try:
                os.close(fd)
            except OSError:
                pass

    server = _shard_server(config, shard_id)
    stream = server.new_stream()
    if in_process and active_collector() is None:
        install(PhaseAggregator())

    def _die() -> None:
        # the kill_worker fault action: vanish like a SIGKILLed process.
        # In inline (thread) mode exiting the process would take the test
        # runner with it, so the thread drops its socket and returns.
        if in_process:
            os._exit(1)
        sock.close()
        raise SystemExit

    reader = sock.makefile("r", encoding="utf-8")
    writer = sock.makefile("w", encoding="utf-8")
    try:
        for raw in reader:
            raw = raw.strip()
            if not raw:
                continue
            try:
                envelope = json.loads(raw)
                corr = envelope["corr"]
                op = envelope.get("op", "req")
            except (ValueError, KeyError, TypeError):
                continue  # a torn envelope has no corr to answer
            try:
                faults.maybe_fault(KILL_SITE, kill=_die)
            except faults.FaultInjected as exc:
                reply = {"corr": corr, "responses": [
                    {"type": "error", "error": f"shard fault: {exc}"}
                ]}
            else:
                if op == "stats":
                    reply = {"corr": corr, "stats": server.stats()}
                elif op == "ping":
                    reply = {"corr": corr, "responses": [{"type": "pong"}]}
                else:
                    responses, _stop = server.handle_line(envelope["req"], stream)
                    responses.extend(server.scheduler.drain())
                    reply = {"corr": corr, "responses": responses}
            try:
                writer.write(json.dumps(reply, sort_keys=True,
                                        separators=(",", ":")) + "\n")
                writer.flush()
            except (BrokenPipeError, ConnectionResetError, OSError):
                break
    except (SystemExit, KeyboardInterrupt):
        pass
    finally:
        for s in (writer, reader):
            try:
                s.close()
            except OSError:
                pass
        try:
            sock.close()
        except OSError:
            pass


class _Shard:
    """Parent-side handle on one worker: stream, pending futures, respawn
    bookkeeping.  All coroutine methods run on the gateway's event loop."""

    def __init__(self, fleet: "ShardFleet", shard_id: int) -> None:
        self.fleet = fleet
        self.id = shard_id
        self.parent_sock: Optional[socket.socket] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.pending: dict[int, tuple[asyncio.Future, dict]] = {}
        self.worker: Union[multiprocessing.Process, threading.Thread, None] = None
        self.respawns = 0
        self.dead = False
        self._reader_task: Optional[asyncio.Task] = None
        self._corr = 0
        self._write_lock = asyncio.Lock()

    # ------------------------------------------------------------- #
    # lifecycle

    async def _spawn(self) -> None:
        """Create the socketpair, launch the worker, open the stream."""
        parent, child = socket.socketpair()
        self.parent_sock = parent
        if self.fleet.processes:
            # the forked child inherits the parent ends of every sibling's
            # socketpair; hand it the list so it can close them (see the
            # module docstring on fork hygiene)
            foreign = tuple(
                s.parent_sock.fileno()
                for s in self.fleet.shards
                if s is not self and s.parent_sock is not None
            ) + (parent.fileno(),)
            ctx = multiprocessing.get_context("fork")
            self.worker = ctx.Process(
                target=_worker_loop,
                args=(child, self.id, self.fleet.worker_config, foreign),
                daemon=True,
                name=f"repro-shard-{self.id}",
            )
            self.worker.start()
            child.close()
        else:
            self.worker = threading.Thread(
                target=_worker_loop,
                args=(child, self.id, self.fleet.worker_config),
                daemon=True,
                name=f"repro-shard-{self.id}",
            )
            self.worker.start()
        self.reader, self.writer = await asyncio.open_connection(
            sock=parent, limit=_ENVELOPE_LIMIT
        )

    async def start(self) -> None:
        await self._spawn()
        self._reader_task = asyncio.ensure_future(self._read_loop())

    async def stop(self) -> None:
        self.dead = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        self._close_stream()
        worker = self.worker
        loop = asyncio.get_running_loop()
        # join off-loop: a blocking join here would also stop the transport
        # close from ever reaching the worker as EOF
        if isinstance(worker, multiprocessing.Process):
            await loop.run_in_executor(None, worker.join, 5)
            if worker.is_alive():
                worker.terminate()
                await loop.run_in_executor(None, worker.join, 5)
        elif isinstance(worker, threading.Thread):
            await loop.run_in_executor(None, worker.join, 5)
        self._fail_pending(ShardUnavailable(f"shard {self.id} stopped"))

    def _close_stream(self) -> None:
        if self.writer is not None:
            try:
                self.writer.close()
            except Exception:
                pass
        if self.parent_sock is not None:
            # close the fd *now*, not on the next loop iteration: the worker
            # (thread or process) unblocks on EOF immediately
            try:
                self.parent_sock.close()
            except OSError:
                pass
        self.reader = None
        self.writer = None
        self.parent_sock = None

    # ------------------------------------------------------------- #
    # I/O

    async def submit(self, op: str, payload: Optional[str] = None) -> dict:
        """Send one envelope; resolves with the reply envelope dict."""
        if self.dead:
            raise ShardUnavailable(f"shard {self.id} is unavailable")
        self._corr += 1
        corr = self._corr
        envelope = {"corr": corr, "op": op}
        if payload is not None:
            envelope["req"] = payload
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.pending[corr] = (future, envelope)
        await self._write(envelope)
        return await future

    async def _write(self, envelope: dict) -> None:
        line = json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"
        async with self._write_lock:
            if self.writer is None:
                return  # the read loop will respawn and resubmit
            try:
                self.writer.write(line.encode())
                await self.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass  # EOF surfaces in the read loop, which handles recovery

    async def _read_loop(self) -> None:
        while True:
            reader = self.reader
            if reader is None:
                return
            try:
                raw = await reader.readline()
            except (ConnectionResetError, BrokenPipeError, OSError, ValueError):
                raw = b""
            if not raw:
                if self.dead:
                    return
                await self._recover()
                if self.dead:
                    return
                continue
            try:
                reply = json.loads(raw)
                corr = reply["corr"]
            except (ValueError, KeyError, TypeError):
                continue
            entry = self.pending.pop(corr, None)
            if entry is None:
                continue
            future, _envelope = entry
            if not future.done():
                future.set_result(reply)

    # ------------------------------------------------------------- #
    # recovery

    async def _recover(self) -> None:
        """The worker died: respawn (bounded), replay schemas, resubmit."""
        self._close_stream()
        worker = self.worker
        if isinstance(worker, multiprocessing.Process):
            worker.join(timeout=5)
        self._reconcile_fault_accounting()
        self.respawns += 1
        metrics = self.fleet.metrics
        metrics.shard_count(self.id, "respawns")
        metrics.count("gateway_shard_respawns")
        if self.respawns > self.fleet.max_respawns:
            self.dead = True
            metrics.shard_count(self.id, "dead")
            self._notify_loss(dead=True)
            self._fail_pending(
                ShardUnavailable(
                    f"shard {self.id} lost {self.respawns} times; giving up"
                )
            )
            return
        self._notify_loss(dead=False)
        backoff = min(1.0, RESPAWN_BACKOFF_S * (2 ** (self.respawns - 1)))
        await asyncio.sleep(backoff)
        await self._spawn()
        # a fresh worker has no sessions: replay every schema registration
        # (fire-and-forget envelopes with fresh corrs not tracked in
        # pending — their acks are dropped by the read loop)
        for line in self.fleet.schema_log:
            self._corr += 1
            await self._write({"corr": self._corr, "op": "req", "req": line})
        # resubmit everything that was in flight when the worker died
        for corr, (_future, envelope) in sorted(self.pending.items()):
            await self._write(envelope)

    def _notify_loss(self, dead: bool) -> None:
        try:
            self.fleet.on_worker_loss(self.id, dead)
        except Exception:  # health bookkeeping must never break recovery
            pass

    async def restart(self) -> None:
        """Cold respawn for a quarantine-recovery probe: discard whatever
        worker (or corpse) is attached, reset the respawn budget, replay
        the schema log, and resubmit anything still pending.  Unlike
        :meth:`_recover` this also revives a shard already marked dead —
        the health state machine decides *when* to re-admit it, based on
        the self-test the gateway runs against the fresh worker."""
        self.dead = True  # park the read loop / reject submits mid-restart
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        self._close_stream()
        worker = self.worker
        loop = asyncio.get_running_loop()
        if isinstance(worker, multiprocessing.Process):
            if worker.is_alive():
                worker.terminate()
            await loop.run_in_executor(None, worker.join, 5)
        elif isinstance(worker, threading.Thread):
            # a thread worker exits on its socket's EOF (already closed)
            await loop.run_in_executor(None, worker.join, 5)
        self.respawns = 0
        self.dead = False
        await self._spawn()
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self.fleet.metrics.shard_count(self.id, "cold_restarts")
        for line in self.fleet.schema_log:
            self._corr += 1
            await self._write({"corr": self._corr, "op": "req", "req": line})
        for _corr, (_future, envelope) in sorted(self.pending.items()):
            await self._write(envelope)

    def _reconcile_fault_accounting(self) -> None:
        """Mirror a kill-site firing into the parent's fault plan.

        A forked worker fires ``gateway.shard.handle`` against its *copy*
        of the plan and dies with that accounting, so the next fork would
        inherit the rule unfired and re-kill forever even with ``times=1``.
        The parent observes the death and replays the bookkeeping, so
        bounded kill rules stay bounded across respawns (``times=-1``
        still kills every incarnation, by design)."""
        plan = faults.active_plan()
        if plan is None:
            return
        rule = plan.rules.get(KILL_SITE)
        if rule is not None and not rule.exhausted():
            rule.hits += 1
            rule.fired += 1

    def _fail_pending(self, error: Exception) -> None:
        pending, self.pending = self.pending, {}
        for future, _envelope in pending.values():
            if not future.done():
                future.set_exception(
                    error if isinstance(error, ShardUnavailable)
                    else ShardUnavailable(str(error))
                )


class ShardFleet:
    """N shard workers + the routing table over them."""

    def __init__(
        self,
        count: int = 2,
        *,
        on_worker_loss,
        processes: bool = True,
        cache_dir: Union[None, str, Path] = None,
        use_cache: bool = False,
        default_timeout_ms: Optional[int] = None,
        semantic_cache: bool = True,
        audit: bool = True,
        metrics: Optional[ServiceMetrics] = None,
        max_respawns: int = 5,
    ) -> None:
        if count < 1:
            raise ValueError("a fleet needs at least one shard")
        self.count = count
        self.processes = processes
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.max_respawns = max_respawns
        self.on_worker_loss = on_worker_loss
        """``(shard_id, dead: bool)`` callback invoked on the event loop
        every time a worker is lost — the gateway's health state machine."""
        self.worker_config = {
            "cache_dir": str(cache_dir) if cache_dir is not None else None,
            "use_cache": use_cache,
            "default_timeout_ms": default_timeout_ms,
            "semantic_cache": semantic_cache,
            "audit": audit,
            "processes": processes,
        }
        self.schema_log: list[str] = []
        """Every schema-registration wire line ever broadcast, replayed
        into respawned workers so ``schema_ref`` survives a crash."""
        self.shards = [_Shard(self, i) for i in range(count)]
        self.started = False

    async def start(self) -> None:
        for shard in self.shards:
            await shard.start()
        self.started = True

    async def stop(self) -> None:
        self.started = False
        for shard in self.shards:
            await shard.stop()

    # ------------------------------------------------------------- #
    # routing + submission

    def shard_id_for(self, key_material: str) -> int:
        return shard_for(key_material, self.count)

    async def restart_shard(self, shard_id: int) -> None:
        """Cold-respawn one shard (see :meth:`_Shard.restart`)."""
        await self.shards[shard_id].restart()

    async def submit(self, shard_id: int, request_line: str) -> list[dict]:
        """Run one wire-protocol line on a shard; returns its responses."""
        shard = self.shards[shard_id]
        self.metrics.shard_count(shard_id, "dispatched")
        reply = await shard.submit("req", request_line)
        self.metrics.shard_count(shard_id, "completed")
        return reply.get("responses", [])

    async def broadcast_schema(self, request_line: str) -> list[dict]:
        """Register a schema on every shard (so ``schema_ref`` resolves
        wherever later decisions land); returns shard 0's responses."""
        self.schema_log.append(request_line)
        replies = await asyncio.gather(
            *(shard.submit("req", request_line) for shard in self.shards)
        )
        return replies[0].get("responses", [])

    async def stats(self) -> list[dict]:
        """Per-shard metrics snapshots (dead shards report ``None``)."""
        snapshots = []
        for shard in self.shards:
            if shard.dead:
                snapshots.append({"shard": shard.id, "stats": None,
                                  "respawns": shard.respawns})
                continue
            try:
                reply = await shard.submit("stats")
                snapshots.append({"shard": shard.id,
                                  "stats": reply.get("stats"),
                                  "respawns": shard.respawns})
            except ShardUnavailable:
                snapshots.append({"shard": shard.id, "stats": None,
                                  "respawns": shard.respawns})
        return snapshots
