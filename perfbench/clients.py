"""Clients for the two serving entry points: the sequential server's pipe
transport (``repro serve`` on stdin/stdout, what ``repro batch`` runs) and
the gateway (``repro serve --tcp/--http``), plus process helpers.

Every process started here is stopped and waited for by its owner.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULTS", None)
    # a pinned hash seed keeps set/dict iteration — and so the chase's
    # search order — identical across runs; the workload seed varies inputs
    env["PYTHONHASHSEED"] = "0"
    return env


def popen(args: list, **kwargs) -> subprocess.Popen:
    """Start a benchmark child process in the checkout with ``child_env``."""
    return subprocess.Popen(args, env=child_env(), cwd=str(ROOT), **kwargs)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, in MB (0 when unreadable)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(p) for p in text.split()]


def set_affinity(pid: int, cpus: set) -> None:
    """Pin every thread of process ``pid`` to ``cpus``."""
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            os.sched_setaffinity(int(task.name), cpus)
        except OSError:
            pass


def stop(proc: subprocess.Popen, sig: int = signal.SIGTERM, timeout: float = 10.0) -> None:
    """Signal ``proc`` and wait for it; kill it if it lingers."""
    if proc.poll() is None:
        try:
            proc.send_signal(sig)
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass


# --------------------------------------------------------------------- #
# sequential server over its pipe transport


def schema_line(ref: str, tbox) -> str:
    from repro.io import tbox_to_dict

    return json.dumps({"type": "schema", "id": f"schema-{ref}", "ref": ref, "tbox": tbox_to_dict(tbox)})


class PipeServer:
    """One ``repro serve`` process (pipe mode) driven as a closed loop."""

    def __init__(self, cache_dir: Path, files: Path, spans: Optional[Path] = None) -> None:
        """``spans``: trace the server and append its spans to this file."""
        self.metrics_json = files / "server-metrics.json"
        self.rss_json = files / "server-rss.json"
        cfg = {
            "cache_dir": str(cache_dir), "metrics_json": str(self.metrics_json),
            "rss_json": str(self.rss_json), "trace": spans is not None, "spans": str(spans),
        }
        self.started = time.perf_counter()
        self.proc = popen(
            [sys.executable, str(HERE / "worker.py"), "server", json.dumps(cfg)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, bufsize=1,
        )

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited: {self.proc.stderr.read()[-2000:]}")
        return json.loads(line)

    def register(self, schemas: dict) -> float:
        """Register every schema, then ping; returns seconds from process
        start until the pong (the set-up time)."""
        for ref, tbox in schemas.items():
            self.proc.stdin.write(schema_line(ref, tbox) + "\n")
            self.proc.stdin.flush()
            reply = self._read()
            if reply.get("type") != "ack":
                raise RuntimeError(f"schema {ref} refused: {reply}")
        self.proc.stdin.write('{"type":"ping","id":"ready"}\n')
        self.proc.stdin.flush()
        if self._read().get("type") != "pong":
            raise RuntimeError("no pong")
        return time.perf_counter() - self.started

    def decide(self, request: dict) -> dict:
        """One closed-loop request: decide + flush, then its one response."""
        self.proc.stdin.write(json.dumps(request) + '\n{"type":"flush"}\n')
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        """Shut down and wait; returns ``{"metrics": ..., "rss": ...}``."""
        try:
            self.proc.stdin.write('{"type":"shutdown","id":"bye"}\n')
            self.proc.stdin.flush()
            self._read()
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        finally:
            stop(self.proc)
        return {
            "metrics": json.loads(self.metrics_json.read_text()),
            "rss": json.loads(self.rss_json.read_text()),
        }


# --------------------------------------------------------------------- #
# gateway


_BANNER = re.compile(r"tcp:([\d.]+):(\d+).*http:([\d.]+):(\d+)")


class Gateway:
    """``repro serve --tcp --http`` with ``shards`` shard processes."""

    def __init__(self, cache_dir: Path, shards: int) -> None:
        self.started = time.perf_counter()
        self.proc = popen(
            [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
             "--http", "127.0.0.1:0", "--shards", str(shards), "--cache-dir", str(cache_dir)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        line = self.proc.stderr.readline()
        match = _BANNER.search(line)
        if match is None:
            stop(self.proc)
            raise RuntimeError(f"gateway did not start: {line!r}")
        self.tcp = (match.group(1), int(match.group(2)))
        self.http = (match.group(3), int(match.group(4)))

    def peak_rss_mb(self) -> float:
        """Gateway process plus its shard processes."""
        pids = [self.proc.pid] + child_pids(self.proc.pid)
        return sum(vm_hwm_mb(pid) for pid in pids)

    def pin(self, cpus: set) -> None:
        """Pin the gateway process and its shard processes (every thread of
        each) to ``cpus``."""
        for pid in [self.proc.pid] + child_pids(self.proc.pid):
            set_affinity(pid, cpus)

    def http_request(self, method: str, path: str, body: Optional[dict] = None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(*self.http, timeout=60)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def close(self) -> None:
        stop(self.proc, signal.SIGTERM, timeout=15)


async def jsonl_roundtrip(tcp: tuple, lines: list[str]) -> list[dict]:
    """Send ``lines`` on one connection, then ``shutdown``; every response."""
    reader, writer = await asyncio.open_connection(*tcp)
    try:
        writer.write(("\n".join(lines) + '\n{"type":"shutdown","id":"bye"}\n').encode())
        await writer.drain()
        out = []
        while True:
            raw = await reader.readline()
            if not raw:
                break
            response = json.loads(raw)
            if response.get("type") == "bye":
                break
            out.append(response)
        return out
    finally:
        writer.close()
        await writer.wait_closed()


TICK_GAP_S = 0.003
"""Least time left before the next send for a reference block to run (and
it runs only while no request is in flight)."""


async def open_loop(tcp: tuple, schedule: list[tuple], conns: int, spans=None, cal=None) -> dict:
    """Send ``schedule`` — ``(due_s, tenant_index, request_dict)`` sorted by
    due time — over ``conns`` pipelined connections, each request at its
    due time regardless of replies.  Each latency runs from the due time to
    the reply.  ``cal``: a ``calib.Calibrator`` ticked in the gaps between
    sends while every request sent has its reply.  Returns per-request
    records, due times and the generator's lag."""
    streams = [await asyncio.open_connection(*tcp) for _ in range(conns)]
    due: dict = {}
    sent_at: dict = {}
    replies: dict = {}
    lags: list = []
    pending = {"n": len(schedule)}
    done = asyncio.Event()
    if not schedule:
        done.set()
    idle = asyncio.Event()
    """Set while every request sent has its reply."""
    idle.set()

    async def read_loop(reader):
        while not done.is_set():
            raw = await reader.readline()
            if not raw:
                return
            now = time.perf_counter()
            response = json.loads(raw)
            rid = response.get("id")
            if rid in due and rid not in replies:
                replies[rid] = (now, response)
                if len(replies) == len(due):
                    idle.set()
                pending["n"] -= 1
                if pending["n"] == 0:
                    done.set()

    readers = [asyncio.ensure_future(read_loop(r)) for r, _ in streams]
    t0 = time.perf_counter() + 0.05
    for due_s, conn_index, request in schedule:
        at = t0 + due_s
        if cal is not None and cal.due() and at - time.perf_counter() > TICK_GAP_S:
            try:
                await asyncio.wait_for(idle.wait(), at - TICK_GAP_S - time.perf_counter())
            except asyncio.TimeoutError:
                pass
            if idle.is_set() and at - time.perf_counter() >= TICK_GAP_S:
                cal.tick()
        delay = at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        now = time.perf_counter()
        lags.append(max(0.0, now - at) * 1000.0)
        rid = request["id"]
        due[rid] = at
        idle.clear()
        sent_at[rid] = now
        if spans is not None:
            spans.records.append(("loadgen.send", at, now, -1, rid, now - at, {}))
        writer = streams[conn_index % conns][1]
        writer.write((json.dumps(request) + "\n").encode())
    for _, writer in streams:
        await writer.drain()
    send_end = time.perf_counter() - t0
    try:
        await asyncio.wait_for(done.wait(), timeout=120)
    except asyncio.TimeoutError:
        pass
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _, writer in streams:
        writer.close()
    for _, writer in streams:
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    records = []
    for _, _, request in schedule:
        rid = request["id"]
        got = replies.get(rid)
        if got is None:
            records.append((rid, None, None))
            continue
        records.append((rid, (got[0] - due[rid]) * 1000.0, got[1]))
        if spans is not None:
            spans.records.append(("gateway.request", due[rid], got[0], -1, rid, got[0] - due[rid], {}))
    return {"records": records, "due": due, "lag_ms": lags, "send_s": send_end}
