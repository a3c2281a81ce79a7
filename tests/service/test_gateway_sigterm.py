"""SIGTERM graceful drain against a real ``repro serve`` gateway process:
in-flight decisions complete and journal, new requests get the structured
``draining`` rejection, and the process exits 0."""

import asyncio
import json
import os
import signal
import subprocess
import sys

import pytest

pytestmark = pytest.mark.gateway_mp

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def serve(tmp_path, listener, extra_env=None):
    """``repro serve`` with one forked shard on ``listener`` (CLI flags)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env.pop("REPRO_FAULTS", None)
    if extra_env:
        env.update(extra_env)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", *listener,
            "--shards", "1", "--cache-dir", str(tmp_path / "cache"),
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )


def start_gateway(tmp_path, extra_env=None):
    proc = serve(tmp_path, ["--tcp", "127.0.0.1:0"], extra_env)
    line = proc.stderr.readline()
    # the CLI prints "repro gateway: 1 shard(s) on tcp:127.0.0.1:PORT"
    assert "tcp:" in line, f"unexpected gateway banner: {line!r}"
    port = int(line.rsplit(":", 1)[1])
    return proc, port


async def jsonl(port):
    return await asyncio.open_connection("127.0.0.1", port)


async def ask(reader, writer, obj, timeout=30):
    writer.write((json.dumps(obj) + "\n").encode())
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=timeout)
    assert line, "connection closed unexpectedly"
    return json.loads(line)


def test_sigterm_drains_journals_and_exits_zero(tmp_path):
    # a one-shot delay in the shard's scheduler keeps one decision in
    # flight long enough to observe the drain window deterministically
    proc, port = start_gateway(
        tmp_path, {"REPRO_FAULTS": "scheduler.dispatch:delay:1:1.0"}
    )

    async def scenario():
        reader, writer = await jsonl(port)
        # in-flight decision (delayed ~1s inside the worker)
        writer.write((json.dumps({
            "type": "decide", "id": "slow", "lhs": "A(x)", "rhs": "B(x)",
        }) + "\n").encode())
        await writer.drain()
        await asyncio.sleep(0.3)  # let it reach the shard
        proc.send_signal(signal.SIGTERM)
        await asyncio.sleep(0.1)
        # a second client arriving mid-drain is rejected, structured
        reader2, writer2 = await jsonl(port)
        late = await ask(reader2, writer2, {
            "type": "decide", "id": "late", "lhs": "A(x)", "rhs": "A(x)",
        })
        assert late["type"] == "error"
        assert late["code"] == "draining"
        writer2.close()
        # the in-flight decision still answers with its verdict
        line = await asyncio.wait_for(reader.readline(), timeout=30)
        slow = json.loads(line)
        assert slow["type"] == "verdict"
        assert slow["id"] == "slow"
        assert slow["verdict"]["contained"] is False
        writer.close()

    asyncio.run(scenario())
    assert proc.wait(timeout=30) == 0
    proc.stderr.close()
    # the drained decision was journaled before exit
    journal = tmp_path / "cache" / "shard-0" / "decisions.jsonl"
    assert journal.exists()
    entries = [json.loads(line) for line in journal.read_text().splitlines()]
    assert any(entry["verdict"]["contained"] is False for entry in entries)


def test_sigint_still_stops_promptly(tmp_path):
    proc, port = start_gateway(tmp_path)

    async def scenario():
        reader, writer = await jsonl(port)
        verdict = await ask(reader, writer, {
            "type": "decide", "id": "d", "lhs": "A(x)", "rhs": "A(x)",
        })
        assert verdict["verdict"]["contained"] is True
        writer.close()

    asyncio.run(scenario())
    proc.send_signal(signal.SIGINT)
    assert proc.wait(timeout=30) == 0
    proc.stderr.close()


def test_idle_sigterm_drain_exits_zero(tmp_path):
    """A drain with nothing in flight exits 0 promptly."""
    proc, _port = start_gateway(tmp_path)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0
    proc.stderr.close()


def test_serve_socket_alone_is_the_gateway_and_drains(tmp_path):
    """``repro serve --socket PATH`` with no other listener flag starts the
    gateway's unix listener: it answers a decide that SIGTERM caught in
    flight (drain), exits 0, and the exit removes the socket file."""
    path = tmp_path / "repro.sock"
    # a one-shot delay holds the first decision in the shard while the
    # process is told to stop
    proc = serve(
        tmp_path, ["--socket", str(path)],
        {"REPRO_FAULTS": "scheduler.dispatch:delay:1:1.0"},
    )

    async def scenario():
        reader, writer = await asyncio.open_unix_connection(str(path))
        writer.write((json.dumps({
            "type": "decide", "id": "slow", "lhs": "A(x)", "rhs": "B(x)",
        }) + "\n").encode())
        await writer.drain()
        await asyncio.sleep(0.3)
        proc.send_signal(signal.SIGTERM)
        slow = json.loads(await asyncio.wait_for(reader.readline(), timeout=30))
        assert slow["type"] == "verdict" and slow["id"] == "slow"
        assert slow["verdict"]["contained"] is False
        writer.close()

    try:
        banner = proc.stderr.readline()
        assert banner.strip() == f"repro gateway: 1 shard(s) on unix:{path}"
        asyncio.run(scenario())
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert not path.exists()
