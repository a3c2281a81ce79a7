"""The gateway's unix listener on startup: a stale socket file is
reclaimed, anything else at the path is refused and left untouched."""

import asyncio
import json
import socket
import threading

import pytest

from repro.service.gateway import GatewayConfig, GatewayServer


def _gateway():
    return GatewayServer(GatewayConfig(shards=1, processes=False))


def _stale_socket(path):
    """A socket file left behind by a server that crashed without
    unlinking it."""
    crashed = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    crashed.bind(str(path))
    crashed.close()
    assert path.exists()


def _serve_and_ping(gateway, path):
    """Start ``gateway`` with a unix listener at ``path``, ping it over a
    client connection, stop it; returns the pong."""

    async def scenario():
        await gateway.start()
        try:
            await gateway.start_unix(path)
            reader, writer = await asyncio.open_unix_connection(str(path))
            writer.write(b'{"type": "ping", "id": "p"}\n')
            await writer.drain()
            pong = json.loads(await asyncio.wait_for(reader.readline(), 30))
            writer.close()
            await writer.wait_closed()
            return pong
        finally:
            await gateway.stop()

    return asyncio.run(scenario())


def test_stale_socket_file_is_reclaimed(tmp_path):
    path = tmp_path / "repro.sock"
    _stale_socket(path)
    gateway = _gateway()
    assert _serve_and_ping(gateway, path) == {"type": "pong", "id": "p"}
    assert gateway.metrics.counter("stale_socket_removed") == 1
    # a clean stop leaves no socket file behind
    assert not path.exists()


def test_regular_file_at_socket_path_is_refused(tmp_path):
    path = tmp_path / "precious.txt"
    path.write_bytes(b"not a socket\n")
    with pytest.raises(OSError, match="not a socket"):
        asyncio.run(_gateway().start_unix(path))
    # the refusal must leave the file untouched
    assert path.read_bytes() == b"not a socket\n"


def test_losing_the_unlink_race_is_success(tmp_path, monkeypatch):
    """Another server unlinking between our lstat and unlink is fine.

    Deterministic replay of the race: the rival's unlink is injected right
    before ours, so ours raises ``FileNotFoundError`` — which must count as
    success (the stale file is gone either way), not fail startup."""
    from pathlib import Path

    path = tmp_path / "contested.sock"
    _stale_socket(path)
    original_unlink = Path.unlink

    def racing_unlink(self, *args, **kwargs):
        original_unlink(self, *args, **kwargs)  # the rival wins the race
        return original_unlink(self, *args, **kwargs)  # ours: file is gone

    gateway = _gateway()

    async def scenario():
        monkeypatch.setattr(Path, "unlink", racing_unlink)
        try:
            server = await gateway.start_unix(path)
        finally:
            monkeypatch.undo()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())
    # losing the race is not a reclaim: the counter stays untouched
    assert gateway.metrics.counter("stale_socket_removed") == 0


def test_two_servers_reclaiming_the_same_stale_socket(tmp_path):
    """Two gateways starting on the same path: neither may crash on the
    lstat → unlink window, whatever the interleaving."""
    path = tmp_path / "contested.sock"
    gateways = [_gateway(), _gateway()]
    for _ in range(25):
        _stale_socket(path)
        barrier = threading.Barrier(2)
        errors = []

        def reclaim(gateway):
            barrier.wait()
            try:
                gateway._remove_stale_socket(path)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [
            threading.Thread(target=reclaim, args=(gateway,))
            for gateway in gateways
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert not path.exists()


def test_missing_socket_path_is_fine(tmp_path):
    path = tmp_path / "fresh.sock"
    gateway = _gateway()
    assert _serve_and_ping(gateway, path)["type"] == "pong"
    assert gateway.metrics.counter("stale_socket_removed") == 0
    assert not path.exists()
