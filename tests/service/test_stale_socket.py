"""Crash recovery on socket startup: stale socket files are reclaimed."""

import json
import socket
import threading

import pytest

from repro.service.server import ContainmentServer


def _server():
    return ContainmentServer(use_cache=False)


def _talk(path, requests):
    for _ in range(200):
        try:
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(str(path))
            break
        except (FileNotFoundError, ConnectionRefusedError):
            client.close()
            threading.Event().wait(0.01)
    else:
        raise AssertionError("server socket never came up")
    with client:
        client.sendall(
            ("\n".join(json.dumps(r) for r in requests) + "\n").encode()
        )
        client.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := client.recv(65536):
            data += chunk
    return [json.loads(line) for line in data.decode().splitlines()]


def test_stale_socket_file_is_reclaimed(tmp_path):
    path = tmp_path / "repro.sock"
    # a previous server that crashed without unlinking its socket
    crashed = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    crashed.bind(str(path))
    crashed.close()
    assert path.exists()

    server = _server()
    thread = threading.Thread(target=server.serve_socket, args=(path,), daemon=True)
    thread.start()
    responses = _talk(path, [
        {"type": "ping", "id": "p"},
        {"type": "shutdown", "id": "end"},
    ])
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert [r["type"] for r in responses] == ["pong", "bye"]
    assert server.metrics.counter("stale_socket_removed") == 1


def test_regular_file_at_socket_path_is_refused(tmp_path):
    path = tmp_path / "precious.txt"
    path.write_text("not a socket\n")
    with pytest.raises(OSError, match="not a socket"):
        _server().serve_socket(path)
    # the refusal must leave the file untouched
    assert path.read_text() == "not a socket\n"


def test_losing_the_unlink_race_is_success(tmp_path, monkeypatch):
    """Another server unlinking between our lstat and unlink is fine.

    Deterministic replay of the race: the rival's unlink is injected right
    before ours, so ours raises ``FileNotFoundError`` — which must count as
    success (the stale file is gone either way), not crash startup."""
    from pathlib import Path

    path = tmp_path / "contested.sock"
    stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    stale.bind(str(path))
    stale.close()

    original_unlink = Path.unlink

    def racing_unlink(self, *args, **kwargs):
        original_unlink(self, *args, **kwargs)  # the rival wins the race
        return original_unlink(self, *args, **kwargs)  # ours: file is gone

    monkeypatch.setattr(Path, "unlink", racing_unlink)
    server = _server()
    server._remove_stale_socket(path)
    monkeypatch.undo()

    assert not path.exists()
    # losing the race is not a reclaim: the counter stays untouched
    assert server.metrics.counter("stale_socket_removed") == 0


def test_two_servers_reclaiming_the_same_stale_socket(tmp_path):
    """Two servers starting on the same path: neither may crash on the
    lstat → unlink window, whatever the interleaving."""
    path = tmp_path / "contested.sock"
    servers = [_server(), _server()]
    for _ in range(25):
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(str(path))
        stale.close()
        barrier = threading.Barrier(2)
        errors = []

        def reclaim(server):
            barrier.wait()
            try:
                server._remove_stale_socket(path)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [
            threading.Thread(target=reclaim, args=(server,))
            for server in servers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert not path.exists()


def test_missing_socket_path_is_fine(tmp_path):
    path = tmp_path / "fresh.sock"
    server = _server()
    thread = threading.Thread(target=server.serve_socket, args=(path,), daemon=True)
    thread.start()
    responses = _talk(path, [{"type": "shutdown", "id": "end"}])
    thread.join(timeout=10)
    assert responses[-1]["type"] == "bye"
    assert server.metrics.counter("stale_socket_removed") == 0
