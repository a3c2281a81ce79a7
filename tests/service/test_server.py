"""The wire transports: pipe conversations and the unix socket listener."""

import asyncio
import io
import json

from repro.dl.tbox import TBox
from repro.io import tbox_to_dict
from repro.service.gateway import GatewayConfig, GatewayServer
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.server import ContainmentServer


def _tbox_dict():
    return tbox_to_dict(
        TBox.of(
            [("Customer", "forall owns.CredCard"), ("Customer", "exists owns.CredCard")],
            name="cards",
        )
    )


def _pipe(server, requests):
    out = io.StringIO()
    server.serve_pipe(
        io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n"), out
    )
    return [json.loads(line) for line in out.getvalue().splitlines()]


def _server(tmp_path=None):
    return ContainmentServer(cache_dir=tmp_path, use_cache=tmp_path is not None)


class TestPipeMode:
    def test_conversation(self, tmp_path):
        responses = _pipe(_server(tmp_path), [
            {"type": "ping", "id": "p"},
            {"type": "schema", "ref": "s1", "tbox": _tbox_dict()},
            {"type": "decide", "id": "a", "lhs": "Customer(x), owns(x,y)",
             "rhs": "owns(x,y), CredCard(y)", "schema_ref": "s1"},
            {"type": "decide", "id": "b", "lhs": "owns(x,y)", "rhs": "CredCard(y)"},
            {"type": "stats", "id": "st"},
            {"type": "shutdown", "id": "end"},
        ])
        kinds = [r["type"] for r in responses]
        assert kinds == ["pong", "ack", "stats", "verdict", "verdict", "bye"]
        verdicts = {r["id"]: r for r in responses if r["type"] == "verdict"}
        assert verdicts["a"]["verdict"]["contained"] is True
        assert verdicts["b"]["verdict"]["contained"] is False
        assert verdicts["b"]["verdict"]["countermodel"] is not None

    def test_eof_is_implicit_flush(self):
        responses = _pipe(_server(), [
            {"type": "decide", "id": "a", "lhs": "A(x)", "rhs": "A(x); B(x)"},
        ])
        assert responses[-1]["type"] == "verdict"
        assert responses[-1]["verdict"]["contained"] is True

    def test_flush_mid_stream(self):
        responses = _pipe(_server(), [
            {"type": "decide", "id": "a", "lhs": "A(x)", "rhs": "A(x)"},
            {"type": "flush"},
            {"type": "decide", "id": "b", "lhs": "B(x)", "rhs": "B(x)"},
        ])
        assert [r.get("id") for r in responses] == ["a", "b"]

    def test_malformed_lines_answer_errors_and_continue(self):
        server = _server()
        out = io.StringIO()
        server.serve_pipe(
            io.StringIO(
                "this is not json\n"
                '{"type": "decide", "id": "ok", "lhs": "A(x)", "rhs": "A(x)"}\n'
            ),
            out,
        )
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert responses[0]["type"] == "error"
        assert responses[1]["type"] == "verdict" and responses[1]["id"] == "ok"
        assert server.metrics.counter("errors") == 1

    def test_validation_error_keeps_the_request_id(self):
        responses = _pipe(_server(), [
            {"id": "x", "lhs": "A(x)", "rhs": "B(x)", "options": {"workers": 2}},
        ])
        assert responses == [
            {"type": "error", "id": "x", "error": "unknown options: workers"}
        ]

    def test_backend_option_is_unknown_and_keeps_the_request_id(self):
        responses = _pipe(_server(), [
            {"id": "b", "lhs": "A(x)", "rhs": "B(x)", "options": {"backend": "vec"}},
            {"id": "ok", "lhs": "A(x)", "rhs": "B(x)"},
        ])
        assert responses[0] == {
            "type": "error", "id": "b", "error": "unknown options: backend",
        }
        assert responses[1]["type"] == "verdict" and responses[1]["id"] == "ok"

    def test_uncertified_sparse_trues_answer_incomplete(self):
        forall_chain = TBox.of([
            ("A", "forall r.L1"), ("L1", "forall r.L2"),
            ("L2", "forall r.L3"), ("L3", "forall r.L4"),
        ])
        step_cut = TBox.of([("A", "B"), ("B", "forall r.D")])
        responses = _pipe(_server(), [
            {"id": "chain", "lhs": "A(x), (r*)(x,y), E(y)",
             "rhs": "A(y), E(y); L1(y), E(y); L2(y), E(y); L3(y), E(y); L4(y), E(y)",
             "schema": tbox_to_dict(forall_chain)},
            {"id": "steps", "lhs": "A(x), r(x,y)", "rhs": "C(y)",
             "schema": tbox_to_dict(step_cut), "options": {"max_steps": 3}},
        ])
        for response in responses:
            verdict = response["verdict"]
            assert verdict["method"] == "sparse"
            assert (verdict["contained"], verdict["complete"]) == (True, False)

    def test_stats_surface(self, tmp_path):
        responses = _pipe(_server(tmp_path), [
            {"type": "decide", "id": "a", "lhs": "owns(x,y)", "rhs": "CredCard(y)"},
            {"type": "flush"},
            {"type": "stats", "id": "st"},
        ])
        stats = responses[-1]["stats"]
        assert stats["counters"]["decisions_executed"] == 1
        assert stats["cache"]["writes"] == 1
        assert stats["latency_ms"]["count"] == 1
        assert stats["queue"]["high_water"] == 1


class TestSocketMode:
    """``repro serve --socket`` is the gateway's unix listener; the
    closest single-process setup is one thread-mode shard."""

    def test_two_connections_share_state(self, tmp_path):
        path = tmp_path / "repro.sock"
        gateway = GatewayServer(GatewayConfig(
            shards=1, processes=False, use_cache=True, cache_dir=tmp_path,
        ))

        async def talk(requests):
            reader, writer = await asyncio.open_unix_connection(str(path))
            for request in requests:
                writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            responses = [
                json.loads(await asyncio.wait_for(reader.readline(), 30))
                for _ in requests
            ]
            writer.close()
            await writer.wait_closed()
            return responses

        async def scenario():
            await gateway.start()
            try:
                await gateway.start_unix(path)
                first = await talk([
                    {"type": "decide", "id": "a", "lhs": "Customer(x), owns(x,y)",
                     "rhs": "owns(x,y), CredCard(y)", "schema": _tbox_dict()},
                ])
                second = await talk([
                    {"type": "decide", "id": "b", "lhs": "Customer(x), owns(x,y)",
                     "rhs": "owns(x,y), CredCard(y)", "schema": _tbox_dict()},
                    {"type": "shutdown", "id": "end"},
                ])
                # a client's shutdown ends its own connection only
                third = await talk([{"type": "ping", "id": "still-up"}])
                return first, second, third
            finally:
                await gateway.stop()

        first, second, third = asyncio.run(scenario())
        assert first[0]["type"] == "verdict" and first[0]["source"] == "computed"
        # the second connection collapses onto the first connection's work
        assert second[0]["id"] == "b" and second[0]["source"] == "dedup"
        assert second[0]["verdict"] == first[0]["verdict"]
        assert second[-1] == {"type": "bye", "id": "end"}
        assert third == [{"type": "pong", "id": "still-up"}]
        assert not path.exists()


class TestStreamSequencing:
    def test_default_ids_restart_per_stream(self):
        """Each connection numbers its requests from 1 — the sequence is
        per-stream state, not a server-wide counter leaking across
        clients."""
        server = _server()
        for _round in range(2):
            stream = server.new_stream()
            responses, _stop = server.handle_line(
                json.dumps({"type": "decide", "lhs": "A(x)", "rhs": "A(x)"}),
                stream,
            )
            responses, _stop = server.handle_line(
                json.dumps({"type": "flush"}), stream
            )
            # a fresh stream starts at req-1 even after another stream ran
            assert [r["id"] for r in responses] == ["req-1"]

    def test_interleaved_streams_do_not_share_sequence(self):
        server = _server()
        alpha, beta = server.new_stream(), server.new_stream()
        line = json.dumps({"type": "ping"})
        (pong_a1,), _ = server.handle_line(line, alpha)
        (pong_b1,), _ = server.handle_line(line, beta)
        (pong_a2,), _ = server.handle_line(line, alpha)
        assert pong_a1["id"] == "req-1"
        assert pong_b1["id"] == "req-1"
        assert pong_a2["id"] == "req-2"


class TestMetricsMath:
    def test_percentiles_nearest_rank(self):
        samples = [float(n) for n in range(1, 101)]
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.90) == 90.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0

    def test_snapshot_counters(self):
        metrics = ServiceMetrics()
        metrics.count("requests")
        metrics.count("requests", 2)
        metrics.observe_latency_ms(5.0)
        metrics.queue_changed(3)
        metrics.queue_changed(0)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["requests"] == 3
        assert snapshot["queue"] == {"depth": 0, "high_water": 3}
        assert snapshot["latency_ms"]["p50"] == 5.0
