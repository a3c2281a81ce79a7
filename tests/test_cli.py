"""The command-line interface."""

import json

import pytest

from repro.cli import load_graph, load_schema, main


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.tbox"
    path.write_text(
        "# typing\nCustomer <= forall owns.CredCard\nCustomer <= exists owns.CredCard\n"
    )
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.edges"
    path.write_text("alice: Customer\ngold: CredCard\nalice -owns-> gold\n")
    return str(path)


class TestLoaders:
    def test_load_schema(self, schema_file):
        tbox = load_schema(schema_file)
        assert len(tbox) == 2

    def test_load_schema_error(self, tmp_path):
        bad = tmp_path / "bad.tbox"
        bad.write_text("no arrow here\n")
        with pytest.raises(SystemExit):
            load_schema(str(bad))

    def test_load_graph(self, graph_file):
        g = load_graph(graph_file)
        assert g.has_label("alice", "Customer")
        assert g.has_edge("alice", "owns", "gold")

    def test_load_graph_bare_node(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("lonely\n")
        assert "lonely" in load_graph(str(path))


class TestCommands:
    def test_contain_positive(self, schema_file, capsys):
        rc = main([
            "contain", "Customer(x), owns(x,y)", "owns(x,y), CredCard(y)",
            "--schema", schema_file,
        ])
        assert rc == 0
        assert "CONTAINED" in capsys.readouterr().out

    def test_contain_negative_with_countermodel(self, capsys):
        rc = main(["contain", "owns(x,y)", "CredCard(y)"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "NOT CONTAINED" in out and "countermodel" in out

    def test_entail(self, schema_file, graph_file, capsys):
        rc = main(["entail", graph_file, schema_file, "CredCard(y)"])
        assert rc == 0
        assert "ENTAILED" in capsys.readouterr().out

    def test_eval(self, graph_file, capsys):
        rc = main(["eval", graph_file, "Customer(x), owns(x,y)"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MATCH" in out and "alice" in out

    def test_eval_no_match(self, graph_file, capsys):
        rc = main(["eval", graph_file, "Zz(x)"])
        assert rc == 1


class TestContainFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["contain", "A(x)", "B(x)", "--workers", "2"],
            ["contain", "A(x)", "B(x)", "--incremental", "on"],
            ["explain", "A(x)", "B(x)", "--workers", "2"],
            ["batch", "requests.jsonl", "--workers", "2"],
            ["serve", "--workers", "2"],
            ["contain", "A(x)", "B(x)", "--backend", "vec"],
            ["explain", "A(x)", "B(x)", "--backend", "bitset"],
            ["batch", "requests.jsonl", "--backend", "vec"],
            ["serve", "--backend", "auto"],
        ],
        ids=["contain-workers", "contain-incremental", "explain-workers",
             "batch-workers", "serve-workers", "contain-backend",
             "explain-backend", "batch-backend", "serve-backend"],
    )
    def test_removed_flags_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_preset_conflicts_with_queries(self):
        with pytest.raises(SystemExit, match="preset"):
            main(["contain", "A(x)", "--preset", "example11"])


class TestTraceAndExplain:
    LHS, RHS = "Customer(x), owns(x,y)", "owns(x,y), CredCard(y)"

    def test_contain_trace_writes_chrome_json(self, schema_file, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        rc = main([
            "contain", self.LHS, self.RHS, "--schema", schema_file,
            "--trace", str(trace_file),
        ])
        assert rc == 0
        doc = json.loads(trace_file.read_text())
        names = [event["name"] for event in doc["traceEvents"]]
        assert "decision" in names
        assert all(event["ph"] == "X" for event in doc["traceEvents"])

    def test_contain_trace_does_not_change_verdict(self, schema_file, tmp_path, capsys):
        rc_plain = main(["contain", self.LHS, self.RHS, "--schema", schema_file])
        out_plain = capsys.readouterr().out
        rc_traced = main([
            "contain", self.LHS, self.RHS, "--schema", schema_file,
            "--trace", str(tmp_path / "trace.json"),
        ])
        out_traced = capsys.readouterr().out
        assert rc_plain == rc_traced == 0
        assert out_plain == out_traced

    def test_explain_prints_report(self, schema_file, capsys):
        rc = main([
            "explain", self.LHS, self.RHS, "--schema", schema_file, "--no-memo",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "decision d-" in out
        assert "CONTAINED" in out
        assert "phase breakdown" in out

    def test_explain_preset_with_outputs(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        events_file = tmp_path / "events.jsonl"
        rc = main([
            "explain", "--preset", "example11", "--no-memo",
            "--trace", str(trace_file), "--events", str(events_file),
        ])
        assert rc == 0
        doc = json.loads(trace_file.read_text())
        assert doc["traceEvents"]
        records = [json.loads(l) for l in events_file.read_text().splitlines()]
        assert records[0]["name"] == "decision"

    def test_explain_not_contained_exits_one(self, capsys):
        rc = main(["explain", "owns(x,y)", "CredCard(y)", "--no-memo"])
        assert rc == 1
        assert "NOT CONTAINED" in capsys.readouterr().out


class TestServiceCommands:
    """`batch` and `serve` smokes on the Example 1.1 fixtures."""

    @pytest.fixture
    def example11_requests(self, tmp_path):
        from repro.dl.pg_schema import figure1_schema
        from repro.io import query_to_text, tbox_to_dict
        from repro.queries.presets import example_11_q1, example_11_q2

        q1, q2 = query_to_text(example_11_q1()), query_to_text(example_11_q2())
        path = tmp_path / "requests.jsonl"
        lines = [
            {"type": "schema", "ref": "fig1", "tbox": tbox_to_dict(figure1_schema())},
            # q2 ⊆_S q1 — the fast direction of Example 1.1
            {"type": "decide", "id": "fwd", "lhs": q2, "rhs": q1, "schema_ref": "fig1"},
            {"type": "decide", "id": "dup", "lhs": q2, "rhs": q1, "schema_ref": "fig1"},
            # schema-less baseline with a countermodel
            {"type": "decide", "id": "neg", "lhs": q2, "rhs": "PremCC(x)"},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        return path

    def _verdicts(self, text):
        responses = [json.loads(line) for line in text.splitlines()]
        return {r["id"]: r for r in responses if r["type"] == "verdict"}

    def test_batch_example11(self, example11_requests, tmp_path, capsys):
        out_file = tmp_path / "verdicts.jsonl"
        metrics_file = tmp_path / "metrics.json"
        rc = main([
            "batch", str(example11_requests), "-o", str(out_file),
            "--cache-dir", str(tmp_path / "cache"),
            "--metrics-json", str(metrics_file),
        ])
        assert rc == 0
        verdicts = self._verdicts(out_file.read_text())
        assert verdicts["fwd"]["verdict"]["contained"] is True
        assert verdicts["dup"]["source"] == "dedup"
        assert verdicts["dup"]["verdict"] == verdicts["fwd"]["verdict"]
        assert verdicts["neg"]["verdict"]["contained"] is False
        assert verdicts["neg"]["verdict"]["countermodel"] is not None
        metrics = json.loads(metrics_file.read_text())
        assert metrics["counters"]["decisions_executed"] == 2
        assert metrics["counters"]["dedup_collapses"] == 1

    def test_batch_warm_cache_answers_without_search(
        self, example11_requests, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        cold_out = tmp_path / "cold.jsonl"
        warm_out = tmp_path / "warm.jsonl"
        warm_metrics = tmp_path / "warm-metrics.json"
        assert main(["batch", str(example11_requests), "-o", str(cold_out),
                     "--cache-dir", str(cache_dir)]) == 0
        assert main(["batch", str(example11_requests), "-o", str(warm_out),
                     "--cache-dir", str(cache_dir),
                     "--metrics-json", str(warm_metrics)]) == 0
        cold, warm = self._verdicts(cold_out.read_text()), self._verdicts(warm_out.read_text())
        for request_id in cold:
            assert warm[request_id]["verdict"] == cold[request_id]["verdict"]
        metrics = json.loads(warm_metrics.read_text())
        assert metrics["counters"].get("decisions_executed", 0) == 0
        assert metrics["counters"].get("verdicts_cache", 0) == 2

    def test_batch_stdout_and_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "decide", "id": "x", "lhs": "((", "rhs": "A(x)"}\n')
        rc = main(["batch", str(path), "--no-cache"])
        assert rc == 1
        (response,) = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert response["type"] == "error"

    def test_serve_pipe_example11(self, example11_requests, tmp_path, capsys, monkeypatch):
        import io as io_module
        import sys

        monkeypatch.setattr(
            sys, "stdin", io_module.StringIO(example11_requests.read_text())
        )
        rc = main(["serve", "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        verdicts = self._verdicts(capsys.readouterr().out)
        assert verdicts["fwd"]["verdict"]["contained"] is True
        assert verdicts["neg"]["verdict"]["contained"] is False


class TestResilienceFlags:
    """`--timeout-ms` and the nonzero error exit codes."""

    @pytest.fixture
    def unique_schema_file(self, tmp_path):
        # concepts no other test decides on, so the process-wide decision
        # memo cannot answer before the deadline is consulted
        path = tmp_path / "cli-unique.tbox"
        path.write_text("CliA <= forall cli_r.CliB\n")
        return str(path)

    def test_contain_timeout_reports_incomplete(self, unique_schema_file, capsys):
        rc = main([
            "contain", "CliA(x), cli_r(x,y)", "CliB(y)",
            "--schema", unique_schema_file, "--timeout-ms", "0",
        ])
        assert rc in (0, 1)
        assert "incomplete: timeout expired" in capsys.readouterr().out

    def test_contain_generous_timeout_unchanged(self, unique_schema_file, capsys):
        rc = main([
            "contain", "CliA(x), cli_r(x,y)", "CliB(y)",
            "--schema", unique_schema_file, "--timeout-ms", "60000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CONTAINED" in out
        assert "timeout" not in out

    def test_parse_error_exits_two(self, capsys):
        rc = main(["contain", "A(x", "B(x)"])
        assert rc == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_missing_schema_file_exits_nonzero(self, capsys):
        rc = main(["contain", "A(x)", "A(x)", "--schema", "/no/such/file.tbox"])
        assert rc != 0

    def test_bad_timeout_value_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["contain", "A(x)", "A(x)", "--timeout-ms", "soon"])
        assert info.value.code == 2

    def test_batch_timeout_flag(self, tmp_path, capsys):
        from repro.dl.tbox import TBox
        from repro.io import tbox_to_dict

        schema = tbox_to_dict(TBox.of([("CliC", "forall cli_s.CliD")], name="cli"))
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in [
            {"type": "schema", "ref": "s", "tbox": schema},
            {"type": "decide", "id": "cut", "lhs": "CliC(x), cli_s(x,y)",
             "rhs": "CliD(y)", "schema_ref": "s"},
        ]) + "\n")
        rc = main(["batch", str(path), "--no-cache", "--timeout-ms", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        (verdict,) = [json.loads(l) for l in out.splitlines() if "verdict" in l]
        assert verdict["verdict"]["deadline_expired"] is True
        assert verdict["verdict"]["complete"] is False
