"""The service wire format: parsing, validation, option materialization."""

import json

import pytest

from repro.core.containment import ContainmentOptions
from repro.service.protocol import (
    ProtocolError,
    build_options,
    encode_response,
    parse_request,
    verdict_response,
)


class TestParseRequest:
    def test_decide_minimal(self):
        request = parse_request(
            json.dumps({"type": "decide", "lhs": "A(x)", "rhs": "B(x)"}), seq=3
        )
        assert request.type == "decide"
        assert request.id == "req-3"
        assert request.lhs == "A(x)" and request.rhs == "B(x)"
        assert request.schema is None and request.schema_ref is None
        assert request.method == "auto" and request.priority == 0

    def test_decide_full(self):
        request = parse_request(
            json.dumps(
                {
                    "type": "decide",
                    "id": "r9",
                    "lhs": "A(x)",
                    "rhs": "B(x)",
                    "schema": {"cis": [["A", "B"]]},
                    "method": "direct",
                    "priority": -2,
                    "options": {"max_nodes": 6, "timeout_ms": 50},
                }
            ),
            seq=1,
        )
        assert request.id == "r9"
        assert request.schema == {"cis": [["A", "B"]]}
        assert request.method == "direct" and request.priority == -2
        assert request.options["max_nodes"] == 6

    def test_implicit_decide_type(self):
        assert parse_request('{"lhs": "A(x)", "rhs": "B(x)"}', seq=1).type == "decide"

    def test_schema_registration(self):
        request = parse_request(
            json.dumps({"type": "schema", "ref": "s1", "tbox": {"cis": []}}), seq=1
        )
        assert request.type == "schema" and request.ref == "s1"

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"type": "explode"}',
            '{"type": "decide", "lhs": "A(x)"}',
            '{"type": "decide", "lhs": "", "rhs": "B(x)"}',
            '{"type": "decide", "lhs": "A(x)", "rhs": "B(x)", "method": "magic"}',
            '{"type": "decide", "lhs": "A(x)", "rhs": "B(x)", "priority": "high"}',
            '{"type": "decide", "lhs": "A(x)", "rhs": "B(x)", "options": {"bogus": 1}}',
            '{"type": "decide", "lhs": "A(x)", "rhs": "B(x)", "schema": {"cis": []}, "schema_ref": "s"}',
            '{"type": "schema", "ref": "", "tbox": {}}',
            '{"type": "schema", "ref": "s1"}',
        ],
    )
    def test_rejects(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line, seq=1)

    @pytest.mark.parametrize(
        "options",
        [{"workers": 2}, {"workers": 1}, {"incremental": False},
         {"incremental": "off"}, {"incremental": None},
         {"backend": "vec"}, {"backend": "bitset"}, {"backend": "auto"}],
    )
    def test_removed_options_are_unknown(self, options):
        (name,) = options
        line = json.dumps({"lhs": "A(x)", "rhs": "B(x)", "options": options})
        with pytest.raises(ProtocolError, match=f"unknown options: {name}"):
            parse_request(line, seq=1)


    @pytest.mark.parametrize("name", ["max_word_length", "max_expansions"])
    @pytest.mark.parametrize("value", [[1], -3, True, 2.9, "4", None])
    def test_word_budgets_must_be_non_negative_integers(self, name, value):
        line = json.dumps({"lhs": "A(x)", "rhs": "B(x)", "options": {name: value}})
        with pytest.raises(ProtocolError, match=f"option '{name}' must be a non-negative integer"):
            parse_request(line, seq=1)

    @pytest.mark.parametrize("name", ["max_word_length", "max_expansions"])
    def test_word_budgets_accept_zero(self, name):
        line = json.dumps({"lhs": "A(x)", "rhs": "B(x)", "options": {name: 0}})
        assert parse_request(line, seq=1).options[name] == 0


class TestBuildOptions:
    def test_defaults(self):
        assert build_options({}) == ContainmentOptions()

    def test_budgets_and_flags(self):
        options = build_options(
            {
                "max_word_length": 3,
                "max_expansions": 50,
                "max_nodes": 7,
                "max_steps": 999,
            }
        )
        assert options.max_word_length == 3
        assert options.max_expansions == 50
        assert options.limits.max_nodes == 7
        assert options.limits.max_steps == 999


class TestResponses:
    def test_encode_deterministic_single_line(self):
        payload = verdict_response("r1", {"contained": True}, "computed", 1.23456)
        first, second = encode_response(payload), encode_response(dict(payload))
        assert first == second
        assert "\n" not in first
        assert json.loads(first)["elapsed_ms"] == 1.235
