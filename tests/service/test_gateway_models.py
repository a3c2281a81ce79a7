"""The request models of the wire format — ``DecideModel`` and
``SchemaModel`` in :mod:`repro.service.protocol`, which every front builds
through :func:`~repro.service.protocol.parse_request`: caps and
normalization.  ``test_front_conformance.py`` sends the same lines through
all three fronts."""

import json

import pytest

from repro.service.protocol import (
    DEFAULT_TENANT,
    MAX_QUERY_LENGTH,
    MAX_SCHEMA_CIS,
    MAX_TIMEOUT_MS,
    ProtocolError,
    parse_request,
)


def _decide(**overrides):
    data = {"lhs": "A(x)", "rhs": "B(x)"}
    data.update(overrides)
    return parse_request(json.dumps(data), seq=1)


def _schema(data):
    return parse_request(json.dumps({"type": "schema", **data}), seq=1)


class TestDecideModel:
    def test_minimal_request(self):
        model = _decide()
        assert model.type == "decide"
        assert model.id == "req-1"
        assert model.tenant == DEFAULT_TENANT
        assert model.method == "auto"

    def test_explicit_id_and_tenant(self):
        model = _decide(id="mine", tenant="acme-1")
        assert model.id == "mine"
        assert model.tenant == "acme-1"

    def test_wire_roundtrip_is_canonical(self):
        model = _decide(schema={"cis": [["A", "B"]]}, priority=3)
        wire = json.loads(model.wire_line())
        assert wire["type"] == "decide"
        assert wire["schema"] == {"cis": [["A", "B"]]}
        assert wire["priority"] == 3
        # the line a shard receives parses back to the same request
        assert parse_request(model.wire_line(), seq=1) == model

    @pytest.mark.parametrize("field", ["lhs", "rhs"])
    def test_missing_or_blank_queries_raise(self, field):
        with pytest.raises(ProtocolError, match=field):
            _decide(**{field: "   "})

    def test_query_length_cap(self):
        long_query = "A(x)" + "x" * MAX_QUERY_LENGTH
        with pytest.raises(ProtocolError, match="exceeds"):
            _decide(lhs=long_query)

    def test_schema_ci_cap(self):
        big = {"cis": [["A", "B"]] * (MAX_SCHEMA_CIS + 1)}
        with pytest.raises(ProtocolError, match="concept inclusions"):
            _decide(schema=big)

    def test_schema_and_ref_are_exclusive(self):
        with pytest.raises(ProtocolError, match="either"):
            _decide(schema={"cis": []}, schema_ref="s")

    def test_bad_tenant_raises(self):
        for tenant in ("", "has space", "x" * 65, 7):
            with pytest.raises(ProtocolError, match="tenant"):
                _decide(tenant=tenant)

    def test_unknown_method_raises(self):
        with pytest.raises(ProtocolError, match="method"):
            _decide(method="psychic")

    def test_priority_must_be_bounded_int(self):
        with pytest.raises(ProtocolError, match="priority"):
            _decide(priority="high")
        with pytest.raises(ProtocolError, match="priority"):
            _decide(priority=True)
        with pytest.raises(ProtocolError, match="priority"):
            _decide(priority=1 << 20)

    def test_unknown_option_raises(self):
        with pytest.raises(ProtocolError, match="unknown options"):
            _decide(options={"warp_speed": 9})

    @pytest.mark.parametrize(
        "options",
        [{"workers": 2}, {"incremental": False}, {"incremental": "off"},
         {"backend": "vec"}],
    )
    def test_removed_options_raise(self, options):
        (name,) = options
        with pytest.raises(ProtocolError, match=f"unknown options: {name}"):
            _decide(options=options)

    def test_timeout_cap(self):
        _decide(options={"timeout_ms": MAX_TIMEOUT_MS})
        with pytest.raises(ProtocolError, match="timeout_ms"):
            _decide(options={"timeout_ms": MAX_TIMEOUT_MS + 1})

    @pytest.mark.parametrize("name", ["max_word_length", "max_expansions"])
    @pytest.mark.parametrize("value", [[1], -3, True, 2.9, "4", None])
    def test_word_budgets_must_be_non_negative_integers(self, name, value):
        with pytest.raises(ProtocolError, match=f"option '{name}' must be a non-negative integer"):
            _decide(options={name: value})
        assert _decide(options={name: 0}).options[name] == 0

    def test_non_object_payload_raises(self):
        with pytest.raises(ProtocolError, match="object"):
            parse_request(json.dumps(["not", "a", "dict"]), seq=1)


class TestSchemaModel:
    def test_minimal_registration(self):
        model = _schema({"ref": "s1", "tbox": {"cis": [["A", "B"]]}})
        assert model.ref == "s1"
        assert model.tenant == DEFAULT_TENANT
        wire = json.loads(model.wire_line())
        assert wire["type"] == "schema"
        assert wire["ref"] == "s1"

    def test_missing_ref_raises(self):
        with pytest.raises(ProtocolError, match="ref"):
            _schema({"tbox": {}})

    def test_tbox_must_be_object(self):
        with pytest.raises(ProtocolError, match="tbox"):
            _schema({"ref": "s", "tbox": [1, 2]})

    def test_tbox_ci_cap(self):
        big = {"cis": [["A", "B"]] * (MAX_SCHEMA_CIS + 1)}
        with pytest.raises(ProtocolError, match="concept inclusions"):
            _schema({"ref": "s", "tbox": big})
