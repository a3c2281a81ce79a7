"""Typed gateway request models: validation caps and normalization."""

import json

import pytest

from repro.service.gateway.models import (
    MAX_QUERY_LENGTH,
    MAX_SCHEMA_CIS,
    MAX_TIMEOUT_MS,
    DecideModel,
    ModelValidationError,
    SchemaModel,
)
from repro.service.protocol import DEFAULT_TENANT


def _decide(**overrides):
    data = {"lhs": "A(x)", "rhs": "B(x)"}
    data.update(overrides)
    return DecideModel.from_wire(data, default_id="d1")


class TestDecideModel:
    def test_minimal_request(self):
        model = _decide()
        assert model.id == "d1"
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

    @pytest.mark.parametrize("field", ["lhs", "rhs"])
    def test_missing_or_blank_queries_raise(self, field):
        with pytest.raises(ModelValidationError, match=field):
            _decide(**{field: "   "})

    def test_query_length_cap(self):
        long_query = "A(x)" + "x" * MAX_QUERY_LENGTH
        with pytest.raises(ModelValidationError, match="exceeds"):
            _decide(lhs=long_query)

    def test_schema_ci_cap(self):
        big = {"cis": [["A", "B"]] * (MAX_SCHEMA_CIS + 1)}
        with pytest.raises(ModelValidationError, match="concept inclusions"):
            _decide(schema=big)

    def test_schema_and_ref_are_exclusive(self):
        with pytest.raises(ModelValidationError, match="either"):
            _decide(schema={"cis": []}, schema_ref="s")

    def test_bad_tenant_raises(self):
        for tenant in ("", "has space", "x" * 65, 7):
            with pytest.raises(ModelValidationError, match="tenant"):
                _decide(tenant=tenant)

    def test_unknown_method_raises(self):
        with pytest.raises(ModelValidationError, match="method"):
            _decide(method="psychic")

    def test_priority_must_be_bounded_int(self):
        with pytest.raises(ModelValidationError, match="priority"):
            _decide(priority="high")
        with pytest.raises(ModelValidationError, match="priority"):
            _decide(priority=True)
        with pytest.raises(ModelValidationError, match="priority"):
            _decide(priority=1 << 20)

    def test_unknown_option_raises(self):
        with pytest.raises(ModelValidationError, match="unknown options"):
            _decide(options={"warp_speed": 9})

    @pytest.mark.parametrize(
        "options",
        [{"workers": 2}, {"incremental": False}, {"incremental": "off"},
         {"backend": "vec"}],
    )
    def test_removed_options_raise(self, options):
        (name,) = options
        with pytest.raises(ModelValidationError, match=f"unknown options: {name}"):
            _decide(options=options)

    def test_timeout_cap(self):
        _decide(options={"timeout_ms": MAX_TIMEOUT_MS})
        with pytest.raises(ModelValidationError, match="timeout_ms"):
            _decide(options={"timeout_ms": MAX_TIMEOUT_MS + 1})

    @pytest.mark.parametrize("name", ["max_word_length", "max_expansions"])
    @pytest.mark.parametrize("value", [[1], -3, True, 2.9, "4", None])
    def test_word_budgets_must_be_non_negative_integers(self, name, value):
        with pytest.raises(ModelValidationError, match=f"option '{name}' must be a non-negative integer"):
            _decide(options={name: value})
        assert _decide(options={name: 0}).options[name] == 0

    def test_non_object_payload_raises(self):
        with pytest.raises(ModelValidationError, match="object"):
            DecideModel.from_wire(["not", "a", "dict"])


class TestSchemaModel:
    def test_minimal_registration(self):
        model = SchemaModel.from_wire(
            {"ref": "s1", "tbox": {"cis": [["A", "B"]]}}, default_id="s"
        )
        assert model.ref == "s1"
        assert model.tenant == DEFAULT_TENANT
        wire = json.loads(model.wire_line())
        assert wire["type"] == "schema"
        assert wire["ref"] == "s1"

    def test_missing_ref_raises(self):
        with pytest.raises(ModelValidationError, match="ref"):
            SchemaModel.from_wire({"tbox": {}})

    def test_tbox_must_be_object(self):
        with pytest.raises(ModelValidationError, match="tbox"):
            SchemaModel.from_wire({"ref": "s", "tbox": [1, 2]})

    def test_tbox_ci_cap(self):
        big = {"cis": [["A", "B"]] * (MAX_SCHEMA_CIS + 1)}
        with pytest.raises(ModelValidationError, match="concept inclusions"):
            SchemaModel.from_wire({"ref": "s", "tbox": big})
