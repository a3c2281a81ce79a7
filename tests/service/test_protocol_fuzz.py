"""Protocol robustness: budget validation and line-level fuzzing.

The server loop contract is absolute — *no* input line, however
malformed, may raise out of ``handle_line``.  Hypothesis throws arbitrary
text and arbitrary JSON structures at it; every line must come back as a
normal response list (usually a single structured ``error``).
"""

import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import MAX_TIMEOUT_MS, ProtocolError, parse_request
from repro.service.server import ContainmentServer


class TestBudgetValidation:
    @pytest.mark.parametrize("name", ["max_nodes", "max_steps", "timeout_ms"])
    @pytest.mark.parametrize("bad", [-1, True, False, 1.5, "100", None, [1]])
    def test_bad_budget_rejected(self, name, bad):
        line = json.dumps({
            "type": "decide", "id": "x", "lhs": "A(x)", "rhs": "A(x)",
            "options": {name: bad},
        })
        with pytest.raises(ProtocolError, match=name):
            parse_request(line, 1)

    # timeout_ms is capped at MAX_TIMEOUT_MS (24 h); the other budgets only
    # need to be non-negative integers
    @pytest.mark.parametrize("good,name", [
        (good, name)
        for name in ("max_nodes", "max_steps", "timeout_ms")
        for good in (0, 1, 250, MAX_TIMEOUT_MS if name == "timeout_ms" else 10**9)
    ])
    def test_good_budget_accepted(self, name, good):
        line = json.dumps({
            "type": "decide", "id": "x", "lhs": "A(x)", "rhs": "A(x)",
            "options": {name: good},
        })
        request = parse_request(line, 1)
        assert request.options[name] == good

    def test_unknown_request_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request type"):
            parse_request('{"type": "explode"}', 1)

    def test_unknown_option_rejected(self):
        line = json.dumps({
            "type": "decide", "id": "x", "lhs": "A(x)", "rhs": "A(x)",
            "options": {"timeout": 5},
        })
        with pytest.raises(ProtocolError, match="unknown options"):
            parse_request(line, 1)


# one server for the whole fuzz run: survival across many hostile lines is
# exactly the property under test
_FUZZ_SERVER = ContainmentServer(use_cache=False)


def _survives(line: str):
    responses, stop = _FUZZ_SERVER.handle_line(line)
    assert isinstance(responses, list)
    for response in responses:
        assert isinstance(response, dict) and "type" in response
    return responses, stop


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)

_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.printable, max_size=120))
def test_arbitrary_text_never_kills_the_loop(line):
    _survives(line)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_arbitrary_json_never_kills_the_loop(value):
    _survives(json.dumps(value))


@settings(max_examples=100, deadline=None)
@given(
    st.fixed_dictionaries(
        {},
        optional={
            "type": st.sampled_from(
                ["decide", "schema", "stats", "ping", "flush", "nonsense"]
            ),
            "id": _json_scalars,
            "lhs": _json_scalars,
            "rhs": _json_scalars,
            "schema": _json_values,
            "schema_ref": _json_scalars,
            "method": _json_scalars,
            "priority": _json_scalars,
            "options": _json_values,
            "ref": _json_scalars,
            "tbox": _json_values,
        },
    )
)
def test_requestish_objects_never_kill_the_loop(payload):
    responses, stop = _survives(json.dumps(payload))
    assert stop is False  # only a well-formed shutdown stops the server
