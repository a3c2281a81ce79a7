"""Query text syntax, and the process-wide table of parsed texts."""

import json

import pytest

from repro.core.containment import is_contained
from repro.dl.tbox import TBox
from repro.queries import compiled, parser
from repro.queries.atoms import ConceptAtom, PathAtom
from repro.queries.parser import QuerySyntaxError, parse_crpq, parse_query
from repro.service.protocol import parse_request
from repro.service.scheduler import DecisionScheduler
from repro.service.sessions import reset_process_caches


class TestAtoms:
    def test_concept_atom(self):
        q = parse_crpq("Customer(x)")
        atom = q.atoms[0]
        assert isinstance(atom, ConceptAtom)
        assert atom.label.name == "Customer" and atom.variable == "x"

    def test_complement_concept_atom(self):
        atom = parse_crpq("!A(x)").atoms[0]
        assert atom.label.negated

    def test_bare_role_atom(self):
        atom = parse_crpq("owns(x,y)").atoms[0]
        assert isinstance(atom, PathAtom)
        assert atom.source == "x" and atom.target == "y"

    def test_inverse_role_atom(self):
        atom = parse_crpq("owns-(x,y)").atoms[0]
        assert isinstance(atom, PathAtom)

    def test_complex_regex_atom(self):
        atom = parse_crpq("(owns.earns.{Partner}.owns*)(x,y)").atoms[0]
        assert isinstance(atom, PathAtom)
        assert str(atom.compiled) == "owns.earns.{Partner}.owns*"

    def test_postfix_star_atom(self):
        atom = parse_crpq("owns*(z,y)").atoms[0]
        assert isinstance(atom, PathAtom)
        assert atom.compiled.accepts_epsilon


class TestQueries:
    def test_multiple_atoms(self):
        q = parse_crpq("A(x), r(x,y), B(y)")
        assert q.size() == 3

    def test_union(self):
        q = parse_query("A(x); B(x); r(x,y)")
        assert len(q) == 3

    def test_commas_inside_regex_args(self):
        q = parse_crpq("(owns.earns)(x,y), RetailCompany(y)")
        assert q.size() == 2

    def test_whitespace_tolerance(self):
        assert parse_crpq(" A(x) ,  r( x , y ) ") == parse_crpq("A(x), r(x,y)")


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        ["", "A", "A(x", "A(x,y,z)", "(x)", "A()"],
    )
    def test_rejects(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_crpq(bad)

    def test_bad_regex_reported(self):
        with pytest.raises(QuerySyntaxError):
            parse_crpq("(r..s)(x,y)")


class TestInterning:
    """``parse_query`` parses each text once per process; the library call,
    scheduler intake and semantic hydration share its table."""

    def test_each_text_is_parsed_once_across_calls_and_submissions(self, parsed):
        schema = TBox.of([("A", "B")])
        assert is_contained("A(x)", "B(x)", schema).contained
        assert is_contained("A(x)", "B(x)").contained is False
        scheduler = DecisionScheduler()
        for seq in (1, 2):
            line = json.dumps({"id": f"d{seq}", "lhs": "A(x)", "rhs": "B(x)"})
            assert scheduler.submit(parse_request(line, seq=seq)) is None
        assert [r["type"] for r in scheduler.drain()] == ["verdict", "verdict"]
        assert sorted(parsed) == ["A(x)", "B(x)"]
        assert parse_query("A(x)") is parse_query("A(x)")

    def test_parse_errors_are_never_stored(self, parsed):
        for text in ("A(x), ((", "A(x), ((", "", " ; "):
            with pytest.raises(QuerySyntaxError):
                parse_query(text)
        assert parsed == ["A(x), ((", "A(x), (("]
        assert len(parser._PARSED) == 0

    def test_table_stays_at_its_cap_and_reset_empties_it(self, parsed):
        cap = parser._PARSED.max_entries
        assert cap == compiled._QUERY_MEMO.max_entries
        for i in range(cap + 5):
            parse_query(f"A{i}(x)")
        assert len(parser._PARSED) == cap
        # FIFO: the oldest texts go first
        assert "A4(x)" not in parser._PARSED and "A5(x)" in parser._PARSED
        reset_process_caches()
        assert len(parser._PARSED) == 0
