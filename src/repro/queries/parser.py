"""Text syntax for (U)C2RPQs.

A C2RPQ is a comma-separated list of atoms:

* concept atoms: ``Customer(x)``, complement ``!Customer(x)``;
* path atoms: ``owns(x,y)``, ``(owns.earns.{Partner}.owns*)(x,y)``,
  ``(r|s)*(x,y)``; inverse roles use a trailing dash: ``owns-(y,x)``.

A UC2RPQ is a list of C2RPQs joined with ``;`` (or built programmatically).

>>> q = parse_crpq("Customer(x), (owns.earns)(x,y), RwrdProg(y)")
>>> len(q.atoms)
3
"""

from __future__ import annotations

from typing import Union

from repro.automata.regex import RegexSyntaxError, parse_regex
from repro.graphs.labels import NodeLabel
from repro.kernel.memo import BoundedMemo
from repro.queries.atoms import ConceptAtom, PathAtom
from repro.queries.crpq import CRPQ
from repro.queries.ucrpq import UCRPQ


class QuerySyntaxError(ValueError):
    """Raised on malformed query text."""


def _split_top_level(text: str, separator: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == separator and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [part.strip() for part in parts if part.strip()]


def _parse_atom(text: str) -> Union[ConceptAtom, PathAtom]:
    text = text.strip()
    if not text.endswith(")"):
        raise QuerySyntaxError(f"atom must end with an argument list: {text!r}")
    # find the matching '(' of the final argument list
    depth = 0
    open_index = -1
    for index in range(len(text) - 1, -1, -1):
        ch = text[index]
        if ch == ")":
            depth += 1
        elif ch == "(":
            depth -= 1
            if depth == 0:
                open_index = index
                break
    if open_index < 0:
        raise QuerySyntaxError(f"unbalanced parentheses in atom: {text!r}")
    head = text[:open_index].strip()
    args = [a.strip() for a in text[open_index + 1 : -1].split(",") if a.strip()]
    if not head:
        raise QuerySyntaxError(f"missing expression in atom: {text!r}")
    if len(args) == 1:
        label = NodeLabel.parse(head)
        return ConceptAtom(label, args[0])
    if len(args) == 2:
        try:
            expr = parse_regex(head)
        except RegexSyntaxError as error:
            raise QuerySyntaxError(f"bad regular expression in {text!r}: {error}") from error
        return PathAtom.make(expr, args[0], args[1])
    raise QuerySyntaxError(f"atoms take one or two arguments: {text!r}")


def parse_crpq(text: str) -> CRPQ:
    """Parse a single C2RPQ."""
    atoms = [_parse_atom(part) for part in _split_top_level(text, ",")]
    if not atoms:
        raise QuerySyntaxError("empty query")
    return CRPQ.of(atoms)


_PARSED = BoundedMemo(max_entries=2048, name="parse.query")
"""Query text → parsed :class:`UCRPQ`, FIFO beyond 2,048 texts (the size of
the compiled-query memo, so a working set that fits here keeps its compiled
matchers too).  Parse errors are never stored."""


def parse_query(text: str) -> UCRPQ:
    """Parse a UC2RPQ: C2RPQs separated by ``;``.

    A text is parsed once per process: every later call returns the same
    frozen :class:`UCRPQ`, so the caches keyed by query identity (the
    compiled matchers, :func:`repro.core.reduction.query_key`) hit across
    calls."""
    query = _PARSED.get(text)
    if query is None:
        disjuncts = [parse_crpq(part) for part in _split_top_level(text, ";")]
        if not disjuncts:
            raise QuerySyntaxError("empty union")
        query = UCRPQ.of(disjuncts)
        _PARSED.put(text, query)
    return query
