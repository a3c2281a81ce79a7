"""Node types: consistent sets of (possibly complemented) node labels.

Section 2: *a type is a subset of Γ± that contains at most one of A and Ā for
every A ∈ Γ.  A type over Γ₀ ⊆ Γ is maximal if it contains exactly one of A
and Ā for every A ∈ Γ₀.*  Types drive the fixpoint procedures of Sections
5–6: abstract frames carry sets of maximal types, and type elimination
iterates over them.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Union

from repro.graphs.graph import Graph, Node
from repro.graphs.labels import NodeLabel, node_label


class Type(frozenset):
    """A consistent subset of Γ± (a ``frozenset`` of :class:`NodeLabel`).

    Consistency is checked on names: construction raises ``ValueError``
    when a complemented literal's name is also among the positive names.

    >>> t = Type.of("A", "!B")
    >>> t.is_maximal_over({"A", "B"})
    True
    """

    def __new__(cls, labels: Iterable[Union[str, NodeLabel]] = ()) -> "Type":
        parsed = frozenset(node_label(lbl) for lbl in labels)
        positive = {lbl.name for lbl in parsed if not lbl.negated}
        for lbl in parsed:
            if lbl.negated and lbl.name in positive:
                raise ValueError(
                    f"inconsistent type: contains both {lbl.name} and !{lbl.name}"
                )
        return super().__new__(cls, parsed)

    @staticmethod
    def of(*labels: Union[str, NodeLabel]) -> "Type":
        return Type(labels)

    @classmethod
    def _trusted(cls, literals: Iterable[NodeLabel]) -> "Type":
        """Construct without validation — for callers (the bitset kernel's
        ``decode``) that guarantee consistent :class:`NodeLabel` literals."""
        return super().__new__(cls, literals)

    @property
    def positive_names(self) -> frozenset[str]:
        return frozenset(lbl.name for lbl in self if not lbl.negated)

    @property
    def negative_names(self) -> frozenset[str]:
        return frozenset(lbl.name for lbl in self if lbl.negated)

    def signature(self) -> frozenset[str]:
        """All label names mentioned (positively or negatively)."""
        return frozenset(lbl.name for lbl in self)

    def is_maximal_over(self, names: Iterable[str]) -> bool:
        return set(names) <= self.signature()

    def restrict(self, names: Iterable[str]) -> "Type":
        """Projection to the labels whose name is in ``names``."""
        keep = set(names)
        return Type(lbl for lbl in self if lbl.name in keep)

    def extend(self, labels: Iterable[Union[str, NodeLabel]]) -> "Type":
        """This type plus the given labels (raises if inconsistent)."""
        return Type(list(self) + [node_label(lbl) for lbl in labels])

    def contains_type(self, other: "Type") -> bool:
        """σ ⊇ τ — this type refines (decides at least as much as) ``other``."""
        return other <= self

    def holds_at(self, graph: Graph, node: Node) -> bool:
        """Does ``node`` in ``graph`` satisfy every literal of this type?"""
        return all(graph.has_label(node, lbl) for lbl in self)

    def __str__(self) -> str:
        return "{" + ",".join(sorted(str(lbl) for lbl in self)) + "}"

    def __repr__(self) -> str:
        return f"Type({str(self)})"


def type_of(graph: Graph, node: Node, names: Iterable[str]) -> Type:
    """The maximal type of ``node`` over the label names ``names``."""
    return Type(
        node_label(name if graph.has_label(node, name) else "!" + name)
        for name in names
    )


def maximal_types(names: Iterable[str]) -> Iterator[Type]:
    """Enumerate all 2^|names| maximal types over ``names`` (sorted order)."""
    ordered = sorted(set(names))
    for signs in product((False, True), repeat=len(ordered)):
        yield Type(NodeLabel(name, neg) for name, neg in zip(ordered, signs))


def respects(graph: Graph, allowed: Iterable[Type]) -> bool:
    """Does every node of ``graph`` have some type from ``allowed``?

    Following the paper, a graph *respects* a set Θ of types if each node is
    of some type from Θ — i.e. satisfies every literal of some τ ∈ Θ.
    """
    allowed_set = set(allowed)
    return all(
        any(sigma.holds_at(graph, node) for sigma in allowed_set)
        for node in graph.node_list()
    )


def realized_types(graph: Graph, names: Iterable[str]) -> set[Type]:
    """The maximal types over ``names`` realized by some node of ``graph``."""
    name_list = sorted(set(names))
    return {type_of(graph, node, name_list) for node in graph.node_list()}
