"""Concept inclusions and TBoxes (Section 2).

A schema is a finite set of concept inclusions (CIs) C ⊑ D.  A graph G
satisfies C ⊑ D when C^G ⊆ D^G, and satisfies a TBox when it satisfies all
its CIs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

from repro.dl.concepts import Concept, concept
from repro.graphs.graph import Graph, Node


@dataclass(frozen=True)
class CI:
    """A concept inclusion C ⊑ D."""

    lhs: Concept
    rhs: Concept

    @staticmethod
    def of(lhs: Union[str, Concept], rhs: Union[str, Concept]) -> "CI":
        return CI(concept(lhs), concept(rhs))

    def holds_in(self, graph: Graph) -> bool:
        return self.lhs.extension(graph) <= self.rhs.extension(graph)

    def violations(self, graph: Graph) -> frozenset[Node]:
        """Nodes in C^G \\ D^G."""
        return self.lhs.extension(graph) - self.rhs.extension(graph)

    def concept_names(self) -> set[str]:
        return set(self.lhs.concept_names()) | set(self.rhs.concept_names())

    def role_names(self) -> set[str]:
        return set(self.lhs.role_names()) | set(self.rhs.role_names())

    def __str__(self) -> str:
        return f"{self.lhs} <= {self.rhs}"


@dataclass(frozen=True)
class TBox:
    """A finite set of CIs with an optional name."""

    cis: tuple[CI, ...]
    name: str = ""

    @staticmethod
    def of(cis: Iterable[Union[CI, tuple]], name: str = "") -> "TBox":
        resolved = []
        for item in cis:
            if isinstance(item, CI):
                resolved.append(item)
            else:
                lhs, rhs = item
                resolved.append(CI.of(lhs, rhs))
        return TBox(tuple(resolved), name)

    @staticmethod
    def empty(name: str = "empty") -> "TBox":
        return TBox((), name)

    def __iter__(self) -> Iterator[CI]:
        return iter(self.cis)

    def __len__(self) -> int:
        return len(self.cis)

    def satisfied_by(self, graph: Graph) -> bool:
        return all(ci.holds_in(graph) for ci in self.cis)

    def extend(self, extra: Iterable[CI], name: str = "") -> "TBox":
        return TBox(self.cis + tuple(extra), name or self.name)

    def concept_names(self) -> set[str]:
        names: set[str] = set()
        for ci in self.cis:
            names |= ci.concept_names()
        return names

    def role_names(self) -> set[str]:
        names: set[str] = set()
        for ci in self.cis:
            names |= ci.role_names()
        return names

    def __getstate__(self) -> dict:
        """Pickle and copy the fields only: the normal form that
        :func:`repro.dl.normalize.normalize` caches on the object is
        rebuilt on demand."""
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def __str__(self) -> str:
        header = f"TBox {self.name}:" if self.name else "TBox:"
        return "\n".join([header] + [f"  {ci}" for ci in self.cis])


def satisfies_tbox(graph: Graph, tbox: TBox) -> bool:
    """G ⊨ T — finite model checking by direct semantics."""
    return tbox.satisfied_by(graph)


def tbox_violations(graph: Graph, tbox: TBox) -> list[tuple[CI, frozenset[Node]]]:
    """Per-CI violation sets (empty when the graph satisfies the TBox)."""
    report = []
    for ci in tbox:
        bad = ci.violations(graph)
        if bad:
            report.append((ci, bad))
    return report
