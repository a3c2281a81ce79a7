"""TBox normalization into the paper's normal form (Section 2).

A normalized TBox contains only CIs of the shapes

* clausal:      L₁ ⊓ … ⊓ L_k ⊑ M₁ ⊔ … ⊔ M_m      (literals over Γ±)
* universal:    A ⊑ ∀r.B
* at-least:     A ⊑ ∃≥n r.B   (participation constraint; counting for n ≥ 2)
* at-most:      A ⊑ ∃≤n r.B

with A, B literals and r a possibly-inverted role.  Normalization is the
standard structural transformation: NNF, fresh names for complex fillers and
for role restrictions occurring in disjunctions, then CNF flattening.  It is
a conservative extension: models of the normalized TBox restricted to the
original signature are exactly the models of the original TBox.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, Optional, Union

from repro.dl.concepts import (
    And,
    AtLeast,
    AtMost,
    Atomic,
    Bottom,
    Concept,
    ForAll,
    Not,
    Or,
    Top,
)
from repro.dl.tbox import CI, TBox
from repro.graphs.graph import Graph, Node
from repro.graphs.labels import NodeLabel, Role
from repro.utils.misc import fresh_name_factory


# --------------------------------------------------------------------- #
# normal-form CIs


@dataclass(frozen=True)
class ClauseCI:
    """⊓ body ⊑ ⊔ head (empty body = ⊤, empty head = ⊥)."""

    body: frozenset[NodeLabel]
    head: frozenset[NodeLabel]

    def holds_at(self, graph: Graph, node: Node) -> bool:
        if not all(graph.has_label(node, lit) for lit in self.body):
            return True
        return any(graph.has_label(node, lit) for lit in self.head)

    def holds_for_type(self, literals: frozenset[NodeLabel]) -> bool:
        """Evaluation over a maximal type (a consistent, complete literal set)."""
        if not self.body <= literals:
            return True
        return bool(self.head & literals)

    def __str__(self) -> str:
        body = " & ".join(sorted(map(str, self.body))) or "top"
        head = " | ".join(sorted(map(str, self.head))) or "bottom"
        return f"{body} <= {head}"


@dataclass(frozen=True)
class UniversalCI:
    """A ⊑ ∀r.B."""

    subject: NodeLabel
    role: Role
    filler: NodeLabel

    def holds_at(self, graph: Graph, node: Node) -> bool:
        if not graph.has_label(node, self.subject):
            return True
        return all(graph.has_label(w, self.filler) for w in graph.successors(node, self.role))

    def flipped(self) -> "UniversalCI":
        """The contrapositive across the edge: A ⊑ ∀r.B ⟼ B̄ ⊑ ∀r⁻.Ā."""
        return UniversalCI(self.filler.complement(), self.role.inverse(), self.subject.complement())

    def __str__(self) -> str:
        return f"{self.subject} <= forall {self.role}.{self.filler}"


@dataclass(frozen=True)
class AtLeastCI:
    """A ⊑ ∃≥n r.B with n ≥ 1 — a participation constraint."""

    subject: NodeLabel
    n: int
    role: Role
    filler: NodeLabel

    def holds_at(self, graph: Graph, node: Node) -> bool:
        if not graph.has_label(node, self.subject):
            return True
        count = sum(
            1 for w in graph.successors(node, self.role) if graph.has_label(w, self.filler)
        )
        return count >= self.n

    def __str__(self) -> str:
        return f"{self.subject} <= >={self.n} {self.role}.{self.filler}"


@dataclass(frozen=True)
class AtMostCI:
    """A ⊑ ∃≤n r.B."""

    subject: NodeLabel
    n: int
    role: Role
    filler: NodeLabel

    def holds_at(self, graph: Graph, node: Node) -> bool:
        if not graph.has_label(node, self.subject):
            return True
        count = sum(
            1 for w in graph.successors(node, self.role) if graph.has_label(w, self.filler)
        )
        return count <= self.n

    def __str__(self) -> str:
        return f"{self.subject} <= <={self.n} {self.role}.{self.filler}"


NormalCI = Union[ClauseCI, UniversalCI, AtLeastCI, AtMostCI]


@dataclass
class NormalizedTBox:
    """The result of :func:`normalize`: normal-form CIs plus bookkeeping."""

    clauses: list[ClauseCI]
    universals: list[UniversalCI]
    at_leasts: list[AtLeastCI]
    at_mosts: list[AtMostCI]
    original: Optional[TBox] = None
    fresh_names: set[str] = field(default_factory=set)
    name: str = ""
    definitions: dict[str, Concept] = field(default_factory=dict)
    """For each fresh name, the concept whose extension defines it (used by
    :meth:`complete` to witness conservativity)."""

    # ------------------------------------------------------------- #

    def all_cis(self) -> Iterator[NormalCI]:
        yield from self.clauses
        yield from self.universals
        yield from self.at_leasts
        yield from self.at_mosts

    def satisfied_by(self, graph: Graph) -> bool:
        return all(
            ci.holds_at(graph, node) for node in graph.node_list() for ci in self.all_cis()
        )

    def node_violations(self, graph: Graph, node: Node) -> list[NormalCI]:
        return [ci for ci in self.all_cis() if not ci.holds_at(graph, node)]

    def complete(self, graph: Graph) -> Graph:
        """Place the fresh names on a copy of ``graph`` according to their
        definitions.  The result satisfies this normalized TBox iff ``graph``
        satisfies the original TBox (conservativity witness)."""
        completed = graph.copy()
        resolved: dict[str, frozenset[Node]] = {}

        def extension_of(name: str) -> frozenset[Node]:
            if name not in resolved:
                # evaluate on the partially completed graph; definitions are
                # acyclic, later names may depend on earlier ones
                for dep in self.definitions[name].concept_names():
                    if dep in self.definitions and dep not in resolved:
                        place(dep)
                resolved[name] = self.definitions[name].extension(completed)
            return resolved[name]

        def place(name: str) -> None:
            for node in extension_of(name):
                completed.add_label(node, name)

        for name in self.definitions:
            place(name)
        return completed

    def content_key(self) -> tuple:
        """A hashable key identifying this TBox's CIs (used for memoization
        across the recursive Section 6 pipeline)."""
        cached = getattr(self, "_content_key", None)
        if cached is None:
            cached = tuple(sorted(str(ci) for ci in self.all_cis()))
            object.__setattr__(self, "_content_key", cached)
        return cached

    def __getstate__(self) -> dict:
        """Pickle and copy the fields only: the caches kept on the object
        (the content key, the chase's compiled rules) are rebuilt on demand."""
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def concept_names(self) -> set[str]:
        names: set[str] = set()
        for clause in self.clauses:
            names |= {lit.name for lit in clause.body | clause.head}
        for ci in self.universals:
            names |= {ci.subject.name, ci.filler.name}
        for ci in self.at_leasts + self.at_mosts:
            names |= {ci.subject.name, ci.filler.name}
        return names

    def role_names(self) -> set[str]:
        return {ci.role.name for ci in self.universals + self.at_leasts + self.at_mosts}

    def max_cardinality(self) -> int:
        """The largest n in any number restriction (N−1 of Section 6)."""
        return max((ci.n for ci in self.at_leasts + self.at_mosts), default=0)

    # fragment tests ------------------------------------------------ #

    def uses_inverse_roles(self) -> bool:
        return any(
            ci.role.inverted for ci in self.universals + self.at_leasts + self.at_mosts
        )

    def uses_counting(self) -> bool:
        return bool(self.at_mosts) or any(ci.n >= 2 for ci in self.at_leasts)

    def has_participation_constraints(self) -> bool:
        return bool(self.at_leasts)

    def fragment(self) -> str:
        """The least fragment among ALC / ALCI / ALCQ / ALCQI."""
        inverse = self.uses_inverse_roles()
        counting = self.uses_counting()
        if inverse and counting:
            return "ALCQI"
        if inverse:
            return "ALCI"
        if counting:
            return "ALCQ"
        return "ALC"

    def without_participation(self) -> "NormalizedTBox":
        """T₀ — the TBox with all participation constraints dropped (Sec. 3)."""
        return NormalizedTBox(
            list(self.clauses),
            list(self.universals),
            [],
            list(self.at_mosts),
            original=self.original,
            fresh_names=set(self.fresh_names),
            definitions=dict(self.definitions),
            name=f"{self.name}_noparticipation",
        )

    def restrict_roles(self, keep: Iterable[str]) -> "NormalizedTBox":
        """Drop all CIs over roles outside ``keep`` (Section 6 recursion)."""
        kept = set(keep)
        return NormalizedTBox(
            list(self.clauses),
            [ci for ci in self.universals if ci.role.name in kept],
            [ci for ci in self.at_leasts if ci.role.name in kept],
            [ci for ci in self.at_mosts if ci.role.name in kept],
            original=self.original,
            fresh_names=set(self.fresh_names),
            definitions=dict(self.definitions),
            name=f"{self.name}_roles_{'_'.join(sorted(kept))}",
        )

    def extend(
        self,
        clauses: Iterable[ClauseCI] = (),
        universals: Iterable[UniversalCI] = (),
        at_leasts: Iterable[AtLeastCI] = (),
        at_mosts: Iterable[AtMostCI] = (),
        name: str = "",
    ) -> "NormalizedTBox":
        return NormalizedTBox(
            self.clauses + list(clauses),
            self.universals + list(universals),
            self.at_leasts + list(at_leasts),
            self.at_mosts + list(at_mosts),
            original=self.original,
            fresh_names=set(self.fresh_names),
            definitions=dict(self.definitions),
            name=name or self.name,
        )

    def __str__(self) -> str:
        lines = [f"NormalizedTBox {self.name}:"]
        lines.extend(f"  {ci}" for ci in self.all_cis())
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# normalization


def nnf(c: Concept, negate: bool = False) -> Concept:
    """Negation normal form (negation only on concept names)."""
    if isinstance(c, Bottom):
        return Top() if negate else c
    if isinstance(c, Top):
        return Bottom() if negate else c
    if isinstance(c, Atomic):
        return Atomic(c.label.complement()) if negate else c
    if isinstance(c, Not):
        return nnf(c.inner, not negate)
    if isinstance(c, And):
        parts = tuple(nnf(p, negate) for p in c.parts)
        return Or(parts) if negate else And(parts)
    if isinstance(c, Or):
        parts = tuple(nnf(p, negate) for p in c.parts)
        return And(parts) if negate else Or(parts)
    if isinstance(c, ForAll):
        if negate:
            return AtLeast(1, c.role, nnf(c.filler, True))
        return ForAll(c.role, nnf(c.filler))
    if isinstance(c, AtLeast):
        if negate:
            if c.n == 0:
                return Bottom()  # ¬(∃≥0 r.C) = ¬⊤
            return AtMost(c.n - 1, c.role, nnf(c.filler))
        if c.n == 0:
            return Top()
        return AtLeast(c.n, c.role, nnf(c.filler))
    if isinstance(c, AtMost):
        if negate:
            return AtLeast(c.n + 1, c.role, nnf(c.filler))
        return AtMost(c.n, c.role, nnf(c.filler))
    raise TypeError(f"unknown concept {c!r}")


def _as_literal(c: Concept) -> Optional[NodeLabel]:
    if isinstance(c, Atomic):
        return c.label
    return None


def normalize(tbox: TBox) -> NormalizedTBox:
    """Normalize a TBox; fresh names use the ``Nz_`` prefix.

    The result is cached on the frozen ``tbox`` object, the way
    :meth:`NormalizedTBox.content_key` caches on its object, so a schema
    reused across decisions is normalized once and its own caches (content
    key, the chase's compiled rules) are built once.  The cache is keyed by
    object, not content: an equal but distinct ``TBox`` gets its own
    result.  Callers must not mutate the returned object."""
    cached = getattr(tbox, "_normalized", None)
    if cached is None:
        cached = _normalize(tbox)
        object.__setattr__(tbox, "_normalized", cached)
    return cached


def _normalize(tbox: TBox) -> NormalizedTBox:
    taken = tbox.concept_names()
    fresh = fresh_name_factory("Nz_", taken)

    clauses: list[ClauseCI] = []
    universals: list[UniversalCI] = []
    at_leasts: list[AtLeastCI] = []
    at_mosts: list[AtMostCI] = []
    fresh_names: set[str] = set()
    definitions: dict[str, Concept] = {}
    pending: list[CI] = list(tbox.cis)

    def define_literal(c: Concept, superset_direction: bool) -> NodeLabel:
        """A literal name for ``c``; adds X ⊑ C (True) or C ⊑ X (False)."""
        literal = _as_literal(c)
        if literal is not None:
            return literal
        name = fresh()
        fresh_names.add(name)
        definitions[name] = c
        label = NodeLabel(name)
        if superset_direction:
            pending.append(CI(Atomic(label), c))
        else:
            pending.append(CI(c, Atomic(label)))
        return label

    def restriction_literal(c: Concept) -> NodeLabel:
        """A literal X with X ⊑ (role restriction), emitting the normal CI."""
        name = fresh()
        fresh_names.add(name)
        definitions[name] = c
        label = NodeLabel(name)
        if isinstance(c, ForAll):
            filler = define_literal(c.filler, superset_direction=True)
            universals.append(UniversalCI(label, c.role, filler))
        elif isinstance(c, AtLeast):
            filler = define_literal(c.filler, superset_direction=True)
            at_leasts.append(AtLeastCI(label, c.n, c.role, filler))
        elif isinstance(c, AtMost):
            filler = define_literal(c.filler, superset_direction=False)
            at_mosts.append(AtMostCI(label, c.n, c.role, filler))
        else:  # pragma: no cover - callers only pass restrictions
            raise TypeError(type(c))
        return label

    def to_clauses(c: Concept) -> list[frozenset[NodeLabel]]:
        """CNF of an NNF concept, role restrictions replaced by literals."""
        if isinstance(c, Top):
            return []
        if isinstance(c, Bottom):
            return [frozenset()]
        if isinstance(c, Atomic):
            return [frozenset({c.label})]
        if isinstance(c, (ForAll, AtLeast, AtMost)):
            if isinstance(c, AtLeast) and c.n == 0:
                return []
            return [frozenset({restriction_literal(c)})]
        if isinstance(c, And):
            result: list[frozenset[NodeLabel]] = []
            for part in c.parts:
                result.extend(to_clauses(part))
            return result
        if isinstance(c, Or):
            children = [to_clauses(part) for part in c.parts]
            result = []
            for pick in product(*children):
                merged: set[NodeLabel] = set()
                for clause in pick:
                    merged |= clause
                result.append(frozenset(merged))
            return result
        raise TypeError(f"unexpected concept in NNF: {c!r}")

    while pending:
        ci = pending.pop()
        nnf_concept = nnf(Or((Not(ci.lhs), ci.rhs)))
        for head in to_clauses(nnf_concept):
            positive = frozenset(lit for lit in head if not lit.negated)
            body = frozenset(lit.complement() for lit in head if lit.negated)
            # tautology pruning: body literal also in head
            if positive & {lit for lit in body}:
                continue
            clauses.append(ClauseCI(body, positive))

    # deduplicate
    clauses = list(dict.fromkeys(clauses))
    universals = list(dict.fromkeys(universals))
    at_leasts = list(dict.fromkeys(at_leasts))
    at_mosts = list(dict.fromkeys(at_mosts))
    return NormalizedTBox(
        clauses,
        universals,
        at_leasts,
        at_mosts,
        original=tbox,
        fresh_names=fresh_names,
        name=tbox.name,
        definitions=definitions,
    )
