"""Fragment-specific TBox transformations.

* Section 5 (ALCI): the projections T→ and T← that separate reasoning about
  outgoing and incoming edges in alternating frames;
* Section 6 (ALCQ): the counter factorization (Γ_T, T_p, T_c) that lets
  number restrictions be split between a frame component and its connectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.dl.concepts import And, AtLeast, AtMost, Atomic, Bottom, Concept, ForAll, Or, Top
from repro.dl.normalize import (
    AtLeastCI,
    AtMostCI,
    ClauseCI,
    NormalizedTBox,
    UniversalCI,
    normalize,
)
from repro.dl.tbox import CI, TBox
from repro.graphs.labels import NodeLabel, Role


def forward_projection(tbox: NormalizedTBox) -> NormalizedTBox:
    """T→ (Section 5): participation over inverse roles dropped, universals
    over inverse roles flipped to forward form.

    The result mentions only forward roles in its role CIs, hence is an ALC
    TBox whenever the input is ALCI.
    """
    universals = []
    for ci in tbox.universals:
        universals.append(ci.flipped() if ci.role.inverted else ci)
    at_leasts = [ci for ci in tbox.at_leasts if not ci.role.inverted]
    return NormalizedTBox(
        list(tbox.clauses),
        universals,
        at_leasts,
        list(tbox.at_mosts),
        original=tbox.original,
        fresh_names=set(tbox.fresh_names),
        definitions=dict(tbox.definitions),
        name=f"{tbox.name}_fwd",
    )


def backward_projection(tbox: NormalizedTBox) -> NormalizedTBox:
    """T← (Section 5): the mirror image of :func:`forward_projection`.

    The result mentions only inverse roles; treating r⁻ as a fresh role name
    turns it into an ALC TBox (done by :func:`reverse_roles` below).
    """
    universals = []
    for ci in tbox.universals:
        universals.append(ci.flipped() if not ci.role.inverted else ci)
    at_leasts = [ci for ci in tbox.at_leasts if ci.role.inverted]
    return NormalizedTBox(
        list(tbox.clauses),
        universals,
        at_leasts,
        list(tbox.at_mosts),
        original=tbox.original,
        fresh_names=set(tbox.fresh_names),
        definitions=dict(tbox.definitions),
        name=f"{tbox.name}_bwd",
    )


def reverse_roles(tbox: NormalizedTBox) -> NormalizedTBox:
    """Invert every role occurrence (view the graph with edges reversed)."""
    return NormalizedTBox(
        list(tbox.clauses),
        [UniversalCI(ci.subject, ci.role.inverse(), ci.filler) for ci in tbox.universals],
        [AtLeastCI(ci.subject, ci.n, ci.role.inverse(), ci.filler) for ci in tbox.at_leasts],
        [AtMostCI(ci.subject, ci.n, ci.role.inverse(), ci.filler) for ci in tbox.at_mosts],
        original=tbox.original,
        fresh_names=set(tbox.fresh_names),
        definitions=dict(tbox.definitions),
        name=f"{tbox.name}_rev",
    )


# --------------------------------------------------------------------- #
# Section 6: ALCQ counter factorization


def counter_label(n: int, role: Role, filler: NodeLabel, tag: str = "") -> NodeLabel:
    """The fresh concept name C_{n,r,D} of Γ_T.

    ``tag`` distinguishes the counter generations of the recursive Section 6
    pipeline (Appendix B.7's "fresh copies" of previously introduced
    counters)."""
    polarity = "n" if filler.negated else "p"
    return NodeLabel(f"Cnt{tag}_{n}_{role.name}_{polarity}{filler.name}")


@dataclass
class ALCQFactorization:
    """Γ_T plus the TBoxes T_p (components) and T_c (connectors).

    ``counters`` maps each (role, filler) pair involved in a number
    restriction to its list of counter labels C_{0,r,D} … C_{N,r,D}; the
    label C_{i,r,D} marks nodes with exactly i (or, for i = N, at least N)
    r-successors in D *within their own component*.
    """

    gamma: list[NodeLabel]
    counters: dict[tuple[Role, NodeLabel], list[NodeLabel]]
    cap: int
    components_tbox: NormalizedTBox
    connectors_tbox: NormalizedTBox

    def place_counters(self, graph) -> None:
        """Attach the uniquely determined counter labels to ``graph``'s nodes
        (in place) — the "unique way to place labels" of Section 6."""
        for (role, filler), labels in self.counters.items():
            for node in graph.node_list():
                count = sum(
                    1
                    for w in graph.successors(node, role)
                    if graph.has_label(w, filler)
                )
                index = min(count, self.cap)
                graph.add_label(node, labels[index])


def alcq_factorization(tbox: NormalizedTBox, tag: str = "") -> ALCQFactorization:
    """Build (Γ_T, T_p, T_c) for an ALCQ TBox (Section 6).

    * T_p keeps the propositional part of T, drops all role CIs, and adds the
      counter definitions: C_{i,r,D} means "exactly i r-successors in D"
      (capped at N = 1 + max cardinality of T), with an exactly-one clause
      per (r, D) pair.
    * T_c replaces each number restriction by its split over counters:
      C ⊑ ∃≥n r.D becomes C ⊑ ⋁_{i≤n} (C_{i,r,D} ⊓ ∃≥(n−i) r.D) ∨ ⋁_{i>n} C_{i,r,D},
      and C ⊑ ∃≤n r.D becomes C ⊑ ⋁_{i≤n} (C_{i,r,D} ⊓ ∃≤(n−i) r.D);
      the successors already counted inside the component are discharged
      against the counter label, the rest must be provided by the connector.
    """
    if tbox.uses_inverse_roles():
        raise ValueError("ALCQ factorization applies to TBoxes without inverse roles")
    cap = tbox.max_cardinality() + 1

    pairs: list[tuple[Role, NodeLabel]] = []
    for ci in list(tbox.at_leasts) + list(tbox.at_mosts):
        pair = (ci.role, ci.filler)
        if pair not in pairs:
            pairs.append(pair)

    counters: dict[tuple[Role, NodeLabel], list[NodeLabel]] = {}
    gamma: list[NodeLabel] = []
    for pair in pairs:
        labels = [counter_label(i, pair[0], pair[1], tag) for i in range(cap + 1)]
        counters[pair] = labels
        gamma.extend(labels)

    # ----- T_p ------------------------------------------------------- #
    p_clauses = list(tbox.clauses)
    p_at_leasts: list[AtLeastCI] = []
    p_at_mosts: list[AtMostCI] = []
    for (role, filler), labels in counters.items():
        for i, label in enumerate(labels):
            if i >= 1:
                p_at_leasts.append(AtLeastCI(label, i, role, filler))
            if i < cap:
                p_at_mosts.append(AtMostCI(label, i, role, filler))
        # exactly one counter label per node
        p_clauses.append(ClauseCI(frozenset(), frozenset(labels)))
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                p_clauses.append(ClauseCI(frozenset({labels[i], labels[j]}), frozenset()))
    components_tbox = NormalizedTBox(
        p_clauses,
        [],
        p_at_leasts,
        p_at_mosts,
        original=tbox.original,
        fresh_names=set(tbox.fresh_names) | {lbl.name for lbl in gamma},
        name=f"{tbox.name}_Tp",
        definitions=dict(tbox.definitions),
    )

    # ----- T_c ------------------------------------------------------- #
    raw_cis: list[CI] = []
    for clause in tbox.clauses:
        body: Concept = And(tuple(Atomic(lit) for lit in clause.body)) if clause.body else Top()
        head: Concept = (
            Or(tuple(Atomic(lit) for lit in clause.head)) if clause.head else Bottom()
        )
        raw_cis.append(CI(body, head))
    for uci in tbox.universals:
        raw_cis.append(CI(Atomic(uci.subject), ForAll(uci.role, Atomic(uci.filler))))
    split_definitions: dict[str, Concept] = {}
    for ci in tbox.at_leasts:
        labels = counters[(ci.role, ci.filler)]
        options: list[Concept] = []
        for i in range(min(ci.n, cap) + 1):
            remaining = ci.n - i
            if remaining <= 0:
                options.append(Atomic(labels[i]))
            else:
                options.append(And((Atomic(labels[i]), AtLeast(remaining, ci.role, Atomic(ci.filler)))))
        for i in range(ci.n + 1, cap + 1):
            options.append(Atomic(labels[i]))
        split: Concept = Or(tuple(options)) if len(options) > 1 else options[0]
        raw_cis.append(CI(Atomic(ci.subject), split))
        if isinstance(tbox.definitions.get(ci.subject.name), (AtLeast, AtMost)):
            split_definitions[ci.subject.name] = split
    for ci in tbox.at_mosts:
        labels = counters[(ci.role, ci.filler)]
        options = []
        for i in range(min(ci.n, cap) + 1):
            remaining = ci.n - i
            options.append(And((Atomic(labels[i]), AtMost(remaining, ci.role, Atomic(ci.filler)))))
        split = Or(tuple(options)) if len(options) > 1 else options[0]
        raw_cis.append(CI(Atomic(ci.subject), split))
        if isinstance(tbox.definitions.get(ci.subject.name), (AtLeast, AtMost)):
            split_definitions[ci.subject.name] = split
    normalized_tc = normalize(TBox(tuple(raw_cis), name=f"{tbox.name}_Tc"))
    # T_c inherits T's fresh names as plain atomics; carry their definitions
    # over so that `complete` can place them on candidate connectors.  The
    # markers of T's own number restrictions are reinterpreted: in a
    # connector they hold iff the *split* (component counter + connector
    # witnesses) holds, not the original single-graph restriction.  The
    # normalized object is cached on its raw TBox, so T_c is a new object.
    definitions = dict(normalized_tc.definitions)
    for name, definition in tbox.definitions.items():
        definitions.setdefault(name, definition)
    definitions.update(split_definitions)
    connectors_tbox = replace(
        normalized_tc,
        definitions=definitions,
        fresh_names=normalized_tc.fresh_names | set(tbox.fresh_names),
    )

    return ALCQFactorization(gamma, counters, cap, components_tbox, connectors_tbox)
