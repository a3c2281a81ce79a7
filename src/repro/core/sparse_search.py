"""Sparse countermodels — Theorem 3.1 and the Theorem 3.2 decision procedure.

Theorem 3.1 (Boneva et al.): every graph satisfying a connected C2RPQ p has
a |p|-sparse "shadow" that still satisfies p and locally embeds into it.
:func:`sparsify` implements the construction: freeze one match of p with its
witnessing paths into a fresh graph — a union of |p| paths, hence at most
|p| edges beyond a spanning tree.

For TBoxes *without participation constraints* sparse shadows remain models
(Section 3), so containment reduces to searching |p|-sparse countermodels.
:func:`contained_without_participation` does exactly that: canonical
expansions of p are the sparse candidates, and the chase (which can only
add labels — the TBox has no at-least CIs) completes them to T-models
avoiding Q when possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.automata.product import witness_path
from repro.core.baseline import enumeration_exhausted, expansions
from repro.core.search import CountermodelSearch, SearchLimits
from repro.dl.normalize import NormalizedTBox
from repro.graphs.graph import Graph, Node
from repro.graphs.labels import NodeLabel
from repro.obs import REGISTRY, span
from repro.queries.crpq import CRPQ
from repro.queries.evaluation import matches, satisfies_union
from repro.queries.ucrpq import UCRPQ


def sparsify(graph: Graph, query: CRPQ) -> Optional[Graph]:
    """A |q|-sparse graph satisfying ``query`` that locally embeds into
    ``graph`` (Theorem 3.1), or ``None`` when the query does not match.

    Construction: take a match; for each path atom take one witnessing
    path; lay the paths out over fresh nodes (edges kept distinct), merging
    only at the matched variables.  Labels are copied from the original
    nodes so the local embedding (the copy map) is label-exact.
    """
    match = next(matches(graph, query), None)
    if match is None:
        return None
    sparse = Graph()
    copies: dict[Node, Node] = {}

    def variable_copy(original: Node) -> Node:
        if original not in copies:
            copies[original] = ("m", original)
            sparse.add_node(copies[original], graph.labels_of(original))
        return copies[original]

    for variable in query.variables:
        variable_copy(match[variable])
    for index, atom in enumerate(query.path_atoms):
        source = match[atom.source]
        target = match[atom.target]
        path = witness_path(graph, atom.compiled, source, target)
        if path is None:  # pragma: no cover - match guarantees a witness
            return None
        current = variable_copy(source)
        current_original = source
        for step, (a, label, b) in enumerate(path):
            if isinstance(label, NodeLabel):
                continue  # tests stay at the current node
            last_move = all(
                isinstance(lbl, NodeLabel) for _x, lbl, _y in path[step + 1 :]
            )
            if last_move:
                nxt = variable_copy(target)
            else:
                nxt = ("p", index, step)
                sparse.add_node(nxt, graph.labels_of(b))
            sparse.add_edge(current, label, nxt)
            current = nxt
            current_original = b
    return sparse


@dataclass
class SparseSearchResult:
    contained: bool
    complete: bool
    countermodel: Optional[Graph]
    seeds_tried: int

    def __bool__(self) -> bool:
        return self.contained


def contained_without_participation(
    lhs: CRPQ,
    rhs: UCRPQ,
    tbox: NormalizedTBox,
    max_word_length: int = 4,
    max_expansions: int = 500,
    limits: Optional[SearchLimits] = None,
) -> SparseSearchResult:
    """Theorem 3.2: containment p ⊆_T Q for T without participation
    constraints, by search over |p|-sparse countermodel candidates.

    Each canonical expansion of p is a sparse candidate; since T has no
    at-least CIs, the chase never adds nodes or edges and merely resolves
    label obligations, so candidates stay sparse.

    ``limits.incremental`` governs the chase's incremental layer inside
    every per-candidate :class:`CountermodelSearch` (containment's
    ``options.incremental`` is pinned into these limits).  The
    compiled matchers for ``rhs`` are built once and shared across the
    whole candidate sweep through the ``compile_query`` memo, so the
    sweep pays query compilation once, not per seed.
    """
    if tbox.has_participation_constraints():
        raise ValueError("use the general procedure: the TBox has participation constraints")
    limits = limits or SearchLimits(max_nodes=64, max_steps=20_000)

    with span("sparse") as sp:
        result = _sparse_decision(
            lhs, rhs, tbox, max_word_length, max_expansions, limits
        )
        sp.set(
            contained=result.contained,
            complete=result.complete,
            seeds_tried=result.seeds_tried,
        )
    REGISTRY.inc_many({"sparse.calls": 1, "sparse.seeds_tried": result.seeds_tried})
    return result


def _sparse_decision(
    lhs: CRPQ,
    rhs: UCRPQ,
    tbox: NormalizedTBox,
    max_word_length: int,
    max_expansions: int,
    limits: SearchLimits,
) -> SparseSearchResult:
    deadline = limits.deadline
    seeds = 0
    cut = False
    refuted = True
    for expansion in expansions(lhs, max_word_length, max_expansions):
        if deadline is not None and deadline.expired():
            cut = True
            break
        seeds += 1
        outcome = CountermodelSearch(
            tbox,
            rhs,
            expansion.graph,
            limits=limits,
            accept=lambda g: not satisfies_union(g, rhs),
        ).run()
        if outcome.found:
            model = outcome.countermodel
            # re-verify the three defining conditions
            assert tbox.satisfied_by(model)
            assert not satisfies_union(model, rhs)
            return SparseSearchResult(False, True, model, seeds)
        if outcome.deadline_expired:
            cut = True
            break
        # a chase stopped by its step budget refuted nothing
        refuted = refuted and outcome.exhausted
    if cut:
        REGISTRY.inc("sparse.deadline_cut")
    # Theorem 3.1 bounds a countermodel's shape, not its path lengths, so
    # the sweep certifies containment only when it saw every candidate:
    # every lhs language fully enumerated within ``max_word_length``, the
    # expansion budget not reached, and every seed's search exhausted
    complete = (
        not cut
        and refuted
        and seeds < max_expansions
        and all(
            enumeration_exhausted(atom.compiled, max_word_length)
            for atom in lhs.path_atoms
        )
    )
    return SparseSearchResult(True, complete, None, seeds)
