"""Write ``answers.json``: the expected verdict of every pool item and where
it comes from.

No answer comes from ``is_contained``.  The sources, in order of strength:

* ``paper`` / ``example`` / ``hand`` — stated outcomes of the paper's
  Examples 1.1 and 3.6, of the example scripts, and short hand derivations
  (E7's disjunctive labelling, the ∀-typed chain, the fixpoint instances);
* ``baseline`` — the schema-free expansion test proves containment on all
  graphs, hence modulo any schema (or, without a schema, refutes it);
* ``search`` — ``repro.core.search.CountermodelSearch`` run directly on an
  lhs expansion (word length ≤ 4) with budgets above ``is_contained``'s
  defaults found a countermodel: a certain False once it passes evaluation;
* ``probe`` — ``repro.core.certify.probe_containment`` found a countermodel
  (a certain False), or found none among its randomized T-models (a bounded
  True: the answer is only as strong as the probe budget).

Every False answer's witness, when one was produced here, is re-checked by
evaluation before it is written.  Stated answers are cross-checked against
the oracles wherever an oracle is decisive.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_answers.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import pool  # noqa: E402
from perfbench.checks import ANSWERS, countermodel_error  # noqa: E402

PROBES = 40

STATED = {
    "paper.ex11.q1_q2": (False, "paper: Example 1.1, q1 ⊄ q2 without the schema (partner target need not be retail)"),
    "paper.ex11.q2_q1": (True, "paper: Example 1.1, q2's path spells a q1 word"),
    "paper.ex11.q1_q2.S": (True, "paper: Example 1.1, q1 ⊆_S q2 under the Fig. 1 schema"),
    "paper.ex11.q2_q1.S": (True, "paper: Example 1.1, q2 ⊆ q1 on all graphs"),
    "paper.ex36.edge_q": (True, "paper: Example 3.6, one r-edge is an r+ path"),
    "paper.ex36.q_edge": (False, "paper: Example 3.6, an r-path of length 2 avoids the single edge"),
    "paper.ex36.a_q.T": (True, "hand: A ⊑ ∃r.B gives every A node an r-successor in B"),
    "example.pathways.kinase_broad": (True, "example: bioinformatics_pathways.py, kinase ⊆ broad"),
    "example.pathways.broad_kinase": (False, "example: bioinformatics_pathways.py, non-kinase protein"),
    "example.pathways.drop_test.S": (True, "example: bioinformatics_pathways.py, Metabolite test redundant mod schema"),
    "example.pathways.drop_test": (False, "example: bioinformatics_pathways.py, not without the schema"),
    "example.social.escalation_audience": (True, "example: social_network.py, escalation ⊆ audience"),
    "example.social.audience_escalation": (False, "example: social_network.py, ordinary members are not moderators"),
    "example.quickstart.owns": (False, "example: quickstart.py, countermodel without schema"),
    "example.quickstart.owns.S": (True, "example: quickstart.py, contained modulo schema"),
    "example.coherence.heads.S": (True, "example: schema_coherence.py, licensed by the fixed schema"),
    "example.coherence.heads": (False, "example: schema_coherence.py, not without a schema"),
    "example.tour.loops": (False, "example: countermodel_tour.py, star-like countermodel"),
    "group.fchain.neg": (False, "hand: L1 ⊑ ∀r.L2 types the successor L2, not L1"),
}
for _n in pool.E7_SIZES:
    STATED[f"e7.sweep{_n}"] = (False, "hand: A ⊑ B ⊔ C lets every node be B alone; no node is B and C")
for _k in range(2):
    STATED[f"group.fchain.premise{_k}"] = (True, "hand: L0 ⊑ ∀r.L1 makes every r-successor of an L0 node L1")
for _k in range(len(pool.FCHAIN_DISJUNCTS) + 1):
    STATED[f"group.fchain.dup{_k}"] = (True, "hand: L0 ⊑ ∀r.L1 makes every r-successor of an L0 node L1")

FIXPOINT = {
    "oneway": (True, "hand: τ = {A0} is realized by one A0..A_{w-1} node with no Z, no r-edge"),
    "twoway": (False, "hand: A ⊑ ≥n r.B forces A(x), r(x,y), B(y) in every model of τ = {A}"),
}


def _e7_witness(n: int):
    """The all-B labelling of the n-edge A-path: a T-model of A ⊑ B ⊔ C
    with no node carrying both B and C."""
    from repro.graphs.generators import path_graph

    graph = path_graph(n, "r")
    for node in graph.node_list():
        graph.add_label(node, "A")
        graph.add_label(node, "B")
    return graph


def _search_refutation(item, tbox):
    """A countermodel from the chase engine run directly on each lhs
    expansion (word length ≤ 4) with budgets above ``is_contained``'s
    defaults, or ``None``.  The caller re-checks it by evaluation."""
    from repro.core.baseline import expansions
    from repro.core.display import strip_internal_labels
    from repro.core.search import CountermodelSearch, SearchLimits
    from repro.dl.normalize import normalize
    from repro.queries.evaluation import satisfies
    from repro.queries.parser import parse_query

    normalized = normalize(tbox)
    lhs, rhs = parse_query(item.lhs), parse_query(item.rhs)
    limits = SearchLimits(max_nodes=16, max_steps=100_000)
    for disjunct in lhs:
        for expansion in expansions(disjunct, 4, 50):
            search = CountermodelSearch(
                normalized, rhs, expansion.graph, limits=limits,
                accept=lambda g, d=disjunct: satisfies(g, d),
            )
            outcome = search.run()
            if outcome.found:
                return strip_internal_labels(outcome.countermodel)
    return None


def oracle(item, tbox):
    """``(contained, source, witness)`` from the baseline, the search or
    the probe."""
    from repro.core.baseline import contained_no_schema
    from repro.core.certify import probe_containment
    from repro.queries.parser import parse_query

    base = contained_no_schema(parse_query(item.lhs), parse_query(item.rhs), 4, 300)
    if base.contained and base.complete:
        return True, "baseline: contained on all graphs", None
    if tbox is None:
        if base.contained:
            return None, "baseline: inconclusive", None
        return False, "baseline: countermodel", base.countermodel
    witness = _search_refutation(item, tbox)
    if witness is not None:
        return False, "search: chase countermodel on an lhs expansion (core.search, raised budgets)", witness
    report = probe_containment(item.lhs, item.rhs, tbox, probes=PROBES, seed=0)
    if report.refuted:
        return False, "probe: countermodel (core.certify)", report.refutation
    return True, (
        f"probe: no countermodel in {PROBES} randomized T-models "
        f"({report.probes} matched the lhs; bounded, not a proof)"
    ), None


def main() -> int:
    schemas = pool.schemas()
    answers, problems = {}, []
    for item in pool.decision_items():
        tbox = schemas.get(item.schema)
        found, found_source, witness = oracle(item, tbox)
        if item.id in STATED:
            contained, source = STATED[item.id]
            decisive = found is not None and not found_source.startswith("probe: no")
            if decisive and found != contained:
                problems.append(f"{item.id}: stated {contained}, {found_source} says {found}")
            if item.id.startswith("e7.sweep"):
                witness = _e7_witness(int(item.id[len("e7.sweep"):]))
        else:
            contained, source = found, found_source
        if contained is None:
            problems.append(f"{item.id}: no oracle answers it")
            continue
        if contained is False and witness is not None:
            error = countermodel_error(witness, item.lhs, item.rhs, tbox)
            if error is not None:
                problems.append(f"{item.id}: witness rejected: {error}")
            source += "; witness re-checked by evaluation"
        answers[item.id] = {"contained": contained, "source": source}
        print(f"{item.id:42s} {contained!s:5} {source}", flush=True)
    for item in pool.fixpoint_items():
        contained, source = FIXPOINT[item.procedure]
        answers[item.id] = {"contained": contained, "source": source}
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    ANSWERS.write_text(json.dumps(
        {"note": "realizable for fixpoint items; contained for decisions",
         "answers": answers},
        indent=1, sort_keys=True, ensure_ascii=False,
    ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
