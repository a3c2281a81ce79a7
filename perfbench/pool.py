"""The benchmark's decision pool, built only from what the repository ships.

Every workload draws its inputs from this pool.  The pool itself is fixed:
it is assembled from the paper presets, the example scripts, the E7 chase
sweep, ``repro.workloads`` query logs over ``chain_schema`` and E15-sized
``random_er_schema`` schemas (E15's own rows, seed = entities), and the
E21/E22 fixpoint instances, all with fixed generator seeds.  A run's
``--seed`` only decides which pool items a workload draws, in what order
and at what times; it never changes an item, so each item has one expected
verdict, recorded in ``answers.json`` (see ``make_answers.py``).
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Item:
    """One containment decision ``lhs ⊆_schema rhs``."""

    id: str
    family: str
    lhs: str
    rhs: str
    schema: Optional[str] = None


@dataclass(frozen=True)
class FixpointItem:
    """One call of a Section 5/6 fixpoint procedure on a coupled instance."""

    id: str
    procedure: str
    """``oneway`` (``realizable_refuting_oneway``) or ``twoway``."""
    width: int
    """Chain width (oneway) or the at-least bound n of ``A ⊑ ≥n r.B``."""
    pads: int = 0


def _load_example(name: str):
    path = ROOT / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _path_query(n: int, label: str = "A", role: str = "r") -> str:
    atoms = [f"{label}(x0)"]
    for i in range(n):
        atoms.append(f"{role}(x{i},x{i + 1})")
        atoms.append(f"{label}(x{i + 1})")
    return ", ".join(atoms)


CHAIN_DEPTH = 3
ER_SIZES = ((4, 3), (6, 5), (8, 8))
"""E15's (entities, relationships) rows, each generated with seed=entities."""
E7_SIZES = (2, 4, 8, 16)
LOG_PAIRS = {"chain3": 800, "er4": 150, "er6": 50}
"""Independent (lhs, rhs) draws per log schema, sized so a library-cold pass
over the whole pool takes about 10 s with no decision above a tenth of it."""
LOG_LENGTH = 96
"""Queries per synthetic log; pairs are drawn from it, so a family's first
k pairs do not depend on its size."""
LOG_SEED = 9
"""Seed of the chain log (ER logs use ``LOG_SEED + entities``)."""
FCHAIN_RHS = "r(x,y), L1(y)"
FCHAIN_DISJUNCTS = (
    "L0(x), r(x,y)",
    "r(x,y), L1(y)",
    "L0(x), (r.r)(x,y)",
    "L0(x), r(x,y), L2(z)",
    "L0(x), (r.s)(x,y)",
)
"""Left-hand sides contained in ``FCHAIN_RHS`` under the ∀-typed chain
L0 ⊑ ∀r.L1, ...: every r-successor of an L0 node is an L1 node.  Unions of
them are the E24-style premises whose disjunct subsets the semantic cache
answers by transitivity."""


def schemas() -> dict:
    """Schema name → raw ``TBox``, in a fixed order."""
    from repro.dl.pg_schema import PGSchema, figure1_schema
    from repro.dl.tbox import TBox
    from repro.workloads.er_schemas import ERProfile, random_er_schema
    from repro.workloads.generators import chain_schema

    fixed = PGSchema(name="hr_fixed")
    fixed.subtype("Manager", "Employee")
    fixed.subtype("Contractor", "Staff")
    fixed.subtype("Employee", "Staff")
    fixed.disjoint("Employee", "Contractor")
    fixed.participation("Manager", "heads", "Team")
    fixed.edge_type("heads", "Manager", "Team")

    out = {
        "fig1": figure1_schema(),
        "ex36": TBox.of([("A", "exists r.B")], name="ex36"),
        "pathways": _load_example("bioinformatics_pathways").build_schema().to_tbox(),
        "social": _load_example("social_network").build_schema().to_tbox(),
        "mini_rewards": TBox.of(
            [
                ("Customer", "exists owns.CredCard"),
                ("Customer", "forall owns.CredCard"),
                ("PremCC", "CredCard"),
                ("PremCC", "<=3 earns.RwrdProg"),
            ],
            name="mini-rewards",
        ),
        "hr_fixed": fixed.to_tbox(),
        "loops": TBox.of([("A", "exists r.A")], name="loops"),
        "e7": TBox.of([("A", "B | C")], name="e7"),
        f"chain{CHAIN_DEPTH}": chain_schema(CHAIN_DEPTH),
        f"fchain{CHAIN_DEPTH}": chain_schema(CHAIN_DEPTH, participation=False),
    }
    for entities, relationships in ER_SIZES:
        profile = ERProfile(entities=entities, relationships=relationships)
        out[f"er{entities}"] = random_er_schema(profile, seed=entities).to_tbox()
    return out


def _log_pairs(schema_name: str, labels, roles, seed: int) -> list[Item]:
    from repro.io import query_to_text
    from repro.workloads.generators import log_like_queries

    count = LOG_PAIRS[schema_name]
    log = [query_to_text(q) for _, q in log_like_queries(LOG_LENGTH, labels, roles, seed=seed)]
    rng = random.Random(seed)
    items, seen = [], set()
    while len(items) < count:
        lhs, rhs = rng.choice(log), rng.choice(log)
        if lhs == rhs or (lhs, rhs) in seen:
            continue
        seen.add((lhs, rhs))
        items.append(Item(f"log.{schema_name}.{len(items)}", "log", lhs, rhs, schema_name))
    return items


def decision_items() -> list[Item]:
    """The library/server/gateway pool, in a fixed order."""
    from repro.workloads.er_schemas import ERProfile, random_er_schema

    q1 = "(owns.earns.partner.owns*)(x,y)"
    q2 = "(owns.earns.partner)(x,z), RetailCompany(z), owns*(z,y)"
    q36 = "A(x), r+(x,y), B(y)"
    kinase = "Kinase(p), (catalyzes.produces)(p,m)"
    broad = "Protein(p), (catalyzes.produces)(p,m)"
    with_test = "Protein(p), (catalyzes.produces)(p,m), Metabolite(m)"
    audience = "Post(p), (flagged.member-)(p,u), User(u)"
    escalation = "Post(p), (flagged.member-)(p,u), Moderator(u)"
    items = [
        Item("paper.ex11.q1_q2", "paper", q1, q2),
        Item("paper.ex11.q2_q1", "paper", q2, q1),
        Item("paper.ex11.q1_q2.S", "paper", q1, q2, "fig1"),
        Item("paper.ex11.q2_q1.S", "paper", q2, q1, "fig1"),
        Item("paper.ex36.edge_q", "paper", "A(x), r(x,y), B(y)", q36),
        Item("paper.ex36.q_edge", "paper", q36, "A(x), r(x,y), B(y)"),
        Item("paper.ex36.a_q.T", "paper", "A(x)", q36, "ex36"),
        Item("example.pathways.kinase_broad", "example", kinase, broad, "pathways"),
        Item("example.pathways.broad_kinase", "example", broad, kinase, "pathways"),
        Item("example.pathways.drop_test.S", "example", broad, with_test, "pathways"),
        Item("example.pathways.drop_test", "example", broad, with_test),
        Item("example.social.escalation_audience", "example", escalation, audience, "social"),
        Item("example.social.audience_escalation", "example", audience, escalation, "social"),
        Item("example.quickstart.owns", "example", "Customer(x), owns(x,y)", "owns(x,y), CredCard(y)"),
        Item("example.quickstart.owns.S", "example", "Customer(x), owns(x,y)", "owns(x,y), CredCard(y)", "mini_rewards"),
        Item("example.coherence.heads.S", "example", "Manager(x), heads(x,y)", "Employee(x), heads(x,y), Team(y)", "hr_fixed"),
        Item("example.coherence.heads", "example", "Manager(x), heads(x,y)", "Employee(x), heads(x,y), Team(y)"),
        Item("example.tour.loops", "example", "A(x)", "B(x)", "loops"),
    ]
    for n in E7_SIZES:
        items.append(Item(f"e7.sweep{n}", "e7", _path_query(n), "r*(x,y), B(y), C(y)", "e7"))
    fchain = f"fchain{CHAIN_DEPTH}"
    d = FCHAIN_DISJUNCTS
    for k, lhs in enumerate(("; ".join(d[:3]), "; ".join(d[3:]))):
        items.append(Item(f"group.fchain.premise{k}", "group", lhs, FCHAIN_RHS, fchain))
    for k, lhs in enumerate(d + (f"{d[0]}; {d[2]}",)):
        items.append(Item(f"group.fchain.dup{k}", "group", lhs, FCHAIN_RHS, fchain))
    items.append(Item("group.fchain.neg", "group", "L1(x), r(x,y)", FCHAIN_RHS, fchain))
    for entities, _ in ER_SIZES:
        name = f"er{entities}"
        items.append(Item(f"er.{name}.pos", "er", "E0(x), rel0(x,y)", "rel0(x,y)", name))
        items.append(Item(f"er.{name}.neg", "er", "rel0(x,y)", "E0S0(x)", name))
    items += _log_pairs(
        f"chain{CHAIN_DEPTH}", [f"L{i}" for i in range(CHAIN_DEPTH + 1)], ["r", "s"], LOG_SEED
    )
    for entities, relationships in ER_SIZES[:2]:
        schema = random_er_schema(ERProfile(entities=entities, relationships=relationships), seed=entities)
        labels = sorted(schema.node_labels)
        roles = sorted(schema.roles)
        items += _log_pairs(f"er{entities}", labels, roles, LOG_SEED + entities)
    return items


ONEWAY_WIDTHS = (6, 8, 9, 10, 12, 14, 16, 18)
"""E21 coupled-chain widths; |Γ₀| = width + 2, so widths ≤ 9 stay under the
auto backend's 2^12-row switch (bitset) and widths ≥ 10 cross it (vec)."""


def fixpoint_items() -> list[FixpointItem]:
    """E21 coupled chains on both sides of the auto backend's 2^12-row
    switch, and the E21/E22 ``A ⊑ ≥1 r.B`` twoway instance (about a second)."""
    items = [FixpointItem(f"oneway.w{w}", "oneway", w) for w in ONEWAY_WIDTHS]
    items.append(FixpointItem("twoway.ge1", "twoway", 1))
    return items


def fixpoint_instance(item: FixpointItem):
    """``(tau, normalized TBox, query)`` for one fixpoint item, built as
    ``benchmarks/bench_vec_kernel.py`` and ``bench_twoway_vec.py`` build
    them."""
    from repro.dl.normalize import normalize
    from repro.dl.tbox import TBox
    from repro.graphs.types import Type
    from repro.queries.parser import parse_query

    if item.procedure == "oneway":
        w = item.width
        cis = [(f"A{i}", f"A{i + 1}") for i in range(w - 1)]
        tbox = normalize(TBox.of(cis, name=f"vchain{w}"))
        return Type.of("A0"), tbox, parse_query(f"Z(x), r(x,y), A{w - 1}(y)")
    tbox = normalize(TBox.of([("A", f">={item.width} r.B")], name=f"e22_{item.width}_{item.pads}"))
    extra = "; " + ", ".join(f"X{i}(z)" for i in range(item.pads)) if item.pads else ""
    return Type.of("A"), tbox, parse_query("A(x), r(x,y), B(y)" + extra)
