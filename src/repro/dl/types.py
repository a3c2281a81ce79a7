"""TBox-aware node types.

The fixpoint procedures of Sections 5–6 range over maximal types over a
label set Γ₀ that are *locally consistent*: they satisfy every clausal CI of
the (normalized) TBox.  Role CIs are not local and are handled by the frame
machinery instead.

Clause checks are on the hottest path of every procedure, so they run on
the bitset kernel (:mod:`repro.kernel.bitset`): per (TBox, signature) the
clauses compile once to bitmasks and each check is a few integer ops.  The
original frozenset evaluation is kept as :func:`clause_consistent_reference`
— the property tests assert the two agree on random signatures.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.dl.normalize import NormalizedTBox
from repro.graphs.types import Type
from repro.kernel.backend import resolve_backend
from repro.kernel.bitset import compiled_clauses_for


def clause_consistent(tbox: NormalizedTBox, node_type: Type) -> bool:
    """Does the (maximal) type satisfy every clausal CI of the TBox?

    Literals over names outside the type's signature are treated as absent
    labels, matching graph semantics where an unlisted label does not hold.
    """
    compiled = compiled_clauses_for(tbox, node_type.signature())
    return compiled.consistent(compiled.kernel.encode(node_type))


def clause_consistent_reference(tbox: NormalizedTBox, node_type: Type) -> bool:
    """Pure-frozenset evaluation of :func:`clause_consistent` (the oracle
    the bitset kernel is property-tested against)."""
    signature = node_type.signature()

    def literal_holds(literal) -> bool:
        if literal.name in signature:
            return literal in node_type
        return literal.negated  # unmentioned labels are absent

    for clause in tbox.clauses:
        if all(literal_holds(lit) for lit in clause.body) and not any(
            literal_holds(lit) for lit in clause.head
        ):
            return False
    return True


def consistent_types(
    tbox: NormalizedTBox, names: Iterable[str], backend: str = "auto"
) -> Iterator[Type]:
    """Enumerate maximal types over ``names`` that satisfy the clausal CIs.

    Enumeration runs on the bitset kernel (or, for ``backend="vec"`` /
    large ``"auto"`` signatures with numpy available, the bit-matrix
    kernel — same types, same increasing-integer order); ``Type`` objects
    are only built for the survivors.

    Not itself a generator: the backend resolves (and an infeasible
    explicit ``backend="vec"`` raises :class:`~repro.kernel.backend.
    VecUnavailable`) at call time, not at the first ``next()``.
    """
    compiled = compiled_clauses_for(tbox, names)
    decode = compiled.kernel.decode
    chosen = resolve_backend(backend, 1 << compiled.kernel.size)
    if chosen == "vec":
        from repro.kernel.vec import consistent_ints_vec

        bit_source: Iterable[int] = consistent_ints_vec(tbox, names)
    else:
        bit_source = compiled.consistent_bits()
    return (decode(bits) for bits in bit_source)
