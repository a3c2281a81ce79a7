"""Bit-matrix acceleration structures for the elimination fixpoints.

Three structures back the ``backend="vec"`` paths of the Section 5/6
procedures (:mod:`repro.core.oneway`, :mod:`repro.core.twoway`):

* :class:`OnewayVecTable` — the alternating-frame fixpoint's Γ₀ table with
  an alive mask mirrored against the Ψ set: candidate/filler selection,
  witness-support liveness, and the final τ-refinement check all run as
  bulk boolean ops over every row at once.
* :class:`TwowayVecEnumerator` — the ALCQ pipeline's candidate space
  (free-name sign patterns × one-label-per-counter-group picks)
  materialized as one bit matrix in ``_enumerate_types`` order, so the
  Θ-refinement, clause-consistency, and role-admissibility filters each
  become a single vectorized sweep.  Negated counter labels are encoded as
  complemented columns (the name is positive exactly where the group's
  choice is *not* that label), mirroring the scalar generator's
  pick-vs-complement semantics bit for bit.
* :class:`PsiMaskAnswer` — a fixpoint survivor set packed as bit rows, so
  the per-type "does some survivor refine τ" oracle queries of the batched
  P1/P2 contexts answer as one vectorized refinement sweep each.

All three are *acceleration indexes*: the frozenset ``Type`` bookkeeping
of the procedures stays authoritative, candidate lists come out in the
exact order the bitset path would produce, and every mask is the
vectorized twin of a scalar predicate in the bitset kernel — which is what
makes the backends bit-identical (asserted by E21 and the hypothesis
suite).

Bulk passes run under ``vec.wave`` spans and count ``vec.bulk_ops`` on the
obs registry, so explain reports show the per-wave bulk-op timings.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.dl.normalize import NormalizedTBox
from repro.graphs.labels import NodeLabel
from repro.graphs.types import Type
from repro.kernel.backend import HAVE_NUMPY, require_numpy
from repro.kernel.bitset import TypeKernel, compiled_clauses_for
from repro.kernel.vec import (
    VecClauseMatrix,
    VecTypeTable,
    pack_mask,
    unpack_row,
    vec_table_for,
    word_count,
)
from repro.obs import REGISTRY, span

if HAVE_NUMPY:  # pragma: no branch
    import numpy as _np
else:  # pragma: no cover - CI images bundle numpy
    _np = None

_WORD = 64


class OnewayVecTable:
    """The oneway fixpoint's consistent-type table as a bit matrix.

    Rows are the clause-consistent maximal types over the working Γ₀ in
    increasing-integer order (identical to the bitset enumeration); the
    alive mask mirrors Ψ.  Decoded :class:`Type` objects are kept per row
    because the productivity/connector oracles consume them anyway.
    """

    def __init__(
        self, tbox: NormalizedTBox, gamma: Sequence[str], direction_label: str
    ) -> None:
        require_numpy()
        self.vt = vec_table_for(tbox, gamma)
        decode = self.vt.kernel.decode
        self.types: list[Type] = [decode(bits) for bits in self.vt.ints]
        self.row_of_type = {t: i for i, t in enumerate(self.types)}
        k = len(self.types)
        self._alive = _np.ones(k, dtype=bool)
        self._alive_packed = self.vt.pack_rows(range(k))
        self._forward = self.vt.bit_column(direction_label)
        self._order = None

    def __len__(self) -> int:
        return len(self.types)

    def set_order(self, str_key: dict) -> None:
        """Fix the global candidate ordering (the procedures' str-of-type
        total order), computed once instead of per pool change."""
        self._order = _np.array(
            sorted(range(len(self.types)), key=lambda i: str_key[self.types[i]]),
            dtype=_np.int64,
        )

    def eliminate(self, sigma: Type) -> None:
        row = self.row_of_type[sigma]
        self._alive[row] = False
        w, off = divmod(row, _WORD)
        self._alive_packed[w] &= ~_np.uint64(1 << off)

    def _filler_mask(self, filler: NodeLabel):
        """Vectorized candidate predicate: ``filler ∈ θ`` or (negated
        filler whose name is outside Γ₀ — absent everywhere)."""
        if filler.name in self.vt.kernel.index:
            col = self.vt.bit_column(filler.name)
            return ~col if filler.negated else col
        return _np.full(len(self.types), filler.negated, dtype=bool)

    def candidates(self, forward: bool, filler: NodeLabel) -> list[Type]:
        """Alive types on one side carrying ``filler``, in the global
        order — the bulk twin of the bitset path's filtered sort."""
        with span("vec.wave", op="candidates", rows=len(self.types)) as sp:
            mask = self._alive & (self._forward if forward else ~self._forward)
            mask &= self._filler_mask(filler)
            sel = self._order[mask[self._order]]
            sp.set(selected=int(sel.shape[0]))
        REGISTRY.inc("vec.bulk_ops")
        return [self.types[i] for i in sel.tolist()]

    # ---------------------------------------------------------------- #
    # witness-support liveness (packed row-index sets)

    def pack_types(self, types: Iterable[Type]):
        """A support set as a packed row-index bit vector; ``None`` when a
        type is outside the table (callers then fall back to a re-check,
        matching the bitset path's failed subset test)."""
        rows = []
        for t in types:
            row = self.row_of_type.get(t)
            if row is None:
                return None
            rows.append(row)
        return self.vt.pack_rows(rows)

    def all_alive(self, packed) -> bool:
        """Is every packed supporting type still unexterminated?  The bulk
        twin of ``support <= side_sets[...]``."""
        return packed is not None and VecTypeTable.subset_of(
            packed, self._alive_packed
        )

    def any_alive_refining(self, tau: Type) -> bool:
        """Does some surviving row refine τ?  (The final realizability
        check, vectorized.)"""
        pos, neg = self.vt.kernel.literal_masks(tau)
        with span("vec.wave", op="refine", rows=len(self.types)):
            hit = bool(_np.any(self.vt.refine_mask(pos, neg) & self._alive))
        REGISTRY.inc("vec.bulk_ops")
        return hit


class TwowayVecEnumerator:
    """The twoway candidate space as one bit matrix in enumeration order.

    Row ``i`` encodes the type ``_enumerate_types`` would yield *i*-th:
    the free-name sign pattern is ``i // Πg`` (first name = most
    significant sign bit) and the counter-group picks decompose
    ``i % Πg`` in mixed radix (last group fastest).  Filters then run as
    single sweeps and survivors decode in the exact generator order.
    """

    def __init__(
        self,
        free_names: Sequence[str],
        counter_groups: Sequence[Sequence[NodeLabel]],
    ) -> None:
        require_numpy()
        self.free = sorted(free_names)
        self.groups = [list(group) for group in counter_groups]
        names = sorted(
            set(self.free) | {l.name for g in self.groups for l in g}
        )
        self.kernel = TypeKernel(names)
        words = word_count(self.kernel.size)
        prod_g = 1
        for group in self.groups:
            prod_g *= len(group)
        total = (1 << len(self.free)) * prod_g
        with span("vec.wave", op="enumerate", rows=total) as sp:
            rows = _np.zeros((total, words), dtype=_np.uint64)
            index = _np.arange(total, dtype=_np.int64)
            sign_idx = index // prod_g
            pick_idx = index % prod_g
            f = len(self.free)
            for j, name in enumerate(self.free):
                positive = ((sign_idx >> (f - 1 - j)) & 1) == 0
                w, off = divmod(self.kernel.index[name], _WORD)
                rows[positive, w] |= _np.uint64(1 << off)
            rest = prod_g
            for group in self.groups:
                rest //= len(group)
                choice = (pick_idx // rest) % len(group)
                for li, label in enumerate(group):
                    # the scalar generator keeps the picked label as-is and
                    # complements the rest, so the *name* is positive where
                    # (picked) != (label negated) — a complemented column
                    # for negated labels
                    positive = (choice == li) != label.negated
                    w, off = divmod(self.kernel.index[label.name], _WORD)
                    rows[positive, w] |= _np.uint64(1 << off)
            sp.set(words=words)
        if words == 1:
            ints = rows[:, 0].tolist()
        else:
            ints = [unpack_row(row) for row in rows]
        self.table = VecTypeTable(self.kernel, rows, ints)
        REGISTRY.inc_many({"vec.bulk_ops": 1, "vec.rows_filtered": total})

    def __len__(self) -> int:
        return len(self.table)

    def positive_column(self, name: str):
        return self.table.bit_column(name)

    def refines_any(self, thetas: Iterable[Type]):
        """Rows refining at least one θ (the Θ-respect filter)."""
        mask = _np.zeros(len(self.table), dtype=bool)
        for theta in thetas:
            pos, neg = self.kernel.literal_masks(theta)
            mask |= self.table.refine_mask(pos, neg)
        return mask

    def clause_mask(self, tbox: NormalizedTBox):
        """Rows satisfying every clausal CI — the vectorized twin of
        :func:`repro.dl.types.clause_consistent` over the shared compiled
        clauses (identical literal folding)."""
        compiled = compiled_clauses_for(tbox, self.kernel.names)
        with span("vec.wave", op="clauses", rows=len(self.table)) as sp:
            mask = VecClauseMatrix(compiled).consistent_mask(self.table.table)
            sp.set(consistent=int(mask.sum()))
        REGISTRY.inc("vec.bulk_ops")
        return mask

    def new_mask(self, fill: bool = False):
        return _np.full(len(self.table), fill, dtype=bool)

    def types_where(self, mask) -> list[Type]:
        """Decode the selected rows, preserving enumeration order."""
        decode = self.kernel.decode
        ints = self.table.ints
        return [decode(ints[i]) for i in _np.nonzero(mask)[0].tolist()]


class PsiMaskAnswer:
    """A fixpoint survivor set Ψ packed as bit rows, answering the per-type
    "does some σ ∈ Ψ refine τ" queries of the batched P1/P2 contexts as one
    vectorized refinement sweep each.

    Exact only when every survivor is maximal over the same name set (true
    for any one enumeration's output) and τ mentions no name outside it —
    :meth:`covers` gates both; callers fall back to the scalar ``any()``
    otherwise, so answers are identical across backends by construction.
    """

    __slots__ = ("kernel", "words", "rows", "_exact")

    def __init__(self, psi: Iterable[Type]) -> None:
        require_numpy()
        types = list(psi)
        names = sorted({lbl.name for t in types for lbl in t})
        self.kernel = TypeKernel(names)
        full = frozenset(names)
        self._exact = all(t.signature() == full for t in types)
        self.words = word_count(self.kernel.size)
        self.rows = _np.zeros((len(types), self.words), dtype=_np.uint64)
        for i, t in enumerate(types):
            pos, _neg = self.kernel.literal_masks(t)
            self.rows[i] = pack_mask(pos, self.words)

    def covers(self, tau: Type) -> bool:
        index = self.kernel.index
        return self._exact and all(lbl.name in index for lbl in tau)

    def any_refines(self, tau: Type) -> bool:
        pos, neg = self.kernel.literal_masks(tau)
        posw = pack_mask(pos, self.words)
        negw = pack_mask(neg, self.words)
        ok = _np.ones(self.rows.shape[0], dtype=bool)
        zero = _np.uint64(0)
        for w in range(self.words):
            col = self.rows[:, w]
            ok &= (col & posw[w]) == posw[w]
            ok &= (col & negw[w]) == zero
        REGISTRY.inc("vec.bulk_ops")
        return bool(ok.any())
