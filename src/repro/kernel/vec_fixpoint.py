"""Bit-matrix acceleration structures for the elimination fixpoints.

Two structures back the ``backend="vec"`` paths of the Section 5/6
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
* :class:`ConnectorVecScanner` — the connector star search's candidate
  space (one bundle choice per (role, filler) participation pair) as
  packed columns: centre completion, CI satisfaction, and a sound
  Q-refutation prefilter run as bulk column ops, and the scan then visits
  only the CI-satisfying picks in the scalar enumeration order.
* :class:`PsiMaskAnswer` — a fixpoint survivor set packed as bit rows, so
  the per-type "does some survivor refine τ" oracle queries of the batched
  P1/P2 contexts answer as one vectorized refinement sweep each.

Both are *acceleration indexes*: the frozenset ``Type`` bookkeeping of the
procedures stays authoritative, candidate lists come out in the exact
order the bitset path would produce, and every mask is the vectorized twin
of a scalar predicate in the bitset kernel — which is what makes the
backends bit-identical (asserted by E21 and the hypothesis suite).

Bulk passes run under ``vec.wave`` spans and count ``vec.bulk_ops`` on the
obs registry, so explain reports show the per-wave bulk-op timings.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

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
from repro.dl.normalize import (
    AtLeastCI,
    AtMostCI,
    ClauseCI,
    NormalizedTBox,
    UniversalCI,
)
from repro.graphs.graph import single_node_graph
from repro.graphs.labels import NodeLabel, Role
from repro.graphs.types import Type
from repro.kernel.bitset import TypeKernel, compiled_clauses_for
from repro.kernel.vec import (
    HAVE_NUMPY,
    VecClauseMatrix,
    VecTypeTable,
    pack_mask,
    require_numpy,
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


def vec_fallback_reason(
    free_names: Iterable[str],
    counter_groups: Iterable[Sequence[NodeLabel]],
) -> Optional[str]:
    """Why a candidate space cannot run on the vec enumerator — ``None``
    when it can.

    Negated counter labels are supported (complemented columns), so the
    only remaining obstruction is a *name collision*: a counter-label name
    repeated across the groups (or clashing with a free name) makes the
    per-name column ambiguous — and makes the scalar generator emit
    contradictory literal lists anyway.  The reason string feeds the
    ``kernel.backend.fallback.<reason>`` obs counters:

    * ``"negated_counters"`` — a collision involving a negated label (the
      residual negation shape the enumerator cannot encode);
    * ``"counter_collision"`` — a collision between positive labels.
    """
    seen = set(free_names)
    collisions: set[str] = set()
    negated_names: set[str] = set()
    for group in counter_groups:
        for label in group:
            if label.negated:
                negated_names.add(label.name)
            if label.name in seen:
                collisions.add(label.name)
            seen.add(label.name)
    if not collisions:
        return None
    return "negated_counters" if collisions & negated_names else "counter_collision"


def groups_vectorizable(counter_groups: Iterable[Sequence[NodeLabel]]) -> bool:
    """Can the vec enumerator encode these counter groups exactly?  Thin
    view over :func:`vec_fallback_reason` (no free names)."""
    return vec_fallback_reason((), counter_groups) is None


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


# --------------------------------------------------------------------- #
# connector scan


def connector_scan_supported(connectors_tbox: NormalizedTBox) -> bool:
    """Can the scanner evaluate this T_c's completion exactly by columns?

    The decomposition (leaf-local completion + centre columns over leaf
    counts) is exact precisely when no inverse role occurs — leaves then
    have no successors and the centre none but its leaves."""
    if connectors_tbox.uses_inverse_roles():
        return False
    return not any(
        concept.uses_inverse_roles()
        for concept in connectors_tbox.definitions.values()
    )


def _concept_at_leaf(concept: Concept, labels: frozenset[str]) -> bool:
    """Concept truth at a completed, successor-free leaf: role restrictions
    collapse (∃≥n with n ≥ 1 fails, ∃≤n and ∀ hold vacuously), atomics read
    the completed label set — exactly ``extension()`` at a 0-out-degree node
    of the completed star."""
    if isinstance(concept, Top):
        return True
    if isinstance(concept, Bottom):
        return False
    if isinstance(concept, Atomic):
        return (concept.label.name in labels) != concept.label.negated
    if isinstance(concept, Not):
        return not _concept_at_leaf(concept.inner, labels)
    if isinstance(concept, And):
        return all(_concept_at_leaf(p, labels) for p in concept.parts)
    if isinstance(concept, Or):
        return any(_concept_at_leaf(p, labels) for p in concept.parts)
    if isinstance(concept, AtLeast):
        return concept.n == 0
    if isinstance(concept, (AtMost, ForAll)):
        return True
    raise TypeError(f"unknown concept {concept!r}")  # pragma: no cover


class ConnectorVecScanner:
    """The connector star search's pick space as packed columns.

    A pick chooses one leaf bundle per (role, filler) participation pair of
    T_c; pick *i* decomposes in mixed radix over the bundle lists exactly
    like the scalar ``product(*options)`` (first pair slowest).  The scan
    must reproduce the scalar loop bit for bit — verdict, first-success
    index, and the examined-pick count — so it splits the work:

    * **exact CI columns** — the centre's completed labels (fresh-name
      definitions placed in ``NormalizedTBox.complete`` order) and every
      CI's truth at the centre are boolean columns over all picks, built
      from per-bundle leaf counts (leaf completion is *local* when T_c has
      no inverse roles, so it is precomputed once per distinct pool type);
    * **sound Q-refutation prefilter** — a disjunct can only match the raw
      star if each of its positive concept atoms holds somewhere, so picks
      failing that are *definitely* refuting; the rest stay three-valued;
    * **ordered finish** — walk the CI-satisfying picks in enumeration
      order, accepting prefilter-definite picks outright and deciding the
      undetermined ones with the caller's exact query evaluation.

    The caller supplies query evaluation as a callable so the kernel layer
    stays free of :mod:`repro.queries` imports.
    """

    def __init__(
        self,
        center: Type,
        pair_roles: Sequence[Role],
        options: Sequence[Sequence[tuple]],
        connectors_tbox: NormalizedTBox,
    ) -> None:
        require_numpy()
        self.tbox = connectors_tbox
        self.options = [list(bundles) for bundles in options]
        self.pair_roles = list(pair_roles)
        total = 1
        for bundles in self.options:
            total *= len(bundles)
        self.total = total
        with span("vec.wave", op="connector_columns", rows=total):
            index = _np.arange(total, dtype=_np.int64)
            self.pick_idx = []
            stride = total
            for bundles in self.options:
                stride //= len(bundles)
                self.pick_idx.append((index // stride) % len(bundles))
            # distinct leaf types across all pairs, with their raw and
            # leaf-locally completed label sets
            theta_index: dict[Type, int] = {}
            for bundles in self.options:
                for bundle in bundles:
                    for _role, theta in bundle:
                        if theta not in theta_index:
                            theta_index[theta] = len(theta_index)
            self.thetas = list(theta_index)
            self._raw = [theta.positive_names for theta in self.thetas]
            self._completed = [
                connectors_tbox.complete(
                    single_node_graph(sorted(theta.positive_names))
                ).labels_of(0)
                for theta in self.thetas
            ]
            # flattened bundle membership per pair: member theta indices +
            # bundle boundaries, so per-bundle counts of any leaf predicate
            # are one fancy-index + cumsum-difference pass
            self._flat = []
            for bundles in self.options:
                members: list[int] = []
                starts = [0]
                for bundle in bundles:
                    members.extend(theta_index[theta] for _r, theta in bundle)
                    starts.append(len(members))
                self._flat.append(
                    (
                        _np.asarray(members, dtype=_np.int64),
                        _np.asarray(starts, dtype=_np.int64),
                    )
                )
            self._centre_raw = center.positive_names
            self._count_cache: dict = {}
            self._placed: dict[str, object] = {}
            self._name_cols: dict[str, object] = {}
            self._ci_ok = None
        REGISTRY.inc_many({"vec.bulk_ops": 1, "vec.rows_filtered": total})

    # ------------------------------------------------------------- #
    # per-pick leaf counts

    def _bundle_counts(self, pair: int, truth):
        members, starts = self._flat[pair]
        if members.shape[0] == 0:
            return _np.zeros(starts.shape[0] - 1, dtype=_np.int64)
        vals = truth[members].astype(_np.int64)
        csum = _np.concatenate([_np.zeros(1, dtype=_np.int64), _np.cumsum(vals)])
        return csum[starts[1:]] - csum[starts[:-1]]

    def _count(self, role: Optional[Role], key, truth_fn: Callable):
        """Per-pick count of leaves satisfying a predicate, over the pairs
        wired with ``role`` (all pairs when ``role`` is None)."""
        cached = self._count_cache.get((role, key))
        if cached is None:
            cached = _np.zeros(self.total, dtype=_np.int64)
            truth = None
            for p, pair_role in enumerate(self.pair_roles):
                if role is not None and pair_role != role:
                    continue
                if truth is None:
                    truth = truth_fn()
                cached = cached + self._bundle_counts(p, truth)[self.pick_idx[p]]
            self._count_cache[(role, key)] = cached
        return cached

    def _leaf_label_truth(self, label: NodeLabel, completed: bool):
        pools = self._completed if completed else self._raw
        return _np.array(
            [(label.name in pool) != label.negated for pool in pools], dtype=bool
        )

    def _leaf_concept_truth(self, concept: Concept):
        return _np.array(
            [_concept_at_leaf(concept, pool) for pool in self._completed],
            dtype=bool,
        )

    # ------------------------------------------------------------- #
    # centre columns (completion + CI truth)

    def _centre_name(self, name: str):
        """Column: does the *completed* centre carry ``name``?  Raw labels
        are constant; fresh names OR in their definition's truth (placement
        is additive, dependencies resolve on demand — the column twin of
        ``NormalizedTBox.complete``)."""
        col = self._name_cols.get(name)
        if col is None:
            col = _np.full(self.total, name in self._centre_raw, dtype=bool)
            if name in self.tbox.definitions:
                placed = self._placed.get(name)
                if placed is None:
                    placed = self._eval_centre(self.tbox.definitions[name])
                    self._placed[name] = placed
                col = col | placed
            self._name_cols[name] = col
        return col

    def _centre_lit(self, label: NodeLabel):
        col = self._centre_name(label.name)
        return ~col if label.negated else col

    def _eval_centre(self, concept: Concept):
        if isinstance(concept, Top):
            return _np.ones(self.total, dtype=bool)
        if isinstance(concept, Bottom):
            return _np.zeros(self.total, dtype=bool)
        if isinstance(concept, Atomic):
            return self._centre_lit(concept.label)
        if isinstance(concept, Not):
            return ~self._eval_centre(concept.inner)
        if isinstance(concept, And):
            col = _np.ones(self.total, dtype=bool)
            for part in concept.parts:
                col &= self._eval_centre(part)
            return col
        if isinstance(concept, Or):
            col = _np.zeros(self.total, dtype=bool)
            for part in concept.parts:
                col |= self._eval_centre(part)
            return col
        if isinstance(concept, AtLeast):
            if concept.n == 0:
                return _np.ones(self.total, dtype=bool)
            counts = self._count(
                concept.role,
                ("con", concept.filler),
                lambda: self._leaf_concept_truth(concept.filler),
            )
            return counts >= concept.n
        if isinstance(concept, AtMost):
            counts = self._count(
                concept.role,
                ("con", concept.filler),
                lambda: self._leaf_concept_truth(concept.filler),
            )
            return counts <= concept.n
        if isinstance(concept, ForAll):
            bad = Not(concept.filler)
            counts = self._count(
                concept.role,
                ("con", bad),
                lambda: self._leaf_concept_truth(bad),
            )
            return counts == 0
        raise TypeError(f"unknown concept {concept!r}")  # pragma: no cover

    def _ci_col(self, ci):
        if isinstance(ci, ClauseCI):
            fires = _np.ones(self.total, dtype=bool)
            for lit in ci.body:
                fires &= self._centre_lit(lit)
            sat = _np.zeros(self.total, dtype=bool)
            for lit in ci.head:
                sat |= self._centre_lit(lit)
            return ~fires | sat
        subj = self._centre_lit(ci.subject)
        if isinstance(ci, UniversalCI):
            bad = ci.filler.complement()
            counts = self._count(
                ci.role, ("lit", bad), lambda: self._leaf_label_truth(bad, True)
            )
            return ~subj | (counts == 0)
        counts = self._count(
            ci.role,
            ("lit", ci.filler),
            lambda: self._leaf_label_truth(ci.filler, True),
        )
        if isinstance(ci, AtLeastCI):
            return ~subj | (counts >= ci.n)
        if isinstance(ci, AtMostCI):
            return ~subj | (counts <= ci.n)
        raise TypeError(f"unknown CI {ci!r}")  # pragma: no cover

    def ci_ok(self):
        """Exact column: does the completed star satisfy every T_c CI at
        the centre?  (The scalar path's post-``complete`` check.)"""
        if self._ci_ok is None:
            with span("vec.wave", op="connector_cis", rows=self.total) as sp:
                ok = _np.ones(self.total, dtype=bool)
                for ci in self.tbox.all_cis():
                    ok &= self._ci_col(ci)
                    if not ok.any():
                        break
                sp.set(consistent=int(ok.sum()))
            REGISTRY.inc("vec.bulk_ops")
            self._ci_ok = ok
        return self._ci_ok

    def query_maybe(self, disjunct_positive_names: Sequence[frozenset]):
        """Sound prefilter: picks whose *raw* star might satisfy some
        disjunct.  Necessary condition only — every positive concept atom
        must hold somewhere (centre raw labels or some chosen leaf), so
        ``False`` rows are definitely refuting and need no evaluation."""
        maybe = _np.zeros(self.total, dtype=bool)
        for names in disjunct_positive_names:
            d_ok = _np.ones(self.total, dtype=bool)
            for name in names:
                if name in self._centre_raw:
                    continue
                label = NodeLabel(name)
                counts = self._count(
                    None,
                    ("raw", label),
                    lambda lbl=label: self._leaf_label_truth(lbl, False),
                )
                d_ok &= counts > 0
                if not d_ok.any():
                    break
            maybe |= d_ok
            if maybe.all():
                break
        return maybe

    # ------------------------------------------------------------- #

    def leaves_at(self, i: int) -> list:
        leaves = []
        for p, bundles in enumerate(self.options):
            leaves.extend(bundles[int(self.pick_idx[p][i])])
        return leaves

    def scan(
        self,
        disjunct_positive_names: Sequence[frozenset],
        query_satisfied: Callable[[list], bool],
        poll: Callable[[], None],
        counters: Optional[dict] = None,
    ) -> bool:
        """Find the first pick whose completed star satisfies T_c at the
        centre and whose raw star refutes the query — the scalar loop's
        verdict, stopping index, and examined-pick count, reproduced.

        ``query_satisfied(leaves)`` must evaluate the query on the raw star
        exactly (the prefilter only rules rows *out*)."""
        poll()
        ok = self.ci_ok()
        fast = ok & ~self.query_maybe(disjunct_positive_names)
        found_at = None
        for i in _np.nonzero(ok)[0].tolist():
            poll()
            if fast[i] or not query_satisfied(self.leaves_at(i)):
                found_at = i
                break
        if counters is not None:
            examined = self.total if found_at is None else found_at + 1
            counters["witnesses_materialized"] += examined
        return found_at is not None
