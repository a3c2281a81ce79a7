"""Vectorized bit-matrix kernel backend (numpy).

The bitset kernel (:mod:`repro.kernel.bitset`) interns maximal types as
Python big-ints and walks them one at a time.  This module packs the whole
Γ₀ table into numpy ``uint64`` bit matrices — one row per type, ``⌈n/64⌉``
words per row, bit *i* of the row set iff name *i* is positive — and runs
the table-level passes of the fixpoint procedures as bulk boolean ops over
*all* candidate types at once:

* clause-consistency filtering (every clausal CI evaluated against every
  row in one sweep, :class:`VecClauseMatrix`);
* literal-mask refinement ("which rows contain this partial type",
  :meth:`VecTypeTable.refine_mask`);
* filler/candidate selection and alive-set bookkeeping for the elimination
  waves (:mod:`repro.kernel.vec_fixpoint`).

The graph-level oracles (chase productivity, star evaluation) are shared
with the bitset path, so verdicts, eliminated-type sets, and countermodels
are identical **by construction** — the bitset kernel stays the oracle the
E21 A/B benchmark checks this backend against.

numpy is an *optional* extra (``pip install repro[vec]``).  Without it,
``backend="vec"`` raises :class:`VecUnavailable` with a clear message and
``backend="auto"`` silently selects the bitset kernel.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.dl.normalize import NormalizedTBox
from repro.kernel.bitset import CompiledClauses, TypeKernel, compiled_clauses_for
from repro.obs import REGISTRY, span

try:  # pragma: no cover - exercised via the HAVE_NUMPY branches
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - CI images bundle numpy
    _np = None
    HAVE_NUMPY = False

BACKENDS = ("auto", "bitset", "vec")

VEC_AUTO_THRESHOLD = 4096
"""``backend="auto"`` selects the vec backend when the candidate table has
at least this many rows (2^|Γ₀| for the elimination procedures).  Below the
threshold the numpy round trips cost more than the Python loops they
replace; above it the bulk filters win by widening margins."""

VEC_MAX_ROWS = 1 << 62
"""Largest candidate table the vec backend will materialize.  Candidate
spaces beyond this stay on the streaming bitset kernel: ``"auto"`` never
selects vec above it, and an explicit ``backend="vec"`` is rejected eagerly
in :func:`resolve_backend` rather than failing lazily mid-enumeration."""

_WORD = 64
_ENUM_CHUNK = 1 << 16
"""Rows filtered per chunk during full-table enumeration, bounding peak
memory at ``chunk * words * 8`` bytes regardless of 2^|Γ₀|."""


class VecUnavailable(RuntimeError):
    """``backend="vec"`` was requested but numpy is not importable."""


def require_numpy() -> None:
    """Raise :class:`VecUnavailable` with installation guidance if numpy is
    missing; no-op otherwise."""
    if not HAVE_NUMPY:
        raise VecUnavailable(
            "backend='vec' requires numpy, which is not installed; "
            "install the optional extra (pip install 'repro[vec]') or use "
            "backend='auto' (falls back to the bitset kernel) or 'bitset'"
        )


def resolve_backend(
    backend: str,
    table_size: int,
    threshold: int = VEC_AUTO_THRESHOLD,
) -> str:
    """Resolve a requested backend to ``"bitset"`` or ``"vec"``.

    ``table_size`` is the number of candidate rows the procedure would put
    in the table (2^|Γ₀| for the oneway/twoway eliminations).  ``"auto"``
    picks vec when numpy is importable and the table reaches ``threshold``
    rows; ``"vec"`` without numpy — or over a table the enumerator cannot
    materialize (:data:`VEC_MAX_ROWS`) — raises :class:`VecUnavailable`
    eagerly, at resolve time rather than mid-enumeration.  The chosen
    backend is counted on the obs registry (``kernel.backend.*``) so
    explain reports show which kernel actually ran.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r} (expected one of {BACKENDS})"
        )
    if backend == "vec":
        require_numpy()
        if table_size > VEC_MAX_ROWS:
            raise VecUnavailable(
                f"backend='vec' cannot materialize a bit matrix over "
                f"{table_size} candidate rows (limit 2^62); use "
                "backend='auto' or 'bitset' (streaming enumeration)"
            )
        chosen = "vec"
    elif backend == "bitset":
        chosen = "bitset"
    else:
        # auto never picks a table the enumerator cannot materialize
        feasible = threshold <= table_size <= VEC_MAX_ROWS
        chosen = "vec" if HAVE_NUMPY and feasible else "bitset"
    REGISTRY.inc(f"kernel.backend.{chosen}")
    if backend == "auto" and table_size >= threshold and chosen == "bitset":
        # auto wanted vec at this size but could not take it — record why,
        # so the silent downgrade is visible in stats/explain output
        if table_size > VEC_MAX_ROWS:
            REGISTRY.inc("kernel.backend.fallback.table_too_large")
        elif not HAVE_NUMPY:
            REGISTRY.inc("kernel.backend.auto_fallback")
            REGISTRY.inc("kernel.backend.fallback.numpy_missing")
    return chosen


# --------------------------------------------------------------------- #
# bit packing


def word_count(n_bits: int) -> int:
    """Words per row for an ``n_bits``-name signature (min 1 so empty
    signatures still produce well-formed (k × 1) tables)."""
    return max(1, (n_bits + _WORD - 1) // _WORD)


def pack_mask(bits: int, words: int):
    """A Python int bitmask as a ``(words,)`` uint64 array."""
    out = _np.empty(words, dtype=_np.uint64)
    for w in range(words):
        out[w] = (bits >> (w * _WORD)) & 0xFFFFFFFFFFFFFFFF
    return out


def unpack_row(row) -> int:
    """The Python int whose bits are the row's words (inverse of
    :func:`pack_mask`)."""
    bits = 0
    for w, word in enumerate(row):
        bits |= int(word) << (w * _WORD)
    return bits


class VecClauseMatrix:
    """A TBox's clausal CIs as stacked bitmask rows, evaluated against a
    whole type table at once.

    Built from the bitset kernel's :class:`CompiledClauses`, so the
    out-of-Γ₀ literal folding is byte-identical between backends — a clause
    the bitset kernel dropped is absent here too.
    """

    __slots__ = ("kernel", "words", "_rows")

    def __init__(self, compiled: CompiledClauses) -> None:
        require_numpy()
        self.kernel = compiled.kernel
        self.words = word_count(compiled.kernel.size)
        self._rows = [
            tuple(pack_mask(mask, self.words) for mask in clause)
            for clause in compiled.rows
        ]

    def consistent_mask(self, table):
        """Boolean vector over the table's rows: does the row satisfy every
        compiled clause?  One vectorized sweep per clause."""
        k = table.shape[0]
        ok = _np.ones(k, dtype=bool)
        zero = _np.uint64(0)
        for body_pos, body_neg, head_pos, head_neg in self._rows:
            fires = _np.ones(k, dtype=bool)
            for w in range(self.words):
                col = table[:, w]
                fires &= (col & body_pos[w]) == body_pos[w]
                fires &= (col & body_neg[w]) == zero
                fires &= (col & head_pos[w]) == zero
                fires &= (col & head_neg[w]) == head_neg[w]
            ok &= ~fires
            if not ok.any():
                break
        return ok

    def filter_consistent(self, table):
        """The subset of the table's rows satisfying every clause, in the
        original row order.  Unlike :meth:`consistent_mask` this compacts
        the table after each clause, so later clauses never re-test rows an
        earlier clause already killed — the enumeration hot path, where most
        candidates die early.  Boolean indexing preserves order, so the
        result equals ``table[self.consistent_mask(table)]`` exactly."""
        zero = _np.uint64(0)
        for body_pos, body_neg, head_pos, head_neg in self._rows:
            if table.shape[0] == 0:
                break
            fires = _np.ones(table.shape[0], dtype=bool)
            for w in range(self.words):
                col = table[:, w]
                fires &= (col & body_pos[w]) == body_pos[w]
                fires &= (col & body_neg[w]) == zero
                fires &= (col & head_pos[w]) == zero
                fires &= (col & head_neg[w]) == head_neg[w]
            if fires.any():
                table = table[~fires]
        return table


def enumerate_consistent_table(compiled: CompiledClauses):
    """All clause-consistent maximal types over the kernel's Γ₀, as a
    ``(k × words)`` uint64 bit matrix in increasing-integer order — the
    vectorized twin of :meth:`CompiledClauses.consistent_bits`.

    Enumeration materializes all 2^n candidate rows in bounded chunks and
    filters each chunk through the clause matrix in bulk.  Signatures wider
    than 63 names cannot be exhaustively enumerated (2^64 rows) and raise
    :class:`VecUnavailable` so callers fall back to the streaming kernel.
    """
    require_numpy()
    n = compiled.kernel.size
    if n > 63:
        raise VecUnavailable(
            f"cannot enumerate 2^{n} maximal types as a bit matrix; "
            "use the bitset kernel's streaming enumeration"
        )
    matrix = VecClauseMatrix(compiled)
    total = 1 << n
    kept = []
    with span("vec.wave", op="enumerate", rows=total) as sp:
        for start in range(0, total, _ENUM_CHUNK):
            stop = min(start + _ENUM_CHUNK, total)
            chunk = _np.arange(start, stop, dtype=_np.uint64).reshape(-1, 1)
            kept.append(matrix.filter_consistent(chunk))
        table = _np.concatenate(kept) if kept else _np.empty((0, 1), dtype=_np.uint64)
        sp.set(consistent=int(table.shape[0]))
    REGISTRY.inc_many({"vec.bulk_ops": 1, "vec.rows_filtered": total})
    return table


class VecTypeTable:
    """A fixed table of maximal types (one uint64 bit-matrix row each) with
    bulk refinement/selection operations.

    The table is an *acceleration index* over the same interned types the
    bitset kernel produces: ``ints[i]`` is the i-th row's big-int encoding,
    and every mask operation answers in terms of row positions, so callers
    can keep their frozenset/``Type``-level bookkeeping authoritative.
    """

    __slots__ = ("kernel", "words", "table", "ints", "row_of")

    def __init__(self, kernel: TypeKernel, table, ints: Sequence[int]) -> None:
        require_numpy()
        self.kernel = kernel
        self.words = table.shape[1] if table.ndim == 2 else 1
        self.table = table
        self.ints = list(ints)
        self.row_of = {bits: i for i, bits in enumerate(self.ints)}

    @classmethod
    def from_consistent(cls, compiled: CompiledClauses) -> "VecTypeTable":
        table = enumerate_consistent_table(compiled)
        if table.shape[1] == 1:
            ints = table[:, 0].tolist()  # bulk uint64 → Python int
        else:  # pragma: no cover - enumeration caps at 63 names
            ints = [unpack_row(row) for row in table]
        return cls(compiled.kernel, table, ints)

    def __len__(self) -> int:
        return self.table.shape[0]

    def refine_mask(self, pos: int, neg: int):
        """Boolean vector: which rows contain the partial type (pos, neg)?
        The vectorized :meth:`TypeKernel.refines` over the whole table."""
        out = _np.ones(len(self), dtype=bool)
        zero = _np.uint64(0)
        posw = pack_mask(pos, self.words)
        negw = pack_mask(neg, self.words)
        for w in range(self.words):
            col = self.table[:, w]
            out &= (col & posw[w]) == posw[w]
            out &= (col & negw[w]) == zero
        return out

    def bit_column(self, name: str):
        """Boolean vector: which rows carry ``name`` positively?  Names
        outside Γ₀ yield all-False (the label is absent everywhere)."""
        i = self.kernel.index.get(name)
        if i is None:
            return _np.zeros(len(self), dtype=bool)
        word, off = divmod(i, _WORD)
        bit = _np.uint64(1 << off)
        return (self.table[:, word] & bit) != _np.uint64(0)

    # ---------------------------------------------------------------- #
    # packed row-index sets (for witness-support bookkeeping)

    def index_words(self) -> int:
        return word_count(len(self))

    def pack_rows(self, rows: Iterable[int]):
        """A set of row indices as a packed uint64 bit vector."""
        out = _np.zeros(self.index_words(), dtype=_np.uint64)
        for r in rows:
            w, off = divmod(r, _WORD)
            out[w] |= _np.uint64(1 << off)
        return out

    @staticmethod
    def subset_of(packed, alive_packed) -> bool:
        """Is every packed row index still set in ``alive_packed``?"""
        return not bool(_np.any(packed & ~alive_packed))


# --------------------------------------------------------------------- #
# per-(TBox, signature) table cache — the vec analogue of the bitset
# module's compiled-clause cache, shared by the fixpoint procedures


_TABLE_CACHE: dict[tuple, VecTypeTable] = {}
_TABLE_CACHE_MAX = 64
_TABLE_CACHE_MAX_ROWS = 1 << 18
"""Aggregate row budget across every cached table.  A retained row costs
the uint64 word(s) plus a Python int in ``ints`` and a ``row_of`` dict
entry (~100 bytes all told), so bounding rows — not just entry count —
keeps the cache tens of MB at worst instead of GBs for wide signatures."""
_TABLE_CACHE_ENTRY_ROWS = 1 << 16
"""Per-table cap: larger tables are returned uncached so one giant
signature can neither evict the whole cache nor pin GBs process-wide.
Decision-procedure tables sit far below this (``max_types`` guards them at
~2^12 rows); only direct large-signature enumerations exceed it."""


def vec_table_for(tbox: NormalizedTBox, names: Iterable[str]) -> VecTypeTable:
    """The consistent-type bit matrix for (TBox, signature), cached across
    calls — keyed like :func:`repro.kernel.bitset.compiled_clauses_for`, so
    structurally equal TBoxes share one table.  Tables above
    :data:`_TABLE_CACHE_ENTRY_ROWS` rows are built but not retained."""
    require_numpy()
    signature = tuple(sorted(set(names)))
    key = (tbox.content_key(), signature)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    table = VecTypeTable.from_consistent(compiled_clauses_for(tbox, signature))
    rows = len(table)
    if rows > _TABLE_CACHE_ENTRY_ROWS:
        return table  # caller holds the only reference; dropped on release
    total = sum(len(t) for t in _TABLE_CACHE.values())
    while _TABLE_CACHE and (
        len(_TABLE_CACHE) >= _TABLE_CACHE_MAX
        or total + rows > _TABLE_CACHE_MAX_ROWS
    ):
        total -= len(_TABLE_CACHE.pop(next(iter(_TABLE_CACHE))))
    _TABLE_CACHE[key] = table
    return table


def consistent_ints_vec(tbox: NormalizedTBox, names: Iterable[str]) -> list[int]:
    """Clause-consistent maximal types over ``names`` as integers, via the
    bulk enumeration (identical to ``enumerate_consistent_bits`` order)."""
    return list(vec_table_for(tbox, names).ints)
