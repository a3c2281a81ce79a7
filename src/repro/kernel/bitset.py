"""Bitset representation of maximal types over an interned signature.

A maximal type over Γ₀ = {A₀ < A₁ < … < A_{n-1}} contains exactly one of
Aᵢ / Āᵢ for every i, so it is fully described by the set of its *positive*
names — an n-bit integer with bit i set iff Aᵢ ∈ τ.  On that encoding

* hashing and equality are the int's own (O(1));
* "τ refines σ" (σ ⊇ τ for a partial type τ) is two mask tests;
* a clausal CI evaluates in a handful of AND/compare ops once its literals
  are compiled to (body_pos, body_neg, head_pos, head_neg) masks;
* the clause-consistent types come from a prefix-pruned search
  (:meth:`CompiledClauses.search`) that tests a candidate per kept prefix,
  not each of the 2^|Γ₀| types — both backends' fixpoints start from it.

The kernel is purely local to a signature: :class:`TypeKernel` interns one
Γ₀ and converts to/from the frozenset :class:`~repro.graphs.types.Type`
API, so callers can adopt it incrementally.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.dl.normalize import ClauseCI, NormalizedTBox
from repro.graphs.labels import NodeLabel
from repro.graphs.types import Type


class TypeKernel:
    """Interns a signature Γ₀; converts types ↔ n-bit integers."""

    __slots__ = ("names", "index", "size", "full_mask", "_literals", "_decode_cache")

    def __init__(self, names: Iterable[str]) -> None:
        self.names: tuple[str, ...] = tuple(sorted(set(names)))
        self.index: dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self.size = len(self.names)
        self.full_mask = (1 << self.size) - 1
        # per-bit (positive, negative) literals, built once
        self._literals: list[tuple[NodeLabel, NodeLabel]] = [
            (NodeLabel(name), NodeLabel(name, True)) for name in self.names
        ]
        self._decode_cache: dict[int, Type] = {}

    # ------------------------------------------------------------- #
    # conversions

    def encode(self, node_type: Type) -> int:
        """The bits of a type whose signature is contained in Γ₀.

        Every :class:`Type` is maximal over its own signature (consistency
        forces exactly one polarity per mentioned name), so bit i is set iff
        the positive literal Aᵢ is present; unmentioned names read negative.
        """
        bits = 0
        index = self.index
        for literal in node_type:
            if not literal.negated:
                bits |= 1 << index[literal.name]
        return bits

    def encode_partial(self, node_type: Type) -> tuple[int, int]:
        """(positive mask, negative mask) of a possibly-partial type."""
        pos = neg = 0
        index = self.index
        for literal in node_type:
            bit = 1 << index[literal.name]
            if literal.negated:
                neg |= bit
            else:
                pos |= bit
        return pos, neg

    def decode(self, bits: int) -> Type:
        """The maximal type over Γ₀ with exactly the set bits positive."""
        cached = self._decode_cache.get(bits)
        if cached is None:
            cached = Type._trusted(
                pair[0] if bits >> i & 1 else pair[1]
                for i, pair in enumerate(self._literals)
            )
            self._decode_cache[bits] = cached
        return cached

    # ------------------------------------------------------------- #
    # relations

    @staticmethod
    def refines(bits: int, pos: int, neg: int) -> bool:
        """Does the maximal type ``bits`` contain the partial type (pos, neg)?"""
        return (bits & pos) == pos and (bits & neg) == 0

    def literal_masks(self, literals: Iterable[NodeLabel]) -> tuple[int, int]:
        """Masks for a literal set; names outside Γ₀ raise ``KeyError``."""
        pos = neg = 0
        for literal in literals:
            bit = 1 << self.index[literal.name]
            if literal.negated:
                neg |= bit
            else:
                pos |= bit
        return pos, neg

    def literal_holds_mask(self, literal: NodeLabel) -> Optional[tuple[int, int]]:
        """(must_set, must_clear) for one literal, ``None`` if out of Γ₀."""
        i = self.index.get(literal.name)
        if i is None:
            return None
        bit = 1 << i
        return (0, bit) if literal.negated else (bit, 0)


class CompiledClauses:
    """Clausal CIs of a TBox compiled to bitmasks over one kernel.

    A clause ⊓body ⊑ ⊔head fires on a maximal type σ iff the body holds
    (positives set, negatives clear) and no head literal does.  Literals
    over names outside Γ₀ follow graph semantics — an unmentioned label is
    absent — and are folded away at compile time: a clause whose body can
    never hold (positive body literal out of Γ₀) or whose head always holds
    (negative head literal out of Γ₀) is dropped entirely.
    """

    __slots__ = ("kernel", "rows")

    def __init__(self, kernel: TypeKernel, clauses: Sequence[ClauseCI]) -> None:
        self.kernel = kernel
        index = kernel.index
        rows: list[tuple[int, int, int, int]] = []
        for clause in clauses:
            body_pos = body_neg = head_pos = head_neg = 0
            vacuous = False
            for literal in clause.body:
                i = index.get(literal.name)
                if i is None:
                    if literal.negated:
                        continue  # absent label: the literal always holds
                    vacuous = True  # positive body literal can never hold
                    break
                if literal.negated:
                    body_neg |= 1 << i
                else:
                    body_pos |= 1 << i
            if vacuous:
                continue
            for literal in clause.head:
                i = index.get(literal.name)
                if i is None:
                    if literal.negated:
                        vacuous = True  # head literal always holds
                        break
                    continue  # positive head literal can never hold
                if literal.negated:
                    head_neg |= 1 << i
                else:
                    head_pos |= 1 << i
            if vacuous:
                continue
            rows.append((body_pos, body_neg, head_pos, head_neg))
        self.rows = rows

    def consistent(self, bits: int) -> bool:
        """Does the maximal type ``bits`` satisfy every compiled clause?"""
        for body_pos, body_neg, head_pos, head_neg in self.rows:
            if (bits & body_pos) == body_pos and not bits & body_neg:
                if not bits & head_pos and (bits & head_neg) == head_neg:
                    return False
        return True

    def consistent_bits(self) -> list[int]:
        """All clause-consistent maximal types over the kernel's Γ₀, in
        increasing-integer order."""
        return self.search()[0]

    def search(self) -> tuple[list[int], int]:
        """(clause-consistent types in increasing-integer order, candidates
        tested), by a prefix-pruned search.

        Names are assigned from the highest bit down, each kept prefix
        extended with 0 before 1, so every level's prefixes stay in
        increasing-integer order.  A clause is decided once its lowest name
        is assigned; a prefix it fires on is dropped with every completion,
        so the search tests a candidate per kept prefix and value instead
        of all 2^|Γ₀| types.  A clause that folded to ⊤ ⊑ ⊥ (no name left)
        fires on the empty prefix.
        """
        decided_at: list[list[tuple[int, int, int, int]]] = [
            [] for _ in range(self.kernel.size)
        ]
        for row in self.rows:
            mask = row[0] | row[1] | row[2] | row[3]
            if not mask:
                return [], 0
            decided_at[(mask & -mask).bit_length() - 1].append(row)
        prefixes = [0]
        tested = 0
        for level in range(self.kernel.size - 1, -1, -1):
            bit = 1 << level
            prefixes = [bits for prefix in prefixes for bits in (prefix, prefix | bit)]
            tested += len(prefixes)
            for body_pos, body_neg, head_pos, head_neg in decided_at[level]:
                prefixes = [
                    bits
                    for bits in prefixes
                    if (bits & body_pos) != body_pos
                    or bits & body_neg
                    or bits & head_pos
                    or (bits & head_neg) != head_neg
                ]
        return prefixes, tested


# --------------------------------------------------------------------- #
# per-TBox compilation cache

_COMPILED_CACHE: dict[tuple, "CompiledClauses"] = {}
_COMPILED_CACHE_MAX = 256


def compiled_clauses_for(
    tbox: NormalizedTBox, names: Iterable[str]
) -> CompiledClauses:
    """Compiled clauses for (TBox, signature), cached across calls.

    Keyed by :meth:`NormalizedTBox.content_key`, so structurally equal
    TBoxes (e.g. re-normalized copies in a workload) share one compilation.
    """
    signature = tuple(sorted(set(names)))
    key = (tbox.content_key(), signature)
    cached = _COMPILED_CACHE.get(key)
    if cached is None:
        if len(_COMPILED_CACHE) >= _COMPILED_CACHE_MAX:
            _COMPILED_CACHE.pop(next(iter(_COMPILED_CACHE)))
        cached = CompiledClauses(TypeKernel(signature), tbox.clauses)
        _COMPILED_CACHE[key] = cached
    return cached


# --------------------------------------------------------------------- #
# signature separation


def inert_partition(
    tbox: NormalizedTBox,
    names: Iterable[str],
    seeds: Iterable[str],
    max_inert_bits: int = 22,
) -> tuple[tuple[str, ...], tuple[str, ...], int]:
    """Split a signature into (core, inert, #consistent inert assignments).

    Two names are *coupled* when they co-occur in a clausal CI; a name is
    *core* when its coupling component contains a seed name or any name
    mentioned by a role CI (universal / at-least / at-most).  The remaining
    *inert* names interact with nothing a fixpoint over the core can see:
    the maximal-type space factors as (core types) × (inert assignments),
    every clause constrains exactly one factor, and role CIs and queries
    over seed labels read only the core factor.  Procedures may therefore
    run over the core alone and multiply type counts by the returned inert
    assignment count.

    When there are more than ``max_inert_bits`` inert names (counting would
    enumerate 2^n assignments) everything is reported core — the caller
    falls back to the unseparated signature.
    """
    name_list = tuple(sorted(set(names)))
    name_set = set(name_list)
    parent = {n: n for n in name_list}

    def find(n: str) -> str:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for clause in tbox.clauses:
        in_sig = [l.name for l in clause.body | clause.head if l.name in name_set]
        for other in in_sig[1:]:
            union(in_sig[0], other)

    seed_names = {s for s in seeds if s in name_set}
    for ci in list(tbox.universals) + list(tbox.at_leasts) + list(tbox.at_mosts):
        for lbl in (ci.subject, ci.filler):
            if lbl.name in name_set:
                seed_names.add(lbl.name)

    core_roots = {find(s) for s in seed_names}
    core = tuple(n for n in name_list if find(n) in core_roots)
    inert = tuple(n for n in name_list if find(n) not in core_roots)
    if not inert:
        return name_list, (), 1
    if len(inert) > max_inert_bits:
        return name_list, (), 1

    inert_set = set(inert)
    inert_clauses = [
        cl
        for cl in tbox.clauses
        if all(l.name in inert_set for l in cl.body | cl.head)
    ]
    compiled = CompiledClauses(TypeKernel(inert), inert_clauses)
    return core, inert, len(compiled.consistent_bits())
