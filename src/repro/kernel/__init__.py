"""Performance kernel: bitset type algebra, vectorized tables, decision memo.

The fixpoint procedures of Sections 5–6 and the classical type elimination
all range over maximal types — 2^|Γ₀| of them.  This package provides the
machinery that makes those loops fast without changing any verdict:

* :mod:`repro.kernel.bitset` — types as Python ints (O(1) hash/subset),
  clausal CIs compiled to bitmasks;
* :mod:`repro.kernel.backend` — numpy-free backend selection
  (``resolve_backend``): whether numpy is installed is asked of
  ``importlib``, not answered by importing it;
* :mod:`repro.kernel.vec` / :mod:`repro.kernel.vec_fixpoint` — the whole
  Γ₀ table as numpy uint64 bit matrices, elimination waves as bulk boolean
  ops (optional ``repro[vec]`` extra).  Only the type-table entry points
  (``realizable_refuting_oneway``, ``realizable_refuting_twoway``,
  :func:`repro.dl.types.consistent_types`) import them, once their
  ``backend`` argument resolves to vec; this package does not, so deciding,
  serving and bitset fixpoints never load numpy;
* :mod:`repro.kernel.memo` — bounded cross-decision caches keyed by
  :meth:`NormalizedTBox.content_key`.

Everything is optional from the callers' point of view: the frozenset
``Type`` API stays the source of truth, with bidirectional converters.
"""

from repro.kernel.bitset import (
    CompiledClauses,
    TypeKernel,
    compiled_clauses_for,
    enumerate_consistent_bits,
    inert_partition,
)
from repro.kernel.memo import BoundedMemo

__all__ = [
    "BoundedMemo",
    "CompiledClauses",
    "TypeKernel",
    "compiled_clauses_for",
    "enumerate_consistent_bits",
    "inert_partition",
]
