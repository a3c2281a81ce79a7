"""Performance kernel: bitset type algebra, vectorized tables, decision memo.

The fixpoint procedures of Sections 5–6 and the classical type elimination
all range over maximal types — 2^|Γ₀| of them.  This package provides the
machinery that makes those loops fast without changing any verdict:

* :mod:`repro.kernel.bitset` — types as Python ints (O(1) hash/subset),
  clausal CIs compiled to bitmasks;
* :mod:`repro.kernel.vec` / :mod:`repro.kernel.vec_fixpoint` — the whole
  Γ₀ table as numpy uint64 bit matrices, elimination waves as bulk boolean
  ops (optional ``repro[vec]`` extra; selected via ``backend="auto"``);
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
from repro.kernel.vec import (
    BACKENDS,
    HAVE_NUMPY,
    VEC_AUTO_THRESHOLD,
    VecUnavailable,
    resolve_backend,
)

__all__ = [
    "BACKENDS",
    "BoundedMemo",
    "CompiledClauses",
    "HAVE_NUMPY",
    "TypeKernel",
    "VEC_AUTO_THRESHOLD",
    "VecUnavailable",
    "resolve_backend",
    "compiled_clauses_for",
    "enumerate_consistent_bits",
    "inert_partition",
]
