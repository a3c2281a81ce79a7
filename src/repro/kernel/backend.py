"""Fixpoint backend selection, without loading numpy.

The Section 5–6 fixpoint entry points (``realizable_refuting_oneway``,
``realizable_refuting_twoway``) take a ``backend`` argument and resolve it
here.  This module only asks whether numpy *could* be imported
(``importlib.util.find_spec``), so a ``bitset`` call, or an ``auto`` call
below :data:`VEC_AUTO_THRESHOLD` rows, never loads numpy or
:mod:`repro.kernel.vec`; only a call that resolves to ``vec`` imports them.
"""

from __future__ import annotations

from importlib.util import find_spec

from repro.obs import REGISTRY

HAVE_NUMPY = find_spec("numpy") is not None
"""Whether numpy is installed (the optional ``repro[vec]`` extra)."""

BACKENDS = ("auto", "bitset", "vec")

VEC_AUTO_THRESHOLD = 4096
"""``backend="auto"`` selects the vec backend when the candidate table has
at least this many rows (2^|Γ₀| for the elimination procedures).  The
switch sits where the backends met while both tested every one of the
2^|Γ₀| candidates.  Since the consistent types come from a prefix-pruned
search shared by both backends, the oneway bitset path is no slower at
any width; the twoway candidate spaces are still materialized whole."""

VEC_MAX_ROWS = 1 << 62
"""Largest candidate table the vec backend will materialize.  Candidate
spaces beyond this stay on the streaming bitset kernel: ``"auto"`` never
selects vec above it, and an explicit ``backend="vec"`` is rejected eagerly
in :func:`resolve_backend` rather than failing lazily mid-enumeration."""


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
    picks vec when numpy is installed and the table reaches ``threshold``
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
