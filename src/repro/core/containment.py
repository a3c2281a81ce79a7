"""Containment modulo schema — the library's front door.

``is_contained(P, Q, tbox)`` decides P ⊆_T Q for UC2RPQs P, Q and an ALCQI
TBox T, dispatching on the combinations the paper supports:

===========  =======================================  ====================
method       when                                      machinery
===========  =======================================  ====================
baseline     no schema                                 expansion test [13]
sparse       T without participation constraints       Theorem 3.2
reduction    ALCI / ALCQ with participation            Section 3 + Lemma 3.5
direct       any (fallback, and the fast path)         chase countermodel
             ‒ including the open ALCQI combinations     search
===========  =======================================  ====================

"Not contained" verdicts always carry a fully verified countermodel (a
T-model matching P and not Q).  "Contained" verdicts are bounded by search
budgets; ``complete`` reports whether the verdict is certain.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.core.baseline import contained_no_schema, expansions
from repro.core.display import strip_internal_labels
from repro.core.reduction import ReductionConfig, contains_via_reduction, query_key
from repro.core.search import CountermodelSearch, SearchLimits
from repro.core.sparse_search import contained_without_participation
from repro.dl.normalize import NormalizedTBox, normalize
from repro.dl.tbox import TBox
from repro.graphs.graph import Graph
from repro.kernel.memo import BoundedMemo
from repro.obs import REGISTRY, counter_delta, span, tracing
from repro.queries.crpq import CRPQ
from repro.queries.evaluation import satisfies, satisfies_union
from repro.queries.parser import parse_query
from repro.queries.ucrpq import UCRPQ
from repro.resilience.deadline import Deadline


@dataclass
class ContainmentOptions:
    max_word_length: int = 4
    max_expansions: int = 300
    limits: SearchLimits = field(
        default_factory=lambda: SearchLimits(max_nodes=12, max_steps=30_000)
    )
    reduction: ReductionConfig = field(default_factory=ReductionConfig)
    use_cache: bool = True
    """Memoize whole decisions across calls, keyed by the canonical query
    keys, the schema's :meth:`NormalizedTBox.content_key`, and every option
    that can influence the outcome."""
    incremental: Optional[bool] = None
    """Force the chase's incremental layer on (``True``) or off (``False``)
    across every nested search budget; ``None`` keeps the per-limit
    defaults.  Verdicts and countermodels are identical either way — the
    flag exists as the on/off oracle for tests and the E17 benchmark."""
    deadline: Optional[Deadline] = None
    """A wall-clock budget threaded through every nested search budget
    (like ``incremental``).  Deliberately *excluded* from decision keys and
    caches: a decision actually cut short by its deadline reports
    ``deadline_expired=True`` and is never stored, so caches only ever hold
    deterministic, budget-exact results."""
    semantic_cache: bool = True
    """Let the service answer this request from the per-session semantic
    lattice (:mod:`repro.cache.semantic`) when a sound inference applies,
    instead of running a search.  Consulted by the service scheduler only —
    a plain :func:`is_contained` call ignores it.  Deliberately *excluded*
    from decision keys, caches, and journal identity: the flag selects how
    an answer is obtained, never what it is."""


_DECISION_MEMO = BoundedMemo(max_entries=2048, name="decision")
"""Cross-call containment-decision cache (see ContainmentOptions.use_cache)."""


def decision_memo_stats() -> dict[str, int]:
    """Hit/miss/size counters of the in-process decision memo."""
    return {
        "hits": _DECISION_MEMO.hits,
        "misses": _DECISION_MEMO.misses,
        "entries": len(_DECISION_MEMO),
    }


def _limits_key(limits: SearchLimits) -> tuple:
    return (
        limits.max_nodes, limits.max_steps, limits.max_fresh_types,
        limits.incremental,
    )


def _options_key(options: ContainmentOptions) -> tuple:
    red = options.reduction
    return (
        options.max_word_length,
        options.max_expansions,
        _limits_key(options.limits),
        (
            red.max_word_length,
            red.max_expansions,
            _limits_key(red.central_limits),
            _limits_key(red.peripheral_limits),
            red.use_tp_memo,
        ),
    )


def _force_incremental(options: ContainmentOptions) -> ContainmentOptions:
    """Pin ``limits.incremental`` across every nested budget."""
    flag = options.incremental
    if flag is None:
        return options
    red = options.reduction
    return replace(
        options,
        limits=replace(options.limits, incremental=flag),
        reduction=replace(
            red,
            central_limits=replace(red.central_limits, incremental=flag),
            peripheral_limits=replace(red.peripheral_limits, incremental=flag),
        ),
    )


def _with_deadline(options: ContainmentOptions) -> ContainmentOptions:
    """Pin the single ``options.deadline`` object into every nested budget
    so all phases of the decision share one latching expiry state."""
    deadline = options.deadline
    if deadline is None:
        return options
    red = options.reduction
    return replace(
        options,
        limits=replace(options.limits, deadline=deadline),
        reduction=replace(
            red,
            central_limits=replace(red.central_limits, deadline=deadline),
            peripheral_limits=replace(red.peripheral_limits, deadline=deadline),
        ),
    )


@dataclass
class ContainmentResult:
    contained: bool
    complete: bool
    method: str
    countermodel: Optional[Graph] = None
    seeds_tried: int = 0
    supported_by_theory: bool = True
    """False when the (query, schema) combination is one the paper leaves
    open (e.g. non-simple UC2RPQs with full ALCQI)."""
    deadline_expired: bool = False
    """True when the decision's wall-clock deadline expired before the
    search budgets were exhausted; always implies ``complete=False``.
    Such results are never cached (in-process memo or persistent journal)."""
    trace: Optional[object] = field(default=None, compare=False, repr=False)
    """The :class:`repro.obs.Tracer` recorded for this decision when it was
    made with ``trace=True``; never cached, never serialized, and excluded
    from equality — the decision's *content* is byte-identical with or
    without it."""
    trace_counters: Optional[dict] = field(default=None, compare=False, repr=False)
    """Registry counter deltas observed across this decision (trace runs)."""

    def __bool__(self) -> bool:
        return self.contained

    def explain(self) -> str:
        """A plain-text report breaking this decision into phases with
        times, sizes, and cache effectiveness.  Requires the decision to
        have been made with ``is_contained(..., trace=True)`` (or via
        ``repro explain`` on the CLI)."""
        if self.trace is None:
            return (
                "no trace recorded for this decision — "
                "call is_contained(..., trace=True) or use `repro explain`"
            )
        from repro.obs.explain import explain_report

        verdict = "CONTAINED" if self.contained else "NOT CONTAINED"
        header = (
            f"decision {getattr(self.trace, 'trace_id', '')}: {verdict}"
            f" (method={self.method}, complete={self.complete},"
            f" seeds_tried={self.seeds_tried})"
        )
        return explain_report(self.trace, counters=self.trace_counters, header=header)


def _coerce_query(query: Union[str, CRPQ, UCRPQ]) -> UCRPQ:
    if isinstance(query, str):
        return parse_query(query)
    if isinstance(query, CRPQ):
        return UCRPQ.single(query)
    return query


def _coerce_tbox(tbox: Union[None, TBox, NormalizedTBox]) -> Optional[NormalizedTBox]:
    if tbox is None:
        return None
    return tbox if isinstance(tbox, NormalizedTBox) else normalize(tbox)


def _supported_combination(lhs: UCRPQ, rhs: UCRPQ, tbox: NormalizedTBox) -> bool:
    """Do the queries and schema fall into combination C1, C2, or C3?"""
    if not tbox.has_participation_constraints():
        return True  # C3: any UC2RPQs, full ALCQI without participation
    inverse, counting = tbox.uses_inverse_roles(), tbox.uses_counting()
    if inverse and counting:
        return False  # full ALCQI with participation: open
    one_way = lhs.is_one_way() and rhs.is_one_way()
    simple = lhs.is_simple() and rhs.is_simple()
    if one_way:
        return True  # C1: UCRPQs + ALCI or ALCQ
    if simple and not inverse:
        return True  # C2: simple UC2RPQs + ALCQ
    return False


def supported_combination(
    lhs: Union[str, CRPQ, UCRPQ],
    rhs: Union[str, CRPQ, UCRPQ],
    tbox: Union[None, TBox, NormalizedTBox] = None,
) -> bool:
    """Public form of the fragment check: do the queries and schema fall
    into combination C1, C2, or C3 of the paper?  ``None`` schema means no
    constraints at all, which every method supports."""
    normalized = _coerce_tbox(tbox)
    if normalized is None:
        return True
    return _supported_combination(_coerce_query(lhs), _coerce_query(rhs), normalized)


def _direct_search(
    disjunct: CRPQ,
    rhs: UCRPQ,
    tbox: NormalizedTBox,
    options: ContainmentOptions,
) -> tuple[Optional[Graph], int]:
    """Chase for a T-model satisfying the disjunct and avoiding Q; returns
    (countermodel | None, seeds tried)."""
    deadline = options.limits.deadline
    seeds = 0
    for expansion in expansions(disjunct, options.max_word_length, options.max_expansions):
        if deadline is not None and deadline.expired():
            return None, seeds
        seeds += 1
        outcome = CountermodelSearch(
            tbox,
            rhs,
            expansion.graph,
            limits=options.limits,
            accept=lambda g: satisfies(g, disjunct),
        ).run()
        if outcome.found:
            model = outcome.countermodel
            assert tbox.satisfied_by(model)
            assert satisfies(model, disjunct)
            assert not satisfies_union(model, rhs)
            return model, seeds
    return None, seeds


def decision_key(
    lhs: Union[str, CRPQ, UCRPQ],
    rhs: Union[str, CRPQ, UCRPQ],
    tbox: Union[None, TBox, NormalizedTBox] = None,
    method: str = "auto",
    options: Optional[ContainmentOptions] = None,
) -> tuple:
    """The canonical, hashable identity of a containment decision.

    Two calls with the same key are guaranteed to produce bit-identical
    verdicts and countermodels: the key covers the canonical query forms,
    the schema's :meth:`NormalizedTBox.content_key`, the method, and every
    budget/option that can influence the outcome.  ``repro.service`` uses
    it for request dedup and as the persistent-cache identity; it is also
    the in-process decision-memo key.
    """
    lhs_u = _coerce_query(lhs)
    rhs_u = _coerce_query(rhs)
    normalized = _coerce_tbox(tbox)
    options = _force_incremental(options or ContainmentOptions())
    return _decision_key(lhs_u, rhs_u, normalized, method, options)


def _decision_key(
    lhs_u: UCRPQ,
    rhs_u: UCRPQ,
    normalized: Optional[NormalizedTBox],
    method: str,
    options: ContainmentOptions,
) -> tuple:
    return (
        method,
        query_key(lhs_u),
        query_key(rhs_u),
        normalized.content_key() if normalized is not None else None,
        _options_key(options),
    )


def decision_key_parts(key: tuple) -> tuple:
    """Split a :func:`decision_key` into ``(lhs_key, group_key)``.

    The *group key* is the decision key with the left-hand-side slot
    removed — ``(method, rhs_key, schema content key, options key)``.  All
    decisions sharing a group differ only in P, which is exactly the
    premise family the semantic lattice (:mod:`repro.cache.semantic`)
    ranges over when inferring an answer for a new P against the same Q,
    schema, and budgets."""
    method, lhs_key, rhs_key, content, options = key
    return lhs_key, (method, rhs_key, content, options)


def decision_id(
    lhs: Union[str, CRPQ, UCRPQ],
    rhs: Union[str, CRPQ, UCRPQ],
    tbox: Union[None, TBox, NormalizedTBox] = None,
    method: str = "auto",
    options: Optional[ContainmentOptions] = None,
) -> str:
    """A short deterministic id for a decision — a content hash of its
    :func:`decision_key`.  Used as the trace id stamped into exported
    traces."""
    key = decision_key(lhs, rhs, tbox, method=method, options=options)
    return _decision_id(key)


def _decision_id(key: tuple) -> str:
    return "d-" + hashlib.blake2s(repr(key).encode("utf-8"), digest_size=8).hexdigest()


def is_contained(
    lhs: Union[str, CRPQ, UCRPQ],
    rhs: Union[str, CRPQ, UCRPQ],
    tbox: Union[None, TBox, NormalizedTBox] = None,
    method: str = "auto",
    options: Optional[ContainmentOptions] = None,
    trace: bool = False,
) -> ContainmentResult:
    """Decide P ⊆_T Q (Boolean containment over finite graphs).

    ``method`` is one of ``auto``, ``baseline``, ``sparse``, ``reduction``,
    ``direct``; ``auto`` picks per the table in the module docstring.

    Decisions are memoized across calls (``options.use_cache``) keyed by the
    canonical query forms, the schema's content key, and all budgets.

    ``trace=True`` records the decision under a fresh :class:`repro.obs.Tracer`
    and returns it on ``result.trace`` (with the decision's counter deltas on
    ``result.trace_counters``) for ``result.explain()`` and the exporters.
    Tracing is strictly passive: the verdict, countermodel, and every counter
    are bit-identical with it on or off.
    """
    if method not in ("auto", "baseline", "sparse", "reduction", "direct"):
        raise ValueError(f"unknown method {method!r}")
    lhs_u = _coerce_query(lhs)
    rhs_u = _coerce_query(rhs)
    normalized = _coerce_tbox(tbox)
    options = _with_deadline(_force_incremental(options or ContainmentOptions()))

    if not trace:
        return _cached_decide(lhs_u, rhs_u, normalized, method, options)

    key = _decision_key(lhs_u, rhs_u, normalized, method, options)
    before = REGISTRY.counters_snapshot()
    with tracing(_decision_id(key)) as tracer:
        result = _cached_decide(lhs_u, rhs_u, normalized, method, options)
    return replace(
        result,
        trace=tracer,
        trace_counters=counter_delta(before, REGISTRY.counters_snapshot()),
    )


def _cached_decide(
    lhs_u: UCRPQ,
    rhs_u: UCRPQ,
    normalized: Optional[NormalizedTBox],
    method: str,
    options: ContainmentOptions,
) -> ContainmentResult:
    cache_key = None
    if options.use_cache:
        cache_key = _decision_key(lhs_u, rhs_u, normalized, method, options)
        hit = _DECISION_MEMO.get(cache_key)
        if hit is not None:
            with span("decision", method=hit.method, cached=True) as sp:
                sp.set(contained=hit.contained, complete=hit.complete)
            model = hit.countermodel.copy() if hit.countermodel is not None else None
            return replace(hit, countermodel=model)

    with span("decision", method=method, cached=False) as sp:
        result = _decide(lhs_u, rhs_u, normalized, method, options)
        if (
            options.deadline is not None
            and not result.complete
            and options.deadline.expired()
        ):
            # the verdict was (or may have been) cut short by wall clock
            # rather than by its deterministic search budgets
            result = replace(result, deadline_expired=True)
        sp.set(
            method=result.method,
            contained=result.contained,
            complete=result.complete,
            seeds_tried=result.seeds_tried,
        )
        if result.deadline_expired:
            sp.set(deadline_expired=True)
    counters = {
        "decision.calls": 1,
        "decision.contained": 1 if result.contained else 0,
        "decision.seeds_tried": result.seeds_tried,
    }
    if result.deadline_expired:
        counters["decision.deadline_expired"] = 1
    REGISTRY.inc_many(counters)
    if cache_key is not None and not result.deadline_expired:
        # store a private copy so later caller mutations of the returned
        # countermodel cannot poison the cache; traces are never cached.
        # deadline-cut results are nondeterministic (they depend on wall
        # clock) and are never stored under a key shared with exact runs
        model = result.countermodel.copy() if result.countermodel is not None else None
        _DECISION_MEMO.put(
            cache_key,
            replace(result, countermodel=model, trace=None, trace_counters=None),
        )
    return result


def _decide(
    lhs_u: UCRPQ,
    rhs_u: UCRPQ,
    normalized: Optional[NormalizedTBox],
    method: str,
    options: ContainmentOptions,
) -> ContainmentResult:
    if normalized is None or method == "baseline":
        base = contained_no_schema(
            lhs_u, rhs_u, options.max_word_length, options.max_expansions
        )
        return ContainmentResult(
            base.contained, base.complete, "baseline", base.countermodel,
            base.expansions_checked,
        )

    supported = _supported_combination(lhs_u, rhs_u, normalized)

    if method == "auto":
        # sound syntactic screen: a disjunct textually present on the right
        # is contained in the union outright; if every left disjunct is,
        # P ⊆ Q holds on all graphs, schema or not
        lhs_keys = query_key(lhs_u)
        rhs_keys = set(query_key(rhs_u))
        if lhs_keys and all(key in rhs_keys for key in lhs_keys):
            return ContainmentResult(
                True, True, "syntactic", supported_by_theory=supported
            )
        if not normalized.has_participation_constraints() and not (
            normalized.uses_inverse_roles() and normalized.uses_counting()
        ):
            method = "sparse"
        else:
            method = "direct"

    if method == "sparse":
        for disjunct in lhs_u:
            result = contained_without_participation(
                disjunct, rhs_u, normalized,
                options.max_word_length, options.max_expansions, options.limits,
            )
            if not result.contained:
                return ContainmentResult(
                    False, True, "sparse", strip_internal_labels(result.countermodel),
                    result.seeds_tried, supported_by_theory=supported,
                )
        return ContainmentResult(
            True, result.complete if lhs_u.disjuncts else True, "sparse",
            seeds_tried=result.seeds_tried, supported_by_theory=supported,
        )

    if method == "reduction":
        for disjunct in lhs_u:
            result = contains_via_reduction(
                disjunct, rhs_u, normalized, config=options.reduction
            )
            if not result.contained:
                return ContainmentResult(
                    False, True, "reduction", strip_internal_labels(result.countermodel),
                    result.seeds_tried, supported_by_theory=supported,
                )
        return ContainmentResult(
            True, False, "reduction", seeds_tried=result.seeds_tried,
            supported_by_theory=supported,
        )

    if method == "direct":
        total_seeds = 0
        for disjunct in lhs_u:
            model, seeds = _direct_search(disjunct, rhs_u, normalized, options)
            total_seeds += seeds
            if model is not None:
                return ContainmentResult(
                    False, True, "direct", strip_internal_labels(model), total_seeds,
                    supported_by_theory=supported,
                )
        return ContainmentResult(
            True, False, "direct", seeds_tried=total_seeds,
            supported_by_theory=supported,
        )

    raise ValueError(f"unknown method {method!r}")
