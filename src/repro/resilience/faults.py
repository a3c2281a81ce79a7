"""Deterministic fault injection for the chaos test suite and E20.

Production code calls :func:`maybe_fault` at a handful of *named sites*;
with no plan installed the call is a single module-global read (hot loops
additionally pre-gate with :func:`site_armed` at setup time, so their
per-iteration cost is an attribute test).  A :class:`FaultPlan` arms sites
with one of three actions:

``raise``
    Raise :class:`FaultInjected` at the site — models a transient internal
    error (the scheduler's retry path treats it as retryable).
``delay``
    ``time.sleep(arg)`` at the site — models a stall (deadline tests).
``kill_worker``
    Invoke the site-provided ``kill`` callback — the gateway's shard worker
    passes one that kills its own process, modelling a worker crash.  Sites
    without a callback ignore the action.

Plans are *deterministic*: each rule fires for exactly its first ``times``
matching hits (counted in the installing process), so a chaos test replays
the same failure schedule every run.

Named sites wired through the codebase:

========================  =================================================
site                      where
========================  =================================================
``search.step``           :meth:`CountermodelSearch._tick` (per chase step)
``scheduler.dispatch``    :meth:`DecisionScheduler` before running a decision
``cache.append``          :meth:`DecisionCache.put` before the journal write
``gateway.dispatch``      gateway dispatch loop, before submitting a
                          dequeued request to its shard
``gateway.shard.handle``  shard worker, before handling one envelope — its
                          ``kill`` callback SIGKILLs the worker process,
                          so ``kill_worker`` here drives the respawn path
``audit.bitflip``         :mod:`repro.service.cache`, after a journal
                          line's CRC is computed but before it is written —
                          a ``raise`` here corrupts one byte of the line on
                          disk, proving the checksum/quarantine layer keeps
                          flipped bits away from clients
========================  =================================================

Activation: programmatically (:func:`install_faults` /
:func:`injected_faults`) or via the environment — ``REPRO_FAULTS`` is
parsed on import, e.g.::

    REPRO_FAULTS="scheduler.dispatch:raise:2,search.step:delay:1:0.05"

Every injected fault increments ``faults.injected`` plus a per-action
counter on the obs registry, so explain reports and ``stats`` show why a
run misbehaved.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

from repro.obs import REGISTRY

ACTIONS = ("raise", "delay", "kill_worker")

ENV_VAR = "REPRO_FAULTS"


class FaultInjected(RuntimeError):
    """An armed ``raise`` fault fired.  Treated as *transient* by the
    service retry path (alongside ``OSError``)."""


@dataclass
class FaultRule:
    """One armed site: fire ``action`` for the first ``times`` hits."""

    site: str
    action: str
    times: int = 1
    """Fire count; ``-1`` fires on every hit."""
    arg: float = 0.0
    """Action parameter (sleep seconds for ``delay``)."""
    fired: int = 0
    hits: int = 0

    def exhausted(self) -> bool:
        return self.times >= 0 and self.fired >= self.times


@dataclass
class FaultPlan:
    """A set of rules, at most one per site, with firing bookkeeping."""

    rules: dict[str, FaultRule] = field(default_factory=dict)

    def rule(self, site: str) -> Optional[FaultRule]:
        return self.rules.get(site)

    def report(self) -> dict[str, dict[str, int]]:
        """Per-site hit/fire counts (chaos tests assert on this)."""
        return {
            site: {"hits": rule.hits, "fired": rule.fired}
            for site, rule in sorted(self.rules.items())
        }


def parse_faults(spec: str) -> FaultPlan:
    """Parse a plan spec: comma-separated ``site:action[:times[:arg]]``.

    ``times`` defaults to 1; ``-1`` means unlimited.  Examples:
    ``"gateway.shard.handle:kill_worker"``, ``"search.step:raise:1"``,
    ``"scheduler.dispatch:delay:3:0.01"``.
    """
    plan = FaultPlan()
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 2 or len(parts) > 4:
            raise ValueError(f"bad fault spec {chunk!r} (site:action[:times[:arg]])")
        site, action = parts[0].strip(), parts[1].strip()
        if not site:
            raise ValueError(f"bad fault spec {chunk!r}: empty site")
        if action not in ACTIONS:
            raise ValueError(f"unknown fault action {action!r} (one of {ACTIONS})")
        try:
            times = int(parts[2]) if len(parts) > 2 else 1
            arg = float(parts[3]) if len(parts) > 3 else 0.0
        except ValueError as exc:
            raise ValueError(f"bad fault spec {chunk!r}: {exc}") from exc
        if site in plan.rules:
            raise ValueError(f"duplicate fault site {site!r}")
        plan.rules[site] = FaultRule(site=site, action=action, times=times, arg=arg)
    return plan


_LOCK = threading.Lock()
_ACTIVE: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, if any."""
    return _ACTIVE


def site_armed(site: str) -> bool:
    """Cheap setup-time gate: is there *any* rule for this site?  Hot loops
    snapshot this once and skip :func:`maybe_fault` entirely when False."""
    plan = _ACTIVE
    return plan is not None and site in plan.rules


def install_faults(plan: Union[FaultPlan, str, None]) -> Optional[FaultPlan]:
    """Install (or clear, with ``None``) the process-wide fault plan."""
    global _ACTIVE
    if isinstance(plan, str):
        plan = parse_faults(plan)
    with _LOCK:
        _ACTIVE = plan
    return plan


def clear_faults() -> None:
    install_faults(None)


@contextmanager
def injected_faults(spec: Union[FaultPlan, str]) -> Iterator[FaultPlan]:
    """Scoped installation for tests: install, yield the plan, clear."""
    plan = install_faults(spec)
    assert plan is not None
    try:
        yield plan
    finally:
        clear_faults()


def maybe_fault(site: str, kill: Optional[Callable[[], None]] = None) -> None:
    """Fire the armed fault for ``site``, if any.

    No-op (one global read) without a plan.  ``kill`` is the site-provided
    worker-kill callback for ``kill_worker`` actions.
    """
    plan = _ACTIVE
    if plan is None:
        return
    rule = plan.rules.get(site)
    if rule is None:
        return
    with _LOCK:
        rule.hits += 1
        if rule.exhausted():
            return
        rule.fired += 1
    REGISTRY.inc_many({"faults.injected": 1, f"faults.{rule.action}": 1})
    if rule.action == "raise":
        raise FaultInjected(f"injected fault at {site!r}")
    if rule.action == "delay":
        time.sleep(rule.arg)
    elif rule.action == "kill_worker" and kill is not None:
        kill()


def _install_from_env() -> None:
    spec = os.environ.get(ENV_VAR, "").strip()
    if spec:
        install_faults(spec)


_install_from_env()
