"""`repro.resilience` — deadlines, budgets, and deterministic fault injection.

The decision procedures are 2EXPTIME in the worst case, so a system serving
heavy traffic needs *bounded latency* and *fail-soft degradation* as
first-class features:

* :class:`Deadline` / :class:`Budget` (``deadline.py``) — wall-clock and
  step budgets with cooperative, near-free ``poll()`` checks, threaded
  through every hot loop of the decision pipeline.  An expired deadline
  always yields a clean *incomplete* result, never a hang and never an
  exception at the API boundary.
* :mod:`repro.resilience.faults` — a deterministic fault-injection harness
  with named sites (``raise`` / ``delay`` / ``kill_worker``) activated via
  ``REPRO_FAULTS`` or programmatically; the chaos test suite and the E20
  benchmark drive every failure path through it.
* :mod:`repro.resilience.audit` — verdict integrity auditing: serve-time
  countermodel re-verification, the sampled bitset↔vec A/B oracle, and the
  journal scrubber quarantining records that no longer prove themselves.
* :mod:`repro.resilience.health` — the per-shard health state machine
  (``healthy → degraded → quarantined``) with its degradation ladder and
  circuit-breaker half-open recovery probes, driven by the gateway.

See ``DESIGN.md`` §2.12/§2.17 and ``EXPERIMENTS.md`` E20/E25.
"""

from repro.resilience.audit import (
    AuditFailure,
    JournalScrubber,
    VerdictAuditor,
    verdict_shape_error,
)
from repro.resilience.deadline import Budget, Deadline, DeadlineExceeded
from repro.resilience.health import (
    DEGRADED,
    HEALTHY,
    LADDER,
    QUARANTINED,
    HealthPolicy,
    ShardHealth,
)
from repro.resilience.faults import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    active_plan,
    clear_faults,
    injected_faults,
    install_faults,
    maybe_fault,
    parse_faults,
    site_armed,
)

__all__ = [
    "AuditFailure",
    "Budget",
    "DEGRADED",
    "Deadline",
    "DeadlineExceeded",
    "FaultInjected",
    "HEALTHY",
    "HealthPolicy",
    "JournalScrubber",
    "LADDER",
    "QUARANTINED",
    "ShardHealth",
    "VerdictAuditor",
    "verdict_shape_error",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "clear_faults",
    "injected_faults",
    "install_faults",
    "maybe_fault",
    "parse_faults",
    "site_armed",
]

# NOTE: audit.py lazily imports repro.core.containment inside its A/B
# methods — importing it eagerly here would cycle through
# repro.core.search's ``from repro.resilience import faults``.
