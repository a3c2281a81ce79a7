"""Per-shard health state machine with a degradation ladder.

Every gateway shard carries a :class:`ShardHealth` that folds three failure
signals — integrity-audit failures, worker losses (crash/respawn), and
fault-site trips — into one of three states:

``healthy``
    Full stack, semantic cache included.

``degraded``
    The shard still answers, but with the **semantic cache** dropped
    (inference over cached premises — the only layer that *derives*
    verdicts instead of computing them).  A sustained failure streak
    climbs to this rung, and the full decision procedure still runs, so
    answers stay correct — only slower.

    The rung's override only touches an option that is excluded from
    decision identity (``semantic_cache``), so a degraded shard's verdicts
    are bit-identical to a healthy one's.

``quarantined``
    A failure streak on the degraded rung exhausts the ladder (or the
    worker is unrecoverable): the shard stops taking traffic, is drained,
    and is only re-admitted through a circuit-breaker **half-open probe** —
    a cold respawn followed by a self-test decision with a known answer.
    Probe attempts back off exponentially while the shard keeps failing.

The machine is deliberately synchronous and lock-free: the gateway drives
it from a single event loop.  The clock is injectable so tests can walk
the cooloff schedule deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"

LADDER: tuple[dict, ...] = ({}, {"semantic_cache": False})
"""Per-rung request-option overrides.

Every key is excluded from decision identity
(:func:`repro.core.containment.decision_key`), so climbing the ladder can
never change an answer — only the machinery that produces it.
"""

FAILURE_KINDS = ("audit_failure", "worker_loss", "fault")
"""The signal vocabulary callers feed to :meth:`ShardHealth.record_failure`."""


@dataclass
class HealthPolicy:
    """Tunables for the ladder and the recovery circuit breaker."""

    degrade_after: int = 3
    """Consecutive failures that climb one ladder rung."""

    recover_after: int = 8
    """Consecutive successes that step back down one rung."""

    probe_cooloff_s: float = 0.25
    """Delay before the first half-open probe of a quarantined shard."""

    probe_cooloff_max_s: float = 30.0
    """Cap for the exponential probe backoff."""


class ShardHealth:
    """Health ladder + half-open recovery breaker for one gateway shard."""

    def __init__(
        self,
        shard_id: int,
        policy: Optional[HealthPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.shard_id = shard_id
        self.policy = policy if policy is not None else HealthPolicy()
        self.clock = clock
        self.state = HEALTHY
        self.rung = 0
        self.last_reason: Optional[str] = None
        self.failures: dict[str, int] = {}
        self.probes = 0
        self.readmissions = 0
        self._fail_streak = 0
        self._ok_streak = 0
        self._probe_inflight = False
        self._cooloff = self.policy.probe_cooloff_s
        self._next_probe_at = 0.0

    # ------------------------------------------------------------- #
    # signals

    def record_failure(self, kind: str, reason: Optional[str] = None) -> None:
        """Fold one failure signal in; may climb a rung or quarantine."""
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if self.state == QUARANTINED:
            return
        self._ok_streak = 0
        self._fail_streak += 1
        if self._fail_streak >= self.policy.degrade_after:
            self._fail_streak = 0
            self._climb(reason or kind)

    def record_success(self) -> None:
        """One correct, audited answer served; may step down a rung."""
        if self.state == QUARANTINED:
            return
        self._fail_streak = 0
        if self.state == HEALTHY:
            return
        self._ok_streak += 1
        if self._ok_streak >= self.policy.recover_after:
            self._ok_streak = 0
            self.rung -= 1
            if self.rung <= 0:
                self._reset_healthy()

    def quarantine(self, reason: str) -> None:
        """Hard stop: drain the shard and gate re-admission on a probe."""
        self.state = QUARANTINED
        self.rung = len(LADDER) - 1
        self.last_reason = reason
        self._fail_streak = 0
        self._ok_streak = 0
        self._probe_inflight = False
        self._next_probe_at = self.clock() + self._cooloff

    def _climb(self, reason: str) -> None:
        if self.rung >= len(LADDER) - 1:
            self.quarantine(f"ladder exhausted ({reason})")
            return
        self.rung += 1
        self.state = DEGRADED
        self.last_reason = reason

    def _reset_healthy(self) -> None:
        self.state = HEALTHY
        self.rung = 0
        self.last_reason = None
        self._fail_streak = 0
        self._ok_streak = 0
        self._cooloff = self.policy.probe_cooloff_s

    # ------------------------------------------------------------- #
    # half-open recovery

    def allow_probe(self) -> bool:
        """True exactly when a recovery probe should launch now.

        Claims the (single) probe slot as a side effect; the caller must
        report back via :meth:`on_probe_result`."""
        if self.state != QUARANTINED or self._probe_inflight:
            return False
        if self.clock() < self._next_probe_at:
            return False
        self._probe_inflight = True
        self.probes += 1
        return True

    def on_probe_result(self, ok: bool) -> None:
        self._probe_inflight = False
        if ok:
            self.readmissions += 1
            self._reset_healthy()
        else:
            self._cooloff = min(self.policy.probe_cooloff_max_s, self._cooloff * 2)
            self._next_probe_at = self.clock() + self._cooloff

    # ------------------------------------------------------------- #
    # consumption

    def accepts_traffic(self) -> bool:
        return self.state != QUARANTINED

    def overrides(self) -> dict:
        """Request-option overrides for the current rung (empty when healthy)."""
        if self.state == QUARANTINED:
            return dict(LADDER[-1])
        return dict(LADDER[self.rung])

    def snapshot(self) -> dict:
        return {
            "shard": self.shard_id,
            "state": self.state,
            "rung": self.rung,
            "overrides": self.overrides(),
            "last_reason": self.last_reason,
            "failures": dict(self.failures),
            "probes": self.probes,
            "readmissions": self.readmissions,
        }
