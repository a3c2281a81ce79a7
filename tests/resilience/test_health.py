"""The per-shard health state machine: ladder climbs, recovery, probes."""

import json

from repro.core.containment import decision_key
from repro.resilience.health import (
    DEGRADED,
    HEALTHY,
    LADDER,
    QUARANTINED,
    HealthPolicy,
    ShardHealth,
)
from repro.service.gateway.gateway import GatewayServer
from repro.service.protocol import build_options


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make(policy=None, clock=None):
    return ShardHealth(0, policy=policy or HealthPolicy(), clock=clock or Clock())


def test_starts_healthy_with_no_overrides():
    health = make()
    assert health.state == HEALTHY
    assert health.rung == 0
    assert health.overrides() == {}
    assert health.accepts_traffic()


def test_failure_streak_climbs_one_rung():
    health = make(HealthPolicy(degrade_after=3))
    for _ in range(2):
        health.record_failure("fault")
    assert health.state == HEALTHY  # streak not reached yet
    health.record_failure("fault")
    assert health.state == DEGRADED
    assert health.rung == 1
    assert health.overrides() == {"semantic_cache": False}


def test_success_resets_the_failure_streak():
    health = make(HealthPolicy(degrade_after=3))
    health.record_failure("fault")
    health.record_failure("fault")
    health.record_success()
    health.record_failure("fault")
    health.record_failure("fault")
    assert health.state == HEALTHY


def test_ladder_has_one_rung_semantic_cache_off():
    assert LADDER == ({}, {"semantic_cache": False})
    health = make(HealthPolicy(degrade_after=1))
    health.record_failure("audit_failure")
    assert health.overrides() == {"semantic_cache": False}
    assert health.state == DEGRADED
    health.record_failure("audit_failure")
    assert health.state == QUARANTINED
    assert health.overrides() == {"semantic_cache": False}


def test_exhausting_the_ladder_quarantines():
    health = make(HealthPolicy(degrade_after=1))
    for _ in range(len(LADDER)):
        health.record_failure("worker_loss")
    assert health.state == QUARANTINED
    assert not health.accepts_traffic()
    assert "ladder exhausted" in health.last_reason


def test_ladder_overrides_only_touch_identity_excluded_options():
    # the soundness contract: a rung may only rewrite options that are
    # excluded from decision identity, so degrading can never change an
    # answer.  The line starts every overridden key from another value.
    options = {"semantic_cache": True, "max_nodes": 6}
    line = json.dumps({"lhs": "A(x), r(x,y)", "rhs": "B(y)", "options": options})

    def key_of(wire: str) -> tuple:
        data = json.loads(wire)
        return decision_key(data["lhs"], data["rhs"], options=build_options(data["options"]))

    for overrides in LADDER:
        assert set(overrides) <= set(options), "give new ladder keys a start value"
        rewritten = GatewayServer._apply_overrides(line, overrides)
        assert json.loads(rewritten)["options"] == {**options, **overrides}
        assert key_of(rewritten) == key_of(line), overrides


def test_success_streak_steps_back_down_to_healthy():
    health = make(HealthPolicy(degrade_after=1, recover_after=2))
    health.record_failure("fault")
    assert health.rung == 1
    health.record_success()
    assert health.state == DEGRADED
    health.record_success()
    assert health.state == HEALTHY
    assert health.rung == 0
    assert health.overrides() == {}


def test_probe_gating_cooloff_and_single_slot():
    clock = Clock()
    health = make(HealthPolicy(probe_cooloff_s=1.0), clock=clock)
    assert not health.allow_probe()  # not quarantined
    health.quarantine("test")
    assert not health.allow_probe()  # cooloff not elapsed
    clock.advance(1.5)
    assert health.allow_probe()
    assert not health.allow_probe()  # slot already claimed
    health.on_probe_result(False)
    assert not health.allow_probe()  # cooloff doubled: 2s now
    clock.advance(1.0)
    assert not health.allow_probe()
    clock.advance(1.5)
    assert health.allow_probe()


def test_successful_probe_readmits_healthy():
    clock = Clock()
    health = make(HealthPolicy(probe_cooloff_s=0.1), clock=clock)
    health.quarantine("test")
    clock.advance(1.0)
    assert health.allow_probe()
    health.on_probe_result(True)
    assert health.state == HEALTHY
    assert health.rung == 0
    assert health.accepts_traffic()
    assert health.readmissions == 1


def test_probe_cooloff_backoff_is_capped():
    clock = Clock()
    policy = HealthPolicy(probe_cooloff_s=1.0, probe_cooloff_max_s=4.0)
    health = make(policy, clock=clock)
    health.quarantine("test")
    for _ in range(6):
        clock.advance(100.0)
        assert health.allow_probe()
        health.on_probe_result(False)
    assert health._cooloff == 4.0


def test_quarantined_ignores_further_signals_until_probe():
    health = make(HealthPolicy(degrade_after=1))
    health.quarantine("test")
    health.record_success()
    health.record_failure("fault")
    assert health.state == QUARANTINED


def test_snapshot_shape():
    health = make(HealthPolicy(degrade_after=1))
    health.record_failure("audit_failure", "tampered witness")
    snap = health.snapshot()
    assert snap["state"] == DEGRADED
    assert snap["rung"] == 1
    assert snap["overrides"] == {"semantic_cache": False}
    assert snap["last_reason"] == "tampered witness"
    assert snap["failures"] == {"audit_failure": 1}
