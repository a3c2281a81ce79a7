"""Schema sessions: one normalization per distinct schema, ref registry."""

from repro.dl.normalize import normalize
from repro.dl.tbox import TBox
from repro.io import tbox_to_dict
from repro.service.metrics import ServiceMetrics
from repro.service.sessions import SessionManager, reset_process_caches


def _tbox():
    return TBox.of(
        [("Customer", "forall owns.CredCard"), ("Customer", "exists owns.CredCard")],
        name="cards",
    )


class TestSessionManager:
    def test_schema_less_decisions_have_no_session(self):
        assert SessionManager().session_for(None) is None

    def test_distinct_schema_normalized_once(self):
        metrics = ServiceMetrics()
        manager = SessionManager(metrics)
        first = manager.session_for(_tbox())
        second = manager.session_for(_tbox())
        assert first is second
        assert len(manager) == 1
        assert metrics.counter("sessions_created") == 1
        assert metrics.counter("sessions_reused") == 1

    def test_wire_dict_and_tbox_share_a_session(self):
        manager = SessionManager()
        from_dict = manager.session_for(tbox_to_dict(_tbox()))
        from_tbox = manager.session_for(_tbox())
        assert from_dict is from_tbox

    def test_prenormalized_schema_accepted(self):
        manager = SessionManager()
        session = manager.session_for(normalize(_tbox()))
        assert session.tbox.content_key() == normalize(_tbox()).content_key()

    def test_ref_registry(self):
        manager = SessionManager()
        registered = manager.register("s1", tbox_to_dict(_tbox()))
        assert manager.by_ref("s1") is registered
        assert manager.by_ref("unknown") is None
        # registering a ref does not duplicate the underlying session
        assert manager.session_for(_tbox()) is registered

    def test_snapshot_reports_fragment(self):
        manager = SessionManager()
        manager.session_for(_tbox())
        (entry,) = manager.snapshot()
        assert entry["name"] == "cards"
        assert entry["fragment"] in ("ALC", "ALCI", "ALCQ", "ALCQI")


def test_reset_process_caches_drops_decision_memo():
    from repro.core.containment import ContainmentOptions, is_contained
    from repro.core.containment import decision_memo_stats

    is_contained("A(x)", "A(x); B(x)", _tbox())
    reset_process_caches()
    assert decision_memo_stats()["entries"] == 0
