"""Verdict integrity auditing: witness checks, the A/B oracle plumbing,
the journal scrubber, and the scheduler's quarantine-and-recompute path."""

import json
from dataclasses import replace

import pytest

from repro.core.containment import ContainmentOptions, is_contained
from repro.dl.normalize import normalize
from repro.dl.pg_schema import figure1_schema
from repro.io import graph_from_dict, verdict_to_dict
from repro.obs import REGISTRY, counter_delta
from repro.queries.parser import parse_query
from repro.resilience.audit import (
    JournalScrubber,
    VerdictAuditor,
    model_satisfies_tbox,
    verdict_shape_error,
)
from repro.service.cache import DecisionCache, line_crc
from repro.service.server import ContainmentServer


def decide(lhs_text, rhs_text, tbox=None):
    lhs = parse_query(lhs_text)
    rhs = parse_query(rhs_text)
    result = is_contained(
        lhs, rhs, tbox, options=ContainmentOptions(use_cache=False)
    )
    return lhs, rhs, verdict_to_dict(result)


# ------------------------------------------------------------------ #
# verdict_shape_error


def test_shape_accepts_a_real_verdict():
    _lhs, _rhs, verdict = decide("A(x)", "B(x)")
    assert verdict_shape_error(verdict) is None


@pytest.mark.parametrize(
    "mutate, reason_part",
    [
        (lambda v: v.update(contained="yes"), "contained"),
        (lambda v: v.update(complete=1), "complete"),
        (lambda v: v.update(countermodel={"nodes": "nope"}), "decode"),
    ],
)
def test_shape_rejects_malformed_verdicts(mutate, reason_part):
    _lhs, _rhs, verdict = decide("A(x)", "B(x)")
    mutate(verdict)
    assert reason_part in verdict_shape_error(verdict)


def test_shape_rejects_countermodel_on_true_verdict():
    _lhs, _rhs, neg = decide("A(x)", "B(x)")
    _lhs, _rhs, verdict = decide("A(x)", "A(x)")
    verdict["countermodel"] = neg["countermodel"]
    assert "True verdict" in verdict_shape_error(verdict)


def test_shape_rejects_non_dict():
    assert verdict_shape_error("contained") is not None


# ------------------------------------------------------------------ #
# check_false


def test_genuine_countermodel_passes():
    lhs, rhs, verdict = decide("A(x)", "B(x)")
    assert VerdictAuditor().check_false(verdict, lhs, rhs) is True


def test_true_verdicts_pass_trivially():
    lhs, rhs, verdict = decide("A(x)", "A(x)")
    assert VerdictAuditor().check_false(verdict, lhs, rhs) is True


def test_tampered_countermodel_fails():
    lhs, rhs, verdict = decide("A(x)", "B(x)")
    # swap in the countermodel of an unrelated decision: it won't satisfy lhs
    _l, _r, other = decide("C(x)", "D(x)")
    verdict["countermodel"] = other["countermodel"]
    before = REGISTRY.get("audit.false.fail")
    assert VerdictAuditor().check_false(verdict, lhs, rhs) is False
    assert REGISTRY.get("audit.false.fail") == before + 1


def test_witnessless_incomplete_false_passes():
    lhs, rhs, verdict = decide("A(x)", "B(x)")
    verdict["countermodel"] = None
    verdict["complete"] = False
    assert VerdictAuditor().check_false(verdict, lhs, rhs) is True


def test_served_countermodel_passes_under_normalized_schema():
    """Regression: served countermodels have the normalization's fresh
    names stripped, so the TBox check must run on the *completed* model
    (or equivalently the original TBox) — checking the normalized TBox
    against the raw witness wrongly rejects every schema whose
    normalization introduced names (the Figure 1 schema does)."""
    tbox = figure1_schema()
    lhs, rhs, verdict = decide("Company(x)", "CredCard(x)", tbox)
    assert verdict["contained"] is False
    assert verdict["countermodel"] is not None
    normalized = normalize(tbox)
    assert VerdictAuditor().check_false(verdict, lhs, rhs, normalized) is True


def test_model_satisfies_tbox_completes_before_checking():
    """Without the schema as written, the normalized clauses are checked
    on the completed witness."""
    tbox = figure1_schema()
    _lhs, _rhs, verdict = decide("Company(x)", "CredCard(x)", tbox)
    model = graph_from_dict(verdict["countermodel"])
    normalized = replace(normalize(tbox), original=None)
    assert model_satisfies_tbox(normalized, model) is True


def _poison_company_nodes(verdict):
    """Add a disjointness violation (Figure 1 declares Customer and
    Company disjoint) that keeps the lhs matched and the rhs avoided."""
    nodes = verdict["countermodel"]["nodes"]
    for node, labels in nodes.items():
        if "Company" in labels:
            nodes[node] = list(labels) + ["Customer"]


@pytest.mark.parametrize("poison", [False, True])
def test_schema_as_written_agrees_with_completed_check(poison):
    tbox = figure1_schema()
    _lhs, _rhs, verdict = decide("Company(x)", "CredCard(x)", tbox)
    if poison:
        _poison_company_nodes(verdict)
    model = graph_from_dict(verdict["countermodel"])
    normalized = normalize(tbox)
    assert normalized.fresh_names  # the witness lacks these labels
    completed = normalized.satisfied_by(normalized.complete(model))
    assert completed is (not poison)
    assert model_satisfies_tbox(normalized, model) is completed
    assert model_satisfies_tbox(tbox, model) is completed
    assert model_satisfies_tbox(replace(normalized, original=None), model) is completed


def test_tbox_violating_countermodel_fails():
    tbox = figure1_schema()
    lhs, rhs, verdict = decide("Company(x)", "CredCard(x)", tbox)
    # only the TBox leg of the audit can catch this one
    _poison_company_nodes(verdict)
    normalized = normalize(tbox)
    assert VerdictAuditor().check_false(verdict, lhs, rhs, normalized) is False


# ------------------------------------------------------------------ #
# A/B re-decide plumbing


def test_ab_sampling_is_deterministic():
    auditor = VerdictAuditor(ab_sample_every=3)
    hits = [auditor.should_ab_sample() for _ in range(9)]
    assert hits == [False, False, True] * 3
    assert not any(
        VerdictAuditor(ab_sample_every=0).should_ab_sample() for _ in range(5)
    )


def test_ab_verdict_matches_primary():
    lhs, rhs, verdict = decide("Company(x), owns(x,y)", "Company(x)", figure1_schema())
    auditor = VerdictAuditor()
    before = REGISTRY.counters_snapshot()
    redecided = auditor.ab_verdict(
        lhs, rhs, normalize(figure1_schema()), "auto",
        ContainmentOptions(use_cache=False),
    )
    delta = counter_delta(before, REGISTRY.counters_snapshot())
    assert delta.get("audit.ab.checked") == 1
    assert redecided["contained"] == verdict["contained"]
    assert redecided["complete"] == verdict["complete"]


# ------------------------------------------------------------------ #
# scheduler integration: tampered journal entries are quarantined


def run_server(cache_dir, request):
    server = ContainmentServer(cache_dir=cache_dir, use_cache=True)
    responses, _stop = server.handle_line(json.dumps(request), server.new_stream())
    responses.extend(server.scheduler.drain())
    return server, responses


def test_tampered_cache_entry_is_quarantined_and_recomputed(tmp_path):
    request = {"type": "decide", "id": "r1", "lhs": "A(x)", "rhs": "B(x)"}
    server, responses = run_server(tmp_path, request)
    verdict = responses[0]
    assert verdict["source"] == "computed"
    assert verdict["verdict"]["contained"] is False

    # tamper the journaled countermodel *with a valid CRC*, so only the
    # serve-time witness audit can catch it
    journal = tmp_path / "decisions.jsonl"
    lines = journal.read_text().splitlines()
    entry = json.loads(lines[0])
    nodes = entry["verdict"]["countermodel"]["nodes"]
    entry["verdict"]["countermodel"]["nodes"] = {node: [] for node in nodes}
    entry.pop("crc")
    entry["crc"] = line_crc(entry)
    journal.write_text(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")

    server2, responses2 = run_server(tmp_path, request)
    verdict2 = responses2[0]
    # the poisoned entry was rejected at serve time and recomputed fresh
    assert verdict2["source"] == "computed"
    assert verdict2["verdict"]["contained"] is False
    assert verdict2["verdict"]["countermodel"] is not None
    assert (tmp_path / "quarantine.jsonl").exists()
    quarantined = [
        json.loads(line)
        for line in (tmp_path / "quarantine.jsonl").read_text().splitlines()
    ]
    assert any(q["reason"] == "audit.countermodel" for q in quarantined)
    # the recomputed verdict entered the dedup memo: a repeat in the same
    # process is served from it
    repeat = dict(request, id="r2")
    responses2, _stop = server2.handle_line(json.dumps(repeat), server2.new_stream())
    responses2.extend(server2.scheduler.drain())
    assert responses2[0]["source"] == "dedup"
    assert responses2[0]["verdict"] == verdict2["verdict"]
    # and a third server never sees the bad entry again
    _server3, responses3 = run_server(tmp_path, request)
    assert responses3[0]["verdict"]["contained"] is False


def test_clean_cache_entry_still_served_from_cache(tmp_path):
    request = {"type": "decide", "id": "r1", "lhs": "A(x)", "rhs": "B(x)"}
    run_server(tmp_path, request)
    _server, responses = run_server(tmp_path, request)
    assert responses[0]["source"] == "cache"


# ------------------------------------------------------------------ #
# scrubber


def test_scrubber_quarantines_shape_broken_record(tmp_path):
    request = {"type": "decide", "id": "r1", "lhs": "A(x)", "rhs": "B(x)"}
    run_server(tmp_path, request)
    journal = tmp_path / "decisions.jsonl"
    entry = json.loads(journal.read_text().splitlines()[0])
    entry["verdict"]["contained"] = "maybe"
    entry.pop("crc")
    entry["crc"] = line_crc(entry)
    journal.write_text(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")

    cache = DecisionCache(tmp_path, auto_heal=False)
    report = JournalScrubber(cache).scrub_once()
    assert report["records"]["decision_quarantined"] == 1
    assert cache.quarantine_count() == 1
    # the journal was compacted: a reload has no entries
    assert len(DecisionCache(tmp_path, auto_heal=False).entries()) == 0


def test_scrubber_clean_pass_reports_zero(tmp_path):
    request = {"type": "decide", "id": "r1", "lhs": "A(x)", "rhs": "B(x)"}
    run_server(tmp_path, request)
    cache = DecisionCache(tmp_path, auto_heal=False)
    report = JournalScrubber(cache).scrub_once()
    assert report["records"]["decision_quarantined"] == 0
    assert report["records"]["semantic_quarantined"] == 0
    assert report["quarantined_lines"] == 0
    assert report["passes"] == 1
