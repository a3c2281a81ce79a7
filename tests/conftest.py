"""Shared test plumbing: a per-test wall-clock cap and seeded hypothesis.

Tier-1 must never hang — a deadlocked pool or an unbounded fixpoint should
fail the one test, loudly, instead of wedging CI.  When the ``pytest-timeout``
plugin is available it owns the job (``timeout`` in ``pyproject.toml``);
this conftest provides a dependency-free fallback: a SIGALRM alarm around
each test's call phase, raising ``Failed`` when the budget is gone.

The fallback is a no-op on platforms without ``SIGALRM`` and in worker
threads (the alarm only fires in the main thread); both are fine for the
Linux CI this repo targets.

Hypothesis runs under a derandomized profile: each property test draws
the same examples on every run (seeded from the test itself, no example
database), so a run's outcome and wall time do not swing with the draw.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

TEST_TIMEOUT_S = 120

_HAVE_PYTEST_TIMEOUT = False
try:  # pragma: no cover - depends on the environment
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    pass

try:  # pragma: no cover - depends on the environment
    from hypothesis import settings

    settings.register_profile("seeded", derandomize=True, database=None)
    settings.load_profile("seeded")
except ImportError:
    pass


def pytest_addoption(parser):
    if not _HAVE_PYTEST_TIMEOUT:
        # claim the ini option pytest-timeout would own, so the `timeout`
        # setting in pyproject.toml is understood either way
        parser.addini(
            "timeout",
            "per-test wall-clock cap in seconds (SIGALRM fallback)",
            default=str(TEST_TIMEOUT_S),
        )


def pytest_collection_modifyitems(config, items):
    # REPRO_FAST=1: a quick tier for laptops/pre-commit — multi-process
    # gateway tests (fork + respawn churn) are the slow outliers
    if os.environ.get("REPRO_FAST") != "1":
        return
    skip = pytest.mark.skip(reason="REPRO_FAST=1 skips multi-process gateway tests")
    skip_smoke = pytest.mark.skip(
        reason="REPRO_FAST=1 skips subprocess benchmark smokes"
    )
    for item in items:
        if "gateway_mp" in item.keywords:
            item.add_marker(skip)
        if "semcache_smoke" in item.keywords:
            item.add_marker(skip_smoke)


def _alarm_usable() -> bool:
    return (
        not _HAVE_PYTEST_TIMEOUT
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not _alarm_usable():
        yield
        return

    try:
        budget = int(float(item.config.getini("timeout")))
    except (ValueError, TypeError):
        budget = TEST_TIMEOUT_S

    def _expired(signum, frame):
        raise pytest.fail.Exception(
            f"test exceeded the {budget}s wall-clock cap"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(budget)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def parsed(monkeypatch):
    """The query texts actually parsed, in call order, against a fresh
    parsed-query table (``repro.queries.parser._PARSED``).  Each parse is
    one ``parse_crpq`` call per disjunct; the texts these tests use are
    single disjuncts."""
    from repro.kernel.memo import BoundedMemo
    from repro.queries import parser

    calls = []
    real_parse_crpq = parser.parse_crpq

    def counting_parse_crpq(text):
        calls.append(text)
        return real_parse_crpq(text)

    table = BoundedMemo(max_entries=parser._PARSED.max_entries)
    monkeypatch.setattr(parser, "_PARSED", table)
    monkeypatch.setattr(parser, "parse_crpq", counting_parse_crpq)
    return calls
