"""Shared test configuration."""

import json
import os
import signal
import threading

import pytest
from hypothesis import HealthCheck, settings

# The tier-1 profile: a moderate example count (the suite is large) and a
# fixed seed per test, so a run fails only on what the code under test does,
# never on a latent bug that a fresh random draw happened to reach.
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
# Same example counts, random seeds: the nightly fuzz run searches new
# inputs with it (HYPOTHESIS_PROFILE=fuzz); pin its finds with @example.
settings.register_profile("fuzz", parent=settings.get_profile("repro"), derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than `seconds` "
        "(repo-local SIGALRM fallback for pytest-timeout; a hung asyncio "
        "server fails fast instead of stalling the whole suite)",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Enforce ``@pytest.mark.timeout(seconds)`` on socket/asyncio tests.

    The container has no pytest-timeout, so this implements the same
    signal-based contract: an ``ITIMER_REAL`` alarm raises inside the test
    (interrupting a blocked event loop or socket wait) and the test fails
    with a timeout message instead of hanging CI.  No-ops when the real
    pytest-timeout plugin is installed, on platforms without ``SIGALRM``,
    or off the main thread — exactly the cases the signal trick can't
    serve.
    """
    marker = item.get_closest_marker("timeout")
    if (
        marker is None
        or item.config.pluginmanager.hasplugin("timeout")
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    seconds = float(marker.args[0]) if marker.args else 60.0

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded its {seconds:g}s timeout marker "
            f"(hung server/event loop?)"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Dump fuzz/parity failure seeds to a JSON artifact for the nightly CI.

    Opt-in via ``REPRO_FUZZ_FAILURE_FILE``: when set (the nightly workflow
    sets it), every failing test records its node id, the fuzz volume and
    the failure text, so a red nightly run uploads enough to reproduce —
    the fuzz RNGs are seeded per format, so node id + pair count replays
    the exact failing inputs.
    """
    outcome = yield
    path = os.environ.get("REPRO_FUZZ_FAILURE_FILE")
    if not path:
        return
    rep = outcome.get_result()
    if rep.when != "call" or not rep.failed:
        return
    try:
        records = json.loads(open(path).read()) if os.path.exists(path) else []
    except (OSError, ValueError):
        records = []
    records.append(
        {
            "nodeid": item.nodeid,
            "fuzz_pairs": os.environ.get("REPRO_FUZZ_PAIRS", "2000"),
            "longrepr": str(rep.longrepr)[:20000],
        }
    )
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2)
