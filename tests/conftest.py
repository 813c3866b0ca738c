"""Shared test fixtures."""

import os

import pytest

try:
    from hypothesis import settings as _hypothesis_settings
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    _hypothesis_settings = None

if _hypothesis_settings is not None:
    # Seed-pinned profile for CI: differential/property suites replay
    # the exact same example stream on every run, so a red build is a
    # regression, never hypothesis exploring a new corner.  Opt in with
    # HYPOTHESIS_PROFILE=ci; local runs keep the randomized default.
    _hypothesis_settings.register_profile(
        "ci", derandomize=True, print_blob=True
    )
    _profile = os.environ.get("HYPOTHESIS_PROFILE")
    if _profile:
        _hypothesis_settings.load_profile(_profile)


@pytest.fixture(autouse=True)
def _pristine_trace_context():
    """Reset the process trace context (global root, thread activation,
    phase buffer) around every test, so a test that mints a sweep root
    never leaks correlation ids into the next one."""
    from repro.obs import trace_context

    trace_context.reset()
    yield
    trace_context.reset()


@pytest.fixture(autouse=True, scope="session")
def _isolated_cache_root(tmp_path_factory):
    """Point the default result cache at a session-temporary directory.

    Keeps the suite hermetic: experiment jobs (and their L1-filter /
    trace-memo sidecars) never write ``.repro-cache/`` into the working
    tree, while tests within one session still share warm artifacts.
    Tests that need a private root monkeypatch ``REPRO_CACHE_DIR`` on
    top of this.
    """
    root = tmp_path_factory.mktemp("repro-cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old
