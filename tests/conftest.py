"""Every test starts with no evaluation kept: kernel._last holds the tables
evaluated at the last point, and a test must not see one an earlier test
left behind."""

import pytest

import gsp4hodge.kernel


@pytest.fixture(autouse=True)
def _no_kept_evaluation(monkeypatch):
    monkeypatch.setattr(gsp4hodge.kernel, "_last", None)
