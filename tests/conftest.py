"""Shared fixtures: every test sees the default oracle limit."""

import pytest


@pytest.fixture(autouse=True)
def _default_oracle_limit(monkeypatch):
    # a TNSPEC_ORACLE_LIMIT set in the calling shell must not change results
    monkeypatch.delenv("TNSPEC_ORACLE_LIMIT", raising=False)
