"""Shared fixtures: every test sees the default oracle limit, and the
dense float Cayley matrix is built in one place."""

import itertools

import pytest


@pytest.fixture(autouse=True)
def _default_oracle_limit(monkeypatch):
    # a TNSPEC_ORACLE_LIMIT set in the calling shell must not change results
    monkeypatch.delenv("TNSPEC_ORACLE_LIMIT", raising=False)


@pytest.fixture
def cayley_matrix():
    """Builds the dense float adjacency matrix of T_n on all n!
    permutations (lexicographic order): the numeric reference that the
    exact cayley_spectrum is compared with."""
    import numpy as np

    def build(n):
        perms = list(itertools.permutations(range(n)))
        index = {perm: i for i, perm in enumerate(perms)}
        adjacency = np.zeros((len(perms), len(perms)))
        for i, perm in enumerate(perms):
            for a, b in itertools.combinations(range(n), 2):
                swapped = list(perm)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                adjacency[i, index[tuple(swapped)]] = 1.0
        return adjacency

    return build
