"""Shared fixture: the dense float Cayley matrix is built in one place."""

import itertools

import pytest


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
