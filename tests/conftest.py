"""Shared fixtures: the worked three-line arrangement and random corpora."""

from __future__ import annotations

import random

import pytest

import lanterns as L
from lanterns.families import random_arrangement  # noqa: F401  (re-exported for the tests)

# Three lines in general position whose relation is the classical lantern:
# slopes 2 > 1 > -1, intersections at x = 3/2 {2,3}, 4/3 {1,3}, 1 {1,2}.
WORKED_LINES = [(2, 0), (1, 1), (-1, 4)]

# Four lines with pairwise distinct slopes but two x-collisions among the
# intersection points: (2/3, 2/3) vs (2/3, -2/3) and (2, 2) vs (2, -2).
NON_GENERIC_LINES = [(2, -2), (1, 0), (-1, 0), (-2, 2)]


@pytest.fixture
def worked() -> L.Arrangement:
    return L.validate_arrangement(WORKED_LINES)


def random_braid(rng: random.Random, n: int, length: int) -> L.BraidWord:
    return L.BraidWord(
        n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
    )
