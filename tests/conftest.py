import random

import pytest
from hypothesis import settings

from rmsyndrome.linalg import FFMatrix, rank

# Property tests replay the same examples on every run (no example
# database, no wall-clock deadline), so a failure reproduces and a slow
# shared host cannot fail a test by timing alone.
settings.register_profile("rmsyndrome", derandomize=True, deadline=None,
                          database=None, max_examples=50)
settings.load_profile("rmsyndrome")


def random_invertible(field, n, rng):
    while True:
        M = FFMatrix.from_rows(
            field, [[field.random_element(rng) for _ in range(n)] for _ in range(n)])
        if rank(M) == n:
            return M


@pytest.fixture
def rng():
    return random.Random(0xC0DE)
