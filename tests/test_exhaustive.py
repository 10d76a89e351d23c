"""The exhaustive oracles at (m, r, p) = (4, 1, 2) and (4, 1, 3).

Over F_2: all 2^15 syndromes.

The syndrome map sends the error sets of F_2^4 onto F_2^15, and its
kernel is {empty set, F_2^4} (every monomial of degree <= 3 sums to 0
over F_2^4), so each syndrome is explained by exactly a set E and its
complement.  At most one of the two has independent degree-1 tensor
powers (affinely independent points, so at most 5 of them), and then a
decoder must return that set.  Otherwise it may raise DecodingFailure
or return a set that explains the syndrome; no other exception is
allowed.

Over F_3: all 13,123 weighted error sets of at most two points, the
empty set included (1 + 81 * 2 + C(81, 2) * 4).  Two distinct points are
affinely independent, so every set has independent degree-1 tensor
powers and each decoder must return exactly its points: no
DecodingFailure and no other exception.

The tier-1 run decodes fixed residue classes.  Over F_2: every syndrome
with jennrich axis, 1 in 16 with jennrich derand and polyspace det.
Over F_3: 1 in 4 of the sets with jennrich axis, 1 in 16 with jennrich
derand and polyspace det.  The full sweeps of all three decoders over
both fields run as a script and print each decoder's counts and time:

    PYTHONPATH=src python tests/test_exhaustive.py
"""

import itertools
import time
from functools import lru_cache

import pytest

from rmsyndrome.code import (CodeParams, DecodingFailure, ErrorSet, Syndrome, explains,
                             syndrome_from_errors, syndrome_from_weighted_errors,
                             tensor_power_matrix)
from rmsyndrome.linalg import rank
from rmsyndrome.polyspace import run_decoder

PARAMS = CodeParams(4, 1)
SIZE = PARAMS.syndrome_index.size  # 15

# (algo, mode, stride, offset): the tier-1 run decodes the syndromes
# s = offset (mod stride), s read as the bits of the syndrome's entries
SWEEPS = [("jennrich", "axis", 1, 0), ("jennrich", "derand", 16, 5),
          ("polyspace", "det", 16, 11)]


PARAMS3 = CodeParams(4, 1, 3)

# (algo, mode, stride, offset): the tier-1 run decodes the weighted sets
# whose index in weighted_sets() is offset (mod stride)
SWEEPS3 = [("jennrich", "axis", 4, 1), ("jennrich", "derand", 16, 7),
           ("polyspace", "det", 16, 13)]


@lru_cache(maxsize=None)
def independent_sets() -> dict:
    """The syndrome entries of every error set with independent degree-1
    tensor powers, mapped to its points."""
    points = list(itertools.product((0, 1), repeat=PARAMS.m))
    found = {}
    for t in range(PARAMS.m + 2):
        for pts in itertools.combinations(points, t):
            if t and rank(tensor_power_matrix(pts, 1, 2)) < t:
                continue
            E = ErrorSet(PARAMS, pts)
            found[syndrome_from_errors(E).entries] = E.points
    return found


def sweep(algo: str, mode: str, syndromes) -> tuple[int, int]:
    """Decode each syndrome (an int whose bit i is entry i) and check the
    oracle; return the numbers decoded and failed."""
    want, decoded, failed = independent_sets(), 0, 0
    for s in syndromes:
        S = Syndrome(PARAMS, tuple(s >> i & 1 for i in range(SIZE)))
        planted = want.get(S.entries)
        try:
            E = run_decoder(S, algo, mode)
        except DecodingFailure:
            assert planted is None, (algo, mode, s, planted)
            failed += 1
            continue
        assert explains(S, E), (algo, mode, s, E.points)
        assert planted is None or E.points == planted, (algo, mode, s, E.points)
        decoded += 1
    return decoded, failed


@lru_cache(maxsize=None)
def weighted_sets() -> list:
    """Every weighted error set of at most two points of F_3^4, in a
    fixed order: (the points, their nonzero magnitudes)."""
    points = list(itertools.product(range(3), repeat=PARAMS3.m))
    return [(pts, mags) for t in range(3) for pts in itertools.combinations(points, t)
            for mags in itertools.product((1, 2), repeat=t)]


def sweep_weighted(algo: str, mode: str, indices) -> int:
    """Decode the syndrome of each indexed weighted set and check that
    the decoder returns exactly its points; return the number decoded."""
    sets, decoded = weighted_sets(), 0
    for i in indices:
        pts, mags = sets[i]
        E = ErrorSet(PARAMS3, pts)
        S = syndrome_from_weighted_errors(E, mags)
        assert run_decoder(S, algo, mode).points == E.points, (algo, mode, i, pts, mags)
        decoded += 1
    return decoded


def test_oracle_counts_the_independent_sets():
    # 1 + 16 + 120 + 560 sets of at most 3 points, every one affinely
    # independent; 1680 of the 1820 4-sets (not the 140 affine planes);
    # 2688 affine bases of F_2^4
    assert len(independent_sets()) == 5065


@pytest.mark.parametrize("algo, mode, stride, offset", SWEEPS,
                         ids=[f"{a}-{m}" for a, m, _, _ in SWEEPS])
def test_every_syndrome_decodes_to_its_independent_set_or_fails(algo, mode, stride, offset):
    decoded, failed = sweep(algo, mode, range(offset, 1 << SIZE, stride))
    assert decoded and failed


def test_f3_oracle_counts_the_weighted_sets():
    # every set of at most two points has independent tensor powers
    sets = weighted_sets()
    assert len(sets) == 13123
    assert all(rank(tensor_power_matrix(pts, 1, 3, PARAMS3.m)) == len(pts)
               for pts, mags in sets if mags == (1,) * len(pts))


@pytest.mark.parametrize("algo, mode, stride, offset", SWEEPS3,
                         ids=[f"{a}-{m}" for a, m, _, _ in SWEEPS3])
def test_every_weighted_set_over_f3_decodes_exactly(algo, mode, stride, offset):
    assert sweep_weighted(algo, mode, range(offset, len(weighted_sets()), stride))


if __name__ == "__main__":
    for algo, mode, _, _ in SWEEPS:
        start = time.perf_counter()
        decoded, failed = sweep(algo, mode, range(1 << SIZE))
        print(f"F_2 {algo} {mode}: {decoded} decoded, {failed} failed, "
              f"{time.perf_counter() - start:.1f} s")
    for algo, mode, _, _ in SWEEPS3:
        start = time.perf_counter()
        decoded = sweep_weighted(algo, mode, range(len(weighted_sets())))
        print(f"F_3 {algo} {mode}: {decoded} of {len(weighted_sets())} decoded exactly, "
              f"{time.perf_counter() - start:.1f} s")
