"""Every decoder, through run_decoder and locate_and_correct, on small
random instances over F_2, F_3, F_5 and F_7: a planted syndrome decodes
to its exact set or raises DecodingFailure, and a syndrome with one to
three entries changed raises DecodingFailure or decodes to a set that
explains it by the full system.  No other exception is allowed.  The
Jennrich decoders run at an extension degree of 2m to 3m, below the
default, so their failures are exercised too.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import full_system_explains
from rmsyndrome.code import (CodeParams, DecodingFailure, Syndrome, sample_error_set,
                             syndrome_from_weighted_errors)
from rmsyndrome.polynomials import monomial_count
from rmsyndrome.polyspace import DECODER_MODES, locate_and_correct, run_decoder

PAIRS = [(algo, mode) for algo, modes in DECODER_MODES.items() for mode in modes]


@st.composite
def instances(draw, algo, mode):
    """(ext_degree, planted set, its syndrome, rng seed) for the decoder."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    r = draw(st.integers(0, 1))
    m = draw(st.integers(2 * r + 2, 2 * r + 4))
    t = draw(st.integers(1, min(4, monomial_count(m, r, p))))
    ext_degree = draw(st.integers(2 * m, 3 * m)) if algo == "jennrich" else None
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    E = sample_error_set(CodeParams(m, r, p), t, rng)
    S = syndrome_from_weighted_errors(E, [rng.randrange(1, p) for _ in range(t)])
    return ext_degree, E, S, rng.randrange(2 ** 32)


def _decode_both(S, algo, mode, ext_degree, seed):
    """run_decoder's set, or None on DecodingFailure, after checking that
    locate_and_correct, from the same rng, agrees and leaves the zero
    residual."""
    try:
        E = run_decoder(S, algo, mode, random.Random(seed), ext_degree)
    except DecodingFailure:
        E = None
    try:
        got, residual = locate_and_correct(S, algo, mode, random.Random(seed), ext_degree)
    except DecodingFailure:
        assert E is None
        return None
    assert E is not None and got.points == E.points
    assert residual == Syndrome(S.params, (0,) * len(S.entries))
    return E


@pytest.mark.parametrize("algo, mode", PAIRS)
@settings(max_examples=12)
@given(data=st.data())
def test_planted_syndrome_decodes_exactly_or_fails(algo, mode, data):
    ext_degree, E, S, seed = data.draw(instances(algo, mode))
    got = _decode_both(S, algo, mode, ext_degree, seed)
    assert got is None or got.points == E.points


@pytest.mark.parametrize("algo, mode", PAIRS)
@settings(max_examples=12)
@given(data=st.data())
def test_changed_syndrome_fails_or_is_explained(algo, mode, data):
    ext_degree, E, S, seed = data.draw(instances(algo, mode))
    p, entries = S.params.p, list(S.entries)
    for i in data.draw(st.sets(st.integers(0, len(entries) - 1), min_size=1, max_size=3)):
        entries[i] = (entries[i] + data.draw(st.integers(1, p - 1))) % p
    changed = Syndrome(S.params, tuple(entries))
    got = _decode_both(changed, algo, mode, ext_degree, seed)
    assert got is None or full_system_explains(changed, got)
