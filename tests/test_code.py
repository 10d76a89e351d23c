import json
import operator
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rmsyndrome import polynomials
from rmsyndrome.code import (CodeParams, DegreeError, ErrorSet,
                             LengthMismatchError, MalformedInputError,
                             ReceivedWord, SamplingError, Syndrome, corrupt, encode, explains,
                             has_property_ur,
                             int_to_point, point_to_int, read_word_file,
                             sample_error_set, solve_error_magnitudes,
                             syndrome_from_errors, syndrome_from_weighted_errors,
                             syndrome_of_word, syndrome_streaming, tensor_power,
                             tensor_power_matrix, write_word_file)
from rmsyndrome.code import _fold, _pack, _power_transform, _slots
from helpers import direct_tensor_power, full_system_magnitudes
from rmsyndrome.linalg import rank
from rmsyndrome.polynomials import MultilinearPoly, monomial_index


def test_params_validation():
    CodeParams(4, 1)
    with pytest.raises(ValueError):
        CodeParams(3, 1)  # m < 2r + 2
    with pytest.raises(ValueError):
        CodeParams(8, 1, 4)  # p not prime
    assert CodeParams(8, 1).syndrome_index.size == 1 + 8 + 28 + 56


def test_point_enumeration_little_endian():
    assert point_to_int((1, 0, 1), 2) == 5
    assert int_to_point(5, 3, 2) == (1, 0, 1)
    assert point_to_int((2, 1), 3) == 5
    assert int_to_point(5, 2, 3) == (2, 1)


def test_error_set_sorted_and_distinct():
    params = CodeParams(4, 1)
    E = ErrorSet(params, ((1, 1, 0, 0), (0, 0, 0, 0)))
    assert E.points == ((0, 0, 0, 0), (1, 1, 0, 0))
    with pytest.raises(ValueError):
        ErrorSet(params, ((0, 0, 0, 0), (0, 0, 0, 0)))
    with pytest.raises(ValueError):
        ErrorSet(params, ((0, 0, 0, 2),))


def test_tensor_power_example():
    assert tensor_power((1, 0, 1), 2) == (1, 1, 0, 1, 0, 1, 0)
    tp = tensor_power((0, 0, 0), 2)
    assert tp[0] == 1 and set(tp[1:]) == {0}


def test_tensor_power_entries_are_products(rng):
    idx = monomial_index(6, 3, 2)
    for _ in range(5):
        v = tuple(rng.randrange(2) for _ in range(6))
        tp = tensor_power(v, 3)
        for i, mono in enumerate(idx.monomials):
            expect = 1
            for var, e in enumerate(mono):
                if e:
                    expect *= v[var]
            assert tp[i] == expect


def test_tensor_power_multiplicativity(rng):
    # entry for reduce(M * M') = entry(M) * entry(M') when in range
    idx2 = monomial_index(5, 2, 2)
    idx1 = monomial_index(5, 1, 2)
    for _ in range(5):
        v = tuple(rng.randrange(2) for _ in range(5))
        t1 = tensor_power(v, 1)
        t2 = tensor_power(v, 2)
        for i, mi in enumerate(idx1.monomials):
            for j, mj in enumerate(idx1.monomials):
                prod = tuple(min(a + b, 1) for a, b in zip(mi, mj))
                assert t2[idx2.position[point_to_int(prod, 2)]] == t1[i] * t1[j]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("r", [1, 2])
def test_monomial_walk_matches_the_direct_definition(p, r, rng):
    # every reader of MonomialIndex.values against prod(pow(e_v, a_v, p)),
    # on the empty set, the zero point and weights of 0 and >= p
    m = 2 * r + 2
    params = CodeParams(m, r, p)
    pts = {(0,) * m} | {tuple(rng.randrange(p) for _ in range(m)) for _ in range(6)}
    E = ErrorSet(params, pts)
    for t in (r, 2 * r + 1):
        powers = [direct_tensor_power(e, t, p) for e in E.points]
        assert [tensor_power(e, t, p) for e in E.points] == powers
        assert tensor_power_matrix(E.points, t, p).rows() == powers
        empty = tensor_power_matrix((), t, p, m)
        assert (empty.nrows, empty.ncols) == (0, monomial_index(m, t, p).size)
    weights = [(0, p, p + 1, 2 * p - 1, 1)[i % 5] for i in range(E.t)]
    for F, w in [(ErrorSet(params, ()), []), (E, [1] * E.t), (E, weights)]:
        want = [0] * params.syndrome_index.size
        for e, we in zip(F.points, w):
            for i, x in enumerate(direct_tensor_power(e, 2 * r + 1, p)):
                want[i] = (want[i] + we * x) % p
        assert syndrome_from_weighted_errors(F, w).entries == tuple(want)
    assert syndrome_from_errors(E) == syndrome_from_weighted_errors(E, [1] * E.t)
    idx = monomial_index(m, r + 1, p)
    for _ in range(3):
        P = MultilinearPoly(idx, [rng.randrange(p) for _ in range(idx.size)])
        for e in E.points:
            want = sum(map(operator.mul, P.coeffs, direct_tensor_power(e, r + 1, p)))
            assert P.evaluate(e) == want % p


def test_property_ur_examples():
    params = CodeParams(2, 0)
    assert has_property_ur(ErrorSet(params, ((1, 1),)), 0)
    full = ErrorSet(params, ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert not has_property_ur(full, 0)  # pigeonhole: 4 > 1
    assert not has_property_ur(full, 1)  # 4 vectors in a 3-dim space
    assert has_property_ur(full, 2)      # full 4x4 evaluation matrix
    assert has_property_ur(ErrorSet(params, ()), 0)


class _RiggedRng:
    """Always proposes {0, a, b, a+b}, whose lifted vectors are dependent."""

    def sample(self, population, k):
        return [0, 1, 2, 3][:k]


def test_sample_error_set(rng):
    params = CodeParams(12, 1)
    assert sample_error_set(params, 0, rng).points == ()
    E1 = sample_error_set(params, 1, rng)
    assert E1.resamples == 0  # single points always independent
    resample_free = sum(sample_error_set(params, 8, rng).resamples == 0
                        for _ in range(30))
    assert resample_free >= 27  # empirical success rate >= 0.9
    with pytest.raises(ValueError):
        sample_error_set(params, 14, rng)  # above |M_1^12| = 13
    with pytest.raises(SamplingError):
        sample_error_set(CodeParams(4, 1), 4, _RiggedRng(), max_attempts=8)


@pytest.mark.parametrize("m", [64, 128])
def test_sample_error_set_beyond_index_range(m):
    # p^m > sys.maxsize: rng.sample(range(p^m), t) would raise OverflowError
    params = CodeParams(m, 1)
    E = sample_error_set(params, 4, random.Random(m))
    assert E.t == 4 and has_property_ur(E, 1)
    assert sample_error_set(params, 4, random.Random(m)) == E


def test_sample_error_set_draws_by_rng_sample_where_it_fits():
    # seeded error sets of every test and benchmark stay the same
    params = CodeParams(12, 1)
    E = sample_error_set(params, 8, random.Random(3))
    drawn = random.Random(3).sample(range(params.n), 8)
    assert E.resamples == 0
    assert E.as_set() == {int_to_point(x, 12, 2) for x in drawn}


def test_syndrome_examples():
    params = CodeParams(2, 0)
    assert syndrome_from_errors(ErrorSet(params, ())).is_zero()
    E = ErrorSet(params, ((1, 0), (0, 1)))
    assert syndrome_from_errors(E).entries == (0, 1, 1)
    single = ErrorSet(params, ((1, 1),))
    assert syndrome_from_errors(single).entries == tensor_power((1, 1), 1)


def test_syndrome_streaming_equals_batch(rng):
    params = CodeParams(10, 1)
    idx = monomial_index(10, params.code_degree, 2)
    P = MultilinearPoly(idx, [rng.randrange(2) for _ in range(idx.size)])
    E = sample_error_set(params, 6, rng)
    word = corrupt(encode(P, params), E)
    batch = syndrome_of_word(word)
    stream = syndrome_streaming(params, word.iter_values())
    assert batch == stream == syndrome_from_errors(E)


def test_streaming_stream_length_errors():
    params = CodeParams(2, 0)
    with pytest.raises(LengthMismatchError):
        syndrome_streaming(params, [0] * 3)
    with pytest.raises(LengthMismatchError):
        syndrome_streaming(params, [0] * 5)


@pytest.mark.parametrize("params,stream", [
    (CodeParams(2, 0), [2, 0, 0, 0]),
    (CodeParams(2, 0), [0, 0, -1, 0]),
    (CodeParams(2, 0, 3), [4] + [0] * 8),
    (CodeParams(2, 0, 3), [0] * 8 + [-1]),
], ids=["f2-two", "f2-negative", "f3-four", "f3-negative"])
def test_streaming_rejects_symbols_outside_field(params, stream):
    with pytest.raises(ValueError, match="symbols must lie in"):
        syndrome_streaming(params, stream)


# (p, m, r): streaming runs of p^j symbols with j = 0 for (7, 3, 0) and
# 0 < j < m for the rest; the batch fold is j = m.
STREAM_SHAPES = [(2, 2, 0), (2, 6, 1), (2, 7, 2), (3, 2, 0), (3, 5, 1),
                 (5, 4, 1), (7, 3, 0)]


@given(st.sampled_from(STREAM_SHAPES), st.integers(0, 2**32), st.data())
def test_streaming_batch_and_every_run_length_equal_error_sum(shape, seed, data):
    p, m, r = shape
    params = CodeParams(m, r, p)
    rng = random.Random(seed)
    idx = monomial_index(m, params.code_degree, p)
    P = MultilinearPoly(idx, [rng.randrange(p) for _ in range(idx.size)])
    t = data.draw(st.integers(0, min(params.n, 6)))
    E = ErrorSet(params, tuple(int_to_point(x, m, p)
                               for x in rng.sample(range(params.n), t)))
    weights = [rng.randrange(1, p) for _ in range(t)]
    values = list(encode(P, params).iter_values())
    for e, w in zip(E.points, weights):
        values[point_to_int(e, p)] = (values[point_to_int(e, p)] + w) % p
    expected = syndrome_from_weighted_errors(E, weights)
    word = ReceivedWord(params, sum(v << i for i, v in enumerate(values))
                        if p == 2 else tuple(values))
    assert syndrome_of_word(word) == expected
    assert syndrome_streaming(params, iter(values)) == expected
    for j in range(m + 1):
        runs = [_pack(values[c:c + p ** j], j, p) for c in range(0, params.n, p ** j)]
        assert _fold(params, runs, j) == expected


@given(st.sampled_from(STREAM_SHAPES), st.integers(0, 2**32), st.booleans())
def test_streaming_one_symbol_short_or_long_is_length_mismatch(shape, seed, longer):
    p, m, r = shape
    params = CodeParams(m, r, p)
    rng = random.Random(seed)
    values = [rng.randrange(p) for _ in range(params.n + (1 if longer else -1))]
    with pytest.raises(LengthMismatchError):
        syndrome_streaming(params, iter(values))


@pytest.mark.parametrize("p,m,r", [(3, 7, 1), (5, 6, 1)])
@settings(max_examples=4)
@given(st.integers(0, 2**32))
def test_odd_streaming_peak_memory_within_two_syndromes(p, m, r, seed):
    # the bound of acceptance criterion 8, for in-memory odd-p streams
    params = CodeParams(m, r, p)
    rng = random.Random(seed)
    values = tuple(rng.randrange(p) for _ in range(params.n))
    batch = syndrome_of_word(ReceivedWord(params, values))
    syndrome_streaming(params, iter(values))  # build the cached indexes first
    tracemalloc.start()
    stream = syndrome_streaming(params, iter(values))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    syn_bytes = sys.getsizeof(list(batch.entries)) + 28 * len(batch.entries)
    assert stream == batch
    assert peak <= 2 * syn_bytes


def test_dual_pairing_codewords_have_zero_syndrome(rng):
    for (m, r) in [(6, 1), (8, 1), (10, 1), (6, 2)]:
        params = CodeParams(m, r)
        idx = monomial_index(m, params.code_degree, 2)
        for _ in range(3):
            P = MultilinearPoly(idx, [rng.randrange(2) for _ in range(idx.size)])
            assert syndrome_of_word(encode(P, params)).is_zero()


def test_encode_trivial_words():
    params = CodeParams(6, 1)
    idx = monomial_index(6, params.code_degree, 2)
    assert encode(MultilinearPoly.zero(idx), params).values == 0
    ones = encode(MultilinearPoly.constant(idx, 1), params)
    assert ones.values == (1 << 64) - 1


def test_encode_rejects_high_degree():
    params = CodeParams(6, 2)  # code degree 0
    idx = monomial_index(6, 1, 2)
    with pytest.raises(DegreeError):
        encode(MultilinearPoly.variable(idx, 0), params)


def test_encode_table_matches_evaluation_f3(rng):
    params = CodeParams(5, 1, 3)
    idx = monomial_index(5, params.code_degree, 3)
    P = MultilinearPoly(idx, [rng.randrange(3) for _ in range(idx.size)])
    w = encode(P, params)
    for _ in range(50):
        x = tuple(rng.randrange(3) for _ in range(5))
        assert w.values[point_to_int(x, 3)] == P.evaluate(x)
    assert syndrome_of_word(w).is_zero()


def test_corrupt_involution_and_syndrome(rng):
    params = CodeParams(8, 1)
    idx = monomial_index(8, params.code_degree, 2)
    P = MultilinearPoly(idx, [rng.randrange(2) for _ in range(idx.size)])
    E = sample_error_set(params, 5, rng)
    w = encode(P, params)
    assert corrupt(w, ErrorSet(params, ())) == w
    wc = corrupt(w, E)
    assert corrupt(wc, E) == w
    assert syndrome_of_word(wc) == syndrome_from_errors(E)


def test_syndrome_linearity(rng):
    params = CodeParams(8, 1)
    w1 = ReceivedWord(params, rng.getrandbits(params.n))
    w2 = ReceivedWord(params, rng.getrandbits(params.n))
    both = ReceivedWord(params, w1.values ^ w2.values)
    assert syndrome_of_word(both) == syndrome_of_word(w1) + syndrome_of_word(w2)


def test_weighted_syndrome_and_magnitudes(rng):
    params = CodeParams(6, 1, 3)
    E = sample_error_set(params, 3, rng)
    weights = tuple(rng.randrange(1, 3) for _ in range(3))
    S = syndrome_from_weighted_errors(E, weights)
    assert solve_error_magnitudes(S, E) == weights


def test_ur_rank_matrix(rng):
    params = CodeParams(8, 1)
    E = sample_error_set(params, 6, rng)
    M = tensor_power_matrix(E.points, 1, 2, 8)
    assert M.nrows == 6 and M.ncols == 9
    assert rank(M) == 6


def test_word_and_syndrome_files(tmp_path, rng):
    params = CodeParams(8, 1)
    word = ReceivedWord(params, rng.getrandbits(params.n))
    path = tmp_path / "word.bits"
    write_word_file(word, path)
    assert read_word_file(path) == word
    sidecar = json.loads((tmp_path / "word.bits.json").read_text())
    assert sidecar == {"m": 8, "r": 1, "p": 2}
    s = syndrome_of_word(word)
    assert Syndrome.from_json_dict(s.to_json_dict()) == s
    (tmp_path / "word.bits").write_bytes(b"\x00" * 3)
    with pytest.raises(LengthMismatchError):
        read_word_file(path)


def test_word_symbols_outside_field_rejected():
    params = CodeParams(4, 1, 3)
    with pytest.raises(MalformedInputError):
        ReceivedWord.from_bytes(params, bytes([5]) * params.n)
    for bad in (3, -1):
        values = [0] * params.n
        values[7] = bad
        with pytest.raises(ValueError):
            syndrome_of_word(ReceivedWord(params, tuple(values)))


@pytest.mark.parametrize("d", [[1, 2], {"m": 4.7, "r": 1, "p": 2},
                               {"m": "x", "r": 1, "p": 2}, {"m": 4, "r": 1},
                               {"m": True, "r": 1, "p": 2}])
def test_params_from_json_requires_int_fields(d):
    with pytest.raises(MalformedInputError):
        CodeParams.from_json_dict(d)


def test_syndrome_length_checked_before_index_is_built():
    # |M_3| for m = 400 is over ten million monomials: the length check
    # must come from the closed-form count, not from building the index.
    before = polynomials.monomial_index.cache_info().misses
    with pytest.raises(MalformedInputError):
        Syndrome.from_json_dict({"params": {"m": 400, "r": 1, "p": 2},
                                 "entries": [0, 1]})
    with pytest.raises(ValueError):
        Syndrome(CodeParams(400, 1, 2), (0, 1))
    assert polynomials.monomial_index.cache_info().misses == before


# (p, m, r) for the odd-p transform tests; words have at most 7^3 symbols.
ODD_SHAPES = [(3, 2, 0), (3, 4, 1), (3, 5, 1), (5, 2, 0), (5, 3, 0),
              (5, 4, 1), (7, 2, 0), (7, 3, 0)]


def _moments_by_points(values, params):
    """sum_x y_x x^k for every syndrome monomial k, one point at a time."""
    index = params.syndrome_index
    out = [0] * index.size
    for i, y in enumerate(values):
        x = int_to_point(i, params.m, params.p)
        for j, mono in enumerate(index.monomials):
            term = y
            for c, e in zip(x, mono):
                term *= c ** e
            out[j] += term
    return tuple(v % params.p for v in out)


@settings(max_examples=30)
@given(st.sampled_from([(2, 6, 1), (2, 7, 2), (3, 4, 1), (3, 5, 1), (5, 3, 0),
                        (5, 4, 1)]), st.integers(0, 2**32))
def test_syndrome_of_word_is_linear(shape, seed):
    p, m, r = shape
    params = CodeParams(m, r, p)
    rng = random.Random(seed)
    if p == 2:
        u, v = rng.getrandbits(params.n), rng.getrandbits(params.n)
        total = u ^ v
    else:
        u = tuple(rng.randrange(p) for _ in range(params.n))
        v = tuple(rng.randrange(p) for _ in range(params.n))
        total = tuple((a + b) % p for a, b in zip(u, v))

    def syndrome(values):
        return syndrome_of_word(ReceivedWord(params, values))

    assert syndrome(total) == syndrome(u) + syndrome(v)


@settings(max_examples=30)
@given(st.sampled_from(ODD_SHAPES), st.integers(0, 2**32), st.booleans())
def test_odd_syndrome_of_word_matches_streaming_and_point_sums(shape, seed, top):
    p, m, r = shape
    params = CodeParams(m, r, p)
    rng = random.Random(seed)
    values = ((p - 1,) * params.n if top  # largest value in every slot
              else tuple(rng.randrange(p) for _ in range(params.n)))
    word = ReceivedWord(params, values)
    batch = syndrome_of_word(word)
    assert batch == syndrome_streaming(params, word.iter_values())
    assert batch.entries == _moments_by_points(values, params)


@settings(max_examples=30)
@given(st.sampled_from(ODD_SHAPES), st.integers(0, 2**32), st.data())
def test_odd_corrupted_codeword_syndrome_is_weighted_error_sum(shape, seed, data):
    p, m, r = shape
    params = CodeParams(m, r, p)
    rng = random.Random(seed)
    idx = monomial_index(m, params.code_degree, p)
    P = MultilinearPoly(idx, [rng.randrange(p) for _ in range(idx.size)])
    t = data.draw(st.integers(0, min(params.n, 6)))
    E = ErrorSet(params, tuple(int_to_point(x, m, p)
                               for x in rng.sample(range(params.n), t)))
    weights = data.draw(st.lists(st.integers(1, p - 1), min_size=t, max_size=t))
    values = list(encode(P, params).values)
    for e, w in zip(E.points, weights):
        values[point_to_int(e, p)] = (values[point_to_int(e, p)] + w) % p
    S = syndrome_of_word(ReceivedWord(params, tuple(values)))
    assert S == syndrome_from_weighted_errors(E, weights)


@settings(max_examples=30)
@given(st.sampled_from([s for s in ODD_SHAPES if s[0] in (3, 5)]),
       st.integers(0, 2**32))
def test_odd_encode_matches_evaluation_everywhere(shape, seed):
    p, m, r = shape
    params = CodeParams(m, r, p)
    rng = random.Random(seed)
    idx = monomial_index(m, params.code_degree, p)
    P = MultilinearPoly(idx, [rng.randrange(p) for _ in range(idx.size)])
    table = encode(P, params).values
    assert table == tuple(P.evaluate(int_to_point(i, m, p))
                          for i in range(params.n))


def _transform_axis_by_axis(values, m, p, moments):
    """The per-axis Vandermonde transform on a plain list, reduced mod p
    after every axis."""
    power = [[pow(a, k, p) for k in range(p)] for a in range(p)]
    table = list(values)
    stride = 1
    for _ in range(m):
        out = []
        for i in range(len(table)):
            digit = i // stride % p
            base = i - digit * stride
            coeffs = ([power[a][digit] for a in range(p)] if moments
                      else power[digit])
            out.append(sum(c * table[base + a * stride]
                           for a, c in enumerate(coeffs)) % p)
        table = out
        stride *= p
    return table


@pytest.mark.parametrize("m,p", [(10, 2), (7, 3), (6, 5), (5, 7)])
def test_power_transform_every_slot_at_full_width(m, p, rng):
    # the all-(p-1) table puts the largest possible value in every slot
    for values in ((p - 1,) * p ** m, tuple(rng.randrange(p) for _ in range(p ** m))):
        for moments in (True, False):
            slot = _slots(_power_transform(_pack(values, m, p), m, p, moments), m, p)
            assert list(map(slot, range(p ** m))) == _transform_axis_by_axis(
                values, m, p, moments)


@pytest.mark.parametrize("p,m", [(2, 8), (3, 6), (5, 4)])
def test_explains_a_planted_syndrome_and_not_one_flipped_entry(p, m, rng):
    params = CodeParams(m, 1, p)
    E = sample_error_set(params, 3, rng)
    S = syndrome_from_weighted_errors(E, [rng.randrange(1, p) for _ in range(3)])
    assert explains(S, E)
    entries = list(S.entries)
    entries[-1] = (entries[-1] + 1) % p
    assert not explains(Syndrome(params, tuple(entries)), E)


def test_dependent_low_degree_tensor_powers_give_no_magnitudes():
    # the three points of an affine line over F_3 have dependent degree-1
    # tensor powers (they sum to 0) but independent degree-3 ones: the
    # full system still solves, the t x t minor does not exist
    params = CodeParams(4, 1, 3)
    E = ErrorSet(params, ((0, 1, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0)))
    S = syndrome_from_weighted_errors(E, [1, 2, 2])
    assert rank(tensor_power_matrix(E.points, 1, 3, 4)) == 2
    assert full_system_magnitudes(S, E) == (1, 2, 2)
    assert solve_error_magnitudes(S, E) is None
    assert not explains(S, E)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_empty_set_explains_only_the_zero_syndrome(p):
    params = CodeParams(4, 1, p)
    empty = ErrorSet(params, ())
    zero = Syndrome(params, (0,) * params.syndrome_index.size)
    assert explains(zero, empty)
    one = Syndrome(params, (1,) + zero.entries[1:])
    assert not explains(one, empty)
    if p > 2:
        assert solve_error_magnitudes(zero, empty) == ()
        assert solve_error_magnitudes(one, empty) is None


def test_an_extra_point_gets_magnitude_zero(rng):
    # one point more than the syndrome's support, tensor powers still
    # independent: the minor solve puts 0 on it, as the full system does
    params = CodeParams(6, 1, 5)
    E4 = sample_error_set(params, 4, rng)
    E = ErrorSet(params, E4.points[:3])
    S = syndrome_from_weighted_errors(E, [4, 2, 3])
    planted = dict(zip(E.points, (4, 2, 3)))
    want = tuple(planted.get(e, 0) for e in E4.points)
    assert solve_error_magnitudes(S, E4) == full_system_magnitudes(S, E4) == want
    assert explains(S, E) and not explains(S, E4)
