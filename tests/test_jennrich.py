import itertools
import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import random_invertible
from helpers import (check_flattening_conditions, direct_tensor_power,
                     full_system_explains, reference_axis_points)
from rmsyndrome.code import (CodeParams, DecodingFailure, ErrorSet,
                             SamplingError, Syndrome, corrupt, encode, explains,
                             int_to_point, moment_matrix, point_to_int,
                             sample_error_set,
                             syndrome_from_errors,
                             syndrome_from_weighted_errors, syndrome_of_word,
                             tensor_power_matrix)
from rmsyndrome import fields, jennrich
from rmsyndrome.fields import (UniPoly, extension_field, find_primitive_element,
                               prime_field)
from rmsyndrome.jennrich import (_flatten, _krylov_readout, _RetryableFailure,
                                 _split_points, axis_decompose, decompose,
                                 derandomized_flattening_vectors,
                                 tensor_from_syndrome)
from rmsyndrome.linalg import (FFMatrix, full_rank_submatrix, inverse, rank, rref,
                               slot_layout)
from rmsyndrome.polynomials import (MultilinearPoly, monomial_index,
                                    reduce_exponent)
from rmsyndrome.polyspace import det_find_roots, locate_and_correct, space_roots


def test_tensor_entries_match_direct_sum(rng):
    params = CodeParams(6, 1)
    E = sample_error_set(params, 4, rng)
    T = tensor_from_syndrome(syndrome_from_errors(E))
    size = monomial_index(6, 1, 2).size
    powers = [direct_tensor_power(e, 1, 2) for e in E.points]
    assert T[0].nrows == size
    for i in range(size):
        for j in range(size):
            for k in range(7):
                direct = 0
                for x in powers:
                    direct ^= x[i] & x[j] & x[k]
                assert T[k].at(i, j) == direct


def test_zero_syndrome_gives_zero_tensor():
    params = CodeParams(6, 1)
    T = tensor_from_syndrome(syndrome_from_errors(ErrorSet(params, ())))
    assert all(sl.is_zero() for sl in T)


def test_decompose_empty_and_singleton(rng):
    params = CodeParams(6, 1)
    S0 = syndrome_from_errors(ErrorSet(params, ()))
    assert decompose(S0, "randomized", rng, ext_degree=24).points == ()
    E1 = ErrorSet(params, ((1, 0, 1, 1, 0, 1),))
    S1 = syndrome_from_errors(E1)
    assert decompose(S1, "randomized", rng, ext_degree=24).points == E1.points
    assert decompose(S1, "derandomized", ext_degree=24).points == E1.points


@pytest.mark.parametrize("m,r,t", [(6, 1, 3), (8, 1, 6), (10, 1, 8),
                                   (12, 1, 8), (6, 2, 4), (8, 2, 8)])
def test_decompose_round_trip(m, r, t, rng):
    params = CodeParams(m, r)
    for _ in range(3):
        E = sample_error_set(params, t, rng)
        S = syndrome_from_errors(E)
        rec = decompose(S, "randomized", rng, ext_degree=4 * m)
        assert rec.points == E.points


def test_decompose_syndrome_of_corrupted_word(rng):
    params = CodeParams(8, 1)
    idx = monomial_index(8, params.code_degree, 2)
    P = MultilinearPoly(idx, [rng.randrange(2) for _ in range(idx.size)])
    E = sample_error_set(params, 6, rng)
    S = syndrome_of_word(corrupt(encode(P, params), E))
    assert decompose(S, "randomized", rng, ext_degree=32).points == E.points


def test_decompose_set_equality_not_order(rng):
    params = CodeParams(8, 1)
    pts = [(1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 0, 0),
           (1, 1, 1, 1, 0, 1, 0, 1)]
    for perm in itertools.permutations(pts):
        E = ErrorSet(params, tuple(perm))
        rec = decompose(syndrome_from_errors(E), "randomized", rng, ext_degree=32)
        assert rec.as_set() == frozenset(pts)


def test_derandomized_bit_reproducible(rng):
    params = CodeParams(10, 1)
    E = sample_error_set(params, 8, rng)
    S = syndrome_from_errors(E)
    first = decompose(S, "derandomized", ext_degree=40)
    second = decompose(S, "derandomized", ext_degree=40)
    assert first.points == second.points == E.points


def test_derandomized_vectors_small_m():
    F = extension_field(2, 10)
    alpha = find_primitive_element(F)
    a, b = derandomized_flattening_vectors(F, alpha, 1)
    assert a == (1, alpha)
    assert b == (F.pow(alpha, 3), F.pow(alpha, 5))


def test_derandomized_exponent_progression():
    m = 3
    F = extension_field(2, 30)
    alpha = find_primitive_element(F)
    a, b = derandomized_flattening_vectors(F, alpha, m)
    assert len(a) == len(b) == m + 1
    assert a == tuple(F.pow(alpha, i) for i in range(m + 1))
    # arithmetic exponent progression with step 2 from 3m to 5m
    assert b == tuple(F.pow(alpha, 3 * m + 2 * i) for i in range(m + 1))


def _lifted_ratios(F, a, b, m) -> set:
    """The distinct ratios <x, a> / <x, b> over the nonzero x in F_2^{m+1},
    each of whose <x, a> and <x, b> must be nonzero."""
    vals = set()
    for x in range(1, 2 ** (m + 1)):
        xv = tuple(x >> i & 1 for i in range(m + 1))
        av = 0
        bv = 0
        for k, bit in enumerate(xv):
            if bit:
                av ^= a[k]
                bv ^= b[k]
        assert av != 0 and bv != 0
        vals.add(F.mul(av, F.inv(bv)))
    return vals


def test_derandomized_ratios_distinct_exhaustive_m3():
    # all pairs of distinct nonzero lifted vectors get distinct ratios
    m = 3
    F = extension_field(2, 10 * m)
    alpha = find_primitive_element(F)
    a, b = derandomized_flattening_vectors(F, alpha, m)
    assert len(_lifted_ratios(F, a, b, m)) == 2 ** (m + 1) - 1


def test_check_flattening_conditions(rng):
    params = CodeParams(6, 1)
    F = extension_field(2, 24)
    E1 = ErrorSet(params, ((1, 0, 0, 0, 0, 0),))
    a = tuple(F.random_element(rng) | 1 for _ in range(7))
    b = tuple(F.random_element(rng) | 1 for _ in range(7))
    assert check_flattening_conditions(F, a, b, E1)  # t = 1: only nonzeroness
    E2 = sample_error_set(params, 3, rng)
    same = tuple(F.random_element(rng) for _ in range(7))
    assert not check_flattening_conditions(F, same, same, E2)  # all ratios 1


def test_random_condition_failure_rate_is_small(rng):
    # m = 8, D = 16: conditions hold almost always for random weights
    params = CodeParams(8, 1)
    F = extension_field(2, 16)
    E = sample_error_set(params, 8, rng)
    failures = 0
    trials = 10_000
    for _ in range(trials):
        a = tuple(F.random_element(rng) for _ in range(9))
        b = tuple(F.random_element(rng) for _ in range(9))
        if not check_flattening_conditions(F, a, b, E):
            failures += 1
    assert failures <= trials * 0.01


def test_flattening_identity_against_ground_truth(rng):
    # S^a[K,L] (S^b[K,L])^{-1} X_K = X_K diag(a_i / b_i) for the true X
    params = CodeParams(8, 1)
    F = extension_field(2, 32)
    E = sample_error_set(params, 5, rng)
    T = tensor_from_syndrome(syndrome_from_errors(E))
    while True:
        a = tuple(F.random_element(rng) for _ in range(9))
        b = tuple(F.random_element(rng) for _ in range(9))
        if check_flattening_conditions(F, a, b, E):
            break
    Sa, Sb = _flatten(T, F, a), _flatten(T, F, b)
    assert rank(Sa) == len(E)  # rank reveals the error count
    K, L = full_rank_submatrix(Sa)
    M = Sa.submatrix(K, L) @ inverse(Sb.submatrix(K, L))
    X = tensor_power_matrix(E.points, 1, 2, 8).transpose()
    XK = FFMatrix.from_rows(F, [X.row(i) for i in K])
    avals = []
    bvals = []
    for e in E.points:
        lift = (1,) + e
        av = bv = 0
        for k, bit in enumerate(lift):
            if bit:
                av ^= a[k]
                bv ^= b[k]
        avals.append(av)
        bvals.append(bv)
    ratios = [F.mul(av, F.inv(bv)) for av, bv in zip(avals, bvals)]
    assert M @ XK == XK @ FFMatrix.diagonal(F, ratios)


def test_decompose_odd_field(rng):
    params = CodeParams(5, 1, 3)
    for _ in range(3):
        E = sample_error_set(params, 3, rng)
        S = syndrome_from_errors(E)
        assert decompose(S, "randomized", rng, ext_degree=8).points == E.points


def test_derandomized_rejects_odd_fields(rng):
    params = CodeParams(5, 1, 3)
    S = syndrome_from_errors(sample_error_set(params, 2, rng))
    with pytest.raises(ValueError):
        decompose(S, "derandomized", ext_degree=8)


def test_decompose_failure_on_inconsistent_syndrome(rng):
    params = CodeParams(8, 1)
    E = sample_error_set(params, 2, rng)
    entries = list(syndrome_from_errors(E).entries)
    entries[-1] ^= 1  # not a sum of tensor powers of few points
    bad = Syndrome(params, tuple(entries))
    with pytest.raises(DecodingFailure):
        decompose(bad, "randomized", rng, ext_degree=32)
    with pytest.raises(DecodingFailure):
        decompose(bad, "derandomized", ext_degree=32)


def test_randomized_requires_rng():
    params = CodeParams(6, 1)
    S = syndrome_from_errors(ErrorSet(params, ()))
    with pytest.raises(ValueError):
        decompose(S, "randomized")
    with pytest.raises(ValueError):
        decompose(S, "sideways")


def test_zero_constant_slice_fails_before_the_extension_field(monkeypatch, rng):
    # the only 1 is at x_1 x_2 x_3, of degree 3 > 2r: T_0 is zero and S is not
    def unreachable(*args):
        raise AssertionError("decompose built F_{p^D} for a zero constant slice")

    monkeypatch.setattr(jennrich, "extension_field", unreachable)
    S = _syndrome_with_one_entry(CodeParams(4, 1), (1, 1, 1, 0))
    for args in (("randomized", rng), ("derandomized",)):
        with pytest.raises(DecodingFailure, match="zero constant slice"):
            decompose(S, *args)


def test_derandomized_decode_factors_nothing(monkeypatch, rng):
    # the derandomized vectors are powers of z = X, not of a primitive
    # element, so no decode path factors 2^D - 1
    def no_factoring(*args, **kwargs):
        raise AssertionError("a derandomized decode factored the field order")

    monkeypatch.setattr(fields, "find_primitive_element", no_factoring)
    monkeypatch.setattr(fields, "factorize", no_factoring)
    E = sample_error_set(CodeParams(6, 1), 3, rng)
    S = syndrome_from_errors(E)
    assert decompose(S, "derandomized").points == E.points
    assert decompose(S, "derandomized", ext_degree=24).points == E.points


def test_derandomized_vectors_are_powers_of_x(monkeypatch, rng):
    # z = X mod the modulus: the int 2, or 0 at D = 1, where the modulus
    # is X; the all-zero b then flattens to a singular matrix, which is a
    # decoding failure, not an out-of-field error
    seen = []

    def spy(F, alpha, m):
        seen.append((F.k, alpha))
        return derandomized_flattening_vectors(F, alpha, m)

    monkeypatch.setattr(jennrich, "derandomized_flattening_vectors", spy)
    for t in (1, 3):
        E = sample_error_set(CodeParams(4, 1), t, rng)
        S = syndrome_from_errors(E)
        assert decompose(S, "derandomized").points == E.points
        assert decompose(S, "derandomized", ext_degree=25).points == E.points
        with pytest.raises(DecodingFailure, match="derandomized decomposition failed"):
            decompose(S, "derandomized", ext_degree=1)
    assert seen == [(40, 2), (25, 2), (1, 0)] * 2


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("degree", [lambda m: 10 * m, lambda m: 6 * m + 1],
                         ids=["D=10m", "D=6m+1"])
def test_generator_ratios_distinct_exhaustive(m, degree):
    # the pair separation of test_derandomized_ratios_distinct_exhaustive_m3
    # for the vectors of z = X, down to the guarantee's least D = 6m + 1
    F = extension_field(2, degree(m))
    a, b = derandomized_flattening_vectors(F, 2, m)
    assert len(_lifted_ratios(F, a, b, m)) == 2 ** (m + 1) - 1


@pytest.mark.parametrize("p", [2, 3])
def test_paper_decoder_at_r_0(p, rng):
    # T_0 is 1 x 1 at r = 0: the degree-1 columns H[K, 0..m] lie outside it
    for m in (2, 4):
        E = sample_error_set(CodeParams(m, 0, p), 1, rng)
        S = syndrome_from_errors(E)
        assert decompose(S, "randomized", rng).points == E.points
        if p == 2:
            assert decompose(S, "derandomized").points == E.points


def test_bad_mode_is_rejected_before_any_work(monkeypatch, rng):
    def unreachable(*args):
        raise AssertionError("decompose did work before checking its mode")

    monkeypatch.setattr(jennrich, "moment_matrix", unreachable)
    monkeypatch.setattr(jennrich, "extension_field", unreachable)
    S2 = syndrome_from_errors(sample_error_set(CodeParams(6, 1), 3, rng))
    S3 = syndrome_from_errors(sample_error_set(CodeParams(5, 1, 3), 2, rng))
    for S, mode in ((S2, "sideways"), (S3, "derandomized"), (S2, "randomized")):
        with pytest.raises(ValueError):
            decompose(S, mode)


# (m, r) per field for the differential tests: r in {1, 2} over every
# field, at sizes where the paper decoders take well under a second.
AXIS_GRID = {2: [(4, 1), (6, 1), (7, 1), (6, 2)], 3: [(4, 1), (5, 1), (6, 2)],
             5: [(4, 1), (6, 2)]}


@st.composite
def planted_syndromes(draw, primes=tuple(AXIS_GRID)):
    """A planted error set with independent degree-r tensor powers, up to
    the |M_r| bound, and its syndrome with random nonzero magnitudes."""
    p = draw(st.sampled_from(primes))
    m, r = draw(st.sampled_from(AXIS_GRID[p]))
    params = CodeParams(m, r, p)
    t = draw(st.integers(0, monomial_index(m, r, p).size))
    try:
        E = sample_error_set(params, t, random.Random(draw(st.integers(0, 2**32))))
    except SamplingError:
        reject()
    mags = draw(st.lists(st.integers(1, p - 1), min_size=t, max_size=t))
    return E, syndrome_from_weighted_errors(E, mags)


@st.composite
def arbitrary_syndromes(draw, primes=tuple(AXIS_GRID)):
    """A syndrome over AXIS_GRID with uniformly random entries."""
    p = draw(st.sampled_from(primes))
    params = CodeParams(*draw(st.sampled_from(AXIS_GRID[p])), p)
    rng = random.Random(draw(st.integers(0, 2**32)))
    return Syndrome(params, tuple(rng.randrange(p)
                                  for _ in range(params.syndrome_index.size)))


@given(st.one_of(arbitrary_syndromes(), planted_syndromes().map(lambda case: case[1])))
def test_slices_are_symmetric_and_one_rref_gives_the_minor(S):
    # the front half both tensor decoders share rests on this: the pivots
    # K of rref(T_0) are the full-rank minor's rows and its columns
    T = tensor_from_syndrome(S)
    assert all(sl == sl.transpose() for sl in T)
    K, L = full_rank_submatrix(T[0])
    assert K == L == rref(T[0])[2]


@given(st.one_of(arbitrary_syndromes(), planted_syndromes().map(lambda case: case[1])),
       st.data())
def test_moment_matrix_reads_the_tensor_slices(S, data):
    # moment_matrix reads T_v[i, j] as H[i, shift_v(j)]; the definition is
    # the syndrome entry of reduce(M_i M_j x_v), from exponent tuples
    m, r, p = S.params.m, S.params.r, S.params.p
    monos = monomial_index(m, r, p).monomials
    position = S.params.syndrome_index.position

    def entry(i, j, v):
        x_v = [int(u == v - 1) for u in range(m)]
        return S.entries[position[point_to_int([reduce_exponent(a + b + c, p) for a, b, c
                                                in zip(monos[i], monos[j], x_v)], p)]]

    K0 = rref(moment_matrix(S, range(len(monos)), range(len(monos))))[2]
    subset = data.draw(st.lists(st.integers(0, len(monos) - 1), min_size=1,
                                max_size=len(monos), unique=True))
    for K in {K0, tuple(subset)} - {()}:
        for v in range(m + 1):
            want = [[entry(i, j, v) for j in K] for i in K]
            assert moment_matrix(S, K, K, v).to_lists() == want


@given(planted_syndromes())
def test_axis_decompose_matches_planted_and_polyspace(case):
    E, S = case
    assert axis_decompose(S).points == E.points
    assert det_find_roots(space_roots(S)).points == E.points


@given(planted_syndromes(), st.integers(0, 2**32))
def test_default_decoder_commutes_with_affine_maps(case, seed):
    E, S = case
    params = E.params
    f = params.field
    rng = random.Random(seed)
    A = random_invertible(f, params.m, rng)
    b = tuple(rng.randrange(params.p) for _ in range(params.m))

    def image(points):
        return ErrorSet(params, tuple(tuple(f.add(x, c) for x, c in zip(A.mat_vec(e), b))
                                      for e in points))

    mapped = image(E.points)
    mags = [rng.randrange(1, params.p) for _ in mapped.points]
    decoded, _ = locate_and_correct(syndrome_from_weighted_errors(mapped, mags))
    assert decoded == mapped == image(locate_and_correct(S)[0].points)


@given(st.sampled_from(AXIS_GRID[2]), st.integers(0, 2**32), st.data())
def test_axis_decompose_matches_derandomized_jennrich_over_f2(mr, seed, data):
    params = CodeParams(*mr)
    t = data.draw(st.integers(0, monomial_index(*mr, 2).size))
    try:
        E = sample_error_set(params, t, random.Random(seed))
    except SamplingError:
        reject()
    S = syndrome_from_errors(E)
    assert axis_decompose(S).points == decompose(S, "derandomized").points == E.points


@pytest.mark.parametrize("m,r,p", [(4, 1, 2), (6, 1, 2), (4, 1, 3), (6, 2, 2)])
def test_dependent_tensor_powers_raise(m, r, p):
    # more points than |M_r|: the degree-r tensor powers cannot be
    # independent, and the default decoder must refuse, not guess
    params = CodeParams(m, r, p)
    bound = monomial_index(m, r, p).size
    for seed in range(5):
        rng = random.Random(seed)
        t = bound + 1 + rng.randrange(3)
        E = ErrorSet(params, tuple(int_to_point(x, m, p)
                                   for x in rng.sample(range(params.n), t)))
        S = syndrome_from_weighted_errors(E, [rng.randrange(1, p) for _ in range(t)])
        with pytest.raises(DecodingFailure):
            locate_and_correct(S)


def _syndrome_with_one_entry(params, exponents):
    entries = [0] * params.syndrome_index.size
    entries[params.syndrome_index.position[point_to_int(exponents, params.p)]] = 1
    return Syndrome(params, tuple(entries))


def _axis_outcome(split, S):
    """What one axis kernel makes of S past the shared rank-revealing
    front: its list of points, the DecodingFailure message, or None for
    a zero T_0."""
    T0 = tensor_from_syndrome(S)[0]
    K, _ = full_rank_submatrix(T0)
    if not K:
        return None
    try:
        return split(S, T0, K, inverse(T0.submatrix(K, K)))
    except DecodingFailure as exc:
        return str(exc)


def test_zero_start_vector_is_a_decoding_failure():
    # over F_3 the syndrome 1 at x_1^2 has a rank-1 constant slice whose
    # row basis is x_1, and T_0[x_1, 1] = s[x_1] = 0: no vector to split
    S = _syndrome_with_one_entry(CodeParams(4, 1, 3), (2, 0, 0, 0))
    for decode in (axis_decompose, locate_and_correct):
        with pytest.raises(DecodingFailure, match="zero start vector"):
            decode(S)
    # over F_2 the diagonal of T_0 is its first row, so a zero start
    # vector needs rank >= 2: the syndrome 1 at x_1 x_2 has K = {x_1, x_2}
    S = _syndrome_with_one_entry(CodeParams(4, 1), (1, 1, 0, 0))
    assert full_rank_submatrix(tensor_from_syndrome(S)[0])[0] == (1, 2)
    for split in (jennrich._axis_points, reference_axis_points):
        assert _axis_outcome(split, S).startswith("zero start vector")


def test_more_eigencomponents_than_the_rank_is_a_decoding_failure():
    # flipping s[x_2 x_3] of a planted 3-point syndrome lifts T_0 to rank
    # 5, and the axis matrices no longer commute: one split overshoots
    params = CodeParams(8, 1)
    E = ErrorSet(params, ((1, 0, 1, 1, 0, 0, 0, 0), (1, 1, 0, 1, 0, 1, 0, 0),
                          (0, 0, 0, 0, 1, 1, 0, 0)))
    entries = list(syndrome_from_errors(E).entries)
    entries[params.syndrome_index.position[point_to_int((0, 1, 1, 0, 0, 0, 0, 0), 2)]] ^= 1
    S = Syndrome(params, tuple(entries))
    message = "8 eigencomponents for a rank-5 constant slice"
    with pytest.raises(DecodingFailure, match=message):
        axis_decompose(S)
    for split in (jennrich._axis_points, reference_axis_points):
        assert _axis_outcome(split, S) == message


@st.composite
def axis_syndromes(draw, primes=tuple(AXIS_GRID)):
    """A syndrome over AXIS_GRID: uniformly arbitrary entries, planted
    (planted_syndromes), or planted with one to three entries changed."""
    kind = draw(st.sampled_from(["arbitrary", "planted", "changed"]))
    if kind == "arbitrary":
        return draw(arbitrary_syndromes(primes))
    _, S = draw(planted_syndromes(primes))
    if kind == "planted":
        return S
    p = S.params.p
    entries = list(S.entries)
    for i in draw(st.lists(st.integers(0, len(entries) - 1), min_size=1, max_size=3)):
        entries[i] = (entries[i] + draw(st.integers(1, p - 1))) % p
    return Syndrome(S.params, tuple(entries))


@settings(max_examples=150)
@given(axis_syndromes())
def test_axis_kernel_matches_the_tuple_reference(S):
    # the packed split against the tuple split that forms each M_v: the
    # same points in the same order, or the same failure message
    assert (_axis_outcome(jennrich._axis_points, S)
            == _axis_outcome(reference_axis_points, S))


@settings(max_examples=100)
@given(axis_syndromes(primes=(3, 5)))
def test_explains_on_the_minor_matches_the_full_system(S):
    # the t x t minor solve against the |M_{2r+1}| x t system, on the
    # sets both library decoders return, for S and for S with its last
    # entry changed
    p = S.params.p
    changed = Syndrome(S.params, S.entries[:-1] + ((S.entries[-1] + 1) % p,))
    for decode in (axis_decompose, lambda S: det_find_roots(space_roots(S))):
        try:
            E = decode(S)
        except DecodingFailure:
            continue
        for syndrome in (S, changed):
            assert explains(syndrome, E) == full_system_explains(syndrome, E)


@pytest.mark.parametrize("m,r,p,t", [(6, 2, 5, 28), (12, 2, 3, 60)])
def test_axis_decode_exact_at_wide_slots_and_large_odd_t(m, r, p, t):
    # both fields run on byte slots, and a combination of t columns adds
    # t (p - 1)^2: 448 over F_5 at t = 28, past one byte, so the layout's
    # dot reduces part way; 240 over F_3 at t = 60, within one byte
    params = CodeParams(m, r, p)
    assert slot_layout(prime_field(p)).bits == 8
    for seed in range(2):
        rng = random.Random(seed)
        E = sample_error_set(params, t, rng)
        S = syndrome_from_weighted_errors(E, [rng.randrange(1, p) for _ in range(t)])
        decoded, residual = locate_and_correct(S)
        assert decoded == E and residual.is_zero()


def test_axis_decode_builds_the_idempotent_table_once_per_p():
    # p^2 powers per decode were most of a small decode at p = 251
    params = CodeParams(2, 0, 251)
    S = syndrome_from_weighted_errors(ErrorSet(params, ((3, 200),)), [7])
    jennrich._idempotents.cache_clear()
    assert axis_decompose(S).points == ((3, 200),)
    assert jennrich._idempotents.cache_info().misses == 1
    assert axis_decompose(S).points == ((3, 200),)
    info = jennrich._idempotents.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# The Krylov readout and the gcd split.  Each crafted case below must make
# one decode attempt retry.  They live over F_2^39 with m = 6 variables;
# the degree is odd, so X^2 + X + 1 has no root there (its roots generate F_4).
READOUT_M, READOUT_D = 6, 39


def _quadratic_leaf(F):
    # chi = q (X - lam) with q = X^2 + X + 1 irreducible over F; g_1 =
    # q / q(lam) is 1 at lam and 0 at both roots of q, so q ends as a
    # leaf of degree 2
    q = UniPoly(F, (1, 1, 1))
    lam = 5
    chi = q * UniPoly(F, (lam, 1))
    g = q.scale(F.inv(q.evaluate(lam)))
    return list(chi.coeffs), [list(g.coeffs)] + [[]] * (READOUT_M - 1)


def _coordinate_outside_base_field(F):
    # chi = (X - 1)(X - z) and g_1 = X, whose value z at a root is not in F_2
    chi = UniPoly.from_roots(F, (1, 2))
    return list(chi.coeffs), [[0, 1]] + [[]] * (READOUT_M - 1)


def _repeated_eigenvalue(F):
    # M = diag(lam, lam, mu): no vector is cyclic, so the Krylov columns of
    # any start vector have rank < 3
    M = FFMatrix.diagonal(F, [7, 7, 9])
    return M, (1, 1, 1), [(0, 1, 1)] * READOUT_M


def test_quadratic_leaf_is_a_retry():
    F = extension_field(2, READOUT_D)
    chi, gs = _quadratic_leaf(F)
    with pytest.raises(_RetryableFailure, match="repeated eigenvalue"):
        _split_points(chi, gs, F)


def test_coordinate_outside_base_field_is_a_retry():
    F = extension_field(2, READOUT_D)
    chi, gs = _coordinate_outside_base_field(F)
    with pytest.raises(_RetryableFailure, match="outside the base field"):
        _split_points(chi, gs, F)


def test_repeated_eigenvalue_is_a_retry():
    F = extension_field(2, READOUT_D)
    with pytest.raises(_RetryableFailure, match="not cyclic"):
        _krylov_readout(*_repeated_eigenvalue(F))


def test_krylov_readout_of_a_simple_spectrum():
    # M = diag(lam_e) and y = (1, ..., 1): chi has the lam_e as roots and
    # g(lam_e) = u_e for the column u
    F = extension_field(3, 4)
    lams, u = [4, 17, 30], (1, 0, 2)
    chi, (g,) = _krylov_readout(FFMatrix.diagonal(F, lams), (1,) * 3, [u])
    assert UniPoly(F, chi) == UniPoly.from_roots(F, lams)
    assert tuple(UniPoly(F, g).evaluate(x) for x in lams) == u
    assert sorted(_split_points(chi, [g], F)) == [(0,), (1,), (2,)]


@pytest.mark.parametrize("case", [_quadratic_leaf, _coordinate_outside_base_field,
                                  _repeated_eigenvalue])
def test_unlucky_readout_retries_when_randomized_and_fails_when_derandomized(
        case, monkeypatch, rng):
    F = extension_field(2, READOUT_D)
    crafted = case(F)
    real_readout = _krylov_readout
    calls = []

    def first_attempt_unlucky(M, y, cols):
        calls.append(M)
        if len(calls) > 1:
            return real_readout(M, y, cols)
        if isinstance(crafted[0], FFMatrix):
            return real_readout(*crafted)
        return crafted

    monkeypatch.setattr(jennrich, "_krylov_readout", first_attempt_unlucky)
    E = sample_error_set(CodeParams(READOUT_M, 1), 5, rng)
    S = syndrome_from_errors(E)
    assert decompose(S, "randomized", rng, ext_degree=READOUT_D).points == E.points
    assert len(calls) == 2
    calls.clear()
    with pytest.raises(DecodingFailure):
        decompose(S, "derandomized", ext_degree=READOUT_D)
    assert len(calls) == 1


# Fields and sizes for the readout property tests.
READOUT_GRID = {2: [(4, 1), (6, 1), (6, 2)], 3: [(4, 1), (5, 1)]}


@given(st.sampled_from(sorted(READOUT_GRID)), st.integers(0, 2**32), st.data())
def test_randomized_readout_matches_planted_and_axis(p, seed, data):
    m, r = data.draw(st.sampled_from(READOUT_GRID[p]))
    params = CodeParams(m, r, p)
    rng = random.Random(seed)
    t = data.draw(st.integers(0, monomial_index(m, r, p).size))
    try:
        E = sample_error_set(params, t, rng)
    except SamplingError:
        reject()
    S = syndrome_from_weighted_errors(E, [rng.randrange(1, p) for _ in range(t)])
    # small extension degrees, well below the default 10m
    D = data.draw(st.integers(2 * m, 3 * m))
    assert decompose(S, "randomized", rng, ext_degree=D).points == E.points
    assert axis_decompose(S).points == E.points


@given(st.sampled_from(READOUT_GRID[2]), st.integers(0, 2**32), st.data())
def test_derandomized_readout_at_the_guarantee_degree(mr, seed, data):
    # D = 6m + 1 is the smallest extension degree the fixed weights cover
    m, r = mr
    params = CodeParams(m, r)
    t = data.draw(st.integers(0, monomial_index(m, r, 2).size))
    try:
        E = sample_error_set(params, t, random.Random(seed))
    except SamplingError:
        reject()
    S = syndrome_from_errors(E)
    got = decompose(S, "derandomized", ext_degree=6 * m + 1)
    assert got.points == axis_decompose(S).points == E.points
