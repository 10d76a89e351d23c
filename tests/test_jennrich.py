import functools
import itertools
import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import random_invertible
from helpers import (check_flattening_conditions, direct_tensor_power,
                     full_system_explains, reference_axis_points,
                     reference_split_points)
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


def test_derandomized_decodes_odd_fields(rng):
    params = CodeParams(5, 1, 3)
    E = sample_error_set(params, 2, rng)
    assert decompose(syndrome_from_errors(E), "derandomized", ext_degree=8).points == E.points


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
    # the draw is a = (1, z, ..., z^m) for z = X mod the modulus: the int
    # p, or 0 at D = 1, where the modulus is X; a = (1, 0, ..., 0) then
    # flattens to A = I, which decodes one point (A = [1]) and fails, as
    # a decoding failure and not an out-of-field error, on three, whose
    # eigenvalues all equal 1
    seen = []
    real_attempt = jennrich._attempt

    def spy(S, quotients, cols, F, a):
        seen.append((F.k, a[1]))
        assert list(a) == F.powers(a[1], S.params.m + 1)
        return real_attempt(S, quotients, cols, F, a)

    monkeypatch.setattr(jennrich, "_attempt", spy)
    for p in (2, 3):
        seen.clear()
        for t in (1, 3):
            E = sample_error_set(CodeParams(4, 1, p), t, rng)
            S = syndrome_from_errors(E)
            assert decompose(S, "derandomized").points == E.points
            assert decompose(S, "derandomized", ext_degree=31).points == E.points
            if t == 1:
                assert decompose(S, "derandomized", ext_degree=1).points == E.points
                continue
            with pytest.raises(DecodingFailure, match="derandomized decomposition failed"):
                decompose(S, "derandomized", ext_degree=1)
        # the derandomized default D at m = 4 is 5, the least degree above
        # m (over F_2 X^5 + X^2 + 1 is an irreducible trinomial)
        assert seen == [(5, p), (31, p), (1, 0)] * 2


def test_default_extension_degree_for_every_m_up_to_64():
    # over F_2 the least D > 6m with an irreducible trinomial, which
    # extension_field takes as the modulus; over odd p, 6m + 1
    for m in range(1, 65):
        D = jennrich._default_ext_degree(2, m)
        assert D > 6 * m
        assert sum(map(bool, extension_field(2, D).modulus.coeffs)) == 3
        for p in (3, 5):
            assert jennrich._default_ext_degree(p, m) == 6 * m + 1
    assert [jennrich._default_ext_degree(2, m) for m in (12, 20, 64)] == [73, 121, 385]
    assert extension_field(2, 73).modulus == UniPoly(prime_field(2), [1] + [0] * 24 + [1] + [0] * 47 + [1])


def test_derandomized_default_extension_degree_for_every_m_up_to_64():
    # the least D > m with an irreducible trinomial, which extension_field
    # takes as the modulus; each degree skipped has no irreducible
    # X^d + X^j + 1 by is_irreducible over every j
    def trinomials(d):
        return [UniPoly(prime_field(2), [int(i in (0, j, d)) for i in range(d + 1)])
                for j in range(1, d)]
    for m in range(1, 65):
        D = jennrich._default_ext_degree(2, m, "derandomized")
        assert D > m
        assert not any(map(fields.is_irreducible, itertools.chain.from_iterable(
            trinomials(d) for d in range(m + 1, D))))
        assert sum(map(bool, extension_field(2, D).modulus.coeffs)) == 3
    assert [jennrich._default_ext_degree(2, m, "derandomized")
            for m in (12, 20, 64)] == [14, 21, 65]


def test_decompose_takes_the_default_extension_degree(monkeypatch, rng):
    seen = []

    def spy(p, k):
        seen.append((p, k))
        return extension_field(p, k)

    monkeypatch.setattr(jennrich, "extension_field", spy)
    # randomized mode; test_derandomized_vectors_are_powers_of_x covers derand
    for p in (2, 3):
        E = sample_error_set(CodeParams(4, 1, p), 3, rng)
        S = syndrome_from_errors(E)
        assert decompose(S, "randomized", rng).points == E.points
    assert seen == [(2, 25), (3, 25)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("degree", [lambda m: 10 * m, lambda m: 6 * m + 1, lambda m: m + 1],
                         ids=["D=10m", "D=6m+1", "D=m+1"])
def test_generator_ratios_distinct_exhaustive(m, degree):
    # the pair separation of test_derandomized_ratios_distinct_exhaustive_m3
    # for the vectors of z = X, down to D = m + 1, the least D at which
    # every <x, b> is nonzero
    F = extension_field(2, degree(m))
    a, b = derandomized_flattening_vectors(F, 2, m)
    assert len(_lifted_ratios(F, a, b, m)) == 2 ** (m + 1) - 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_derandomized_weights_are_frobenius_images(m):
    # <x, b> = z^{3m} <x, a>^2 for every x in F_2^{m+1}: squaring fixes
    # the F_2 entries of x, so S^b T_0[K,K]^{-1} = z^{3m} A^2 and the
    # paper's quotient S^a (S^b)^{-1} = z^{-3m} A^{-1} has A's eigenvectors
    for D in sorted({m + 1, m + 2, 2 * m + 1, 6 * m + 1}):
        F = extension_field(2, D)
        a, b = derandomized_flattening_vectors(F, 2, m)
        shift = F.pow(2, 3 * m)
        for x in range(2 ** (m + 1)):
            ax = bx = 0
            for v in range(m + 1):
                if x >> v & 1:
                    ax, bx = F.add(ax, a[v]), F.add(bx, b[v])
            assert bx == F.mul(shift, F.square(ax))


def _lifted_eigenvalue(F, a, e):
    """<(1, e), a>: A's eigenvalue at the error point e."""
    return functools.reduce(F.add, [w for x, w in zip((1,) + tuple(e), a) if x])


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_derandomized_bound_is_tight(m):
    # A's eigenvalue at e is 1 + sum_v e_v z^v, so two points collide
    # exactly when a nonzero F_2 polynomial of degree < m vanishes at z.
    # At D = m the modulus c_0 + c_1 X + ... + X^m vanishes at z, so
    # <(1, c[1:]), b> = 0 and the paper's S^b is singular on the set
    # {c[1:]}; A needs no inverse, and the set, even beside the origin,
    # decodes.
    params = CodeParams(m, 1)
    F = extension_field(2, m)
    _, b = derandomized_flattening_vectors(F, 2, m)
    c = F.modulus.coeffs
    assert c[0] == c[m] == 1 and _lifted_eigenvalue(F, b, c[1:]) == 0
    for points in ((tuple(c[1:]),), ((0,) * m, tuple(c[1:]))):
        E = ErrorSet(params, points)
        assert decompose(syndrome_from_errors(E), "derandomized", ext_degree=m).points == E.points
    # at D = m - 1 the modulus c_0 + ... + X^{m-1} vanishes at z, and the
    # points 0 and (c_0, ..., c_{m-1}) share the eigenvalue 1 + z c(z) = 1
    F = extension_field(2, m - 1)
    a, _ = derandomized_flattening_vectors(F, 2, m)
    c = F.modulus.coeffs
    origin = (0,) * m
    assert _lifted_eigenvalue(F, a, origin) == _lifted_eigenvalue(F, a, c) == 1
    E = ErrorSet(params, (origin, tuple(c)))
    S = syndrome_from_errors(E)
    with pytest.raises(DecodingFailure, match="derandomized decomposition failed"):
        decompose(S, "derandomized", ext_degree=m - 1)
    assert decompose(S, "derandomized").points == E.points


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [4, 5, 6])
def test_derandomized_bound_is_tight_over_odd_p(m, p):
    # the F_2 argument holds over F_p: at D = m - 1 the modulus
    # c_0 + ... + X^{m-1} vanishes at z, so the origin and c share the
    # eigenvalue 1 + z c(z) = 1, while D = m separates them
    c = tuple(extension_field(p, m - 1).modulus.coeffs)
    E = ErrorSet(CodeParams(m, 1, p), ((0,) * m, c))
    S = syndrome_from_errors(E)
    with pytest.raises(DecodingFailure, match="derandomized decomposition failed"):
        decompose(S, "derandomized", ext_degree=m - 1)
    assert decompose(S, "derandomized", ext_degree=m).points == E.points


# (m, r) per odd field for the derandomized property test, r in {0, 1, 2}
ODD_DERAND_GRID = {p: [(2, 0), (4, 1), (6, 2)] for p in (3, 5, 7)}


@settings(max_examples=30)
@given(st.sampled_from(sorted(ODD_DERAND_GRID)), st.integers(0, 2**32), st.data())
def test_derandomized_decodes_odd_p_at_the_default_degree_and_at_m(p, seed, data):
    m, r = data.draw(st.sampled_from(ODD_DERAND_GRID[p]))
    params, rng = CodeParams(m, r, p), random.Random(seed)
    t = data.draw(st.integers(0, monomial_index(m, r, p).size))
    try:
        E = sample_error_set(params, t, rng)
    except SamplingError:
        reject()
    S = syndrome_from_weighted_errors(E, [rng.randrange(1, p) for _ in range(t)])
    for D in (None, m):
        assert decompose(S, "derandomized", ext_degree=D).points == E.points
    assert axis_decompose(S).points == E.points


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
    S = syndrome_from_errors(sample_error_set(CodeParams(6, 1), 3, rng))
    for mode in ("sideways", "randomized"):
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
    # T_v[i, j] is H[i, shift_v(j)], the moment matrix at the columns that
    # var_mul(v - 1) shifts; the definition is the syndrome entry of
    # reduce(M_i M_j x_v), from exponent tuples
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
    shifts = [range(len(monos)), *map(monomial_index(m, r + 1, p).var_mul, range(m))]
    for K in {K0, tuple(subset)} - {()}:
        for v, shift in enumerate(shifts):
            want = [[entry(i, j, v) for j in K] for i in K]
            assert moment_matrix(S, K, [shift[k] for k in K]).to_lists() == want
    # one column gathers a bare entry per row; no column, none
    one = moment_matrix(S, subset, subset[:1])
    assert one.to_lists() == [[entry(i, subset[0], 0)] for i in subset]
    empty = moment_matrix(S, subset, ())
    assert (empty.nrows, empty.ncols, empty.is_zero()) == (len(subset), 0, True)
    # a prefix range of the columns is sliced off each row, any other
    # selection picked: both read the same minor
    n = data.draw(st.integers(0, len(monos)))
    assert moment_matrix(S, subset, range(n)) == moment_matrix(S, subset, list(range(n)))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("r", [0, 1, 2])
def test_quotient_stack_against_the_formed_quotients(r, p, rng):
    # block 0 of Q = [I; M_1; ...; M_m] is I and block v is
    # T_v[K,K] T_0[K,K]^{-1} formed from the full slices, on planted
    # syndromes with random nonzero magnitudes and on random ones; y is
    # T_0[K, 0], and it is zero, a DecodingFailure, exactly when
    # K[0] != 0 (half the random syndromes vanish on T_0's column 0).  On
    # the planted ones the blocks of Q y are the coordinate columns
    # H[K, 0..m]
    m = max(4, 2 * r + 2)
    params = CodeParams(m, r, p)
    layout = slot_layout(params.field)
    low, size = monomial_index(m, r, p).size, params.syndrome_index.size
    for case in range(12):
        if case < 4:
            t = rng.randrange(1, low + 1)
            E = sample_error_set(params, t, rng)
            S = syndrome_from_weighted_errors(E, [rng.randrange(1, p) for _ in range(t)])
        else:
            entries = [rng.randrange(p) for _ in range(size)]
            if case % 2:
                entries[:low] = [0] * low  # T_0's column 0 is S at M_r
            S = Syndrome(params, tuple(entries))
        T = tensor_from_syndrome(S)
        K = rref(T[0])[2]
        if case < 4:
            # a planted syndrome of t independent points has rank t, and
            # T_0's column 0 (the magnitudes' sums) is a pivot
            assert K and K[0] == 0 and len(K) == t
        if not K:
            if S.is_zero():
                assert jennrich._quotient_stack(S) == ((), (), [])
            else:
                with pytest.raises(DecodingFailure, match="zero constant slice"):
                    jennrich._quotient_stack(S)
            continue
        if K[0]:
            assert not any(T[0].at(k, 0) for k in K)
            with pytest.raises(DecodingFailure, match="zero start vector"):
                jennrich._quotient_stack(S)
            continue
        t = len(K)
        B = inverse(T[0].submatrix(K, K))
        stack_K, y, Q = jennrich._quotient_stack(S)
        assert (stack_K, y) == (K, tuple(T[0].at(k, 0) for k in K))
        width = t * layout.bits

        def block(x, v):
            return list(layout.unpack(x >> v * width & (1 << width) - 1, t))

        assert [block(col, 0) for col in Q] == FFMatrix.identity(params.field, t).to_lists()
        for v in range(1, m + 1):
            formed = T[v].submatrix(K, K) @ B
            assert [block(col, v) for col in Q] == formed.transpose().to_lists()
        if case < 4:
            Qy = layout.dot(Q, layout.pack(y))
            H = moment_matrix(S, K, range(m + 1)).transpose().to_lists()
            assert [block(Qy, v) for v in range(m + 1)] == H


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


def _packed_split(S, T0, K):
    return jennrich._axis_points(S, *jennrich._quotient_stack(S)[1:])


def _tuple_split(S, T0, K):
    return reference_axis_points(S, T0, K, inverse(T0.submatrix(K, K)))


def _axis_outcome(split, S):
    """What one axis kernel makes of S past the shared rank-revealing
    front: its list of points, the DecodingFailure message, or None for
    a zero T_0."""
    T0 = tensor_from_syndrome(S)[0]
    K, _ = full_rank_submatrix(T0)
    if not K:
        return None
    try:
        return split(S, T0, K)
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
    for split in (_packed_split, _tuple_split):
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
    for split in (_packed_split, _tuple_split):
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
    assert _axis_outcome(_packed_split, S) == _axis_outcome(_tuple_split, S)


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
    # M = diag(lam, lam, mu), its own transpose: no vector is cyclic, so
    # the Krylov columns of any start vector have rank < 3
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
    # M = diag(lam_e), its own transpose, and y = (1, ..., 1): chi has the
    # lam_e as roots and g(lam_e) = u_e for the column u
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

    def first_attempt_unlucky(MT, y, cols):
        calls.append(MT)
        if len(calls) > 1:
            return real_readout(MT, y, cols)
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


def test_decompose_inverts_over_the_base_field_and_reads_the_minor_once(
        monkeypatch, rng):
    # the quotient stack is built once per call, not once per draw, from
    # one moment_matrix read of the minor and one rref of it over F_2,
    # the only elimination over the base field: the randomized call's
    # first draw is forced to fail, so it makes two
    base_rrefs, stacks, minors, readouts = [], [], [], []
    real_rref, real_stack = jennrich.rref, jennrich._quotient_stack
    real_minor = jennrich.moment_matrix

    def rref_spy(M):
        if M.field == prime_field(2):
            base_rrefs.append(M.nrows)
        return real_rref(M)

    def stack_spy(S):
        stacks.append(S)
        return real_stack(S)

    def minor_spy(*args):
        minors.append(args)
        return real_minor(*args)

    def unlucky_once(MT, y, cols):
        readouts.append(MT.field)
        if len(readouts) == 1:
            raise _RetryableFailure("forced redraw")
        return _krylov_readout(MT, y, cols)

    monkeypatch.setattr(jennrich, "rref", rref_spy)
    monkeypatch.setattr(jennrich, "_quotient_stack", stack_spy)
    monkeypatch.setattr(jennrich, "moment_matrix", minor_spy)
    monkeypatch.setattr(jennrich, "_krylov_readout", unlucky_once)
    E = sample_error_set(CodeParams(READOUT_M, 1), 5, rng)
    S = syndrome_from_errors(E)
    assert decompose(S, "randomized", rng, ext_degree=READOUT_D).points == E.points
    assert (len(readouts), len(stacks), len(minors), base_rrefs) == (2, 1, 1, [5])
    assert decompose(S, "derandomized").points == E.points
    assert (len(readouts), len(stacks), len(minors), base_rrefs) == (3, 2, 2, [5] * 2)
    assert axis_decompose(S).points == E.points
    assert (len(stacks), len(minors), base_rrefs) == (3, 3, [5] * 3)


def _interpolate(F, xs, ys) -> list:
    """The g of degree < len(xs) with g(xs[i]) = ys[i], by Lagrange."""
    g = UniPoly.zero(F)
    for i, (x, y) in enumerate(zip(xs, ys)):
        basis = UniPoly.from_roots(F, xs[:i] + xs[i + 1:])
        g = g + basis.scale(F.mul(y, F.inv(basis.evaluate(x))))
    return list(g.coeffs)


def _split_instance(F, kind, rng):
    """chi over t distinct random roots, one of them doubled when kind is
    "repeated", and g_v interpolating t distinct random base-field points,
    two of them equal when kind is "collide" and one coordinate a random
    element of F when kind is "outside"; the g's are padded to deg chi at
    random, as the Krylov readout returns them.  Also the planted points."""
    m = rng.randint(1, 4)
    t = rng.randint(2, min(8, F.p ** m))
    roots = []
    while len(roots) < t:
        lam = F.random_element(rng)
        if lam not in roots:
            roots.append(lam)
    points = [list(int_to_point(x, m, F.p)) for x in rng.sample(range(F.p ** m), t)]
    if kind == "collide":
        points[1] = points[0]
    if kind == "outside":
        points[rng.randrange(t)][rng.randrange(m)] = F.random_element(rng)
    chi = UniPoly.from_roots(F, roots + roots[:1] * (kind == "repeated"))
    gs = []
    for v in range(m):
        g = _interpolate(F, roots, [e[v] for e in points])
        gs.append(g + [0] * (chi.degree - len(g)) if rng.random() < 0.5 else g)
    return list(chi.coeffs), gs, sorted(map(tuple, points))


@pytest.mark.parametrize("p, k", [(2, 25), (2, 73), (3, 4), (5, 3)])
def test_split_matches_the_reference_split(p, k, rng):
    # the same point set as the split by every variable down to the last,
    # and a retry wherever that raises one
    F = extension_field(p, k)
    outcomes = []
    for kind in ("distinct", "collide", "outside", "repeated") * 15:
        chi, gs, planted = _split_instance(F, kind, rng)
        try:
            want = sorted(reference_split_points(chi, gs, F))
        except _RetryableFailure:
            with pytest.raises(_RetryableFailure):
                _split_points(chi, gs, F)
            outcomes.append((kind, "retry"))
            continue
        assert sorted(_split_points(chi, gs, F)) == want == planted
        outcomes.append((kind, "points"))
    assert {kind for kind, outcome in outcomes if outcome == "points"} <= {"distinct", "outside"}
    assert outcomes.count(("distinct", "points")) == 15
    assert outcomes.count(("outside", "retry")) >= 12


# Fields and sizes for the readout property tests.
READOUT_GRID = {2: [(4, 0), (4, 1), (6, 1), (6, 2)], 3: [(4, 1), (5, 1)], 5: [(4, 1)]}


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
    # small extension degrees, below the default D > 6m
    D = data.draw(st.integers(2 * m, 3 * m))
    assert decompose(S, "randomized", rng, ext_degree=D).points == E.points
    assert axis_decompose(S).points == E.points


@given(st.sampled_from(READOUT_GRID[2]), st.integers(0, 2**32), st.data())
def test_derandomized_readout_at_the_guarantee_degree(mr, seed, data):
    # D = 6m + 1, the randomized default's bound, well above the D >= m
    # that A's eigenvalues need; the derandomized default, the least
    # trinomial degree above m, is below it
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


def _derandomized_outcome(S, ext_degree):
    try:
        return decompose(S, "derandomized", ext_degree=ext_degree).points
    except DecodingFailure:
        return None


@settings(max_examples=100)
@given(st.integers(2, 10), st.sampled_from(["planted", "dependent", "changed"]),
       st.integers(0, 2**32), st.data())
def test_derandomized_default_degree_matches_the_generic_degree(m, kind, seed, data):
    # the default D, the least trinomial degree above m, against D = 6m + 1:
    # the same points or DecodingFailure on both sides, for planted sets,
    # sets holding an affine (r + 1)-flat (whose degree-r tensor powers
    # sum to 0) and syndromes with 1 to 3 entries changed; r = 0 where
    # m < 4 leaves no other
    r = data.draw(st.sampled_from([r for r in (1, 2) if m >= 2 * r + 2] or [0]))
    params, rng = CodeParams(m, r), random.Random(seed)
    t = data.draw(st.integers(0, monomial_index(m, r, 2).size))
    try:
        E = sample_error_set(params, t, rng)
    except SamplingError:
        reject()
    S = syndrome_from_errors(E)
    if kind == "dependent":
        while True:
            dirs = [rng.randrange(1, 2 ** m) for _ in range(r + 1)]
            if rank(FFMatrix(slot_layout(prime_field(2)), r + 1, m, dirs)) == r + 1:
                break
        origin, flat = rng.randrange(2 ** m), set()
        for x in range(2 ** (r + 1)):
            q = origin
            for i, d in enumerate(dirs):
                q ^= d if x >> i & 1 else 0
            flat.add(int_to_point(q, m, 2))
        S = syndrome_from_errors(ErrorSet(params, tuple(flat | set(E.points))))
    elif kind == "changed":
        entries = list(S.entries)
        for i in data.draw(st.sets(st.integers(0, len(entries) - 1), min_size=1, max_size=3)):
            entries[i] ^= 1
        S = Syndrome(params, tuple(entries))
    got = _derandomized_outcome(S, None)
    assert got == _derandomized_outcome(S, 6 * m + 1)
    if kind == "planted":
        assert got == E.points
