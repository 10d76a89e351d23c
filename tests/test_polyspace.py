import itertools
import math
import random
import warnings

import pytest
from hypothesis import assume, given, strategies as st

from helpers import check_ur_preserved, subspace_parametrization, unique_root
from rmsyndrome import code, linalg, polynomials, polyspace
from rmsyndrome.code import (CodeParams, DecodingFailure, ErrorSet,
                             SamplingError, Syndrome, corrupt, encode, explains,
                             sample_error_set, solve_error_magnitudes,
                             syndrome_from_errors,
                             syndrome_from_weighted_errors, syndrome_of_word,
                             syndrome_streaming, tensor_power,
                             tensor_power_matrix, vanishing_space)
from rmsyndrome.fields import prime_field
from rmsyndrome.jennrich import decompose
from rmsyndrome.linalg import FFMatrix, rank, rref_nullspace
from rmsyndrome.polynomials import (MonomialIndex, MultilinearPoly, PolySpace,
                                    monomial_index)
from rmsyndrome.polyspace import (IsolationBoundWarning,
                                  StructuralInconsistencyError, det_find_roots,
                                  find_roots, isolation_codim,
                                  locate_and_correct, run_decoder, space_roots,
                                  vv_sample, _annihilator, _read_point)


def _sample_instance(rng, p=2, max_t=6):
    grids = [(4, 1), (6, 1), (8, 1), (8, 2), (6, 2)] if p == 2 \
        else [(4, 1), (5, 1), (6, 2)]
    m, r = grids[rng.randrange(len(grids))]
    params = CodeParams(m, r, p)
    bound = min(monomial_index(m, r, p).size, max_t)
    while True:
        try:
            return params, sample_error_set(params, rng.randint(0, bound), rng)
        except SamplingError:
            continue


def test_space_roots_zero_syndrome_full_space():
    params = CodeParams(6, 1)
    V = space_roots(syndrome_from_errors(ErrorSet(params, ())))
    assert V.codim == 0


def test_space_roots_single_point_example():
    params = CodeParams(2, 0)
    V = space_roots(syndrome_from_errors(ErrorSet(params, ((1, 1),))))
    assert V.codim == 1
    i1 = monomial_index(2, 1, 2)
    assert V.contains(MultilinearPoly.from_terms(i1, {(0, 0): 1, (1, 0): 1}))
    assert V.contains(MultilinearPoly.from_terms(i1, {(1, 0): 1, (0, 1): 1}))
    assert V == vanishing_space([(1, 1)], 1, 2)


@pytest.mark.parametrize("p", [2, 3])
def test_space_roots_matches_nullspace_oracle(p, rng):
    for _ in range(12):
        params, E = _sample_instance(rng, p)
        S = syndrome_from_errors(E)
        V = space_roots(S)
        assert V == vanishing_space(E.points, params.r + 1, params.m, p)
        assert V.codim == len(E)  # codimension identity


def _read_off(V):
    """The point read off V's annihilator, which must have one row."""
    phi = _annihilator(V)
    assert len(phi) == V.codim == 1
    return _read_point(phi[0], V.index, V.basis.layout)


def test_codim_1_read_off_examples():
    V = vanishing_space([(1, 0, 1)], 1, 3)
    assert _read_off(V) == unique_root(V) == (1, 0, 1)
    V = vanishing_space([(1, 0, 1), (0, 1, 1)], 1, 3)
    assert _annihilator(V) == rref_nullspace(V.basis, V.pivots).packed_rows()
    V2 = vanishing_space([(0, 0, 0), (1, 1, 0)], 1, 3)
    assert len(_annihilator(V2)) == 2 and unique_root(V2) is None
    assert _annihilator(PolySpace.full(monomial_index(3, 1, 2))) == []
    # a functional that vanishes on the constants reads no point:
    # evaluation at (0,0,0) minus evaluation at (1,1,0)
    layout = V2.basis.layout
    diff = layout.pack(tensor_power((0, 0, 0), 1, 2)) ^ layout.pack(tensor_power((1, 1, 0), 1, 2))
    assert _read_point(diff, V2.index, layout) is None


def test_codim_1_read_off_odd_field():
    V = vanishing_space([(2, 0, 1)], 1, 3, 3)
    assert _read_off(V) == unique_root(V) == (2, 0, 1)
    # a scaled evaluation reads the same point
    layout = V.basis.layout
    phi = layout.pack([2 * v % 3 for v in tensor_power((2, 0, 1), 1, 3)])
    assert _read_point(phi, V.index, layout) == (2, 0, 1)


def test_isolation_codim_formula():
    for t in range(1, 65):
        l = isolation_codim(t, 40)
        assert 2 <= 2 ** l / t < 4 or t == 1 and l == 1
    assert isolation_codim(8, 4) == 3  # clamped to m - 1


def test_isolation_codim_over_f2_is_log2_for_every_t_up_to_4096():
    for t in range(1, 4097):
        assert isolation_codim(t, 40) == isolation_codim(t, 40, 2) == math.ceil(math.log2(t)) + 1


@pytest.mark.parametrize("p", [3, 5, 7, 31, 251])
def test_isolation_codim_over_fp_is_the_least_l_with_p_to_the_l_at_least_2t(p):
    for t in range(1, 300):
        l = isolation_codim(t, 40, p)
        assert p ** l >= 2 * t and (l == 1 or p ** (l - 1) < 2 * t)
    assert isolation_codim(2, 4, 31) == 1
    assert isolation_codim(10 ** 6, 3, p) == 2  # clamped to m - 1


def test_vv_sample_independence_and_warning(rng):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vecs, consts = vv_sample(20, 4, rng)
        assert len(vv_sample(20, 4, rng, 5)[0]) == isolation_codim(4, 20, 5) == 2
    assert len(vecs) == isolation_codim(4, 20) == 3
    assert rank(FFMatrix.from_rows(CodeParams(20, 1).field, vecs)) == 3
    assert all(c in (0, 1) for c in consts)
    with pytest.warns(IsolationBoundWarning):
        vv_sample(8, 8, rng)


class CountingRandom(random.Random):
    """A Random that counts its randrange calls."""

    calls = 0

    def randrange(self, *args):
        self.calls += 1
        return super().randrange(*args)


@pytest.mark.parametrize("m,t,p", [(6, 4, 2), (5, 4, 3)])
def test_vv_sample_draws_independent_rows_and_uniform_entries(m, t, p):
    # every C row is uniform over the nonzero vectors (GL_m permutes the
    # independent l-tuples and acts transitively on nonzero vectors), so
    # an entry is 0 with probability (p^(m-1) - 1) / (p^m - 1) and each
    # nonzero value with p^(m-1) / (p^m - 1); the constants are uniform
    draws, l = 20000, isolation_codim(t, m, p)
    F, rng = prime_field(p), CountingRandom(m * p)
    entries = [[0] * p for _ in range(l * m)]
    consts = [[0] * p for _ in range(l)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IsolationBoundWarning)
        for _ in range(draws):
            vecs, cs = vv_sample(m, t, rng, p)
            assert len(vecs) == len(cs) == l
            assert rank(FFMatrix.from_rows(F, vecs)) == l
            for j, v in enumerate(vecs):
                for k, x in enumerate(v):
                    entries[j * m + k][x] += 1
            for j, c in enumerate(cs):
                consts[j][c] += 1
    # one randrange per constraint, and all l drawn again while the rows
    # are dependent: 1 / P(independent) tries per draw on average
    tries = 1 / math.prod(1 - p ** (i - m) for i in range(l))
    assert abs(rng.calls / (l * draws) - tries) < 0.02 * tries
    zero = (p ** (m - 1) - 1) / (p ** m - 1)
    entry_probs = [zero] + [(1 - zero) / (p - 1)] * (p - 1)
    # chi-square with p - 1 degrees of freedom, against a bound that a
    # true distribution exceeds with probability below 1e-6
    bound = {1: 23.93, 2: 27.63}[p - 1]
    for counts, probs in [(c, entry_probs) for c in entries] + [(c, [1 / p] * p)
                                                               for c in consts]:
        chi2 = sum((n - draws * q) ** 2 / (draws * q) for n, q in zip(counts, probs))
        assert chi2 < bound


def test_find_roots_makes_one_random_call_per_constraint(monkeypatch, rng):
    # one _draw_forms draw of m forms per decode, one randrange per form
    # (all m drawn again while they are dependent), and every restriction
    # against one form: rows of one |M_r|-slot product per alpha
    draws, restricts = [], []
    draw, restrict = polyspace._draw_forms, polyspace._restrict

    def counting_draw(m, l, rng, layout):
        before = rng.calls
        forms = draw(m, l, rng, layout)
        draws.append((m, l, rng.calls - before))
        return forms

    def one_form_restrict(lin, c, nodes, low, layout):
        restricts.append(len(lin) == len(nodes) and all(g >> low * layout.bits == 0 for g in lin))
        return restrict(lin, c, nodes, low, layout)
    monkeypatch.setattr(polyspace, "_draw_forms", counting_draw)
    monkeypatch.setattr(polyspace, "_restrict", one_form_restrict)
    E = sample_error_set(CodeParams(12, 1), 8, rng)
    V, counting = space_roots(syndrome_from_errors(E)), CountingRandom(5)
    assert find_roots(V, counting).points == E.points
    assert len(draws) == 1 and draws[0][:2] == (12, 12)
    assert draws[0][2] == counting.calls and counting.calls % 12 == 0
    assert restricts and all(restricts)


def test_vv_isolation_frequency_small(rng):
    m, t = 14, 4
    pts = set()
    while len(pts) < t:
        pts.add(tuple(rng.randrange(2) for _ in range(m)))
    pts = sorted(pts)
    target = pts[1]
    hits = 0
    trials = 4000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IsolationBoundWarning)
        for _ in range(trials):
            vecs, consts = vv_sample(m, t, rng)
            surviving = [e for e in pts
                         if all(sum(a * x for a, x in zip(v, e)) % 2 == c
                                for v, c in zip(vecs, consts))]
            if surviving == [target]:
                hits += 1
    bound = 1 / (7 * t)
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert hits / trials >= bound - 3 * sigma


def test_find_roots_degenerate_cases(rng):
    params = CodeParams(6, 1)
    V0 = space_roots(syndrome_from_errors(ErrorSet(params, ())))
    assert find_roots(V0, rng).points == ()
    E1 = ErrorSet(params, ((1, 1, 0, 0, 1, 0),))
    V1 = space_roots(syndrome_from_errors(E1))
    assert find_roots(V1, rng).points == E1.points  # no isolation needed


@pytest.mark.parametrize("m,r,p,t", [(8, 1, 2, 5), (5, 1, 3, 3)])
def test_find_roots_returns_only_common_zeroes_of_a_partial_space(m, r, p, t, rng):
    # half of a vanishing space's basis is not a full vanishing space:
    # both finders either see that or return only its common zeroes
    for _ in range(5):
        E = sample_error_set(CodeParams(m, r, p), t, rng)
        V = vanishing_space(E.points, r + 1, m, p)
        W = PolySpace.from_matrix(V.index, V.basis.submatrix(range(V.dim // 2),
                                                             range(V.index.size)))
        for find in (det_find_roots, lambda W: find_roots(W, rng)):
            try:
                found = find(W)
            except StructuralInconsistencyError:
                continue
            for e in found:
                assert not any(W.basis.mat_vec(tensor_power(e, r + 1, p)))


# The F_2 cases keep the ids they had before p became a parameter.
@pytest.mark.parametrize("m,r,p,t", [(8, 1, 2, 5), (10, 1, 2, 8), (12, 1, 2, 8),
                                     (8, 2, 2, 6), (6, 1, 3, 4)],
                         ids=["8-1-5", "10-1-8", "12-1-8", "8-2-6", "6-1-3-4"])
def test_find_roots_round_trip(m, r, p, t, rng):
    params = CodeParams(m, r, p)
    for _ in range(3):
        E = sample_error_set(params, t, rng)
        V = space_roots(syndrome_from_errors(E))
        assert find_roots(V, rng).points == E.points


def test_det_find_roots_trivial_and_single():
    params = CodeParams(6, 1)
    assert det_find_roots(space_roots(syndrome_from_errors(
        ErrorSet(params, ())))).points == ()
    E = ErrorSet(params, ((0, 1, 0, 1, 1, 0),))
    assert det_find_roots(space_roots(syndrome_from_errors(E))).points == E.points


@pytest.mark.parametrize("p", [2, 3])
def test_det_find_roots_round_trip(p, rng):
    for _ in range(10):
        params, E = _sample_instance(rng, p)
        V = space_roots(syndrome_from_errors(E))
        assert det_find_roots(V).points == E.points


@given(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)]), st.data())
def test_both_finders_recover_clustered_sets(pr, data):
    # the points agree on the top half of the coordinates, so det keeps
    # every alpha in one branch for half its levels before the set splits
    p, r = pr
    m = data.draw(st.integers(2 * r + 2, 2 * r + 4), label="m")
    half = m // 2
    top = data.draw(st.tuples(*[st.integers(0, p - 1)] * (m - half)), label="top")
    lows = data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * half), min_size=1,
                              max_size=min(p ** half, 8), unique=True), label="lows")
    points = [low + top for low in lows]
    assume(rank(tensor_power_matrix(points, r, p, m)) == len(points))
    E = ErrorSet(CodeParams(m, r, p), tuple(points))
    V = space_roots(syndrome_from_errors(E))
    assert det_find_roots(V) == E
    assert find_roots(V, random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))) == E


def test_det_find_roots_structural_inconsistency(rng):
    params = CodeParams(8, 1)
    E = sample_error_set(params, 2, rng)
    entries = list(syndrome_from_errors(E).entries)
    entries[-1] ^= 1
    V = space_roots(Syndrome(params, tuple(entries)))
    with pytest.raises(StructuralInconsistencyError):
        det_find_roots(V)


def test_restriction_soundness_on_survivors(rng):
    # restricted spaces vanish on the surviving (restricted) points
    params = CodeParams(8, 1)
    E = sample_error_set(params, 5, rng)
    V = space_roots(syndrome_from_errors(E))
    for c in (0, 1):
        W = V.restrict_last_const(c)
        survivors = [e[:-1] for e in E.points if e[-1] == c]
        for P in W.polys():
            assert all(P.evaluate(z) == 0 for z in survivors)


def test_count_errors_after_restriction():
    V = vanishing_space([(0, 0), (1, 1)], 1, 2)
    assert V.codim == 2
    assert V.restrict_last_zero().codim == 1  # only (0,) survives


def test_locate_and_correct_f2(rng):
    params = CodeParams(8, 1)
    E0, res0 = locate_and_correct(syndrome_from_errors(ErrorSet(params, ())))
    assert E0.points == () and res0.is_zero()
    E = sample_error_set(params, 5, rng)
    got, res = locate_and_correct(syndrome_from_errors(E))
    assert got.points == E.points and res.is_zero()


def test_locate_and_correct_f3_magnitudes(rng):
    params = CodeParams(6, 1, 3)
    idx = monomial_index(6, params.code_degree, 3)
    E = sample_error_set(params, 3, rng)
    P = MultilinearPoly(idx, [rng.randrange(3) for _ in range(idx.size)])
    word = corrupt(encode(P, params), E, rng)
    S = syndrome_of_word(word)
    got, res = locate_and_correct(S)
    assert got.points == E.points and res.is_zero()
    E0, res0 = locate_and_correct(syndrome_from_errors(ErrorSet(params, ())))
    assert E0.points == () and res0.is_zero()


@pytest.mark.parametrize("p,m,message", [
    (2, 8, "nonzero residual after correction"),
    (3, 6, "located set cannot explain the syndrome")])
def test_residual_is_zero_and_one_flipped_entry_raises(p, m, message, rng):
    params = CodeParams(m, 1, p)
    E = sample_error_set(params, 3, rng)
    S = syndrome_from_weighted_errors(E, [rng.randrange(1, p) for _ in range(3)])
    got, res = locate_and_correct(S)
    assert got.points == E.points
    assert res == Syndrome(params, (0,) * len(S.entries))
    # the last entry, a degree-3 moment, lies outside every minor the
    # decoder reads on these instances: the located set comes back, and
    # only the residual check rejects it
    entries = list(S.entries)
    entries[-1] = (entries[-1] + 1) % p
    with pytest.raises(DecodingFailure, match=message):
        locate_and_correct(Syndrome(params, tuple(entries)))


def test_located_point_of_zero_magnitude_raises(monkeypatch, rng):
    # a decoder that returns one point too many: over F_3 the four tensor
    # powers are independent, so the magnitudes still solve, with 0 on
    # the extra point, and that set does not explain the syndrome
    params = CodeParams(6, 1, 3)
    E4 = sample_error_set(params, 4, rng)
    E = ErrorSet(params, E4.points[:3])
    S = syndrome_from_weighted_errors(E, [1, 2, 1])
    assert explains(S, E)
    planted = dict(zip(E.points, (1, 2, 1)))
    assert solve_error_magnitudes(S, E4) == tuple(planted.get(e, 0) for e in E4.points)
    assert not explains(S, E4)
    monkeypatch.setattr(polyspace, "axis_decompose", lambda S: E4)
    with pytest.raises(DecodingFailure, match="located set cannot explain the syndrome"):
        locate_and_correct(S)


def test_locate_and_correct_all_decoders(rng):
    params = CodeParams(8, 1)
    E = sample_error_set(params, 4, rng)
    S = syndrome_from_errors(E)
    for algo, mode in [("polyspace", "det"), ("polyspace", "rand"),
                       ("jennrich", "rand"), ("jennrich", "derand")]:
        got, res = locate_and_correct(S, algorithm=algo, mode=mode,
                                      rng=random.Random(7), ext_degree=32)
        assert got.points == E.points and res.is_zero()


def test_check_ur_preserved(rng):
    from conftest import random_invertible
    params = CodeParams(8, 1)
    f = params.field
    E = sample_error_set(params, 5, rng)
    ident = FFMatrix.identity(f, 8)
    assert check_ur_preserved(E, ident, (0,) * 8)
    for _ in range(30):
        M = random_invertible(f, 8, rng)
        b = tuple(rng.randrange(2) for _ in range(8))
        assert check_ur_preserved(E, M, b)
    with pytest.raises(ValueError):
        check_ur_preserved(E, FFMatrix.zeros(f, 8, 8), (0,) * 8)


def test_decoders_agree_with_each_other(rng):
    params = CodeParams(10, 1)
    for _ in range(4):
        E = sample_error_set(params, 6, rng)
        S = syndrome_from_errors(E)
        V = space_roots(S)
        a = decompose(S, "randomized", rng, ext_degree=40)
        b = det_find_roots(V)
        c = find_roots(V, rng)
        assert a.points == b.points == c.points == E.points


def test_find_roots_seed_invariance_of_result(rng):
    # different seeds recover the same set on success
    params = CodeParams(10, 1)
    E = sample_error_set(params, 5, rng)
    V = space_roots(syndrome_from_errors(E))
    results = {find_roots(V, random.Random(seed)).points for seed in range(5)}
    assert results == {E.points}


@given(st.sampled_from([(6, 2), (4, 3)]), st.integers(1, 20), st.integers(0, 2**32))
def test_isolation_parametrization_enumerates_the_sampled_subspace(mp, t, seed):
    # the reference restriction of the differential tests reads x0 and N
    # off one nullspace of [C | -c]
    m, p = mp
    f = prime_field(p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IsolationBoundWarning)
        vecs, consts = vv_sample(m, t, random.Random(seed), p)
    x0, Nt = subspace_parametrization(vecs, consts, p)
    image = [tuple(f.add(a, b) for a, b in zip(Nt.mat_vec(y), x0))
             for y in itertools.product(range(p), repeat=Nt.ncols)]
    C = FFMatrix.from_rows(f, vecs)
    subspace = {x for x in itertools.product(range(p), repeat=m)
                if C.mat_vec(x) == consts}
    assert len(set(image)) == len(image) and set(image) == subspace


@pytest.mark.parametrize("m,r,p,t", [(4, 1, 31, 2), (6, 1, 7, 4)])
def test_isolation_over_large_fields_recovers_every_set(m, r, p, t):
    # one constraint isolates a point over F_31 about 1 draw in 16; the
    # F_2 constraint count, two, made that 1 in 500
    params = CodeParams(m, r, p)
    for seed in range(5):
        rng = random.Random(seed)
        E = sample_error_set(params, t, rng)
        assert run_decoder(syndrome_from_errors(E), "polyspace", "rand", rng) == E


def test_run_decoder_rejects_a_partial_isolation(monkeypatch, rng):
    params = CodeParams(10, 1)
    E = sample_error_set(params, 6, rng)
    S = syndrome_from_errors(E)
    partial = ErrorSet(params, E.points[:4])
    monkeypatch.setattr(polyspace, "_split", lambda phi, index, forms: partial)
    for mode in ("det", "rand"):
        with pytest.raises(DecodingFailure, match="nonzero residual after correction"):
            run_decoder(S, "polyspace", mode, rng)


def test_polyspace_decodes_build_no_vanishing_space(monkeypatch, rng):
    # run_decoder splits the rows H[K, :] of the constant slice's pivots:
    # no decode reduces all of H or builds V's basis
    def unreachable(*args):
        raise AssertionError("a polyspace decode built the vanishing space")

    monkeypatch.setattr(polyspace, "space_roots", unreachable)
    monkeypatch.setattr(polyspace, "rref_nullspace", unreachable)
    monkeypatch.setattr(linalg, "rref_nullspace", unreachable)
    for m, r, p, t in ((8, 1, 2, 6), (8, 2, 2, 10), (6, 1, 3, 4), (4, 1, 5, 3)):
        E = sample_error_set(CodeParams(m, r, p), t, rng)
        for mode in ("det", "rand"):
            assert run_decoder(syndrome_from_errors(E), "polyspace", mode, rng) == E


def test_no_decode_path_builds_exponent_tuples(monkeypatch):
    # decoders and word syndromes read monomial keys only: with every
    # index, position table and run layout cold, no index builds its
    # exponent tuples
    for cached in (polynomials.monomial_index, polynomials.moment_positions,
                   code._run_layout):
        cached.cache_clear()
    monkeypatch.setattr(MonomialIndex, "monomials", property(
        lambda idx: pytest.fail(f"{idx!r} built its exponent tuples")))
    rng = random.Random(14)
    for p, modes in ((2, polyspace.DECODER_MODES),
                     (3, {"jennrich": ("axis", "rand"), "polyspace": ("det", "rand")})):
        params = CodeParams(6, 1, p)
        E = sample_error_set(params, 3, rng)
        word = corrupt(encode(MultilinearPoly.zero(monomial_index(6, 2, p)), params),
                       E, rng)
        S = syndrome_of_word(word)
        assert syndrome_streaming(params, word.iter_values()) == S
        for algorithm, names in modes.items():
            for mode in names:
                located, _ = locate_and_correct(S, algorithm, mode, rng,
                                                ext_degree=24)
                assert located.points == E.points
