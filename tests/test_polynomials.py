import random
from itertools import product
from math import prod
from operator import mul

import pytest

from hypothesis import assume, given, strategies as st

from conftest import random_invertible
from helpers import (affine_substitute, reference_monomials,
                     reference_pair_positions)
from rmsyndrome.code import tensor_power_matrix, vanishing_space
from rmsyndrome.fields import PrimeField, prime_field
from rmsyndrome.linalg import FFMatrix, inverse, rank
from rmsyndrome.polynomials import (MonomialIndex, MultilinearPoly, PolySpace,
                                    moment_positions, monomial_count,
                                    monomial_index, point_to_int, poly_from_obj,
                                    poly_to_obj, reduce_exponent, reduce_terms,
                                    space_to_obj, substitution_matrix)


def test_graded_lex_order_constant_first():
    idx = monomial_index(3, 2, 2)
    assert idx.monomials == ((0, 0, 0),
                             (1, 0, 0), (0, 1, 0), (0, 0, 1),
                             (1, 1, 0), (1, 0, 1), (0, 1, 1))
    idx3 = monomial_index(2, 2, 3)
    assert idx3.monomials == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_monomial_count_matches_index_size():
    for p in (2, 3, 5, 7):
        for m in range(6):
            for t in range(m * (p - 1) + 2):  # past the top degree too
                assert monomial_count(m, t, p) == monomial_index(m, t, p).size
    assert monomial_count(400, 3, 2) == 1 + 400 + 79800 + 10586800


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_keys_are_the_base_p_numbers_of_the_reference_tuples(p):
    # every index is a prefix of the reference at the top degree; uncached
    # indexes, so the large ones (7^6 monomials at m = 6) are freed
    for m in range(7):
        ref = reference_monomials(m, m * (p - 1), p)
        ref_keys = tuple(point_to_int(e, p) for e in ref)
        ref_degrees = list(map(sum, ref))
        for t in range(m * (p - 1) + 2):  # past the top degree too
            idx = MonomialIndex(m, t, p)
            n = monomial_count(m, t, p)
            assert idx.keys == ref_keys[:n]
            assert idx.position == {key: i for i, key in enumerate(ref_keys[:n])}
            assert idx.monomials == tuple(ref[:n])
            assert list(map(idx.degree_of, range(n))) == ref_degrees[:n]


@pytest.mark.parametrize("m,t,p", [(5, 3, 2), (4, 3, 3), (3, 4, 5)])
def test_monomial_order_round_trip(m, t, p):
    idx = monomial_index(m, t, p)
    for i, mono in enumerate(idx.monomials):
        assert idx.position[point_to_int(mono, p)] == i
    degs = [sum(mono) for mono in idx.monomials]
    assert degs == sorted(degs) and degs[0] == 0


@pytest.mark.parametrize("m,t,p", [(5, 3, 2), (6, 2, 2), (4, 3, 3), (3, 4, 5)])
def test_var_mul_matches_the_exponent_tuples(m, t, p):
    # var_mul maps the degree < t prefix, whose shifts all lie in the
    # index; the definition adds 1 to exponent v
    idx = monomial_index(m, t, p)
    low = monomial_count(m, t - 1, p)
    for v in range(m):
        want = []
        for mono in idx.monomials[:low]:
            e = list(mono)
            e[v] = reduce_exponent(e[v] + 1, p)
            want.append(idx.position[point_to_int(e, p)])
        shift = idx.var_mul(v)
        assert shift == tuple(want)
        assert len(shift) == low and all(0 <= j < idx.size for j in shift)


@pytest.mark.parametrize("m,r,p", [(6, 1, 2), (7, 2, 2), (5, 1, 3), (4, 2, 3),
                                   (4, 1, 5), (3, 2, 5)])
def test_moment_positions_match_the_exponent_tuple_reference(m, r, p):
    # the F_2 table is read off support masks, the odd-p one off reduced
    # exponent sums; both must equal the tuple formula for every p
    table = moment_positions(m, r, p)
    assert table == reference_pair_positions(m, r, r + 1, p)
    assert len(table) == monomial_count(m, r, p)
    assert {len(row) for row in table} == {monomial_count(m, r + 1, p)}


@pytest.mark.parametrize("m,t", [(5, 3), (7, 2), (6, 6)])
def test_f2_parents_read_off_masks_match_the_exponent_tuples(m, t):
    idx = MonomialIndex(m, t, 2)  # uncached, so parents() is built here
    want = [None]
    for mono in idx.monomials[1:]:
        v = mono.index(1)  # the lowest variable of the monomial
        want.append((idx.position[point_to_int(mono[:v] + (0,) + mono[v + 1:], 2)], v))
    assert idx.parents() == tuple(want)


def test_evaluate_constant_and_linear():
    idx = monomial_index(2, 1, 2)
    one = MultilinearPoly.constant(idx, 1)
    assert one.evaluate((0, 1)) == 1
    s = MultilinearPoly.from_terms(idx, {(1, 0): 1, (0, 1): 1})
    assert s.evaluate((1, 1)) == 0


@pytest.mark.parametrize("m,t,p,exps", [(2, 2, 3, (3, 0)), (2, 1, 2, (1, 0, 0))],
                         ids=["exponent-p", "m-plus-one-entries"])
def test_from_terms_rejects_vectors_that_are_not_monomials(m, t, p, exps):
    # read as base-p numbers both are keys of other monomials: 3 is x_1's
    # key over F_3, 1 is x_0's
    with pytest.raises(KeyError):
        MultilinearPoly.from_terms(monomial_index(m, t, p), {exps: 1})


@pytest.mark.parametrize("p,m", [(2, 8), (3, 4)])
def test_evaluate_against_truth_table(p, m, rng):
    idx = monomial_index(m, 3, p)
    f = prime_field(p)
    for _ in range(5):
        P = MultilinearPoly(idx, [rng.randrange(p) for _ in range(idx.size)])
        for _ in range(25):
            x = tuple(rng.randrange(p) for _ in range(m))
            direct = 0
            for i, c in enumerate(P.coeffs):
                if c:
                    term = c
                    for v, e in enumerate(idx.monomials[i]):
                        term = f.mul(term, f.pow(x[v], e))
                    direct = f.add(direct, term)
            assert P.evaluate(x) == direct


def test_reduce_examples():
    i2 = monomial_index(2, 1, 2)
    assert reduce_terms({(2, 0): 1}, i2).terms() == [((1, 0), 1)]
    i3 = monomial_index(2, 1, 3)
    assert reduce_terms({(3, 0): 1}, i3).terms() == [((1, 0), 1)]


@pytest.mark.parametrize("p,m", [(2, 6), (3, 4)])
def test_reduce_idempotent_and_evaluation_preserving(p, m, rng):
    idx = monomial_index(m, 4, p)
    f = prime_field(p)
    for _ in range(4):
        terms = {}
        while len(terms) < 6:
            exps = tuple(rng.randrange(5) for _ in range(m))
            red = tuple(0 if e == 0 else (e - 1) % (p - 1) + 1 if p > 2 else 1
                        for e in exps)
            if sum(red) <= 4:
                terms[exps] = rng.randrange(1, p)
        P = reduce_terms(terms, idx)
        assert reduce_terms(dict(P.terms()), idx) == P  # idempotent
        for x in product(range(p), repeat=m):
            direct = 0
            for exps, c in terms.items():
                term = c
                for v, e in enumerate(exps):
                    term = f.mul(term, f.pow(x[v], e))
                direct = f.add(direct, term)
            assert P.evaluate(x) == direct


def test_affine_substitute_identity_and_shift():
    idx = monomial_index(4, 2, 2)
    f2 = prime_field(2)
    ident = FFMatrix.identity(f2, 4)
    P = MultilinearPoly.from_terms(idx, {(1, 0, 0, 0): 1, (1, 1, 0, 0): 1})
    assert affine_substitute(P, ident, (0, 0, 0, 0)) == P
    Q = affine_substitute(MultilinearPoly.variable(idx, 0), ident, (1, 0, 0, 0))
    assert sorted(Q.terms()) == [((0, 0, 0, 0), 1), ((1, 0, 0, 0), 1)]


@pytest.mark.parametrize("p,m", [(2, 6), (3, 4)])
def test_affine_substitute_evaluation_and_inverse(p, m, rng):
    idx = monomial_index(m, 3, p)
    f = prime_field(p)
    for _ in range(4):
        M = random_invertible(f, m, rng)
        b = tuple(rng.randrange(p) for _ in range(m))
        P = MultilinearPoly(idx, [rng.randrange(p) for _ in range(idx.size)])
        Q = affine_substitute(P, M, b)
        assert Q.degree() <= max(P.degree(), 0)
        for x in product(range(p), repeat=m):
            lx = tuple(f.add(a, c) for a, c in zip(M.mat_vec(x), b))
            assert Q.evaluate(x) == P.evaluate(lx)
        Minv = inverse(M)
        binv = tuple(f.neg(c) for c in Minv.mat_vec(b))
        assert affine_substitute(Q, Minv, binv) == P


def test_affine_substitute_rejects_singular():
    idx = monomial_index(3, 2, 2)
    P = MultilinearPoly.variable(idx, 0)
    with pytest.raises(ValueError):
        affine_substitute(P, [[0, 0, 0]] * 3, (0, 0, 0))


def _reference_value(coeffs, monomials, point, p):
    """sum_i c_i prod_v x_v^(e_iv) mod p over the exponent tuples."""
    return sum(c * prod(map(pow, point, mono, [p] * len(point)))
               for c, mono in zip(coeffs, monomials)) % p


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 3), (13, 2)])
def test_substitution_matrix_rows_evaluate_to_the_substituted_monomials(p, m):
    # row i of S, read as a polynomial in k variables, is M_i(Ay + b) at
    # every y in F_p^k; A with a zero row, b = 0, b with entries >= p
    rng = random.Random(p * 100 + m)
    for t in range(4):
        idx = monomial_index(m, t, p)
        monos = reference_monomials(m, t, p)
        for k in range(m + 1):
            target_monos = reference_monomials(k, t, p)
            A = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
            A[rng.randrange(m)] = [0] * k
            for b in ((0,) * m, tuple(rng.randrange(p) for _ in range(m)),
                      tuple(rng.randrange(p, 3 * p) for _ in range(m))):
                S = substitution_matrix(idx, A, b)
                assert (S.nrows, S.ncols) == (idx.size, len(target_monos))
                for y in product(range(p), repeat=k):
                    x = [(sum(map(mul, row, y)) + c) % p for row, c in zip(A, b)]
                    assert [_reference_value(S.row(i), target_monos, y, p)
                            for i in range(idx.size)] == [
                        _reference_value([1], [mono], x, p) for mono in monos]


def test_substitution_matrix_makes_no_field_calls(monkeypatch):
    """Over F_5 the substitution is packed row products: no
    PrimeField.add, sub or mul call."""
    idx = monomial_index(5, 3, 5)
    rng = random.Random(5)
    A = [[rng.randrange(5) for _ in range(3)] for _ in range(5)]
    b = tuple(rng.randrange(5) for _ in range(5))
    calls = []
    for name in ("add", "sub", "mul"):
        monkeypatch.setattr(PrimeField, name,
                            lambda self, *args, name=name: calls.append(name))
    S = substitution_matrix(idx, A, b)
    monkeypatch.undo()
    assert calls == [] and not S.is_zero()


def test_restrict_example_diagonal_pair():
    # E = {(0,0),(1,1)}: restriction at X_2 = 0 vanishes on {0}
    V = vanishing_space([(0, 0), (1, 1)], 1, 2)
    R = V.restrict_last_zero()
    oracle = vanishing_space([(0,)], 1, 1)
    assert R == oracle
    assert R.codim == 1


def test_restrict_full_space_and_off_plane_points():
    V = vanishing_space([], 2, 4)
    assert V.restrict_last_zero().codim == 0
    # all points have last coordinate 1 (and independent degree-1 powers):
    # the restriction is the full space over m-1 variables
    V = vanishing_space([(0, 1, 1), (1, 0, 1)], 2, 3)
    assert V.restrict_last_zero().codim == 0


def random_ur_points(m, p, r, t, rng):
    """Random t-point set whose degree <= r tensor powers are independent
    (the restriction lemma's hypothesis)."""
    from rmsyndrome.code import tensor_power_matrix
    from rmsyndrome.linalg import rank as mrank
    while True:
        pts = set()
        while len(pts) < t:
            pts.add(tuple(rng.randrange(p) for _ in range(m)))
        pts = sorted(pts)
        if mrank(tensor_power_matrix(pts, r, p, m)) == t:
            return pts


@pytest.mark.parametrize("p,m,r", [(2, 6, 1), (2, 8, 2), (3, 4, 1), (3, 5, 2)])
def test_restrict_matches_brute_force(p, m, r, rng):
    for _ in range(6):
        t = rng.randint(0, 4)
        pts = random_ur_points(m, p, r, t, rng)
        V = vanishing_space(pts, r + 1, m, p)
        E1 = [e[:-1] for e in pts if e[-1] == 0]
        oracle = vanishing_space(E1, r + 1, m - 1, p)
        assert V.restrict_last_zero() == oracle


def test_restrict_last_const_translates():
    pts = [(0, 1, 2), (1, 1, 1), (2, 0, 1)]
    V = vanishing_space(pts, 2, 3, 3)
    for c in range(3):
        Ec = [e[:-1] for e in pts if e[-1] == c]
        assert V.restrict_last_const(c) == vanishing_space(Ec, 2, 2, 3)


@given(st.data())
def test_affine_image_of_subspace_parametrization(data):
    # x = A y + b with A m x k of full column rank, k < m: the image of a
    # vanishing space is the vanishing space of the preimage in k variables
    p = data.draw(st.sampled_from([2, 3]), label="p")
    m = data.draw(st.integers(2, 5 if p == 2 else 4), label="m")
    r = data.draw(st.integers(1, 2 if p == 2 else 1), label="r")
    k = data.draw(st.integers(0, m - 1), label="k")
    t = data.draw(st.integers(0, min(monomial_index(m, r, p).size, 5)), label="t")
    point = st.tuples(*[st.integers(0, p - 1)] * m)
    pts = data.draw(st.lists(point, min_size=t, max_size=t, unique=True), label="E")
    assume(rank(tensor_power_matrix(pts, r, p, m)) == t)
    f = prime_field(p)
    row = st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
    A = data.draw(st.lists(row, min_size=m, max_size=m), label="A")
    assume(rank(FFMatrix.from_rows(f, A)) == k)
    b = data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m), label="b")
    E = set(pts)
    preimage = []
    for y in product(range(p), repeat=k):
        x = tuple(f.add(sum(a * c for a, c in zip(arow, y)) % p, bv)
                  for arow, bv in zip(A, b))
        if x in E:
            preimage.append(y)
    V = vanishing_space(pts, r + 1, m, p)
    assert V.affine_image(A, b) == vanishing_space(preimage, r + 1, k, p)
    if k:
        deficient = [[0] + arow[1:] for arow in A]
        with pytest.raises(ValueError):
            V.affine_image(deficient, b)


def test_codim_examples(rng):
    idx = monomial_index(5, 2, 2)
    assert PolySpace.full(idx).codim == 0
    assert PolySpace.empty(idx).codim == idx.size
    # vanishing space of an independent set has codim = t
    from rmsyndrome.code import CodeParams, sample_error_set
    params = CodeParams(8, 1)
    E = sample_error_set(params, 6, rng)
    assert vanishing_space(E.points, 2, 8).codim == 6


def test_space_membership_and_canonical_equality(rng):
    pts = [(1, 0, 1), (0, 1, 1)]
    V = vanishing_space(pts, 2, 3)
    for P in V.polys():
        assert all(P.evaluate(e) == 0 for e in pts)
        assert V.contains(P)
    W = PolySpace.from_polys(V.index, list(reversed(V.polys())))
    assert W == V  # rref canonical form is order independent


@pytest.mark.parametrize("p", [2, 3])
def test_space_of_no_polys_is_empty(p):
    idx = monomial_index(3, 2, p)
    assert PolySpace.from_polys(idx, []) == PolySpace.empty(idx)


def test_packed_polys_over_f3_round_trip_and_test_membership():
    pts = [(1, 2, 0), (0, 1, 1)]
    V = vanishing_space(pts, 2, 3, 3)
    for P in V.polys():
        assert MultilinearPoly.from_packed(V.index, P.packed()) == P
        assert V.contains(P)
    outside = MultilinearPoly.constant(V.index, 1)
    assert not V.contains(outside)
    rem = V.reduce_vector(outside.packed())
    assert V.reduce_vector(rem) == rem
    assert V.contains(outside - MultilinearPoly.from_packed(V.index, rem))


def test_poly_from_obj_adds_repeated_exponent_vectors():
    idx = monomial_index(4, 3, 3)
    x1 = [1, 0, 0, 0]
    twice = poly_from_obj([[x1, 1], [x1, 1]], idx)
    assert twice.terms() == [((1, 0, 0, 0), 2)]
    assert twice == poly_from_obj([[x1, 1], [[3, 0, 0, 0], 1]], idx)  # X^3 = X
    assert poly_from_obj([[x1, 1], [x1, 2]], idx).is_zero()


def test_poly_serialization_round_trip(rng):
    idx = monomial_index(4, 2, 3)
    P = MultilinearPoly(idx, [rng.randrange(3) for _ in range(idx.size)])
    assert poly_from_obj(poly_to_obj(P), idx) == P
    V = vanishing_space([(1, 0, 2, 1)], 2, 4, 3)
    obj = space_to_obj(V)
    assert len(obj) == V.dim
