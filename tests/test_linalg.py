import random
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from conftest import random_invertible
from rmsyndrome.fields import (ExtField, PrimeField, UniPoly, extension_field,
                               prime_field)
from rmsyndrome.linalg import (FFMatrix, SingularMatrixError,
                               SpectrumNotSimpleError, char_poly,
                               eigen_decompose, full_rank_submatrix, inverse,
                               nullspace_basis, pack_bits, rank, rref, solve)

F2 = prime_field(2)
F5 = prime_field(5)
F16 = extension_field(2, 4)
F256 = extension_field(2, 8)


def _random_matrix(field, nrows, ncols, rng):
    return FFMatrix.from_rows(
        field, [[field.random_element(rng) for _ in range(ncols)] for _ in range(nrows)])


def test_rref_identity_and_zero():
    I5 = FFMatrix.identity(F2, 5)
    R, rk, piv = rref(I5)
    assert R == I5 and rk == 5 and piv == (0, 1, 2, 3, 4)
    Z = FFMatrix.zeros(F2, 3, 4)
    R, rk, piv = rref(Z)
    assert R == Z and rk == 0 and piv == ()


def test_rref_rank_against_span_size_oracle(rng):
    # rank = log2(#elements in the row span), enumerated exhaustively
    for _ in range(40):
        M = _random_matrix(F2, 6, 8, rng)
        span = {0}
        for i in range(6):
            r = M.packed_row(i)
            span |= {s ^ r for s in span}
        assert rank(M) == len(span).bit_length() - 1


def test_rref_random_20x30(rng):
    M = _random_matrix(F2, 20, 30, rng)
    R, rk, piv = rref(M)
    assert rk == len(piv) <= 20
    assert rank(M.transpose()) == rk


@pytest.mark.parametrize("field", [F2, F5, F16])
def test_rref_idempotent_and_rank_transpose(field, rng):
    for _ in range(15):
        M = _random_matrix(field, 5, 7, rng)
        R, _, _ = rref(M)
        assert rref(R)[0] == R
        assert rank(M) == rank(M.transpose())


def test_nullspace_trivial_cases():
    assert nullspace_basis(FFMatrix.identity(F2, 4)).nrows == 0
    assert nullspace_basis(FFMatrix.zeros(F5, 3, 3)) == FFMatrix.identity(F5, 3)


def test_nullspace_affine_vanishing_example():
    # degree <= 1 polynomials vanishing at (1,1): the 1 x 3 tensor matrix
    M = FFMatrix.from_rows(F2, [[1, 1, 1]])
    ns = nullspace_basis(M)
    assert ns.nrows == 2  # codimension 1
    assert (M @ ns.transpose()).is_zero()


@pytest.mark.parametrize("field", [F2, F5, F16])
def test_nullspace_rank_nullity_and_exactness(field, rng):
    for _ in range(15):
        M = _random_matrix(field, 5, 9, rng)
        ns = nullspace_basis(M)
        assert ns.nrows == 9 - rank(M)
        assert (M @ ns.transpose()).is_zero()


def test_solve_examples(rng):
    assert solve(FFMatrix.identity(F5, 3), (2, 3, 4)) == (2, 3, 4)
    assert solve(FFMatrix.zeros(F2, 3, 3), (1, 0, 0)) is None
    for _ in range(15):
        A = random_invertible(F256, 6, rng)
        x = tuple(F256.random_element(rng) for _ in range(6))
        assert solve(A, A.mat_vec(x)) == x


def test_full_rank_submatrix_identity():
    K, L = full_rank_submatrix(FFMatrix.identity(F2, 4))
    assert K == L == (0, 1, 2, 3)
    assert full_rank_submatrix(FFMatrix.zeros(F5, 3, 3)) == ((), ())


def test_full_rank_submatrix_rank_one_pivot_rule():
    # u v^T with first nonzero entries at positions 2 and 1
    u = [0, 0, 3, 1]
    v = [0, 2, 0, 4]
    M = FFMatrix.from_rows(F5, [[ui * vj % 5 for vj in v] for ui in u])
    K, L = full_rank_submatrix(M)
    assert K == (2,) and L == (1,)


@pytest.mark.parametrize("field", [F2, F5, F16])
def test_full_rank_submatrix_invertibility(field, rng):
    for _ in range(25):
        t = rng.randint(0, 4)
        rows = [[0] * 9 for _ in range(7)]
        for _ in range(t):
            u = [field.random_element(rng) for _ in range(7)]
            v = [field.random_element(rng) for _ in range(9)]
            for i in range(7):
                for j in range(9):
                    rows[i][j] = field.add(rows[i][j], field.mul(u[i], v[j]))
        M = FFMatrix.from_rows(field, rows)
        K, L = full_rank_submatrix(M)
        r = rank(M)
        assert len(K) == len(L) == r
        if r:
            inverse(M.submatrix(K, L))  # raises when singular


def _low_rank_matrix(field, nrows, ncols, rk, rng):
    """A random nrows x ncols matrix of rank <= rk, as the product of
    random nrows x rk and rk x ncols factors."""
    if rk == 0:
        return FFMatrix.zeros(field, nrows, ncols)
    return _random_matrix(field, nrows, rk, rng) @ _random_matrix(field, rk, ncols, rng)


def _greedy_minor(M):
    """Reference (K, L): K keeps each row that is independent of the rows
    kept before it, and L is the pivot column set of rref(M[K, :])."""
    K = []
    for i in range(M.nrows):
        if rank(M.submatrix(K + [i], range(M.ncols))) > len(K):
            K.append(i)
    return tuple(K), rref(M.submatrix(K, range(M.ncols)))[2]


@given(st.sampled_from([F2, F5, F16]), st.integers(1, 8), st.integers(1, 8),
       st.integers(0, 4), st.integers(0, 2**32))
def test_full_rank_submatrix_matches_greedy_oracle(field, nrows, ncols, rk, seed):
    M = _low_rank_matrix(field, nrows, ncols, rk, random.Random(seed))
    assert full_rank_submatrix(M) == _greedy_minor(M)


@given(st.sampled_from([F2, F5, F16]), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 4), st.booleans(), st.integers(0, 2**32))
def test_solve_exactly_when_consistent(field, nrows, ncols, rk, in_range, seed):
    rng = random.Random(seed)
    A = _low_rank_matrix(field, nrows, ncols, rk, rng)
    if in_range:
        b = A.mat_vec([field.random_element(rng) for _ in range(ncols)])
    else:
        b = tuple(field.random_element(rng) for _ in range(nrows))
    x = solve(A, b)
    consistent = rank(A.hstack(FFMatrix.from_rows(field, [[v] for v in b]))) == rank(A)
    assert (x is not None) == consistent
    if x is not None:
        assert A.mat_vec(x) == b


@given(st.lists(st.integers(0, 1), max_size=80))
def test_pack_bits_sets_bit_i_to_entry_i(bits):
    want = sum(b << i for i, b in enumerate(bits))
    assert pack_bits(bits) == pack_bits(bytes(bits)) == want


@pytest.mark.parametrize("bad", [2, 32, 43, 45, 48, 49, 95, 255, 256, -1])
def test_f2_rows_and_vectors_reject_entries_outside_0_1(bad):
    # int() would read space, +, -, the ASCII digits 0 and 1 and _ as text
    with pytest.raises(ValueError):
        FFMatrix.from_rows(F2, [[0, 1], [bad, 0]])
    with pytest.raises(ValueError):
        FFMatrix.identity(F2, 2).mat_vec((1, bad))


def test_char_poly_diagonal_and_zero():
    lams = [1, 2, 4]
    D = FFMatrix.diagonal(F16, lams)
    assert char_poly(D) == UniPoly.from_roots(F16, lams)
    assert char_poly(FFMatrix.zeros(F2, 2, 2)).coeffs == (0, 0, 1)
    assert char_poly(FFMatrix.zeros(F2, 0, 0)) == UniPoly.one(F2)


@pytest.mark.parametrize("field", [F5, F16])
def test_char_poly_companion_round_trip(field, rng):
    for n in (3, 9):
        coeffs = [field.random_element(rng) for _ in range(n)] + [1]
        f = UniPoly(field, coeffs)
        comp = [[0] * n for _ in range(n)]
        for i in range(1, n):
            comp[i][i - 1] = 1
        for i in range(n):
            comp[i][n - 1] = field.neg(coeffs[i])
        assert char_poly(FFMatrix.from_rows(field, comp)) == f


def _leibniz_char_poly(M):
    """det(XI - M) as a sum over permutations of products of the
    polynomial entries, with the sign from the inversion count."""
    f = M.field
    n = M.nrows
    a = M.to_lists()
    entry = [[UniPoly(f, (f.neg(a[i][j]), 1) if i == j else (f.neg(a[i][j]),))
              for j in range(n)] for i in range(n)]
    total = UniPoly.zero(f)
    for perm in permutations(range(n)):
        term = UniPoly.one(f)
        for i, j in enumerate(perm):
            term = term * entry[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("field", [F2, F5, F16])
def test_char_poly_methods_agree(field, rng):
    # Hessenberg reduction against the Leibniz expansion of det(XI - M)
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            M = _random_matrix(field, n, n, rng)
            assert char_poly(M) == _leibniz_char_poly(M)


def test_eigen_diagonal_over_f8():
    F8 = extension_field(2, 3)
    D = FFMatrix.diagonal(F8, [1, 2, 4])
    pairs = eigen_decompose(D)
    assert [lam for lam, _ in pairs] == [1, 2, 4]
    expected = {1: (1, 0, 0), 2: (0, 1, 0), 4: (0, 0, 1)}
    for lam, v in pairs:
        assert v == expected[lam]


def test_eigen_similarity_round_trip(rng):
    for _ in range(10):
        lams = rng.sample(range(F256.order), 5)
        P = random_invertible(F256, 5, rng)
        M = P @ FFMatrix.diagonal(F256, lams) @ inverse(P)
        pairs = eigen_decompose(M)
        assert [lam for lam, _ in pairs] == sorted(lams)
        for lam, v in pairs:
            assert M.mat_vec(v) == tuple(F256.mul(lam, x) for x in v)
            assert next(x for x in v if x) == 1  # normalized
        V = FFMatrix.from_rows(F256, [list(v) for _, v in pairs]).transpose()
        assert V @ FFMatrix.diagonal(F256, [lam for lam, _ in pairs]) @ inverse(V) == M


def test_eigen_spectrum_not_simple():
    M = FFMatrix.from_rows(F2, [[1, 1], [0, 1]])  # char poly (X+1)^2
    with pytest.raises(SpectrumNotSimpleError):
        eigen_decompose(M)
    # missing roots over the field also refused
    F3 = prime_field(3)
    rot = FFMatrix.from_rows(F3, [[0, 1], [2, 0]])  # X^2 + 1, no roots in F_3
    with pytest.raises(SpectrumNotSimpleError):
        eigen_decompose(rot)


def test_inverse_errors():
    with pytest.raises(SingularMatrixError):
        inverse(FFMatrix.zeros(F2, 2, 2))
    with pytest.raises(ValueError):
        inverse(FFMatrix.zeros(F2, 2, 3))


def test_f2k_matrix_ops_make_no_element_products(monkeypatch, rng):
    """Over F_{2^k} rref, inverse, @ and mat_vec work on packed rows:
    no ExtField.mul call, and at most one inv per pivot."""
    F = extension_field(2, 120)
    M = _random_matrix(F, 8, 21, rng)
    A = random_invertible(F, 8, rng)
    v = [F.random_element(rng) for _ in range(21)]
    calls = {"mul": 0, "inv": 0}

    def counted(name):
        method = getattr(ExtField, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(ExtField, "mul", counted("mul"))
    monkeypatch.setattr(ExtField, "inv", counted("inv"))
    _, rk, _ = rref(M)
    assert calls["mul"] == 0 and calls["inv"] <= rk
    inverse(A)
    A @ M
    M.mat_vec(v)
    assert calls["mul"] == 0 and calls["inv"] <= rk + 8


def test_fp_matrix_ops_make_no_per_entry_field_calls(monkeypatch, rng):
    """Over F_5 rref, inverse, @ and mat_vec work on packed rows: no
    PrimeField.mul, sub or add call, and at most one inv per pivot."""
    M = _random_matrix(F5, 8, 21, rng)
    A = random_invertible(F5, 8, rng)
    v = [F5.random_element(rng) for _ in range(21)]
    calls = {"mul": 0, "sub": 0, "add": 0, "inv": 0}

    def counted(name):
        method = getattr(PrimeField, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(PrimeField, name, counted(name))
    _, rk, _ = rref(M)
    assert calls["inv"] <= rk
    inverse(A)
    A @ M
    M.mat_vec(v)
    assert calls["mul"] == calls["sub"] == calls["add"] == 0 and calls["inv"] <= rk + 8


@pytest.mark.parametrize("field", [F2, F5, F16])
def test_column_index_past_the_end_raises(field):
    # bit-packed F_2 rows used to read any column past the end as 0, and
    # to raise ValueError for a negative one
    M = FFMatrix.identity(field, 2)
    for j in (M.ncols, M.ncols + 3, -M.ncols - 1):
        with pytest.raises(IndexError):
            M.at(0, j)
        with pytest.raises(IndexError):
            M.submatrix([0, 1], [0, j])
    # j = -1 is the last column, as for a tuple
    assert (M.at(0, -1), M.at(1, -1)) == (0, 1)
    assert M.submatrix([0, 1], [0, -1]) == M


def test_f2k_mat_vec_rejects_entries_outside_the_field():
    M = FFMatrix.identity(F16, 2)
    for bad in (16, -1):
        with pytest.raises(ValueError):
            M.mat_vec([1, bad])
