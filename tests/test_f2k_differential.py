"""F_{2^k} arithmetic, matrices and polynomials against the schoolbook
reference in helpers: bitwise carry-less products and long division by
the modulus, entry by entry."""

import random
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from helpers import (ref_inv, ref_matmul, ref_mul, ref_poly_divmod,
                     ref_poly_mul, ref_pow, ref_rref)
from rmsyndrome.fields import (ExtField, UniPoly, berlekamp_roots,
                               extension_field, poly_divmod, poly_gcd,
                               prime_field)
from rmsyndrome.linalg import FFMatrix, SingularMatrixError, inverse, rref

# k = 2, 3, 4 and 121 take trinomials X^k + X^j + 1 (j = 1, 1, 1, 18);
# 8, 13, 24, 64 and 120 the pentanomial X^k + X^4 + X^3 + X + 1; k = 1 is
# F_2 itself (bit-packed matrices); the last field's modulus
# X^8 + X^7 + X^6 + X^5 + X^4 + X^3 + 1 has a low part of degree k - 1, so
# one reduction takes several folds.
FIELDS = [extension_field(2, k) for k in (1, 2, 3, 4, 8, 13, 24, 64, 120, 121)]
FIELDS.append(ExtField(prime_field(2), 8,
                       UniPoly(prime_field(2), [1, 0, 0, 1, 1, 1, 1, 1, 1])))

fields = st.sampled_from(FIELDS)


def _element(F, nonzero=False):
    return st.integers(1 if nonzero else 0, F.order - 1)


def _matrix(F, data, n=None, ncols=None):
    """A random matrix, up to 9 x 21 unless the shape is given, with some
    zero rows, zero columns and rows that are multiples of earlier ones,
    as (FFMatrix, rows, ncols)."""
    if n is None:
        n = data.draw(st.sampled_from(range(1, 10)))
    if ncols is None:
        ncols = data.draw(st.sampled_from(range(1, 22)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    density = data.draw(st.sampled_from([0.15, 0.5, 1.0]))
    zero_cols = set(rng.sample(range(ncols), rng.randrange(ncols // 2 + 1)))
    rows = []
    for i in range(n):
        kind = rng.random()
        if kind < 0.15:
            row = [0] * ncols
        elif kind < 0.3 and rows:
            c = F.random_element(rng)
            row = [ref_mul(F, c, x) for x in rng.choice(rows)]
        else:
            row = [F.random_element(rng) if j not in zero_cols and rng.random() < density
                   else 0 for j in range(ncols)]
        rows.append(row)
    return FFMatrix.from_rows(F, rows), rows, ncols


@given(fields, st.data())
def test_element_ops_match_reference(F, data):
    a = data.draw(_element(F))
    b = data.draw(_element(F))
    assert F.mul(a, b) == ref_mul(F, a, b)
    assert F.square(a) == ref_mul(F, a, a)
    e = data.draw(st.integers(-3 * F.order, 3 * F.order))
    if a:
        assert F.inv(a) == ref_inv(F, a)
        assert ref_mul(F, a, F.inv(a)) == 1
        assert F.pow(a, e) == ref_pow(F, a, e)
    else:
        assert F.pow(a, abs(e)) == ref_pow(F, a, abs(e))


@given(fields, st.data())
def test_rref_matches_reference(F, data):
    M, rows, ncols = _matrix(F, data)
    R, rk, pivots = rref(M)
    ref_rows, ref_rk, ref_pivots = ref_rref(F, rows, ncols)
    assert (rk, pivots) == (ref_rk, ref_pivots)
    assert R.to_lists() == ref_rows


@given(fields, st.data())
def test_inverse_matches_reference(F, data):
    n = data.draw(st.sampled_from(range(1, 10)))
    M, rows, _ = _matrix(F, data, n, n)
    aug = [r + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    ref_aug, _, pivots = ref_rref(F, aug, 2 * n)
    if pivots[:n] == tuple(range(n)):
        assert inverse(M).to_lists() == [r[n:] for r in ref_aug]
    else:
        with pytest.raises(SingularMatrixError):
            inverse(M)


@given(fields, st.data())
def test_matmul_and_mat_vec_match_reference(F, data):
    A, arows, inner = _matrix(F, data)
    n = data.draw(st.sampled_from(range(1, 22)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    brows = [[F.random_element(rng) if rng.random() < 0.7 else 0 for _ in range(n)]
             for _ in range(inner)]
    B = FFMatrix.from_rows(F, brows)
    assert (A @ B).to_lists() == ref_matmul(F, arows, brows, n)
    v = [F.random_element(rng) if rng.random() < 0.7 else 0 for _ in range(inner)]
    expect = tuple(reduce(int.__xor__, map(ref_mul, [F] * inner, r, v), 0) for r in arows)
    assert A.mat_vec(v) == expect


def test_empty_shapes():
    F = extension_field(2, 120)
    for n, ncols in ((0, 0), (0, 5), (3, 0)):
        M = FFMatrix.zeros(F, n, ncols)
        R, rk, pivots = rref(M)
        assert (R, rk, pivots) == (M, 0, ())
        assert M.mat_vec([0] * ncols) == (0,) * n
        assert (M @ FFMatrix.zeros(F, ncols, 4)) == FFMatrix.zeros(F, n, 4)
        assert (FFMatrix.zeros(F, 4, n) @ M) == FFMatrix.zeros(F, 4, ncols)
    assert inverse(FFMatrix.zeros(F, 0, 0)) == FFMatrix.zeros(F, 0, 0)


def _poly(F, rng, degree):
    """Coefficients of a random polynomial of exactly this degree."""
    return [F.random_element(rng) for _ in range(degree)] + [1 + rng.randrange(F.order - 1)]


@given(fields, st.data())
def test_poly_divmod_and_gcd_match_reference(F, data):
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    b = _poly(F, rng, data.draw(st.integers(0, 6)))
    a = _poly(F, rng, data.draw(st.integers(0, 12))) if data.draw(st.booleans()) else []
    assert poly_divmod(a, b, F) == ref_poly_divmod(F, a, b)
    # a common factor, so that the gcd is not always 1
    common = _poly(F, rng, data.draw(st.integers(0, 3)))
    x, y = ref_poly_mul(F, a, common), ref_poly_mul(F, b, common)
    g = x
    r = y
    while r:
        g, r = r, ref_poly_divmod(F, g, r)[1]
    if g:
        lead_inv = ref_inv(F, g[-1])
        g = [ref_mul(F, lead_inv, c) for c in g]
    assert poly_gcd(x, y, F) == g


@given(fields, st.data())
def test_berlekamp_roots_match_reference(F, data):
    """Planted roots with multiplicities; over fields of at most 2^8
    elements times a random cofactor, and the roots are then found by
    dividing by X - r for every element r."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    planted = {}
    while len(planted) < min(data.draw(st.integers(1, 4)), F.order):
        planted[F.random_element(rng)] = rng.randint(1, 2)
    f = [1]
    for r, mult in planted.items():
        for _ in range(mult):
            f = ref_poly_mul(F, f, [r, 1])
    if F.order > 256:
        assert berlekamp_roots(UniPoly(F, f)) == planted
        return
    f = ref_poly_mul(F, f, _poly(F, rng, data.draw(st.integers(0, 3))))
    expect = {}
    for r in range(F.order):
        h = f
        while not ref_poly_divmod(F, h, [r, 1])[1]:
            h = ref_poly_divmod(F, h, [r, 1])[0]
            expect[r] = expect.get(r, 0) + 1
    assert berlekamp_roots(UniPoly(F, f)) == expect
