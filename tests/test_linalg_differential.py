"""rref, inverse, nullspace_basis, @ and mat_vec on packed rows against
the schoolbook reference in helpers, which makes one field call per entry;
the layouts' axpy against y + c x entry by entry.

The fields cover every row layout of linalg.slot_layout: byte slots over
F_3, F_5 and F_7 (at any rank), 2-byte slots over F_13, 8-byte slots over
F_{2^31 - 1}, 16-byte slots (no machine word) over F_{2^61 - 1},
entry-by-entry slots over F_{3^2} and carry-less 2k-bit slots over
F_{2^8}; rref and the round trip add F_2's bit rows.  Over
the extension fields, whose reference arithmetic is slow, large shapes
get low rank.  left_kernel runs over F_2, F_3, F_5 and F_4 against the
rows of the rref of [G | I] that are zero on G."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (schoolbook_dot, schoolbook_inverse, schoolbook_matmul,
                     schoolbook_nullspace, schoolbook_rref)
from rmsyndrome.fields import extension_field, prime_field
from rmsyndrome.linalg import (FFMatrix, SingularMatrixError, inverse, left_kernel,
                               nullspace_basis, rref, slot_layout)

FIELDS = [prime_field(3), prime_field(5), prime_field(7), prime_field(13),
          extension_field(3, 2), extension_field(2, 8), prime_field(2 ** 31 - 1),
          prime_field(2 ** 61 - 1)]
ROWS = (0, 1, 2, 3, 5, 8, 13, 36, 62, 63, 91)
COLS = (0, 1, 2, 4, 7, 12, 36, 62, 91, 120)

fields = st.sampled_from(FIELDS)


def _is_prime(F) -> bool:
    return F.order == F.char


def _rows(F, data, n=None, ncols=None):
    """A random n x ncols matrix as lists: r base rows, of which the other
    rows are zero, scalar multiples or sums, over a few zero columns.  Base
    entries are sparse, dense, or mostly the largest element p - 1, which
    fills the slots fastest."""
    n = data.draw(st.sampled_from(ROWS)) if n is None else n
    ncols = data.draw(st.sampled_from(COLS)) if ncols is None else ncols
    top = min(n, ncols)
    if not _is_prime(F) and n * ncols > 400:
        top = min(top, 6)
    r = data.draw(st.integers(0, top))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    density = data.draw(st.sampled_from([0.15, 0.5, 1.0]))
    largest = data.draw(st.booleans())
    zero_cols = set(rng.sample(range(ncols), rng.randrange(ncols // 4 + 1)))

    def entry(j):
        if j in zero_cols or rng.random() >= density:
            return 0
        return F.order - 1 if largest and rng.random() < 0.8 else F.random_element(rng)

    base = [[entry(j) for j in range(ncols)] for _ in range(r)]
    rows = list(base)
    while len(rows) < n:
        kind = rng.random()
        if kind < 0.2 or not base:
            rows.append([0] * ncols)
        elif kind < 0.6:
            c = rng.randrange(1, F.order)
            rows.append([F.mul(c, x) for x in rng.choice(base)])
        else:
            rows.append([F.add(x, y) for x, y in zip(rng.choice(base), rng.choice(base))])
    rng.shuffle(rows)
    return rows, ncols


def _matrix(F, rows, ncols):
    return FFMatrix.from_rows(F, rows) if rows else FFMatrix.zeros(F, 0, ncols)


@settings(max_examples=100)
@given(st.sampled_from(FIELDS + [prime_field(2)]), st.data())
def test_rref_matches_schoolbook(F, data):
    rows, ncols = _rows(F, data)
    R, rk, pivots = rref(_matrix(F, rows, ncols))
    assert (R.rows(), rk, pivots) == schoolbook_rref(F, rows, ncols)


@settings(max_examples=80)
@given(st.integers(1, 13), st.sampled_from([0, 1, 7, 13, 52, 91]), st.data())
def test_f2_rref_of_rank_deficient_rows_beside_the_identity(t, n, data):
    # [G | I], t x (n + t), with rank(G) < t: the matrix polyspace's
    # restriction reduces, whose rows zero on G span G's left nullspace
    F2, rng = prime_field(2), random.Random(data.draw(st.integers(0, 2 ** 32)))
    base = [[rng.randrange(2) for _ in range(n)] for _ in range(rng.randrange(t))]
    rows = []
    for i in range(t):
        g = [0] * n
        for b in base:
            if rng.randrange(2):
                g = [x ^ y for x, y in zip(g, b)]
        rows.append(g + [int(i == j) for j in range(t)])
    R, rk, pivots = rref(_matrix(F2, rows, n + t))
    assert (R.rows(), rk, pivots) == schoolbook_rref(F2, rows, n + t)
    assert rk == t and sum(p < n for p in pivots) < t


@settings(max_examples=60)
@given(st.sampled_from([(2, 1), (13, 4), (36, 12), (63, 7), (91, 62)]), st.data())
def test_f2_rref_of_more_rows_than_columns(shape, data):
    F2 = prime_field(2)
    rows, ncols = _rows(F2, data, *shape)
    R, rk, pivots = rref(_matrix(F2, rows, ncols))
    assert (R.rows(), rk, pivots) == schoolbook_rref(F2, rows, ncols)
    assert R.rows()[rk:] == [(0,) * ncols] * (len(rows) - rk)


@settings(max_examples=60)
@given(fields, st.data())
def test_nullspace_matches_schoolbook(F, data):
    rows, ncols = _rows(F, data)
    assert nullspace_basis(_matrix(F, rows, ncols)).rows() == schoolbook_nullspace(F, rows, ncols)


@settings(max_examples=60)
@given(fields, st.data())
def test_inverse_matches_schoolbook(F, data):
    n = data.draw(st.sampled_from([k for k in ROWS if _is_prime(F) or k <= 36]))
    if data.draw(st.booleans()):  # usually invertible
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        rows = [[F.random_element(rng) for _ in range(n)] for _ in range(n)]
    else:  # usually singular
        rows, _ = _rows(F, data, n, n)
    expect = schoolbook_inverse(F, rows)
    if expect is None:
        with pytest.raises(SingularMatrixError):
            inverse(_matrix(F, rows, n))
    else:
        assert inverse(_matrix(F, rows, n)).rows() == expect


@settings(max_examples=60)
@given(fields, st.data())
def test_matmul_and_mat_vec_match_schoolbook(F, data):
    arows, inner = _rows(F, data)
    ncols = data.draw(st.sampled_from(COLS if _is_prime(F) else COLS[:6]))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    brows = [[F.random_element(rng) if rng.random() < 0.7 else 0 for _ in range(ncols)]
             for _ in range(inner)]
    A, B = _matrix(F, arows, inner), _matrix(F, brows, ncols)
    assert (A @ B).rows() == schoolbook_matmul(F, arows, brows, ncols)
    v = [F.random_element(rng) for _ in range(inner)]
    assert A.mat_vec(v) == tuple(schoolbook_dot(F, r, v) for r in arows)


@settings(max_examples=80)
@given(st.sampled_from(FIELDS + [prime_field(2)]), st.data())
def test_packed_rows_round_trip_and_match_tuple_rows(F, data):
    # every field stores one packed int per row: it reads back as the
    # rows it was built from, and indexing, slicing, stacking, transposing
    # and adding agree with the same operations on tuple rows
    rows, ncols = _rows(F, data)
    other, _ = _rows(F, data, len(rows), ncols)
    wide, wcols = _rows(F, data, len(rows))
    M, N, W = _matrix(F, rows, ncols), _matrix(F, other, ncols), _matrix(F, wide, wcols)
    layout, rng = slot_layout(F), random.Random(data.draw(st.integers(0, 2 ** 32)))
    assert M.rows() == [tuple(r) for r in rows]
    assert [M.packed_row(i) for i in range(M.nrows)] == [layout.pack(r) for r in rows]
    if rows and ncols:
        i, j = rng.randrange(len(rows)), rng.randrange(-ncols, ncols)
        assert M.at(i, j) == rows[i][j]
        with pytest.raises(IndexError):
            M.at(i, -ncols - 1)
    ri = [rng.randrange(len(rows)) for _ in range(rng.randrange(4))] if rows else []
    ci = [rng.randrange(-ncols, ncols) for _ in range(rng.randrange(6))] if ncols else []
    assert M.submatrix(ri, ci).rows() == [tuple(rows[i][j] for j in ci) for i in ri]
    assert M.hstack(W).rows() == [tuple(a) + tuple(b) for a, b in zip(rows, wide)]
    assert M.vstack(N).rows() == [tuple(r) for r in rows + other]
    assert M.transpose().rows() == [tuple(r[j] for r in rows) for j in range(ncols)]
    assert (M + N).rows() == [tuple(map(F.add, a, b)) for a, b in zip(rows, other)]
    assert (M - N).rows() == [tuple(map(F.sub, a, b)) for a, b in zip(rows, other)]


def test_slot_widths():
    # the width of a slot depends on the field alone; over odd p it is the
    # fewest bytes out of 1, 2, 4, 8, ... whose top bit holds (p - 1)^2
    assert slot_layout(prime_field(2)).bits == 1
    assert all(slot_layout(prime_field(p)).bits == 8 for p in (3, 5, 7, 11))
    assert slot_layout(prime_field(13)).bits == 16
    assert slot_layout(prime_field(2 ** 31 - 1)).bits == 64
    assert slot_layout(prime_field(2 ** 61 - 1)).bits == 128
    assert slot_layout(extension_field(2, 8)).bits == 16
    assert slot_layout(extension_field(3, 2)).bits == 4


@pytest.mark.parametrize("p,n,ncols", [(3, 62, 62), (3, 63, 63), (3, 91, 120), (5, 60, 91),
                                       (2 ** 31 - 1, 20, 30)])
def test_full_rank_rref_matches_schoolbook(p, n, ncols):
    # dense rows, mostly p - 1, so that slots fill fastest; F_3 runs on
    # byte slots at every rank
    F, rng = prime_field(p), random.Random(p * n)
    rows = [[p - 1 if rng.random() < 0.7 else rng.randrange(p) for _ in range(ncols)]
            for _ in range(n)]
    R, rk, pivots = rref(FFMatrix.from_rows(F, rows))
    assert (R.rows(), rk, pivots) == schoolbook_rref(F, rows, ncols)
    assert rk > n - 3


@pytest.mark.parametrize("p,R", [(3, 61), (3, 64), (3, 200), (5, 16), (5, 64), (7, 8),
                                 (7, 40)])
def test_rref_slots_hold_the_worst_case_sums(p, R):
    # rows e_i + (p - 1) e_R for i < R, then a row of R ones: the last row
    # gets c = 1 at every pivot, so its slot R adds R products (p - 1)^2,
    # many bytes' worth, on byte slots that are reduced only when a top
    # bit is set
    assert slot_layout(prime_field(3)).bits == 8
    F = prime_field(p)
    rows = [[int(j == i) for j in range(R)] + [p - 1, 0] for i in range(R)]
    rows.append([1] * R + [0, 0])
    R_, rk, pivots = rref(FFMatrix.from_rows(F, rows))
    assert (R_.rows(), rk, pivots) == schoolbook_rref(F, rows, R + 2)


@settings(max_examples=100)
@given(st.sampled_from(FIELDS + [prime_field(2)]), st.data())
def test_axpy_matches_schoolbook(F, data):
    # y + c x, reduced, on rows that are sparse, dense or mostly p - 1;
    # also the worst case of a prime slot, (p - 1) + (p - 1)^2, in every
    # slot, and c = 0
    layout, rng = slot_layout(F), random.Random(data.draw(st.integers(0, 2 ** 32)))
    (y, x), ncols = _rows(F, data, 2)
    top = [F.order - 1] * ncols
    for y, c, x in [(y, F.random_element(rng), x), (top, F.order - 1, top), (y, 0, x)]:
        expect = [F.add(a, F.mul(c, b)) for a, b in zip(y, x)]
        assert layout.axpy(layout.pack(y), c, layout.pack(x)) == layout.pack(expect)


KERNEL_FIELDS = [prime_field(2), prime_field(3), prime_field(5), extension_field(2, 2)]


def _kernel_rows(F, kind, data):
    """G as lists, t x n: zero, of full row rank, with more rows than
    columns, of rank below t (so [G | I] reduces rows to zero on G), or
    any _rows matrix."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    t = data.draw(st.integers(2 if kind == "tall" else 1, 13))
    n = data.draw(st.integers(0, t - 1) if kind == "tall" else st.sampled_from([0, 1, 7, 13, 40]))
    if kind == "zero":
        return [[0] * n for _ in range(t)], n
    if kind == "full":
        n = max(n, t)
        while True:
            G = [[F.random_element(rng) for _ in range(n)] for _ in range(t)]
            if schoolbook_rref(F, G, n)[1] == t:
                return G, n
    if kind == "deficient":
        base = [[F.random_element(rng) for _ in range(n)] for _ in range(rng.randrange(t))]
        G = []
        for _ in range(t):
            g = [0] * n
            for b in base:
                c = F.random_element(rng)
                g = [F.add(x, F.mul(c, y)) for x, y in zip(g, b)]
            G.append(g)
        return G, n
    return _rows(F, data, t, n)


@settings(max_examples=120)
@given(st.sampled_from(KERNEL_FIELDS),
       st.sampled_from(["zero", "full", "tall", "deficient", "any"]), st.data())
def test_left_kernel_matches_the_rref_of_g_beside_the_identity(F, kind, data):
    G, n = _kernel_rows(F, kind, data)
    t, layout = len(G), slot_layout(F)
    alphas = [layout.unpack(a, t) for a in left_kernel(layout, list(map(layout.pack, G)), n)]
    rank_g = schoolbook_rref(F, G, n)[1]
    assert len(alphas) == t - rank_g
    for a in alphas:  # a^T G = 0
        assert all(schoolbook_dot(F, a, [g[j] for g in G]) == 0 for j in range(n))
    assert schoolbook_rref(F, alphas, t)[1] == len(alphas)
    # the reference: the rows of the rref of [G | I] that are zero on G
    tagged = [g + [int(i == j) for j in range(t)] for i, g in enumerate(G)]
    R = schoolbook_rref(F, tagged, n + t)[0]
    reference = [r[n:] for r in R if not any(r[:n])]
    assert schoolbook_rref(F, alphas + reference, t)[1] == len(reference) == len(alphas)
    if F.order > 2:  # the rref's rows themselves
        assert alphas == reference
