"""Checks that only the tests use: oracles for conditions the library
decoders establish (or retry on) without computing them directly, and
reference versions of library kernels for differential tests."""

from functools import reduce
from itertools import combinations
from math import prod

from rmsyndrome.code import (DecodingFailure, ErrorSet, Syndrome,
                             moment_matrix, syndrome_from_errors,
                             tensor_power, tensor_power_matrix)
from rmsyndrome.jennrich import (_NOT_COMMON, _NOT_ONE_DIMENSIONAL,
                                 _check_leaf_count, _start_vector)
from rmsyndrome.fields import prime_field
from rmsyndrome.linalg import FFMatrix, nullspace_basis, rank, solve
from rmsyndrome.polynomials import (MultilinearPoly, PolySpace, _affine_map,
                                    monomial_index, point_to_int,
                                    reduce_exponent, substitution_matrix)


def check_flattening_conditions(F, a, b, E: ErrorSet) -> bool:
    """Do the weights separate the error set?  True iff the 2t values
    <a, e^{<=1}>, <b, e^{<=1}> are nonzero and pairwise distinct and the
    ratios a_i / b_i are pairwise distinct."""
    avals, bvals = _weight_values(F, a, b, E)
    t = len(avals)
    allv = avals + bvals
    if any(v == 0 for v in allv) or len(set(allv)) < 2 * t:
        return False
    ratios = {F.mul(ai, F.inv(bi)) for ai, bi in zip(avals, bvals)}
    return len(ratios) == t


def _weight_values(F, a, b, E: ErrorSet):
    p = E.params.p
    avals, bvals = [], []
    for e in E.points:
        x = tensor_power(e, 1, p)
        if p == 2:
            av = bv = 0
            for k, bit in enumerate(x):
                if bit:
                    av ^= a[k]
                    bv ^= b[k]
        else:
            av = bv = 0
            for k, c in enumerate(x):
                if c:
                    av = F.add(av, F.mul(c, a[k]))
                    bv = F.add(bv, F.mul(c, b[k]))
        avals.append(av)
        bvals.append(bv)
    return avals, bvals


def affine_substitute(P: MultilinearPoly, mat, b) -> MultilinearPoly:
    """reduce(P(Ay + b)) in k variables, for an m x k matrix A (rows as
    sequences) of full column rank: P's packed coefficients times the
    substitution matrix, one product in its packed row layout."""
    idx = P.index
    mat_rows, target = _affine_map(idx, mat, b)
    S = substitution_matrix(idx, mat_rows, tuple(b))
    layout = S.layout
    return MultilinearPoly.from_packed(
        target, layout.dot(layout.vectors(S.packed_rows()), P.packed()))


def unique_root(V: PolySpace) -> tuple | None:
    """If for every variable exactly one of X_j - a (a in F_p) lies in V,
    the point read off those constants; otherwise None.  The reference
    for the codim-1 read-off of polyspace, which reads the same point off
    V's annihilator when V has codimension 1."""
    idx = V.index
    p = idx.p
    point = []
    for j in range(idx.m):
        var = [0] * idx.size
        var[idx.position[p ** j]] = 1
        hits = [a for a in range(p)
                if V.contains(MultilinearPoly(idx, [-a % p] + var[1:]))]
        if len(hits) != 1:
            return None
        point.append(hits[0])
    return tuple(point)


def subspace_parametrization(vecs, consts, p: int):
    """(x0, N^T) with x -> x0 + N^T y a bijection from F_p^k onto
    {x : C x = c}, C with the given l independent rows, both read off one
    nullspace of [C | -c]: its row for the last column is (x0, 1), and its
    other rows are (n, 0) with the n a basis of the nullspace of C."""
    f = prime_field(p)
    m = len(vecs[0])
    ns = nullspace_basis(FFMatrix.from_rows(
        f, [tuple(v) + (f.neg(c),) for v, c in zip(vecs, consts)]))
    # C has rank l, so the last column is free and its row is (x0, 1)
    x0 = ns.row(ns.nrows - 1)[:m]
    return x0, ns.submatrix(range(ns.nrows - 1), range(m)).transpose()


def check_ur_preserved(E: ErrorSet, M, b) -> bool:
    """Does the invertible affine map x -> Mx + b preserve the rank of
    the tensor-power matrix of E (at the decoder's order r)?"""
    params = E.params
    f = params.field
    Mm = M if isinstance(M, FFMatrix) else FFMatrix.from_rows(f, M)
    if Mm.nrows != Mm.ncols or rank(Mm) != Mm.nrows:
        raise ValueError("affine map must be invertible")
    mapped = [tuple(f.add(x, bb) for x, bb in zip(Mm.mat_vec(e), b))
              for e in E.points]
    before = rank(tensor_power_matrix(E.points, params.r, params.p, params.m))
    after = rank(tensor_power_matrix(mapped, params.r, params.p, params.m))
    return before == after


def direct_tensor_power(point, t: int, p: int = 2) -> tuple[int, ...]:
    """The degree <= t tensor power of a point from the definition: the
    entry of x^a is prod(pow(e_v, a_v, p)).  The reference for the walk
    down the monomial index (MonomialIndex.values) and its readers."""
    return tuple(prod(map(pow, point, mono, [p] * len(point))) % p
                 for mono in monomial_index(len(point), t, p).monomials)


def reference_monomials(m: int, t: int, p: int = 2) -> list[tuple[int, ...]]:
    """The exponent tuples of the reduced monomials of degree <= t, listed
    graded by degree and in descending lex order within a degree (over
    F_2, the supports in combinations order): the reference for the
    order and the keys of polynomials.MonomialIndex."""
    out = [(0,) * m]
    for d in range(1, min(t, m * (p - 1)) + 1):
        if p == 2:
            out.extend(tuple(int(v in supp) for v in range(m))
                       for supp in combinations(range(m), d))
            continue

        def gen(prefix, remaining):
            if len(prefix) == m:
                if remaining == 0:
                    out.append(tuple(prefix))
                return
            for e in range(min(p - 1, remaining), -1, -1):
                if remaining - e <= (m - len(prefix) - 1) * (p - 1):
                    gen(prefix + [e], remaining - e)

        gen([], d)
    return out


def reference_pair_positions(m: int, row_deg: int, col_deg: int,
                             p: int = 2) -> tuple[tuple[int, ...], ...]:
    """Entry (i, j) is the position of reduce(M_i * M_j) in
    monomial_index(m, row_deg + col_deg, p), for M_i of degree <= row_deg
    and M_j of degree <= col_deg, from added and reduced exponent tuples
    over every p: the reference for polynomials.moment_positions."""
    rows = monomial_index(m, row_deg, p)
    cols = monomial_index(m, col_deg, p)
    position = monomial_index(m, row_deg + col_deg, p).position
    return tuple(
        tuple(position[point_to_int([reduce_exponent(a + b, p) for a, b in zip(ei, ej)], p)]
              for ej in cols.monomials)
        for ei in rows.monomials)


def full_system_magnitudes(S: Syndrome, E: ErrorSet) -> tuple | None:
    """The weights w_e with sum_e w_e * e^{<= 2r+1} = S from the whole
    |M_{2r+1}| x t system: the reference for solve_error_magnitudes,
    which solves a t x t minor instead."""
    params = S.params
    A = tensor_power_matrix(E.points, 2 * params.r + 1, params.p,
                            params.m).transpose()
    return solve(A, S.entries)


def full_system_explains(S: Syndrome, E: ErrorSet) -> bool:
    """explains by the full system: over F_2 E's syndrome is S, over odd
    p the full-system magnitudes exist and are all nonzero."""
    if S.params.p == 2:
        return syndrome_from_errors(E).entries == tuple(S.entries)
    mags = full_system_magnitudes(S, E)
    return mags is not None and all(mags)


def reference_axis_points(S: Syndrome, T0: FFMatrix, K, B: FFMatrix) -> list[tuple]:
    """The axis split on tuple vectors over any prime field: forms each
    M_v = T_v[K,K] B and splits by its eigenspace idempotents.  The
    reference for jennrich._axis_points, with the same points in the same
    order and the same failure messages."""
    f = S.params.field
    t = len(K)
    mats = [moment_matrix(S, K, K, v) @ B for v in range(1, S.params.m + 1)]
    leaves = [_start_vector(T0, K)]
    for M in mats:
        if len(leaves) == t:
            break
        leaves = [y for x in leaves for y in _eigen_split(M, x, f)]
        _check_leaf_count(len(leaves), t)
    if len(leaves) < t:
        raise DecodingFailure(_NOT_ONE_DIMENSIONAL)
    stacked = reduce(FFMatrix.vstack, mats)
    return [_eigenvalues(stacked, y, f) for y in leaves]


def _eigen_split(M: FFMatrix, y: tuple, f) -> list[tuple]:
    """The nonzero components P_c y, c in F_p, of y, where
    P_c = I - (M - cI)^{p-1}; they always sum to y, and for M
    diagonalizable over F_p they are y's components in its eigenspaces.
    Uses (M - cI)^{p-1} = sum_k c^{p-1-k} M^k, since binom(p-1, k) is
    (-1)^k mod p."""
    p = f.p
    powers = [y]
    for _ in range(p - 1):
        powers.append(M.mat_vec(powers[-1]))
    out = []
    for c in range(p):
        z = y
        for k, w in enumerate(powers):
            coef = pow(c, p - 1 - k, p)
            if coef:
                z = tuple(f.sub(a, f.mul(coef, b)) for a, b in zip(z, w))
        if any(z):
            out.append(z)
    return out


def _eigenvalues(stacked: FFMatrix, y: tuple, f) -> tuple[int, ...]:
    """The c_v with M_v y = c_v y for the square blocks M_v stacked in
    rows; raises DecodingFailure if y is not an eigenvector of each."""
    t = len(y)
    My = stacked.mat_vec(y)
    i = next(i for i, a in enumerate(y) if a)
    yi_inv = f.inv(y[i])
    out = []
    for start in range(0, len(My), t):
        c = f.mul(My[start + i], yi_inv)
        if My[start:start + t] != tuple(f.mul(c, a) for a in y):
            raise DecodingFailure(_NOT_COMMON)
        out.append(c)
    return tuple(out)


# Schoolbook F_{2^k} arithmetic, one bit at a time: the reference for the
# packed carry-less kernels (ExtField._clmul, ExtField._fold) and for the
# matrix and polynomial code built on them.

def ref_modulus(F) -> int:
    return sum(c << i for i, c in enumerate(F.modulus.coeffs))


def ref_clmul(a: int, b: int) -> int:
    out = 0
    i = 0
    while b:
        if b & 1:
            out ^= a << i
        b >>= 1
        i += 1
    return out


def ref_divmod2(a: int, b: int) -> tuple[int, int]:
    """Long division of a by b in F_2[X], polynomials as ints."""
    db = b.bit_length() - 1
    q = 0
    for i in range(a.bit_length() - 1, db - 1, -1):
        if a >> i & 1:
            a ^= b << (i - db)
            q |= 1 << (i - db)
    return q, a


def ref_mul(F, a: int, b: int) -> int:
    return ref_divmod2(ref_clmul(a, b), ref_modulus(F))[1]


def ref_inv(F, a: int) -> int:
    """Extended Euclid by long division: s a = r mod the modulus."""
    r0, r1, s0, s1 = ref_modulus(F), a, 0, 1
    while r1:
        q, r = ref_divmod2(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, s0 ^ ref_clmul(q, s1)
    assert r0 == 1
    return ref_divmod2(s0, ref_modulus(F))[1]


def ref_pow(F, a: int, e: int) -> int:
    if e < 0:
        a, e = ref_inv(F, a), -e
    out = 1
    for bit in bin(e)[2:]:
        out = ref_mul(F, out, out)
        if bit == "1":
            out = ref_mul(F, out, a)
    return out


def ref_rref(F, rows, ncols):
    """Gauss-Jordan with linalg.rref's pivot rule, entry by entry:
    (reduced rows, rank, pivot columns)."""
    R = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((i for i in range(top, len(R)) if R[i][col]), None)
        if piv is None:
            continue
        R[top], R[piv] = R[piv], R[top]
        inv = ref_inv(F, R[top][col])
        R[top] = [ref_mul(F, inv, x) for x in R[top]]
        for i, row in enumerate(R):
            c = row[col]
            if i != top and c:
                R[i] = [x ^ ref_mul(F, c, y) for x, y in zip(row, R[top])]
        pivots.append(col)
    return R, len(pivots), tuple(pivots)


def ref_matmul(F, A, B, ncols):
    return [[reduce(int.__xor__, (ref_mul(F, a, row[j]) for a, row in zip(ra, B)), 0)
             for j in range(ncols)] for ra in A]


def ref_poly_divmod(F, a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of coefficient lists (lowest first, b's
    leading coefficient nonzero), both trimmed."""
    rem = list(a)
    db = len(b) - 1
    lead_inv = ref_inv(F, b[-1])
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        if rem[i]:
            q = quo[i - db] = ref_mul(F, rem[i], lead_inv)
            for j, y in enumerate(b):
                rem[i - db + j] ^= ref_mul(F, q, y)
    return _trimmed(quo), _trimmed(rem[:db])


def ref_poly_mul(F, a: list, b: list) -> list:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= ref_mul(F, x, y)
    return _trimmed(out)


def _trimmed(v: list) -> list:
    while v and not v[-1]:
        v.pop()
    return v


# Schoolbook linear algebra over any field, one field call per entry: the
# reference for linalg's packed row layouts.

def schoolbook_rref(f, rows, ncols):
    """Gauss-Jordan with linalg.rref's pivot rule, entry by entry through
    the field's mul, sub and inv (the loop rref ran on tuple rows before
    rows were packed): (reduced rows as tuples, rank, pivot columns)."""
    mul, sub, inv = f.mul, f.sub, f.inv
    rows = [list(r) for r in rows]
    n = len(rows)
    pivots = []
    prow = 0
    for col in range(ncols):
        piv = next((i for i in range(prow, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[prow], rows[piv] = rows[piv], rows[prow]
        pr = rows[prow]
        pinv = inv(pr[col])
        if pinv != 1:
            for j in range(col, ncols):
                if pr[j]:
                    pr[j] = mul(pr[j], pinv)
        for i in range(n):
            if i != prow:
                c = rows[i][col]
                if c:
                    ri = rows[i]
                    for j in range(col, ncols):
                        if pr[j]:
                            ri[j] = sub(ri[j], mul(c, pr[j]))
        pivots.append(col)
        prow += 1
        if prow == n:
            break
    return [tuple(r) for r in rows], len(pivots), tuple(pivots)


def schoolbook_nullspace(f, rows, ncols):
    """linalg.nullspace_basis's rows, read off schoolbook_rref."""
    R, _, pivots = schoolbook_rref(f, rows, ncols)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[j] = 1
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(R[r][j])
        basis.append(tuple(v))
    return basis


def schoolbook_inverse(f, rows):
    """The inverse's rows, or None for a singular matrix."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    R, _, pivots = schoolbook_rref(f, aug, 2 * n)
    return [r[n:] for r in R] if pivots[:n] == tuple(range(n)) else None


def schoolbook_dot(f, a, b) -> int:
    return reduce(f.add, map(f.mul, a, b), 0)


def schoolbook_matmul(f, A, B, ncols):
    cols = [[row[j] for row in B] for j in range(ncols)]
    return [tuple(schoolbook_dot(f, ra, col) for col in cols) for ra in A]
