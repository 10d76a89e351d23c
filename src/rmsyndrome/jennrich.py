"""Tensor-decomposition syndrome decoder (finite-field Jennrich method).

The syndrome is reshaped into the 3-tensor with entries
T[i, j, k] = sum_e M_i(e) M_j(e) M''_k(e) over the error set, where M_i,
M_j range over monomials of degree <= r and M''_k over degree <= 1.  Two
random (or derandomized) weightings of the degree-1 axis flatten T into
matrices S^a, S^b over an extension field.  Every slice T_k is symmetric,
a moment (Hankel) matrix of the weighted error points, so the pivot
columns K of one rref of the constant slice T_0 index a row basis as well
as a column basis and T_0[K,K] is invertible (_constant_slice, the front
half both decoders share).  On that minor, M = S^a[K,K] (S^b[K,K])^{-1}
has the tensor-power columns as eigenvectors.  The decoder never computes
an eigenvalue: one rref of the Krylov columns of y = T_0[K, 0] against the
coordinate columns T_0[K, x_v] gives the characteristic polynomial chi of
M and polynomials g_v with g_v(lambda_e) = e_v (a rational univariate
representation), and splitting chi by gcd(h, g_v - c), c in F_p, one
variable at a time leaves one linear factor per error point.

Failure modes (repeated eigenvalues, a singular minor, coordinates that
do not lie in the base field) trigger a resample in randomized mode and
are reported as decoding failures in derandomized mode.

axis_decompose, the library's default decoder, takes the weightings to be
the constant slice and each coordinate axis in turn.  The quotients
M_v = T_v[K,K] T_0[K,K]^{-1} then stay over F_p and commute, and their
eigenvalues are the v-th coordinates of the error points, so splitting one
vector by the eigenspace idempotents 1 - (M_v - c)^{p-1} separates the
points with no extension field, characteristic polynomial or eigenvector
solve.  This is the eigenvalue method for zero-dimensional systems
(Moeller & Stetter 1995), i.e. solution extraction from moment matrices
(Henrion & Lasserre 2005).  It builds only T_0 in full and reads the
other slices off the syndrome at [K, K] alone.  Over F_2 no M_v is formed:
vectors are t-bit ints, the stacked minor [T_1; ...; T_m][K, K] is one
int per column, and one product with it, after z = T_0[K,K]^{-1} y, gives
M_v y for every v at once, so each split costs one product per new leaf.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter

from .code import DecodingFailure, ErrorSet, Syndrome, explains
from .fields import (UniPoly, _c2_divmod, _c2_gcd, extension_field,
                     find_primitive_element)
# rank is not called here; perfbench's tracer rebinds every module's
# binding of it, and its self-test expects one in this module.
from .linalg import (FFMatrix, SingularMatrixError, inverse,  # noqa: F401
                     rank, rref, xor_picked)
from .polynomials import pair_positions


# Flattening draws in randomized mode before decompose gives up.
MAX_DRAWS = 16


class _RetryableFailure(Exception):
    """Internal: the drawn flattening vectors were unlucky."""


def tensor_from_syndrome(S: Syndrome) -> tuple[FFMatrix, ...]:
    """The syndrome reshaped into the 3-tensor, as its m+1 slices along
    the degree-1 axis: the entry (M_i, M_j) of slice k is the syndrome
    entry of reduce(M_i M_j M''_k)."""
    return tuple(_slice_minor(S, k) for k in range(S.params.m + 1))


def _constant_slice(S: Syndrome) -> tuple[FFMatrix, tuple[int, ...]]:
    """T_0 in full and K, the pivot columns of one rref of T_0: the
    front half both tensor decoders share.

    T_0 is symmetric (a moment matrix), so K indexes a column basis and,
    by symmetry, a row basis, and T_0[K, K] is invertible: with
    T_0 = T_0[:, K] X, the rows T_0[K, :] = T_0[K, K] X are the transpose
    of the independent columns T_0[:, K], so they have rank t = |K|.
    Raises DecodingFailure for a zero T_0 of a nonzero syndrome."""
    T0 = _slice_minor(S, 0)
    K = rref(T0)[2]
    if not K and not S.is_zero():
        raise DecodingFailure("zero constant slice of a nonzero syndrome")
    return T0, K


def _slice_minor(S: Syndrome, k: int, rows=None, cols=None) -> FFMatrix:
    """Slice k of the tensor, or its minor at (rows, cols), read straight
    off the syndrome: T_0 for k = 0, else T_k along the variable x_k."""
    params = S.params
    pairpos = pair_positions(params.m, params.r, params.r, params.p)
    rows = range(len(pairpos)) if rows is None else rows
    cols = range(len(pairpos)) if cols is None else cols
    e = S.entries
    pos = map(pairpos.__getitem__, rows)
    if k:
        vmap = params.syndrome_index.var_mul(k - 1)
        return FFMatrix.from_rows(params.field,
                                  [[e[vmap[row[j]]] for j in cols] for row in pos])
    return FFMatrix.from_rows(params.field, [[e[row[j]] for j in cols] for row in pos])


def _flatten(slices, F, weights) -> FFMatrix:
    """The flattening sum_k weights[k] slices[k] over the field F."""
    s = slices[0].nrows
    p = F.p
    rows = [[0] * s for _ in range(s)]
    if p == 2:
        for w, sl in zip(weights, slices):
            if not w:
                continue
            for i in range(s):
                rk = sl.packed_row(i)
                row = rows[i]
                while rk:
                    lsb = rk & -rk
                    row[lsb.bit_length() - 1] ^= w
                    rk ^= lsb
    else:
        add, mul = F.add, F.mul
        for w, sl in zip(weights, slices):
            if not w:
                continue
            for i in range(s):
                srow = sl._rows[i]
                row = rows[i]
                for j in range(s):
                    c = srow[j]
                    if c:
                        row[j] = add(row[j], mul(w, c))
    return FFMatrix.from_rows(F, rows)


def derandomized_flattening_vectors(F, alpha: int, m: int) -> tuple[tuple, tuple]:
    """The fixed weighting vectors a = (1, a, a^2, ..., a^m) and
    b = (a^{3m}, a^{3m+2}, ..., a^{5m}) for a primitive element a.

    For a primitive element of F_{2^D} with D > 6m these satisfy the
    distinctness conditions for every error set: the discriminating
    polynomials have degree <= 6m with F_2 coefficients, so they cannot
    vanish at an element whose minimal polynomial has degree D.
    """
    a = tuple(F.pow(alpha, i) for i in range(m + 1))
    b = tuple(F.pow(alpha, 3 * m + 2 * i) for i in range(m + 1))
    return a, b


def decompose(S: Syndrome, mode: str = "randomized", rng=None,
              ext_degree: int | None = None) -> ErrorSet:
    """Recover the error locations from a syndrome.

    mode "randomized" draws the weighting vectors a, then b, from rng and
    retries on unlucky draws, up to MAX_DRAWS draws in all.  Mode
    "derandomized" (F_2 only) uses the fixed primitive-element vectors
    and is bit-reproducible.  ext_degree defaults to 10m.  The front
    half (_constant_slice), the slice minors T_v[K, K] and the columns
    T_0[K, 0..m] are built once per call; each draw only flattens them.

    The recovered set is checked against the syndrome before it is
    returned.  A set that fails the check raises DecodingFailure; on a
    valid syndrome that means an error set whose tensor powers are not
    independent.
    """
    params = S.params
    if mode not in ("randomized", "derandomized"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "randomized" and rng is None:
        raise ValueError("randomized mode needs an rng")
    if mode == "derandomized" and params.p != 2:
        raise ValueError("derandomized flattening vectors are defined over F_2")
    m = params.m
    T0, K = _constant_slice(S)
    if not K:
        return ErrorSet(params, ())
    minors = [_slice_minor(S, v, K, K) for v in range(m + 1)]
    cols = T0.submatrix(K, range(m + 1)).transpose().rows()
    D = ext_degree if ext_degree is not None else 10 * m
    F = extension_field(params.p, D)
    if mode == "randomized":
        last = "no attempt made"
        for _ in range(MAX_DRAWS):
            a = tuple(F.random_element(rng) for _ in range(m + 1))
            b = tuple(F.random_element(rng) for _ in range(m + 1))
            try:
                return _attempt(S, minors, cols, F, a, b)
            except _RetryableFailure as exc:
                last = str(exc)
        raise DecodingFailure(
            f"decomposition failed after {MAX_DRAWS} flattening draws: {last}")
    alpha = find_primitive_element(F)
    a, b = derandomized_flattening_vectors(F, alpha, m)
    try:
        return _attempt(S, minors, cols, F, a, b)
    except _RetryableFailure as exc:
        raise DecodingFailure(
            f"derandomized decomposition failed: {exc} "
            "(error set without independent tensor powers, or the "
            "extension degree is too small for the guarantee)") from exc


def _attempt(S: Syndrome, minors, cols, F, a, b) -> ErrorSet:
    """One flattening draw: the points read off the slice minors
    T_v[K, K] and the columns T_0[K, 0..m], checked against S."""
    try:
        M = _flatten(minors, F, a) @ inverse(_flatten(minors, F, b))
    except SingularMatrixError:
        raise _RetryableFailure("singular minor in the second flattening")
    chi, gs = _krylov_readout(M, cols[0], cols[1:])
    try:
        E = ErrorSet(S.params, _split_points(chi, gs, F))
    except ValueError as exc:
        raise _RetryableFailure(f"invalid point set: {exc}")
    if not explains(S, E):
        raise _RetryableFailure("recovered set does not reproduce the syndrome")
    return E


def _krylov_readout(M: FFMatrix, y: tuple, cols) -> tuple[list, list[list]]:
    """The characteristic polynomial chi of M and polynomials g_v with
    g_v(M) y = cols[v], as coefficient lists (lowest degree first), read
    off one rref of [y, My, ..., M^{t-1} y | M^t y | cols].

    With M = A diag(lambda_e) A^{-1} and y = A w for some w with no zero
    entry, the first t columns are A diag(w) V for the Vandermonde matrix
    V = (lambda_e^k); they are independent, i.e. the pivots of the rref,
    exactly when the lambda_e are distinct.  Then column t solves to the
    coefficients of M^t y = sum_k c_k M^k y, so chi = X^t - sum_k c_k X^k,
    and a column A diag(w) u solves to the g with g(lambda_e) = u_e: the
    rational univariate representation (Rouillier 1999).
    """
    F = M.field
    t = M.nrows
    krylov = [tuple(y)]
    for _ in range(t):
        krylov.append(M.mat_vec(krylov[-1]))
    krylov.extend(cols)
    R, _, pivots = rref(FFMatrix.from_rows(F, zip(*krylov)))
    if pivots[:t] != tuple(range(t)):
        raise _RetryableFailure("the start vector is not cyclic: spectrum not simple")
    solved = R.transpose().rows()
    chi = [F.neg(c) for c in solved[t]] + [1]
    return chi, [list(g) for g in solved[t + 1:]]


def _split_points(chi: list, gs: list[list], F) -> list[tuple]:
    """The points (g_1(lambda), ..., g_m(lambda)) over the roots lambda of
    chi, which must be distinct, lie in F and give base-field values.

    A node is a monic factor h of chi whose roots share the coordinates
    found so far.  Variable v splits h into the gcd(h, g_v - c), c in F_p,
    which is the polynomial form of axis_decompose's idempotent split.
    No root of chi is ever computed.  Raises _RetryableFailure when the
    factors of a node fall short of its degree (a coordinate outside the
    base field) or a final node is not linear (a repeated root, or one
    outside F).
    """
    p = F.p
    if p == 2:
        def rem(g, h):
            return _c2_divmod(g, h, F, 1)[1]

        def gcd(h, g):
            return _c2_gcd(h, g, F)
    else:
        def rem(g, h):
            return list(UniPoly(F, g).mod(UniPoly(F, h)).coeffs)

        def gcd(h, g):
            return list(UniPoly(F, h).gcd(UniPoly(F, g)).coeffs)
    nodes = [(chi, ())]
    for g in gs:
        split = []
        for h, point in nodes:
            r = rem(g, h)
            if len(r) <= 1:  # every root of h gives g the value r
                c = r[0] if r else 0
                if not F.is_base(c):
                    raise _RetryableFailure("recovered coordinate outside the base field")
                split.append((h, point + (c,)))
                continue
            parts = []
            for c in range(p):
                d = gcd(h, [F.sub(r[0], c)] + r[1:])
                if len(d) > 1:
                    parts.append((d, point + (c,)))
            if sum(len(d) - 1 for d, _ in parts) != len(h) - 1:
                raise _RetryableFailure("recovered coordinate outside the base field")
            split.extend(parts)
        nodes = split
    if any(len(h) != 2 for h, _ in nodes):
        raise _RetryableFailure("repeated eigenvalue, or one outside the extension field")
    return [point for _, point in nodes]


def axis_decompose(S: Syndrome) -> ErrorSet:
    """Recover the error locations from the tensor slices along the
    coordinate axes, over the base field.

    With K the pivots of the constant slice T_0 (_constant_slice), so
    that T_0[K, K] is invertible, the matrices
    M_v = T_v[K,K] T_0[K,K]^{-1} equal A D_v A^{-1}, where the columns of A
    are the tensor powers e^{<=r} of the error points at rows K and D_v
    holds their v-th coordinates; this needs the tensor powers to be
    independent, as both paper decoders do.  The vector
    T_0[K, 0] = sum_e w_e e^{<=r}[K] has a nonzero component along every
    column of A, so splitting it one variable at a time into its
    eigencomponents under each M_v leaves one eigenvector per error point,
    whose eigenvalues are that point's coordinates.  Only T_0 is built in
    full; each T_v is read off the syndrome at [K, K] alone.  Over F_2 the
    split runs on bit-packed vectors against the stacked minor
    [T_1; ...; T_m][K, K] and forms no M_v (_packed_axis_points); over odd
    p it forms each M_v (_field_axis_points).

    Raises DecodingFailure unless the splits end in exactly rank(T_0)
    common eigenvectors of every M_v with distinct eigenvalue tuples;
    callers check the set against the syndrome (locate_and_correct).
    """
    params = S.params
    T0, K = _constant_slice(S)
    if not K:
        return ErrorSet(params, ())
    B = inverse(T0.submatrix(K, K))
    split = _packed_axis_points if params.p == 2 else _field_axis_points
    points = split(S, T0, K, B)
    try:
        return ErrorSet(params, points)
    except ValueError as exc:
        raise DecodingFailure(f"invalid point set: {exc}") from exc


def _start_vector(T0: FFMatrix, K) -> tuple:
    """y = T_0[K, 0], the vector both axis kernels split; zero only when
    the syndrome is not that of an error set with independent tensor
    powers."""
    y = tuple(T0.at(k, 0) for k in K)
    if not any(y):
        raise DecodingFailure("zero start vector: the constant slice's "
                              "first column vanishes on its row basis")
    return y


def _check_leaf_count(n: int, t: int) -> None:
    if n > t:
        raise DecodingFailure(f"{n} eigencomponents for a rank-{t} constant slice")


_NOT_ONE_DIMENSIONAL = "a joint eigenspace of the axis matrices is not one-dimensional"
_NOT_COMMON = "a split component is not a common eigenvector of the axis matrices"


def _packed_axis_points(S: Syndrome, T0: FFMatrix, K, B: FFMatrix) -> list[tuple]:
    """axis_decompose's split over F_2, on t-bit int vectors (bit k is
    row K[k]).

    Column l of the stacked minor is one int whose bit v t + k is
    T_{v+1}[K[k], K[l]], so the product of y, i.e. [M_1 y; ...; M_m y]
    in blocks of t bits, is the xor of B's columns picked by y (z = B y)
    then the xor of stacked columns picked by z.  B = T_0[K,K]^{-1} is
    symmetric, so its columns are its packed rows.  Over F_2 the split of
    y by M_v is P_1 y = M_v y (block v of its product) and
    P_0 y = y ^ M_v y; by linearity the two parts' products add up to
    y's, so each new leaf costs one product.  A leaf's coordinate v is 1
    if block v equals y and 0 if it is zero; anything else is not an
    eigenvector.
    """
    m, t = S.params.m, len(K)
    mask = (1 << t) - 1
    y = sum(bit << k for k, bit in enumerate(_start_vector(T0, K)))
    bcols = [B.packed_row(j) for j in range(t)]
    stacked = _stacked_minor(S, K)

    def product(y: int) -> int:
        return xor_picked(stacked, xor_picked(bcols, y))

    leaves = [(y, product(y))]
    for shift in range(0, m * t, t):
        if len(leaves) == t:
            break
        split = []
        for y, prod in leaves:
            one = prod >> shift & mask
            zero = y ^ one
            if one and zero:
                prod_zero = product(zero)
                split += [(zero, prod_zero), (one, prod ^ prod_zero)]
            else:
                split.append((y, prod))
        leaves = split
        _check_leaf_count(len(leaves), t)
    if len(leaves) < t:
        raise DecodingFailure(_NOT_ONE_DIMENSIONAL)
    points = []
    for y, prod in leaves:
        blocks = [prod >> shift & mask for shift in range(0, m * t, t)]
        if any(block and block != y for block in blocks):
            raise DecodingFailure(_NOT_COMMON)
        points.append(tuple(1 if block else 0 for block in blocks))
    return points


def _stacked_minor(S: Syndrome, K) -> list[int]:
    """The columns of [T_1; ...; T_m][K, K] over F_2 as ints: bit v t + k
    of column l is S[var_mul(v)[pair_positions(m, r, r)[K[k]][K[l]]]].

    Each int is parsed from an ASCII bit string, most significant bit
    first, gathered by itemgetter one block of all t columns at a time."""
    params = S.params
    m, r = params.m, params.r
    t = len(K)
    pairpos = pair_positions(m, r, r)
    sidx = params.syndrome_index
    bits = bytes(S.entries).translate(_ASCII_BITS)
    qs = [pairpos[k][l] for l in K for k in reversed(K)]
    blocks = [bytes(_gather(bits, _gather(sidx.var_mul(v), qs)))
              for v in reversed(range(m))]
    return [int(b"".join([b[i:i + t] for b in blocks]), 2) for i in range(0, t * t, t)]


_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _gather(seq, idx) -> tuple:
    """(seq[i] for i in idx) as a tuple, at C speed."""
    got = itemgetter(*idx)(seq)
    return got if len(idx) > 1 else (got,)


def _field_axis_points(S: Syndrome, T0: FFMatrix, K, B: FFMatrix) -> list[tuple]:
    """axis_decompose's split over any prime field: forms each M_v and
    splits tuple vectors by its eigenspace idempotents (_eigen_split)."""
    f = S.params.field
    t = len(K)
    mats = [_slice_minor(S, v, K, K) @ B for v in range(1, S.params.m + 1)]
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

