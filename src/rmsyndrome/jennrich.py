"""Tensor-decomposition syndrome decoder (finite-field Jennrich method).

The syndrome is reshaped into the 3-tensor with entries
T[i, j, k] = sum_e M_i(e) M_j(e) M''_k(e) over the error set, where M_i,
M_j range over monomials of degree <= r and M''_k over degree <= 1.  Its
slices are column selections of the syndrome's one moment (Hankel)
matrix H[i, j] = S[reduce(M_i M_j)], M_j of degree <= r + 1, whose
nullspace is polyspace's vanishing space: T_0 = H[:, :|M_r|] and
T_v = H[:, shift_v], shift_v(j) the position of reduce(M_j x_v)
(code.moment_matrix).  Two random (or derandomized) weightings of the
degree-1 axis flatten T into S^a, S^b over an extension field.  Every
slice is symmetric, so the pivot columns K of one rref of T_0 index a
row basis too and T_0[K,K] is invertible (_constant_slice, the front
half both decoders share).  On that minor, M = S^a[K,K] (S^b[K,K])^{-1}
has the tensor-power columns as eigenvectors.  The decoder never computes
an eigenvalue: one rref of the Krylov columns of y = T_0[K, 0] against the
coordinate columns H[K, x_v] gives the characteristic polynomial chi of
M and polynomials g_v with g_v(lambda_e) = e_v (a rational univariate
representation), and splitting chi by gcd(h, g_v - c), c in F_p, one
variable at a time leaves one linear factor per error point.

Failure modes (repeated eigenvalues, a singular minor, coordinates that
do not lie in the base field) trigger a resample in randomized mode and
are reported as decoding failures in derandomized mode.  That mode weights
with powers of z = X mod the modulus of F_{2^D}: the guarantee needs only a
minimal polynomial of degree D > 6m, the modulus, so nothing is factored.

axis_decompose, the library's default decoder, takes the weightings to be
the constant slice and each coordinate axis in turn.  The quotients
M_v = T_v[K,K] T_0[K,K]^{-1} then stay over F_p and commute, and their
eigenvalues are the v-th coordinates of the error points, so splitting one
vector by the eigenspace idempotents 1 - (M_v - c)^{p-1} separates the
points with no extension field, characteristic polynomial or eigenvector
solve.  This is the eigenvalue method for zero-dimensional systems
(Moeller & Stetter 1995), i.e. solution extraction from moment matrices
(Henrion & Lasserre 2005).  It reads only T_0 in full and the other
slices at [K, K], and forms no M_v, over any p: a vector is one int in
the F_p row layout that every FFMatrix row uses (linalg.slot_layout: a
bit per entry over F_2, a byte over F_3, ..., F_11), the stacked minor
[T_1; ...; T_m][K, K] is one int per column, and one product with it,
after z = T_0[K,K]^{-1} y, gives M_v y for every v at once, so a split
by M_v costs p - 1 products.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .code import DecodingFailure, ErrorSet, Syndrome, explains, moment_matrix
from .fields import extension_field, poly_divmod, poly_gcd, prime_field
# rank is not called here; perfbench's tracer rebinds every module's
# binding of it, and its self-test expects one in this module.
from .linalg import (FFMatrix, SingularMatrixError, inverse,  # noqa: F401
                     rank, rref, slot_layout)
from .polynomials import moment_positions, monomial_count, monomial_index


# Flattening draws in randomized mode before decompose gives up.
MAX_DRAWS = 16


class _RetryableFailure(Exception):
    """Internal: the drawn flattening vectors were unlucky."""


def tensor_from_syndrome(S: Syndrome) -> tuple[FFMatrix, ...]:
    """The syndrome reshaped into the 3-tensor, as its m+1 slices along
    the degree-1 axis: the entry (M_i, M_j) of slice k is the syndrome
    entry of reduce(M_i M_j M''_k)."""
    square = range(monomial_count(S.params.m, S.params.r, S.params.p))
    return tuple(moment_matrix(S, square, square, k) for k in range(S.params.m + 1))


def _constant_slice(S: Syndrome) -> tuple[FFMatrix, tuple[int, ...]]:
    """T_0 in full and K, the pivot columns of one rref of T_0: the
    front half both tensor decoders share.

    T_0 is symmetric (a moment matrix), so K indexes a column basis and,
    by symmetry, a row basis, and T_0[K, K] is invertible: with
    T_0 = T_0[:, K] X, the rows T_0[K, :] = T_0[K, K] X are the transpose
    of the independent columns T_0[:, K], so they have rank t = |K|.
    Raises DecodingFailure for a zero T_0 of a nonzero syndrome."""
    square = range(monomial_count(S.params.m, S.params.r, S.params.p))
    T0 = moment_matrix(S, square, square)
    K = rref(T0)[2]
    if not K and not S.is_zero():
        raise DecodingFailure("zero constant slice of a nonzero syndrome")
    return T0, K


def _flatten(slices, F, weights) -> FFMatrix:
    """The flattening sum_k weights[k] slices[k] over the field F, packed
    as it is built; over odd p row i combines the rows i of the slices."""
    s = slices[0].nrows
    if F.p != 2:
        layout = slot_layout(F)
        w = layout.pack(weights)
        return FFMatrix.from_packed_rows(F, [layout.dot(layout.vectors(
            [layout.pack(sl.row(i)) for sl in slices]), w) for i in range(s)], s)
    rows = [[0] * s for _ in range(s)]
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
    return FFMatrix.from_rows(F, rows)


def derandomized_flattening_vectors(F, alpha: int, m: int) -> tuple[tuple, tuple]:
    """The fixed weighting vectors a = (1, a, a^2, ..., a^m) and
    b = (a^{3m}, a^{3m+2}, ..., a^{5m}) for an element a of F_{2^D}.

    When the minimal polynomial of a has degree D > 6m these satisfy the
    distinctness conditions for every error set: the discriminating
    polynomials have degree <= 6m with F_2 coefficients, so they cannot
    vanish at a.  That is the only property used: a primitive element has
    it, and so does decompose's z, the residue of X, with no factoring.
    Both are running products: each entry of a is the one before times
    a, each entry of b the one before times a^2.
    """
    a = [1]
    for _ in range(m):
        a.append(F.mul(a[-1], alpha))
    step = F.square(alpha)
    b = [F.mul(F.square(a[m]), a[m])]
    for _ in range(m):
        b.append(F.mul(b[-1], step))
    return tuple(a), tuple(b)


def decompose(S: Syndrome, mode: str = "randomized", rng=None,
              ext_degree: int | None = None) -> ErrorSet:
    """Recover the error locations from a syndrome.

    mode "randomized" draws the weighting vectors a, then b, from rng and
    retries on unlucky draws, up to MAX_DRAWS draws in all.  Mode
    "derandomized" (F_2 only) makes one fixed draw from z = X mod the
    modulus of F_{2^D} (derandomized_flattening_vectors) and is
    bit-reproducible: z's minimal polynomial, the modulus, has degree D,
    so D > 6m guarantees the draw with no factoring of 2^D - 1.
    ext_degree D defaults to 10m.  The front half (_constant_slice), the
    slice minors T_v[K, K] and the columns H[K, 0..m] are built once
    per call; each draw only flattens them.

    The recovered set is checked against the syndrome before it is
    returned.  A set that fails the check raises DecodingFailure; on a
    valid syndrome that means an error set whose tensor powers are not
    independent, or, in derandomized mode, D <= 6m.
    """
    params = S.params
    if mode not in ("randomized", "derandomized"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "randomized" and rng is None:
        raise ValueError("randomized mode needs an rng")
    if mode == "derandomized" and params.p != 2:
        raise ValueError("derandomized flattening vectors are defined over F_2")
    m = params.m
    K = _constant_slice(S)[1]
    if not K:
        return ErrorSet(params, ())
    minors = [moment_matrix(S, K, K, v) for v in range(m + 1)]
    # H[K, 0..m]: the columns of degree <= 1, which T_0 lacks when r = 0
    cols = moment_matrix(S, K, range(m + 1)).transpose().rows()
    D = ext_degree if ext_degree is not None else 10 * m
    F = extension_field(params.p, D)
    if mode == "randomized":
        draws = (tuple(tuple(F.random_element(rng) for _ in range(m + 1)) for _ in range(2))
                 for _ in range(MAX_DRAWS))  # a, then b
        failure = f"decomposition failed after {MAX_DRAWS} flattening draws: {{}}"
    else:  # z = X mod the modulus: the int 2, or the constant term when D = 1
        draws = [derandomized_flattening_vectors(F, 2 if D > 1 else F.modulus.coeffs[0], m)]
        failure = "derandomized decomposition failed: {} (dependent tensor powers, or D <= 6m)"
    for a, b in draws:
        try:
            return _attempt(S, minors, cols, F, a, b)
        except _RetryableFailure as exc:
            last = exc
    raise DecodingFailure(failure.format(last)) from last


def _attempt(S: Syndrome, minors, cols, F, a, b) -> ErrorSet:
    """One flattening draw: the points read off the slice minors
    T_v[K, K] and the columns H[K, 0..m], checked against S."""
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
    F, t, layout = M.field, M.nrows, M.layout
    mcols = layout.vectors(M.transpose().packed_rows())  # once: a step is one dot
    krylov = [layout.pack(y)]
    for _ in range(t):
        krylov.append(layout.dot(mcols, krylov[-1]))
    krylov.extend(map(layout.pack, cols))
    R, _, pivots = rref(FFMatrix.from_packed_rows(F, krylov, t).transpose())
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
    No root of chi is ever computed, and the division and gcd are
    fields.poly_divmod and poly_gcd on the coefficient lists, the same
    calls for every characteristic.  Raises _RetryableFailure when the
    factors of a node fall short of its degree (a coordinate outside the
    base field) or a final node is not linear (a repeated root, or one
    outside F).
    """
    nodes = [(chi, ())]
    for g in gs:
        split = []
        for h, point in nodes:
            r = poly_divmod(g, h, F)[1]
            if len(r) <= 1:  # every root of h gives g the value r
                c = r[0] if r else 0
                if not F.is_base(c):
                    raise _RetryableFailure("recovered coordinate outside the base field")
                split.append((h, point + (c,)))
                continue
            parts = []
            for c in range(F.p):
                d = poly_gcd(h, [F.sub(r[0], c)] + r[1:], F)
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
    full; each T_v is read off the syndrome at [K, K] alone, and no M_v is
    formed: the split runs on packed vectors against the stacked minor
    [T_1; ...; T_m][K, K] (_axis_points), the same loop for every p.

    Raises DecodingFailure unless the splits end in exactly rank(T_0)
    common eigenvectors of every M_v with distinct eigenvalue tuples;
    callers check the set against the syndrome (locate_and_correct).
    """
    params = S.params
    T0, K = _constant_slice(S)
    if not K:
        return ErrorSet(params, ())
    points = _axis_points(S, T0, K, inverse(T0.submatrix(K, K)))
    try:
        return ErrorSet(params, points)
    except ValueError as exc:
        raise DecodingFailure(f"invalid point set: {exc}") from exc


def _start_vector(T0: FFMatrix, K) -> tuple:
    """y = T_0[K, 0], the vector the axis split starts from; zero only
    when the syndrome is not that of an error set with independent tensor
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


def _axis_points(S: Syndrome, T0: FFMatrix, K, B: FFMatrix) -> list[tuple]:
    """axis_decompose's split, on vectors packed one entry per slot of an
    int (slot k is row K[k]) in the field's row layout, the one format of
    FFMatrix rows (linalg.slot_layout), so B's rows serve as they are
    stored; the layout's dot reduces its sums as often as its slots need.

    Column l of the stacked minor holds T_{v+1}[K[k], K[l]] in slot
    v t + k, so B's columns combined by y (z = B y), then the stacked
    columns combined by z, give [M_1 y; ...; M_m y] in blocks of t slots.
    The product of y is [y; M_1 y; ...; M_m y]: linear in y, and y is its
    block 0.  B = T_0[K,K]^{-1} is symmetric, so its columns are its rows.

    A leaf is the product of its vector y and the multiples c y, c in
    F_p.  When block v of the product is one of them, y already lies in
    one eigenspace of M_v.  Otherwise y splits into the parts
    P_c y = y - sum_k c^{p-1-k} M_v^k y, the eigenspace idempotents
    I - (M_v - cI)^{p-1} applied to y (binom(p-1, k) is (-1)^k mod p).
    Each M_v^k y is block v of the product of M_v^{k-1} y, and a part's
    product is the same combination of those products, so a split costs
    p - 1 products.  Over F_2 the parts are y + M_v y and M_v y, at one
    product.  A leaf's coordinate v is the c with block v equal to c y;
    anything else is not an eigenvector.
    """
    m, p, t = S.params.m, S.params.p, len(K)
    layout = B.layout
    bits, dot = layout.bits, layout.dot
    mask = (1 << bits * t) - 1
    shifts = range(t * bits, (m + 1) * t * bits, t * bits)
    bcols = [B.packed_row(j) for j in range(t)]
    stacked = _stacked_minor(S, K, layout.pack)
    idempotents = _idempotents(p)

    multiples_of = ((lambda y: (0, y)) if p == 2
                    else (lambda y: tuple(dot((y,), c) for c in range(p))))

    def product(y: int) -> int:
        return dot(stacked, dot(bcols, y)) << t * bits | y

    prod = product(layout.pack(_start_vector(T0, K)))
    leaves = [(prod, multiples_of(prod & mask))]
    for shift in shifts:
        if len(leaves) == t:
            break
        split = []
        for prod, multiples in leaves:
            if prod >> shift & mask in multiples:
                split.append((prod, multiples))
                continue
            prods = [prod]
            for _ in range(p - 1):
                prods.append(product(prods[-1] >> shift & mask))
            for coefs in idempotents:
                part = dot(prods, coefs)
                if part & mask:
                    split.append((part, multiples_of(part & mask)))
        leaves = split
        _check_leaf_count(len(leaves), t)
    if len(leaves) < t:
        raise DecodingFailure(_NOT_ONE_DIMENSIONAL)
    try:
        return [tuple(multiples.index(prod >> shift & mask) for shift in shifts)
                for prod, multiples in leaves]
    except ValueError:
        raise DecodingFailure(_NOT_COMMON) from None


@lru_cache(maxsize=None)
def _idempotents(p: int) -> tuple[int, ...]:
    """Per c in F_p, the coefficients of P_c y in (y, M_v y, ...,
    M_v^{p-1} y), packed in F_p's row layout: p^2 powers, built once per
    p."""
    pack = slot_layout(prime_field(p)).pack
    return tuple(pack([((k == 0) - pow(c, p - 1 - k, p)) % p for k in range(p)])
                 for c in range(p))


def _stacked_minor(S: Syndrome, K, pack) -> list[int]:
    """The columns of [T_1; ...; T_m][K, K], each packed by pack: slot
    v t + k of column l is T_{v+1}[K[k], K[l]].

    T_{v+1} is symmetric, so that entry is T_{v+1}[K[l], K[k]] =
    H[K[l], shift_{v+1}(K[k])] (code.moment_matrix): column l picks the
    m t shifted columns of row K[l] of moment_positions, and reads and
    packs their syndrome entries, by itemgetter at C speed."""
    params = S.params
    table = moment_positions(params.m, params.r, params.p)
    cols = monomial_index(params.m, params.r + 1, params.p)
    pick = itemgetter(*[shift[k] for shift in map(cols.var_mul, range(params.m))
                        for k in K])
    return [pack(itemgetter(*pick(table[l]))(S.entries)) for l in K]
