"""Tensor-decomposition syndrome decoder (finite-field Jennrich method).

The syndrome is reshaped into the 3-tensor with entries
T[i, j, k] = sum_e M_i(e) M_j(e) M''_k(e) over the error set, where M_i,
M_j range over monomials of degree <= r and M''_k over degree <= 1.  Its
slices are column selections of the syndrome's one moment (Hankel)
matrix H[i, j] = S[reduce(M_i M_j)], M_j of degree <= r + 1, whose
nullspace is polyspace's vanishing space: T_0 = H[:, :|M_r|] and
T_v = H[:, shift_v], shift_v(j) the position of reduce(M_j x_v)
(code.moment_matrix).  Every slice is symmetric, so the pivot columns K
of one rref of T_0 index a row basis too and T_0[K,K] is invertible
(code.constant_slice, the front half every decoder shares: polyspace's
decode splits the rows H[K, :]).

Jennrich's method diagonalizes S^a (S^b)^{-1} for two flattenings
S^a = sum_v a_v T_v, S^b of the degree-1 axis.  Every lifted point
(1, e) is 1 at coordinate 0, so T_0 is a valid S^b (b = e_0) that stays
over F_p: on the minor, A = S^a[K,K] T_0[K,K]^{-1} = sum_v a_v M_v for
the axis quotients M_v = T_v[K,K] T_0[K,K]^{-1} (M_0 = I), whose common
eigenvectors are the tensor powers at K, with eigenvalue <(1, e), a>
(the eigenvalue method of Moeller & Stetter 1995).  Both decoders read
the quotients from one stack Q = [I; M_1; ...; M_m] over F_p, built once
per call by one read of the minor [T_0 | T_1 | ... | T_m][K, K] and one
rref of it, [I | M_1^T | ... | M_m^T] (_quotient_stack).  decompose
takes the M_v^T as its blocks; a draw of a over an extension field
F_{p^D} only flattens them, with no inverse or matrix product over
F_{p^D}.  The decoder never computes an eigenvalue: one rref of the
Krylov columns of y = T_0[K, 0] against the coordinate columns M_v y,
the blocks of Q y, gives the characteristic polynomial chi of A and
polynomials g_v with g_v(lambda_e) = e_v (a rational univariate
representation).  Splitting chi by gcd(h, g_v - c), c in F_p, one
variable at a time until every factor is linear, X - lambda, leaves one
factor per error point, whose coordinates are read off at lambda in one
packed product.

Failure modes (repeated eigenvalues, coordinates that do not lie in the
base field) trigger a resample in randomized mode and are reported as
decoding failures in derandomized mode.  That mode weights with
a = (1, z, ..., z^m), z = X mod the modulus of F_{p^D}, over every p, so
two points share an eigenvalue exactly when z f(z) = 0 for a nonzero
F_p polynomial f of degree < m.  z's minimal polynomial is the modulus,
so any D >= m with D > 1 separates every error set, and nothing is
factored.  D defaults there to the least degree above m; over F_2, to
the least with an irreducible trinomial, the modulus that
extension_field then takes.  Over F_2 the paper's
b = (z^{3m}, ..., z^{5m}) is implied: by Frobenius
S^b T_0[K,K]^{-1} = z^{3m} A^2, so its quotient S^a (S^b)^{-1} =
z^{-3m} A^{-1}, defined only for D > m, has A's eigenvectors.

axis_decompose, the library's default decoder, takes the weightings to be
the constant slice and each coordinate axis in turn.  The quotients
M_v then stay over F_p, and their eigenvalues are the v-th coordinates of
the error points, so splitting one vector by the eigenspace idempotents
1 - (M_v - c)^{p-1} separates the points with no extension field,
characteristic polynomial or eigenvector solve (Moeller & Stetter 1995;
solution extraction from moment matrices, Henrion & Lasserre 2005).  It
reads only T_0 in full, for K, and the other slices at [K, K], over any
p: a vector is one int in the F_p row layout that every FFMatrix row
uses (linalg.slot_layout: a bit per entry over F_2, a byte over F_3,
..., F_11), Q is one int per column, and one product with it gives
[y; M_1 y; ...; M_m y] at once, so a split by M_v costs p - 1 products.
"""

from __future__ import annotations

from functools import lru_cache

from .code import DecodingFailure, ErrorSet, Syndrome, constant_slice, explains, moment_matrix
from .fields import (extension_field, irreducible_trinomial, prime_field,
                     split_by_value)
from .linalg import FFMatrix, rref, slot_layout
# rank is not called here; perfbench's tracer rebinds every module's
# binding of it, and its self-test expects one in this module.
from .linalg import rank  # noqa: F401
from .polynomials import monomial_count, monomial_index


# Flattening draws in randomized mode before decompose gives up.
MAX_DRAWS = 16


class _RetryableFailure(Exception):
    """Internal: the drawn flattening vectors were unlucky."""


def tensor_from_syndrome(S: Syndrome) -> tuple[FFMatrix, ...]:
    """The syndrome reshaped into the 3-tensor, as its m+1 slices along
    the degree-1 axis: the entry (M_i, M_j) of slice k is the syndrome
    entry of reduce(M_i M_j M''_k): H at the columns M_r, then at var_mul(v)."""
    m, r, p = S.params.m, S.params.r, S.params.p
    square = range(monomial_count(m, r, p))
    shifts = map(monomial_index(m, r + 1, p).var_mul, range(m))
    return tuple(moment_matrix(S, square, cols) for cols in (square, *shifts))


def _flatten(slices, F, weights) -> FFMatrix:
    """The flattening sum_k weights[k] slices[k] over the field F, packed
    as it is built; over odd p row i combines the rows i of the slices.
    Over F_2 the slices are 0/1, so row i is the xor of w << k bits over
    the set bits k of the slices' rows i, one packed int per row: a slot
    holds a reduced element, and xor keeps it reduced."""
    s, layout = slices[0].nrows, slot_layout(F)
    if F.p != 2:
        w = layout.pack(weights)
        return FFMatrix.from_packed_rows(F, [layout.dot(layout.vectors(
            [layout.pack(sl.row(i)) for sl in slices]), w) for i in range(s)], s)
    bits, rows = layout.bits, [0] * s
    for w, sl in zip(weights, slices):
        if not w:
            continue
        for i in range(s):
            rk, acc = sl.packed_row(i), 0
            while rk:
                lsb = rk & -rk
                acc ^= w << (lsb.bit_length() - 1) * bits
                rk ^= lsb
            rows[i] ^= acc
    return FFMatrix.from_packed_rows(F, rows, s)


def derandomized_flattening_vectors(F, alpha: int, m: int) -> tuple[tuple, tuple]:
    """The paper's fixed weighting vectors a = (1, a, a^2, ..., a^m) and
    b = (a^{3m}, a^{3m+2}, ..., a^{5m}) for an element a of F_{2^D}.

    For x in F_2^{m+1} put alpha_x = <x, a> = sum_v x_v a^v.  Squaring
    is the Frobenius map and fixes each x_v, so <x, b> = a^{3m} alpha_x^2.
    The ratios <x, a> / <x, b> = a^{-3m} / alpha_x order the eigenvectors
    of the paper's quotient S^a (S^b)^{-1}; they are distinct for every
    pair of lifted points when the minimal polynomial of a has degree
    D >= m, and need every alpha_x, x != 0, nonzero too, so D > m.  A
    primitive element has the property, and so does the residue of X.
    decompose draws a alone, as F.powers(z, m + 1), and needs no b; b is
    a^{3m} times the powers of a^2.
    """
    a = F.powers(alpha, m + 1)
    shift = F.mul(F.square(a[m]), a[m])
    return tuple(a), tuple(F.mul(shift, x) for x in F.powers(F.square(alpha), m + 1))


def decompose(S: Syndrome, mode: str = "randomized", rng=None,
              ext_degree: int | None = None) -> ErrorSet:
    """Recover the error locations from a syndrome.

    A draw is the weighting a alone: the second flattening is T_0
    (b = e_0, as every lifted point is 1 at coordinate 0), so the quotient
    is A = sum_v a_v M_v.  Mode "randomized" draws a from rng and
    retries on unlucky draws, up to MAX_DRAWS draws in all.  Mode
    "derandomized" makes one fixed draw, a = (1, z, ..., z^m) for
    z = X mod the modulus of F_{p^D} (the int p, or the root of the
    linear modulus when D = 1), and is bit-reproducible: z's minimal
    polynomial, the modulus, has degree D, so D >= m guarantees the draw
    with no factoring of p^D - 1.  ext_degree D defaults to
    _default_ext_degree.  The quotient stack (_quotient_stack) is built
    once per call; the transposed quotients M_v^T are its blocks, and the
    coordinate columns M_v y its product with y.  Each draw only flattens
    the M_v^T.

    The recovered set is checked against the syndrome before it is
    returned.  A set that fails the check raises DecodingFailure; on a
    valid syndrome that means an error set whose tensor powers are not
    independent, or, in derandomized mode, D < m.
    """
    params = S.params
    if mode not in ("randomized", "derandomized"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "randomized" and rng is None:
        raise ValueError("randomized mode needs an rng")
    m = params.m
    K, y, Q = _quotient_stack(S)
    if not K:
        return ErrorSet(params, ())
    # block v of column j of Q is row j of M_v^T; block v of Q y is M_v y,
    # which is H[K, x_v] on a valid syndrome
    layout, t = slot_layout(params.field), len(K)
    width = t * layout.bits
    mask, shifts = (1 << width) - 1, range(0, (m + 1) * width, width)
    quotients = [FFMatrix.from_packed_rows(params.field, [col >> shift & mask for col in Q], t)
                 for shift in shifts]
    Qy = layout.dot(Q, layout.pack(y))
    cols = [layout.unpack(Qy >> shift & mask, t) for shift in shifts]
    D = ext_degree if ext_degree is not None else _default_ext_degree(params.p, m, mode)
    F = extension_field(params.p, D)
    if mode == "randomized":
        draws = (tuple(F.random_element(rng) for _ in range(m + 1)) for _ in range(MAX_DRAWS))
        failure = f"decomposition failed after {MAX_DRAWS} flattening draws: {{}}"
    else:  # z = X mod the modulus: the int p, or the root of X + c_0 when D = 1
        draws = [F.powers(params.p if D > 1 else F.neg(F.modulus.coeffs[0]), m + 1)]
        failure = "derandomized decomposition failed: {} (dependent tensor powers, or D < m)"
    for a in draws:
        try:
            return _attempt(S, quotients, cols, F, a)
        except _RetryableFailure as exc:
            last = exc
    raise DecodingFailure(failure.format(last)) from last


@lru_cache(maxsize=None)
def _default_ext_degree(p: int, m: int, mode: str = "randomized") -> int:
    """decompose's extension degree D when none is given: the least D
    above m in derandomized mode, where the fixed weights separate every
    error set once D >= m, and above 6m in randomized mode, where a draw
    fails with probability at most C(t, 2) / p^D, which D >= m does not
    control: points e, e' share an eigenvalue where the nonzero linear
    form <(0, e - e'), a> vanishes, at one uniform a in p^D.  Over F_2, D
    steps up to the next degree with an irreducible trinomial
    X^D + X^j + 1, which extension_field(2, D) then takes as its modulus,
    so each fold of a product in F_{2^D} is two shifts."""
    D = (m if mode == "derandomized" else 6 * m) + 1
    while p == 2 and irreducible_trinomial(prime_field(2), D) is None:
        D += 1
    return D


def _quotient_stack(S: Syndrome) -> tuple[tuple, tuple, list[int]]:
    """The front half of both tensor decoders: the pivots K of the
    constant slice (code.constant_slice), y = T_0[K, 0], and the t
    columns of the quotient stack Q = [I; M_1; ...; M_m] over F_p, each
    one int in F_p's row layout (linalg.slot_layout), block v in slots
    v t .. v t + t - 1.  K is empty for the zero syndrome; a zero T_0 of
    a nonzero syndrome, or a zero y, raises DecodingFailure.

    One moment_matrix call reads the minor [T_0 | T_1 | ... | T_m][K, K],
    which is T_0[K,K] [I | M_1^T | ... | M_m^T] (every slice is
    symmetric), and its rref, pivots 0..t-1, has row j equal to
    [e_j | M_1 e_j | ... | M_m e_j], column j of Q.  Column 0 of T_0 is a
    pivot exactly when it is nonzero: y is zero exactly when K[0] != 0,
    and otherwise it is column 0 of the minor."""
    params = S.params
    K = constant_slice(S)
    if not K:
        return K, (), []
    if K[0]:
        raise DecodingFailure(_ZERO_START)
    index = monomial_index(params.m, params.r + 1, params.p)
    minor = moment_matrix(S, K, [*K, *(shift[k] for shift in map(index.var_mul, range(params.m))
                                       for k in K)])
    mask = minor.layout.mask
    return K, tuple([row & mask for row in minor.packed_rows()]), rref(minor)[0].packed_rows()


def _attempt(S: Syndrome, quotients, cols, F, a) -> ErrorSet:
    """One flattening draw: A^T = sum_v a_v M_v^T over F, whose rows are
    the columns of A, read out against the columns M_v y, v = 0..m, and the
    points checked against S."""
    chi, gs = _krylov_readout(_flatten(quotients, F, a), cols[0], cols[1:])
    try:
        E = ErrorSet(S.params, _split_points(chi, gs, F))
    except ValueError as exc:
        raise _RetryableFailure(f"invalid point set: {exc}")
    if not explains(S, E):
        raise _RetryableFailure("recovered set does not reproduce the syndrome")
    return E


def _krylov_readout(MT: FFMatrix, y: tuple, cols) -> tuple[list, list[list]]:
    """The characteristic polynomial chi of M and polynomials g_v with
    g_v(M) y = cols[v], as coefficient lists (lowest degree first), read
    off one rref of [y, My, ..., M^{t-1} y | M^t y | cols].  MT is M's
    transpose: its rows are M's columns, so a step is one dot.

    With M = A diag(lambda_e) A^{-1} and y = A w for some w with no zero
    entry, the first t columns are A diag(w) V for the Vandermonde matrix
    V = (lambda_e^k); they are independent, i.e. the pivots of the rref,
    exactly when the lambda_e are distinct.  Then column t solves to the
    coefficients of M^t y = sum_k c_k M^k y, so chi = X^t - sum_k c_k X^k,
    and a column A diag(w) u solves to the g with g(lambda_e) = u_e: the
    rational univariate representation (Rouillier 1999).
    """
    F, t, layout = MT.field, MT.nrows, MT.layout
    mcols = layout.vectors(MT.packed_rows())
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
    split on so far.  Variable v splits h into the classes
    gcd(h, g_v - c), c in F_p, by fields.split_by_value, the step
    berlekamp_roots splits by too: the polynomial form of axis_decompose's
    idempotent split.  The splits stop once every node is linear,
    X - lambda, and its point is read off at lambda in one packed product
    (_read_points).  No root of chi is computed before its node is
    linear.  Raises _RetryableFailure for a coordinate outside the base
    field, or a node that no variable splits into linear ones (a repeated
    root, or one outside F).
    """
    nodes = [chi]
    for g in gs:
        split = []
        for h in nodes:
            parts = [h] if len(h) == 2 else split_by_value(h, g, F)
            if parts is None:
                raise _RetryableFailure("recovered coordinate outside the base field")
            split.extend(parts)
        nodes = split
    if any(len(h) != 2 for h in nodes):
        raise _RetryableFailure("repeated eigenvalue, or one outside the extension field")
    return _read_points([F.neg(h[0]) for h in nodes], gs, F)


def _read_points(roots: list, gs: list[list], F) -> list[tuple]:
    """The points (g_1(lambda), ..., g_m(lambda)) at the given roots, each
    one packed product: with column k of the g's (their coefficients of
    X^k) packed as an m-slot vector of F's row layout once, the point at
    lambda is those columns combined by F.powers(lambda, t).
    Raises _RetryableFailure for a value outside the base field."""
    layout, m = slot_layout(F), len(gs)
    t = max(map(len, gs), default=0)
    columns = layout.vectors([layout.pack([g[k] if k < len(g) else 0 for g in gs])
                              for k in range(t)])
    points = []
    for lam in roots:
        point = layout.unpack(layout.dot(columns, layout.pack(F.powers(lam, t))), m)
        if not all(map(F.is_base, point)):
            raise _RetryableFailure("recovered coordinate outside the base field")
        points.append(point)
    return points


def axis_decompose(S: Syndrome) -> ErrorSet:
    """Recover the error locations from the tensor slices along the
    coordinate axes, over the base field.

    With K the pivots of the constant slice T_0 (code.constant_slice), so
    that T_0[K, K] is invertible, the matrices
    M_v = T_v[K,K] T_0[K,K]^{-1} equal A D_v A^{-1}, where the columns of A
    are the tensor powers e^{<=r} of the error points at rows K and D_v
    holds their v-th coordinates; this needs the tensor powers to be
    independent, as both paper decoders do.  The vector
    T_0[K, 0] = sum_e w_e e^{<=r}[K] has a nonzero component along every
    column of A, so splitting it one variable at a time into its
    eigencomponents under each M_v leaves one eigenvector per error point,
    whose eigenvalues are that point's coordinates.  Only T_0 is built in
    full; each T_v is read off the syndrome at [K, K] alone, and the split
    runs on packed vectors against the quotient stack [I; M_1; ...; M_m]
    (_quotient_stack, _axis_points), the same loop for every p.

    Raises DecodingFailure unless the splits end in exactly rank(T_0)
    common eigenvectors of every M_v with distinct eigenvalue tuples;
    callers check the set against the syndrome (polyspace.run_decoder).
    """
    params = S.params
    K, y, Q = _quotient_stack(S)
    if not K:
        return ErrorSet(params, ())
    points = _axis_points(S, y, Q)
    try:
        return ErrorSet(params, points)
    except ValueError as exc:
        raise DecodingFailure(f"invalid point set: {exc}") from exc


def _check_leaf_count(n: int, t: int) -> None:
    if n > t:
        raise DecodingFailure(f"{n} eigencomponents for a rank-{t} constant slice")


_ZERO_START = "zero start vector: the constant slice's first column vanishes on its row basis"
_NOT_ONE_DIMENSIONAL = "a joint eigenspace of the axis matrices is not one-dimensional"
_NOT_COMMON = "a split component is not a common eigenvector of the axis matrices"


def _axis_points(S: Syndrome, y: tuple, Q: list[int]) -> list[tuple]:
    """axis_decompose's split, on vectors packed one entry per slot of an
    int (slot k is row K[k]) in the layout of the quotient stack
    Q = [I; M_1; ...; M_m] (_quotient_stack).  The product of a vector y
    is one dot, Q y = [y; M_1 y; ...; M_m y] in blocks of t slots: linear
    in y, and y is its block 0.

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
    m, p, t = S.params.m, S.params.p, len(y)
    layout = slot_layout(S.params.field)
    bits, dot = layout.bits, layout.dot
    mask = (1 << bits * t) - 1
    shifts = range(t * bits, (m + 1) * t * bits, t * bits)
    idempotents = _idempotents(p)

    multiples_of = ((lambda y: (0, y)) if p == 2
                    else (lambda y: tuple(dot((y,), c) for c in range(p))))

    prod = dot(Q, layout.pack(y))
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
                prods.append(dot(Q, prods[-1] >> shift & mask))
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
