"""Polynomial-space syndrome decoder.

From the syndrome alone, space_roots recovers the linear space V of all
reduced polynomials of degree <= r+1 vanishing on the error set: the
nullspace of the syndrome's moment matrix H[M', M] = s_{reduce(M M')}
(code.moment_matrix, whose column selections are also the Jennrich
tensor slices T_v = H[:, shift_v]), because H a = 0 says the weighted
evaluations of A on the error set are orthogonal to the independent
tensor powers.

The error set is the set of common zeroes of V, and both root finders
find it on V's annihilator V^perp, the functionals on polynomials of
degree <= r+1 that vanish on V: H's row space, spanned by the t
evaluations at the error points (the inverse-system view; Moller and
Stetter 1995).  A t-row basis Phi of it is read once off V's rref
(_annihilator), so a restriction costs an elimination of t rows, where
V's basis has N - t rows of N = |M_{r+1}| entries.

Restricting to the affine subspace A = {x : C x = c} keeps the
functionals alpha^T Phi that vanish on every reduce((C_j x - c_j) B),
deg B <= r.  Those products span the polynomials of degree <= r+1 that
vanish on A, so the alpha count is the codimension of V restricted to A
(PolySpace.affine_image), and on a full vanishing space it is the number
of error points in A: the points' degree <= r tensor powers are
independent, which forces alpha to vanish off them.  At one alpha the
functional phi = alpha^T Phi is a multiple of the evaluation at the point
e, and e_v = phi(x_v) / phi(1) (_read_point).

find_roots draws random subspaces of codimension about log_p(2t)
(Valiant-Vazirani) and reads off each point that one of them isolates.
det_find_roots branches on x_k = c for k = m-1, ..., 0, each child's Phi
the alpha-combinations of its parent's rows, and prunes the branches
without an alpha.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left

from .code import (CodeParams, DecodingFailure, ErrorSet, Syndrome, explains,
                   moment_matrix, tensor_power)
from .fields import prime_field
from .jennrich import axis_decompose, decompose
from .linalg import FFMatrix, rank, rref, rref_nullspace
from .polynomials import PolySpace, monomial_count, monomial_index


class StructuralInconsistencyError(DecodingFailure):
    """A restricted space's codimension disagrees with the points found
    under it: the input space was not a full vanishing space of a set with
    independent tensor powers."""


class IsolationBoundWarning(UserWarning):
    """t exceeds the comfortable isolation-lemma hypothesis for this m."""


class PartialRecoveryWarning(UserWarning):
    """The iteration budget ran out before codim(V) points were found."""


def space_roots(S: Syndrome) -> PolySpace:
    """The space of all reduced polynomials of degree <= r+1 that vanish
    on the error set: the nullspace of the syndrome's |M_r| x |M_{r+1}|
    moment matrix, whose (M', M) entry is the syndrome entry of
    reduce(M * M').

    V's rref is read off one rref of H with its columns reversed: read
    back in order, each of its t rows is 1 at its last nonzero entry and
    0 at the other rows' last entries, so its nullspace rows
    (linalg.rref_nullspace) are 1 at a free column and nonzero only right
    of it, V's rref rows.  V's N - t rows are never reduced."""
    m, r, p = S.params.m, S.params.r, S.params.p
    index = monomial_index(m, r + 1, p)
    n = index.size
    R, rk, pivots = rref(moment_matrix(S, range(monomial_count(m, r, p)), range(n - 1, -1, -1)))
    layout = R.layout
    rows = [layout.pack(layout.unpack(row, n)[::-1]) for row in R.packed_rows()[:rk]]
    last = [n - 1 - c for c in pivots]
    taken = set(last)
    return PolySpace(index, rref_nullspace(FFMatrix(layout, rk, n, rows), last),
                     [q for q in range(n) if q not in taken])


# ---------------------------------------------------------------------------
# The annihilator.


def _annihilator(V: PolySpace) -> list[int]:
    """A basis Phi of V^perp as packed rows over V's index, one per free
    column f of V's rref basis: e_f minus column f of the reduced rows at
    the pivots (linalg.rref_nullspace).  Its length is V.codim."""
    return rref_nullspace(V.basis, V.pivots).packed_rows()


def _blocks(phi: list[int], shifts, low: int, layout) -> list[int]:
    """Per shift s (a map of the index's positions), Phi's entries at
    s[B], B < low, packed as one vector: row i's in slots [i low,
    (i + 1) low)."""
    entries = [layout.unpack(row, len(shifts[0])) for row in phi]
    return [layout.pack([u[j] for u in entries for j in s[:low]]) for s in shifts]


def _restrict(blocks: list[int], forms, t: int, low: int, layout) -> list[int]:
    """The alpha (packed t-vectors) spanning the functionals alpha^T Phi
    that vanish on every reduce(l B), deg B <= r, for the linear forms l
    given by their coefficients on the shifts of blocks (_blocks; with
    shifts x_0, ..., x_{m-1}, 1, l = C_j x - c_j is the row [C_j | -c_j]).
    Row i of dot(blocks, l) is Phi_i at those products, so the alpha are
    the left nullspace of the t-row matrix G of these rows: the rows of
    the rref of [G | I] that are zero on G, read on I.  That rref stops
    once G has rank t."""
    w = layout.bits
    width = low * w
    mask, vectors = (1 << width) - 1, layout.vectors(blocks)
    gs = [layout.dot(vectors, form) for form in forms]
    n = len(gs) * low
    rows = []
    for i in range(t):
        row = 1 << (n + i) * w
        for j, g in enumerate(gs):
            row |= (g >> i * width & mask) << j * width
        rows.append(row)
    R, _, pivots = rref(FFMatrix(layout, t, n + t, rows))
    return [row >> n * w for row in R.packed_rows()[bisect_left(pivots, n):]]


def _read_point(phi: int, index, layout) -> tuple | None:
    """The point e_v = phi(x_v) / phi(1) of a packed functional over the
    index, or None when phi(1) = 0; when phi spans a restricted
    annihilator of codimension 1 this is the one common zero left."""
    p, w, mask = index.p, layout.bits, layout.mask
    one = phi & mask
    if not one:
        return None
    inv = pow(one, p - 2, p)
    return tuple((phi >> index.position[p ** v] * w & mask) * inv % p
                 for v in range(index.m))


# ---------------------------------------------------------------------------
# Valiant-Vazirani isolation.


def isolation_codim(t: int, m: int, p: int = 2) -> int:
    """The least l with p^l >= 2t, clamped to [1, m-1]: a random subspace
    of codimension l holds a given point with probability p^-l, and then
    holds none of the other t - 1 with probability about 1 - (t-1) p^-l
    >= 1/2.  Over F_2 this is l = ceil(log2 t) + 1."""
    if t < 1:
        raise ValueError("need t >= 1")
    l = 1
    while p ** l < 2 * t:
        l += 1
    return max(1, min(l, m - 1))


def vv_sample(m: int, t: int, rng, p: int = 2):
    """l uniformly random linearly independent constraint vectors and
    uniform constants; each point of a hidden t-set satisfies all
    constraints alone with probability >= 1/(7t) at comfortable sizes.

    When t exceeds p^{m/2}/100 the lemma hypothesis is not met; that is
    reported as a warning and sampling proceeds (the algorithm degrades
    gracefully and the decoders only need isolation often enough)."""
    if (100 * t) ** 2 > p ** m:
        warnings.warn(
            f"isolation bound hypothesis violated: t={t} > p^(m/2)/100 at m={m}",
            IsolationBoundWarning, stacklevel=2)
    l = isolation_codim(t, m, p)
    f, randrange = prime_field(p), rng.randrange
    while True:
        vecs = [tuple([randrange(p) for _ in range(m)]) for _ in range(l)]
        if rank(FFMatrix.from_rows(f, vecs)) == l:
            break
    consts = tuple([randrange(p) for _ in range(l)])
    return tuple(vecs), consts


def find_roots(V: PolySpace, rng, max_iterations: int | None = None) -> ErrorSet:
    """All common zeroes of a full vanishing space, by repeated random
    isolation; finds the whole set with probability >= 0.99 within the
    default budget of 100 t log2(t) iterations.

    Each iteration samples an affine subspace {x : Cx = c} (vv_sample)
    and restricts V's annihilator to it (_restrict): one elimination of
    the t x l |M_r| matrix whose columns combine Phi's columns at
    reduce(x_v B) and B by the rows [C_j | -c_j].  When exactly one alpha
    is left, _read_point reads the isolated point off alpha^T Phi; a point
    at which V does not vanish is dropped.

    Terminates early once codim(V) distinct points are found; if the
    budget runs out first, the partial set is returned with a warning."""
    idx = V.index
    m, p = idx.m, idx.p
    params = CodeParams(m, idx.t - 1, p)
    t = V.codim
    if t == 0:
        return ErrorSet(params, ())
    layout, phi = V.basis.layout, _annihilator(V)
    direct = _read_point(phi[0], idx, layout) if t == 1 else None
    if direct is not None:
        return ErrorSet(params, (direct,))
    budget = max_iterations
    if budget is None:
        budget = math.ceil(100 * t * math.log2(t)) if t > 1 else 0
    low = monomial_count(m, idx.t - 1, p)
    blocks = _blocks(phi, [*map(idx.var_mul, range(m)), range(idx.size)], low, layout)
    vectors = layout.vectors(phi)
    found: set = set()
    for _ in range(budget):
        vecs, consts = vv_sample(m, t, rng, p)
        alphas = _restrict(blocks, [layout.pack(v + (-c % p,)) for v, c in zip(vecs, consts)],
                           t, low, layout)
        if len(alphas) != 1:
            continue
        e = _read_point(layout.dot(vectors, alphas[0]), idx, layout)
        if e is None or e in found:
            continue
        if any(V.basis.mat_vec(tensor_power(e, idx.t, p))):
            continue  # possible only when V is not a full vanishing space
        found.add(e)
        if len(found) == t:
            break
    if len(found) < t:
        warnings.warn(
            f"isolation budget exhausted with {len(found)} of {t} roots found",
            PartialRecoveryWarning, stacklevel=2)
    return ErrorSet(params, tuple(found))


def det_find_roots(V: PolySpace) -> ErrorSet:
    """All common zeroes of a full vanishing space, deterministically, by
    recursing on the last unfixed variable's value on V's annihilator:
    the branch x_k = c keeps the alpha^T Phi that vanish on every
    reduce((x_k - c) B) (_restrict), and a branch without an alpha is
    pruned.  The alpha counts are the codimensions of V restricted to the
    branches, and on valid inputs they are conserved down the tree; a
    mismatch raises StructuralInconsistencyError."""
    idx = V.index
    params = CodeParams(idx.m, idx.t - 1, idx.p)
    low = monomial_count(idx.m, idx.t - 1, idx.p)
    points = _det_rec(_annihilator(V), idx.m, idx, low, V.basis.layout)
    return ErrorSet(params, tuple(points))


def _det_rec(phi: list[int], k: int, idx, low: int, layout) -> list[tuple]:
    t = len(phi)
    if t == 0:
        return []
    if t == 1:
        e = _read_point(phi[0], idx, layout)
        if e is None:
            raise StructuralInconsistencyError(
                "codimension 1 but no unique read-off point")
        return [e]
    if k == 0:
        raise StructuralInconsistencyError("zero-variable space with codimension > 1")
    k -= 1
    p = idx.p
    blocks = _blocks(phi, (idx.var_mul(k), range(idx.size)), low, layout)
    vectors = layout.vectors(phi)
    out: list[tuple] = []
    branch_total = 0
    for c in range(p):
        alphas = _restrict(blocks, [layout.pack((1, -c % p))], t, low, layout)
        out.extend(_det_rec([layout.dot(vectors, a) for a in alphas], k, idx, low, layout))
        branch_total += len(alphas)
    if branch_total != t:
        raise StructuralInconsistencyError(
            f"branch codimensions sum to {branch_total}, parent has {t}")
    return out


# ---------------------------------------------------------------------------
# End-to-end decoding.


# The largest p run_decoder takes (a word file's symbol is one byte).  Every
# decoder loops over F_p; the axis split's time grows as p^2 (README).
MAX_PRIME = 251

# Modes of each decoder by name; the first is its deterministic default.
DECODER_MODES = {"jennrich": ("axis", "rand", "derand"),
                 "polyspace": ("det", "rand")}


def resolve_mode(algorithm: str, mode: str | None = None) -> str:
    """The mode a decoder runs in: the given one, checked against the
    algorithm, or its deterministic default when mode is None."""
    modes = DECODER_MODES.get(algorithm)
    if modes is None:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if mode is None:
        return modes[0]
    if mode not in modes:
        raise ValueError(f"{algorithm} mode must be one of "
                         f"{', '.join(modes)}, got {mode!r}")
    return mode


def locate_and_correct(S: Syndrome, algorithm: str = "jennrich",
                       mode: str | None = None, rng=None,
                       ext_degree: int | None = None) -> tuple[ErrorSet, Syndrome]:
    """Locate the error set and cancel it from the syndrome.

    Over F_2 the located tensor powers are subtracted directly; over odd
    fields the unknown error magnitudes are solved first, on the t x t
    minor of the located degree <= r tensor powers (unique, since those
    are independent), and must all be nonzero.
    The residual is the zero syndrome: a located set that does not
    explain S (code.explains) raises DecodingFailure."""
    E = run_decoder(S, algorithm, mode, rng, ext_degree)
    if not explains(S, E):
        raise DecodingFailure("nonzero residual after correction" if S.params.p == 2
                              else "located set cannot explain the syndrome")
    return E, Syndrome(S.params, (0,) * len(S.entries))


def run_decoder(S: Syndrome, algorithm: str = "jennrich", mode: str | None = None,
                rng=None, ext_degree: int | None = None) -> ErrorSet:
    """Dispatch to one of the decoders by name; mode None picks the
    algorithm's deterministic mode (jennrich axis, polyspace det).
    Raises ValueError for p above MAX_PRIME."""
    mode = resolve_mode(algorithm, mode)
    if S.params.p > MAX_PRIME:
        raise ValueError(f"p = {S.params.p} is above MAX_PRIME = {MAX_PRIME}")
    if mode == "rand" and rng is None:
        raise ValueError(f"randomized {algorithm} decoding needs an rng")
    if algorithm == "polyspace":
        V = space_roots(S)
        if mode == "det":
            return det_find_roots(V)
        E = find_roots(V, rng)
        if len(E) < V.codim:
            raise DecodingFailure(f"isolation found {len(E)} of {V.codim} points")
        return E
    if mode == "axis":
        return axis_decompose(S)
    if mode == "rand":
        return decompose(S, "randomized", rng, ext_degree)
    return decompose(S, "derandomized", ext_degree=ext_degree)

