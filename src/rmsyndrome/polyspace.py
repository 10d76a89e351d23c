"""Polynomial-space syndrome decoder.

From the syndrome alone, space_roots recovers the linear space V of all
reduced polynomials of degree <= r+1 vanishing on the error set: the
nullspace of the syndrome's moment matrix H[M', M] = s_{reduce(M M')}
(code.moment_matrix, whose column selections are also the Jennrich
tensor slices T_v = H[:, shift_v]), because H a = 0 says the weighted
evaluations of A on the error set are orthogonal to the independent
tensor powers.

The error set is then the set of common zeroes of V.  find_roots isolates
one point at a time in a random affine subspace of codimension ~ log2(t)
(Valiant-Vazirani): it substitutes a parametrization of the sampled
subspace into V, reads the point off with find_unique_root, and repeats.
det_find_roots instead recurses on the last variable's value, pruning
branches whose restricted space has codimension zero.  Every
restriction is one affine substitution (PolySpace.affine_image).
"""

from __future__ import annotations

import math
import warnings

from .code import (CodeParams, DecodingFailure, ErrorSet, Syndrome, explains,
                   moment_matrix, tensor_power)
from .fields import prime_field
from .jennrich import axis_decompose, decompose
from .linalg import FFMatrix, nullspace_basis, rank
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
    reduce(M * M')."""
    m, r, p = S.params.m, S.params.r, S.params.p
    index = monomial_index(m, r + 1, p)
    H = moment_matrix(S, range(monomial_count(m, r, p)), range(index.size))
    return PolySpace.from_matrix(index, nullspace_basis(H))


def find_unique_root(V: PolySpace) -> tuple | None:
    """If for every variable exactly one of X_j - a (a in F_p) lies in V,
    the point read off those constants; otherwise None.

    Recovers the point when V is the full vanishing space of a single
    point."""
    idx = V.index
    p = idx.p
    bits = V.basis.layout.bits
    point = []
    for j in range(idx.m):
        var_pos = idx.position[p ** j]
        hit = None
        for a in range(p):
            vec = 1 << var_pos * bits | -a % p  # X_j - a, packed
            if V.contains_vec(vec):
                if hit is not None:
                    return None
                hit = a
        if hit is None:
            return None
        point.append(hit)
    return tuple(point)


# ---------------------------------------------------------------------------
# Valiant-Vazirani isolation.


def isolation_codim(t: int, m: int) -> int:
    """l = ceil(log2 t) + 1, clamped to [1, m-1]: the constraint count
    satisfies 2 <= 2^l / t < 4 before clamping."""
    if t < 1:
        raise ValueError("need t >= 1")
    l = max(1, math.ceil(math.log2(t)) + 1)
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
    l = isolation_codim(t, m)
    f = prime_field(p)
    while True:
        vecs = [tuple(rng.randrange(p) for _ in range(m)) for _ in range(l)]
        if rank(FFMatrix.from_rows(f, vecs)) == l:
            break
    consts = tuple(rng.randrange(p) for _ in range(l))
    return tuple(vecs), consts


def find_roots(V: PolySpace, rng, max_iterations: int | None = None) -> ErrorSet:
    """All common zeroes of a full vanishing space, by repeated random
    isolation; finds the whole set with probability >= 0.99 within the
    default budget of 100 t log2(t) iterations.

    Each iteration samples an affine subspace {x : Cx = c} of codimension
    l (vv_sample) and substitutes a parametrization of the sampled
    subspace, x = x0 + N^T y, into V.  Both parts come from one nullspace
    of [C | -c]: its row for the last column is (x0, 1), with x0 one
    solution, and its other rows are (n, 0) with the n a basis of the
    nullspace of C.  The image is the vanishing space of the points in
    the subspace; when exactly one point lies there, find_unique_root
    reads off its y.

    Terminates early once codim(V) distinct points are found; if the
    budget runs out first, the partial set is returned with a warning."""
    idx = V.index
    m, p = idx.m, idx.p
    params = CodeParams(m, idx.t - 1, p)
    t = V.codim
    if t == 0:
        return ErrorSet(params, ())
    direct = find_unique_root(V)
    if direct is not None:
        return ErrorSet(params, (direct,))
    budget = max_iterations
    if budget is None:
        budget = math.ceil(100 * t * math.log2(t)) if t > 1 else 0
    f = prime_field(p)
    found: set = set()
    for _ in range(budget):
        vecs, consts = vv_sample(m, t, rng, p)
        ns = nullspace_basis(FFMatrix.from_rows(
            f, [v + (f.neg(c),) for v, c in zip(vecs, consts)]))
        # C has rank l, so the last column is free and its row is (x0, 1)
        x0 = ns.row(ns.nrows - 1)[:m]
        Nt = ns.submatrix(range(ns.nrows - 1), range(m)).transpose()
        cand = find_unique_root(V.affine_image(Nt, x0))
        if cand is None:
            continue
        e = tuple(f.add(nv, xv) for nv, xv in zip(Nt.mat_vec(cand), x0))
        if e in found:
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
    recursing on the last variable's value and pruning codimension-zero
    branches.  Codimension counts are conserved down the tree on valid
    inputs; a mismatch raises StructuralInconsistencyError."""
    idx = V.index
    params = CodeParams(idx.m, idx.t - 1, idx.p)
    points = _det_rec(V, idx.m, idx.p)
    return ErrorSet(params, tuple(points))


def _det_rec(space: PolySpace, m_left: int, p: int) -> list[tuple]:
    t = space.codim
    if t == 0:
        return []
    if m_left == 0:
        if t != 1:
            raise StructuralInconsistencyError(
                "zero-variable space with codimension > 1")
        return [()]
    if t == 1:
        e = find_unique_root(space)
        if e is None:
            raise StructuralInconsistencyError(
                "codimension 1 but no unique read-off point")
        return [e]
    out: list[tuple] = []
    branch_total = 0
    for c in range(p):
        sub = space.restrict_last_const(c)
        tc = sub.codim
        if tc:
            sub_points = _det_rec(sub, m_left - 1, p)
            out.extend(q + (c,) for q in sub_points)
            branch_total += tc
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
        return det_find_roots(V) if mode == "det" else find_roots(V, rng)
    if mode == "axis":
        return axis_decompose(S)
    if mode == "rand":
        return decompose(S, "randomized", rng, ext_degree)
    return decompose(S, "derandomized", ext_degree=ext_degree)

