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
Stetter 1995).  A restriction works on a t-row basis Phi of it, where
V's basis has N - t rows of N = |M_{r+1}| entries.  run_decoder builds
no V: its Phi is H[K, :], K the pivots of the constant slice's rref
(code.constant_slice, the tensor decoders' front half).  Given V, the
root finders read Phi off V's rref (_annihilator).

Restricting to the affine subspace A = {x : C x = c} keeps the
functionals alpha^T Phi that vanish on every reduce((C_j x - c_j) B),
deg B <= r.  Those products span the polynomials of degree <= r+1 that
vanish on A, so the alpha count is the codimension of V restricted to A
(PolySpace.affine_image), and on a full vanishing space it is the number
of error points in A: the points' degree <= r tensor powers are
independent, which forces alpha to vanish off them.  At one alpha the
functional phi = alpha^T Phi is a multiple of the evaluation at the point
e, and e_v = phi(x_v) / phi(1) (_read_point).

Both root finders split Phi over the p cosets of one linear form per
level and prune the cosets without an alpha (_split): det_find_roots on
x_{m-1}, ..., x_0, find_roots on m random independent forms, the random
hyperplanes of Valiant-Vazirani isolation with every coset kept.
"""

from __future__ import annotations

import warnings
from functools import lru_cache, partial
from itertools import chain
from operator import itemgetter

from .code import (CodeParams, DecodingFailure, ErrorSet, Syndrome, constant_slice, explains,
                   moment_matrix)
from .fields import prime_field
from .jennrich import axis_decompose, decompose
from .linalg import FFMatrix, left_kernel, rank, rref, rref_nullspace, slot_layout
from .polynomials import PolySpace, monomial_count, monomial_index


class StructuralInconsistencyError(DecodingFailure):
    """A restricted space's codimension disagrees with the points found
    under it: the input space was not a full vanishing space of a set with
    independent tensor powers."""


class IsolationBoundWarning(UserWarning):
    """t exceeds the comfortable isolation-lemma hypothesis for this m."""


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


def _products(phi: list[int], idx, low: int, layout):
    """form -> the product x -> x^T G_l, the layout's dot with G_l's t
    rows, for the t x |M_r| matrix G_l whose column B is Phi at
    reduce(l B), for the linear form l = C x given by its row C.  G_l is
    sum_v C_v G_{x_v}, each G_{x_v} Phi's entries at var_mul(v), the
    shifts of the low monomials B, row i's at slot i low; each G_{x_v},
    and each form's product, is built once, when first asked for."""
    t, width = len(phi), low * layout.bits
    mask, rows = (1 << width) - 1, [layout.unpack(row, idx.size) for row in phi]

    @lru_cache(maxsize=None)
    def shifted(v: int) -> int:
        pick = itemgetter(*idx.var_mul(v))
        return layout.pack(list(chain.from_iterable(map(pick, rows))))

    @lru_cache(maxsize=None)
    def product(form: int):
        blocks = [shifted(v) if c else 0 for v, c in enumerate(layout.unpack(form, idx.m))]
        g = layout.dot(layout.vectors(blocks), form)
        return partial(layout.dot, layout.vectors([g >> i * width & mask for i in range(t)]))
    return product


def _restrict(lin: list[int], c: int, nodes: list[int], low: int, layout) -> list[int]:
    """The nodes (_split) of the coset {l = c} in the span of these: the
    functionals alpha^T Phi among theirs that vanish on every
    reduce((l - c) B), deg B <= r.  They are beta^T nodes for the beta in
    the left kernel of the rows alpha^T G_l - c alpha^T Phi[:, M_r], with
    the alpha^T G_l in lin (_products)."""
    mask, neg = (1 << low * layout.bits) - 1, layout.field.neg(c)
    rows = [layout.axpy(g, neg, x & mask) for g, x in zip(lin, nodes)] if c else lin
    vectors = layout.vectors(nodes)
    return [layout.dot(vectors, b) for b in left_kernel(layout, rows, low)]


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


def _split(phi: list[int], idx, forms: list[int]) -> ErrorSet:
    """All common zeroes of a full vanishing space V, by splitting Phi, any
    basis of V^perp packed over idx, over the p cosets {l_j = c} of each
    linear form l_j in turn (_descend).  A node at depth j, a coset of
    l_0, ..., l_{j-1}, holds the alpha whose alpha^T Phi vanish on it,
    each packed as [alpha^T Phi[:, M_r] | alpha].  For independent forms
    the last cosets are points, so on a full vanishing space the answer
    is exact."""
    layout = slot_layout(prime_field(idx.p))
    low = monomial_count(idx.m, idx.t - 1, idx.p)
    nodes, product = phi, None
    if len(phi) > 1:  # t <= |M_r|, so here r >= 1 and Phi[:, M_r] holds every x_v
        width = low * layout.bits
        nodes = [row & (1 << width) - 1 | 1 << i * layout.bits << width
                 for i, row in enumerate(phi)]
        product = _products(phi, idx, low, layout)
    points = _descend(nodes, forms, product, idx, low, layout) if nodes else []
    return ErrorSet(CodeParams(idx.m, idx.t - 1, idx.p), tuple(points))


def _descend(nodes: list[int], forms: list[int], product, idx, low: int, layout) -> list[tuple]:
    """The points under the nodes of a coset (_split), split on forms[0]
    with its products with the nodes' alpha taken once and shared by the
    p children (_restrict).  A child without an alpha is pruned, and a
    node with one reads its point off alpha^T Phi (_read_point), a point
    of its coset, so distinct nodes read distinct points.  The alpha
    counts are the codimensions of V on the cosets, conserved down the
    tree on valid inputs; a mismatch, a codim-1 node without a point, or
    more than one alpha after the last form raises
    StructuralInconsistencyError."""
    if len(nodes) == 1:
        e = _read_point(nodes[0], idx, layout)
        if e is None:
            raise StructuralInconsistencyError("codimension 1 but no unique read-off point")
        return [e]
    if not forms:
        raise StructuralInconsistencyError("a point with codimension > 1")
    width = low * layout.bits
    lin, out = list(map(product(forms[0]), [x >> width for x in nodes])), []
    for c in range(idx.p):
        child = _restrict(lin, c, nodes, low, layout)
        out += _descend(child, forms[1:], product, idx, low, layout) if child else []
    if len(out) != len(nodes):  # a subtree reads one point per alpha
        raise StructuralInconsistencyError(
            f"branch codimensions sum to {len(out)}, parent has {len(nodes)}")
    return out


def _forms(idx, rng=None) -> list[int]:
    """The linear forms of the split, packed: x_{m-1}, ..., x_0 for det
    (rng None), else the linear parts of m random independent forms, one
    _draw_forms draw."""
    m, layout = idx.m, slot_layout(prime_field(idx.p))
    if rng is None:
        return [1 << k * layout.bits for k in reversed(range(m))]
    linear = (1 << m * layout.bits) - 1
    return [form & linear for form in _draw_forms(m, m, rng, layout)]


def det_find_roots(V: PolySpace) -> ErrorSet:
    """All common zeroes of a full vanishing space, deterministically: the
    split (_split) on the last unfixed variable's value, x_{m-1}, ...,
    x_0, each branch x_k = c one restriction of V's annihilator."""
    return _split(_annihilator(V), V.index, _forms(V.index))


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


def _draw_forms(m: int, l: int, rng, layout) -> list[int]:
    """l uniform forms [C_j | -c_j] in the packed layout of F_p, each one
    rng.randrange(p^(m+1)) read as its base-p digits (over F_2 the int is
    the packed form), redrawn until the C_j are independent."""
    p = layout.field.order
    size, low = p ** (m + 1), (1 << m * layout.bits) - 1
    while True:
        forms = [rng.randrange(size) for _ in range(l)]
        if p > 2:
            forms = [layout.pack([x // p ** v % p for v in range(m + 1)]) for x in forms]
        if rank(FFMatrix(layout, l, m, [form & low for form in forms])) == l:
            return forms


def vv_sample(m: int, t: int, rng, p: int = 2):
    """l = isolation_codim(t, m, p) uniformly random linearly independent
    constraint vectors and uniform constants (_draw_forms); each point of
    a hidden t-set satisfies all constraints alone with probability
    >= 1/(7t) at comfortable sizes.

    When t exceeds p^{m/2}/100 the lemma hypothesis is not met; that is
    reported as a warning and sampling proceeds."""
    if (100 * t) ** 2 > p ** m:
        warnings.warn(f"isolation bound hypothesis violated: t={t} > p^(m/2)/100 at m={m}",
                      IsolationBoundWarning, stacklevel=2)
    layout = slot_layout(prime_field(p))
    rows = [layout.unpack(form, m + 1)
            for form in _draw_forms(m, isolation_codim(t, m, p), rng, layout)]
    return tuple(row[:m] for row in rows), tuple(-row[m] % p for row in rows)


def find_roots(V: PolySpace, rng) -> ErrorSet:
    """All common zeroes of a full vanishing space, by the split (_split)
    on m random independent forms (_forms): the random affine
    hyperplanes of Valiant-Vazirani isolation, one per level, with every
    coset kept, so no draw is wasted and the answer is exact."""
    return _split(_annihilator(V), V.index, _forms(V.index, rng))


# ---------------------------------------------------------------------------
# End-to-end decoding.


# The largest p run_decoder takes (a word file's symbol is one byte).  Every
# decoder loops over F_p; the axis split's time grows as p^2 (README).
MAX_PRIME = 251

# Modes of each decoder by name; the first is its deterministic default.
DECODER_MODES = {"jennrich": ("axis", "rand", "derand"),
                 "polyspace": ("det", "rand")}


def resolve_mode(algorithm: str, mode: str | None, p: int) -> str:
    """The mode a decoder runs in over F_p: the given one, checked against
    the algorithm, or its deterministic default when mode is None.
    Raises ValueError for p above MAX_PRIME."""
    if p > MAX_PRIME:
        raise ValueError(f"p = {p} is above MAX_PRIME = {MAX_PRIME}")
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
    """Locate the error set (run_decoder) and return it with the residual
    syndrome.  run_decoder returns only a set that explains S
    (code.explains: over odd p with nonzero magnitudes), so the located
    errors cancel S exactly and the residual is the zero syndrome; no
    tensor power is subtracted and no magnitude is kept."""
    E = run_decoder(S, algorithm, mode, rng, ext_degree)
    return E, Syndrome(S.params, (0,) * len(S.entries))


def run_decoder(S: Syndrome, algorithm: str = "jennrich", mode: str | None = None,
                rng=None, ext_degree: int | None = None) -> ErrorSet:
    """Dispatch to one of the decoders by name; mode None picks the
    algorithm's deterministic mode (jennrich axis, polyspace det).
    Returns only a set that explains S (code.explains), else raises
    DecodingFailure.  Raises ValueError for p above MAX_PRIME."""
    mode = resolve_mode(algorithm, mode, S.params.p)
    if mode == "rand" and rng is None:
        raise ValueError(f"randomized {algorithm} decoding needs an rng")
    if algorithm == "polyspace":  # Phi = H[K, :], a basis of V^perp on a valid S
        index = monomial_index(S.params.m, S.params.r + 1, S.params.p)
        phi = moment_matrix(S, constant_slice(S), range(index.size)).packed_rows()
        E = _split(phi, index, _forms(index, rng if mode == "rand" else None))
    elif mode == "axis":
        E = axis_decompose(S)
    else:  # decompose checks each draw against S before it returns
        return decompose(S, "randomized" if mode == "rand" else "derandomized",
                         rng, ext_degree)
    if not explains(S, E):
        raise DecodingFailure("nonzero residual after correction" if S.params.p == 2
                              else "located set cannot explain the syndrome")
    return E
