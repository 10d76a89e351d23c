"""Reduced multivariate polynomials of bounded degree over F_p.

A monomial is an exponent vector of length m with every exponent < p
(reduced: X^p = X on F_p points), keyed by one integer: the vector read
as a little-endian base-p number, the same encoding as points
(point_to_int).  x_v has key p^v; over F_2 the key is the support mask.
A MonomialIndex fixes the ordering of all monomials of total degree <= t:
graded by degree, descending lexicographic within a degree, constant
monomial at position 0.  Over F_2 this is the usual subset order: within
degree d, supports appear in itertools.combinations order.

MultilinearPoly is a coefficient vector aligned to an index; PolySpace is
a linear space of such polynomials whose basis matrix is kept in reduced
row echelon form, so equal spaces compare equal.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice
from math import comb
from operator import mul

from .fields import prime_field
from .linalg import FFMatrix, rank, rref, slot_layout


def point_to_int(point, p: int) -> int:
    """A point of F_p^m, or an exponent vector with entries in [0, p), as
    a little-endian base-p number: the enumeration number of a point, the
    key of a monomial."""
    acc = 0
    for c in reversed(point):
        acc = acc * p + c
    return acc


def int_to_point(x: int, m: int, p: int) -> tuple[int, ...]:
    out = [0] * m
    for i in range(m):
        x, out[i] = divmod(x, p)
    return tuple(out)


def reduce_exponent(e: int, p: int) -> int:
    """Reduce an exponent with X^p = X: 0 stays 0, else into [1, p-1]."""
    if e <= 0:
        return 0
    return (e - 1) % (p - 1) + 1 if p > 2 else 1


class MonomialIndex:
    """All reduced monomials in m variables of total degree <= t over F_p.

    Monomial i is keyed by keys[i], its exponent vector read as a
    little-endian base-p number (point_to_int): x_v has key p^v, and over
    F_2 the key is the support mask.  position maps a key back to i.  The
    exponent tuples themselves (monomials) are built on first read."""

    __slots__ = ("m", "t", "p", "keys", "position", "_monomials",
                 "_var_mul", "_parents")

    def __init__(self, m: int, t: int, p: int = 2):
        if m < 0 or t < 0:
            raise ValueError("m and t must be nonnegative")
        self.m = m
        self.t = t
        self.p = p
        # graded, descending lex within a degree: over F_2 the supports in
        # combinations order; over odd p the keys over variables v..m-1
        # by degree, grown one variable at a time from the last
        top = min(t, m * (p - 1))
        if p == 2:
            bits = [1 << v for v in range(m)]
            keys = [key for d in range(top + 1) for key in map(sum, combinations(bits, d))]
        else:
            layer = [[0]] + [[] for _ in range(top)]
            for q in reversed([p ** v for v in range(m)]):
                layer = [[e * q + key for e in range(min(p - 1, d), -1, -1)
                          for key in layer[d - e]] for d in range(top + 1)]
            keys = [key for block in layer for key in block]
        self.keys = tuple(keys)
        self.position = {key: i for i, key in enumerate(keys)}
        self._monomials = None
        self._var_mul: dict[int, tuple] = {}
        self._parents = None

    @property
    def monomials(self) -> tuple:
        """The exponent tuples, for polynomial I/O: int_to_point of the keys."""
        if self._monomials is None:
            m, p = self.m, self.p
            self._monomials = tuple(int_to_point(key, m, p) for key in self.keys)
        return self._monomials

    @property
    def size(self) -> int:
        return len(self.keys)

    def degree_of(self, i: int) -> int:
        return sum(int_to_point(self.keys[i], self.m, self.p))

    def var_mul(self, v: int) -> tuple:
        """Map position i to the position of reduce(M_i * X_v), or -1 when
        the product exceeds the degree bound: X_v adds p^v to the key,
        except that X_v^(p-1) X_v = X_v subtracts (p-2) p^v (over F_2,
        key | 1 << v)."""
        got = self._var_mul.get(v)
        if got is None:
            p, pos, q = self.p, self.position, self.p ** v
            got = self._var_mul[v] = tuple([
                pos.get(key - (p - 2) * q if key // q % p == p - 1 else key + q, -1)
                for key in self.keys])
        return got

    def parents(self) -> tuple:
        """For each non-constant monomial: (position of M / X_v, v) where v
        is the lowest variable with nonzero exponent, the lowest nonzero
        base-p digit of the key (over F_2, its lowest set bit).  Entry 0
        is None."""
        if self._parents is None:
            p, pos, keys = self.p, self.position, self.keys[1:]
            if p == 2:
                low = [(key & -key).bit_length() - 1 for key in keys]
            else:
                low = [next(v for v, e in enumerate(int_to_point(key, self.m, p)) if e)
                       for key in keys]
            self._parents = (None, *[(pos[key - p ** v], v) for key, v in zip(keys, low)])
        return self._parents

    def values(self, one, var, prod) -> list:
        """One value per monomial by one walk down parents(): entry 0 is
        `one`, entry i is prod(values[parent_i], var[v_i]).  With a point
        as var and the product as prod, these are the monomials' values
        at the point, unreduced."""
        out = [one]
        append = out.append
        for parent, v in islice(self.parents(), 1, None):
            append(prod(out[parent], var[v]))
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, MonomialIndex) and other.m == self.m
                and other.t == self.t and other.p == self.p)

    def __hash__(self):
        return hash((self.m, self.t, self.p))

    def __repr__(self) -> str:
        return f"MonomialIndex(m={self.m}, t={self.t}, p={self.p})"


@lru_cache(maxsize=None)
def monomial_index(m: int, t: int, p: int = 2) -> MonomialIndex:
    return MonomialIndex(m, t, p)


def monomial_count(m: int, t: int, p: int = 2) -> int:
    """monomial_index(m, t, p).size without building the index: the sum of
    the coefficients of ((1 - x^p) / (1 - x))^m up to degree t, that is
    the coefficient of x^t in (1 - x^p)^m / (1 - x)^(m+1)."""
    return sum((-1) ** j * comb(m, j) * comb(t - j * p + m, m)
               for j in range(min(m, t // p) + 1))


@lru_cache(maxsize=None)
def moment_positions(m: int, r: int, p: int = 2) -> tuple[tuple[int, ...], ...]:
    """Entry (i, j) is the position of reduce(M_i * M_j) in
    monomial_index(m, 2r + 1, p), for M_i of degree <= r and M_j of degree
    <= r + 1: the index pattern of the moment (Hankel) matrix
    H[i, j] = s[reduce(M_i M_j)] of a syndrome s.

    Over F_2 the product's key is the or of the two keys.  Over odd p the
    table is one walk down the rows (MonomialIndex.values): row i is its
    parent's row shifted by x_v (var_mul), and row 0 is range(|M_{r+1}|),
    since the columns are a prefix of the graded target index."""
    rows, cols, target = (monomial_index(m, d, p) for d in (r, r + 1, 2 * r + 1))
    if p == 2:
        pos = target.position
        return tuple(tuple(map(pos.__getitem__, [a | b for b in cols.keys]))
                     for a in rows.keys)
    return tuple(rows.values(tuple(range(cols.size)), list(map(target.var_mul, range(m))),
                             lambda row, shift: tuple(map(shift.__getitem__, row))))


class MultilinearPoly:
    """A reduced polynomial as a coefficient vector over a MonomialIndex."""

    __slots__ = ("index", "coeffs")

    def __init__(self, index: MonomialIndex, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != index.size:
            raise ValueError("coefficient vector does not match the index")
        self.index = index
        self.coeffs = coeffs

    @classmethod
    def zero(cls, index) -> "MultilinearPoly":
        return cls(index, (0,) * index.size)

    @classmethod
    def constant(cls, index, c: int) -> "MultilinearPoly":
        v = [0] * index.size
        v[0] = c % index.p
        return cls(index, v)

    @classmethod
    def variable(cls, index, v: int) -> "MultilinearPoly":
        out = [0] * index.size
        out[index.position[index.p ** v]] = 1
        return cls(index, out)

    @classmethod
    def from_terms(cls, index, terms: dict) -> "MultilinearPoly":
        out = [0] * index.size
        for exps, c in terms.items():
            # a key names a monomial only for m exponents in [0, p)
            if len(exps) != index.m or not all(0 <= e < index.p for e in exps):
                raise KeyError(tuple(exps))
            out[index.position[point_to_int(exps, index.p)]] = c % index.p
        return cls(index, out)

    @property
    def field(self):
        return prime_field(self.index.p)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def degree(self) -> int:
        # the index is graded, so the last nonzero coefficient has top degree
        last = next((i for i in reversed(range(self.index.size)) if self.coeffs[i]), -1)
        return -1 if last < 0 else self.index.degree_of(last)

    def evaluate(self, point) -> int:
        """The value at a point: the coefficients dotted with the
        monomials' values there (MonomialIndex.values)."""
        if len(point) != self.index.m:
            raise ValueError("point dimension mismatch")
        return sum(map(mul, self.coeffs, self.index.values(1, point, mul))) % self.index.p

    def __add__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        if other.index != self.index:
            raise ValueError("index mismatch")
        f = self.field
        return MultilinearPoly(self.index, (f.add(a, b) for a, b
                                            in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        if other.index != self.index:
            raise ValueError("index mismatch")
        f = self.field
        return MultilinearPoly(self.index, (f.sub(a, b) for a, b
                                            in zip(self.coeffs, other.coeffs)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultilinearPoly)
                and other.index == self.index and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.index, self.coeffs))

    def packed(self) -> int:
        """The coefficient vector packed in the field's row layout
        (linalg.slot_layout), as a row of a PolySpace basis."""
        return slot_layout(self.field).pack(self.coeffs)

    @classmethod
    def from_packed(cls, index, packed: int) -> "MultilinearPoly":
        return cls(index, slot_layout(prime_field(index.p)).unpack(packed, index.size))

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        return [(self.index.monomials[i], c)
                for i, c in enumerate(self.coeffs) if c]

    def __repr__(self) -> str:
        return f"MultilinearPoly({self.terms()!r})"


def reduce_terms(terms: dict, index: MonomialIndex) -> MultilinearPoly:
    """Reduce a raw exponent-vector polynomial (exponents >= p allowed)
    using X^p = X; evaluation on F_p^m is unchanged."""
    p = index.p
    out = [0] * index.size
    for exps, c in terms.items():
        if len(exps) != index.m:
            raise ValueError("exponent vector length mismatch")
        red = tuple(reduce_exponent(e, p) for e in exps)
        if sum(red) > index.t:
            raise ValueError("reduced monomial exceeds the index degree bound")
        pos = index.position[point_to_int(red, p)]
        out[pos] = (out[pos] + c) % p
    return MultilinearPoly(index, out)


# ---------------------------------------------------------------------------
# Affine substitution X -> A Y + b.


def substitution_matrix(index: MonomialIndex, mat_rows, b) -> FFMatrix:
    """Matrix S whose row i is the coefficient vector of reduce(M_i(Ay+b))
    over monomial_index(k, index.t, index.p), where A is the m x k matrix
    with the given rows, of full column rank (k = m: a change of
    coordinates; k < m: a parametrization of an affine subspace).  The
    substitution acts on coefficient vectors as v -> v @ S.

    The rows are one walk down the index (MonomialIndex.values) over
    packed rows (linalg.slot_layout), the same for every p: row i is its
    parent's row, of degree < t, times the linear form l_v = b_v + A_v y,
    and the product with l_v is the linear map whose column s is
    b_v e_s + sum_u A_vu e_{reduce(y^s y_u)} (_product_units), which the
    parent's row combines by its entries (layout.dot)."""
    p = index.p
    layout = slot_layout(prime_field(p))
    target = monomial_index(len(mat_rows[0]) if mat_rows else 0, index.t, p)
    units, low = _product_units(target)
    width = target.size * layout.bits
    mask, dot = (1 << width) - 1, layout.dot
    forms = []
    for bv, row in zip(b, mat_rows):
        # the columns of the product with l_v, column s in block s
        cols = dot(units, layout.pack([c % p for c in (bv, *row)]))
        forms.append(layout.vectors([cols >> s * width & mask for s in range(low)]))
    rows = index.values(1, forms, lambda row, form: dot(form, row))
    return FFMatrix.from_packed_rows(layout.field, rows, target.size)


@lru_cache(maxsize=None)
def _product_units(target: MonomialIndex) -> tuple:
    """(units, low): the products of the target index's low monomials y^s
    of degree < t with 1, y_0, ..., y_{k-1} as packed units, units[0]
    holding e_s and units[1 + u] e_{reduce(y^s y_u)}, each in block s
    (slots [s n, (s + 1) n), n = target.size) of one int.  Combined by
    (b, a) (layout.dot), they give every column of the product with the
    linear form b + a.y, column s in block s.  Two products can be one
    monomial (over F_2, (y_0 y_1) y_0 = (y_0 y_1) y_1), so the units add
    by dot, never by or."""
    layout, n = slot_layout(prime_field(target.p)), target.size
    low = monomial_count(target.m, target.t - 1, target.p)
    maps = [range(low), *map(target.var_mul, range(target.m))]
    units = [sum(1 << (s * n + j) * layout.bits for s, j in zip(range(low), vm))
             for vm in maps]
    return layout.vectors(units), low


def _affine_map(index: MonomialIndex, mat, b):
    """The rows of A and the k-variable target index of the substitution
    x = A y + b into polynomials over index; A must be m x k of full
    column rank and b of length m."""
    mat_rows = mat.rows() if isinstance(mat, FFMatrix) else [tuple(r) for r in mat]
    k = len(mat_rows[0]) if mat_rows else 0
    A = FFMatrix.from_rows(prime_field(index.p), mat_rows)
    if len(mat_rows) != index.m or len(b) != index.m or rank(A) != k:
        raise ValueError("affine substitution requires an m x k matrix of "
                         "full column rank and a length-m shift")
    return mat_rows, monomial_index(k, index.t, index.p)


# ---------------------------------------------------------------------------
# Spaces of polynomials.


class PolySpace:
    """A linear space of reduced polynomials; basis rows kept in rref."""

    __slots__ = ("index", "basis", "pivots")

    def __init__(self, index: MonomialIndex, basis: FFMatrix, pivots):
        if basis.ncols != index.size:
            raise ValueError("basis width does not match the index")
        self.index = index
        self.basis = basis
        self.pivots = tuple(pivots)

    @classmethod
    def from_matrix(cls, index, mat: FFMatrix) -> "PolySpace":
        R, rk, pivots = rref(mat)
        rows = R.packed_rows()[:rk]
        return cls(index, FFMatrix.from_packed_rows(mat.field, rows, mat.ncols), pivots)

    @classmethod
    def from_polys(cls, index, polys) -> "PolySpace":
        rows = [P.coeffs for P in polys]
        if not rows:
            return cls.empty(index)
        return cls.from_matrix(index, FFMatrix.from_rows(prime_field(index.p), rows))

    @classmethod
    def full(cls, index) -> "PolySpace":
        field = prime_field(index.p)
        return cls(index, FFMatrix.identity(field, index.size),
                   tuple(range(index.size)))

    @classmethod
    def empty(cls, index) -> "PolySpace":
        field = prime_field(index.p)
        return cls(index, FFMatrix.zeros(field, 0, index.size), ())

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def codim(self) -> int:
        return self.index.size - self.basis.nrows

    def polys(self) -> list[MultilinearPoly]:
        return [MultilinearPoly(self.index, self.basis.row(i))
                for i in range(self.basis.nrows)]

    def reduce_vector(self, vec: int) -> int:
        """The remainder of a packed coefficient vector (MultilinearPoly.packed)
        modulo the space: one row operation of the layout per nonzero entry
        of vec at a pivot, which the other rref basis rows leave alone."""
        p, layout, v = self.index.p, self.basis.layout, vec
        entries = layout.unpack(vec, self.index.size)
        for r, pc in enumerate(self.pivots):
            if entries[pc]:
                v = layout.axpy(v, p - entries[pc], self.basis.packed_row(r))
        return v

    def contains_vec(self, vec: int) -> bool:
        return not self.reduce_vector(vec)

    def contains(self, P: MultilinearPoly) -> bool:
        if P.index != self.index:
            raise ValueError("index mismatch")
        return self.contains_vec(P.packed())

    def affine_image(self, mat, b) -> "PolySpace":
        """The space {reduce(P(Ay + b)) : P in this space} over k
        variables, for an m x k matrix A of full column rank (k = m: a
        change of coordinates; k < m: the restriction to the affine
        subspace that y -> Ay + b parametrizes).

        When this space is the full vanishing space of a point set with
        linearly independent tensor powers, the image is the full
        vanishing space of the preimage {y : Ay + b in the set}; that
        containment is semantic and not checked here."""
        mat_rows, target = _affine_map(self.index, mat, b)
        S = substitution_matrix(self.index, mat_rows, tuple(b))
        return PolySpace.from_matrix(target, self.basis @ S)

    def restrict_last_zero(self) -> "PolySpace":
        """Substitute X_m = 0 and re-basis over m-1 variables."""
        return self.restrict_last_const(0)

    def restrict_last_const(self, c: int) -> "PolySpace":
        """Substitute X_m = c and re-basis over m-1 variables: the affine
        image under the embedding y -> (y, c)."""
        m = self.index.m
        if m == 0:
            raise ValueError("no variable left to restrict")
        embed = [tuple(int(u == v) for u in range(m - 1)) for v in range(m)]
        return self.affine_image(embed, (0,) * (m - 1) + (c % self.index.p,))

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolySpace) and other.index == self.index
                and other.basis == self.basis)

    def __hash__(self):
        return hash((self.index, self.basis))

    def __repr__(self) -> str:
        return (f"PolySpace(m={self.index.m}, t={self.index.t}, "
                f"p={self.index.p}, dim={self.dim})")


# ---------------------------------------------------------------------------
# Serialization (JSON-friendly structures).


def poly_to_obj(P: MultilinearPoly) -> list:
    return [[list(e), c] for e, c in P.terms()]


def poly_from_obj(obj, index: MonomialIndex) -> MultilinearPoly:
    """The polynomial of a list of [exponent vector, coefficient] pairs,
    each vector m non-negative ints and each coefficient an int; the
    coefficients of repeated vectors add, like those of vectors that
    reduce to the same monomial.  Raises MalformedInputError for any other
    shape."""
    from .code import MalformedInputError
    if not isinstance(obj, list) or not all(
            isinstance(term, list) and len(term) == 2
            and isinstance(term[0], list) and len(term[0]) == index.m
            and all(type(e) is int and e >= 0 for e in term[0])
            and type(term[1]) is int
            for term in obj):
        raise MalformedInputError(
            f"a polynomial must be a list of [exponents, coefficient] pairs "
            f"with {index.m} non-negative int exponents and an int coefficient")
    terms: dict = {}
    for e, c in obj:
        terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return reduce_terms(terms, index)


def space_to_obj(V: PolySpace) -> list:
    return [poly_to_obj(P) for P in V.polys()]
