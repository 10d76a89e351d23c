"""Dense linear algebra over finite fields.

Every FFMatrix row is one int in its field's packed row layout
(slot_layout), one reduced entry per slot, so packed rows are canonical
and rref, products and mat_vec run on the stored rows.  Over F_2 a slot
is one bit and rows add by xor; over F_p, p odd, a row operation is one
big-int multiply-add, reduced mod p in all slots at once only when a slot
may overflow; over F_{2^k} it is one windowed carry-less product and one
fold; over F_{p^k}, p odd, k >= 2, one field call per entry.  Matrices
are immutable from the caller's point of view: every operation returns
fresh values.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

from .fields import UniPoly, berlekamp_roots


class SingularMatrixError(Exception):
    """Raised when an inverse of a singular matrix is requested."""


class SpectrumNotSimpleError(Exception):
    """Raised when the characteristic polynomial does not split into
    distinct linear factors over the field."""


class FFMatrix:
    """A matrix over a finite field, built by the class methods: one int
    per row (packed_row), in the field's slot_layout (layout)."""

    __slots__ = ("layout", "field", "nrows", "ncols", "_rows")

    def __init__(self, layout, nrows, ncols, rows):
        self.layout = layout
        self.field = layout.field
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows

    # Constructors -----------------------------------------------------------
    @classmethod
    def from_rows(cls, field, rows) -> "FFMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        order = field.order  # pack_bits checks F_2 rows itself
        values = set().union(*rows) if order != 2 else ()
        if values and (min(values) < 0 or max(values) >= order):
            raise ValueError("entry out of field range")
        layout = slot_layout(field)
        return cls(layout, len(rows), ncols, list(map(layout.pack, rows)))

    @classmethod
    def from_packed_rows(cls, field, rows, ncols) -> "FFMatrix":
        """The matrix with the given rows, each packed in slot_layout(field)
        with its entries reduced, as packed_row returns them."""
        rows = list(rows)
        return cls(slot_layout(field), len(rows), ncols, rows)

    @classmethod
    def zeros(cls, field, nrows, ncols) -> "FFMatrix":
        return cls(slot_layout(field), nrows, ncols, [0] * nrows)

    @classmethod
    def identity(cls, field, n) -> "FFMatrix":
        layout = slot_layout(field)
        return cls(layout, n, n, [1 << i * layout.bits for i in range(n)])

    @classmethod
    def diagonal(cls, field, entries) -> "FFMatrix":
        entries = list(entries)
        n = len(entries)
        return cls.from_rows(field, [[entries[i] if i == j else 0 for j in range(n)]
                                     for i in range(n)])

    # Element access ----------------------------------------------------------
    def at(self, i, j) -> int:
        return self.row(i)[j]

    def row(self, i) -> tuple:
        return self.layout.unpack(self._rows[i], self.ncols)

    def packed_row(self, i) -> int:
        return self._rows[i]

    def packed_rows(self) -> list[int]:
        return list(self._rows)

    def rows(self) -> list[tuple]:
        unpack, n = self.layout.unpack, self.ncols
        return [unpack(r, n) for r in self._rows]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows()]

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FFMatrix):
            return NotImplemented
        return (self.field == other.field and self.nrows == other.nrows
                and self.ncols == other.ncols and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, tuple(self._rows)))

    def __repr__(self) -> str:
        return f"FFMatrix({self.nrows}x{self.ncols} over {self.field!r})"

    # Arithmetic ---------------------------------------------------------------
    def transpose(self) -> "FFMatrix":
        return FFMatrix(self.layout, self.ncols, self.nrows,
                        self.layout.transpose(self._rows, self.ncols))

    def __add__(self, other: "FFMatrix") -> "FFMatrix":
        return self._entrywise(other, self.field.add)

    def __sub__(self, other: "FFMatrix") -> "FFMatrix":
        return self._entrywise(other, self.field.sub)

    def _entrywise(self, other: "FFMatrix", op) -> "FFMatrix":
        if self.field != other.field or self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape or field mismatch")
        layout, n = self.layout, self.ncols
        rows = [layout.pack(list(map(op, layout.unpack(a, n), layout.unpack(b, n))))
                for a, b in zip(self._rows, other._rows)]
        return FFMatrix(layout, self.nrows, self.ncols, rows)

    def __matmul__(self, other: "FFMatrix") -> "FFMatrix":
        if self.field != other.field or self.ncols != other.nrows:
            raise ValueError("shape or field mismatch")
        layout = self.layout
        vectors, dot = layout.vectors(other._rows), layout.dot
        return FFMatrix(layout, self.nrows, other.ncols, [dot(vectors, r) for r in self._rows])

    def mat_vec(self, v) -> tuple:
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        x = FFMatrix.from_rows(self.field, [v])._rows[0]
        return self.layout.mat_vec(self._rows, self.ncols, x)

    def submatrix(self, row_idx, col_idx) -> "FFMatrix":
        col_idx = list(col_idx)
        rows = [self.layout.pack([r[j] for j in col_idx]) for r in map(self.row, row_idx)]
        return FFMatrix(self.layout, len(rows), len(col_idx), rows)

    def hstack(self, other: "FFMatrix") -> "FFMatrix":
        if self.field != other.field or self.nrows != other.nrows:
            raise ValueError("shape or field mismatch")
        shift = self.ncols * self.layout.bits
        rows = [a | b << shift for a, b in zip(self._rows, other._rows)]
        return FFMatrix(self.layout, self.nrows, self.ncols + other.ncols, rows)

    def vstack(self, other: "FFMatrix") -> "FFMatrix":
        if self.field != other.field or self.ncols != other.ncols:
            raise ValueError("shape or field mismatch")
        return FFMatrix(self.layout, self.nrows + other.nrows, self.ncols,
                        self._rows + other._rows)


def xor_picked(vectors: list[int], x: int) -> int:
    """The xor of the packed F_2 vectors picked by the bits of x: x times
    the matrix with rows `vectors`, or that matrix's transpose times x."""
    out = 0
    while x:
        low = x & -x
        out ^= vectors[low.bit_length() - 1]
        x ^= low
    return out


# bytes 0 and 1 to ASCII digits; every other byte to one int() rejects
_ASCII_BITS = b"01" + b"x" * 254
# and back
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def pack_bits(bits) -> int:
    """The int whose bit i is bits[i], for a sequence (or bytes) of 0s
    and 1s: the bytes read back to front as an ASCII bit string.  Raises
    ValueError for any other entry."""
    return int(bytes(bits)[::-1].translate(_ASCII_BITS) or b"0", 2)


# ---------------------------------------------------------------------------
# Packed row layouts.


@lru_cache(maxsize=None)
def slot_layout(field):
    """The packed row layout of the field, the one format of FFMatrix
    rows: entry j in bits [j bits, (j + 1) bits) of one int, reduced
    (Kronecker substitution; von zur Gathen & Gerhard, Modern Computer
    Algebra, 8.4), with slots as wide as the field alone requires.  A
    layout packs and unpacks, combines vectors(rows) by the entries of a
    packed x (dot), adds c x to y (axpy), transposes, multiplies by a
    vector (mat_vec), and pivots for rref: x reduced and scaled to 1 at
    col, with the row operation y - c x, made canonical by reduce."""
    if field.order == 2:
        return _BitSlots(field)
    if field.char == 2:
        return _CarrylessSlots(field)
    if field.order > field.char:
        return _EntrySlots(field)
    return _PrimeSlots(field)


class _EntrySlots:
    """F_{p^k}, p odd, k >= 2: slots that hold one element each; a row
    operation calls the field's add and mul entry by entry.  The other
    layouts reuse its generic methods."""

    def __init__(self, field):
        self.field, self.bits = field, (field.order - 1).bit_length()
        self.mask = (1 << self.bits) - 1

    def pack(self, entries) -> int:
        return sum(e << j * self.bits for j, e in enumerate(entries))

    def unpack(self, x: int, n: int) -> tuple:
        return tuple([x >> j * self.bits & self.mask for j in range(n)])

    def reduce(self, x: int) -> int:
        return x

    def vectors(self, rows) -> list:
        return rows

    def dot(self, vectors, x: int) -> int:
        acc = 0
        for c, v in zip(self.unpack(x, len(vectors)), vectors):
            acc = self._axpy(acc, c, v) if c else acc
        return self.reduce(acc)

    def _axpy(self, y: int, c: int, x: int) -> int:
        f, n = self.field, -(-max(x, y).bit_length() // self.bits)
        return self.pack([f.add(a, f.mul(c, b)) if b else a
                          for a, b in zip(self.unpack(y, n), self.unpack(x, n))])

    def axpy(self, y: int, c: int, x: int) -> int:
        return self.dot(self.vectors([y, x]), self.pack([1, c]))

    def pivot(self, x: int, col: int):
        c = x >> col * self.bits & self.mask
        if c != 1:
            x = self._axpy(0, self.field.inv(c), x)
        return x, lambda y, c, neg=self.field.neg: self._axpy(y, neg(c), x)

    def transpose(self, rows, ncols: int) -> list[int]:
        cols = zip(*[self.unpack(r, ncols) for r in rows])
        return [self.pack(c) for c in cols] if rows else [0] * ncols

    def mat_vec(self, rows, ncols: int, x: int) -> tuple:
        """The matrix with these rows times x: its columns combined by x."""
        return self.unpack(self.dot(self.vectors(self.transpose(rows, ncols)), x), len(rows))


class _BitSlots(_EntrySlots):
    """F_2: one bit per slot, so rows add by xor, a row reads back as its
    binary digits, a transpose moves set bits one at a time, and entry i
    of a product with x is the parity of row i masked by x."""

    pack, dot = staticmethod(pack_bits), staticmethod(xor_picked)
    axpy = staticmethod(lambda y, c, x: y ^ x if c else y)

    @staticmethod
    def unpack(x: int, n: int) -> tuple:
        return tuple(bin(x)[:1:-1].ljust(n, "0")[:n].encode().translate(_BIT_VALUES))

    @staticmethod
    def transpose(rows, ncols: int) -> list[int]:
        cols = [0] * ncols
        for i, r in enumerate(rows):
            while r:
                lsb = r & -r
                cols[lsb.bit_length() - 1] |= 1 << i
                r ^= lsb
        return cols

    @staticmethod
    def mat_vec(rows, ncols: int, x: int) -> tuple:
        return tuple([(r & x).bit_count() & 1 for r in rows])


class _PrimeSlots(_EntrySlots):
    """F_p, p odd: slots of the fewest bytes out of 1, 2, 4, 8, ... whose
    top bit alone holds (p - 1)^2, added as plain integers.  A row
    operation y - c x is one multiply-add y + (p - c) x, which reduces y
    only once the top bit of some slot is set, as a product added to a
    slot below it never carries out; dot reduces after every `capacity`
    products.  All slots are reduced mod p at once, by one bytes.translate
    for byte slots, else via an array of machine words where the host's
    byte order allows."""

    def __init__(self, field):
        p = field.p
        need = ((p - 1) ** 2 - 1).bit_length() + 1
        size = 1 << ((need - 1) // 8).bit_length()
        self.field, self.p, self.size, self.bits = field, p, size, 8 * size
        self.mask = (1 << self.bits) - 1
        # products a reduced slot can add before it might carry
        self.capacity = (self.mask - (p - 1)) // (p - 1) ** 2
        # the top bits of n slots
        top = (1 << self.bits - 1).to_bytes(size, "little")
        self._tops = lru_cache(maxsize=None)(lambda n: int.from_bytes(top * n, "little"))
        self._table = bytes(b % p for b in range(256))
        self._code = next((c for c in "BHILQ" if array(c).itemsize == size
                           and sys.byteorder == "little"), None)

    def pack(self, entries) -> int:
        if not self._code:
            return super().pack(entries)
        return int.from_bytes(bytes(entries) if self.size == 1
                              else array(self._code, entries).tobytes(), "little")

    def _slots(self, x: int, n: int | None = None):
        """The first n slots of x as they stand (n defaults to them all)."""
        n = -(-x.bit_length() // self.bits) if n is None else n
        return (array(self._code, x.to_bytes(n * self.size, "little")) if self._code
                else super().unpack(x, n))

    def unpack(self, x: int, n: int) -> tuple:
        return tuple(self._slots(x, n))

    def reduce(self, x: int) -> int:
        n = -(-x.bit_length() // self.bits)
        if self.size == 1:
            return int.from_bytes(x.to_bytes(n, "little").translate(self._table), "little")
        p = self.p
        return self.pack([s % p for s in self._slots(x, n)])

    def dot(self, vectors, x: int) -> int:
        terms = [c * v for c, v in zip(self._slots(x), vectors) if c]
        acc, cap = 0, self.capacity
        while len(terms) > cap:
            acc = self.reduce(acc + sum(terms[-cap:]))
            del terms[-cap:]
        return self.reduce(acc + sum(terms))

    def pivot(self, x: int, col: int):
        x = self.reduce(x)
        c = x >> col * self.bits & self.mask
        if c != 1:
            x = self.reduce(x * self.field.inv(c))
        p, reduce = self.p, self.reduce
        top = self._tops(-(-x.bit_length() // self.bits))

        def op(y: int, c: int) -> int:
            y += (p - c) * x
            return reduce(y) if y & top else y
        return x, op


class _CarrylessSlots(_EntrySlots):
    """F_{2^k}, k >= 2: ExtField's packed vectors, 2k-bit slots.  A row
    operation is one windowed carry-less product of an element with the
    row from the pivot column on, and one fold; dot folds once at the end,
    and its vectors are window tables (ExtField._window)."""

    def __init__(self, field):
        self.field, self.bits, self.mask = field, 2 * field.k, field._mask
        self.pack, self.unpack = field._pack, field._unpack
        # the low halves of n slots, under which ExtField._fold reduces
        self._lows = lru_cache(maxsize=None)(lambda n: self.pack([self.mask] * n))

    def vectors(self, rows) -> list:
        return [self.field._window(r) for r in rows]

    def _axpy(self, acc: int, c: int, tb: tuple) -> int:
        return acc ^ self.field._clmul(c, tb)

    def reduce(self, x: int) -> int:
        return self.field._fold(x, self._lows(-(-x.bit_length() // self.bits)))

    def pivot(self, x: int, col: int):
        f, fold = self.field, self.reduce
        sh = col * self.bits
        x >>= sh  # the slots before col are 0
        if x & self.mask != 1:
            x = fold(f._clmul(f.inv(x & self.mask), f._window(x)))
        clmul, tb = f._clmul, f._window(x)
        return x << sh, lambda y, c: y ^ fold(clmul(c, tb)) << sh


# ---------------------------------------------------------------------------
# Elimination.


def rref(M: FFMatrix) -> tuple[FFMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form; returns (R, rank, pivot column indices).

    Pivot rule: scan columns left to right, take the lowest-index unused
    row with a nonzero entry, so the output is deterministic.
    """
    f, n, ncols = M.field, M.nrows, M.ncols
    rows, pivots, prow = list(M._rows), [], 0
    if f.order == 2:
        for col in range(ncols):
            bit = 1 << col
            for piv in range(prow, n):
                if rows[piv] & bit:
                    break
            else:
                continue
            rows[prow], rows[piv] = rows[piv], rows[prow]
            pr = rows[prow]
            for i in range(n):
                if i != prow and rows[i] & bit:
                    rows[i] ^= pr
            pivots.append(col)
            prow += 1
            if prow == n:
                break
        return FFMatrix(M.layout, n, ncols, rows), len(pivots), tuple(pivots)
    layout = M.layout
    w, mask, order = layout.bits, layout.mask, f.order
    for col in range(ncols):
        sh = col * w
        for piv in range(prow, n):
            if (rows[piv] >> sh & mask) % order:
                break
        else:
            continue
        rows[prow], rows[piv] = rows[piv], rows[prow]
        rows[prow], op = layout.pivot(rows[prow], col)
        for i in range(n):
            if i != prow:
                c = (rows[i] >> sh & mask) % order
                if c:
                    rows[i] = op(rows[i], c)
        pivots.append(col)
        prow += 1
        if prow == n:
            break
    rows = list(map(layout.reduce, rows))
    return FFMatrix(layout, n, ncols, rows), len(pivots), tuple(pivots)


def rank(M: FFMatrix) -> int:
    return rref(M)[1]


def nullspace_basis(M: FFMatrix) -> FFMatrix:
    """Basis of {x : Mx = 0} as matrix rows, read off one rref of M.

    One row per free (non-pivot) column, in ascending column order; the
    row for free column j has 1 at j, 0 at every other free column, and
    minus column j of the reduced form at the pivot columns, so the basis
    is not in rref form in general.  Row count is ncols - rank(M)
    (rank-nullity).
    """
    R, _, pivots = rref(M)
    return rref_nullspace(R, pivots)


def rref_nullspace(R: FFMatrix, pivots) -> FFMatrix:
    """Basis of {x : Rx = 0}, laid out as nullspace_basis says, for R
    whose row i is 1 at pivots[i] and 0 at the other pivots, as an rref
    is at rref's pivots."""
    layout, n, minus_one = R.layout, R.ncols, R.field.neg(1)
    w, mask = layout.bits, layout.mask
    pivot_set = set(pivots)
    rows = []
    for j in range(n):
        if j in pivot_set:
            continue
        sh = j * w
        col = 0  # column j of R, moved to the pivot columns
        for r, pc in zip(R._rows, pivots):
            c = r >> sh & mask
            if c:
                col |= c << pc * w
        rows.append(layout.axpy(1 << sh, minus_one, col))
    return FFMatrix(layout, len(rows), n, rows)


def solve(A: FFMatrix, b) -> tuple | None:
    """Some x with Ax = b, or None when the system is inconsistent.

    x is read off the nullspace row of [A | -b] for its last column, which
    is (x, 1).  When that column is a pivot its reduced row is the unit
    vector there, so every nullspace row is 0 in it and b lies outside the
    column space of A.
    """
    if len(b) != A.nrows:
        raise ValueError("length mismatch")
    f = A.field
    n = A.ncols
    negb = (FFMatrix.from_rows(f, [[f.neg(v)] for v in b]) if A.nrows
            else FFMatrix.zeros(f, 0, 1))
    ns = nullspace_basis(A.hstack(negb))
    if not ns.nrows or not ns.at(ns.nrows - 1, n):
        return None
    return ns.row(ns.nrows - 1)[:n]


def inverse(M: FFMatrix) -> FFMatrix:
    if M.nrows != M.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = M.nrows
    aug = M.hstack(FFMatrix.identity(M.field, n))
    R, rk, pivots = rref(aug)
    if rk < n or any(pc != i for i, pc in enumerate(pivots[:n])):
        raise SingularMatrixError("matrix is singular")
    # R = [I | M^{-1}]: each row's right half
    shift = n * M.layout.bits
    return FFMatrix(M.layout, n, n, [r >> shift for r in R._rows])


def full_rank_submatrix(M: FFMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Index sets (K, L) with |K| = |L| = rank(M) and M[K, L] invertible.

    K is the pivot column set of rref(M^T): the lowest-index rows that are
    independent of the rows before them.  L is the pivot column set of
    rref(M), which depends only on the row space, so it is also the pivot
    set of M[K, :].  Both choices are deterministic.
    """
    return rref(M.transpose())[2], rref(M)[2]


# ---------------------------------------------------------------------------
# Characteristic polynomial and eigendecomposition.


def char_poly(M: FFMatrix) -> UniPoly:
    """det(XI - M): monic, degree = dimension.

    Similarity reduction to Hessenberg form (with pivot search), then the
    recurrence over its leading principal submatrices.
    """
    if M.nrows != M.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    f = M.field
    n = M.nrows
    mul, sub, add, inv = f.mul, f.sub, f.add, f.inv
    A = M.to_lists()
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if A[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            A[piv], A[j + 1] = A[j + 1], A[piv]
            for r in range(n):
                A[r][piv], A[r][j + 1] = A[r][j + 1], A[r][piv]
        pinv = inv(A[j + 1][j])
        for i in range(j + 2, n):
            c = A[i][j]
            if c:
                factor = mul(c, pinv)
                rowp = A[j + 1]
                rowi = A[i]
                for col in range(n):
                    if rowp[col]:
                        rowi[col] = sub(rowi[col], mul(factor, rowp[col]))
                for r in range(n):
                    if A[r][i]:
                        A[r][j + 1] = add(A[r][j + 1], mul(factor, A[r][i]))
    # char polys of leading principal submatrices of the Hessenberg form
    p = [UniPoly.one(f)]
    for k in range(1, n + 1):
        poly = UniPoly(f, (f.neg(A[k - 1][k - 1]), 1)) * p[k - 1]
        prod = 1
        for i in range(k - 2, -1, -1):
            prod = mul(prod, A[i + 1][i])
            if prod == 0:
                break
            coeff = mul(A[i][k - 1], prod)
            if coeff:
                poly = poly - p[i].scale(coeff)
        p.append(poly)
    return p[n]


def eigen_decompose(M: FFMatrix) -> list[tuple[int, tuple]]:
    """Eigenpairs (value, vector) of a square matrix whose spectrum is
    simple over its field.

    Eigenvalues are sorted by integer encoding; eigenvectors are scaled so
    the first nonzero entry is 1.  Raises SpectrumNotSimpleError when the
    characteristic polynomial has repeated or missing roots.
    """
    if M.nrows != M.ncols:
        raise ValueError("eigendecomposition of a non-square matrix")
    f = M.field
    n = M.nrows
    roots = berlekamp_roots(char_poly(M))
    if sum(roots.values()) < n or any(m > 1 for m in roots.values()):
        raise SpectrumNotSimpleError(
            f"spectrum not simple over field: {len(roots)} distinct roots, dim {n}")
    pairs = []
    for lam in sorted(roots):
        shifted = M - FFMatrix.diagonal(f, [lam] * n)
        ns = nullspace_basis(shifted)
        if ns.nrows != 1:
            raise SpectrumNotSimpleError("eigenspace dimension != 1")
        pairs.append((lam, rref(ns)[0].row(0)))  # scaled to a leading 1
    return pairs
