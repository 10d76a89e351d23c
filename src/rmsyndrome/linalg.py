"""Dense linear algebra over finite fields.

FFMatrix stores F_2 matrices bit-packed (one Python int per row, bit j is
column j) so row operations are single xors; matrices over any other field
keep tuple-of-int rows, and rref, products and mat_vec pack each row (or
column) into one int on entry, one entry per slot of the field's layout
(slot_layout): over F_p, p odd, byte slots reduced mod p all at once, so a
row operation is one big-int multiply-add; over F_{2^k} ExtField's 2k-bit
slots, a row operation one windowed carry-less product and one fold; over
F_{p^k}, p odd, k >= 2, one field call per entry.  Matrices are immutable
from the caller's point of view: every operation returns fresh values.
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
    __slots__ = ("field", "nrows", "ncols", "_rows", "_packed")

    def __init__(self, field, nrows, ncols, rows, packed):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows
        self._packed = packed

    # Constructors -----------------------------------------------------------
    @classmethod
    def from_rows(cls, field, rows) -> "FFMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        if field.order == 2:
            return cls(field, nrows, ncols, list(map(pack_bits, rows)), True)
        order = field.order
        if any(not 0 <= v < order for r in rows for v in r):
            raise ValueError("entry out of field range")
        return cls(field, nrows, ncols, list(map(tuple, rows)), False)

    @classmethod
    def from_packed_rows(cls, field, rows, ncols) -> "FFMatrix":
        if field.order != 2:
            raise ValueError("packed rows require F_2")
        return cls(field, len(rows), ncols, list(rows), True)

    @classmethod
    def zeros(cls, field, nrows, ncols) -> "FFMatrix":
        if field.order == 2:
            return cls(field, nrows, ncols, [0] * nrows, True)
        return cls(field, nrows, ncols, [(0,) * ncols] * nrows, False)

    @classmethod
    def identity(cls, field, n) -> "FFMatrix":
        if field.order == 2:
            return cls(field, n, n, [1 << i for i in range(n)], True)
        rows = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
        return cls(field, n, n, rows, False)

    @classmethod
    def diagonal(cls, field, entries) -> "FFMatrix":
        entries = list(entries)
        n = len(entries)
        return cls.from_rows(field, [[entries[i] if i == j else 0 for j in range(n)]
                                     for i in range(n)])

    # Element access ----------------------------------------------------------
    def at(self, i, j) -> int:
        if self._packed:
            # range() reads a negative j from the end and raises IndexError
            return self._rows[i] >> (j if 0 <= j < self.ncols else range(self.ncols)[j]) & 1
        return self._rows[i][j]

    def row(self, i) -> tuple:
        if self._packed:
            r = self._rows[i]
            return tuple(r >> j & 1 for j in range(self.ncols))
        return tuple(self._rows[i])

    def packed_row(self, i) -> int:
        if not self._packed:
            raise ValueError("matrix is not bit-packed")
        return self._rows[i]

    def rows(self) -> list[tuple]:
        return [self.row(i) for i in range(self.nrows)]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.nrows)]

    def is_zero(self) -> bool:
        if self._packed:
            return all(r == 0 for r in self._rows)
        return all(all(v == 0 for v in r) for r in self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FFMatrix):
            return NotImplemented
        return (self.field == other.field and self.nrows == other.nrows
                and self.ncols == other.ncols
                and self.rows() == other.rows())

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, tuple(self.rows())))

    def __repr__(self) -> str:
        return f"FFMatrix({self.nrows}x{self.ncols} over {self.field!r})"

    # Arithmetic ---------------------------------------------------------------
    def transpose(self) -> "FFMatrix":
        if self._packed:
            cols = [0] * self.ncols
            for i, r in enumerate(self._rows):
                while r:
                    lsb = r & -r
                    cols[lsb.bit_length() - 1] |= 1 << i
                    r ^= lsb
            return FFMatrix(self.field, self.ncols, self.nrows, cols, True)
        rows = list(zip(*self._rows)) or [()] * self.ncols
        return FFMatrix(self.field, self.ncols, self.nrows, rows, False)

    def __add__(self, other: "FFMatrix") -> "FFMatrix":
        return self._entrywise(other, self.field.add)

    def __sub__(self, other: "FFMatrix") -> "FFMatrix":
        return self._entrywise(other, self.field.sub)

    def _entrywise(self, other: "FFMatrix", op) -> "FFMatrix":
        if self.field != other.field or self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape or field mismatch")
        pairs = zip(self._rows, other._rows)
        # over F_2 both add and sub are the xor of the packed rows
        rows = ([a ^ b for a, b in pairs] if self._packed
                else [tuple(map(op, a, b)) for a, b in pairs])
        return FFMatrix(self.field, self.nrows, self.ncols, rows, self._packed)

    def __matmul__(self, other: "FFMatrix") -> "FFMatrix":
        if self.field != other.field or self.ncols != other.nrows:
            raise ValueError("shape or field mismatch")
        f = self.field
        if self._packed:
            out = [xor_picked(other._rows, r) for r in self._rows]
            return FFMatrix(f, self.nrows, other.ncols, out, True)
        layout = slot_layout(f, self.ncols)
        vectors = layout.vectors(other._rows)
        out = [layout.unpack(layout.dot(vectors, layout.pack(ra)), other.ncols)
               for ra in self._rows]
        return FFMatrix(f, self.nrows, other.ncols, out, False)

    def mat_vec(self, v) -> tuple:
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        f = self.field
        if self._packed:
            vmask = pack_bits(v)
            return tuple([_parity(r & vmask) for r in self._rows])
        # the columns of self combined by the entries of v
        return (FFMatrix.from_rows(f, [v]) @ self.transpose()).row(0)

    def submatrix(self, row_idx, col_idx) -> "FFMatrix":
        row_idx, col_idx = list(row_idx), list(col_idx)
        if self._packed:
            n = self.ncols
            cols = [j if 0 <= j < n else range(n)[j] for j in col_idx]  # as in at()
            rows = [pack_bits([r >> j & 1 for j in cols])
                    for r in map(self._rows.__getitem__, row_idx)]
            return FFMatrix(self.field, len(row_idx), len(col_idx), rows, True)
        rows = [tuple(self._rows[i][j] for j in col_idx) for i in row_idx]
        return FFMatrix(self.field, len(row_idx), len(col_idx), rows, False)

    def hstack(self, other: "FFMatrix") -> "FFMatrix":
        if self.field != other.field or self.nrows != other.nrows:
            raise ValueError("shape or field mismatch")
        if self._packed:
            rows = [a | (b << self.ncols) for a, b in zip(self._rows, other._rows)]
            return FFMatrix(self.field, self.nrows, self.ncols + other.ncols, rows, True)
        rows = [ra + rb for ra, rb in zip(self._rows, other._rows)]
        return FFMatrix(self.field, self.nrows, self.ncols + other.ncols, rows, False)

    def vstack(self, other: "FFMatrix") -> "FFMatrix":
        if self.field != other.field or self.ncols != other.ncols:
            raise ValueError("shape or field mismatch")
        return FFMatrix(self.field, self.nrows + other.nrows, self.ncols,
                        list(self._rows) + list(other._rows), self._packed)


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


def pack_bits(bits) -> int:
    """The int whose bit i is bits[i], for a sequence (or bytes) of 0s
    and 1s: the bytes read back to front as an ASCII bit string.  Raises
    ValueError for any other entry."""
    return int(bytes(bits)[::-1].translate(_ASCII_BITS) or b"0", 2)


def _parity(x: int) -> int:
    return x.bit_count() & 1


# ---------------------------------------------------------------------------
# Packed row layouts.


@lru_cache(maxsize=None)
def slot_layout(field, terms: int):
    """The packed row layout over the field for rows whose slots add up
    to `terms` products of two elements before they are reduced: entry j
    in bits [j bits, (j + 1) bits) of one int (Kronecker substitution; von
    zur Gathen & Gerhard, Modern Computer Algebra, 8.4).  Over F_p, p odd,
    a slot is the fewest bytes out of 1, 2, 4, 8, 16, ... that hold
    terms (p - 1)^2.  A layout packs and unpacks (reduced), combines
    vectors(rows) by the entries of a packed x (dot), and pivots: x
    reduced and scaled to 1 at col, with the row operation y - c x.  The
    F_2 layout, one bit per slot, has only bits, pack and dot."""
    if field.order == 2:
        return _BitSlots
    if field.char == 2:
        return _CarrylessSlots(field)
    if field.order > field.char:
        return _EntrySlots(field)
    need = max(terms * (field.p - 1) ** 2, 1).bit_length()
    return _PrimeSlots(field, 1 << ((need - 1) // 8).bit_length())


class _BitSlots:
    bits, pack, dot = 1, staticmethod(pack_bits), staticmethod(xor_picked)


class _EntrySlots:
    """F_{p^k}, p odd, k >= 2: slots that hold one element each; a row
    operation calls the field's add and mul entry by entry.  The other
    layouts reuse its generic pack, unpack and dot."""

    def __init__(self, field):
        self.field, self.bits = field, field.order.bit_length()
        self.mask = (1 << self.bits) - 1

    def pack(self, entries) -> int:
        return sum(e << j * self.bits for j, e in enumerate(entries))

    def unpack(self, x: int, n: int) -> tuple:
        return tuple([x >> j * self.bits & self.mask for j in range(n)])

    def reduce(self, x: int) -> int:
        return x

    def vectors(self, rows) -> list:
        return [self.pack(r) for r in rows]

    def dot(self, vectors, x: int) -> int:
        acc = 0
        for c, v in zip(self.unpack(x, len(vectors)), vectors):
            acc = self._axpy(acc, c, v) if c else acc
        return self.reduce(acc)

    def _axpy(self, y: int, c: int, x: int) -> int:
        f, n = self.field, -(-max(x, y).bit_length() // self.bits)
        return self.pack([f.add(a, f.mul(c, b)) if b else a
                          for a, b in zip(self.unpack(y, n), self.unpack(x, n))])

    def pivot(self, x: int, col: int):
        c = x >> col * self.bits & self.mask
        if c != 1:
            x = self._axpy(0, self.field.inv(c), x)
        return x, lambda y, c, neg=self.field.neg: self._axpy(y, neg(c), x)


class _PrimeSlots(_EntrySlots):
    """F_p, p odd: slots of `size` bytes that add as plain integers, so a
    row operation y - c x is one multiply-add y + (p - c) x.  All slots are
    reduced mod p at once, by one bytes.translate for byte slots, else via
    an array of machine words where the host's byte order allows."""

    def __init__(self, field, size: int):
        self.field, self.p, self.size, self.bits = field, field.p, size, 8 * size
        self.mask = (1 << self.bits) - 1
        self._table = bytes(b % field.p for b in range(256))
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
        if self.size == 1:
            return tuple(x.to_bytes(n, "little").translate(self._table))
        p = self.p
        return tuple([s % p for s in self._slots(x, n)])

    def reduce(self, x: int) -> int:
        n = -(-x.bit_length() // self.bits)
        if self.size == 1:
            return int.from_bytes(x.to_bytes(n, "little").translate(self._table), "little")
        return self.pack(self.unpack(x, n))

    def dot(self, vectors, x: int) -> int:
        return self.reduce(sum([c * v for c, v in zip(self._slots(x), vectors) if c]))

    def pivot(self, x: int, col: int):
        x = self.reduce(x)
        c = x >> col * self.bits & self.mask
        if c != 1:
            x = self.reduce(x * self.field.inv(c))
        return x, lambda y, c, p=self.p: y + (p - c) * x


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
        return [self.field._window(self.pack(r)) for r in rows]

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
    if M._packed:
        rows = list(M._rows)
        pivots = []
        prow = 0
        for col in range(M.ncols):
            piv = None
            bit = 1 << col
            for i in range(prow, M.nrows):
                if rows[i] & bit:
                    piv = i
                    break
            if piv is None:
                continue
            rows[prow], rows[piv] = rows[piv], rows[prow]
            pr = rows[prow]
            for i in range(M.nrows):
                if i != prow and rows[i] & bit:
                    rows[i] ^= pr
            pivots.append(col)
            prow += 1
            if prow == M.nrows:
                break
        return FFMatrix(M.field, M.nrows, M.ncols, rows, True), len(pivots), tuple(pivots)
    f, n, ncols = M.field, M.nrows, M.ncols
    # a slot gains at most one product per pivot before it is reduced
    layout = slot_layout(f, min(n, ncols) + 1)
    w, mask, order = layout.bits, layout.mask, f.order
    rows = [layout.pack(r) for r in M._rows]
    pivots, prow = [], 0
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
    out = FFMatrix(f, n, ncols, [layout.unpack(r, ncols) for r in rows], False)
    return out, len(pivots), tuple(pivots)


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
    f = M.field
    n = M.ncols
    pivot_set = set(pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    if M._packed:
        rows = []
        for j in free_cols:
            v = 1 << j
            for r, pc in enumerate(pivots):
                if R._rows[r] >> j & 1:
                    v |= 1 << pc
            rows.append(v)
        return FFMatrix(f, len(rows), n, rows, True)
    neg = f.neg
    rows = []
    for j in free_cols:
        v = [0] * n
        v[j] = 1
        for r, pc in enumerate(pivots):
            v[pc] = neg(R._rows[r][j])
        rows.append(tuple(v))
    return FFMatrix(f, len(rows), n, rows, False)


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
    return R.submatrix(range(n), range(n, 2 * n))


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
