"""Dense linear algebra over finite fields.

FFMatrix stores F_2 matrices bit-packed (one Python int per row, bit j is
column j) so row operations are single xors; matrices over any other field
keep tuple-of-int rows.  Over F_{2^k}, k >= 2, rref, products and mat_vec
pack each row (or column) into one int on entry, one entry per 2k-bit slot
(ExtField's packed vectors), so a row operation is one windowed carry-less
product and one fold; over odd p they go through the field's arithmetic
methods.  Matrices are immutable from the caller's point of view: every
operation returns fresh values.
"""

from __future__ import annotations

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
        out = []
        for r in rows:
            if any(not (0 <= v < order) for v in r):
                raise ValueError("entry out of field range")
            out.append(tuple(r))
        return cls(field, nrows, ncols, out, False)

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
            if j >= self.ncols:
                raise IndexError("column index out of range")
            return self._rows[i] >> j & 1
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
        rows = [tuple(self._rows[i][j] for i in range(self.nrows))
                for j in range(self.ncols)]
        return FFMatrix(self.field, self.ncols, self.nrows, rows, False)

    def __add__(self, other: "FFMatrix") -> "FFMatrix":
        self._check_same_shape(other)
        if self._packed:
            return FFMatrix(self.field, self.nrows, self.ncols,
                            [a ^ b for a, b in zip(self._rows, other._rows)], True)
        f = self.field
        rows = [tuple(f.add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self._rows, other._rows)]
        return FFMatrix(f, self.nrows, self.ncols, rows, False)

    def __sub__(self, other: "FFMatrix") -> "FFMatrix":
        self._check_same_shape(other)
        if self._packed:
            return self + other
        f = self.field
        rows = [tuple(f.sub(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self._rows, other._rows)]
        return FFMatrix(f, self.nrows, self.ncols, rows, False)

    def _check_same_shape(self, other):
        if self.field != other.field or self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape or field mismatch")

    def __matmul__(self, other: "FFMatrix") -> "FFMatrix":
        if self.field != other.field or self.ncols != other.nrows:
            raise ValueError("shape or field mismatch")
        f = self.field
        if self._packed:
            out = [xor_picked(other._rows, r) for r in self._rows]
            return FFMatrix(f, self.nrows, other.ncols, out, True)
        bcols = other.ncols
        brows = other._rows
        if f.char == 2:  # F_{2^k}: row i combines the packed rows of other
            tables = [f._window(f._pack(rb)) for rb in brows]
            lows = f._pack([f._mask] * bcols)
            clmul = f._clmul
            out = []
            for ra in self._rows:
                acc = 0
                for c, tb in zip(ra, tables):
                    if c:
                        acc ^= clmul(c, tb)
                out.append(f._unpack(f._fold(acc, lows), bcols))
            return FFMatrix(f, self.nrows, bcols, out, False)
        mul, add = f.mul, f.add
        out = []
        for ra in self._rows:
            acc = [0] * bcols
            for k, a in enumerate(ra):
                if a:
                    rb = brows[k]
                    for j in range(bcols):
                        b = rb[j]
                        if b:
                            acc[j] = add(acc[j], mul(a, b))
            out.append(tuple(acc))
        return FFMatrix(f, self.nrows, bcols, out, False)

    def mat_vec(self, v) -> tuple:
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        f = self.field
        if self._packed:
            vmask = pack_bits(v)
            return tuple([_parity(r & vmask) for r in self._rows])
        if f.char == 2:  # F_{2^k}: the columns combined by the entries of v
            return (FFMatrix.from_rows(f, [v]) @ self.transpose()).row(0)
        mul, add = f.mul, f.add
        out = []
        for r in self._rows:
            acc = 0
            for a, x in zip(r, v):
                if a and x:
                    acc = add(acc, mul(a, x))
            out.append(acc)
        return tuple(out)

    def submatrix(self, row_idx, col_idx) -> "FFMatrix":
        row_idx, col_idx = list(row_idx), list(col_idx)
        if self._packed:
            if max(col_idx, default=-1) >= self.ncols:
                raise IndexError("column index out of range")
            rows = []
            for i in row_idx:
                r = self._rows[i]
                rows.append(sum((1 << jj) for jj, j in enumerate(col_idx) if r >> j & 1))
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
    f = M.field
    if f.char == 2:
        return _rref_c2(M)
    mul, sub, inv = f.mul, f.sub, f.inv
    rows = [list(r) for r in M._rows]
    pivots = []
    prow = 0
    for col in range(M.ncols):
        piv = None
        for i in range(prow, M.nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[prow], rows[piv] = rows[piv], rows[prow]
        pr = rows[prow]
        pinv = inv(pr[col])
        if pinv != 1:
            for j in range(col, M.ncols):
                if pr[j]:
                    pr[j] = mul(pr[j], pinv)
        for i in range(M.nrows):
            if i != prow:
                c = rows[i][col]
                if c:
                    ri = rows[i]
                    for j in range(col, M.ncols):
                        if pr[j]:
                            ri[j] = sub(ri[j], mul(c, pr[j]))
        pivots.append(col)
        prow += 1
        if prow == M.nrows:
            break
    out = FFMatrix(f, M.nrows, M.ncols, [tuple(r) for r in rows], False)
    return out, len(pivots), tuple(pivots)


def _rref_c2(M: FFMatrix) -> tuple[FFMatrix, int, tuple[int, ...]]:
    """rref over F_{2^k}, k >= 2, on packed rows.  Scaling the pivot row
    and clearing its column from another row are each one windowed
    carry-less product with the pivot row from that column on (its window
    table built once per pivot) and one fold of the product."""
    f = M.field
    n, ncols = M.nrows, M.ncols
    w = 2 * f.k
    lo = f._mask
    lows = f._pack([lo] * ncols)
    window, clmul, fold = f._window, f._clmul, f._fold
    rows = [f._pack(r) for r in M._rows]
    pivots = []
    prow = 0
    for col in range(ncols):
        sh = col * w
        piv = next((i for i in range(prow, n) if rows[i] >> sh & lo), None)
        if piv is None:
            continue
        rows[prow], rows[piv] = rows[piv], rows[prow]
        pr = rows[prow] >> sh  # the slots before col are 0
        if pr & lo != 1:
            pr = fold(clmul(f.inv(pr & lo), window(pr)), lows)
            rows[prow] = pr << sh
        tb = window(pr)
        for i in range(n):
            if i != prow:
                c = rows[i] >> sh & lo
                if c:
                    rows[i] ^= fold(clmul(c, tb), lows) << sh
        pivots.append(col)
        prow += 1
        if prow == n:
            break
    out = FFMatrix(f, n, ncols, [f._unpack(r, ncols) for r in rows], False)
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
        v = list(ns.row(0))
        lead = next(x for x in v if x)
        if lead != 1:
            li = f.inv(lead)
            v = [f.mul(li, x) for x in v]
        pairs.append((lam, tuple(v)))
    return pairs
