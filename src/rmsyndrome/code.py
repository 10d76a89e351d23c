"""Reed-Muller code machinery for syndrome decoding from random errors.

The code with parameters (m, r) over F_p is the evaluation code of reduced
polynomials of degree <= m - 2r - 2 on F_p^m.  Its syndrome map sends a
word y to sum_x y(x) * x^{<= 2r+1}, the vector of monomial evaluations of
degree at most 2r+1; for an error set E of unknown nonzero magnitudes the
syndrome is a weighted sum of the tensor powers e^{<= 2r+1}, e in E.

Points are coordinate tuples; their enumeration order is the integer value
of the little-endian base-p encoding.  Words over F_2 are stored bit-packed
in a single int.

Word syndromes, batch and streaming, and encoding share one packed
per-axis moment transform (_power_transform): 1-bit slots added by xor
over F_2, byte slots over odd p.  The batch syndrome is the one-run case
of the streaming fold (_fold); encode runs the transpose.  Over F_2 a
point's tensor power is one packed |M|-bit row, the and of the index's
absent-variable masks (MonomialIndex.absent_masks) over the coordinates
where the point is 0 (_bit_rows): an error-set syndrome is the xor of
the rows of the points of odd weight, and a tensor-power matrix takes the
rows as they are.  Over odd p they read monomial values off one walk down
the monomial index (MonomialIndex.values), all points at once as
per-point tuples; tensor_power, one point at a time, walks it over every
p.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import compress, islice
from math import lcm
from operator import and_, itemgetter, mul, not_, xor
from pathlib import Path

from .fields import is_prime, prime_field
from .linalg import FFMatrix, nullspace_basis, pack_bits, rank, rref, slot_layout
from .polynomials import (MultilinearPoly, PolySpace, int_to_point,
                          moment_positions, monomial_count, monomial_index,
                          point_to_int)


class SamplingError(RuntimeError):
    """Raised when no error set with independent tensor powers is found
    within the retry budget (t too large for the given m, r)."""


class MalformedInputError(ValueError):
    """A file read from outside the program does not have the documented
    shape, types or value ranges."""


class LengthMismatchError(MalformedInputError):
    """Stream or file length does not match p^m."""


class DegreeError(ValueError):
    """Polynomial degree exceeds the code degree bound."""


class DecodingFailure(RuntimeError):
    """A decoder could not produce an error set consistent with the
    syndrome (typically a non-independent or oversized error set)."""


@dataclass(frozen=True)
class CodeParams:
    """Parameters of the length p^m code decodable from errors whose
    degree-r tensor powers stay linearly independent."""

    m: int
    r: int
    p: int = 2

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError("p must be prime")
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        if self.m < 2 * self.r + 2:
            raise ValueError("need m >= 2r + 2")

    @property
    def field(self):
        return prime_field(self.p)

    @property
    def n(self) -> int:
        return self.p ** self.m

    @property
    def code_degree(self) -> int:
        return self.m - 2 * self.r - 2

    @property
    def syndrome_index(self):
        """The index of the syndrome's monomials, of degree <= 2r+1."""
        return monomial_index(self.m, 2 * self.r + 1, self.p)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "r": self.r, "p": self.p}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CodeParams":
        if not (isinstance(d, dict)
                and all(type(d.get(k)) is int for k in ("m", "r", "p"))):
            raise MalformedInputError(
                'code parameters must be an object with integer "m", "r" and "p"')
        return cls(d["m"], d["r"], d["p"])


_REVERSED = itemgetter(slice(None, None, -1))


@dataclass(frozen=True)
class ErrorSet:
    """Distinct error locations, stored sorted in point-enumeration order."""

    params: CodeParams
    points: tuple[tuple[int, ...], ...]
    resamples: int = field(default=0, compare=False)

    def __post_init__(self):
        # for entries in [0, p) the reversed tuples sort in point_to_int order
        pts = tuple(sorted(map(tuple, self.points), key=_REVERSED))
        if len(set(pts)) != len(pts):
            raise ValueError("error locations must be distinct")
        if pts and (set(map(len, pts)) != {self.params.m} or min(map(min, pts)) < 0
                    or max(map(max, pts)) >= self.params.p):
            raise ValueError("point outside F_p^m")
        object.__setattr__(self, "points", pts)

    @property
    def t(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def as_set(self) -> frozenset:
        return frozenset(self.points)


@dataclass(frozen=True)
class Syndrome:
    """Vector indexed by the monomials of degree <= 2r+1."""

    params: CodeParams
    entries: tuple[int, ...]

    def __post_init__(self):
        m, r, p = self.params.m, self.params.r, self.params.p
        if len(self.entries) != monomial_count(m, 2 * r + 1, p):
            raise ValueError("syndrome length mismatch")

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def _combine(self, other: "Syndrome", op) -> "Syndrome":
        if other.params != self.params:
            raise ValueError("parameter mismatch")
        return Syndrome(self.params, tuple(map(op, self.entries, other.entries)))

    def __add__(self, other: "Syndrome") -> "Syndrome":
        return self._combine(other, self.params.field.add)

    def __sub__(self, other: "Syndrome") -> "Syndrome":
        return self._combine(other, self.params.field.sub)

    def to_json_dict(self) -> dict:
        return {"params": self.params.to_json_dict(), "entries": list(self.entries)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Syndrome":
        """Parse the syndrome file object; raises MalformedInputError unless
        it is {"params": {...}, "entries": [ints in [0, p)]}."""
        if not (isinstance(d, dict) and isinstance(d.get("params"), dict)
                and isinstance(d.get("entries"), list)):
            raise MalformedInputError("a syndrome file must be an object with "
                                      "a params object and an entries list")
        params = CodeParams.from_json_dict(d["params"])
        entries, m, r = d["entries"], params.m, params.r
        # |M_{2r+1}| >= C(m, k) >= 2^k for k = min(2r + 1, m // 2), checked
        # at no cost; once it passes, 2r + 1 or m is small and so is the count
        if min(2 * r + 1, m // 2) >= len(entries).bit_length():
            raise MalformedInputError(f"a syndrome needs more than {len(entries)} entries")
        size = monomial_count(m, 2 * r + 1, params.p)
        if len(entries) != size:
            raise MalformedInputError(f"a syndrome needs {size} entries")
        if not all(type(v) is int and 0 <= v < params.p for v in entries):
            raise MalformedInputError(
                f"syndrome entries must be integers in [0, {params.p})")
        return cls(params, tuple(entries))


def check_word_length(params: CodeParams, size: int) -> None:
    """Raise LengthMismatchError unless a word file of size bytes holds
    the p^m symbols, a bit each over F_2, else a byte each.  p^m is formed
    only for an m below the bit length of 8 size + 8, else it is larger."""
    if params.m >= (8 * size + 8).bit_length() or size != (
            (params.n + 7) // 8 if params.p == 2 else params.n):
        raise LengthMismatchError("word file length mismatch")


@dataclass(frozen=True)
class ReceivedWord:
    """Length p^m word; bit-packed int over F_2, value tuple otherwise."""

    params: CodeParams
    values: object

    def iter_values(self):
        if self.params.p == 2:
            return map(_slots(self.values, self.params.m, 2), range(self.params.n))
        return iter(self.values)

    def to_bytes(self) -> bytes:
        n = self.params.n
        if self.params.p == 2:
            return self.values.to_bytes((n + 7) // 8, "little")
        return bytes(self.values)

    @classmethod
    def from_bytes(cls, params: CodeParams, raw: bytes) -> "ReceivedWord":
        check_word_length(params, len(raw))
        if params.p == 2:
            bits = int.from_bytes(raw, "little")
            if bits >> params.n:
                raise MalformedInputError("padding bits of the last byte must be zero")
            return cls(params, bits)
        if max(raw) >= params.p:
            raise MalformedInputError(f"word symbols must lie in [0, {params.p})")
        return cls(params, tuple(raw))


# ---------------------------------------------------------------------------
# Tensor powers and the independence property.


def tensor_power(point, t: int, p: int = 2) -> tuple[int, ...]:
    """The vector of monomial evaluations of degree <= t at the point,
    constant entry first."""
    # from a list: a tuple grown from a generator took syndrome_streaming,
    # which calls this once per run, past its two-syndrome memory bound
    return tuple([v % p for v in monomial_index(len(point), t, p).values(1, point, mul)])


def _bit_rows(points, index) -> list[int]:
    """Over F_2, the tensor powers of the points on the index, each packed
    as one |M|-bit int with bit i the value of monomial i: a monomial is 1
    at e exactly when it lacks every x_v with e_v = 0, so the row is the
    and of those variables' absent masks (MonomialIndex.absent_masks)."""
    masks, full = index.absent_masks(), (1 << index.size) - 1
    return [reduce(and_, compress(masks, map(not_, e)), full) for e in points]


def _point_columns(points, weights, index) -> list:
    """Over odd p, per monomial of the index, the tuple of its weighted
    values w_e e^a at the points, unreduced, by one walk down the index
    (MonomialIndex.values) with one value per point in each step."""
    cols = list(zip(*points)) or [()] * index.m
    return index.values(tuple(weights), cols, lambda a, b: tuple(map(mul, a, b)))


def tensor_power_matrix(points, t: int, p: int = 2, m: int | None = None) -> FFMatrix:
    """Matrix whose rows are the degree <= t tensor powers of the points."""
    points = list(points)
    if m is None:
        if not points:
            raise ValueError("empty point list needs an explicit m")
        m = len(points[0])
    f, index = prime_field(p), monomial_index(m, t, p)
    if p == 2:
        return FFMatrix.from_packed_rows(f, _bit_rows(points, index), index.size)
    if not points:
        return FFMatrix.zeros(f, 0, index.size)
    cols = _point_columns(points, [1] * len(points), index)
    cols = [slot_layout(f).pack([v % p for v in col]) for col in cols]
    return FFMatrix.from_packed_rows(f, cols, len(points)).transpose()


def has_property_ur(E: ErrorSet, r: int) -> bool:
    """True iff the degree <= r tensor powers of the points are linearly
    independent."""
    mat = tensor_power_matrix(E.points, r, E.params.p, E.params.m)
    return rank(mat) == len(E.points)


def sample_error_set(params: CodeParams, t: int, rng, max_attempts: int = 64) -> ErrorSet:
    """t distinct uniform points, resampled until the degree-r tensor
    powers are independent; the resample count is recorded on the result.
    Points are drawn by rng.sample while p^m fits in an index (sys.maxsize),
    else as distinct rng.randrange(p^m) values."""
    limit = monomial_index(params.m, params.r, params.p).size
    if t > limit:
        raise ValueError(f"t={t} exceeds the independence bound {limit}")
    for attempt in range(max_attempts):
        if params.n <= sys.maxsize:
            ints = rng.sample(range(params.n), t)
        else:
            ints = set()
            while len(ints) < t:
                ints.add(rng.randrange(params.n))
        pts = tuple(int_to_point(x, params.m, params.p) for x in ints)
        cand = ErrorSet(params, pts, resamples=attempt)
        if has_property_ur(cand, params.r):
            return cand
    raise SamplingError(
        f"no independent error set of size {t} found in {max_attempts} attempts")


def vanishing_space(points, degree: int, m: int, p: int = 2) -> PolySpace:
    """The space of all reduced polynomials of degree <= the bound that
    vanish on every given point: the nullspace of the tensor power matrix."""
    index = monomial_index(m, degree, p)
    mat = tensor_power_matrix(points, degree, p, m)
    return PolySpace.from_matrix(index, nullspace_basis(mat))


def solve_error_magnitudes(S: "Syndrome", E: ErrorSet) -> tuple | None:
    """The weights w_e with sum_e w_e * e^{<= 2r+1} = S, or None when
    there are none or E's degree <= r tensor powers are dependent.

    The entries of S at the monomials of degree <= r, a prefix of the
    graded syndrome index, are A^T w, with A the t x |M_r| matrix of E's
    degree <= r tensor powers.  One rref of [A^T | S[:|M_r|]] has pivots
    0..t-1 exactly when A^T has rank t and the system is consistent; its
    last column then holds w, returned only if w reproduces all of S."""
    params = S.params
    powers = [tensor_power(e, params.r, params.p) for e in E.points]
    prefix = S.entries[:monomial_count(params.m, params.r, params.p)]
    R, _, pivots = rref(FFMatrix.from_rows(params.field, zip(*powers, prefix)))
    if pivots != tuple(range(E.t)):
        return None
    w = tuple(R.at(i, E.t) for i in range(E.t))
    if syndrome_from_weighted_errors(E, w).entries != tuple(S.entries):
        return None
    return w


def explains(S: "Syndrome", E: ErrorSet) -> bool:
    """Does E explain S?  True iff S = sum_e w_e e^{<= 2r+1} with every
    magnitude w_e nonzero (solve_error_magnitudes, so over odd p E's
    degree <= r tensor powers must be independent).  Over F_2 the only
    nonzero magnitudes are w = 1, so E's syndrome, the xor of its packed
    tensor-power rows (syndrome_from_errors), must equal S in every entry,
    and no system is solved."""
    if S.params.p == 2:
        return syndrome_from_errors(E).entries == tuple(S.entries)
    w = solve_error_magnitudes(S, E)
    return w is not None and all(w)


# ---------------------------------------------------------------------------
# Syndromes.


def moment_matrix(S: Syndrome, rows, cols) -> FFMatrix:
    """The minor H[rows, cols] of the syndrome's moment (Hankel) matrix
    H[i, j] = S[reduce(M_i M_j)], M_i of degree <= r and M_j of degree
    <= r + 1 (moment_positions).  Reduction commutes with products, so a
    tensor slice T_v[i, j] = S[reduce(M_i M_j x_v)] is H at the shifted
    columns: T_v[rows, cols] = H[rows, shift_v(cols)], with shift_v the
    map M_j -> reduce(M_j x_v) on columns of degree <= r
    (MonomialIndex.var_mul of the degree-(r + 1) index)."""
    params = S.params
    table = moment_positions(params.m, params.r, params.p)
    # each row gathered by itemgetter at C speed and packed once
    pick, pack = _picker(cols), slot_layout(params.field).pack
    return FFMatrix.from_packed_rows(params.field, [
        pack(_picker(pick(table[i]))(S.entries)) for i in rows], len(cols))


def _picker(idx):
    """seq -> the tuple of seq's entries at idx: a slice for a prefix
    range(n), else itemgetter, except for fewer than two indices, where
    itemgetter returns a bare entry or cannot be built."""
    if isinstance(idx, range) and idx == range(len(idx)):
        return itemgetter(slice(len(idx)))
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda seq: tuple([seq[i] for i in idx])


def constant_slice(S: Syndrome) -> tuple[int, ...]:
    """K, the pivot columns of one rref of T_0 = H[:, :|M_r|]: the front
    half every decoder shares.

    T_0 is symmetric (a moment matrix), so K indexes a column basis and,
    by symmetry, a row basis, and T_0[K, K] is invertible: with
    T_0 = T_0[:, K] X, the rows T_0[K, :] = T_0[K, K] X are the transpose
    of the independent columns T_0[:, K], so they have rank t = |K|, and
    so do the rows H[K, :].  Raises DecodingFailure for a zero T_0 of a
    nonzero syndrome."""
    square = range(monomial_count(S.params.m, S.params.r, S.params.p))
    K = rref(moment_matrix(S, square, square))[2]
    if not K and not S.is_zero():
        raise DecodingFailure("zero constant slice of a nonzero syndrome")
    return K


def syndrome_from_errors(E: ErrorSet) -> Syndrome:
    """Sum of the degree <= 2r+1 tensor powers of the error locations."""
    return syndrome_from_weighted_errors(E, [1] * E.t)


def syndrome_from_weighted_errors(E: ErrorSet, weights) -> Syndrome:
    """Sum of weighted tensor powers: the syndrome of a word whose error at
    each location has the given magnitude."""
    p, index = E.params.p, E.params.syndrome_index
    if p == 2:
        odd = [e for e, w in zip(E.points, weights) if w & 1]
        packed = reduce(xor, _bit_rows(odd, index), 0)
        return Syndrome(E.params, slot_layout(E.params.field).unpack(packed, index.size))
    cols = _point_columns(E.points, weights, index)
    return Syndrome(E.params, tuple([sum(c) % p for c in cols]))


def _slot_bits(m: int, p: int) -> int:
    """Bits per slot of a packed table of p^m values: 1 over F_2, where
    slots add by xor; over odd p whole bytes holding (p-1) (p(p-1))^m, the
    largest sum after m transform passes, so sums never carry."""
    return 1 if p == 2 else 8 * ((((p - 1) * (p * (p - 1)) ** m).bit_length() + 7) // 8)


def _pack(values, m: int, p: int) -> int:
    """The p^m symbols of a table in one int, symbol i in slot i (an int,
    a bit-packed F_2 word, is packed already).  Raises ValueError for a
    symbol outside [0, p)."""
    if isinstance(values, int):
        return values
    if not 0 <= min(values) <= max(values) < p:
        raise ValueError(f"symbols must lie in [0, {p})")
    if p == 2:
        return pack_bits(values)
    width = _slot_bits(m, p) // 8
    data = bytearray(len(values) * width)
    for j in range(0, (p - 1).bit_length(), 8):
        data[j // 8::width] = (bytes(values) if p <= 256
                               else bytes(v >> j & 255 for v in values))
    return int.from_bytes(data, "little")


@lru_cache(maxsize=8)
def _transform_plan(m: int, p: int, moments: bool) -> tuple:
    """_power_transform's matrix, row k for output digit k, and axis masks."""
    bits, axes = _slot_bits(m, p), []
    for shift in [bits * p ** axis for axis in range(m)]:
        unit = lcm(p * shift, 8)  # mask: the low `shift` bits of every period
        low = sum((1 << shift) - 1 << s for s in range(0, unit, p * shift))
        axes.append((shift, int.from_bytes(low.to_bytes(unit // 8, "little")
                                           * -(-bits * p ** m // unit), "little")))
    return tuple(tuple(pow(a, k, p) if moments else pow(k, a, p) for a in range(p))
                 for k in range(p)), tuple(axes)


def _power_transform(W: int, m: int, p: int, moments: bool) -> int:
    """Moments sum_x y(x) x^k of a packed table of p^m symbols y
    (moments=True), or the transpose: evaluations sum_k c_k x^k of a packed
    coefficient table.  Each of m passes combines the p digit planes of
    one axis by the matrix (a^k mod p); over F_2 this is the superset-sum
    transform.  Slot i of the result belongs to the point or exponent
    vector numbered i; _slots reads it mod p."""
    power, axes = _transform_plan(m, p, moments)
    for shift, mask in axes:
        planes = [W >> a * shift & mask for a in range(p)]
        W = 0
        for k, row in enumerate(power):
            terms = [c * plane for c, plane in zip(row, planes) if c]
            W |= (reduce(xor, terms) if p == 2 else sum(terms)) << k * shift
    return W


def _slots(W: int, m: int, p: int):
    """Reader of slot i, mod p, of a packed table of p^m slots."""
    width = _slot_bits(m, p)
    raw = W.to_bytes((width * p ** m + 7) // 8, "little")
    if p == 2:
        return lambda i: raw[i >> 3] >> (i & 7) & 1
    width //= 8
    return lambda i: int.from_bytes(raw[i * width:(i + 1) * width], "little") % p


@lru_cache(maxsize=None)
def _run_layout(params: CodeParams, j: int) -> tuple:
    """The distinct run slots a_low of the syndrome monomials x^a =
    x_low^a_low x_high^a_high split at variable j, and per monomial its
    a_low's index there and a_high's position in monomial_index(m - j, ...):
    the key of x^a is a_high's key * p^j + a_low's run slot."""
    index, q = params.syndrome_index, params.p ** j
    high = monomial_index(params.m - j, index.t, params.p).position
    lows: dict = {}
    layout = tuple((lows.setdefault(low, len(lows)), high[hi])
                   for hi, low in (divmod(key, q) for key in index.keys))
    return tuple(lows), layout


def _fold(params: CodeParams, runs, j: int) -> Syndrome:
    """The syndrome of a word given as its p^(m-j) runs of p^j consecutive
    symbols, each packed by _pack.  Run c shares the high coordinates
    h = int_to_point(c, m - j, p), so its moments along the low j axes add
    h^a_high * moment[a_low] to the entry of x^a."""
    m, p = params.m, params.p
    lows, layout = _run_layout(params, j)
    entries = [0] * len(layout)
    for c, run in enumerate(runs):
        read = _slots(_power_transform(run, j, p, moments=True), j, p)
        moment = [read(a) for a in lows]
        h = tensor_power(int_to_point(c, m - j, p), 2 * params.r + 1, p)
        for i, (low, high) in enumerate(layout):
            if h[high]:
                entries[i] = (entries[i] + h[high] * moment[low]) % p
    return Syndrome(params, tuple(entries))


def syndrome_of_word(word: ReceivedWord) -> Syndrome:
    """Batch syndrome: the fold of one run, the whole word transformed
    along all m axes.  Raises ValueError for a symbol outside [0, p)."""
    params = word.params
    return _fold(params, [_pack(word.values, params.m, params.p)], params.m)


def syndrome_streaming(params: CodeParams, stream) -> Syndrome:
    """One-pass syndrome of the p^m symbols delivered in point enumeration
    order.  Each run of p^j symbols, p^j the largest power of p not above
    the syndrome length, is folded in as it completes, so memory stays
    within a small multiple of one syndrome.  Raises LengthMismatchError
    for a stream of another length, ValueError for a symbol outside [0, p)."""
    m, p = params.m, params.p
    j = max(j for j in range(m + 1) if p ** j <= params.syndrome_index.size)
    stream = iter(stream)

    def runs():
        for c in range(p ** (m - j)):
            run = list(islice(stream, p ** j))
            if len(run) < p ** j:
                raise LengthMismatchError(f"stream delivered {c * p ** j + len(run)}"
                                          f" of {params.n} coordinates")
            yield _pack(run, j, p)
        for _ in stream:
            raise LengthMismatchError("stream longer than p^m")

    return _fold(params, runs(), j)


# ---------------------------------------------------------------------------
# Encoding and corruption.


def encode(P: MultilinearPoly, params: CodeParams) -> ReceivedWord:
    """Evaluation table of a polynomial of degree <= m - 2r - 2: the
    transpose of the moment transform on its coefficient table."""
    if P.index.m != params.m or P.index.p != params.p:
        raise ValueError("polynomial index does not match the parameters")
    if P.degree() > params.code_degree:
        raise DegreeError(
            f"degree {P.degree()} exceeds code degree {params.code_degree}")
    m, p = params.m, params.p
    table = [0] * params.n
    for i, c in zip(P.index.keys, P.coeffs):
        table[i] = c
    W = _power_transform(_pack(table, m, p), m, p, moments=False)
    return ReceivedWord(params, W if p == 2 else
                        tuple(map(_slots(W, m, p), range(params.n))))


def corrupt(word: ReceivedWord, E: ErrorSet, rng=None) -> ReceivedWord:
    """Flip the word at each error location (F_2), or add a uniformly
    random nonzero field value there (odd p, needs an rng)."""
    params = word.params
    if E.params != params:
        raise ValueError("parameter mismatch")
    if params.p == 2:
        delta = sum(1 << point_to_int(e, 2) for e in E.points)  # distinct points
        return ReceivedWord(params, word.values ^ delta)
    if rng is None:
        raise ValueError("corrupting over an odd-order field needs an rng")
    f = params.field
    values = list(word.values)
    for e in E.points:
        i = point_to_int(e, params.p)
        values[i] = f.add(values[i], rng.randrange(1, params.p))
    return ReceivedWord(params, tuple(values))


# ---------------------------------------------------------------------------
# Files.


def write_word_file(word: ReceivedWord, path) -> None:
    Path(path).write_bytes(word.to_bytes())
    Path(f"{path}.json").write_text(json.dumps(word.params.to_json_dict()))


def read_word_file(path) -> ReceivedWord:
    params = CodeParams.from_json_dict(json.loads(Path(f"{path}.json").read_text()))
    return ReceivedWord.from_bytes(params, Path(path).read_bytes())


def write_syndrome_file(s: Syndrome, path) -> None:
    Path(path).write_text(json.dumps(s.to_json_dict()))


def read_syndrome_file(path) -> Syndrome:
    return Syndrome.from_json_dict(json.loads(Path(path).read_text()))
