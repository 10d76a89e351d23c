"""Reed-Muller code machinery for syndrome decoding from random errors.

The code with parameters (m, r) over F_p is the evaluation code of reduced
polynomials of degree <= m - 2r - 2 on F_p^m.  Its syndrome map sends a
word y to sum_x y(x) * x^{<= 2r+1}, the vector of monomial evaluations of
degree at most 2r+1; for an error set E of unknown nonzero magnitudes the
syndrome is a weighted sum of the tensor powers e^{<= 2r+1}, e in E.

Points are coordinate tuples; their enumeration order is the integer value
of the little-endian base-p encoding.  Words over F_2 are stored bit-packed
in a single int.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from pathlib import Path

from .fields import is_prime, prime_field
from .linalg import FFMatrix, nullspace_basis, rank
from .polynomials import (MonomialIndex, MultilinearPoly, PolySpace,
                          monomial_count, monomial_index)


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


# ---------------------------------------------------------------------------
# Points.


def point_to_int(point, p: int) -> int:
    acc = 0
    for c in reversed(point):
        acc = acc * p + c
    return acc


def int_to_point(x: int, m: int, p: int) -> tuple[int, ...]:
    out = [0] * m
    for i in range(m):
        x, out[i] = divmod(x, p)
    return tuple(out)


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
    def syndrome_index(self) -> MonomialIndex:
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


@dataclass(frozen=True)
class ErrorSet:
    """Distinct error locations, stored sorted in point-enumeration order."""

    params: CodeParams
    points: tuple[tuple[int, ...], ...]
    resamples: int = field(default=0, compare=False)

    def __post_init__(self):
        pts = sorted(self.points, key=lambda e: point_to_int(e, self.params.p))
        if len(set(pts)) != len(pts):
            raise ValueError("error locations must be distinct")
        for e in pts:
            if len(e) != self.params.m or any(not 0 <= c < self.params.p for c in e):
                raise ValueError("point outside F_p^m")
        object.__setattr__(self, "points", tuple(tuple(e) for e in pts))

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

    def __add__(self, other: "Syndrome") -> "Syndrome":
        if other.params != self.params:
            raise ValueError("parameter mismatch")
        f = self.params.field
        return Syndrome(self.params, tuple(f.add(a, b) for a, b
                                           in zip(self.entries, other.entries)))

    def __sub__(self, other: "Syndrome") -> "Syndrome":
        if other.params != self.params:
            raise ValueError("parameter mismatch")
        f = self.params.field
        return Syndrome(self.params, tuple(f.sub(a, b) for a, b
                                           in zip(self.entries, other.entries)))

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
        entries = d["entries"]
        size = monomial_count(params.m, 2 * params.r + 1, params.p)
        if len(entries) != size:
            raise MalformedInputError(f"a syndrome needs {size} entries")
        if not all(type(v) is int and 0 <= v < params.p for v in entries):
            raise MalformedInputError(
                f"syndrome entries must be integers in [0, {params.p})")
        return cls(params, tuple(entries))


@dataclass(frozen=True)
class ReceivedWord:
    """Length p^m word; bit-packed int over F_2, value tuple otherwise."""

    params: CodeParams
    values: object

    def value_at(self, i: int) -> int:
        if self.params.p == 2:
            return self.values >> i & 1
        return self.values[i]

    def iter_values(self):
        n = self.params.n
        if self.params.p == 2:
            v = self.values
            for _ in range(n):
                yield v & 1
                v >>= 1
        else:
            yield from self.values

    def to_bytes(self) -> bytes:
        n = self.params.n
        if self.params.p == 2:
            return self.values.to_bytes((n + 7) // 8, "little")
        return bytes(self.values)

    @classmethod
    def from_bytes(cls, params: CodeParams, raw: bytes) -> "ReceivedWord":
        n = params.n
        if params.p == 2:
            if len(raw) != (n + 7) // 8:
                raise LengthMismatchError("word file length mismatch")
            bits = int.from_bytes(raw, "little")
            if bits >> n:
                raise MalformedInputError("padding bits of the last byte must be zero")
            return cls(params, bits)
        if len(raw) != n:
            raise LengthMismatchError("word file length mismatch")
        if max(raw) >= params.p:
            raise MalformedInputError(f"word symbols must lie in [0, {params.p})")
        return cls(params, tuple(raw))


# ---------------------------------------------------------------------------
# Tensor powers and the independence property.


@lru_cache(maxsize=None)
def _positions_by_mask(index: MonomialIndex) -> dict:
    return {mask: i for i, mask in enumerate(index.masks)}


def tensor_power(point, t: int, p: int = 2) -> tuple[int, ...]:
    """The vector of monomial evaluations of degree <= t at the point,
    constant entry first."""
    m = len(point)
    index = monomial_index(m, t, p)
    out = [0] * index.size
    if p == 2:
        support = [v for v, c in enumerate(point) if c]
        pos = _positions_by_mask(index)
        top = min(t, len(support))
        for d in range(top + 1):
            for comb in combinations(support, d):
                mask = 0
                for v in comb:
                    mask |= 1 << v
                out[pos[mask]] = 1
        return tuple(out)
    for i in range(index.size):
        out[i] = index.monomial_eval(i, point)
    return tuple(out)


def tensor_power_matrix(points, t: int, p: int = 2, m: int | None = None) -> FFMatrix:
    """Matrix whose rows are the degree <= t tensor powers of the points."""
    points = list(points)
    if m is None:
        if not points:
            raise ValueError("empty point list needs an explicit m")
        m = len(points[0])
    index = monomial_index(m, t, p)
    f = prime_field(p)
    if not points:
        return FFMatrix.zeros(f, 0, index.size)
    return FFMatrix.from_rows(f, [tensor_power(e, t, p) for e in points])


def has_property_ur(E: ErrorSet, r: int) -> bool:
    """True iff the degree <= r tensor powers of the points are linearly
    independent."""
    mat = tensor_power_matrix(E.points, r, E.params.p, E.params.m)
    return rank(mat) == len(E.points)


def sample_error_set(params: CodeParams, t: int, rng, max_attempts: int = 64) -> ErrorSet:
    """t distinct uniform points, resampled until the degree-r tensor
    powers are independent; the resample count is recorded on the result."""
    limit = monomial_index(params.m, params.r, params.p).size
    if t > limit:
        raise ValueError(f"t={t} exceeds the independence bound {limit}")
    for attempt in range(max_attempts):
        ints = rng.sample(range(params.n), t)
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
    """The weights w_e with sum_e w_e * e^{<= 2r+1} = S.

    Unique when the degree <= 2r+1 tensor powers of E are independent;
    None when the system is inconsistent (E does not explain S)."""
    from .linalg import solve
    params = S.params
    A = tensor_power_matrix(E.points, 2 * params.r + 1, params.p,
                            params.m).transpose()
    return solve(A, S.entries)


# ---------------------------------------------------------------------------
# Syndromes.


def _accumulate_point(entries: list, point, weight: int, index: MonomialIndex):
    p = index.p
    if p == 2:
        support = [v for v, c in enumerate(point) if c]
        pos = _positions_by_mask(index)
        top = min(index.t, len(support))
        for d in range(top + 1):
            for comb in combinations(support, d):
                mask = 0
                for v in comb:
                    mask |= 1 << v
                entries[pos[mask]] ^= 1
        return
    f = prime_field(p)
    for i in range(index.size):
        v = index.monomial_eval(i, point)
        if v:
            entries[i] = f.add(entries[i], f.mul(weight, v))


def syndrome_from_errors(E: ErrorSet) -> Syndrome:
    """Sum of the degree <= 2r+1 tensor powers of the error locations."""
    index = E.params.syndrome_index
    entries = [0] * index.size
    for e in E.points:
        _accumulate_point(entries, e, 1, index)
    return Syndrome(E.params, tuple(entries))


def syndrome_from_weighted_errors(E: ErrorSet, weights) -> Syndrome:
    """Sum of weighted tensor powers: the syndrome of a word whose error at
    each location has the given magnitude."""
    index = E.params.syndrome_index
    entries = [0] * index.size
    for e, w in zip(E.points, weights):
        if w % E.params.p:
            _accumulate_point(entries, e, w % E.params.p, index)
    return Syndrome(E.params, tuple(entries))


@lru_cache(maxsize=None)
def _zeta_masks(m: int) -> tuple[int, ...]:
    # mask i: positions of [0, 2^m) whose bit i is clear
    size = 1 << m
    out = []
    for i in range(m):
        block = (1 << (1 << i)) - 1
        mask = block
        span = 2 << i
        while span < size:
            mask |= mask << span
            span <<= 1
        out.append(mask)
    return tuple(out)


def _power_transform(values, m: int, p: int, moments: bool):
    """Moments sum_x values[x] x^k of a table of p^m values in [0, p)
    (moments=True), or the transpose: evaluations sum_k values[k] x^k of a
    coefficient table.  The values sit in byte slots of one int; each of
    m passes combines the p digit planes of one axis by the matrix
    (a^k mod p).  Slots stay below (p-1) (p(p-1))^m, so sums never carry.
    Returns a reader of output slot i, mod p."""
    if not 0 <= min(values) <= max(values) < p:
        raise ValueError(f"symbols must lie in [0, {p})")
    n = p ** m
    width = (((p - 1) * (p * (p - 1)) ** m).bit_length() + 7) // 8
    data = bytearray(n * width)
    for j in range(0, (p - 1).bit_length(), 8):
        data[j // 8::width] = (bytes(values) if p <= 256
                               else bytes(v >> j & 255 for v in values))
    W = int.from_bytes(data, "little")
    power = [[pow(a, k, p) for a in range(p)] for k in range(p)]
    if not moments:
        power = list(zip(*power))
    stride = 1
    for _axis in range(m):
        shift = 8 * width * stride
        block = b"\xff" * (width * stride) + bytes(width * stride * (p - 1))
        mask = int.from_bytes(block * (n // (stride * p)), "little")
        planes = [W >> a * shift & mask for a in range(p)]
        W = 0
        for k, row in enumerate(power):
            W |= sum(c * plane for c, plane in zip(row, planes) if c) << k * shift
        stride *= p
    raw = W.to_bytes(n * width, "little")
    return lambda i: int.from_bytes(raw[i * width:(i + 1) * width], "little") % p


def syndrome_of_word(word: ReceivedWord) -> Syndrome:
    """Batch syndrome of a full word.

    Over F_2 this runs a superset-sum transform on the packed word (m
    big-int passes), then reads one bit per monomial.  Over odd p it
    reads each monomial's slot of the packed moment transform
    _power_transform.  Raises ValueError for a symbol outside [0, p).
    """
    params = word.params
    index = params.syndrome_index
    if params.p == 2:
        W = word.values
        for i, mask in enumerate(_zeta_masks(params.m)):
            W ^= (W >> (1 << i)) & mask
        entries = tuple(W >> mask & 1 for mask in index.masks)
        return Syndrome(params, entries)
    slot = _power_transform(word.values, params.m, params.p, moments=True)
    return Syndrome(params, tuple(slot(point_to_int(mono, params.p))
                                  for mono in index.monomials))


def syndrome_streaming(params: CodeParams, stream) -> Syndrome:
    """One-pass syndrome accumulation over coordinates delivered in point
    enumeration order; memory stays bounded by one syndrome vector."""
    index = params.syndrome_index
    entries = [0] * index.size
    count = 0
    m, p = params.m, params.p
    for v in stream:
        if count >= params.n:
            raise LengthMismatchError("stream longer than p^m")
        if v:
            _accumulate_point(entries, int_to_point(count, m, p), v, index)
        count += 1
    if count != params.n:
        raise LengthMismatchError(f"stream delivered {count} of {params.n} coordinates")
    return Syndrome(params, tuple(entries))


# ---------------------------------------------------------------------------
# Encoding and corruption.


def encode(P: MultilinearPoly, params: CodeParams) -> ReceivedWord:
    """Evaluation table of a polynomial of degree <= m - 2r - 2; over odd
    p, the transpose of syndrome_of_word's moment transform."""
    if P.index.m != params.m or P.index.p != params.p:
        raise ValueError("polynomial index does not match the parameters")
    if P.degree() > params.code_degree:
        raise DegreeError(
            f"degree {P.degree()} exceeds code degree {params.code_degree}")
    m, p = params.m, params.p
    if p == 2:
        dense = 0
        index = P.index
        for i, c in enumerate(P.coeffs):
            if c:
                dense |= 1 << index.masks[i]
        for i, mask in enumerate(_zeta_masks(m)):
            dense ^= (dense & mask) << (1 << i)
        return ReceivedWord(params, dense)
    table = [0] * params.n
    for mono, c in zip(P.index.monomials, P.coeffs):
        table[point_to_int(mono, p)] = c
    slot = _power_transform(table, m, p, moments=False)
    return ReceivedWord(params, tuple(map(slot, range(params.n))))


def corrupt(word: ReceivedWord, E: ErrorSet, rng=None) -> ReceivedWord:
    """Flip the word at each error location (F_2), or add a uniformly
    random nonzero field value there (odd p, needs an rng)."""
    params = word.params
    if E.params != params:
        raise ValueError("parameter mismatch")
    if params.p == 2:
        delta = 0
        for e in E.points:
            delta |= 1 << point_to_int(e, 2)
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
    path = Path(path)
    path.write_bytes(word.to_bytes())
    sidecar = Path(str(path) + ".json")
    sidecar.write_text(json.dumps(word.params.to_json_dict()))


def read_word_file(path) -> ReceivedWord:
    path = Path(path)
    sidecar = Path(str(path) + ".json")
    params = CodeParams.from_json_dict(json.loads(sidecar.read_text()))
    return ReceivedWord.from_bytes(params, path.read_bytes())


def write_syndrome_file(s: Syndrome, path) -> None:
    Path(path).write_text(json.dumps(s.to_json_dict()))


def read_syndrome_file(path) -> Syndrome:
    return Syndrome.from_json_dict(json.loads(Path(path).read_text()))
