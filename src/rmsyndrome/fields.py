"""Finite field arithmetic: prime fields F_p, extensions F_{p^k}, and
univariate polynomials over them.

Field elements are plain Python ints everywhere.  In F_p an element is its
residue, in F_{p^k} an element encodes its coefficient vector (lowest degree
first) in base p; for p = 2 this is just the usual bit-packed polynomial
representation, and multiplication runs on ints with carry-less arithmetic
plus reduction by folding the high half down.  Zero and one are always
encoded as 0 and 1, and elements of the prime field keep their encoding
inside any extension.

Univariate polynomials over every field divide by one routine,
poly_divmod, and take gcds by one, poly_gcd, both on coefficient lists;
UniPoly, the root finder and the Jennrich split all call these two.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable


class OrderFactorizationError(Exception):
    """Raised when p^k - 1 cannot be factored within the configured budget."""


# ---------------------------------------------------------------------------
# Integer helpers: primality and factoring (used for primitive elements).

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
_MR_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
             59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set (deterministic behaviour)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, budget: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor or 0 on budget."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        steps = 0
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
            steps += 1
            if steps > budget:
                return 0
        if d != n:
            return d
    return 0


def factorize(n: int, trial_bound: int = 100_000, rho_budget: int = 1 << 22) -> dict[int, int]:
    """Prime factorization of n as {prime: exponent}.

    Trial division up to trial_bound, then Pollard rho on what remains.
    Raises OrderFactorizationError if a composite cofactor survives the
    rho budget.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    factors: dict[int, int] = {}
    d = 2
    while d <= trial_bound and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        c = stack.pop()
        if c == 1:
            continue
        if is_prime(c):
            factors[c] = factors.get(c, 0) + 1
            continue
        f = _pollard_rho(c, rho_budget)
        if f == 0 or f == c:
            raise OrderFactorizationError(
                f"order factorization too large: composite cofactor {c}")
        stack.append(f)
        stack.append(c // f)
    return factors


# ---------------------------------------------------------------------------
# GF(2)[X] on ints: bit i = coefficient of X^i.

_SPREAD8 = [0] * 256
for _b in range(256):
    _v = 0
    for _i in range(8):
        if _b >> _i & 1:
            _v |= 1 << (2 * _i)
    _SPREAD8[_b] = _v
del _b, _v, _i


def _gf2_square_int(a: int) -> int:
    r = 0
    shift = 0
    while a:
        r |= _SPREAD8[a & 0xFF] << shift
        a >>= 8
        shift += 16
    return r


def _gf2_mod_int(a: int, f: int) -> int:
    df = f.bit_length() - 1
    da = a.bit_length() - 1
    while da >= df:
        a ^= f << (da - df)
        da = a.bit_length() - 1
    return a


def _gf2_gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_mod_int(a, b)
    return a


def _gf2_is_irreducible_int(f: int, k: int) -> bool:
    """Irreducibility of a degree-k polynomial over F_2, int-encoded."""
    if k <= 0:
        return False
    if not (f & 1):
        return k == 1 and f == 2  # divisible by X unless f = X itself
    x_red = _gf2_mod_int(2, f)  # X reduced (a constant when k == 1)
    h = x_red
    for d in range(1, k + 1):
        h = _gf2_mod_int(_gf2_square_int(h), f)
        if d == k:
            return h == x_red
        if k % d == 0 and _gf2_gcd_int(h ^ x_red, f) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Fields.


class PrimeField:
    """The prime field F_p; elements are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    # Uniform field protocol -------------------------------------------------
    @property
    def order(self) -> int:
        return self.p

    @property
    def char(self) -> int:
        return self.p

    zero = 0
    one = 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def square(self, a: int) -> int:
        return a * a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def is_base(self, a: int) -> bool:
        return 0 <= a < self.p

    def random_element(self, rng) -> int:
        return rng.randrange(self.p)

    def elements(self) -> Iterable[int]:
        return range(self.p)

    def element_coeffs(self, a: int) -> list[int]:
        return [a % self.p]

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class ExtField:
    """The extension field F_{p^k} = F_p[z] / (modulus).

    Elements are ints: the base-p digits of the int are the coefficients of
    the residue polynomial, lowest degree first.  For p = 2 multiplication
    is a 4-bit-windowed carry-less product folded back below degree k, and
    the same two steps act on whole packed vectors (_window, _clmul,
    _fold), which linalg uses for its matrices.
    """

    __slots__ = ("base", "k", "modulus", "p", "_modint", "_mask",
                 "_lowbits", "_modlow")

    def __init__(self, base: PrimeField, k: int, modulus: "UniPoly"):
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus.field != base or modulus.degree != k or not modulus.is_monic():
            raise ValueError("modulus must be monic of degree k over the base field")
        if not is_irreducible(modulus):
            raise ValueError("modulus is reducible")
        self.base = base
        self.k = k
        self.p = base.p
        self.modulus = modulus
        if self.p == 2:
            self._modint = sum(c << i for i, c in enumerate(modulus.coeffs))
            self._mask = (1 << k) - 1
            self._lowbits = tuple(i for i in range(k) if modulus.coeffs[i])
            self._modlow = None
        else:
            self._modint = None
            self._mask = None
            self._lowbits = None
            self._modlow = modulus.coeffs[:-1]  # monic: X^k = -modlow

    # Uniform field protocol -------------------------------------------------
    @property
    def order(self) -> int:
        return self.p ** self.k

    @property
    def char(self) -> int:
        return self.p

    zero = 0
    one = 1

    # Packed vectors over F_{2^k}: entry j sits in bits [2kj, 2kj + 2k) of
    # one int, a slot wide enough for the unreduced carry-less product of
    # two elements (Kronecker substitution; von zur Gathen & Gerhard,
    # Modern Computer Algebra, 8.4).  A single element is the one-slot case.

    def _pack(self, entries) -> int:
        w = 2 * self.k
        x = 0
        for e in reversed(entries):
            x = x << w | e
        return x

    def _unpack(self, x: int, n: int) -> tuple:
        w = 2 * self.k
        return tuple([x >> j * w & self._mask for j in range(n)])

    @staticmethod
    def _window(v: int) -> tuple:
        """The carry-less products n * v for n < 16."""
        t2 = v << 1
        t4 = v << 2
        t8 = v << 3
        return (0, v, t2, t2 ^ v, t4, t4 ^ v, t4 ^ t2, t4 ^ t2 ^ v,
                t8, t8 ^ v, t8 ^ t2, t8 ^ t2 ^ v, t8 ^ t4, t8 ^ t4 ^ v,
                t8 ^ t4 ^ t2, t8 ^ t4 ^ t2 ^ v)

    @staticmethod
    def _clmul(c: int, tb: tuple) -> int:
        """The carry-less product c * v for tb = _window(v), 4 bits of c
        at a time.  With c and the slots of v below 2^k, each slot of the
        product stays below 2^(2k - 1)."""
        acc = shift = 0
        while c:
            if c & 15:
                acc ^= tb[c & 15] << shift
            c >>= 4
            shift += 4
        return acc

    def _fold(self, x: int, lows: int) -> int:
        """x with every slot that lows (the low k bits of some slots)
        covers reduced mod the modulus, all slots at once.  X^k is the
        modulus's low part, of degree below k, so a slot's high half hi
        moves down as hi times that part: each pass lowers the degree of
        hi, and no shift reaches the next slot."""
        k = self.k
        hi = x >> k & lows
        while hi:
            x &= lows
            for s in self._lowbits:
                x ^= hi << s
            hi = x >> k & lows
        return x

    def _digits(self, a: int) -> list[int]:
        p = self.p
        out = [0] * self.k
        for i in range(self.k):
            a, out[i] = divmod(a, p)
        return out

    def _undigits(self, v: list[int]) -> int:
        p = self.p
        out = 0
        for c in reversed(v[:self.k]):
            out = out * p + c
        return out

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x - y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return self._undigits([-x % self.p for x in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        if self.p == 2:
            return self._fold(self._clmul(b, self._window(a)), self._mask)
        da, db = self._digits(a), self._digits(b)
        p = self.p
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        return self._undigits(self._reduce_digits(prod))

    def _reduce_digits(self, v: list[int]) -> list[int]:
        p = self.p
        modlow = self._modlow
        for i in range(len(v) - 1, self.k - 1, -1):
            c = v[i]
            if c:
                v[i] = 0
                for j, md in enumerate(modlow):
                    if md:
                        v[i - self.k + j] = (v[i - self.k + j] - c * md) % p
        return v[:self.k]

    def square(self, a: int) -> int:
        if self.p == 2:
            return self._fold(_gf2_square_int(a), self._mask)
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if not 0 < a < self.order:
            raise ValueError(f"{a} is not an element of {self!r}")
        if self.p == 2:
            # shift-xor extended Euclid (Hankerson, Menezes & Vanstone,
            # Guide to Elliptic Curve Cryptography, Alg. 2.48): a s0 = r0
            # and a s1 = r1 mod the modulus throughout, and s0 keeps
            # degree < k; the modulus is irreducible, so r0 reaches 1
            r0, r1 = a, self._modint
            s0, s1 = 1, 0
            while r0 != 1:
                sh = r0.bit_length() - r1.bit_length()
                if sh < 0:
                    r0, r1, s0, s1 = r1, r0, s1, s0
                    sh = -sh
                r0 ^= r1 << sh
                s0 ^= s1 << sh
            return s0
        # extended Euclid over F_p[X]: a s_i = r_i mod the modulus, which
        # is irreducible, so r1 ends a nonzero constant
        r0, r1 = self.modulus, UniPoly(self.base, self._digits(a))
        s0, s1 = UniPoly.zero(self.base), UniPoly.one(self.base)
        while r1.degree > 0:
            q, r = r0.divmod_by(r1)
            r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
        return self._undigits(s1.scale(self.base.inv(r1.coeffs[0])).coeffs)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.square(a)
            e >>= 1
        return r

    def is_base(self, a: int) -> bool:
        return 0 <= a < self.p

    def random_element(self, rng) -> int:
        return rng.randrange(self.order)

    def elements(self) -> Iterable[int]:
        return range(self.order)

    def element_coeffs(self, a: int) -> list[int]:
        return self._digits(a)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtField) and other.p == self.p
                and other.k == self.k and other.modulus.coeffs == self.modulus.coeffs)

    def __hash__(self) -> int:
        return hash(("ExtField", self.p, self.k, self.modulus.coeffs))

    def __repr__(self) -> str:
        return f"ExtField(p={self.p}, k={self.k})"


@lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


@lru_cache(maxsize=None)
def extension_field(p: int, k: int) -> ExtField:
    """F_{p^k} with the deterministic modulus from find_irreducible."""
    base = prime_field(p)
    return ExtField(base, k, find_irreducible(base, k))


# ---------------------------------------------------------------------------
# Univariate polynomials.


class UniPoly:
    """Dense univariate polynomial; coeffs lowest-first, no trailing zeros."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field) -> "UniPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "UniPoly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field) -> "UniPoly":
        return cls(field, (0, 1))

    @classmethod
    def from_roots(cls, field, roots) -> "UniPoly":
        out = cls.one(field)
        for r in roots:
            out = out * cls(field, (field.neg(r), 1))
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def monic(self) -> "UniPoly":
        if self.is_zero() or self.is_monic():
            return self
        inv = self.field.inv(self.coeffs[-1])
        return self.scale(inv)

    def scale(self, c: int) -> "UniPoly":
        f = self.field
        if c == 0:
            return UniPoly.zero(f)
        return UniPoly(f, (f.mul(a, c) for a in self.coeffs))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return UniPoly(f, out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            x = self.coeffs[i] if i < len(self.coeffs) else 0
            y = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(f.sub(x, y))
        return UniPoly(f, out)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        f = self.field
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(f)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = f.add(out[i + j], f.mul(a, b))
        return UniPoly(f, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, UniPoly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def divmod_by(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        quo, rem = poly_divmod(self.coeffs, other.coeffs, self.field)
        return UniPoly(self.field, quo), UniPoly(self.field, rem)

    def mod(self, other: "UniPoly") -> "UniPoly":
        return self.divmod_by(other)[1]

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """The monic gcd (zero when both are zero)."""
        return UniPoly(self.field, poly_gcd(self.coeffs, other.coeffs, self.field))

    def pow_mod(self, e: int, modulus: "UniPoly") -> "UniPoly":
        if e < 0:
            raise ValueError("negative exponent")
        result = UniPoly.one(self.field)
        base = self.mod(modulus)
        while e:
            if e & 1:
                result = (result * base).mod(modulus)
            base = (base * base).mod(modulus)
            e >>= 1
        return result

    def evaluate(self, x: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"


# ---------------------------------------------------------------------------
# Irreducibility and field construction.


def is_irreducible(f: UniPoly) -> bool:
    """True iff the monic polynomial f has no nontrivial factor.

    Tests gcd(X^{q^d} - X, f) = 1 for every proper divisor d of deg f and
    X^{q^k} = X mod f, over the coefficient field of order q.
    """
    if not f.is_monic():
        raise ValueError("is_irreducible expects a monic polynomial")
    k = f.degree
    if k < 1:
        raise ValueError("degree must be >= 1")
    field = f.field
    if isinstance(field, PrimeField) and field.p == 2:
        return _gf2_is_irreducible_int(sum(c << i for i, c in enumerate(f.coeffs)), k)
    if k == 1:
        return True
    q = field.order
    x = UniPoly.x(field)
    h = x
    for d in range(1, k + 1):
        h = h.pow_mod(q, f)
        if d == k:
            return h == x.mod(f)
        if k % d == 0 and (h - x).gcd(f).degree > 0:
            return False
    return True


def find_irreducible(base: PrimeField, k: int) -> UniPoly:
    """Deterministic monic irreducible of degree k over the base field.

    Search order: trinomials X^k + X^j + 1 with increasing j, then all
    monic polynomials ordered by the integer encoding of their lower
    coefficients (base-p digits, lowest degree least significant).
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    p = base.p
    for j in range(1, k):
        coeffs = [0] * (k + 1)
        coeffs[0] = 1
        coeffs[j] = (coeffs[j] + 1) % p
        coeffs[k] = 1
        cand = UniPoly(base, coeffs)
        if cand.degree == k and is_irreducible(cand):
            return cand
    for n in range(p ** k):
        coeffs = []
        v = n
        for _ in range(k):
            v, c = divmod(v, p)
            coeffs.append(c)
        # quick screens: constant term 0 means X divides; over F_2 an even
        # weight means X+1 divides
        if k > 1 and coeffs[0] == 0:
            continue
        if p == 2 and k > 1 and (sum(coeffs) + 1) % 2 == 0:
            continue
        cand = UniPoly(base, coeffs + [1])
        if is_irreducible(cand):
            return cand
    raise RuntimeError("unreachable: irreducibles of every degree exist")


@lru_cache(maxsize=None)
def find_primitive_element(field) -> int:
    """Deterministic generator of the multiplicative group of the field.

    Verified by g^{(q-1)/l} != 1 for every prime l dividing q - 1; raises
    OrderFactorizationError when q - 1 cannot be factored in budget.
    Cached per field, since factoring q - 1 dominates and fields are few.
    """
    n = field.order - 1
    if n == 0:
        raise ValueError("field of order 1?")
    if n == 1:
        return 1
    primes = sorted(factorize(n))
    cofactors = [n // q for q in primes]
    for g in range(2, field.order):
        if all(field.pow(g, c) != 1 for c in cofactors):
            assert field.pow(g, n) == 1
            return g
    raise RuntimeError("unreachable: cyclic group has a generator")


# ---------------------------------------------------------------------------
# Root extraction (Berlekamp root-finding specialization).


def berlekamp_roots(f: UniPoly) -> dict[int, int]:
    """All roots of f in its coefficient field, mapped to multiplicities.

    deg(f) - sum(multiplicities) is the degree of the rootless cofactor,
    so a caller can detect factors that do not split into linear pieces.
    Deterministic: the equal-degree splitting walks a fixed element
    sequence instead of sampling.
    """
    if f.is_zero():
        raise ValueError("berlekamp_roots expects a nonzero polynomial")
    field = f.field
    fm = f.monic()
    if fm.degree == 0:
        return {}
    if field.char == 2:
        roots = _roots_distinct_char2(fm, field)
    else:
        q = field.order
        x = UniPoly.x(field)
        xq = x.pow_mod(q, fm)
        g = (xq - x).gcd(fm)
        roots = _split_linear_odd(g, field) if g.degree > 0 else []
    out: dict[int, int] = {}
    for r in sorted(roots):
        mult = 0
        poly = fm
        linear = UniPoly(field, (field.neg(r), 1))
        while True:
            quo, rem = poly.divmod_by(linear)
            if not rem.is_zero():
                break
            poly = quo
            mult += 1
        out[r] = mult
    return out


# Polynomials as plain coefficient lists (lowest first, trimmed): the one
# division and gcd behind UniPoly and the Jennrich split.


def _trim(v: list) -> list:
    while v and not v[-1]:
        v.pop()
    return v


def poly_divmod(a, b, field) -> tuple[list, list]:
    """Quotient and remainder of a by b, coefficient sequences over the
    field (lowest degree first, b trimmed), as trimmed lists; raises
    ZeroDivisionError for b = 0.

    Over characteristic 2 this is Kronecker substitution (von zur Gathen &
    Gerhard, Modern Computer Algebra, 8.4): coefficients sit in 2k-bit
    slots of one int, wide enough for an unreduced carry-less product, so
    cancelling a leading term is one 4-bit-windowed carry-less product of
    a field element with the packed divisor (ExtField._clmul), and a slot
    is reduced into the field (ExtField._fold) when it is read.  Over odd
    characteristic it is schoolbook long division.  b's leading inverse is
    taken only when it is not 1.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return [], _trim(list(a))
    lead_inv = field.inv(b[-1]) if b[-1] != 1 else 1
    quo = [0] * (len(a) - db)
    if field.char == 2:
        if field.order == 2:  # the packed-vector helpers live on ExtField
            field = extension_field(2, 1)
        w = 2 * field.k
        mask = (1 << w) - 1
        fold, clmul = field._fold, field._clmul
        A, tb = field._pack(a), field._window(field._pack(b))
        for i in range(len(a) - 1, db - 1, -1):
            c = fold(A >> i * w & mask, field._mask)
            if c:
                qc = quo[i - db] = field.mul(c, lead_inv) if lead_inv != 1 else c
                A ^= clmul(qc, tb) << (i - db) * w
        rem = list(field._unpack(fold(A, field._pack([field._mask] * db)), db))
    else:
        mul, sub = field.mul, field.sub
        rem = list(a)
        for i in range(len(a) - 1, db - 1, -1):
            c = rem[i]
            if c:
                qc = quo[i - db] = mul(c, lead_inv) if lead_inv != 1 else c
                for j, y in enumerate(b):
                    if y:
                        rem[i - db + j] = sub(rem[i - db + j], mul(qc, y))
        del rem[db:]
    return _trim(quo), _trim(rem)


def poly_gcd(a, b, field) -> list:
    """The monic gcd of the trimmed coefficient lists a and b ([] when both
    are zero), by Euclid's remainder sequence through poly_divmod."""
    while b:
        a, b = b, poly_divmod(a, b, field)[1]
    if a and a[-1] != 1:
        inv = field.inv(a[-1])
        a = [field.mul(c, inv) if c else 0 for c in a]
    return a


def _c2_sqmod(a: list, m: list, field) -> list:
    out = [0] * (2 * len(a) - 1) if a else []
    for i, c in enumerate(a):
        if c:
            out[2 * i] = field.square(c)
    return poly_divmod(out, m, field)[1]


def _roots_distinct_char2(fm: UniPoly, field) -> list[int]:
    """Distinct roots of fm over a char-2 field of order 2^kappa.

    Computes g = gcd(fm, X^q - X) via a Frobenius squaring chain, then
    splits g with trace polynomials Tr(uX) mod g.  Traces are computed
    once at the top and reduced down the splitting tree.
    """
    fmul, fsquare = field.mul, field.square
    kappa = (field.order - 1).bit_length()  # q = 2^kappa
    m = list(fm.coeffs)
    if len(m) == 2:  # linear: root is the constant term in char 2
        return [m[0]]
    frob = []  # X^{2^i} mod fm for i = 0..kappa-1
    h = [0, 1]
    for _ in range(kappa):
        frob.append(h)
        h = _c2_sqmod(h, m, field)
    # h = X^q mod fm
    hx = h[:]
    if len(hx) < 2:
        hx += [0] * (2 - len(hx))
    hx[1] ^= 1
    g = poly_gcd(m, _trim(hx), field)
    if len(g) <= 1:
        return []
    frob_g = [poly_divmod(fb, g, field)[1] for fb in frob]
    traces: dict[int, list] = {}

    def trace_at_root(u: int) -> list:
        w = [0] * (len(g) - 1)
        uu = u
        for fbr in frob_g:
            for i, c in enumerate(fbr):
                if c:
                    w[i] ^= fmul(uu, c) if uu != 1 else c
            uu = fsquare(uu)
        return _trim(w)

    roots: list[int] = []
    stack = [g]
    while stack:
        hcur = stack.pop()
        if len(hcur) == 2:  # monic, as gcds and their cofactors are
            roots.append(hcur[0])
            continue
        # u walks the power basis z^j: the trace form is nondegenerate, so
        # some basis element separates any fixed pair of distinct roots
        for j in range(kappa):
            u = 1 << j if field.order > 2 else 1
            w = traces.get(u)
            if w is None:
                w = traces[u] = trace_at_root(u)
            wr = poly_divmod(w, hcur, field)[1]
            d = poly_gcd(hcur, wr, field)
            if 1 < len(d) < len(hcur):
                stack.append(d)
                stack.append(poly_divmod(hcur, d, field)[0])
                break
        else:
            raise RuntimeError("trace splitting failed on distinct roots")
    return roots


def _split_linear_odd(g: UniPoly, field) -> list[int]:
    """Split a product of distinct linear factors over an odd-order field
    via the quadratic character of X + u, u walking a fixed sequence."""
    half = (field.order - 1) // 2
    one = UniPoly.one(field)
    roots: list[int] = []
    stack = [g]
    while stack:
        h = stack.pop()
        if h.degree == 1:
            roots.append(field.neg(h.monic().coeffs[0]))
            continue
        for u in field.elements():
            shifted = UniPoly(field, (u, 1))
            w = shifted.pow_mod(half, h) - one
            d = w.gcd(h)
            if 0 < d.degree < h.degree:
                stack.append(d)
                stack.append(h.divmod_by(d)[0])
                break
        else:
            raise RuntimeError("character splitting failed on distinct roots")
    return roots
