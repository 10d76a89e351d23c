import pytest
from hypothesis import given, settings, strategies as st

from rmsyndrome.fields import (ExtField, OrderFactorizationError, UniPoly,
                               _gf2_is_irreducible_int, _swan_reducible,
                               berlekamp_roots, extension_field, factorize,
                               find_irreducible, find_primitive_element,
                               irreducible_trinomial, is_irreducible, is_prime,
                               poly_divmod, poly_gcd, prime_field)

F2 = prime_field(2)
ODD_FIELDS = [prime_field(3), prime_field(5), extension_field(3, 2),
              extension_field(3, 4), extension_field(5, 2)]


def test_find_irreducible_degree_one():
    f = find_irreducible(F2, 1)
    assert f.degree == 1 and f.is_monic()
    assert is_irreducible(f)


def test_find_irreducible_unique_quadratic():
    assert find_irreducible(F2, 2).coeffs == (1, 1, 1)


def test_find_irreducible_octic_gcd_test():
    # independent check via gcd(X^{2^d} - X, f) = 1 for proper divisors
    f = find_irreducible(F2, 8)
    assert f.degree == 8 and f.is_monic()
    x = UniPoly.x(F2)
    for d in (1, 2, 4):
        xqd = x.pow_mod(2 ** d, f)
        assert poly_gcd((xqd - x).coeffs, f.coeffs, F2) == [1]
    assert x.pow_mod(2 ** 8, f) == x.mod(f)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 9])
def test_find_irreducible_passes_is_irreducible(p, k):
    base = prime_field(p)
    f = find_irreducible(base, k)
    assert f.degree == k and f.is_monic()
    assert is_irreducible(f)
    # deterministic: same output on a second search
    assert find_irreducible(base, k) == f


def test_gf2_irreducible_counts_match_the_necklace_formula():
    # the number of irreducibles of degree k over F_2, (1/k) sum_{d | k}
    # mu(d) 2^{k/d}, for k = 1..12
    counts = [2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335]
    for k, count in enumerate(counts, 1):
        assert sum(_gf2_is_irreducible_int(f, k)
                   for f in range(1 << k, 2 << k)) == count


@pytest.mark.parametrize("q, counts", [
    (3, [3, 3, 8, 18, 48]), (5, [5, 10, 40, 150]), (4, [4, 6, 20, 60])])
def test_irreducible_counts_match_the_necklace_formula_over_other_fields(q, counts):
    # is_irreducible away from its F_2 int path: the monic irreducibles of
    # degree k over F_q number (1/k) sum_{d | k} mu(d) q^{k/d}
    F = prime_field(q) if q != 4 else extension_field(2, 2)
    for k, count in enumerate(counts, 1):
        monics = (UniPoly(F, [n // q ** i % q for i in range(k)] + [1]) for n in range(q ** k))
        assert sum(map(is_irreducible, monics)) == count, k


def test_swan_filter_skips_only_reducible_trinomials():
    # every trinomial Swan's theorem rules out is reducible, and the
    # search with the filter finds the least j the full search finds
    skipped = 0
    for n in range(2, 101):
        least = None
        for j in range(1, n):
            irreducible = _gf2_is_irreducible_int(1 << n | 1 << j | 1, n)
            if _swan_reducible(n, j):
                assert not irreducible, (n, j)
                skipped += 1
            if irreducible and least is None:
                least = j
        found = irreducible_trinomial(F2, n)
        assert (found and found.coeffs.index(1, 1)) == least
    assert skipped == 3041  # of the 4950 trinomials
    assert irreducible_trinomial(F2, 8) is None
    assert irreducible_trinomial(prime_field(3), 5) is None  # 1 is a root


def test_is_irreducible_examples():
    assert is_irreducible(UniPoly(F2, (1, 1, 1)))
    assert not is_irreducible(UniPoly(F2, (1, 0, 1)))  # (X+1)^2
    f = find_irreducible(F2, 3) * find_irreducible(F2, 4)
    assert not is_irreducible(f)
    with pytest.raises(ValueError):
        is_irreducible(UniPoly(prime_field(3), (1, 2)))  # non-monic


def test_field_axioms_and_frobenius(rng):
    for field in (extension_field(2, 16), extension_field(3, 2), prime_field(7)):
        p = field.char
        for _ in range(150):
            a, b, c = (field.random_element(rng) for _ in range(3))
            assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b),
                                                              field.mul(a, c))
            assert field.add(a, b) == field.add(b, a)
            assert field.add(a, field.neg(a)) == 0
            if a:
                assert field.mul(a, field.inv(a)) == 1
            assert field.pow(field.add(a, b), p) == field.add(field.pow(a, p),
                                                              field.pow(b, p))


def test_ext_field_element_encoding():
    F4 = extension_field(2, 2)
    # z * z = z + 1 under modulus z^2 + z + 1
    assert F4.mul(2, 2) == 3
    assert F4.element_coeffs(3) == [1, 1]
    F9 = extension_field(3, 2)
    assert F9.element_coeffs(5) == [2, 1]  # 5 = 2 + 1*3
    assert F9.add(5, 5) == F9.mul(2, 5)


def test_primitive_element_f4_is_z():
    F4 = extension_field(2, 2)
    g = find_primitive_element(F4)
    assert g == 2
    assert F4.pow(g, 3) == 1 and F4.pow(g, 1) != 1


def test_primitive_element_f2_degenerate():
    assert find_primitive_element(F2) == 1


def test_primitive_element_f16_order_15():
    F16 = extension_field(2, 4)
    g = find_primitive_element(F16)
    powers = {F16.pow(g, i) for i in range(15)}
    assert len(powers) == 15


def test_primitive_element_verification_property():
    F = extension_field(2, 12)
    g = find_primitive_element(F)
    n = F.order - 1
    assert F.pow(g, n) == 1
    for q in factorize(n):
        assert F.pow(g, n // q) != 1


def test_factorize_and_budget():
    assert factorize(2 ** 40 - 1) == {3: 1, 5: 2, 11: 1, 17: 1, 31: 1,
                                      41: 1, 61681: 1}
    with pytest.raises(OrderFactorizationError):
        factorize(1000003 * 1000033, trial_bound=10, rho_budget=1)


def test_is_prime_basics():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13,
                                                        17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(2 ** 16)
    assert is_prime(2 ** 61 - 1)


def test_berlekamp_trivial_examples():
    assert berlekamp_roots(UniPoly(F2, (0, 1, 1))) == {0: 1, 1: 1}
    assert berlekamp_roots(UniPoly(F2, (1, 1, 1))) == {}


def test_berlekamp_two_random_roots_f2_16(rng):
    F = extension_field(2, 16)
    for _ in range(20):
        a, b = rng.sample(range(F.order), 2)
        f = UniPoly.from_roots(F, [a, b])
        assert berlekamp_roots(f) == {a: 1, b: 1}


def test_berlekamp_multiplicities(rng):
    F = extension_field(2, 16)
    f = UniPoly.from_roots(F, [5, 5, 5, 9])
    assert berlekamp_roots(f) == {5: 3, 9: 1}


def test_berlekamp_reports_nonsplit_degree():
    F16 = extension_field(2, 4)
    quad = None
    for c0 in range(1, F16.order):
        cand = UniPoly(F16, (c0, 1, 1))
        if not berlekamp_roots(cand):
            quad = cand
            break
    assert quad is not None
    f = quad * UniPoly.from_roots(F16, [7])
    roots = berlekamp_roots(f)
    assert roots == {7: 1}
    assert f.degree - sum(roots.values()) == 2  # rootless cofactor visible


def test_berlekamp_exhaustive_small_field(rng):
    # no missed roots, verified by full evaluation over a field of size 2^10
    F = extension_field(2, 10)
    for _ in range(5):
        f = UniPoly(F, [F.random_element(rng) for _ in range(6)] + [1])
        roots = berlekamp_roots(f)
        brute = {x for x in range(F.order) if f.evaluate(x) == 0}
        assert set(roots) == brute
        for rt, mult in roots.items():
            assert f.evaluate(rt) == 0 and mult >= 1


def test_berlekamp_odd_characteristic(rng):
    F3 = prime_field(3)
    assert berlekamp_roots(UniPoly.from_roots(F3, [0, 1, 2])) == {0: 1, 1: 1, 2: 1}
    F9 = extension_field(3, 2)
    roots = rng.sample(range(9), 6)
    assert berlekamp_roots(UniPoly.from_roots(F9, roots)) == {r: 1 for r in roots}
    # planted roots with multiplicities times a random cofactor, checked
    # against dividing by X - r for every element r: the multiplicities,
    # the roots the cofactor adds, and the rootless rest
    for F in (prime_field(3), prime_field(7), prime_field(251), F9,
              extension_field(3, 4), extension_field(5, 3), extension_field(7, 2)):
        for _ in range(15):
            planted = [F.random_element(rng) for _ in range(rng.randint(1, 4))]
            f = UniPoly.from_roots(F, [r for r in planted for _ in range(rng.randint(1, 3))])
            f = f * UniPoly(F, [F.random_element(rng) for _ in range(rng.randint(0, 4))] + [1])
            expect = {}
            for r in range(F.order):
                linear = UniPoly(F, (F.neg(r), 1))
                rest, rem = f.divmod_by(linear)
                while rem.is_zero():
                    expect[r] = expect.get(r, 0) + 1
                    rest, rem = rest.divmod_by(linear)
            assert berlekamp_roots(f) == expect, (F, f)


def test_berlekamp_and_irreducibility_over_a_large_prime(rng):
    """Over F_p and F_{p^2}, p = 2^31 - 1, p-th powers mod f and the
    splits cost log p products, not p."""
    F = prime_field(2 ** 31 - 1)
    p = F.p
    assert berlekamp_roots(UniPoly(F, (5, 1))) == {p - 5: 1}
    assert berlekamp_roots(UniPoly.from_roots(F, [3, 3, 2 ** 30, p - 1])) == {
        3: 2, 2 ** 30: 1, p - 1: 1}
    a = next(a for a in range(2, 100) if pow(a, (p - 1) // 2, p) == p - 1)
    assert is_irreducible(UniPoly(F, (p - a, 0, 1)))  # X^2 - a, a a non-residue
    assert berlekamp_roots(UniPoly(F, (p - a, 0, 1))) == {}
    assert not is_irreducible(UniPoly(F, (p - 4, 0, 1)))
    assert berlekamp_roots(UniPoly(F, (p - 4, 0, 1))) == {2: 1, p - 2: 1}
    Fp2 = extension_field(p, 2)
    roots = [Fp2.random_element(rng) for _ in range(4)]
    assert berlekamp_roots(UniPoly.from_roots(Fp2, roots)) == {r: 1 for r in roots}


def test_unipoly_divmod_gcd(rng):
    F = extension_field(2, 8)
    for _ in range(20):
        a = UniPoly(F, [F.random_element(rng) for _ in range(7)])
        b = UniPoly(F, [F.random_element(rng) for _ in range(4)] + [1])
        q, r = a.divmod_by(b)
        assert q * b + r == a
        assert r.degree < b.degree
    g = find_irreducible(F2, 5)
    h = find_irreducible(F2, 3)
    assert poly_gcd((g * h).coeffs, (g * g).coeffs, F2) == list(g.coeffs)


def test_unipoly_division_over_f2k_makes_no_element_products(monkeypatch, rng):
    """UniPoly over F_{2^k} divides on packed coefficients: a monic
    divisor costs no ExtField.mul call."""
    F = extension_field(2, 40)
    a = UniPoly(F, [F.random_element(rng) for _ in range(50)] + [1])
    b = UniPoly(F, [F.random_element(rng) for _ in range(9)] + [1])
    calls = []
    mul = ExtField.mul

    def counted(self, x, y):
        calls.append((x, y))
        return mul(self, x, y)

    monkeypatch.setattr(ExtField, "mul", counted)
    q, r = a.divmod_by(b)
    monkeypatch.undo()
    assert calls == []
    assert q * b + r == a


def _poly(F, data, max_degree, zero_ok=False):
    """Coefficients of a polynomial of degree at most max_degree with a
    nonzero leading coefficient, or [] when zero_ok and drawn."""
    degree = data.draw(st.integers(-1 if zero_ok else 0, max_degree))
    if degree < 0:
        return []
    return ([data.draw(st.integers(0, F.order - 1)) for _ in range(degree)]
            + [data.draw(st.integers(1, F.order - 1))])


def _divides_exactly(a, b, F):
    """a = q b with q from poly_divmod, checked by UniPoly's product."""
    q, r = poly_divmod(a, b, F)
    return r == [] and UniPoly(F, q) * UniPoly(F, b) == UniPoly(F, a)


@given(st.sampled_from(ODD_FIELDS), st.data())
def test_poly_divmod_over_odd_fields(F, data):
    a = _poly(F, data, 12, zero_ok=True)
    b = _poly(F, data, 6)
    q, r = poly_divmod(a, b, F)
    assert UniPoly(F, q) * UniPoly(F, b) + UniPoly(F, r) == UniPoly(F, a)
    assert len(r) < len(b)
    assert q[-1:] != [0] and r[-1:] != [0]  # both trimmed


@given(st.sampled_from(ODD_FIELDS), st.data())
def test_poly_gcd_over_odd_fields(F, data):
    common = UniPoly(F, _poly(F, data, 3))
    x = list((UniPoly(F, _poly(F, data, 6, zero_ok=True)) * common).coeffs)
    y = list((UniPoly(F, _poly(F, data, 6)) * common).coeffs)
    g = poly_gcd(x, y, F)
    assert g[-1] == 1
    assert _divides_exactly(x, g, F) and _divides_exactly(y, g, F)
    assert _divides_exactly(g, list(common.coeffs), F)


@given(st.sampled_from([1, 2, 3, 8, 16, 40, 64, 120]), st.data())
def test_ext_field_inverse_over_f2(k, data):
    F = extension_field(2, k)
    a = data.draw(st.integers(1, F.order - 1))
    inv = F.inv(a)
    assert F.mul(a, inv) == 1
    assert inv == F.pow(a, F.order - 2)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 3), (3, 80)])
@settings(max_examples=8)
@given(data=st.data())
def test_ext_field_inverse_over_odd_p(p, k, data):
    # the extended Euclid over F_p[X] agrees with Fermat's a^(q-2)
    F = extension_field(p, k)
    a = data.draw(st.integers(1, F.order - 1))
    inv = F.inv(a)
    assert F.mul(a, inv) == 1
    assert inv == F.pow(a, F.order - 2)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_ext_field_inverse_rejects_ints_outside_the_field():
    F256, F9 = extension_field(2, 8), extension_field(3, 2)
    # 283 encodes F_256's modulus X^8 + X^4 + X^3 + X + 1: its inverse used
    # to loop forever, and the inverse of 9 over F_9 used to be 0
    for F, a in ((F256, 283), (F256, 256), (F256, -1), (F9, 9), (F9, 10), (F9, -1)):
        with pytest.raises(ValueError):
            F.inv(a)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 8), (2, 73), (3, 4), (5, 2)])
def test_powers_match_repeated_products(p, k, rng):
    F = extension_field(p, k)
    for _ in range(5):
        a = F.random_element(rng)
        want = [1]
        for _ in range(9):
            want.append(F.mul(want[-1], a))
        assert F.powers(a, 10) == want
    assert F.powers(a, 1) == [1]
