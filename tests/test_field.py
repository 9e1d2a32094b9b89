"""Field arithmetic: prime fields, extensions, towers, square roots."""

import random

import pytest

from quadpencil.field import (TABLE_MAX_Q, FiniteField, make_field,
                              field_sqrt, field_nonsquare, parse_field,
                              emit_field, parse_elem, emit_elem)
from quadpencil.poly import canonical_modulus, power

from oracles import schoolbook_mul, roots_by_scan


def _field_axioms(F, rng, reps=60):
    xs = [F.rand(rng) for _ in range(reps)]
    for i in range(reps - 2):
        a, b, c = xs[i], xs[i + 1], xs[i + 2]
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == F.zero
        assert F.sub(a, b) == F.add(a, F.neg(b))
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
            assert F.div(b, a) == F.mul(b, F.inv(a))


def test_prime_field_matches_int_arithmetic():
    F = make_field(13)
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randrange(13), rng.randrange(13)
        assert F.add(a, b) == (a + b) % 13
        assert F.mul(a, b) == (a * b) % 13
        assert F.neg(a) == (-a) % 13
    _field_axioms(F, rng)


def test_extension_modulus_oracle():
    # F_9 with zeta^2 = -1: (0,1)^2 must be -1 = (2,0)
    F9 = make_field(3, 2, (1, 0, 1))
    z = (0, 1)
    assert F9.mul(z, z) == (2, 0)
    # F_4 with zeta^2 = zeta + 1
    F4 = make_field(2, 2, (1, 1, 1))
    z = (0, 1)
    assert F4.mul(z, z) == (1, 1)
    _field_axioms(F9, random.Random(2))
    _field_axioms(F4, random.Random(3))


def test_default_modulus_is_canonical():
    F25 = make_field(5, 2)
    # lexicographically first monic irreducible over F_5 is x^2 + x + 1
    assert F25.modulus == (1, 1, 1)
    _field_axioms(F25, random.Random(4))


def test_tower_extension():
    F9 = make_field(3, 2, (1, 0, 1))
    from quadpencil.poly import canonical_modulus
    K = F9.extension(canonical_modulus(F9, 2))
    assert K.q == 81
    rng = random.Random(5)
    _field_axioms(K, rng)
    # Frobenius x -> x^9 fixes exactly the base copy
    fixed = [x for x in K.elements() if K.pow(x, 9) == x]
    assert sorted(fixed) == sorted(K.lift(c) for c in F9.elements())
    for x in K.elements():
        assert K.pow(x, 0) == K.one
        assert K.pow(x, K.q - 1) == (K.zero if x == K.zero else K.one)


def test_pow_and_order():
    F = make_field(7)
    for a in range(1, 7):
        assert F.pow(a, 6) == 1
    F9 = make_field(3, 2, (1, 0, 1))
    for x in F9.elements():
        if x != F9.zero:
            assert F9.pow(x, 8) == F9.one


@pytest.mark.parametrize("p,deg,mod", [
    (7, 1, None), (3, 2, (1, 0, 1)), (5, 2, None), (13, 1, None)])
def test_is_square_matches_bruteforce(p, deg, mod):
    F = make_field(p, deg, mod)
    squares = {F.mul(x, x) for x in F.elements()}
    for x in F.elements():
        assert F.is_square(x) == (x in squares)


def test_is_square_on_tower():
    F9 = make_field(3, 2, (1, 0, 1))
    from quadpencil.poly import canonical_modulus
    K = F9.extension(canonical_modulus(F9, 2))
    squares = {K.mul(x, x) for x in K.elements()}
    for x in K.elements():
        assert K.is_square(x) == (x in squares)


def test_nonsquare_oracles():
    assert field_nonsquare(make_field(3)) == 2
    assert field_nonsquare(make_field(5)) == 2
    assert field_nonsquare(make_field(7)) == 3
    F9 = make_field(3, 2, (1, 0, 1))
    # first non-square in enumeration order: 1 + zeta generates F_9^x
    assert field_nonsquare(F9) == (1, 1)


@pytest.mark.parametrize("p,deg", [(7, 1), (11, 1), (3, 2), (5, 2)])
def test_sqrt_roundtrip(p, deg):
    F = make_field(p, deg)
    for x in F.elements():
        s = field_sqrt(F, x)
        if F.is_square(x):
            assert s is not None and F.mul(s, s) == x
        else:
            assert s is None


def test_sqrt_is_deterministic_minimum():
    # the returned root is the first in elements() order, the smaller of
    # the two by sort_key
    primes = [p for p in range(3, 62) if all(p % d for d in range(2, p))]
    for F in ([make_field(p) for p in primes]
              + [make_field(3, 2), make_field(5, 2), make_field(3, 3),
                 make_field(7, 2)]):
        roots = roots_by_scan(F)
        for x in F.elements():
            assert field_sqrt(F, x) == roots.get(x)


def _gf9_tower():
    F9 = make_field(3, 2, (1, 0, 1))
    return F9.extension(canonical_modulus(F9, 2))


@pytest.mark.parametrize("make", [
    lambda: make_field(17, 2),                   # q = 289, s = 5
    lambda: make_field(31, 2),                   # q = 961, s = 6
    lambda: make_field(3, 6),                    # q = 729, s = 3
    lambda: make_field(97),                      # s = 5
    lambda: make_field(101).extension((98, 1)),  # F_101[x]/(x - 3)
    _gf9_tower,                                  # degree 2 over GF(9)
], ids=["F17^2", "F31^2", "F3^6", "F97", "F101[x]/(x-3)", "GF9-tower"])
def test_sqrt_beyond_the_tables(make):
    """Every element against the scan, on fields without log tables and
    with up to six rounds of Tonelli-Shanks: None exactly on the
    non-squares, otherwise the first root in elements() order."""
    F = make()
    roots = roots_by_scan(F)
    nones = 0
    for x in F.elements():
        r = field_sqrt(F, x)
        assert r == roots.get(x)
        nones += r is None
    assert nones == (F.q - 1) // 2


def test_sqrt_makes_one_exponentiation(monkeypatch):
    """Once the field's Tonelli-Shanks data is cached, a root costs one
    pow and no is_square, for a square and a non-square alike."""
    F = make_field(31, 2)
    assert F.q > TABLE_MAX_Q
    y = (5, 7)
    assert field_sqrt(F, F.mul(y, y)) in (y, F.neg(y))
    calls = {"pow": 0, "is_square": 0}
    for name in calls:
        orig = getattr(FiniteField, name)

        def counted(self, *args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(FiniteField, name, counted)
    nonsquare = field_nonsquare(F)
    for x, is_sq in ((F.mul((3, 11), (3, 11)), True), (nonsquare, False)):
        calls.update(pow=0, is_square=0)
        assert (field_sqrt(F, x) is not None) == is_sq
        assert calls == {"pow": 1, "is_square": 0}


@pytest.mark.parametrize("make", [
    lambda: make_field(101),
    lambda: make_field(3, 2, (1, 0, 1)),
], ids=["F101", "GF9"])
def test_degree_one_extension_is_its_base(make):
    """A degree-1 extension multiplies, inverts and raises to powers as
    its base field does, on every pair of elements."""
    F = make()
    K = F.extension((F.neg(F.scalar(3)), F.one))
    els = list(F.elements())
    for a in els:
        for b in els:
            assert K.mul((a,), (b,)) == (F.mul(a, b),)
            assert K.add((a,), (b,)) == (F.add(a, b),)
        if a != F.zero:
            assert K.inv((a,)) == (F.inv(a),)
        for e in (0, 1, 2, 5, F.q - 2, F.q):
            assert K.pow((a,), e) == (F.pow(a, e),)


def test_json_roundtrip():
    for F in (make_field(7), make_field(3, 2, (1, 0, 1))):
        doc = emit_field(F)
        G = parse_field(doc)
        assert G == F
        rng = random.Random(8)
        for _ in range(20):
            x = F.rand(rng)
            assert parse_elem(F, emit_elem(F, x)) == x


def test_extension_is_built_once_per_modulus():
    F = make_field(7)
    K = F.extension((1, 0, 1))
    assert F.extension([1, 0, 1]) is K and F.extension((1, 0, 1)) is K
    # a reducible modulus is refused every time, never cached
    for _ in range(2):
        with pytest.raises(ValueError):
            F.extension((6, 0, 1))   # x^2 - 1
    # a different base keeps its own extensions
    assert make_field(7).extension((1, 0, 1)) is not K


def test_bad_inputs():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(3, 2, (1, 0, 0, 1))   # degree mismatch
    F = make_field(5)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    # JSON booleans are not integers, even though Python's bool is an int
    for doc in ({"p": 3, "degree": True}, {"p": True},
                {"p": 3, "degree": 2, "modulus": [True, 0, 1]}):
        with pytest.raises(ValueError):
            parse_field(doc)


def test_huge_prime_is_refused_before_trial_division():
    # 2^61 - 1 is prime; trial division up to its square root (about
    # 1.5e9) would take minutes, so the size bound must be checked first
    with pytest.raises(ValueError, match="2\\^16"):
        parse_field({"p": 2305843009213693951, "degree": 1})


@pytest.mark.parametrize("p,deg", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3),
                                   (5, 3)])
def test_tables_match_the_schoolbook_product(p, deg):
    """Table mul, inv and pow against the schoolbook product, on every
    pair of elements and every exponent up to q."""
    F = make_field(p, deg)
    assert F.q <= TABLE_MAX_Q
    els = list(F.elements())
    for a in els:
        for b in els:
            assert F.mul(a, b) == schoolbook_mul(F, a, b)
        if a != F.zero:
            ainv = F.inv(a)
            assert schoolbook_mul(F, a, ainv) == F.one
            assert F.pow(a, -3) == F.pow(ainv, 3)
        power = F.one
        for e in range(F.q + 1):
            assert F.pow(a, e) == power
            power = schoolbook_mul(F, power, a)


@pytest.mark.parametrize("p,deg", [(17, 2), (3, 6), (101, 7)])
def test_large_extensions_match_the_schoolbook_product(p, deg):
    # beyond the table bound: schoolbook or plane products, xgcd inverses,
    # and powers, on int64 vectors from degree 3
    F = make_field(p, deg)
    assert F.q > TABLE_MAX_Q
    rng = random.Random(9)
    for _ in range(200):
        a, b = F.rand(rng), F.rand(rng)
        assert F.mul(a, b) == schoolbook_mul(F, a, b)
        if a != F.zero:
            assert schoolbook_mul(F, a, F.inv(a)) == F.one
        e = rng.randrange(F.q + 1)
        assert F.pow(a, e) == power(lambda u, v: schoolbook_mul(F, u, v),
                                    a, e, F.one)
