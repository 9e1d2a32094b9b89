"""Polynomial arithmetic, factorization, and trace forms."""

import itertools
import random

import pytest

from quadpencil.field import FiniteField, make_field
from quadpencil.poly import (poly_trim, poly_deg, poly_add, poly_sub,
                             poly_mul, poly_divmod, poly_mod, poly_gcd,
                             poly_monic, poly_eval, poly_xgcd, poly_pow_mod,
                             poly_factor, is_irreducible,
                             canonical_modulus, PolyRing, _equal_degree)
from quadpencil import linalg as la
from quadpencil.ip2s import _target_roots

from oracles import (as_generic, companion_matrix, irreducible_by_berlekamp,
                     pow_mod_by_squaring, trace_power_sums)


def _rand_poly(F, rng, deg):
    f = [F.rand(rng) for _ in range(deg)] + [F.one]
    return tuple(f)


def _division_pairs(F, rng):
    """(a, b) with a of every length 1..60 and b of every length 1..30,
    b monic or not; a's coefficients may vanish anywhere but at the top."""
    for na in range(1, 61):
        for nb in range(1, 31):
            a = tuple(F.rand(rng) for _ in range(na - 1)) + (
                rng.randrange(1, F.p),)
            b = tuple(F.rand(rng) for _ in range(nb - 1)) + (
                rng.choice((1, rng.randrange(1, F.p))),)
            yield a, b


def test_divmod_reconstructs():
    """a = q b + r with deg r < deg b, trimmed; over F_3 and F_101, at
    every dividend length up to 60 and divisor length up to 30, q and r
    equal those of the element-generic division over F[pi]/(pi)."""
    F = make_field(7)
    rng = random.Random(11)
    for _ in range(100):
        a = poly_trim(F, [F.rand(rng) for _ in range(rng.randrange(1, 9))])
        b = _rand_poly(F, rng, rng.randrange(1, 5))
        q, r = poly_divmod(F, a, b)
        assert poly_deg(r) < poly_deg(b)
        assert poly_trim(F, poly_add(F, poly_mul(F, q, b), r)) == a
    for p in (3, 101):
        F = make_field(p)
        R, _ = as_generic(F, ())
        for a, b in _division_pairs(F, random.Random(p)):
            q, r = poly_divmod(F, a, b)
            assert poly_trim(F, q) == q and poly_trim(F, r) == r
            assert poly_deg(r) < poly_deg(b)
            assert poly_add(F, poly_mul(F, q, b), r) == a
            qR, rR = poly_divmod(R, tuple((c,) for c in a),
                                 tuple((c,) for c in b))
            assert (q, r) == (tuple(c for (c,) in qR),
                              tuple(c for (c,) in rR))
        with pytest.raises(ZeroDivisionError):
            poly_divmod(F, (1, 2), ())


def test_prime_division_makes_no_element_calls(monkeypatch):
    """Over a prime field every long division, short ones included, runs
    on ints without FiniteField.mul, sub or inv."""
    cases = []
    for p in (3, 101):
        F = make_field(p)
        cases += [(F, a, b) for a, b in _division_pairs(F, random.Random(p))]

    def forbidden(*args):
        raise AssertionError("element call in a prime-field division")

    for name in ("mul", "sub", "inv"):
        monkeypatch.setattr(FiniteField, name, forbidden)
    for F, a, b in cases:
        poly_divmod(F, a, b)


def test_gcd_divides_both():
    F = make_field(5)
    rng = random.Random(12)
    for _ in range(60):
        g = _rand_poly(F, rng, rng.randrange(0, 3))
        a = poly_mul(F, g, _rand_poly(F, rng, rng.randrange(1, 4)))
        b = poly_mul(F, g, _rand_poly(F, rng, rng.randrange(1, 4)))
        d = poly_gcd(F, a, b)
        _, ra = poly_divmod(F, a, d)
        _, rb = poly_divmod(F, b, d)
        assert poly_deg(ra) < 0 and poly_deg(rb) < 0
        _, rg = poly_divmod(F, d, poly_monic(F, g))
        assert poly_deg(rg) < 0


def test_factor_oracle_x4_plus_4():
    # x^4 + 4 over F_7 splits into two quadratics
    F = make_field(7)
    fac = poly_factor(F, (4, 0, 0, 0, 1))
    assert fac == [((2, 2, 1), 1), ((2, 5, 1), 1)]


def test_factor_multiplicities():
    F = make_field(5)
    # (x-1)^2 (x-2) = x^3 - 4x^2 + 5x - 2 = x^3 + x^2 + 3 over F_5
    f = poly_mul(F, poly_mul(F, (4, 1), (4, 1)), (3, 1))
    fac = poly_factor(F, f)
    assert fac == [((3, 1), 1), ((4, 1), 2)]


def test_factor_product_property():
    # GF(2) and GF(4) take the characteristic-2 equal-degree split
    for p, deg in ((3, 1), (7, 1), (3, 2), (2, 1), (2, 2)):
        F = make_field(p, deg)
        rng = random.Random(13 + p + deg)
        for _ in range(25):
            f = _rand_poly(F, rng, rng.randrange(1, 7))
            prod = (F.one,)
            for g, e in poly_factor(F, f):
                assert is_irreducible(F, g)
                assert g[-1] == F.one
                for _ in range(e):
                    prod = poly_mul(F, prod, g)
            assert prod == poly_monic(F, f)


@pytest.mark.parametrize("p,planted", [
    # the degrees canonicalize reaches on canon-f101 (n <= 48)
    (101, ((2, 1), (46, 1))),
    (101, ((18, 1), (30, 1))),
    (101, ((1, 1),) * 35),
    (101, ((2, 2), (12, 1), (1, 3), (1, 1))),
    (3, ((6, 1),)), (3, ((7, 1),)), (3, ((2, 1), (2, 1), (2, 2))),
    (3, ((3, 3),)), (3, ((5, 2),)), (3, ((4, 1), (4, 1), (1, 3))),
    (3, ((12, 1),)),
    (5, ((3, 1), (3, 1))), (5, ((7, 1),)), (5, ((1, 2), (2, 3))),
    (5, ((9, 1),)), (5, ((4, 2), (2, 1))), (5, ((11, 1),)),
    (5, ((6, 1), (6, 1))),
])
def test_factor_returns_the_planted_irreducibles(p, planted):
    """poly_factor of a product of distinct irreducibles (degree d,
    multiplicity m for each (d, m) planted) returns exactly them; each
    is irreducible by Berlekamp's count as well as by is_irreducible."""
    F = make_field(p)
    rng = random.Random(p * 1000 + len(planted))
    want, f = [], (F.one,)
    for d, m in planted:
        g = _rand_poly(F, rng, d)
        while not is_irreducible(F, g) or g in [w for w, _ in want]:
            g = _rand_poly(F, rng, d)
        assert irreducible_by_berlekamp(p, g)
        want.append((g, m))
        for _ in range(m):
            f = poly_mul(F, f, g)
    got = poly_factor(F, f)
    assert got == sorted(want, key=lambda gm: (len(gm[0]), gm[0]))
    assert all(is_irreducible(F, g) for g, _ in got)


@pytest.mark.parametrize("p", [101, 3])
def test_pow_mod_matches_square_and_multiply(p):
    """poly_pow_mod against the oracle for moduli of degree 1 to 60, on
    both sides of the reduction-row threshold: monic and not, reducible
    and irreducible, with g of degree at least deg f and exponents 0, 1,
    q and (q^d - 1)/2; the last only for d <= 24, d = 1 mod 6 and d = 60,
    as the oracle is slow."""
    F = make_field(p)
    rng = random.Random(p)
    for d in range(1, 61):
        f = _rand_poly(F, rng, d)
        if d % 3 == 0 and d <= 24:
            while not is_irreducible(F, f):
                f = _rand_poly(F, rng, d)
        if d % 2:
            f = tuple(F.mul(rng.randrange(2, p), c) for c in f)
        g = poly_trim(F, [F.rand(rng) for _ in range(d + rng.randrange(3))]
                      + [rng.randrange(1, p)])
        exps = [0, 1, F.q]
        if d <= 24 or d % 6 == 1 or d == 60:
            exps.append((F.q ** d - 1) // 2)
        for e in exps:
            assert poly_pow_mod(F, g, e, f) == pow_mod_by_squaring(p, g, e, f)


@pytest.mark.parametrize("p", [101, 3])
def test_xgcd_cofactor_and_generic_path(p):
    """poly_xgcd gives a monic gcd g and u with u*a = g mod b; the
    prime-field branch on int lists agrees with the element-generic
    Euclid over F as the local ring F[pi]/(pi)."""
    F = make_field(p)
    R, _ = as_generic(F, ())
    rng = random.Random(p + 1)
    pairs = [((), _rand_poly(F, rng, 3)), (_rand_poly(F, rng, 2), ()),
             ((), ())]
    for _ in range(150):
        h = _rand_poly(F, rng, rng.randrange(0, 3))
        a = poly_mul(F, h, poly_trim(F, [F.rand(rng)
                                         for _ in range(rng.randrange(1, 9))]))
        b = poly_mul(F, h, poly_trim(F, [F.rand(rng)
                                         for _ in range(rng.randrange(1, 9))]))
        pairs.append((a, b))
    for a, b in pairs:
        g, u = poly_xgcd(F, a, b)
        assert g == poly_gcd(F, a, b)
        assert not g or g[-1] == F.one
        if b:
            assert poly_mod(F, poly_sub(F, poly_mul(F, u, a), g), b) == ()
        gR, uR = poly_xgcd(R, tuple((c,) for c in a), tuple((c,) for c in b))
        assert (g, u) == (tuple(c for (c,) in gR), tuple(c for (c,) in uR))


def test_first_linear_factor_is_a_root():
    rng = random.Random(14)
    # F_7, GF(9), F_125, GF(4)
    for F in (make_field(7), make_field(3, 2), make_field(5, 3),
              make_field(2, 2)):
        elems = list(F.elements())
        for k in range(1, 5):
            for _ in range(5):
                pts = rng.sample(elems, k)
                f = (F.one,)
                for x in pts:
                    f = poly_mul(F, f, (F.neg(x), F.one))
                split = _equal_degree(F, f, 1, random.Random(0x5EED))
                lin = next(split)
                assert len(lin) == 2 and lin[1] == F.one
                assert F.neg(lin[0]) in pts
                # the rest of the depth-first split finds the other roots
                roots = [F.neg(g[0]) for g in (lin, *split)]
                assert sorted(roots, key=F.sort_key) == sorted(
                    pts, key=F.sort_key)


def _places(F, d):
    return [f for f in (tuple(tail) + (F.one,) for tail in
                        itertools.product(list(F.elements()), repeat=d))
            if is_irreducible(F, f)]


def test_target_roots_are_every_root_in_the_residue_field():
    """The roots of a place t of degree d in K = F.extension(p), p of
    degree d too, for every pair (p, t) of the places of degree d when
    there are at most 10, else of three seeded ones.  Up to |K| = 7^4
    they are checked against a search of K; over F_31 and F_103, where
    K is too large to search, as d distinct roots of t closed under
    y -> y^q."""
    rng = random.Random(18)
    cases = [(make_field(p), d) for p in (3, 5, 7) for d in (2, 3, 4)]
    cases += [(make_field(3, 2), d) for d in (2, 3)]
    cases += [(make_field(p), d) for p in (31, 103) for d in (3, 4, 5, 6)]
    for F, d in cases:
        if F.q ** d <= 125:
            places = _places(F, d)
            if len(places) > 10:
                places = rng.sample(places, 3)
        else:
            places = set()
            while len(places) < 3:
                f = _rand_poly(F, rng, d)
                if is_irreducible(F, f):
                    places.add(f)
        for p, t in itertools.product(sorted(places), repeat=2):
            K = F.extension(p)
            tK = tuple(K.lift(c) for c in t)
            got = _target_roots(F, K, t)
            assert all(one == K.one for _, one in got)
            ys = {y for y, _ in got}
            assert len(got) == d and len(ys) == d
            if K.q <= 7 ** 4:
                assert ys == {y for y in K.elements()
                              if poly_eval(K, tK, y) == K.zero}
            else:
                assert all(poly_eval(K, tK, y) == K.zero for y in ys)
                assert {K.pow(y, F.q) for y in ys} == ys


def test_irreducible_exhaustive_deg2():
    F = make_field(3)
    for a0 in range(3):
        for a1 in range(3):
            f = poly_trim(F, (a0, a1, 1))
            has_root = any(poly_eval(F, f, x) == F.zero
                           for x in F.elements())
            assert is_irreducible(F, f) == (not has_root)


def _mobius(n):
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


@pytest.mark.parametrize("p,k,top", [(2, 1, 8), (3, 1, 5), (5, 1, 4),
                                     (7, 1, 3), (2, 2, 4), (3, 2, 3)])
def test_irreducible_matches_trial_division_and_gauss_count(p, k, top):
    """Every monic f of degree 1..top over F_q: is_irreducible(f) exactly
    when no monic of degree 1..deg(f)/2 divides f, and the irreducibles of
    degree n number (1/n) sum_{d | n} mu(d) q^(n/d), Gauss's count."""
    F = make_field(p, k)
    elems = list(F.elements())

    def monics(d):
        return [t + (F.one,) for t in itertools.product(elems, repeat=d)]

    for n in range(1, top + 1):
        divisors = [g for d in range(1, n // 2 + 1) for g in monics(d)]
        count = 0
        for f in monics(n):
            irreducible = is_irreducible(F, f)
            assert irreducible == all(poly_divmod(F, f, g)[1]
                                      for g in divisors)
            count += irreducible
        assert n * count == sum(_mobius(d) * F.q ** (n // d)
                                for d in range(1, n + 1) if n % d == 0)


def test_canonical_modulus_oracles():
    assert canonical_modulus(make_field(3), 2) == (1, 0, 1)
    assert canonical_modulus(make_field(5), 2) == (1, 1, 1)
    F = make_field(7)
    for d in (2, 3):
        m = canonical_modulus(F, d)
        assert poly_deg(m) == d and is_irreducible(F, m)


def test_canonical_modulus_is_the_first_irreducible():
    # against a search of the monic tails in order, constant term first,
    # each tested by trial division by every monic of degree <= d/2
    def monics(p, d):
        for tail in itertools.product(range(p), repeat=d):
            yield tail + (1,)

    for p in (3, 5, 7):
        F = make_field(p)
        for d in (1, 2, 3, 4):
            want = next(f for f in monics(p, d) if all(
                poly_divmod(F, f, g)[1] for e in range(1, d // 2 + 1)
                for g in monics(p, e)))
            assert canonical_modulus(F, d) == want


def test_default_modulus_over_a_large_prime_returns():
    # the first irreducible quartic over F_101 follows 101^3 tails with
    # constant term 0, none of them irreducible
    assert make_field(101, 4).modulus == (1, 0, 0, 1, 1)


def test_trace_power_sums_match_companion_traces():
    F = make_field(7)
    rng = random.Random(15)
    for _ in range(20):
        d = rng.randrange(1, 5)
        f = _rand_poly(F, rng, d)
        if not is_irreducible(F, f):
            continue
        # h_m = Tr(zeta^m / f'(zeta)) satisfies the Hankel generating
        # identity sum h_m x^m = (rev f)^-1 style recurrence; check the
        # dual defining property T C = C^t T via the trace form instead
        M = companion_matrix(F, f)
        h = trace_power_sums(F, f, 2 * d)
        T = tuple(tuple(h[i + j] for j in range(d)) for i in range(d))
        assert la.mat_mul(F, T, M) == la.mat_mul(F, la.transpose(M), T)
        assert la.is_invertible(F, T)


def test_berkowitz_charpoly_of_companion():
    F = make_field(5)
    rng = random.Random(16)
    for _ in range(20):
        f = _rand_poly(F, rng, rng.randrange(1, 5))
        M = companion_matrix(F, f)
        assert la.charpoly(F, M) == f


def test_polyring_interface():
    F = make_field(3)
    R = PolyRing(F)
    a, b = (1, 2), (0, 1, 1)
    assert R.mul(a, b) == poly_mul(F, a, b)
    assert R.add(a, b) == poly_add(F, a, b)
    assert R.one == (F.one,)


def test_factor_rejects_zero():
    F = make_field(3)
    with pytest.raises(ValueError):
        poly_factor(F, ())
