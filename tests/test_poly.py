"""Polynomial arithmetic, factorization, and trace forms."""

import random

import pytest

from quadpencil.field import make_field
from quadpencil.poly import (poly_trim, poly_deg, poly_add, poly_mul,
                             poly_divmod, poly_gcd, poly_monic, poly_eval,
                             poly_factor, poly_roots, is_irreducible,
                             canonical_modulus, trace_power_sums,
                             PolyRing)
from quadpencil import linalg as la

from oracles import companion_matrix


def _rand_poly(F, rng, deg):
    f = [F.rand(rng) for _ in range(deg)] + [F.one]
    return tuple(f)


def test_divmod_reconstructs():
    F = make_field(7)
    rng = random.Random(11)
    for _ in range(100):
        a = poly_trim(F, [F.rand(rng) for _ in range(rng.randrange(1, 9))])
        b = _rand_poly(F, rng, rng.randrange(1, 5))
        q, r = poly_divmod(F, a, b)
        assert poly_deg(r) < poly_deg(b)
        assert poly_trim(F, poly_add(F, poly_mul(F, q, b), r)) == a


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
    for p, deg in ((3, 1), (7, 1), (3, 2)):
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


def _check_roots(F, f):
    roots = poly_roots(F, f)
    assert roots == [x for x in F.elements() if poly_eval(F, f, x) == F.zero]
    return roots


def test_roots_oracle_and_property():
    F = make_field(7)
    f = poly_mul(F, poly_mul(F, (6, 1), (5, 1)), (5, 1))  # (x-1)(x-2)^2
    assert poly_roots(F, f) == [1, 2]
    rng = random.Random(14)
    # F_7, GF(9), a cubic extension of F_5, GF(4)
    for F in (F, make_field(3, 2), make_field(5, 3), make_field(2, 2)):
        for _ in range(40):
            _check_roots(F, _rand_poly(F, rng, rng.randrange(1, 6)))
        # products of distinct linear factors split completely
        elems = list(F.elements())
        for k in range(1, 5):
            pts = rng.sample(elems, k)
            f = (F.one,)
            for x in pts:
                f = poly_mul(F, f, (F.neg(x), F.one))
            assert _check_roots(F, f) == sorted(pts, key=F.sort_key)
    # a place's roots in its own residue field are the Galois orbit of
    # the class zeta of x
    for p, d in ((3, 2), (5, 3), (7, 2), (3, 4)):
        F = make_field(p)
        f = canonical_modulus(F, d)
        K = F.extension(f)
        orbit = [(F.zero, F.one) + (F.zero,) * (d - 2)]
        for _ in range(d - 1):
            orbit.append(K.pow(orbit[-1], p))
        roots = _check_roots(K, tuple(K.lift(c) for c in f))
        assert roots == sorted(orbit, key=K.sort_key)


def test_irreducible_exhaustive_deg2():
    F = make_field(3)
    for a0 in range(3):
        for a1 in range(3):
            f = poly_trim(F, (a0, a1, 1))
            has_root = any(poly_eval(F, f, x) == F.zero
                           for x in F.elements())
            assert is_irreducible(F, f) == (not has_root)


def test_canonical_modulus_oracles():
    assert canonical_modulus(make_field(3), 2) == (1, 0, 1)
    assert canonical_modulus(make_field(5), 2) == (1, 1, 1)
    F = make_field(7)
    for d in (2, 3):
        m = canonical_modulus(F, d)
        assert poly_deg(m) == d and is_irreducible(F, m)


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
