"""Truncated local rings, Hensel lifting, and ring square roots."""

import itertools
import random

import pytest

from quadpencil.field import field_nonsquare, make_field
from quadpencil.localring import LocalRing, hensel_root, ring_sqrt
from quadpencil.poly import is_irreducible, poly_eval

from oracles import ring_elements, ring_rand


def test_ring_axioms_and_units():
    F = make_field(3)
    R = LocalRing(F, 3)
    rng = random.Random(30)
    for _ in range(60):
        a, b, c = (ring_rand(R, rng) for _ in range(3))
        assert R.mul(a, b) == R.mul(b, a)
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
        if R.is_unit(a):
            assert R.mul(a, R.inv(a)) == R.one
    # pi is nilpotent of the exact order
    pi = (0, 1, 0)
    assert R.mul(pi, R.mul(pi, pi)) == R.zero
    assert R.mul(pi, pi) != R.zero
    # powers of units of GF(9)[pi]/pi^3 against repeated products
    R = LocalRing(make_field(3, 2), 3)
    for _ in range(20):
        a = ring_rand(R, rng)
        if not R.is_unit(a):
            continue
        for e in (0, 1, 2, 7, -3):
            x = a if e >= 0 else R.inv(a)
            want = R.one
            for _ in range(abs(e)):
                want = R.mul(want, x)
            assert R.pow(a, e) == want


def test_valuation_and_pi_shifts():
    F = make_field(5)
    R = LocalRing(F, 4)
    a = (0, 0, 2, 3)
    assert R.mul((0, 1, 0, 0), (1, 2, 3, 4)) == (0, 1, 2, 3)
    assert R.div_pi(a, 2) == (2, 3, 0, 0)
    with pytest.raises(ValueError):
        R.div_pi((1, 0, 0, 0), 1)


def test_tau_reads_top_coefficient():
    F = make_field(7)
    R = LocalRing(F, 2)
    # tau, the coefficient of pi^(ell-1), makes tau(x*y) a perfect
    # pairing on R: its Gram on the monomial basis (1, pi) is the
    # reversed identity
    basis = (R.one, (0, 1))
    gram = [[R.mul(x, y)[R.ell - 1] for y in basis] for x in basis]
    assert gram == [[0, 1], [1, 0]]


def test_hensel_oracle():
    # sqrt(1 + pi) in F_3[pi]/pi^3 from residue root 1 is 1 + 2pi + pi^2
    F = make_field(3)
    R = LocalRing(F, 3)
    a = (1, 1, 0)
    g = (R.neg(a), R.zero, R.one)        # x^2 - a
    x = hensel_root(R, g, R.from_field(1))
    assert x == (1, 2, 1)
    assert R.mul(x, x) == a


def test_hensel_requires_simple_root():
    F = make_field(5)
    R = LocalRing(F, 3)
    g = (R.zero, R.zero, R.one)          # x^2: derivative vanishes at 0
    with pytest.raises(ValueError):
        hensel_root(R, g, R.zero)
    with pytest.raises(ValueError):
        hensel_root(R, (R.one, R.zero, R.one), R.one)  # not a root mod pi


def test_hensel_on_cubic():
    F = make_field(7)
    R = LocalRing(F, 4)
    rng = random.Random(31)
    for _ in range(30):
        r = ring_rand(R, rng)
        # polynomial with planted root r and controlled derivative
        u = R.from_field(F.scalar(rng.randrange(1, 7)))
        g = (R.mul(R.neg(r), u), u)      # u(x - r)
        x0 = R.from_field(r[0])
        assert hensel_root(R, g, x0) == r or poly_eval(R, g, r) == R.zero


def _tower_over_gf9():
    """GF(9)[t]/g for the first irreducible quadratic g, a field two
    levels above its prime field."""
    F9 = make_field(3, 2)
    for g0, g1 in itertools.product(list(F9.elements()), repeat=2):
        if is_irreducible(F9, (g0, g1, F9.one)):
            return F9.extension((g0, g1, F9.one))
    raise AssertionError("GF(9) has irreducible quadratics")


def test_ring_sqrt_oracle_and_classes():
    """ring_sqrt(R, a) = (s, nonsquare): nonsquare is the residue class of
    a by K.is_square, s^2 is a or a / Delta exactly, and s lifts the
    smaller residue root; exhaustively over small rings, on random units
    over GF(101^5) and a tower over GF(9), at ell = 1 (no lift) and
    ell > 1."""
    F = make_field(3)
    R = LocalRing(F, 3)
    assert ring_sqrt(R, (1, 1, 0)) == ((1, 2, 1), False)
    rng = random.Random(32)
    cases = [(R, list(ring_elements(R))) for R in (
        R, LocalRing(make_field(5), 2), LocalRing(make_field(3, 2), 2))]
    for K in (make_field(101, 5), _tower_over_gf9()):
        for ell in (1, 2):
            R = LocalRing(K, ell)
            cases.append((R, [ring_rand(R, rng) for _ in range(40)]))
    for R, elems in cases:
        K = R.K
        DR = R.from_field(field_nonsquare(K))
        classes = set()
        for a in elems:
            if not R.is_unit(a):
                continue
            s, nonsquare = ring_sqrt(R, a)
            assert nonsquare == (not K.is_square(a[0]))
            assert R.mul(s, s) == (R.div(a, DR) if nonsquare else a)
            assert s[0] == min(s[0], K.neg(s[0]), key=K.sort_key)
            classes.add(nonsquare)
        assert classes == {False, True}


def test_ring_sqrt_rejects_nonunit():
    F = make_field(5)
    R = LocalRing(F, 2)
    with pytest.raises(ValueError):
        ring_sqrt(R, (0, 1))


def test_retract_lift():
    F = make_field(3)
    R = LocalRing(F, 4)
    a = (1, 2, 0, 1)
    assert R.retract(a, 2) == (1, 2)
    R2 = LocalRing(F, 2)
    assert R.lift_from((1, 2)) == (1, 2, 0, 0)
    assert R2.retract(R.retract(a, 2), 2) == (1, 2)
