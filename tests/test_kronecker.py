"""Kronecker decomposition of the singular part, odd and even
characteristic."""

import random

import pytest

from quadpencil.field import make_field
from quadpencil import linalg as la
from quadpencil import sampling as sp
from quadpencil.kronecker import (kh_matrix, minimal_chain, chain_ok,
                                  kronecker_decompose)
from quadpencil.pencil import (INF, Pencil, apply_congruence, twist,
                               char_poly)

from oracles import stable_inf_tower


def test_kh_matrix_oracles():
    F = make_field(5)
    K0 = kh_matrix(F, 0)
    assert K0.b_inf == ((0,),) and K0.b_0 == ((0,),)
    K1 = kh_matrix(F, 1)
    assert K1.b_inf == ((0, 0, 1), (0, 0, 0), (1, 0, 0))
    assert K1.b_0 == ((0, 0, 0), (0, 0, 1), (0, 1, 0))
    # K_h is singular: its characteristic form vanishes identically
    for h in range(3):
        assert char_poly(kh_matrix(F, h)).is_zero()


def test_minimal_chain_none_for_regular():
    F = make_field(7)
    rng = random.Random(50)
    for _ in range(10):
        P = sp.rand_regular_pencil(F, rng, rng.randrange(1, 5))
        assert minimal_chain(P) == (None, ())


def test_minimal_chain_found_and_valid():
    F = make_field(7)
    rng = random.Random(51)
    for _ in range(20):
        hs = sorted(rng.choice([0, 1, 2]) for _ in range(rng.randrange(1, 3)))
        P, _ = sp.planted_pencil(F, rng, kron=hs)
        c, _ = minimal_chain(P)
        assert c is not None
        assert c.h == hs[0]
        assert chain_ok(P, c)


def _check_recovery(F, rng, hs, reg_blocks):
    P, _ = sp.planted_pencil(F, rng, kron=hs, blocks=reg_blocks)
    rep = kronecker_decompose(P)
    assert rep.indices == tuple(sorted(hs))
    moved = apply_congruence(P, rep.transform)
    width = sum(2 * h + 1 for h in hs)
    want = la.block_diag(F, [kh_matrix(F, h).b_inf
                             for h in sorted(hs)])
    assert la.submatrix(moved.b_inf, range(width), range(width)) == want
    want0 = la.block_diag(F, [kh_matrix(F, h).b_0 for h in sorted(hs)])
    assert la.submatrix(moved.b_0, range(width), range(width)) == want0
    assert rep.regular_part.n == P.n - width
    # off-diagonal coupling blocks are zero
    for i in range(width):
        for j in range(width, P.n):
            assert moved.b_inf[i][j] == F.zero
            assert moved.b_0[i][j] == F.zero
    return rep


def test_planted_recovery_odd_char():
    F = make_field(7)
    rng = random.Random(52)
    for _ in range(25):
        hs = [rng.choice([0, 0, 1, 1, 2]) for _ in range(rng.randrange(1, 4))]
        reg = [((rng.choice([1, 3, 5]), 1), 1, False)] if rng.random() < .5 \
            else []
        _check_recovery(F, rng, hs, reg)


def test_planted_recovery_char2_alternating():
    for F in (make_field(2), make_field(2, 2, (1, 1, 1))):
        rng = random.Random(53)
        for _ in range(15):
            hs = [rng.choice([0, 1, 2]) for _ in range(rng.randrange(1, 4))]
            P, _ = sp.planted_pencil(F, rng, kron=hs)
            rep = kronecker_decompose(P)
            assert rep.indices == tuple(sorted(hs))
            assert rep.regular_part.n == 0
            moved = apply_congruence(P, rep.transform)
            want = la.block_diag(F, [kh_matrix(F, h).b_inf
                                     for h in sorted(hs)])
            want0 = la.block_diag(F, [kh_matrix(F, h).b_0
                                      for h in sorted(hs)])
            assert moved.b_inf == want and moved.b_0 == want0


def test_char2_rejects_non_alternating():
    F = make_field(2)
    P = Pencil.make(F, ((1,),), ((0,),))
    with pytest.raises(ValueError):
        kronecker_decompose(P)


def test_indices_invariant_under_congruence_and_twist():
    F = make_field(5)
    rng = random.Random(54)
    for _ in range(10):
        hs = [rng.choice([0, 1, 2]) for _ in range(rng.randrange(1, 3))]
        reg = [((2, 1), rng.choice([1, 2]), False)]
        P, _ = sp.planted_pencil(F, rng, kron=hs, blocks=reg)
        want = tuple(sorted(hs))
        for _ in range(8):
            S = sp.rand_invertible(F, rng, P.n)
            g = sp.rand_homography(F, rng)
            Q = apply_congruence(twist(P, g), S)
            assert kronecker_decompose(Q).indices == want


def test_fully_regular_decomposition_is_empty():
    F = make_field(7)
    rng = random.Random(55)
    P = sp.rand_regular_pencil(F, rng, 4)
    rep = kronecker_decompose(P)
    assert rep.indices == ()
    assert rep.regular_part.n == 4


def test_inf_tower_is_the_stable_kernel_tower():
    # INF layers of order 1-3 and multiplicity 1-2 beside finite places,
    # with and without Kronecker blocks: the tower the walk leaves on the
    # regular part is the one its own fixpoint loop builds, basis and all
    rng = random.Random(56)
    for F in (make_field(5), make_field(7), make_field(3, 2)):
        x0, x1 = (F.zero, F.one), (F.one, F.one)
        for ell in (1, 2, 3):
            for mult in (1, 2):
                for kron in ((), (0,), (1, 2)):
                    blocks = tuple((INF, ell, i == mult - 1)
                                   for i in range(mult)) + ((x1, 1, False),)
                    P = sp.planted_pencil(F, rng, kron, blocks)[0]
                    rep = kronecker_decompose(P)
                    assert len(rep.inf_tower) == ell * mult
                    assert rep.inf_tower == stable_inf_tower(
                        rep.regular_part)
        # B_inf invertible on the regular part: the walk stops at once
        for kron in ((), (0,), (1,)):
            P = sp.planted_pencil(F, rng, kron, ((x0, 1, False),
                                                 (x1, 2, True)))[0]
            rep = kronecker_decompose(P)
            assert rep.inf_tower == () == stable_inf_tower(rep.regular_part)
