"""Exact linear algebra over field contexts."""

import random

import pytest

from quadpencil.field import make_field
from quadpencil import linalg as la
from quadpencil.localring import LocalRing

from oracles import ring_rand


def _rand_mat(F, rng, r, c):
    return tuple(tuple(F.rand(rng) for _ in range(c)) for _ in range(r))


def _rand_inv(F, rng, n):
    while True:
        M = _rand_mat(F, rng, n, n)
        if la.is_invertible(F, M):
            return M


@pytest.mark.parametrize("p,deg", [(7, 1), (101, 1), (3, 2)])
def test_inverse_roundtrip(p, deg):
    F = make_field(p, deg)
    rng = random.Random(20 + p)
    for _ in range(25):
        n = rng.randrange(1, 6)
        M = _rand_inv(F, rng, n)
        assert la.mat_mul(F, M, la.inv(F, M)) == la.identity(F, n)


def test_rref_shape_and_rank():
    F = make_field(5)
    rng = random.Random(21)
    for _ in range(40):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        M = _rand_mat(F, rng, r, c)
        R, pivots = la.rref(F, M)
        assert la.rank(F, M) == len(pivots)
        for k, j in enumerate(pivots):
            assert R[k][j] == F.one
            for i in range(r):
                if i != k:
                    assert R[i][j] == F.zero


def test_nullspace_annihilates():
    F = make_field(7)
    rng = random.Random(22)
    for _ in range(40):
        r, c = rng.randrange(1, 5), rng.randrange(1, 6)
        M = _rand_mat(F, rng, r, c)
        ns = la.nullspace(F, M)
        assert len(ns) == c - la.rank(F, M)
        for v in ns:
            assert la.mat_vec(F, M, v) == (F.zero,) * r
        assert la.rank(F, ns) == len(ns) if ns else True


def test_solve_property():
    F = make_field(11)
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(1, 5)
        A = _rand_inv(F, rng, n)
        b = tuple(F.rand(rng) for _ in range(n))
        x = la.solve(F, A, b)
        assert la.mat_vec(F, A, x) == b


def test_det_multiplicative_and_charpoly():
    F = make_field(7)
    rng = random.Random(24)
    for _ in range(25):
        n = rng.randrange(1, 5)
        A = _rand_mat(F, rng, n, n)
        B = _rand_mat(F, rng, n, n)
        assert la.det(F, la.mat_mul(F, A, B)) == F.mul(la.det(F, A),
                                                       la.det(F, B))
        cp = la.charpoly(F, A)
        assert len(cp) == n + 1 and cp[-1] == F.one
        # Cayley-Hamilton
        acc = la.zeros(F, n, n)
        for i in range(n, -1, -1):
            acc = la.mat_mul(F, acc, A)
            acc = la.mat_add(F, acc, la.mat_scale(F, cp[i],
                                                  la.identity(F, n)))
        assert acc == la.zeros(F, n, n)


@pytest.mark.parametrize("p,deg", [(7, 1), (3, 2)])
def test_mat_poly_eval_matches_power_sum(p, deg):
    F = make_field(p, deg)
    rng = random.Random(28)
    for _ in range(20):
        n = rng.randrange(1, 5)
        M = _rand_mat(F, rng, n, n)
        f = tuple(F.rand(rng) for _ in range(rng.randrange(0, 5)))
        want = la.zeros(F, n, n)
        for i, c in enumerate(f):
            want = la.mat_add(F, want, la.mat_scale(F, c, la.mat_pow(F, M, i)))
        assert la.mat_poly_eval(F, f, M) == want


def test_det_2x2_oracle():
    F = make_field(5)
    A = ((1, 2), (3, 4))
    assert la.det(F, A) == (4 - 6) % 5
    assert la.det(F, la.identity(F, 3)) == F.one


def test_congruent_and_blocks():
    F = make_field(3)
    rng = random.Random(25)
    B = _rand_mat(F, rng, 3, 3)
    S = _rand_inv(F, rng, 3)
    assert la.congruent(F, B, S) == la.mat_mul(
        F, la.transpose(S), la.mat_mul(F, B, S))
    blocks = [la.identity(F, 1), ((2,),)]
    D = la.block_diag(F, blocks)
    assert D == ((1, 0), (0, 2))
    assert la.block_diag(F, []) == ()


def test_berkowitz_over_local_ring():
    # division-free determinant must work over a non-field ring
    F = make_field(5)
    R = LocalRing(F, 2)
    rng = random.Random(26)
    for _ in range(15):
        n = rng.randrange(1, 4)
        A = tuple(tuple(ring_rand(R, rng) for _ in range(n)) for _ in range(n))
        cp = la.berkowitz(R, A)
        # determinant via the constant coefficient, sign-adjusted
        det = cp[0] if n % 2 == 0 else R.neg(cp[0])
        if n == 1:
            assert det == A[0][0]
        if n == 2:
            want = R.sub(R.mul(A[0][0], A[1][1]), R.mul(A[0][1], A[1][0]))
            assert det == want


def test_greedy_extend_completes_basis():
    F = make_field(7)
    rng = random.Random(27)
    for _ in range(20):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, n)
        M = _rand_inv(F, rng, n)
        base = M[:k]
        ext = la.greedy_extend(F, base, la.identity(F, n))
        assert len(ext) == n - k
        assert la.rank(F, base + ext) == n
