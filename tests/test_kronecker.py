"""Kronecker decomposition of the singular part, odd and even
characteristic."""

import math
import random

import pytest

from quadpencil.field import make_field
from quadpencil import kronecker
from quadpencil import linalg as la
from quadpencil import sampling as sp
from quadpencil.kronecker import (kh_matrix, minimal_chain, chain_ok,
                                  kronecker_decompose)
from quadpencil.pencil import (INF, Pencil, apply_congruence, twist,
                               char_poly)
from quadpencil.poly import canonical_modulus
from quadpencil.regular import canonicalize

from oracles import dense_staircase, stable_inf_tower, walk_level

# two prime fields and two extensions, one of them of characteristic 2,
# where alternating pencils reach the walk and the staircase too
WALK_FIELDS = (make_field(3), make_field(101), make_field(3, 2),
               make_field(2, 2))
F9 = make_field(3, 2)
# a tower and a degree-1 extension take the generic element loop
TOWER = F9.extension(canonical_modulus(F9, 2))
DEGREE_ONE = make_field(7).extension((4, 1))  # F_7[x]/(x - 3)
STAIRCASE_FIELDS = (make_field(7), make_field(101), F9, make_field(2, 2),
                    TOWER, DEGREE_ONE)


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
    # B_inf invertible: no chain, an empty tower, and B_inf^-1 itself
    F = make_field(7)
    rng = random.Random(50)
    for _ in range(10):
        P = sp.rand_regular_pencil(F, rng, rng.randrange(1, 5))
        c, tower, inverse = minimal_chain(P)
        assert (c, tower) == (None, ())
        assert inverse == la.inv(F, P.b_inf)


def test_minimal_chain_found_and_valid():
    F = make_field(7)
    rng = random.Random(51)
    for _ in range(20):
        hs = sorted(rng.choice([0, 1, 2]) for _ in range(rng.randrange(1, 3)))
        P, _ = sp.planted_pencil(F, rng, kron=hs)
        c, _, inverse = minimal_chain(P)
        assert c is not None and inverse is None
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


def _inf_block(F, ell):
    """The regular ell x ell pencil whose only place is INF, of order
    ell, in every characteristic: B_0 the anti-diagonal and B_inf the
    diagonal just above it, so that det(lambda B_inf + B_0) = +-1."""
    return Pencil.make(F, [[F.one if i + j == ell - 2 else F.zero
                            for j in range(ell)] for i in range(ell)],
                       [[F.one if i + j == ell - 1 else F.zero
                         for j in range(ell)] for i in range(ell)])


def _scrambled(F, rng, parts):
    P = Pencil.make(F, la.block_diag(F, [Q.b_inf for Q in parts]),
                    la.block_diag(F, [Q.b_0 for Q in parts]))
    return apply_congruence(P, sp.rand_invertible(F, rng, P.n))


@pytest.mark.parametrize("F", WALK_FIELDS, ids=repr)
def test_walk_levels_match_the_dense_construction(F, monkeypatch):
    """Every level H_j the walk reads off its one elimination of B_inf
    is the level one dense kernel of [B_inf | -B_0 H_(j-1)] gives, on
    several K_h, on INF towers that end at the fixpoint, and on regular
    pencils with B_inf invertible, where the walk makes no level."""
    rng = random.Random(57)
    levels = []
    real = kronecker._preimage

    def spy(*args):
        levels.append((args[-1], real(*args)))
        return levels[-1][1]

    monkeypatch.setattr(kronecker, "_preimage", spy)
    seen = {"kron": 0, "inf": 0, "regular": 0}
    for i in range(4):
        reg = sp.rand_regular_pencil(F, rng, rng.randrange(0, 4))
        hs = (i, rng.choice((i, 3)))
        ells = [rng.choice((1, 2, 3, 4)) for _ in range(2)]
        for kind, P in (
                ("kron", _scrambled(F, rng, [kh_matrix(F, h) for h in hs]
                                    + [reg])),
                ("inf", _scrambled(F, rng, [_inf_block(F, e) for e in ells]
                                   + [reg])),
                ("regular", sp.rand_regular_pencil(F, rng, 2 + len(hs)))):
            levels.clear()
            c, tower, inverse = minimal_chain(P)
            want = la.nullspace(F, P.b_inf, ncols=P.n)
            for img, H in levels:
                assert img == la.mat_mul(F, P.b_0, la.transpose(want))
                want = walk_level(P, img)
                assert H == want
            seen[kind] += len(levels)
            if kind == "kron":
                assert c.h == hs[0] == len(levels) and inverse is None
            elif kind == "inf":
                assert c is None and inverse is None
                assert len(levels) == max(ells)
                assert tower == want == stable_inf_tower(P)
                assert len(tower) == sum(ells)
            else:
                assert (c, tower, levels) == (None, (), [])
                assert la.mat_mul(F, inverse, P.b_inf) == la.identity(F, P.n)
    assert seen["kron"] > 0 and seen["inf"] > 0


@pytest.mark.parametrize("F", (TOWER, DEGREE_ONE), ids=repr)
def test_decompose_strips_kh_beside_a_regular_part_over_any_field(F):
    """A K_h with h >= 1 beside a non-empty regular part reaches the
    staircase; over a tower and a degree-1 extension, whose kernels are
    element loops, it is stripped as over F_p."""
    rng = random.Random(59)
    reg = [((F.one, F.one), 1, False), ((F.zero, F.one), 1, False)]
    for hs in ([1], [2], [1, 2]):
        assert _check_recovery(F, rng, hs, reg).regular_part.n == 2


def _rand_low_rank_symmetric(F, rng, m):
    r = rng.randrange(m + 1)
    if r == 0:
        return la.zeros(F, m, m)
    return la.congruent(F, sp.rand_symmetric(F, rng, r),
                        sp.rand_matrix(F, rng, r, m))


@pytest.mark.parametrize("F", STAIRCASE_FIELDS, ids=repr)
def test_staircase_matches_the_dense_solve(F):
    """_staircase_correction, which reduces B'_inf z_j - B'_0 z_(j-1) =
    rhs_j one block column at a time, moves the f vectors by the z the
    dense (h-1) m x h m solve returns, for h = 2..5, with B'_inf and B'_0
    of every rank; when that solve finds none it still stops with
    "staircase unsolvable"."""
    rng = random.Random(58)
    outcomes = {True: 0, False: 0}
    for trial in range(40):
        h, m = 2 + trial % 4, rng.randrange(1, 6)
        n = h + m
        Binf = _rand_low_rank_symmetric(F, rng, m)
        B0 = _rand_low_rank_symmetric(F, rng, m)
        Cinf = sp.rand_matrix(F, rng, h, m)
        if trial % 2:
            C0 = sp.rand_matrix(F, rng, h, m)
        else:  # a consistent staircase, from a planted z
            z = sp.rand_matrix(F, rng, h, m)
            D = la.mat_sub(F, la.mat_mul(F, z[1:], Binf),
                           la.mat_mul(F, z[:-1], B0))
            C0 = la.mat_add(F, Cinf[1:], D) + sp.rand_matrix(F, rng, 1, m)
        A = (sp.rand_symmetric(F, rng, h), sp.rand_symmetric(F, rng, h))
        P = Pencil.make(*[F] + [
            la.hstack(a, C) + la.hstack(la.transpose(C), B)
            for a, C, B in zip(A, (Cinf, C0), (Binf, B0))])
        unit = la.identity(F, n)
        fs, gs = unit[:h], unit[h:]
        es = sp.rand_matrix(F, rng, h + 1, n)
        want = dense_staircase(F, la.mat_neg(F, B0), Binf,
                               la.mat_sub(F, C0[:-1], Cinf[1:]))
        outcomes[want is not None] += 1
        if want is None:
            with pytest.raises(AssertionError, match="staircase unsolvable"):
                kronecker._staircase_correction(P, es, fs, gs)
        else:
            moved = kronecker._staircase_correction(P, es, fs, gs)[0]
            assert tuple(v[h:] for v in moved) == want
    assert outcomes[True] >= 20 and outcomes[False] > 0


def test_singular_family_elimination_work_is_quartic(monkeypatch):
    """Sum of rows x columns x pivots over every rref that canonicalize
    makes on test_8's singular family, one K_h with h = n/8 plus
    n - 2h - 1 rational places over F_101: a count, free of timing
    noise.  From n = 64 to 128 its slope reads 3.67 with the staircase
    reduced one block column at a time and 6.14 with one dense solve;
    the bound 4.2 leaves a margin of 0.53 above the first, and the
    paper's O~(n^4) is slope 4 up to log factors."""
    F = make_field(101)
    work = [0]
    real = la._rref_array

    def counted(F, M):
        R, pivots = real(F, M)
        work[0] += M.shape[0] * M.shape[1] * len(pivots)
        return R, pivots

    monkeypatch.setattr(la, "_rref_array", counted)
    sizes = (32, 64, 128)
    totals = []
    for n in sizes:
        h = n // 8
        rng = random.Random(880 + n)
        A, _ = sp.planted_pencil(F, rng, (h,), tuple(
            ((c, 1), 1, False) for c in range(n - (2 * h + 1))))
        work[0] = 0
        assert canonicalize(A).kronecker_indices == (h,)
        totals.append(work[0])
    slope = math.log(totals[2] / totals[1]) / math.log(2)
    assert slope <= 4.2, (totals, slope)
