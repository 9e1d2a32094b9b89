"""End-to-end acceptance checks, one test per contract item."""

import math
import random
import time

from quadpencil.field import make_field, field_nonsquare
from quadpencil import linalg as la
from quadpencil import poly as pl
from quadpencil import sampling as sp
from quadpencil.ip2s import ip2s_solve
from quadpencil.kronecker import kh_matrix, kronecker_decompose
from quadpencil.localring import LocalRing, ring_sqrt
from quadpencil.pencil import (Homography, Pencil, INF, apply_congruence,
                               char_poly, twist, verify_ip1s, verify_ip2s)
from quadpencil.regular import (canonicalize, descriptor_key,
                                diagonalize_unit, ip1s_solve)

from oracles import (bruteforce_homographies, candidate_pool,
                     factor_signature, poly_from_ints, regular_form,
                     regular_part, ring_elements)

_FIELDS = {}


def _field(p, d=1):
    key = (p, d)
    if key not in _FIELDS:
        F = make_field(p, d)
        _FIELDS[key] = (F, list(F.elements()))
    return _FIELDS[key]


def _rand_place(F, elems, rng, d):
    if d == 1 and rng.random() < 0.15:
        return INF
    while True:
        f = tuple(rng.choice(elems) for _ in range(d)) + (F.one,)
        if pl.is_irreducible(F, f):
            return f


def _rand_instance(F, elems, rng, nmax, force_kron=False, force_reg=False):
    """Random planted structure: kronecker indices plus local blocks."""
    kron, blocks, dim = [], [], 0
    if force_kron or rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            h = rng.choice((0, 0, 1, 2))
            if dim + 2 * h + 1 <= nmax:
                kron.append(h)
                dim += 2 * h + 1
        if force_kron and not kron:
            kron.append(0)
            dim += 1
    while dim < nmax and (rng.random() < 0.7 or (force_reg and not blocks)):
        room = nmax - dim
        d = 2 if room >= 2 and rng.random() < 0.35 else 1
        ell = 2 if room >= 2 * d and rng.random() < 0.3 else 1
        blocks.append((_rand_place(F, elems, rng, d), ell,
                       rng.random() < 0.3))
        dim += d * ell
    if force_reg and not blocks:
        if dim >= nmax and kron:
            dim -= 2 * kron.pop() + 1
        blocks.append((_rand_place(F, elems, rng, 1), 1, False))
        dim += 1
    if dim == 0:
        blocks.append((_rand_place(F, elems, rng, 1), 1, False))
    return tuple(kron), tuple(blocks)


_ODD = ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2))


def test_1_ip1s_round_trip_500_planted_instances_under_a_second():
    rng = random.Random(101)
    for i in range(500):
        F, elems = _field(*_ODD[i % 5])
        kron, blocks = _rand_instance(F, elems, rng, 10,
                                      force_kron=(i % 2 == 0))
        A, _ = sp.planted_pencil(F, rng, kron, blocks)
        S0 = sp.rand_invertible(F, rng, A.n)
        B = apply_congruence(A, S0)
        t0 = time.perf_counter()
        S = ip1s_solve(A, B)
        elapsed = time.perf_counter() - t0
        assert S is not None
        assert verify_ip1s(A, B, S)
        assert elapsed < 1.0


def test_2_canonical_descriptor_invariant_under_congruence_500_trials():
    rng = random.Random(202)
    for i in range(500):
        F, elems = _field(*_ODD[i % 5])
        if i % 3 == 0:
            P = sp.rand_pencil(F, rng, rng.randint(1, 8))
        else:
            kron, blocks = _rand_instance(F, elems, rng, 8,
                                          force_kron=(i % 6 == 1))
            P, _ = sp.planted_pencil(F, rng, kron, blocks)
        S = sp.rand_invertible(F, rng, P.n)
        Q = apply_congruence(P, S)
        assert (descriptor_key(canonicalize(P))
                == descriptor_key(canonicalize(Q)))


def test_3_kronecker_multiset_recovery_and_50_twist_invariance():
    rng = random.Random(303)
    for i in range(200):
        F, elems = _field(*_ODD[i % 5])
        kron, blocks = _rand_instance(F, elems, rng, 6, force_kron=True)
        A, _ = sp.planted_pencil(F, rng, kron, blocks)
        want = tuple(sorted(kron))
        assert kronecker_decompose(A).indices == want
        for _ in range(50):
            g = sp.rand_homography(F, rng)
            assert kronecker_decompose(twist(A, g)).indices == want


def _claims_one_field(p):
    """Commuting pair whose symmetrized product has no square root, plus
    the dual failure mode when a root does exist."""
    sq = {(x * x) % p for x in range(1, p)}
    d = next(x for x in range(2, p) if x not in sq)
    u, v = next((u, v) for u in range(1, p) for v in range(1, p)
                if (u * u + v * v) % p == d)

    def mmul(X, Y):
        return tuple(tuple(sum(X[i][k] * Y[k][j] for k in range(2)) % p
                           for j in range(2)) for i in range(2))

    def mT(X):
        return tuple(tuple(X[j][i] for j in range(2)) for i in range(2))

    def inv(x):
        return pow(x, p - 2, p)

    eye = ((1, 0), (0, 1))
    # claim A: t^2 != 1 leaves Z = diag(d, t^2 d) with no root at all
    t = 2
    assert (t * t) % p != 1
    D, Dinv = ((t, 0), (0, 1)), ((inv(t), 0), (0, 1))

    def star(M):
        return mmul(Dinv, mmul(mT(M), D))

    H = ((0, 1), (t, (-(u * inv(v)) * (t + 1)) % p))
    Y = ((u, v), ((t * v) % p, (-t * u) % p))
    assert star(H) == H
    assert mmul(Y, H) == mmul(H, Y)
    Z = mmul(D, mmul(mmul(Y, mT(Y)), Dinv))
    assert Z == ((d, 0), (0, (t * t * d) % p))
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for e in range(p):
                    W = ((a, b), (c, e))
                    assert mmul(W, W) != Z
    # claim B: t = -1 gives Z = diag(d, d) = W^2, yet Y W^-1 is no witness
    tm = p - 1
    Dm = ((tm, 0), (0, 1))

    def star_m(M):
        return mmul(Dm, mmul(mT(M), Dm))

    Hm = ((0, 1), (p - 1, 0))
    Ym = ((u, v), ((p - v) % p, u))
    assert star_m(Hm) == Hm
    assert mmul(Ym, Hm) == mmul(Hm, Ym)
    Zm = mmul(Dm, mmul(mmul(Ym, mT(Ym)), Dm))
    assert Zm == ((d, 0), (0, d))
    W = ((0, d), (1, 0))
    assert mmul(W, W) == Zm
    Winv = ((0, 1), (inv(d), 0))
    assert mmul(W, Winv) == eye
    X = mmul(Ym, Winv)
    commutes = mmul(X, Hm) == mmul(Hm, X)
    isometry = mmul(star_m(X), X) == eye
    assert not (commutes and isometry)


def test_4_square_root_counterexamples_reproduced_exactly():
    for p in (5, 7, 13):
        _claims_one_field(p)


def _swapped_pair(K, a):
    """The pencils (2xy, x^2 + a y^2) and (x^2 + y^2/a, 2xy) over K."""
    hyp = ((K.zero, K.one), (K.one, K.zero))
    A = Pencil.make(K, hyp, ((K.one, K.zero), (K.zero, a)))
    B = Pencil.make(K, ((K.one, K.zero), (K.zero, K.inv(a))), hyp)
    return A, B


def test_5_extension_of_scalars_splitting_degrees_in_1_2_4():
    F, _ = _field(7)
    # 4th powers of F_7 are the squares, so x^4 + 4 has no root
    fourth = {F.mul(F.mul(x, x), F.mul(x, x))
              for x in F.elements() if x != F.zero}
    assert fourth == {1, 2, 4}
    quartic = poly_from_ints(F, (4, 0, 0, 0, 1))
    assert all(pl.poly_eval(F, quartic, x) != F.zero for x in F.elements())
    A, B = _swapped_pair(F, F.one)
    assert ip1s_solve(A, B) is None
    K2 = make_field(7, 2)
    A2, B2 = _swapped_pair(K2, K2.one)
    S = ip1s_solve(A2, B2)
    assert S is not None and verify_ip1s(A2, B2, S)
    # sampled a over two base fields: first degree that works matches the
    # smallest factor degree of x^4 + 4a and lands in {1, 2, 4}
    for q in (7, 5):
        Fq, elems = _field(q)
        exts = {1: Fq, 2: make_field(q, 2), 4: make_field(q, 4)}
        for a in elems:
            if a == Fq.zero:
                continue
            quart = poly_from_ints(
                Fq, (Fq.mul(Fq.scalar(4), a), 0, 0, 0, 1))
            predicted = min(pl.poly_deg(f)
                            for f, _ in pl.poly_factor(Fq, quart))
            observed = None
            for m in (1, 2, 4):
                K = exts[m]
                ak = a if m == 1 else K.lift(a)
                Am, Bm = _swapped_pair(K, ak)
                Sm = ip1s_solve(Am, Bm)
                if Sm is not None:
                    assert verify_ip1s(Am, Bm, Sm)
                    observed = m
                    break
            assert observed == predicted
            assert observed in (1, 2, 4)


def _rmat_mul(R, X, Y):
    out = []
    for i in range(len(X)):
        row = []
        for j in range(len(Y[0])):
            s = R.zero
            for k in range(len(Y)):
                s = R.add(s, R.mul(X[i][k], Y[k][j]))
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def _rcongruent(R, A, T):
    Tt = tuple(tuple(T[j][i] for j in range(len(T))) for i in range(len(T)))
    return _rmat_mul(R, Tt, _rmat_mul(R, A, T))


def test_6_unit_forms_over_truncated_rings_reduce_to_two_classes():
    for q in (3, 5):
        K, elems = _field(q)
        delta = field_nonsquare(K)
        # rank 1 at both precisions: exhaustive unit orbits
        for m in (1, 2):
            R = LocalRing(K, m)
            units = [x for x in ring_elements(R) if R.is_unit(x)]
            DR = R.from_field(delta)
            for u in units:
                T, flag = diagonalize_unit(R, ((u,),))
                val = R.mul(R.mul(T[0][0], T[0][0]), u)
                assert val == (R.one if flag == "1" else DR)
                orbit = {R.mul(R.mul(t, t), u) for t in units}
                assert len(orbit) == len(units) // 2
                assert (R.one in orbit) == (flag == "1")
                assert (DR in orbit) == (flag == "D")
        # rank 2 at precision 1: the full congruence orbit over the field
        R1 = LocalRing(K, 1)
        gl2 = [((a, b), (c, d))
               for a in elems for b in elems for c in elems for d in elems
               if K.sub(K.mul(a, d), K.mul(b, c)) != K.zero]
        eye = la.identity(K, 2)
        dtar = ((K.one, K.zero), (K.zero, delta))
        for a in elems:
            for b in elems:
                for c in elems:
                    if K.sub(K.mul(a, c), K.mul(b, b)) == K.zero:
                        continue
                    A = ((a, b), (b, c))
                    orbit = {la.congruent(K, A, S) for S in gl2}
                    Ar = tuple(tuple(R1.from_field(x) for x in row)
                               for row in A)
                    _, flag = diagonalize_unit(R1, Ar)
                    assert (eye in orbit) == (flag == "1")
                    assert (dtar in orbit) == (flag == "D")
        # rank 2 at precision 2: apply the transform, check the det class
        R = LocalRing(K, 2)
        ring_elems = list(ring_elements(R))
        DR = R.from_field(delta)
        for a in ring_elems:
            for b in ring_elems:
                for c in ring_elems:
                    det = R.sub(R.mul(a, c), R.mul(b, b))
                    if not R.is_unit(det):
                        continue
                    A = ((a, b), (b, c))
                    T, flag = diagonalize_unit(R, A)
                    got = _rcongruent(R, A, T)
                    want = ((R.one, R.zero),
                            (R.zero, R.one if flag == "1" else DR))
                    assert got == want
                    assert (flag == "D") == ring_sqrt(R, det)[1]


def test_7_ip2s_round_trip_200_planted_with_bruteforce_containment():
    rng = random.Random(707)
    # half the instances plant c g0 for a non-square c, drawn from a
    # generator of their own so the pencils and g0 stay as before
    coin = random.Random(708)
    qs = (7, 11, 13)
    for i in range(200):
        F, elems = _field(qs[i % 3])
        if i % 4 == 3:
            kron, blocks = _rand_instance(F, elems, rng, 8, force_kron=True,
                                          force_reg=True)
            A, _ = sp.planted_pencil(F, rng, kron, blocks)
        else:
            A = sp.rand_regular_pencil(F, rng, rng.randint(1, 8))
        g0 = sp.rand_homography(F, rng)
        S0 = sp.rand_invertible(F, rng, A.n)
        c = coin.choice((F.one, field_nonsquare(F)))
        gc = Homography.make(F, la.mat_scale(F, c, g0.m))
        B = apply_congruence(twist(A, gc), S0)
        out = ip2s_solve(A, B)
        assert out is not None
        S, g = out
        assert verify_ip2s(A, B, S, g)
        da, db = canonicalize(A), canonicalize(B)
        pool = {h.m for h in candidate_pool(F, da, db)}
        # the homographies relating the characteristic forms that also
        # carry the layer ranks of every place of A onto those of B
        ra, want = regular_part(da), factor_signature(regular_part(db))
        oracle = {h.m for h in bruteforce_homographies(regular_form(da),
                                                       regular_form(db))
                  if factor_signature(twist(ra, h)) == want}
        assert pool == oracle
        assert g0.m in pool


def _fitted_slope(sizes, med):
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in med]
    xb = sum(xs) / len(xs)
    yb = sum(ys) / len(ys)
    return (sum((x - xb) * (y - yb) for x, y in zip(xs, ys))
            / sum((x - xb) ** 2 for x in xs))


def test_8_canonicalization_scaling_slopes_on_f101():
    F, _ = _field(101)
    rng = random.Random(808)
    sizes = (8, 16, 32, 64)
    canonicalize(sp.rand_regular_pencil(F, rng, 4))  # warm up
    reg = []
    for n in sizes:
        ts = []
        for _ in range(3):
            A = sp.rand_regular_pencil(F, rng, n)
            t0 = time.perf_counter()
            canonicalize(A)
            ts.append(time.perf_counter() - t0)
        reg.append(sorted(ts)[1])
    assert _fitted_slope(sizes, reg) <= 4.5
    sing = []
    for n in sizes:
        h = max(1, n // 8)
        blocks = tuple(((c, 1), 1, False) for c in range(n - (2 * h + 1)))
        ts = []
        for _ in range(3):
            A, _ = sp.planted_pencil(F, rng, (h,), blocks)
            t0 = time.perf_counter()
            canonicalize(A)
            ts.append(time.perf_counter() - t0)
        sing.append(sorted(ts)[1])
    assert _fitted_slope(sizes, sing) <= 5.0


def _rand_alternating_regular(F, elems, rng, n):
    if n == 0:
        return None
    while True:
        mats = []
        for _ in range(2):
            A = [[F.zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    A[i][j] = A[j][i] = rng.choice(elems)
            mats.append(tuple(map(tuple, A)))
        P = Pencil.make(F, mats[0], mats[1])
        if not char_poly(P).is_zero():
            return P


def test_9_char2_alternating_kronecker_100_planted_bit_exact():
    rng = random.Random(909)
    fields = (make_field(2), make_field(2, 2, (1, 1, 1)))
    for i in range(100):
        F = fields[i % 2]
        elems = list(F.elements())
        hs = sorted(rng.choice((0, 0, 1, 1, 2))
                    for _ in range(rng.randint(1, 2)))
        reg = _rand_alternating_regular(F, elems, rng,
                                        2 * rng.choice((0, 1, 2)))
        parts_inf = [kh_matrix(F, h).b_inf for h in hs]
        parts_0 = [kh_matrix(F, h).b_0 for h in hs]
        if reg is not None:
            parts_inf.append(reg.b_inf)
            parts_0.append(reg.b_0)
        P0 = Pencil.make(F, la.block_diag(F, tuple(parts_inf)),
                         la.block_diag(F, tuple(parts_0)))
        S = sp.rand_invertible(F, rng, P0.n)
        P = apply_congruence(P0, S)
        rep = kronecker_decompose(P)
        assert rep.indices == tuple(hs)
        got = apply_congruence(P, rep.transform)
        exp_inf = ([kh_matrix(F, h).b_inf for h in hs]
                   + [rep.regular_part.b_inf])
        exp_0 = [kh_matrix(F, h).b_0 for h in hs] + [rep.regular_part.b_0]
        assert got.b_inf == la.block_diag(F, tuple(exp_inf))
        assert got.b_0 == la.block_diag(F, tuple(exp_0))
