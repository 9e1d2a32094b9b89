"""Homography recovery: place signatures, linear pinning, and the solver."""

import itertools
import random

import pytest

from quadpencil.field import field_nonsquare, make_field
from quadpencil import linalg as la
from quadpencil import poly as pl
from quadpencil import sampling as sp
from quadpencil import ip2s
from quadpencil.ip2s import (ip2s_solve, _candidate_pool, _homography_key,
                             _image, _layers, _place_degree,
                             _signature_of_descriptor, _twisted_layers)
from quadpencil.pencil import (Pencil, BinaryForm, Homography, INF,
                               apply_congruence, char_poly, twist,
                               verify_ip2s)
from quadpencil.regular import canonicalize

from oracles import (all_homographies, bruteforce_homographies,
                     candidate_pool, congruence_class_representatives,
                     factor_signature, pencil_pair_orbit_count, regular_form,
                     regular_part)


def test_factor_signature_oracles():
    F = make_field(7)
    # lambda^2 + 4 mu^2, irreducible place x^2 + 4
    P = Pencil.make(F, la.identity(F, 2), ((1, 3), (3, 6)))
    assert char_poly(P).coeffs == (4, 0, 1)
    assert factor_signature(P) == {(2, ((1, 1),)): ((4, 0, 1),)}
    # lambda mu (lambda + mu)^2 assembled from canonical blocks; neither
    # form is invertible, so the ranks are read at the point (1:1)
    Q = sp.assemble_blocks(F, blocks=((INF, 1, False), ((0, 1), 1, False),
                                      ((1, 1), 2, False)))
    assert factor_signature(Q) == {(1, ((1, 1),)): (INF, (0, 1)),
                                   (1, ((2, 1),)): ((1, 1),)}
    # equal exponents, different layers: one ell = 2 layer at INF, two
    # ell = 1 layers at 0, and at lambda + mu one of each order
    R = sp.assemble_blocks(F, blocks=((INF, 2, False), ((0, 1), 1, False),
                                      ((0, 1), 1, True), ((1, 1), 1, False),
                                      ((1, 1), 2, True), ((1, 1), 2, False)))
    assert factor_signature(R) == {(1, ((2, 1),)): (INF,),
                                   (1, ((1, 2),)): ((0, 1),),
                                   (1, ((1, 1), (2, 2))): ((1, 1),)}
    Z = Pencil.make(F, ((0,),), ((0,),))
    with pytest.raises(ValueError):
        factor_signature(Z)


def test_signature_agrees_with_descriptor():
    rng = random.Random(37)
    for q, deg, mod in ((3, 1, None), (5, 1, None), (7, 1, None),
                        (3, 2, None), (5, 2, None)):
        F = make_field(q, deg, mod)
        for n in (1, 2, 3, 4):
            for _ in range(3):
                P = sp.rand_regular_pencil(F, rng, n)
                assert (factor_signature(P)
                        == _signature_of_descriptor(F, canonicalize(P)))
    # one ell = 2 layer against two ell = 1 layers at equal exponent, at
    # rational, infinite and quadratic places, with a Kronecker block
    for q, deg in ((3, 1), (5, 1), (7, 1), (3, 2)):
        F = make_field(q, deg)
        x0, x1 = ((F.scalar(c), F.one) for c in range(2))
        quad = next(_irreducibles(F, 2))
        for kron, blocks in (
                ((), ((x0, 2, False), (x1, 1, False), (x1, 1, True))),
                ((), ((INF, 2, True), (x0, 1, False), (x0, 1, False))),
                ((), ((quad, 2, False), (x0, 1, True), (x0, 1, False),
                      (x1, 1, False))),
                ((), ((quad, 1, False), (quad, 1, True), (INF, 2, False))),
                ((1,), ((x1, 2, False), (INF, 1, False), (INF, 1, True)))):
            P = sp.planted_pencil(F, rng, kron, blocks)[0]
            da = canonicalize(P)
            reg = regular_part(da) if kron else P
            assert factor_signature(reg) == _signature_of_descriptor(F, da)


def _diag(F, vals):
    n = len(vals)
    return tuple(tuple(F.scalar(vals[i]) if i == j else F.zero
                       for j in range(n)) for i in range(n))


def _irreducibles(F, d):
    for tail in itertools.product(F.elements(), repeat=d):
        f = tail + (F.one,)
        if pl.is_irreducible(F, f):
            yield f


def _sweep(F, sig_src, sig_dst):
    return {_homography_key(F, g) for g in all_homographies(F)
            if all(_image(F, g.inverse(), p)[0] in sig_dst[de]
                   for de in sig_src for p in sig_src[de])}


def _signature(F, places):
    P = sp.assemble_blocks(F, blocks=tuple((f, 1, False) for f in places))
    return _signature_of_descriptor(F, canonicalize(P))


def test_candidates_for_class_match_exhaustive_sweep():
    # over F_9 the points are tuples and the pinning places of degree 2
    # and 3 live in a tower over F_3
    for F in (make_field(3), make_field(5), make_field(7),
              make_field(3, 2)):
        x0, x1, x2 = ((F.scalar(c), F.one) for c in range(3))
        quads = list(itertools.islice(_irreducibles(F, 2), 2))
        cubs = list(itertools.islice(_irreducibles(F, 3), 2))
        quart = next(_irreducibles(F, 4))
        for places in ((x0, x1, x2),       # point triple
                       tuple(quads),       # two conjugate root pairs
                       (cubs[0],),         # pinned up to orbit rotation
                       (x0, quads[0]),     # a point and a root pair
                       (x0, x1),           # split torus
                       (quads[0],),        # nonsplit torus
                       (x0,),              # a lone point
                       (x0, cubs[0]),      # a point beside a cubic
                       (quart,),           # one quartic orbit
                       tuple(cubs),        # a class of two cubics
                       (x0, x1, x2, INF)): # one class of four points:
                                           # the PGL_2 sweep at q = 3
            sig = _signature(F, places)
            got = _candidate_pool(F, sig, sig)
            assert {_homography_key(F, g) for g in got} == _sweep(F, sig, sig)
    F = make_field(5)
    assert _candidate_pool(F, {(1, ((1, 1),)): ((0, 1),)},
                           {(1, ((1, 1),)): ((0, 1), (1, 1))}) == ()
    # same places, one ell = 2 layer against two ell = 1 layers
    assert _candidate_pool(F, {(1, ((2, 1),)): ((0, 1),)},
                           {(1, ((1, 2),)): ((0, 1),)}) == ()


def _plant(F, rng, A):
    """(B, g0): B a random congruence of twist(A, c g0) for a random g0
    in PGL_2 and c 1 or a non-square, each half of the time.  c comes
    from a generator seeded by rng's state, which it leaves as it is, so
    A's and g0's draws do not depend on it."""
    g0 = sp.rand_homography(F, rng)
    c = random.Random(str(rng.getstate())).choice((F.one,
                                                   field_nonsquare(F)))
    S0 = sp.rand_invertible(F, rng, A.n)
    gc = Homography.make(F, la.mat_scale(F, c, g0.m))
    return apply_congruence(twist(A, gc), S0), g0


def test_pool_equals_bruteforce_oracle():
    rng = random.Random(53)
    for q in (7, 11, 13):
        F = make_field(q)
        for n in (2, 3, 4):
            A = sp.rand_regular_pencil(F, rng, n)
            B, _ = _plant(F, rng, A)
            pool = {_homography_key(F, g) for g in
                    candidate_pool(F, canonicalize(A), canonicalize(B))}
            oracle = {_homography_key(F, g) for g in
                      bruteforce_homographies(char_poly(A), char_poly(B))}
            assert pool == oracle


def test_pool_oracle_on_singular_regular_parts():
    rng = random.Random(59)
    F = make_field(7)
    A = sp.planted_pencil(F, rng, kron=(1,),
                          blocks=(((3, 1), 1, False), ((1, 0, 1), 1, True)))[0]
    B, _ = _plant(F, rng, A)
    da, db = canonicalize(A), canonicalize(B)
    pool = {_homography_key(F, g) for g in candidate_pool(F, da, db)}
    oracle = {_homography_key(F, g) for g in
              bruteforce_homographies(regular_form(da), regular_form(db))}
    assert pool == oracle


def _layer_ranks(desc):
    ranks = {}
    for b in desc.local_blocks:
        ranks[b.place, b.ell] = ranks.get((b.place, b.ell), 0) + b.mult
    return ranks


def test_pool_respects_layer_ranks_oracle():
    # places of equal exponent whose layers differ: the pool is exactly
    # the homographies relating the regular forms that also give twist(A,
    # g) the layer ranks of B at every place
    rng = random.Random(97)
    for q, kron, blocks in (
            (5, (), ((INF, 2, False), ((0, 1), 1, False),
                     ((0, 1), 1, True), ((1, 1), 1, False),
                     ((2, 1), 1, False))),
            (5, (), (((0, 1), 2, True), ((1, 1), 1, False),
                     ((1, 1), 1, False), ((2, 0, 1), 1, False))),
            (7, (1,), ((INF, 1, False), (INF, 1, False), ((3, 1), 2, False),
                       ((5, 1), 1, True))),
            (7, (), (((0, 1), 2, False), ((1, 1), 1, False),
                     ((1, 1), 1, True), ((2, 1), 2, True),
                     ((3, 1), 1, False), ((3, 1), 1, False)))):
        F = make_field(q)
        A = sp.planted_pencil(F, rng, kron, blocks)[0]
        B, g0 = _plant(F, rng, A)
        da, db = canonicalize(A), canonicalize(B)
        pool = {_homography_key(F, g) for g in candidate_pool(F, da, db)}
        forms = bruteforce_homographies(regular_form(da), regular_form(db))
        want = _layer_ranks(db)
        oracle = {_homography_key(F, g) for g in forms
                  if _layer_ranks(canonicalize(twist(A, g))) == want}
        assert pool == oracle
        assert _homography_key(F, g0) in pool
        assert len(pool) < len(forms)


def _count_canonicalize(monkeypatch):
    calls = []

    def counted(P):
        calls.append(P)
        return canonicalize(P)
    monkeypatch.setattr(ip2s, "canonicalize", counted)
    return calls


def _solve(monkeypatch, A, B):
    """ip2s_solve(A, B), which canonicalizes A, B and at most the
    winner's twist."""
    calls = _count_canonicalize(monkeypatch)
    out = ip2s_solve(A, B)
    assert len(calls) <= 3
    return out


def test_transported_layers_match_canonical_twist():
    # the transport rule against canonicalize on the twist, with layers
    # of order ell <= 3 at INF and at places of degree 1 to 3; every third
    # g fixes INF.  Each g is also fed as the exact GL_2 matrix c*g for a
    # non-square c: the norms N carry the scalar, so no separate bit is
    # needed for it
    rng = random.Random(107)
    seen = set()
    for F in (make_field(3), make_field(5), make_field(7), make_field(31),
              make_field(3, 2), make_field(5, 2)):
        quad = next(_irreducibles(F, 2))
        cub = next(_irreducibles(F, 3))
        nsq = field_nonsquare(F)
        for i in range(8):
            blocks = []
            for _ in range(rng.randint(1, 3)):
                place = rng.choice((INF, INF, (F.rand(rng), F.one),
                                    (F.rand(rng), F.one), quad, cub))
                ell = rng.randint(1, 3 if _place_degree(place) == 1 else 2)
                blocks.append((place, ell, rng.random() < 0.5))
            A = sp.planted_pencil(F, rng, (), tuple(blocks))[0]
            g = sp.rand_homography(F, rng)
            while i % 3 == 0 and g.m[1][0] != F.zero:
                g = sp.rand_homography(F, rng)    # one fixing INF
            layers = _layers(canonicalize(A))
            for c in (F.one, nsq):
                gc = Homography.make(F, la.mat_scale(F, c, g.m))
                assert (_twisted_layers(F, layers, gc)
                        == _layers(canonicalize(twist(A, gc))))
            for t, _ in layers:
                seen.add((_image(F, g, t)[0] is INF, t is INF,
                          _place_degree(t)))
    assert {(p, t) for p, t, _ in seen} == set(
        itertools.product((False, True), repeat=2))
    assert {k for _, _, k in seen} == {1, 2, 3}


def test_lone_rational_place_rejected_without_candidates(monkeypatch):
    # one rank-2 layer at one rational place whose discriminant classes
    # differ: no twist carries one onto the other, so no candidate of the
    # lone-point pool at q = 103 is canonicalized
    rng = random.Random(109)
    F = make_field(103)
    A = sp.planted_pencil(F, rng, (), (((5, 1), 1, False),
                                       ((5, 1), 1, False)))[0]
    B = sp.planted_pencil(F, rng, (), (((7, 1), 1, False),
                                       ((7, 1), 1, True)))[0]
    calls = _count_canonicalize(monkeypatch)
    assert ip2s_solve(A, B) is None
    assert len(calls) == 2


def test_wrong_transport_raises(monkeypatch):
    # a transport that matches every candidate of a non-equivalent pair
    # is caught on the winner's canonical form
    F = make_field(7)
    nsq = next(x for x in F.elements()
               if x != F.zero and not F.is_square(x))
    C = Pencil.make(F, la.identity(F, 3), la.zeros(F, 3, 3))
    D = Pencil.make(F, _diag(F, (1, 1, nsq)), la.zeros(F, 3, 3))
    layers_d = _layers(canonicalize(D))
    monkeypatch.setattr(ip2s, "_twisted_layers",
                        lambda F, layers, g: layers_d)
    with pytest.raises(AssertionError, match="transported"):
        ip2s_solve(C, D)


def test_mixed_layer_pairs_are_rejected_before_any_candidate(monkeypatch):
    # the non-equivalent shapes of the benchmark: one ell = 2 layer
    # against two ell = 1 layers, with a split-torus pool at q = 103 and
    # a nonsplit-torus pool at q = 31
    rng = random.Random(101)
    F = make_field(103)
    split = (((7, 1), 2, False),), (((7, 1), 1, False), ((7, 1), 1, False))
    rest = (((40, 1), 1, True),)
    F31 = make_field(31)
    quad = next(_irreducibles(F31, 2))
    nonsplit = (((quad, 2, True),), ((quad, 1, True), (quad, 1, True)))
    for K, (one, two), extra in ((F, split, rest), (F31, nonsplit, ())):
        A = sp.planted_pencil(K, rng, (), one + extra)[0]
        B = sp.planted_pencil(K, rng, (), two + extra)[0]
        for X, Y in ((A, B), (B, A)):
            calls = _count_canonicalize(monkeypatch)
            assert ip2s_solve(X, Y) is None
            assert len(calls) == 2


def test_lone_rational_place_pins_one_point(monkeypatch):
    # one rational place of rank 2: at q = 103 the PGL_2 sweep exceeds
    # the budget, so the pool pins the lone point (one row, a
    # 3-dimensional nullspace)
    F = make_field(103)
    rng = random.Random(103)
    for delta in (False, True):
        A = sp.planted_pencil(F, rng, (), (((5, 1), 1, False),
                                           ((5, 1), 1, delta)))[0]
        B, _ = _plant(F, rng, A)
        out = _solve(monkeypatch, A, B)
        assert out is not None
        assert verify_ip2s(A, B, *out)


def test_round_trip_planted_regular(monkeypatch):
    rng = random.Random(61)
    for q, deg in ((3, 1), (5, 1), (7, 1), (3, 2)):
        F = make_field(q, deg)
        for n in (1, 2, 3, 4):
            A = sp.rand_regular_pencil(F, rng, n)
            B, _ = _plant(F, rng, A)
            out = _solve(monkeypatch, A, B)
            assert out is not None
            S, g = out
            assert verify_ip2s(A, B, S, g)


def test_round_trip_planted_singular_mix(monkeypatch):
    rng = random.Random(67)
    F = make_field(5)
    for kron, blocks in (((0, 1), (((2, 1), 1, False),)),
                         ((2,), ((INF, 1, True), ((1, 1), 2, False)))):
        A = sp.planted_pencil(F, rng, kron=kron, blocks=blocks)[0]
        B, _ = _plant(F, rng, A)
        out = _solve(monkeypatch, A, B)
        assert out is not None
        S, g = out
        assert verify_ip2s(A, B, S, g)


def test_inequivalent_pairs_give_none(monkeypatch):
    F = make_field(7)
    # irreducible place against a split pair of rational places
    A = Pencil.make(F, la.identity(F, 2), ((1, 3), (3, 6)))
    B = Pencil.make(F, la.identity(F, 2), ((0, 0), (0, 6)))
    assert candidate_pool(F, canonicalize(A), canonicalize(B)) == ()
    assert _solve(monkeypatch, A, B) is None
    # same places, mismatched character: (I_2, 0) vs (diag(1, a), 0) for
    # a non-square a.  Every twist of (I_2, 0) is (u I_2, v I_2), and
    # det(u I_2) is a square
    rng = random.Random(71)
    nsq = next(x for x in F.elements()
               if x != F.zero and not F.is_square(x))
    C = Pencil.make(F, la.identity(F, 2), la.zeros(F, 2, 2))
    D = Pencil.make(F, _diag(F, (1, nsq)), la.zeros(F, 2, 2))
    assert _solve(monkeypatch, C, D) is None
    # in odd dimension the same flip is a non-square scalar: twisting
    # (I_3, 0) by a I gives (a I_3, 0), of determinant a^3, which is
    # congruent to (diag(1, 1, a), 0)
    C = Pencil.make(F, la.identity(F, 3), la.zeros(F, 3, 3))
    D = Pencil.make(F, _diag(F, (1, 1, nsq)), la.zeros(F, 3, 3))
    out = _solve(monkeypatch, C, D)
    assert out is not None and verify_ip2s(C, D, *out)
    (a, b), (d, e) = out[1].m
    assert b == d == F.zero and a == e and not F.is_square(a)
    # kronecker mismatch
    E = sp.planted_pencil(F, rng, kron=(0, 0, 0),
                          blocks=(((3, 1), 1, False),))[0]
    G = sp.planted_pencil(F, rng, kron=(1,), blocks=(((3, 1), 1, False),))[0]
    assert _solve(monkeypatch, E, G) is None


def test_nonsquare_scalar_twists_are_solved(monkeypatch):
    # B a random congruence of twist(A, a I) = a A for the non-square a:
    # the pool holds PGL_2 representatives only, so the pair is solved by
    # a non-square multiple of a candidate
    for q in (3, 5, 7, 11):
        F = make_field(q)
        scalar = Homography.make(
            F, la.mat_scale(F, field_nonsquare(F), la.identity(F, 2)))
        for s in range(40):
            rng = random.Random(s)
            A = sp.rand_regular_pencil(F, rng, 3)
            B = apply_congruence(twist(A, scalar),
                                 sp.rand_invertible(F, rng, 3))
            out = _solve(monkeypatch, A, B)
            assert out is not None
            assert verify_ip2s(A, B, *out)


def test_fully_singular_pair_uses_identity_homography(monkeypatch):
    rng = random.Random(73)
    F = make_field(5)
    A = sp.planted_pencil(F, rng, kron=(0, 1))[0]
    B, _ = _plant(F, rng, A)
    out = _solve(monkeypatch, A, B)
    assert out is not None
    S, g = out
    assert g.m == Homography.identity(F).m
    assert verify_ip2s(A, B, S, g)
    # ip2s_solve answers from the canonical forms alone; asked anyway, the
    # pool is every homography, since none moves a place of B off A's
    pool = candidate_pool(F, canonicalize(A), canonicalize(B))
    assert ([_homography_key(F, h) for h in pool]
            == sorted(_homography_key(F, h) for h in all_homographies(F)))


@pytest.mark.parametrize("p,n,orbits", [(3, 1, 2), (3, 2, 7), (5, 1, 2),
                                        (7, 1, 2)])
def test_ip2s_finds_every_class_up_to_twist(p, n, orbits):
    """One pencil per GL_n class over F_p^n, each solved against the first
    member of every GL_n x GL_2 class found so far: every witness
    verifies, and the classes come out exactly as many as Burnside's
    lemma counts, so no equivalent pair was answered None."""
    assert pencil_pair_orbit_count(p, n) == orbits
    firsts = []
    for P in congruence_class_representatives(p, n).values():
        for Q in firsts:
            out = ip2s_solve(P, Q)
            if out is not None:
                assert verify_ip2s(P, Q, *out)
                break
        else:
            firsts.append(P)
    assert len(firsts) == orbits


def test_large_field_split_torus_pinning(monkeypatch):
    q = 10007
    F = make_field(q)
    rng = random.Random(79)
    A = Pencil.make(F, la.identity(F, 2), _diag(F, (3, 17)))
    B, g0 = _plant(F, rng, A)
    pool = candidate_pool(F, canonicalize(A), canonicalize(B))
    assert _homography_key(F, g0) in {_homography_key(F, g) for g in pool}
    out = _solve(monkeypatch, A, B)
    assert out is not None
    assert verify_ip2s(A, B, *out)


def test_large_field_nonsplit_torus_pinning(monkeypatch):
    q = 10007
    F = make_field(q)
    rng = random.Random(83)
    c = next(c for c in F.elements()
             if not F.is_square(F.add(F.mul(c, c), F.scalar(4))))
    A = Pencil.make(F, la.identity(F, 2), ((0, 1), (1, c)))
    assert list(factor_signature(A)) == [(2, ((1, 1),))]
    B, g0 = _plant(F, rng, A)
    pool = candidate_pool(F, canonicalize(A), canonicalize(B))
    assert _homography_key(F, g0) in {_homography_key(F, g) for g in pool}
    out = _solve(monkeypatch, A, B)
    assert out is not None
    assert verify_ip2s(A, B, *out)


def test_large_field_mixed_point_and_quadratic_pinning(monkeypatch):
    q = 10007
    F = make_field(q)
    rng = random.Random(89)
    c = next(c for c in F.elements()
             if not F.is_square(F.add(F.mul(c, c), F.scalar(4))))
    quad = Pencil.make(F, la.identity(F, 2), ((0, 1), (1, c)))
    lin = Pencil.make(F, la.identity(F, 1), ((5,),))
    A = Pencil.make(F, la.block_diag(F, (quad.b_inf, lin.b_inf)),
                    la.block_diag(F, (quad.b_0, lin.b_0)))
    B, g0 = _plant(F, rng, A)
    pool = candidate_pool(F, canonicalize(A), canonicalize(B))
    assert len(pool) <= 4
    assert _homography_key(F, g0) in {_homography_key(F, g) for g in pool}
    out = _solve(monkeypatch, A, B)
    assert out is not None
    assert verify_ip2s(A, B, *out)


def test_cubic_place_roots_take_no_equal_degree_split(monkeypatch):
    # a lone cubic place at q = 103 pins g by the roots of its target in
    # the residue field; they come from idempotents on int64 arrays, so
    # the only Cantor-Zassenhaus splits are those of canonicalize over F
    F = make_field(103)
    rng = random.Random(101)
    cub = ()
    while not pl.is_irreducible(F, cub):
        cub = tuple(F.rand(rng) for _ in range(3)) + (F.one,)
    A = sp.planted_pencil(F, rng, (), ((cub, 1, False),))[0]
    B = _plant(F, rng, A)[0]
    assert list(factor_signature(B)) == [(3, ((1, 1),))]
    split = pl._equal_degree
    residue_splits = []

    def counted(K, *args):
        if K is not F:
            residue_splits.append(K)
        return split(K, *args)
    monkeypatch.setattr(pl, "_equal_degree", counted)
    out = _solve(monkeypatch, A, B)
    assert out is not None
    assert verify_ip2s(A, B, *out)
    assert residue_splits == []


def test_large_field_starved_class_raises():
    F = make_field(10007)
    A = Pencil.make(F, la.identity(F, 2), la.zeros(F, 2, 2))
    with pytest.raises(ValueError):
        ip2s_solve(A, A)


def test_bruteforce_rejects_large_fields():
    F = make_field(10007)
    f = BinaryForm.from_affine(F, (1, 1), 1)
    with pytest.raises(ValueError):
        bruteforce_homographies(f, f)
