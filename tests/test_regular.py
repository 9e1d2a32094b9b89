"""Canonical forms of regular pencils: local blocks, characters, the
one-secret solver, and unit diagonalization over local rings."""

import random

import pytest

from quadpencil.field import make_field, field_nonsquare
from quadpencil import linalg as la
from quadpencil import poly
from quadpencil import regular
from quadpencil import sampling as sp
from quadpencil.localring import LocalRing, ring_sqrt
from quadpencil.pencil import (INF, Pencil, apply_congruence, char_poly,
                               verify_ip1s)
from quadpencil.regular import (canonicalize, canonical_local_block,
                                descriptor_key, diagonalize_unit,
                                ip1s_solve, emit_descriptor)

from oracles import (companion_matrix, congruence_class_representatives,
                     mat_mul_by_loops, pencil_orbit_count, ring_rand,
                     trace_power_sums)


def test_linear_place_block_oracle():
    # place x - c, ell = 1, unit 1: the 1x1 pencil (lambda - c)
    F = make_field(7)
    blk = canonical_local_block(F, (4, 1), 1, False)   # f = x + 4 = x - 3
    assert blk.b_inf == ((1,),)
    assert blk.b_0 == ((4,),)


def test_canonicalize_tests_each_modulus_once(monkeypatch):
    rng = random.Random(9)
    blocks = ((INF, 1, False), ((2, 1), 2, True), ((1, 0, 1), 1, False),
              ((3, 1), 1, False))
    planted = [sp.planted_pencil(make_field(11), rng, (1,), blocks)[0]
               for _ in range(3)]
    # the same pencils over a fresh field, which has built no extension
    F = make_field(11)
    pencils = [Pencil.make(F, P.b_inf, P.b_0) for P in planted]
    seen = []
    real = poly.is_irreducible

    def counted(ctx, f):
        seen.append((id(ctx), tuple(f)))
        return real(ctx, f)

    monkeypatch.setattr(poly, "is_irreducible", counted)
    for P in pencils:
        canonicalize(P)
    # the rational places and INF take F itself as their residue field,
    # so only the quadratic place builds, and tests, an extension
    assert seen == [(id(F), (1, 0, 1))]
    assert all(len(mod) > 2 for mod in F._extensions)


def test_canonicalize_diagonalizes_each_layer_once(monkeypatch):
    rng = random.Random(19)
    F = make_field(5)
    pencils = [
        sp.planted_pencil(F, rng, (0,), ((INF, 2, True), ((2, 0, 1), 1, False),
                                         ((2, 0, 1), 1, True),
                                         ((2, 0, 1), 2, False),
                                         ((1, 1), 1, False)))[0],
        sp.planted_pencil(make_field(3, 2, (1, 0, 1)), rng, (),
                          ((INF, 1, False), (((0, 1), (1, 0)), 3, True),
                           (((0, 1), (1, 0)), 1, False)))[0],
        sp.rand_pencil(F, rng, 6),
    ]
    calls = []
    real = regular.diagonalize_unit

    def counted(R, A):
        calls.append(R)
        return real(R, A)

    monkeypatch.setattr(regular, "diagonalize_unit", counted)
    layers = 0
    for P in pencils:
        desc = canonicalize(P)
        layers += len({(b.place, b.ell) for b in desc.local_blocks})
    assert layers >= 7
    assert len(calls) == layers


def _irreducibles(F, rng, d, count):
    """count random monic irreducibles of degree d over F."""
    found = []
    while len(found) < count:
        f = tuple(F.rand(rng) for _ in range(d)) + (F.one,)
        if poly.is_irreducible(F, f):
            found.append(f)
    return found


def _trace(F, A):
    acc = F.zero
    for i in range(len(A)):
        acc = F.add(acc, A[i][i])
    return acc


def test_block_matches_hankel_times_companion():
    # an ell = 1 finite block is T_u (lambda I - M_f) with M_f the
    # companion matrix and T_u[i][j] = Tr(u zeta^(i+j) / f'(zeta)) =
    # sum_e u_e h_(i+j+e), h the dual-trace powers, for u = 1 and for u
    # the canonical non-square Delta, a general element of K
    rng = random.Random(86)
    for F in (make_field(7), make_field(101), make_field(3, 2)):
        for d in range(1, 6):
            for f in _irreducibles(F, rng, d, 2):
                K = F.extension(f)
                h = trace_power_sums(F, f, 3 * d - 1)
                M = companion_matrix(F, f)
                for delta in (False, True):
                    u = field_nonsquare(K) if delta else K.one
                    tv = []
                    for m in range(2 * d - 1):
                        acc = F.zero
                        for e in range(d):
                            acc = F.add(acc, F.mul(u[e], h[m + e]))
                        tv.append(acc)
                    T = tuple(tuple(tv[i + j] for j in range(d))
                              for i in range(d))
                    blk = canonical_local_block(F, f, 1, delta)
                    assert blk.b_inf == T
                    assert blk.b_0 == la.mat_neg(F, la.mat_mul(F, T, M))
                    assert la.is_invertible(F, blk.b_inf)


def test_euler_dual_basis_matches_companion_traces():
    # with Tr(zeta^m) the trace of the m-th power of the companion matrix:
    # the Hankel matrix hank[t][j] = f_(t+j+1) of descend_bilinear takes
    # the traces Tr(zeta^(a+t)), a < d, to the coordinates of f'(zeta)
    # zeta^t, and Tr(w / f'(zeta)) is the coefficient of zeta^(d-1) of w
    rng = random.Random(17)
    for F in (make_field(3), make_field(5), make_field(7), make_field(101),
              make_field(3, 2), make_field(5, 2)):
        for d in (1, 2, 3, 4):
            for f in _irreducibles(F, rng, d, 3):
                K = F.extension(f)
                M = companion_matrix(F, f)
                cur, traces = la.identity(F, d), []
                for _ in range(2 * d - 1):
                    traces.append(_trace(F, cur))
                    cur = la.mat_mul(F, cur, M)
                hank = tuple(tuple(f[t + j + 1] if t + j < d else F.zero
                                   for j in range(d)) for t in range(d))
                got = la.mat_mul(F, hank, tuple(
                    tuple(traces[a + t] for t in range(d)) for a in range(d)))
                fpz = poly.poly_pad(F, poly.poly_deriv(F, f), d)
                zeta = poly.poly_pad(F, poly.poly_mod(F, (F.zero, F.one), f),
                                     d)
                w = fpz
                for t in range(d):
                    assert tuple(row[t] for row in got) == w
                    w = K.mul(w, zeta)
                for _ in range(3):
                    w = K.rand(rng)
                    y = K.div(w, fpz)
                    assert _trace(F, la.mat_poly_eval(F, y, M)) == w[d - 1]


def test_infinite_block_oracle():
    F = make_field(5)
    blk = canonical_local_block(F, INF, 2, False)
    assert blk.b_inf == ((4, 0), (0, 0))
    assert blk.b_0 == ((0, 1), (1, 0))
    # characteristic form is mu^ell up to scalar
    cp = char_poly(blk)
    assert cp.coeffs == (4, 0, 0)
    # in general -u on the anti-diagonal j + j' = ell - 2 of the leading
    # form, u on j + j' = ell - 1 of the constant one
    for F in (make_field(3), make_field(7), make_field(101),
              make_field(3, 2), make_field(5, 2), make_field(3, 3)):
        for ell in range(1, 6):
            for delta in (False, True):
                u = field_nonsquare(F) if delta else F.one
                blk = canonical_local_block(F, INF, ell, delta)
                assert blk.b_inf == tuple(tuple(
                    F.neg(u) if j + jp == ell - 2 else F.zero
                    for jp in range(ell)) for j in range(ell))
                assert blk.b_0 == tuple(tuple(
                    u if j + jp == ell - 1 else F.zero
                    for jp in range(ell)) for j in range(ell))


def test_block_charpoly_is_place_power():
    F = make_field(7)
    from quadpencil.poly import poly_factor
    for f, ell in (((3, 1), 2), ((1, 0, 1), 2), ((1, 1, 0, 1), 1)):
        blk = canonical_local_block(F, f, ell, False)
        cp = char_poly(blk)
        top = cp.coeffs[-1]
        assert top != F.zero   # finite place: b_inf invertible
        affine = tuple(F.div(c, top) for c in cp.coeffs)
        fac = poly_factor(F, affine)
        assert fac == [(f, ell)]


def test_canonicalize_idempotent_and_invariant():
    fields = [make_field(3), make_field(5), make_field(7),
              make_field(3, 2, (1, 0, 1)), make_field(5, 2)]
    rng = random.Random(60)
    for F in fields:
        for _ in range(12):
            n = rng.randrange(1, 7)
            P = sp.rand_pencil(F, rng, n)
            d1 = canonicalize(P)
            S = sp.rand_invertible(F, rng, n)
            d2 = canonicalize(apply_congruence(P, S))
            assert descriptor_key(d1) == descriptor_key(d2)
            # canonical pencil canonicalizes to itself
            d3 = canonicalize(d1.canonical)
            assert descriptor_key(d3) == descriptor_key(d1)
            assert d3.canonical.b_inf == d1.canonical.b_inf
            assert d3.canonical.b_0 == d1.canonical.b_0


@pytest.mark.parametrize("p,n,orbits", [(3, 0, 1), (3, 1, 9), (3, 2, 55),
                                        (5, 1, 13), (7, 1, 17), (11, 1, 25)])
def test_canonicalize_counts_every_congruence_class(p, n, orbits):
    """Over every pencil on F_p^n, the distinct descriptors are exactly
    as many as the GL_n orbits that Burnside's lemma counts.  Equal
    descriptors already mean congruent pencils, since canonicalize checks
    that its transform carries P exactly onto the canonical pencil of
    the descriptor; so equal counts mean that congruent pencils never
    get different descriptors, and the descriptor is a complete
    invariant for these p and n."""
    assert pencil_orbit_count(p, n) == orbits
    assert len(congruence_class_representatives(p, n)) == orbits


@pytest.mark.parametrize("n", [0, 1, 2])
def test_ip1s_solves_every_pair_of_classes(n, monkeypatch):
    """ip1s_solve(P, S^t Q S), S seeded random, over every ordered pair
    (P, Q) of GL_n class representatives over F_3^n: a witness that
    verify_ip1s accepts when P is Q, and None otherwise.  Most pencils
    here are semisimple at every place.  Each pencil is canonicalized
    once; the comparison and the witness check run on every pair."""
    F = make_field(3)
    rng = random.Random(67 + n)
    reps = list(congruence_class_representatives(3, n).values())
    seen = {}
    real = regular.canonicalize
    monkeypatch.setattr(regular, "canonicalize", lambda P: seen.get(P)
                        or seen.setdefault(P, real(P)))
    for Q in reps:
        Qs = apply_congruence(Q, sp.rand_invertible(F, rng, n))
        for P in reps:
            S = ip1s_solve(P, Qs)
            if P is Q:
                assert S is not None and verify_ip1s(P, Qs, S)
            else:
                assert S is None


def _fprime_at_root(F, f):
    """f'(zeta) in K = F[x]/f, zeta the class of x, for deg f >= 2."""
    K = F.extension(f)
    zeta = (F.zero, F.one) + (F.zero,) * (len(f) - 3)
    return K, poly.poly_eval(K, tuple(K.lift(c)
                                      for c in poly.poly_deriv(F, f)), zeta)


def test_planted_blocks_recovered():
    f7, f3, f5 = make_field(7), make_field(3), make_field(5)
    f9 = make_field(3, 2, (1, 0, 1))
    rng = random.Random(61)
    f2 = (2, 2, 1)                       # factor of x^4 + 4
    # places whose f'(zeta) is a non-square of their residue field K, so
    # that a layer with an odd number of generators takes its character
    # from the twisted trace form, whose Gram is f'(zeta) times the plain
    # trace's; the norm of f'(zeta) is -disc(f), a non-square for cubics
    # over F_3 and for quadratics over F_5 and GF(9)
    c1, c2 = (1, 2, 0, 1), (2, 2, 0, 1)  # x^3 + 2x + 1, x^3 + 2x + 2
    q1, q2 = (2, 0, 1), (1, 1, 1)        # x^2 + 2, x^2 + x + 1
    g1 = (f9.neg(field_nonsquare(f9)), f9.zero, f9.one)
    for F, f in ((f3, c1), (f3, c2), (f5, q1), (f5, q2), (f9, g1)):
        K, fpz = _fprime_at_root(F, f)
        assert poly.is_irreducible(F, f) and not K.is_square(fpz)
    cases = [
        (f7, [], [((3, 1), 1, False), ((3, 1), 1, False)]),
        (f7, [], [((3, 1), 2, True)]),
        (f7, [0], [(f2, 1, False), (f2, 2, False)]),
        (f7, [1], [(INF, 3, False)]),
        (f7, [], [(INF, 1, True), ((1, 1), 1, False), (f2, 1, True)]),
        (f3, [], [(c1, 1, False)]),
        (f3, [], [(c1, 1, True)]),
        (f3, [0], [(c1, 1, False), (c1, 1, False), (c1, 1, True),
                   (c2, 2, False)]),
        (f3, [], [(c2, 2, True), (c1, 1, False), (INF, 1, True)]),
        (f5, [], [(q1, 1, False), (q1, 1, False), (q1, 1, False)]),
        (f5, [], [(q1, 1, False), (q1, 1, True), (q1, 1, False),
                  (q2, 2, True)]),
        (f5, [1], [(q2, 3, False), ((2, 1), 1, True)]),
        (f9, [], [(g1, 1, False)]),
        (f9, [], [(g1, 1, True), (g1, 2, False), (g1, 2, False),
                  (g1, 2, True)]),
    ]
    for F, kron, blocks in cases:
        P, _ = sp.planted_pencil(F, rng, kron=kron, blocks=blocks)
        desc = canonicalize(P)
        assert desc.kronecker_indices == tuple(sorted(kron))
        def pkey(place):
            return (0,) if place is INF else (1,) + tuple(place)

        got = sorted((pkey(b.place), b.ell, b.mult, b.character)
                     for b in desc.local_blocks)
        want = {}
        for f, ell, delta in blocks:
            key = (pkey(f), ell, "D" if delta else "1")
            want[key] = want.get(key, 0) + 1
        want = sorted((k[0], k[1], m, k[2]) for k, m in want.items())
        assert got == want


def _primary_by_nullspace(P):
    """(factor, nullspace of f(c)^m) for each factor f^m of the
    characteristic polynomial of c, one n x n kernel per place."""
    F = P.ctx
    c = regular.char_endomorphism(P)
    out = []
    for f, m in poly.poly_factor(F, la.charpoly(F, c)):
        fm = poly.power(lambda a, b: poly.poly_mul(F, a, b), f, m, None)
        out.append((f, la.nullspace(F, la.mat_poly_eval(F, fm, c),
                                    ncols=P.n)))
    return out


def test_primary_split_bases_are_the_kernels(monkeypatch):
    """primary_split reads each component off Krylov rows, and returns
    the basis nullspace(f(c)^m) does, on cyclic c (random pencils) and
    on pencils where c is not cyclic, or e_0 misses some components, so
    that further starts are needed.  The c it returns on a component is
    char_endomorphism of the restricted pencil, exactly."""
    F, F9 = make_field(101), make_field(3, 2)
    rng = random.Random(62)
    pencils = [(sp.rand_regular_pencil(F, rng, n), False)
               for n in (8, 13, 21, 32)]
    pencils += [(sp.rand_regular_pencil(F9, rng, n), False) for n in (4, 9)]
    # block diagonal: e_0 lies inside the first component
    pencils.append((regular.assemble_blocks(F, (), (
        ((3, 1), 2, False), ((99, 0, 1), 1, True), ((7, 1), 1, False),
        ((3, 1), 1, True))), True))
    B = sp.rand_regular_pencil(F, rng, 6).b_inf
    pencils += [
        # two equal ell = 1 layers at one place
        (sp.planted_pencil(F, rng, (), (((4, 1), 1, False),) * 2
                           + (((9, 1), 1, True),))[0], True),
        # ell = 2 plus ell = 1 at one place, over F_101 and GF(9)
        (sp.planted_pencil(F, rng, (), (((4, 1), 2, True),
                                        ((4, 1), 1, False)))[0], True),
        (sp.planted_pencil(F9, rng, (), (((F9.one, F9.one), 2, False),
                                         ((F9.one, F9.one), 1, True)))[0],
         True),
        # a scalar pencil, B_0 = 5 B_inf: every start spans one dimension
        (Pencil.make(F, B, la.mat_scale(F, 5, B)), True),
    ]
    starts = []
    real = la.krylov

    def counted(F, M):
        images = real(F, M)

        def at(t, polys):
            starts.append(t)
            return images(t, polys)

        return at

    monkeypatch.setattr(la, "krylov", counted)
    for P, more in pencils:
        starts.clear()
        got = regular.primary_split(P)
        assert [(f, b) for f, b, _, _ in got] == _primary_by_nullspace(P)
        for _, _, c, block in got:
            assert c == regular.char_endomorphism(block)
        if more:
            assert max(starts) > 0


@pytest.mark.parametrize("n", [16, 32, 64])
def test_primary_split_pivots_are_linear_in_n(n, monkeypatch):
    """With n distinct rational places, primary_split makes at most 3n
    rref pivots (n invert B_inf, one finds each component), where one
    kernel of f(c) per place made n^2."""
    F = make_field(101)
    rng = random.Random(63 + n)
    places = rng.sample(range(F.p), n)
    P, _ = sp.planted_pencil(F, rng, (), tuple(
        ((c, 1), 1, rng.random() < 0.5) for c in places))
    pivots = []
    real = la._rref_array

    def counted(F, M):
        R, piv = real(F, M)
        pivots.append(len(piv))
        return R, piv

    monkeypatch.setattr(la, "_rref_array", counted)
    assert len(regular.primary_split(P)) == n
    assert sum(pivots) <= 3 * n


@pytest.mark.parametrize("F, n", [(make_field(101), 16),
                                  (make_field(101), 32),
                                  (make_field(3, 2), 8)], ids=str)
def test_front_end_eliminates_b_inf_once(F, n, monkeypatch):
    """On a regular pencil with B_inf invertible, kronecker_decompose and
    the infinite split make one elimination before primary_split, of
    [B_inf | I], and no congruence; c is then one product by the inverse
    that elimination left, so forming it adds no elimination.  The
    infinite split itself is not run: the tower of B_inf is empty."""
    rng = random.Random(67 + n)
    P = sp.rand_regular_pencil(F, rng, n)
    counts = {"_rref_array": 0, "congruent": 0}
    for name in counts:
        def counted(*args, name=name, real=getattr(la, name)):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(la, name, counted)
    at = {}

    def entry(*args, real=regular.primary_split):
        at["primary_split"] = dict(counts)
        return real(*args)

    def exit_(*args, real=regular.char_endomorphism):
        c = real(*args)
        at["char_endomorphism"] = dict(counts)
        return c

    monkeypatch.setattr(regular, "primary_split", entry)
    monkeypatch.setattr(regular, "char_endomorphism", exit_)
    canonicalize(P)
    assert at["primary_split"] == {"_rref_array": 1, "congruent": 0}
    assert at["char_endomorphism"] == at["primary_split"]


def test_per_place_stage_redoes_no_work(monkeypatch):
    """One canonicalize each of a random regular n = 32 pencil over
    F_101, a planted singular n = 32 pencil with h = 4 and 23 rational
    places, and a GF(9) n = 9 pencil with an INF place: c is built once
    per primary_split and once for INF (never again per place), the
    Tonelli-Shanks core runs once per diagonal entry, and hensel_root
    runs once per diagonal entry of a layer with ell > 1, so never when
    every layer has ell = 1."""
    from quadpencil import field, localring

    F, F9 = make_field(101), make_field(3, 2)
    rng = random.Random(66)
    a, b = (F9.one, F9.one), ((2, 0), F9.one)
    g = next(f for f in ((u, (0, 1), F9.one) for u in F9.elements())
             if poly.is_irreducible(F9, f))
    pencils = [
        sp.rand_regular_pencil(F, rng, 32),
        sp.planted_pencil(F, rng, (4,), tuple(
            ((c, 1), 1, rng.random() < 0.5)
            for c in rng.sample(range(F.p), 23)))[0],
        sp.planted_pencil(F9, rng, (), (
            (INF, 2, True), (a, 1, False), (a, 1, True), (b, 2, False),
            (b, 1, True), (g, 1, False)))[0],
    ]
    targets = ((regular, "char_endomorphism"), (regular, "primary_split"),
               (field, "field_sqrt_class"), (localring, "hensel_root"))
    counts = {}
    for module, name in targets:
        def counted(*args, name=name, real=getattr(module, name)):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    lifted = []
    for P in pencils:
        counts.update((name, 0) for _, name in targets)
        desc = canonicalize(P)
        blocks = desc.local_blocks
        inf = any(blk.place is INF for blk in blocks)
        assert counts["char_endomorphism"] == counts["primary_split"] + inf
        assert counts["field_sqrt_class"] == sum(blk.mult for blk in blocks)
        assert counts["hensel_root"] == sum(blk.mult for blk in blocks
                                            if blk.ell > 1)
        lifted.append(counts["hensel_root"])
    assert lifted[0] == lifted[1] == 0 < lifted[2]


def test_local_structure_orbit():
    # planted primary blocks at rational places and at places of degree
    # 2 and 3, with layers of order up to 3 and generators of mixed
    # orders: the stored orbit lists x^i pi^j g_s in (s, j, i) order, its
    # vectors with j < orders[s] are an F-basis of the block and the rest
    # vanish
    rng = random.Random(83)
    f3, f5, f7 = make_field(3), make_field(5), make_field(7)
    f9 = make_field(3, 2)
    cases = [
        (f7, (6, 1), [1]),
        (f7, (6, 1), [3, 1, 2, 1]),
        (f5, (2, 0, 1), [2, 1]),
        (f5, (2, 0, 1), [1, 1, 3]),
        (f3, (1, 2, 0, 1), [1]),
        (f3, (1, 2, 0, 1), [2, 1, 1]),
        # rational places over GF(9): K is F, whose elements are tuples
        (f9, ((1, 1), f9.one), [2, 1]),
        (f9, ((2, 1), f9.one), [3, 1, 1]),
    ]
    for F, f, ells in cases:
        P, _ = sp.planted_pencil(F, rng, blocks=tuple(
            (f, ell, rng.random() < 0.5) for ell in ells))
        st = regular.local_structure(P, f, regular.char_endomorphism(P))
        d = len(f) - 1
        assert st.K is regular.residue_field(F, f) and st.ell == max(ells)
        assert list(st.orders) == sorted(ells, reverse=True)
        want = []
        for g, order in zip(st.generators, st.orders):
            pg = g
            for j in range(st.ell):
                xpg = pg
                for i in range(d):
                    want.append((j < order, xpg))
                    xpg = la.transpose(la.mat_mul(
                        F, st.x, la.transpose((xpg,))))[0]
                pg = la.transpose(la.mat_mul(F, st.pi, la.transpose((pg,))))[0]
        assert la.transpose(st.orbit) == tuple(v for _, v in want)
        basis = [v for live, v in want if live]
        assert len(basis) == P.n and la.rank(F, basis) == P.n
        assert all(v == (F.zero,) * P.n for live, v in want if not live)


def test_rational_places_take_no_element_loop(monkeypatch):
    """A rational place's residue field is F itself, so a pencil whose
    places are all rational, with layers of several orders and both
    characters at one place and at INF, runs every matrix step over F on
    arrays: canonicalize makes no FiniteField.is_unit call (the pivot
    test of the generic elimination) and no vec_dot over a field, over
    F_101 and over GF(9), and returns the planted blocks."""
    from quadpencil.field import FiniteField
    from quadpencil.regular import LocalBlockDesc

    counts = {"is_unit": 0, "vec_dot": 0}
    real_unit, real_dot = FiniteField.is_unit, la.vec_dot

    def is_unit(self, a):
        counts["is_unit"] += 1
        return real_unit(self, a)

    def vec_dot(F, u, v):
        counts["vec_dot"] += isinstance(F, FiniteField)
        return real_dot(F, u, v)

    monkeypatch.setattr(FiniteField, "is_unit", is_unit)
    monkeypatch.setattr(la, "vec_dot", vec_dot)
    rng = random.Random(27)
    f9 = make_field(3, 2)
    for F, f in ((make_field(101), (96, 1)), (f9, ((1, 1), f9.one))):
        P, _ = sp.planted_pencil(F, rng, (), (
            (f, 2, True), (f, 2, False), (f, 3, False), (f, 1, True),
            (INF, 2, False), (INF, 1, True)))
        counts.update(is_unit=0, vec_dot=0)
        desc = canonicalize(P)
        assert counts == {"is_unit": 0, "vec_dot": 0}
        assert desc.kronecker_indices == ()
        assert desc.local_blocks == tuple(
            LocalBlockDesc(place, ell, 1, char) for place, ell, char in (
                (INF, 1, "D"), (INF, 2, "1"), (f, 1, "D"), (f, 2, "1"),
                (f, 2, "D"), (f, 3, "1")))


def test_local_structure_rejects_wrong_factors():
    # a block at the place x - 1 with layers of order 2 and 1: x - 2 has
    # the right degree but leaves pi invertible, and x^2 + 1 does not
    # divide the dimension
    F = make_field(7)
    P, _ = sp.planted_pencil(F, random.Random(89), blocks=(
        ((6, 1), 2, False), ((6, 1), 1, True)))
    c = regular.char_endomorphism(P)
    with pytest.raises(ValueError, match="nilpotent part fails to vanish"):
        regular.local_structure(P, (5, 1), c)
    with pytest.raises(ValueError, match="factor does not match"):
        regular.local_structure(P, (1, 0, 1), c)


def test_character_is_an_invariant():
    # diag(1) and diag(Delta) pencils with the same place split
    F = make_field(5)
    one = canonical_local_block(F, (3, 1), 1, False)
    dlt = canonical_local_block(F, (3, 1), 1, True)
    da, db = canonicalize(one), canonicalize(dlt)
    assert descriptor_key(da) != descriptor_key(db)
    assert ip1s_solve(one, dlt) is None


def test_ip1s_round_trip_mixed():
    fields = [make_field(3), make_field(7), make_field(3, 2, (1, 0, 1))]
    rng = random.Random(62)
    for F in fields:
        for _ in range(10):
            n = rng.randrange(1, 7)
            A = sp.rand_pencil(F, rng, n)
            S0 = sp.rand_invertible(F, rng, n)
            B = apply_congruence(A, S0)
            S = ip1s_solve(A, B)
            assert S is not None
            assert verify_ip1s(A, B, S)


def test_ip1s_negative_nonsquare_scaling():
    # scaling one place by a non-square flips its character
    F = make_field(7)
    d = field_nonsquare(F)
    A = canonical_local_block(F, (3, 1), 1, False)
    B = Pencil.make(F, la.mat_scale(F, d, A.b_inf),
                    la.mat_scale(F, d, A.b_0))
    assert ip1s_solve(A, B) is None


def test_canonicalize_rejects_char2():
    F = make_field(2)
    P = Pencil.make(F, ((0,),), ((0,),))
    with pytest.raises(ValueError):
        canonicalize(P)


def test_dimension_accounting():
    # sum of ell * mult * deg(place) over blocks equals the regular size
    F = make_field(5)
    rng = random.Random(63)
    for _ in range(20):
        n = rng.randrange(1, 7)
        P = sp.rand_pencil(F, rng, n)
        desc = canonicalize(P)
        kdim = sum(2 * h + 1 for h in desc.kronecker_indices)
        rdim = sum((1 if b.place is INF else len(b.place) - 1)
                   * b.ell * b.mult for b in desc.local_blocks)
        assert kdim + rdim == n
        # at most one Delta per (place, ell)
        seen = set()
        for b in desc.local_blocks:
            if b.character == "D":
                key = (b.place if b.place is INF else tuple(b.place), b.ell)
                assert key not in seen and b.mult == 1
                seen.add(key)


def test_diagonalize_unit_field_case():
    F = make_field(5)
    R = LocalRing(F, 1)
    rng = random.Random(64)
    delta = field_nonsquare(F)
    for _ in range(40):
        n = rng.randrange(1, 4)
        A = None
        while A is None or not la.is_invertible(F, A):
            A = sp.rand_symmetric(F, rng, n)
        Ar = tuple(tuple((x,) for x in row) for row in A)
        T, flag = diagonalize_unit(R, Ar)
        # flag matches the square class of the determinant
        assert (flag == "1") == F.is_square(la.det(F, A))


def test_diagonalize_unit_ring_case():
    F = make_field(3)
    R = LocalRing(F, 2)
    rng = random.Random(65)
    for _ in range(40):
        n = rng.randrange(1, 4)
        A = tuple(tuple(ring_rand(R, rng) for _ in range(n)) for _ in range(n))
        A = tuple(tuple(R.add(A[i][j], A[j][i]) if i != j else A[i][j]
                        for j in range(n)) for i in range(n))
        det = la.berkowitz(R, A)[0]
        det = det if n % 2 == 0 else R.neg(det)
        if not R.is_unit(det):
            continue
        T, flag = diagonalize_unit(R, A)
        assert (flag == "D") == ring_sqrt(R, det)[1]


def _congruence_by_loops(R, A, T):
    """T^t A T by the triple loop, one ring operation at a time."""
    return mat_mul_by_loops(R, la.transpose(T), mat_mul_by_loops(R, A, T))


def _ring_det(R, A):
    cp = la.berkowitz(R, A)[0]
    return cp if len(A) % 2 == 0 else R.neg(cp)


def _rand_ring_symmetric(R, rng, n, diagonal=None):
    """Random symmetric matrix over R with unit determinant; diagonal,
    when given, draws the diagonal entries."""
    while True:
        A = [[None] * n for _ in range(n)]
        for i in range(n):
            A[i][i] = diagonal() if diagonal else ring_rand(R, rng)
            for j in range(i + 1, n):
                A[i][j] = A[j][i] = ring_rand(R, rng)
        A = tuple(map(tuple, A))
        if R.is_unit(_ring_det(R, A)):
            return A


def _ring_diag(R, entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else R.zero for j in range(n))
                 for i in range(n))


@pytest.mark.parametrize("p,deg,ell", [(5, 1, 1), (5, 1, 2), (3, 2, 1),
                                       (3, 2, 2)])
def test_diagonalize_unit_rotations_and_pair_path(p, deg, ell, monkeypatch):
    """At r = 4..6 over R_1 and R_2: diagonal forms with 2..5 non-square
    entries, none last, so one rotation per pair and then the swap run;
    the same forms under a random congruence; and forms with no unit on
    the diagonal, which take the pair path.  T^t A T, by loops, is the
    display diag(1, ..., 1, u) with u = Delta exactly when the flag is
    "D", and the flag is the square class of det A."""
    K = make_field(p, deg)
    R = LocalRing(K, ell)
    delta = field_nonsquare(K)
    rng = random.Random(90 + p + ell)
    rotations = []
    real = regular._two_squares
    monkeypatch.setattr(regular, "_two_squares",
                        lambda K: rotations.append(K) or real(K))

    def unit(square):
        s = K.zero
        while s == K.zero:
            s = K.rand(rng)
        u0 = K.mul(s, s) if square else K.mul(delta, K.mul(s, s))
        return (u0,) + tuple(K.rand(rng) for _ in range(ell - 1))

    def check(A):
        T, flag = diagonalize_unit(R, A)
        r = len(A)
        last = R.from_field(delta) if flag == "D" else R.one
        assert _congruence_by_loops(R, A, T) == _ring_diag(
            R, [R.one] * (r - 1) + [last])
        assert (flag == "1") == K.is_square(_ring_det(R, A)[0])

    for k in range(2, 6):
        for r in range(max(4, k + 1), 7):
            nonsquares = rng.sample(range(r - 1), k)
            A = _ring_diag(R, [unit(i not in nonsquares) for i in range(r)])
            rotations.clear()
            check(A)
            assert len(rotations) == k // 2
            U = None
            while U is None or not R.is_unit(_ring_det(R, U)):
                U = tuple(tuple(ring_rand(R, rng) for _ in range(r))
                          for _ in range(r))
            check(_congruence_by_loops(R, A, U))
    for r in (4, 5, 6, 4, 5, 6):
        A = _rand_ring_symmetric(
            R, rng, r, lambda: (K.zero,) + ring_rand(R, rng)[1:])
        check(A)


@pytest.mark.parametrize("p,deg", [(5, 1), (3, 2)])
@pytest.mark.parametrize("orders", [(3, 3, 2, 2, 1), (3, 1, 1), (2, 2, 1)])
def test_split_free_layers_over_r3(p, deg, orders):
    """gram = U^t D U over R_3, with D block diagonal, pi^(3 - m) A_m on
    the generators of order m, and U unipotent, coupling each generator
    only to those of higher order.  The layers come out in order with
    the planted Grams A_m; by loops, the congruence of gram by the stacked
    layer columns is block diagonal, each block pi^(3 - m) times the lift
    of its layer Gram, and the columns form a basis."""
    K = make_field(p, deg)
    ell = 3
    R = LocalRing(K, ell)
    rng = random.Random(100 + p + len(orders))
    r = len(orders)

    def scaled(a, m):
        """pi^(ell - m) times the lift of the R_m element a."""
        return (K.zero,) * (ell - m) + tuple(a)

    def planted_diag(blocks):
        n = sum(len(A) for _, A in blocks)
        D = [[R.zero] * n for _ in range(n)]
        off = 0
        for m, A in blocks:
            for i, row in enumerate(A):
                for j, x in enumerate(row):
                    D[off + i][off + j] = scaled(x, m)
            off += len(A)
        return tuple(map(tuple, D))

    ms = sorted(set(orders), reverse=True)
    planted = [(m, _rand_ring_symmetric(LocalRing(K, m), rng,
                                        orders.count(m))) for m in ms]
    U = tuple(tuple(R.one if s == t else ring_rand(R, rng)
                    if orders[s] > orders[t] else R.zero
                    for t in range(r)) for s in range(r))
    gram = _congruence_by_loops(R, planted_diag(planted), U)
    layers = regular.split_free_layers(R, gram, orders)
    assert [(m, sub) for m, _, sub in layers] == planted
    W = la.transpose(tuple(c for _, cols, _ in layers for c in cols))
    assert _congruence_by_loops(R, gram, W) == planted_diag(
        [(m, sub) for m, _, sub in layers])
    assert la.is_invertible(K, tuple(tuple(x[0] for x in row)
                                     for row in W))


def test_descriptor_json():
    F = make_field(7)
    P, _ = sp.planted_pencil(F, random.Random(66), kron=[1],
                             blocks=[((3, 1), 1, True)])
    desc = canonicalize(P)
    doc = emit_descriptor(F, desc)
    assert doc["kronecker"] == [1]
    assert doc["blocks"] == [{"place": [3, 1], "ell": 1, "mult": 1,
                              "char": "D"}]
    assert len(doc["transform"]) == P.n
