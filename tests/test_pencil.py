"""Pencils, binary forms, homographies, and the instance JSON format."""

import random

import pytest

from quadpencil.field import make_field
from quadpencil import linalg as la
from quadpencil import sampling as sp
from quadpencil.ip2s import _image
from quadpencil.pencil import (Pencil, BinaryForm, Homography, INF,
                               char_poly, twist, apply_congruence,
                               orthogonal_parts, polarize, quadratic_part,
                               verify_ip1s, verify_ip2s, parse_pencil,
                               emit_pencil, parse_solution, emit_solution)

from oracles import form_at, mat_mul_by_loops, mobius, pencil_at


def test_pencil_make_checks():
    F = make_field(5)
    with pytest.raises(ValueError):
        Pencil.make(F, ((0, 1), (2, 0)), ((0, 0), (0, 0)))  # not symmetric
    with pytest.raises(ValueError):
        Pencil.make(F, ((0,),), ((0, 0), (0, 0)))
    # a JSON boolean is not a dimension
    doc = {"field": {"p": 3, "degree": True}, "n": True,
           "b_inf": [[1]], "b_0": [[0]]}
    with pytest.raises(ValueError):
        parse_pencil(doc)
    doc["field"]["degree"] = 1
    with pytest.raises(ValueError):
        parse_pencil(doc)


def test_char_poly_diagonal_oracle():
    # diag pencil: det(lambda I + mu diag(b)) = prod(lambda + b_i mu)
    F = make_field(7)
    P = Pencil.make(F, la.identity(F, 2), ((3, 0), (0, 5)))
    cp = char_poly(P)
    want = BinaryForm.make(F, 1, (3, 1))
    prod = [F.mul(3, 5), F.add(3, 5), F.one]   # (l+3m)(l+5m)
    assert cp.coeffs == tuple(prod)
    assert form_at(want, 1, 0) == F.one


def test_char_poly_matches_pointwise_det():
    F = make_field(11)
    rng = random.Random(40)
    for _ in range(25):
        n = rng.randrange(1, 5)
        P = sp.rand_pencil(F, rng, n)
        cp = char_poly(P)
        for lam in range(11):
            assert (form_at(cp, lam, F.one)
                    == la.det(F, pencil_at(P, lam, F.one)))
        assert form_at(cp, F.one, F.zero) == la.det(F, P.b_inf)


def test_char_poly_zero_for_singular():
    F = make_field(5)
    z = la.zeros(F, 3, 3)
    P = Pencil.make(F, z, z)
    assert char_poly(P).is_zero()


def test_twist_composition_and_charpoly():
    F = make_field(7)
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randrange(1, 5)
        P = sp.rand_pencil(F, rng, n)
        g = sp.rand_homography(F, rng)
        h = sp.rand_homography(F, rng)
        # compose is the exact matrix product, so twisting agrees exactly
        assert twist(twist(P, g), h) == twist(P, g.compose(h))
        # characteristic form transforms by composition
        a = char_poly(twist(P, g)).normalized()
        b = char_poly(P).compose(g).normalized()
        assert a == b


def _point_place(F, x):
    """The place of the rational point x: INF, or lambda - x."""
    return INF if x is INF else (F.neg(x), F.one)


def test_homography_point_action():
    # _image moves every rational point as the Moebius action does
    F = make_field(13)
    rng = random.Random(42)
    pts = list(F.elements()) + [INF]
    gid = Homography.identity(F)
    for _ in range(40):
        g = sp.rand_homography(F, rng)
        g = Homography.make(F, la.mat_scale(F, rng.randrange(1, 13), g.m))
        for x in pts:
            assert (_image(F, g.inverse(), _point_place(F, x))[0]
                    == _point_place(F, mobius(g, x)))
        assert g.compose(g.inverse()) == gid
        assert g.inverse().compose(g) == gid
    assert _image(F, gid, INF) == (INF, F.one)


def test_homography_normalization():
    F = make_field(7)
    g = Homography.make(F, ((2, 4), (0, 2)))
    assert g.m == ((2, 4), (0, 2))
    assert g.normalized().m == ((1, 2), (0, 1))
    with pytest.raises(ValueError):
        Homography.make(F, ((1, 2), (2, 4)))


def test_binary_form_compose_evaluates():
    F = make_field(7)
    rng = random.Random(43)
    for _ in range(30):
        deg = rng.randrange(1, 5)
        f = BinaryForm.make(F, deg, [F.rand(rng) for _ in range(deg + 1)])
        g = sp.rand_homography(F, rng)
        (a, b), (d, e) = g.m
        fg = f.compose(g)
        for _ in range(6):
            lam, mu = F.rand(rng), F.rand(rng)
            lhs = form_at(fg, lam, mu)
            rhs = form_at(f, F.add(F.mul(a, lam), F.mul(b, mu)),
                          F.add(F.mul(d, lam), F.mul(e, mu)))
            assert lhs == rhs


def test_polarize_roundtrip():
    F = make_field(7)
    rng = random.Random(44)
    for _ in range(25):
        n = rng.randrange(1, 5)
        B = sp.rand_symmetric(F, rng, n)
        Q = quadratic_part(F, B)
        assert polarize(F, Q) == B
        for i in range(n):
            for j in range(i):
                assert Q[i][j] == F.zero


def test_polarize_rejects_char2():
    F = make_field(2)
    with pytest.raises(ValueError):
        polarize(F, ((0,),))
    with pytest.raises(ValueError):
        quadratic_part(F, ((0,),))


def test_verify_ip1s_and_ip2s():
    F = make_field(9 // 3, 2, (1, 0, 1))
    rng = random.Random(45)
    for _ in range(20):
        n = rng.randrange(1, 5)
        A = sp.rand_pencil(F, rng, n)
        S = sp.rand_invertible(F, rng, n)
        B = apply_congruence(A, S)
        assert verify_ip1s(A, B, S)
        g = sp.rand_homography(F, rng)
        C = apply_congruence(twist(A, g), S)
        assert verify_ip2s(A, C, S, g)
        if n >= 1:
            S2 = sp.rand_invertible(F, rng, n)
            if S2 != S:
                assert not verify_ip1s(A, B, S2)
    # both equalities hold, but a singular S is no congruence
    F3 = make_field(3)
    A = Pencil.make(F3, ((1, 0), (0, 0)), la.zeros(F3, 2, 2))
    S = ((1, 0), (0, 0))
    assert la.congruent(F3, A.b_inf, S) == A.b_inf
    assert not verify_ip1s(A, A, S)
    assert not verify_ip2s(A, A, S, Homography.identity(F3))


@pytest.mark.parametrize("p,deg", [(7, 1), (3, 2)])
def test_orthogonal_parts_reads_off_the_diagonal_blocks(p, deg):
    """With P the pencil whose congruence by C is block diagonal,
    orthogonal_parts(P, C, sizes) returns the diagonal blocks, also when C
    keeps only the columns of the first two blocks; one entry coupling two
    blocks, in B_inf or in B_0, makes it return None."""
    F = make_field(p, deg)
    rng = random.Random(70 + p)
    for _ in range(10):
        sizes = [rng.randrange(1, 4) for _ in range(3)]
        n = sum(sizes)
        C = sp.rand_invertible(F, rng, n)
        Ci = la.inv(F, C)

        def pulled(Q):
            """The pencil whose congruence by C is Q, by loops."""
            return Pencil.make(F, *(mat_mul_by_loops(
                F, la.transpose(Ci), mat_mul_by_loops(F, M, Ci))
                for M in Q))

        blocks = [Pencil.make(F, sp.rand_symmetric(F, rng, k),
                              sp.rand_symmetric(F, rng, k)) for k in sizes]
        Q = [la.block_diag(F, [b.b_inf for b in blocks]),
             la.block_diag(F, [b.b_0 for b in blocks])]
        P = pulled(Q)
        assert orthogonal_parts(P, C, sizes) == blocks
        C2 = tuple(row[:sizes[0] + sizes[1]] for row in C)
        assert orthogonal_parts(P, C2, sizes[:2]) == blocks[:2]
        a, b = sorted(rng.sample(range(3), 2))
        i = sum(sizes[:a]) + rng.randrange(sizes[a])
        j = sum(sizes[:b]) + rng.randrange(sizes[b])
        x = F.zero
        while x == F.zero:
            x = F.rand(rng)
        form = rng.randrange(2)
        M = [list(row) for row in Q[form]]
        M[i][j] = M[j][i] = x
        Q[form] = M
        assert orthogonal_parts(pulled(Q), C, sizes) is None


def test_apply_congruence_rejects_singular():
    F = make_field(5)
    P = sp.rand_pencil(F, random.Random(46), 2)
    with pytest.raises(ValueError):
        apply_congruence(P, ((0, 0), (0, 0)))


def test_instance_json_roundtrip():
    for F in (make_field(7), make_field(3, 2, (1, 0, 1))):
        rng = random.Random(47)
        P = sp.rand_pencil(F, rng, 3)
        doc = emit_pencil(P)
        Q = parse_pencil(doc)
        assert Q.ctx == F and Q.b_inf == P.b_inf and Q.b_0 == P.b_0


def test_solution_json_roundtrip():
    F = make_field(7)
    rng = random.Random(48)
    S = sp.rand_invertible(F, rng, 3)
    g = sp.rand_homography(F, rng)
    S2, g2 = parse_solution(F, 3, emit_solution(F, S, g))
    assert S2 == S and g2.m == g.m
    S3, g3 = parse_solution(F, 3, emit_solution(F, S))
    assert S3 == S and g3 is None
    with pytest.raises(ValueError):
        parse_solution(F, 3, {"S": [[0, 0], [0, 0]]})


def test_parse_solution_keeps_gamma_exact():
    # gamma is an element of GL_2, not of PGL_2: 2I is not the identity
    F = make_field(5)
    S, g = parse_solution(F, 1, {"S": [[1]], "gamma": [[2, 0], [0, 2]]})
    assert S == ((1,),) and g.m == ((2, 0), (0, 2))
