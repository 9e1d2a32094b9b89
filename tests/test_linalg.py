"""Exact linear algebra over field contexts."""

import random

import numpy as np
import pytest

from quadpencil.field import FiniteField, make_field
from quadpencil import linalg as la
from quadpencil import sampling as sp
from quadpencil.localring import LocalRing
from quadpencil.pencil import INF, apply_congruence
from quadpencil.poly import canonical_modulus, is_irreducible
from quadpencil.regular import canonicalize, ip1s_solve

from oracles import (as_generic, from_generic, mat_mul_by_loops,
                     ring_rand)


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
            assert la.mat_mul(F, M, la.transpose((v,))) == la.zeros(F, r, 1)
        assert la.rank(F, ns) == len(ns) if ns else True


@pytest.mark.parametrize("p,deg", [(7, 1), (101, 1), (3, 2)])
def test_kernel_basis_is_the_nullspace_basis(p, deg):
    """kernel_basis of any spanning family of a matrix's kernel, with
    dependent and zero rows among it, is the basis nullspace returns."""
    F = make_field(p, deg)
    rng = random.Random(23 + p)
    for _ in range(40):
        r, c = rng.randrange(1, 6), rng.randrange(1, 8)
        # low rank, so that kernels are large and free columns vary
        M = la.mat_mul(F, _rand_mat(F, rng, r, 2), _rand_mat(F, rng, 2, c))
        ns = la.nullspace(F, M)
        mix = la.mat_mul(F, _rand_mat(F, rng, len(ns) + 2, len(ns)), ns)
        assert la.kernel_basis(F, ns) == ns
        assert la.kernel_basis(F, mix + ((F.zero,) * c,)) == ns


def test_solve_property():
    F = make_field(11)
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(1, 5)
        A = _rand_inv(F, rng, n)
        b = tuple(F.rand(rng) for _ in range(n))
        x = la.solve(F, A, b)
        assert la.mat_mul(F, A, la.transpose((x,))) == la.transpose((b,))


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
        want, power = la.zeros(F, n, n), la.identity(F, n)
        for c in f:
            want = la.mat_add(F, want, la.mat_scale(F, c, power))
            power = mat_mul_by_loops(F, power, M)
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


def _greedy_by_rank(F, base, candidates):
    """Candidates kept exactly when they raise the rank of base and the
    kept ones, the rank taken on the generic elimination path."""
    kept = ()
    for c in candidates:
        R, A = as_generic(F, base + kept + (c,))
        if la.rank(R, A) > len(base) + len(kept):
            kept += (c,)
    return kept


def _combination(F, rng, vectors, n):
    """A random linear combination of vectors of length n."""
    out = (F.zero,) * n
    for v in vectors:
        c = F.rand(rng)
        out = tuple(F.add(x, F.mul(c, y)) for x, y in zip(out, v))
    return out


def test_greedy_extend_completes_basis():
    """greedy_extend keeps exactly the candidates that raise the rank, in
    order, and completes a basis; among the candidates are zero vectors,
    repeats, combinations of the base and several vectors of one plane.
    A dependent base raises ValueError."""
    fields = [make_field(7), make_field(101), make_field(3, 2),
              make_field(5, 2), _array_and_tower_fields()[-1]]
    for F in fields:
        rng = random.Random(27)
        for _ in range(20):
            n = rng.randrange(2, 6)
            k = rng.randrange(0, n)
            M = _rand_inv(F, rng, n)
            base = M[:k]
            cands = [(F.zero,) * n, _combination(F, rng, base, n)]
            for _ in range(rng.randrange(0, 4)):
                cands.append(_combination(F, rng, M[k:k + 2], n))
                cands.append(rng.choice(cands))
            cands = tuple(cands) + la.identity(F, n)
            ext = la.greedy_extend(F, base, cands)
            assert ext == _greedy_by_rank(F, base, cands)
            assert la.rank(F, base + ext) == n
            assert la.greedy_extend(F, base, ()) == ()
            for dep in ((F.zero,) * n, _combination(F, rng, base, n)):
                with pytest.raises(ValueError):
                    la.greedy_extend(F, base + (dep,), cands)


def _residue_field(p, d):
    """F_p[x]/f for a random monic irreducible f of degree d, built with
    `extension` as `canonicalize` builds the residue fields of places."""
    F, rng = FiniteField(p), random.Random(d)
    while True:
        f = tuple(rng.randrange(p) for _ in range(d)) + (1,)
        if is_irreducible(F, f):
            return F.extension(f)


def _array_and_tower_fields():
    """Prime fields up to the largest prime the fields accept, absolute
    extensions and residue fields of degree 13 and 30 over F_101, which
    take the element-array kernels, and a tower over GF(9), which takes
    the generic path."""
    out = [make_field(p, k) for p, k in
           ((2, 1), (3, 1), (101, 1), (65521, 1), (2, 2), (2, 3), (3, 2),
            (5, 2), (3, 3), (5, 3))]
    out += [_residue_field(101, 13), _residue_field(101, 30)]
    F9 = make_field(3, 2)
    return out + [F9.extension(canonical_modulus(F9, 2))]


def _by_mulmats(F, a, b):
    """The products a_i b_i, each as the row a_i times the multiplication
    matrix the array kernels build for b_i, reduced mod p."""
    A, B = (np.array(x, dtype=np.int64) for x in (a, b))
    M = la._mulmats(F, B)
    return [tuple(x) for x in (np.einsum("na,anj->nj", A, M) % F.p).tolist()]


@pytest.mark.parametrize("p,deg", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_multiplication_matrices_of_small_fields(p, deg):
    """a @ M_b reduced is F.mul(a, b) for every pair, in characteristic 2
    and odd characteristic."""
    F = make_field(p, deg)
    elems = list(F.elements())
    pairs = [(a, b) for a in elems for b in elems]
    got = _by_mulmats(F, *zip(*pairs))
    assert got == [F.mul(a, b) for a, b in pairs]


@pytest.mark.parametrize("p,deg", [(101, 7), (101, 24), (101, 48),
                                   (65521, 8)])
def test_multiplication_matrices_of_large_fields(p, deg):
    """a @ M_b reduced is F.mul(a, b) on random pairs in residue fields of
    F_101 of the degrees canon-f101 reaches and in GF(65521^8), and
    every entry of M_b lies in [0, p)."""
    F = _residue_field(p, deg) if p == 101 else make_field(p, deg)
    rng = random.Random(45)
    a = [F.rand(rng) for _ in range(60)] + [F.one, F.zero, (p - 1,) * deg]
    b = [F.rand(rng) for _ in range(60)] + [(p - 1,) * deg, F.one, F.zero]
    assert _by_mulmats(F, a, b) == [F.mul(x, y) for x, y in zip(a, b)]
    M = la._mulmats(F, np.array(b, dtype=np.int64))
    assert M.min() >= 0 and M.max() < p


def _test_matrices(F, rng):
    """Random, rank-deficient, zero, 1 x n and n x 1 matrices."""
    for _ in range(6):
        yield _rand_mat(F, rng, rng.randrange(1, 6), rng.randrange(1, 6))
    for _ in range(4):
        r, c = rng.randrange(2, 6), rng.randrange(2, 6)
        s = rng.randrange(1, min(r, c))
        yield mat_mul_by_loops(F, _rand_mat(F, rng, r, s),
                               _rand_mat(F, rng, s, c))
    yield la.zeros(F, 3, 4)
    n = rng.randrange(2, 6)
    yield _rand_mat(F, rng, 1, n)
    yield _rand_mat(F, rng, n, 1)


@pytest.mark.parametrize("F", _array_and_tower_fields(), ids=repr)
def test_products_match_the_triple_loop(F):
    rng = random.Random(40)
    for A in _test_matrices(F, rng):
        for c in range(4):
            B = _rand_mat(F, rng, len(A[0]), c)
            assert la.mat_mul(F, A, B) == mat_mul_by_loops(F, A, B)
        col = tuple((F.rand(rng),) for _ in range(len(A[0])))
        assert la.mat_mul(F, A, col) == mat_mul_by_loops(F, A, col)
        row = (tuple(F.rand(rng) for _ in range(len(A))),)
        assert la.mat_mul(F, row, A) == mat_mul_by_loops(F, row, A)
    assert la.mat_mul(F, (), la.identity(F, 2)) == ()
    assert la.mat_mul(F, (), ()) == ()


@pytest.mark.parametrize("F", _array_and_tower_fields(), ids=repr)
def test_elimination_matches_the_generic_path(F):
    """rref, nullspace, inv, mat_solve and charpoly against the generic
    element loop (F as the local ring F[pi]/(pi)) and their defining
    identities."""
    rng = random.Random(41)
    for A in _test_matrices(F, rng):
        r, c = len(A), len(A[0])
        G, AG = as_generic(F, A)
        R, pivots = la.rref(F, A)
        RG, pivots_g = la.rref(G, AG)
        assert (R, pivots) == (from_generic(RG), pivots_g)
        ns = la.nullspace(F, A)
        assert ns == from_generic(la.nullspace(G, AG))
        assert len(ns) == c - len(pivots)
        for v in ns:
            assert mat_mul_by_loops(F, A, tuple((x,) for x in v)) == (
                la.zeros(F, r, 1))
        B = _rand_mat(F, rng, r, 2)
        X = la.mat_solve(F, A, B)
        XG = la.mat_solve(G, AG, as_generic(F, B)[1])
        assert X == (None if XG is None else from_generic(XG))
        if X is not None:
            assert mat_mul_by_loops(F, A, X) == B
        X0 = _rand_mat(F, rng, c, 2)
        X = la.mat_solve(F, A, mat_mul_by_loops(F, A, X0))
        assert mat_mul_by_loops(F, A, X) == mat_mul_by_loops(F, A, X0)
        if r == c:
            Ainv = la.inv(F, A)
            if len(pivots) < r:
                assert Ainv is None
            else:
                assert mat_mul_by_loops(F, A, Ainv) == la.identity(F, r)
            cp = la.charpoly(F, A)
            assert cp == tuple(x for (x,) in la.charpoly(G, AG))
            acc = la.zeros(F, r, r)
            for coeff in reversed(cp):
                acc = la.mat_add(F, mat_mul_by_loops(F, acc, A),
                                 la.mat_scale(F, coeff, la.identity(F, r)))
            assert acc == la.zeros(F, r, r)
    assert la.rref(F, ()) == ((), ())
    assert la.nullspace(F, (), ncols=2) == la.identity(F, 2)
    assert la.inv(F, ()) == ()
    assert la.charpoly(F, ()) == (F.one,)


def _entries(F, M):
    """Every integer of a matrix or vector family: its elements over F_p,
    their coefficients over GF(p^k)."""
    for row in M:
        for x in row:
            yield from ((x,) if F.prime else x)


def _edge_matrices(F, rng, big):
    """Random, rank-deficient, all-(p - 1), tall and wide matrices of up
    to big x 2 big, and a wide one whose rows all pivot before its last
    column, so that elimination stops early."""
    top = F.p - 1 if F.prime else (F.p - 1,) * F.deg
    yield _rand_mat(F, rng, big, 2 * big)
    yield _rand_mat(F, rng, 2 * big, big)
    yield _rand_mat(F, rng, big, big)
    s = big // 3
    yield mat_mul_by_loops(F, _rand_mat(F, rng, big, s),
                           _rand_mat(F, rng, s, big + 1))
    yield tuple((top,) * big for _ in range(big))
    yield tuple((top,) * (big + 3) for _ in range(big // 2))
    yield tuple(a + b for a, b in zip(_rand_inv(F, rng, big),
                                      _rand_mat(F, rng, big, 3)))


@pytest.mark.parametrize("p,deg,big", [(65521, 1, 40), (65521, 2, 20),
                                       (65521, 8, 10)])
def test_elimination_at_the_overflow_edge(p, deg, big):
    """With the largest prime the fields accept, the rref kernel, which
    reduces mod p only the pivot column and row at each step, agrees with
    the generic element loop on rref and its pivots, nullspace, inv and
    mat_solve, and returns every entry in [0, p)."""
    F = make_field(p, deg)
    rng = random.Random(43)
    for A in _edge_matrices(F, rng, big):
        r, c = len(A), len(A[0])
        G, AG = as_generic(F, A)
        got = [la.rref(F, A), la.nullspace(F, A)]
        want = [la.rref(G, AG), la.nullspace(G, AG)]
        B = _rand_mat(F, rng, r, 2)
        got.append(la.mat_solve(F, A, B))
        want.append(la.mat_solve(G, AG, as_generic(F, B)[1]))
        if r == c:
            got.append(la.inv(F, A))
            want.append(la.inv(G, AG))
        R, pivots = got[0]
        assert pivots == want[0][1]
        assert R == from_generic(want[0][0])
        for X, XG in zip(got[1:], want[1:]):
            assert X == (None if XG is None else from_generic(XG))
        for X in [R] + got[1:]:
            assert all(0 <= x < p for x in _entries(F, X or ()))


@pytest.mark.parametrize("p,deg,big", [(65521, 1, 40), (65521, 2, 20),
                                       (65521, 8, 10)])
def test_products_at_the_overflow_edge(p, deg, big):
    """With the largest prime the fields accept, every product kernel
    (mat_mul, with one-column and one-row products, congruent,
    mat_poly_eval, krylov and charpoly) agrees with products by
    loops or the generic Berkowitz on random and all-(p - 1) matrices,
    and returns every entry in [0, p)."""
    F = make_field(p, deg)
    rng = random.Random(46)
    top = F.p - 1 if F.prime else (F.p - 1,) * F.deg
    f = tuple(F.rand(rng) for _ in range(3)) + (top,)
    for M in (_rand_mat(F, rng, big, big), ((top,) * big,) * big):
        mats, want_mats, vecs, want_vecs = [], [], [], []
        for A in (_rand_mat(F, rng, big, 2 * big), ((top,) * 2 * big,) * big):
            for B in (_rand_mat(F, rng, 2 * big, 3), ((top,) * 3,) * 2 * big):
                mats.append(la.mat_mul(F, A, B))
                want_mats.append(mat_mul_by_loops(F, A, B))
                col = tuple(row[:1] for row in B)
                mats.append(la.mat_mul(F, A, col))
                want_mats.append(mat_mul_by_loops(F, A, col))
                mats.append(la.mat_mul(F, A[:1], B))
                want_mats.append(mat_mul_by_loops(F, A[:1], B))
            mats.append(la.congruent(F, M, A))
            want_mats.append(mat_mul_by_loops(F, la.transpose(A),
                                              mat_mul_by_loops(F, M, A)))
        mats.append(la.mat_poly_eval(F, f, M))
        want_mats.append(_horner_by_loops(F, f, M))
        mats.append(la.krylov(F, M)(big - 1, (f, (top,) * big)))
        want_mats.append(tuple(la.transpose(_horner_by_loops(F, h, M))[-1]
                               for h in (f, (top,) * big)))
        vecs.append(la.charpoly(F, M))
        want_vecs.append(la.berkowitz(F, M))
        assert mats == want_mats
        assert vecs == want_vecs
        for X in mats + [(v,) for v in vecs]:
            assert all(0 <= x < p for x in _entries(F, X))


def _elem(F, rng):
    return ring_rand(F, rng) if isinstance(F, LocalRing) else F.rand(rng)


def _rand_over(F, rng, r, c):
    return tuple(tuple(_elem(F, rng) for _ in range(c)) for _ in range(r))


def _horner_by_loops(F, f, M):
    """f(M) by Horner's rule, one field operation at a time."""
    n = len(M)
    acc = la.zeros(F, n, n)
    for c in reversed(f):
        acc = mat_mul_by_loops(F, acc, M)
        acc = tuple(row[:i] + (F.add(row[i], c),) + row[i + 1:]
                    for i, row in enumerate(acc))
    return acc


def _ring_fields():
    """F_3, F_101, GF(9) and GF(25), which take the element arrays, a
    tower over GF(9) and the local ring GF(9)[pi]/(pi^2), which take the
    generic path."""
    F9 = make_field(3, 2)
    return [make_field(3), make_field(101), F9, make_field(5, 2),
            F9.extension(canonical_modulus(F9, 2)), LocalRing(F9, 2)]


@pytest.mark.parametrize("F", _ring_fields(), ids=repr)
def test_matrix_polynomials_and_congruence_match_loops(F):
    """mat_poly_eval on the zero polynomial, a constant and non-monic
    polynomials of degree 1 to 5, krylov on every start with those
    of degree below n, and congruent for n x 1, n x n, 1 x 1 and empty S,
    against loops."""
    rng = random.Random(44)
    for n in range(6):
        M = _rand_over(F, rng, n, n)
        polys = [(), (_elem(F, rng),)]
        for d in range(1, 6):
            lead = _elem(F, rng)
            while lead in (F.zero, F.one):
                lead = _elem(F, rng)
            polys.append(tuple(_elem(F, rng) for _ in range(d)) + (lead,))
        images = []
        for f in polys:
            fM = _horner_by_loops(F, f, M)
            assert la.mat_poly_eval(F, f, M) == fM
            images.append(la.transpose(fM))
        low = [i for i, f in enumerate(polys) if len(f) <= n]
        at = la.krylov(F, M)
        for t in range(n):
            assert at(t, [polys[i] for i in low]) == (
                tuple(images[i][t] for i in low))
        for k in sorted({0, 1, n}):
            S = _rand_over(F, rng, n, k)
            want = mat_mul_by_loops(F, la.transpose(S),
                                    mat_mul_by_loops(F, M, S))
            assert la.congruent(F, M, S) == want


def test_extension_fields_never_take_the_element_loop(monkeypatch):
    """While ip1s_solve runs over F_7 and GF(9) and canonicalize over
    F_101 and GF(25), no prime field or absolute extension reaches the
    generic vec_dot (products, charpoly) or picks a pivot with
    is_unit (rref and everything built on it), so none falls back
    silently from the element arrays."""
    calls = []

    def counting(name, fn):
        def wrapper(F, *args):
            if isinstance(F, FiniteField) and (
                    F.prime or F.base.prime and F.deg >= 2):
                calls.append((name, F))
            return fn(F, *args)
        return wrapper

    monkeypatch.setattr(la, "vec_dot", counting("vec_dot", la.vec_dot))
    monkeypatch.setattr(FiniteField, "is_unit",
                        counting("is_unit", FiniteField.is_unit))
    rng = random.Random(42)
    F9 = make_field(3, 2)
    one, zeta = F9.one, (0, 1)
    blocks = ((INF, 1, False), ((one, one), 2, True), ((zeta, one), 1, True),
              (canonical_modulus(F9, 2), 1, False))
    A, _ = sp.planted_pencil(F9, rng, (1,), blocks)
    B = apply_congruence(A, sp.rand_invertible(F9, rng, A.n))
    assert ip1s_solve(A, B) is not None
    F25 = make_field(5, 2)
    canonicalize(sp.rand_regular_pencil(F25, rng, 8))
    F7 = make_field(7)
    blocks = ((INF, 1, False), ((3, 1), 2, True),
              (canonical_modulus(F7, 2), 1, False))
    A, _ = sp.planted_pencil(F7, rng, (1,), blocks)
    B = apply_congruence(A, sp.rand_invertible(F7, rng, A.n))
    assert ip1s_solve(A, B) is not None
    canonicalize(sp.rand_regular_pencil(make_field(101), rng, 8))
    assert calls == []
