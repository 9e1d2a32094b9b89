"""Reference oracles the tests compare the package against: square roots
and local-ring elements by enumeration, modular powers of polynomials by
square and multiply, the companion matrix, the dual-basis power sums
Tr(zeta^m / f'(zeta)) by the recurrence of f, pointwise evaluation of
forms and pencils, the Moebius action of a homography on a point, place
data read straight off the characteristic form, one level of the
Kronecker walk by one dense kernel, the stable kernel tower of B_inf by
its own fixpoint loop, the Kronecker staircase assembled and solved as
one dense system, the exhaustive PGL_2 sweep for
the homographies relating two binary forms, loop versions of the
extension-field product and the matrix product, the number of
congruence classes of pencils over F_p, alone and up to twist, by
Burnside's lemma, and one pencil per class found by canonicalize."""

import functools
import itertools

from quadpencil.field import make_field
from quadpencil import linalg as la
from quadpencil.localring import LocalRing
from quadpencil import poly as pl
from quadpencil.ip2s import (SWEEP_BUDGET, _signature_of_descriptor,
                             _candidate_pool)
from quadpencil.pencil import INF, Homography, Pencil, char_poly
from quadpencil.regular import canonicalize, descriptor_key, place_key


def poly_from_ints(F, coeffs):
    return pl.poly_trim(F, [F.scalar(c) for c in coeffs])


def roots_by_scan(F):
    """Dict from each square x of F to the first r in elements() order
    with r^2 = x; a non-square is missing."""
    roots = {}
    for r in F.elements():
        roots.setdefault(F.mul(r, r), r)
    return roots


def ring_elements(R):
    """Every element of the local ring R = K[pi]/(pi^ell)."""
    return itertools.product(list(R.K.elements()), repeat=R.ell)


def ring_rand(R, rng):
    """A random element of the local ring R."""
    return tuple(R.K.rand(rng) for _ in range(R.ell))


def schoolbook_mul(F, a, b):
    """Product in an absolute extension F = F_p[x]/f by convolution and
    long division over the integers mod p, without F's own arithmetic."""
    p, k, f = F.p, F.deg, F.modulus
    t = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            t[i + j] = (t[i + j] + x * y) % p
    for i in range(2 * k - 2, k - 1, -1):
        c, t[i] = t[i], 0
        for j in range(k):
            t[i - k + j] = (t[i - k + j] - c * f[j]) % p
    return tuple(t[:k])


def _mod_by_division(p, a, f):
    """a mod f over F_p on int lists, by long division."""
    lead_inv = pow(f[-1], p - 2, p)
    k = len(f) - 1
    a = list(a)
    for i in range(len(a) - 1, k - 1, -1):
        c = a[i] * lead_inv % p
        for j in range(k + 1):
            a[i - k + j] = (a[i - k + j] - c * f[j]) % p
    a = a[:k]
    while a and not a[-1]:
        a.pop()
    return a


def _mul_mod_by_loops(p, a, b, f):
    """a b mod f over F_p, by the double loop and long division."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _mod_by_division(p, out, f)


def pow_mod_by_squaring(p, g, e, f):
    """g^e mod f over F_p by square and multiply, each product by the
    double loop and each remainder by long division, on int lists,
    without the package's polynomial arithmetic."""
    r, b = [1], _mod_by_division(p, g, f)
    while e:
        if e & 1:
            r = _mul_mod_by_loops(p, r, b, f)
        b = _mul_mod_by_loops(p, b, b, f)
        e >>= 1
    return tuple(r)


def irreducible_by_berlekamp(p, f):
    """True when the monic int polynomial f of degree k >= 1 is
    irreducible over F_p, by a route apart from the distinct-degree
    loop: f divides x^(p^k) - x, which is squarefree, so f is squarefree;
    and the Frobenius-fixed elements of F_p[x]/f, the kernel of Q - I for
    Berlekamp's matrix Q (row i: x^(i p) mod f), form one dimension per
    distinct irreducible factor."""
    k = len(f) - 1
    if k == 1:
        return True
    xp = list(pow_mod_by_squaring(p, (0, 1), p, f))
    Q = [[1]]
    for _ in range(k - 1):
        Q.append(_mul_mod_by_loops(p, Q[-1], xp, f))
    Q = [row + [0] * (k - len(row)) for row in Q]
    x = [0, 1] + [0] * (k - 2)
    h = x
    for _ in range(k):
        h = [sum(h[i] * Q[i][j] for i in range(k)) % p for j in range(k)]
    fixed = k - _rank_mod_p([[Q[i][j] - (i == j) for j in range(k)]
                             for i in range(k)], p)
    return h == x and fixed == 1


def mat_mul_by_loops(F, A, B):
    """Matrix product by the triple loop, one field operation at a time."""
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        out_row = []
        for j in range(cols):
            acc = F.zero
            for i, x in enumerate(row):
                acc = F.add(acc, F.mul(x, B[i][j]))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def as_generic(F, A):
    """The field F as the local ring F[pi]/(pi), whose matrices take the
    generic element-loop path of linalg, and the matrix A over it."""
    R = LocalRing(F, 1)
    return R, tuple(tuple((x,) for x in row) for row in A)


def from_generic(A):
    """Undo as_generic on a matrix."""
    return tuple(tuple(x for (x,) in row) for row in A)


def companion_matrix(F, f):
    """Matrix of multiplication by x on k[x]/f in basis 1, x, ..., x^(d-1)."""
    if not f or f[-1] != F.one:
        raise ValueError("companion matrix needs a monic polynomial")
    d = pl.poly_deg(f)
    if d < 1:
        raise ValueError("degree must be at least 1")
    rows = [[F.zero] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = F.one
    for i in range(d):
        rows[i][d - 1] = F.neg(f[i])
    return tuple(tuple(r) for r in rows)


def trace_power_sums(F, f, count):
    """h_m = Tr(zeta^m / f'(zeta)) for m = 0..count-1, via the dual-basis
    seed h_0 = ... = h_{d-2} = 0, h_{d-1} = 1 and the recurrence of f."""
    d = pl.poly_deg(f)
    h = [F.zero] * (d - 1) + [F.one]
    for m in range(d, count):
        acc = F.zero
        for i in range(d):
            acc = F.add(acc, F.mul(f[i], h[m - d + i]))
        h.append(F.neg(acc))
    return h[:count]


def form_at(f, lam, mu):
    """The binary form f evaluated at the point (lam:mu)."""
    F = f.ctx
    acc = F.zero
    for i, c in enumerate(f.coeffs):
        term = F.mul(F.pow(lam, i), F.pow(mu, f.degree - i))
        acc = F.add(acc, F.mul(c, term))
    return acc


def pencil_at(P, lam, mu):
    """Gram matrix lam*B_inf + mu*B_0."""
    F = P.ctx
    return la.mat_add(F, la.mat_scale(F, lam, P.b_inf),
                      la.mat_scale(F, mu, P.b_0))


def _mat_pow(F, M, e):
    """M^e by the package's square and multiply over mat_mul."""
    return pl.power(lambda A, B: la.mat_mul(F, A, B), M, e,
                    la.identity(F, len(M)))


def factor_signature(P):
    """Places of the characteristic form bucketed by degree and layer
    ranks, by factoring the form directly and reading each place's
    ranks off kernel dimensions; the pencil must be regular.

    Take a rational point (alpha:beta) off the places, INF first, so
    that M = alpha B_inf + beta B_0 is invertible, and c = -M^{-1} N with
    N = B_0 when the point is INF and N = B_inf otherwise.  With B_inf
    invertible this is c = -B_inf^{-1} B_0, and with B_0 invertible the
    same with the two forms swapped.  A place given as the binary form
    f(lambda, mu) = sum f_i lambda^i mu^(d - i) becomes the matrix
    g = f(alpha c + gamma, beta c + delta), (gamma:delta) being the point
    that N stands for, and dim ker g^k = d * sum_ell min(ell, k) r_ell."""
    F = P.ctx
    cp = char_poly(P)
    if cp.is_zero():
        raise ValueError("characteristic form is zero; strip the "
                         "singular part first")
    coeffs = cp.coeffs
    top = max(i for i, c in enumerate(coeffs) if c != F.zero)
    places = []
    if cp.degree - top:
        places.append((INF, (F.one, F.zero), cp.degree - top))
    affine = pl.poly_trim(F, coeffs[:top + 1])
    if pl.poly_deg(affine) > 0:
        places += [(f, f, e) for f, e in pl.poly_factor(F, affine)]
    for alpha, beta in [(F.one, F.zero)] + [(t, F.one) for t in F.elements()]:
        minv = la.inv(F, pencil_at(P, alpha, beta))
        if minv is not None:
            break
    else:
        raise ValueError("every rational point is a place")
    gamma, delta = (F.zero, F.one) if beta == F.zero else (F.one, F.zero)
    c = la.mat_neg(F, la.mat_mul(F, minv, pencil_at(P, gamma, delta)))
    eye = la.identity(F, P.n)
    lam = la.mat_add(F, la.mat_scale(F, alpha, c), la.mat_scale(F, gamma, eye))
    mu = la.mat_add(F, la.mat_scale(F, beta, c), la.mat_scale(F, delta, eye))
    out = {}
    for place, form, e in places:
        d = len(form) - 1
        g = la.zeros(F, P.n, P.n)
        for i, fi in enumerate(form):
            term = la.mat_mul(F, _mat_pow(F, lam, i), _mat_pow(F, mu, d - i))
            g = la.mat_add(F, g, la.mat_scale(F, fi, term))
        kdim = [P.n - la.rank(F, _mat_pow(F, g, k)) for k in range(e + 2)]
        # layers of order exactly ell: second difference of kdim
        blocks = [(2 * kdim[ell] - kdim[ell - 1] - kdim[ell + 1]) // d
                  for ell in range(1, e + 1)]
        ranks = tuple((ell, r) for ell, r in enumerate(blocks, 1) if r)
        if sum(ell * r for ell, r in ranks) != e:
            raise AssertionError("layer ranks do not add up to the exponent")
        out.setdefault((d, ranks), []).append(place)
    return {de: tuple(sorted(ps, key=lambda p: place_key(F, p)))
            for de, ps in out.items()}


def walk_level(P, img):
    """B_inf^-1 of the column span of img in the canonical basis of
    linalg.span_basis: the kernel of [B_inf | -img], cut to its first n
    coordinates."""
    F, n = P.ctx, P.n
    A = la.hstack(P.b_inf, la.mat_neg(F, img))
    return la.span_basis(F, [v[:n] for v in la.nullspace(F, A)])


def stable_inf_tower(P):
    """The stable kernel tower of B_inf by a loop of its own: W_0 =
    Ker B_inf and W_(j+1) = B_inf^-1(B_0 W_j) until the dimension stops
    growing, each level in the canonical basis of linalg.span_basis
    (W_0 in that of linalg.nullspace), and () when B_inf is
    invertible."""
    F, n = P.ctx, P.n
    w = la.nullspace(F, P.b_inf, ncols=n)
    while w:
        nw = walk_level(P, la.mat_mul(F, P.b_0, la.transpose(w)))
        grew = len(nw) != len(w)
        w = nw
        if not grew:
            break
    return w


def dense_staircase(F, L, D, rhs):
    """The system L z_j + D z_(j+1) = rhs[j], j < s = len(rhs), assembled
    as one dense s m x (s + 1) m matrix and solved by linalg.solve: the
    rows z_0 .. z_s, or None."""
    m, s = len(D), len(rhs)
    big, b = [], []
    for j in range(s):
        blocks = [L if t == j else D if t == j + 1 else la.zeros(F, m, m)
                  for t in range(s + 1)]
        big.extend(tuple(x for blk in blocks for x in blk[r])
                   for r in range(m))
        b.extend(rhs[j])
    z = la.solve(F, tuple(big), tuple(b))
    return None if z is None else tuple(z[t * m:(t + 1) * m]
                                        for t in range(s + 1))


def mobius(g, x):
    """The Moebius action x -> (a x + b)/(d x + e) of g on a point of
    P^1(F), INF included."""
    F = g.ctx
    (a, b), (d, e) = g.m
    if x is INF:
        num, den = a, d
    else:
        num, den = F.add(F.mul(a, x), b), F.add(F.mul(d, x), e)
    return INF if den == F.zero else F.div(num, den)


def all_homographies(F):
    """All of PGL_2(F_q), each matrix normalized, in a fixed order."""
    one, zero = F.one, F.zero
    for b in F.elements():
        for d in F.elements():
            bd = F.mul(b, d)
            for e in F.elements():
                if e != bd:
                    yield Homography(F, ((one, b), (d, e)))
    for d in F.elements():
        if d == zero:
            continue
        for e in F.elements():
            yield Homography(F, ((zero, one), (d, e)))


def bruteforce_homographies(f, g):
    """Every homography with f(gamma (lambda:mu)) proportional to g, by
    exhaustive sweep of PGL_2."""
    F = f.ctx
    if F.q ** 3 - F.q > SWEEP_BUDGET:
        raise ValueError("field too large for an exhaustive sweep")
    fn = f.normalized()
    gn = g.normalized()
    return [gamma for gamma in all_homographies(F)
            if fn.compose(gamma).normalized() == gn]


def regular_part(desc):
    """The regular part of a canonical pencil, which sits after the
    Kronecker blocks."""
    P = desc.canonical
    idx = range(sum(2 * h + 1 for h in desc.kronecker_indices), P.n)
    return Pencil.make(
        P.ctx, tuple(tuple(P.b_inf[i][j] for j in idx) for i in idx),
        tuple(tuple(P.b_0[i][j] for j in idx) for i in idx))


def regular_form(desc):
    """Characteristic form of the regular part of a canonical pencil."""
    return char_poly(regular_part(desc))


def candidate_pool(F, da, db):
    """The ip2s candidate pool for canonical descriptors da of A and db
    of B: homographies carrying the places of B onto those of A."""
    return _candidate_pool(F, _signature_of_descriptor(F, db),
                           _signature_of_descriptor(F, da))


def symmetric_matrices(p, n):
    """Every symmetric n x n matrix over F_p, as tuples of int rows."""
    coords = [(i, j) for i in range(n) for j in range(i, n)]
    for values in itertools.product(range(p), repeat=len(coords)):
        M = [[0] * n for _ in range(n)]
        for (i, j), x in zip(coords, values):
            M[i][j] = M[j][i] = x
        yield tuple(map(tuple, M))


def _rank_mod_p(rows, p):
    """Rank of an int matrix over F_p, by elimination on lists."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _general_linear(p, n):
    """Every invertible n x n matrix over F_p, as a list of int rows."""
    for values in itertools.product(range(p), repeat=n * n):
        S = [values[i * n:(i + 1) * n] for i in range(n)]
        if _rank_mod_p(S, p) == n:
            yield S


def _congruence_matrix(S, coords):
    """M_S, the matrix of B -> tS B S on the coordinates B[i][j], i <= j,
    of a symmetric B: row (i, j), column (a, b) holds entry (i, j) of
    tS B S for the basis form B with B[a][b] = B[b][a] = 1."""
    return [[S[a][i] * S[b][j] + (S[b][i] * S[a][j] if a != b else 0)
             for a, b in coords] for i, j in coords]


def _fixed_dim(M, p):
    """Dimension of the subspace of F_p^k fixed by the k x k matrix M."""
    return len(M) - _rank_mod_p([[x - (i == j) for j, x in enumerate(row)]
                                 for i, row in enumerate(M)], p)


def pencil_orbit_count(p, n):
    """Number of orbits of GL_n(F_p) acting by congruence on pencils of
    symmetric n x n matrices, by Burnside's lemma: the mean over S of
    p^(2 dim Fix S), Fix S being the subspace of Sym_n fixed by
    B -> tS B S.  On the N = n(n+1)/2 coordinates B[i][j], i <= j,
    that map is the matrix M_S.  No orbit is enumerated and no package
    code runs."""
    coords = [(i, j) for i in range(n) for j in range(i, n)]
    group = list(_general_linear(p, n))
    return sum(p ** (2 * _fixed_dim(_congruence_matrix(S, coords), p))
               for S in group) // len(group)


def pencil_pair_orbit_count(p, n):
    """Number of orbits of GL_n(F_p) x GL_2(F_p) on pencils of symmetric
    n x n matrices, congruence by S and twist by h = ((a, b), (d, e)),
    by Burnside's lemma.  Twist is linear in the two forms, so (S, h)
    acts on the 2N coordinates of (B_inf, B_0) by the block matrix
    [[a M_S, d M_S], [b M_S, e M_S]].  No orbit is enumerated and no
    package code runs."""
    coords = [(i, j) for i in range(n) for j in range(i, n)]
    gl_n, gl_2 = list(_general_linear(p, n)), list(_general_linear(p, 2))
    total = 0
    for S in gl_n:
        M = _congruence_matrix(S, coords)
        for (a, b), (d, e) in gl_2:
            Mg = ([[a * x for x in row] + [d * x for x in row] for row in M]
                  + [[b * x for x in row] + [e * x for x in row]
                     for row in M])
            total += p ** _fixed_dim(Mg, p)
    return total // (len(gl_n) * len(gl_2))


@functools.cache
def congruence_class_representatives(p, n):
    """The first pencil over F_p^n, in the order of symmetric_matrices,
    of each descriptor that canonicalize returns, keyed by descriptor:
    one pencil per GL_n class.  Cached, so that the tests that count the
    classes and the one that solves ip2s between them share one pass."""
    F = make_field(p)
    reps = {}
    for b_inf in symmetric_matrices(p, n):
        for b_0 in symmetric_matrices(p, n):
            P = Pencil.make(F, b_inf, b_0)
            reps.setdefault(descriptor_key(canonicalize(P)), P)
    return reps
