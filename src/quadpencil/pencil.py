"""Symmetric matrix pencils b_lambda = lambda*B_inf + B_0.

Defines the pencil/binary-form/homography value types, the congruence and
GL_2 actions, solution verification, and the JSON instance format.  A
homography is an exact invertible 2x2 matrix; only its normalized() form
forgets the scalar.  The point at infinity on the projective line is the
module-level sentinel INF.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import field as _field
from . import linalg as _la
from . import poly as _poly


class _Inf:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Inf()


def _check_symmetric(M):
    n = len(M)
    for row in M:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(i):
            if M[i][j] != M[j][i]:
                raise ValueError("matrix is not symmetric")


@dataclass(frozen=True)
class Pencil:
    ctx: object
    n: int
    b_inf: tuple
    b_0: tuple

    @staticmethod
    def make(ctx, b_inf, b_0):
        b_inf = tuple(tuple(r) for r in b_inf)
        b_0 = tuple(tuple(r) for r in b_0)
        _check_symmetric(b_inf)
        _check_symmetric(b_0)
        if len(b_inf) != len(b_0):
            raise ValueError("pencil matrices differ in size")
        return Pencil(ctx, len(b_inf), b_inf, b_0)


@dataclass(frozen=True)
class BinaryForm:
    ctx: object
    degree: int
    coeffs: tuple  # coeffs[i] multiplies lambda^i mu^(degree-i)

    @staticmethod
    def make(ctx, degree, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError("binary form needs degree+1 coefficients")
        return BinaryForm(ctx, degree, coeffs)

    @staticmethod
    def from_affine(ctx, f, degree):
        """Homogenize an affine polynomial in lambda to the given degree."""
        return BinaryForm.make(ctx, degree, _poly.poly_pad(ctx, f, degree + 1))

    def is_zero(self):
        F = self.ctx
        return all(c == F.zero for c in self.coeffs)

    def normalized(self):
        """Scale so the first nonzero coefficient in lambda-descending
        order is 1; the zero form is returned unchanged."""
        return BinaryForm(self.ctx, self.degree,
                          _lead_one(self.ctx, self.coeffs[::-1])[::-1])

    def compose(self, g):
        """Substitute (lambda:mu) -> g*(lambda:mu)."""
        F = self.ctx
        (a, b), (d, e) = g.m
        n = self.degree
        rows = [(F.one,)]   # powers of a*lambda + b*mu
        cols = [(F.one,)]   # powers of d*lambda + e*mu
        for _ in range(n):
            rows.append(_poly.poly_mul(F, rows[-1], (b, a)))
            cols.append(_poly.poly_mul(F, cols[-1], (e, d)))
        out = ()
        for i, c in enumerate(self.coeffs):
            out = _poly.poly_add(F, out, _poly.poly_scale(
                F, c, _poly.poly_mul(F, rows[i], cols[n - i])))
        return BinaryForm.from_affine(F, out, n)


def _lead_one(F, xs):
    """xs divided by its first nonzero entry, as a tuple; all zeros are
    returned unchanged."""
    for x in xs:
        if x != F.zero:
            inv = F.inv(x)
            return tuple(F.mul(inv, y) for y in xs)
    return tuple(xs)


@dataclass(frozen=True)
class Homography:
    """An element g = ((a, b), (d, e)) of GL_2, acting on (lambda:mu) by
    matrix multiplication.  The matrix is kept exactly: g and c*g are
    different values, and twist(P, c*g) is c*twist(P, g)."""
    ctx: object
    m: tuple  # ((a, b), (d, e)), row-major, determinant nonzero

    @staticmethod
    def make(ctx, m):
        (a, b), (d, e) = m
        if ctx.mul(a, e) == ctx.mul(b, d):
            raise ValueError("homography matrix is singular")
        return Homography(ctx, ((a, b), (d, e)))

    @staticmethod
    def identity(ctx):
        return Homography.make(ctx, _la.identity(ctx, 2))

    def normalized(self):
        """The PGL_2 representative: the scalar multiple whose first
        nonzero entry in row-major order is 1."""
        a, b, d, e = _lead_one(self.ctx, self.m[0] + self.m[1])
        return Homography(self.ctx, ((a, b), (d, e)))

    def inverse(self):
        """The exact matrix inverse."""
        F = self.ctx
        (a, b), (d, e) = self.m
        s = F.inv(F.sub(F.mul(a, e), F.mul(b, d)))
        return Homography(F, ((F.mul(s, e), F.neg(F.mul(s, b))),
                              (F.neg(F.mul(s, d)), F.mul(s, a))))

    def compose(self, other):
        """Matrix product self*other, so that twisting by the result equals
        twisting by self then by other."""
        return Homography(self.ctx, _la.mat_mul(self.ctx, self.m, other.m))


def polarize(F, Q):
    """Gram matrix Q + tQ of the polar form of the quadratic form with
    upper-triangular coefficient matrix Q; odd characteristic only."""
    if F.p == 2:
        raise ValueError("polarization is not bijective in characteristic 2")
    n = len(Q)
    for i in range(n):
        for j in range(i):
            if Q[i][j] != F.zero:
                raise ValueError("quadratic coefficient matrix must be "
                                 "upper triangular")
    return _la.mat_add(F, Q, _la.transpose(Q))


def quadratic_part(F, B):
    """Upper-triangular quadratic coefficient matrix with polarize(Q) = B."""
    if F.p == 2:
        raise ValueError("polarization is not bijective in characteristic 2")
    _check_symmetric(B)
    half = F.inv(F.scalar(2))
    n = len(B)
    return tuple(tuple(
        F.mul(half, B[i][i]) if i == j else (B[i][j] if j > i else F.zero)
        for j in range(n)) for i in range(n))


def char_poly(P):
    """det(lambda*B_inf + mu*B_0) as a BinaryForm of degree n, computed
    division-free over the polynomial ring (evaluation at points is
    unsound: over F_q the form can vanish at every rational point)."""
    F = P.ctx
    ring = _poly.PolyRing(F)
    M = tuple(tuple(_poly.poly_trim(F, (P.b_0[i][j], P.b_inf[i][j]))
                    for j in range(P.n)) for i in range(P.n))
    cp = _la.berkowitz(ring, M)
    detm = cp[0] if P.n % 2 == 0 else _poly.poly_neg(F, cp[0])
    return BinaryForm.from_affine(F, detm, P.n)


def twist(P, g):
    """Precompose the pencil with the homography g: the result evaluated
    at (lambda:mu) is P evaluated at g*(lambda:mu)."""
    F = P.ctx
    (a, b), (d, e) = g.m
    binf = _la.mat_add(F, _la.mat_scale(F, a, P.b_inf),
                       _la.mat_scale(F, d, P.b_0))
    b0 = _la.mat_add(F, _la.mat_scale(F, b, P.b_inf),
                     _la.mat_scale(F, e, P.b_0))
    return Pencil.make(F, binf, b0)


def congruent_pencil(P, C):
    """The pencil (tC B_inf C, tC B_0 C) for any n x k matrix C, without
    an invertibility check: the restriction of P to the columns of C, or
    a base change when C is invertible by construction."""
    F = P.ctx
    binf = _la.congruent(F, P.b_inf, C)
    return Pencil(F, len(binf), binf, _la.congruent(F, P.b_0, C))


def orthogonal_parts(P, C, sizes):
    """Restrictions of P to consecutive column blocks of C of the given
    sizes, read off one congruence by C; None unless that congruence is
    block diagonal, i.e. the blocks span subspaces orthogonal for both
    forms."""
    F = P.ctx
    Q = congruent_pencil(P, C)
    parts, off = [], 0
    for k in sizes:
        idx = range(off, off + k)
        parts.append(Pencil(F, k, _la.submatrix(Q.b_inf, idx, idx),
                            _la.submatrix(Q.b_0, idx, idx)))
        off += k
    if (_la.block_diag(F, [p.b_inf for p in parts]) != Q.b_inf
            or _la.block_diag(F, [p.b_0 for p in parts]) != Q.b_0):
        return None
    return parts


def apply_congruence(P, S):
    """Base change x -> S x on both Gram matrices."""
    if not _la.is_invertible(P.ctx, S):
        raise ValueError("congruence matrix is singular")
    return congruent_pencil(P, S)


def verify_ip1s(A, B, S):
    """True iff tS A_inf S = B_inf and tS A_0 S = B_0 exactly, with S
    invertible."""
    if A.ctx != B.ctx or A.n != B.n:
        raise ValueError("pencils live on different spaces")
    F = A.ctx
    return (_la.congruent(F, A.b_inf, S) == B.b_inf
            and _la.congruent(F, A.b_0, S) == B.b_0
            and _la.is_invertible(F, S))


def verify_ip2s(A, B, S, g):
    """True iff S is a congruence from twist(A, g) to B."""
    return verify_ip1s(twist(A, g), B, S)


def _parse_matrix(ctx, rows, n, name, wrong_shape=None):
    """n x n matrix of field elements from a JSON array of rows;
    wrong_shape, when given, replaces both shape messages."""
    if not isinstance(rows, list) or len(rows) != n:
        raise ValueError(wrong_shape or "%s must be an n-row matrix" % name)
    mat = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(wrong_shape
                             or "%s rows must have length n" % name)
        mat.append(tuple(_field.parse_elem(ctx, v) for v in row))
    return tuple(mat)


def emit_matrix(ctx, M):
    """JSON-ready rows of a matrix over ctx."""
    return [[_field.emit_elem(ctx, x) for x in row] for row in M]


def parse_pencil(doc):
    """Pencil from a JSON-style dict {"field", "n", "b_inf", "b_0"}."""
    if not isinstance(doc, dict):
        raise ValueError("instance must be an object")
    ctx = _field.parse_field(doc.get("field"))
    n = doc.get("n")
    if not _field.is_int(n) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    binf = _parse_matrix(ctx, doc.get("b_inf"), n, "b_inf")
    b0 = _parse_matrix(ctx, doc.get("b_0"), n, "b_0")
    return Pencil.make(ctx, binf, b0)


def emit_pencil(P):
    F = P.ctx
    return {
        "field": _field.emit_field(F),
        "n": P.n,
        "b_inf": emit_matrix(F, P.b_inf),
        "b_0": emit_matrix(F, P.b_0),
    }


def parse_solution(ctx, n, doc):
    """(S, gamma or None) from a JSON-style dict {"S", "gamma"?}."""
    if not isinstance(doc, dict):
        raise ValueError("solution must be an object")
    S = _parse_matrix(ctx, doc.get("S"), n, "S")
    g = None
    if doc.get("gamma") is not None:
        gm = _parse_matrix(ctx, doc["gamma"], 2, "gamma",
                           "gamma must be a 2x2 matrix")
        g = Homography.make(ctx, gm)
    return S, g


def emit_solution(ctx, S, g=None):
    doc = {"S": emit_matrix(ctx, S)}
    if g is not None:
        doc["gamma"] = emit_matrix(ctx, g.m)
    return doc
