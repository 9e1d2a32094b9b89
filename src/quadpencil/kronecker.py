"""Singular part of a pencil: minimal isotropic chains and the reduction
to the canonical Kronecker blocks K_h.

A chain e_0..e_h satisfies B_0 e_0 = 0, B_0 e_i + B_inf e_{i-1} = 0 and
B_inf e_h = 0.  Splitting one off realizes the 2h+1 dimensional Kronecker
module as an orthogonal direct factor; iterating strips the whole
singular part and leaves a regular pencil.  Each chain search eliminates
B_inf once, as [B_inf | I], and reads every level of its walk off that
one reduction; the last search leaves in the report the stable kernel
tower of B_inf on the regular part (its infinite place) and, when that
tower is empty, B_inf^{-1}.  The coupling of a chain's module to the
rest is cleared by a block-bidiagonal staircase solved one block column
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg as _la
from .pencil import (Pencil, apply_congruence, congruent_pencil,
                     orthogonal_parts)


@dataclass(frozen=True)
class IsotropicChain:
    h: int
    vectors: tuple  # e_0 .. e_h


@dataclass(frozen=True)
class KroneckerReport:
    indices: tuple        # minimal indices, ascending
    transform: tuple      # congruence to block-diag(K_h..., regular_part)
    regular_part: Pencil
    inf_tower: tuple      # stable kernel tower of B_inf on regular_part
    inf_inverse: tuple    # B_inf^-1 on regular_part when inf_tower is ()


def kh_matrix(F, h):
    """The canonical pencil K_h of dimension 2h+1, as (b_inf, b_0).

    Basis: e_0..e_h then f_0..f_{h-1}; the only nonzero pairings are
    b_inf(e_i, f_i) = 1 and b_0(e_i, f_{i-1}) = 1."""
    n = 2 * h + 1
    binf = [[F.zero] * n for _ in range(n)]
    b0 = [[F.zero] * n for _ in range(n)]
    for j in range(h):
        binf[j][h + 1 + j] = binf[h + 1 + j][j] = F.one
        b0[j + 1][h + 1 + j] = b0[h + 1 + j][j + 1] = F.one
    return Pencil.make(F, binf, b0)


def chain_ok(P, c):
    """All chain identities plus independence and isotropy."""
    F = P.ctx
    es = c.vectors
    if len(es) != c.h + 1:
        return False
    zero = (F.zero,) * P.n
    # both forms are symmetric, so row i of es B is B e_i
    b0e = _la.mat_mul(F, es, P.b_0)
    binfe = _la.mat_mul(F, es, P.b_inf)
    if b0e[0] != zero or binfe[-1] != zero:
        return False
    for i in range(1, c.h + 1):
        if tuple(F.add(x, y) for x, y in zip(b0e[i], binfe[i - 1])) != zero:
            return False
    if _la.rank(F, tuple(es)) != c.h + 1:
        return False
    cols = _la.transpose(tuple(es))
    isotropic = _la.zeros(F, c.h + 1, c.h + 1)
    return all(_la.congruent(F, M, cols) == isotropic
               for M in (P.b_inf, P.b_0))


def minimal_chain(P):
    """(chain, tower, inverse): a minimal isotropic chain, or None when
    the pencil is regular; the last level of the walk that looked for
    it; and B_inf^{-1} when that level is (), else None.

    The walk builds H_0 = Ker B_inf, H_{j+1} = B_inf^{-1}(B_0 H_j), each
    level kept with its image B_0 H_j; the minimal index is the first h
    with H_h meeting Ker B_0, and the chain is recovered by
    back-substitution down the tower.  Without one the walk ends at the
    fixpoint, the stable kernel tower of B_inf: () when B_inf is
    invertible.  B_inf is eliminated once, as [B_inf | I] to
    [rref(B_inf) | E]: H_0 is read off the left block, each later level
    off E (see _preimage), and E is B_inf^{-1} when B_inf is invertible.
    Deterministic: canonical kernel bases throughout."""
    F, n = P.ctx, P.n
    R, pivots = _la.rref(F, _la.hstack(P.b_inf, _la.identity(F, n)))
    E = tuple(row[n:] for row in R)
    pivots = tuple(c for c in pivots if c < n)
    if len(pivots) == n:
        return None, (), E
    ker = _la.rref_kernel(F, R, pivots, n)
    H = ker
    history = []
    while True:
        if history and len(H) == len(history[-1][0]):
            return None, H, None  # fixpoint without isotropic vector
        img = _la.mat_mul(F, P.b_0, _la.transpose(H))
        history.append((H, img))
        # intersection of span(H) with Ker B_0
        coeffs = _la.nullspace(F, img)
        if coeffs:
            u = _la.mat_mul(F, coeffs[:1], H)[0]
            return _chain_from_tail(P, history, u), H, None
        if len(history) > n:
            raise AssertionError("chain search failed to stabilize")
        H = _preimage(F, E, pivots, ker, img)


def _preimage(F, E, pivots, ker, img):
    """Canonical basis of the v with B_inf v in the column span of img,
    from E B_inf = rref(B_inf), its pivot columns and ker = Ker B_inf.
    B_inf v = img t exactly when rref(B_inf) v = E img t: the rows of
    E img past the rank r must vanish on t, an (n - r) x k kernel, and
    then v is E img t at the pivot columns, zero elsewhere, plus a
    vector of ker."""
    r = len(pivots)
    Y = _la.mat_mul(F, E, img)
    vs = []
    for t in _la.mat_mul(F, _la.nullspace(F, Y[r:]), _la.transpose(Y[:r])):
        v = [F.zero] * len(E)
        for c, x in zip(pivots, t):
            v[c] = x
        vs.append(tuple(v))
    return _la.span_basis(F, ker + tuple(vs))


def _chain_from_tail(P, history, u_h):
    """Chain from a tail u_h in Ker B_0 and the last of the levels."""
    F = P.ctx
    h = len(history) - 1
    us = [u_h]
    for H, img in history[-2::-1]:
        rhs = _la.mat_mul(F, us[-1:], P.b_inf)[0]
        t = _la.solve(F, img, rhs)
        if t is None:
            raise AssertionError("tower back-substitution failed")
        us.append(_la.mat_mul(F, (t,), H)[0])
    # us[i] = u_{h-i}; chain e_i = (-1)^(h-i) u_{h-i}
    es = []
    for i in range(h + 1):
        v = us[i]
        if (h - i) % 2 == 1:
            v = tuple(F.neg(x) for x in v)
        es.append(v)
    c = IsotropicChain(h, tuple(es))
    if not chain_ok(P, c):
        raise AssertionError("extracted chain fails its invariants")
    return c


def _split_basis(P, c):
    """Congruence columns (e'_i), (f'_j), (g_k), as vectors, with
    alternating signs on the e and f so that their block is exactly K'_h."""
    F, n, h = P.ctx, P.n, c.h
    es = c.vectors
    if h > 0:
        # B_inf is symmetric, so row i of es B_inf is B_inf e_i
        phi = _la.mat_mul(F, es[:h], P.b_inf)
        sol = _la.mat_solve(F, phi, _la.identity(F, h))
        if sol is None:
            raise AssertionError("chain pairings are degenerate")
        fs = _la.transpose(sol)
        eperp = _la.nullspace(F, phi)
    else:
        fs, eperp = (), _la.identity(F, n)
    gs = _la.greedy_extend(F, es, eperp)
    if len(gs) != n - (2 * h + 1):
        raise AssertionError("complement has wrong dimension")
    es, fs = (tuple(v if i % 2 == 0 else tuple(F.neg(x) for x in v)
                    for i, v in enumerate(vs)) for vs in (es, fs))
    return es, fs, gs


def _staircase_correction(P, es, fs, gs):
    """The f and g vectors moved to clear the (f, g) coupling of the Gram
    shape [[0, K', 0], [tK', A, C], [0, tC, B']] of P on es + fs + gs:
    fs + Z gs and gs + tX es, with Z and X solving the staircase; C and
    B' are read off the restriction of P to the f and g vectors alone."""
    F = P.ctx
    h, m = len(fs), len(gs)
    T = congruent_pencil(P, _la.transpose(fs + gs))
    fi = range(h)
    gi = range(h, h + m)
    Cinf = _la.submatrix(T.b_inf, fi, gi)
    C0 = _la.submatrix(T.b_0, fi, gi)
    Binf = _la.submatrix(T.b_inf, gi, gi)
    B0 = _la.submatrix(T.b_0, gi, gi)
    # rows z_0..z_{h-1} (length m) with B'_inf z_j - B'_0 z_{j-1} = rhs_j
    zrows = _la.solve_bidiagonal(F, _la.mat_neg(F, B0), Binf,
                                 _la.mat_sub(F, C0[:-1], Cinf[1:]))
    if zrows is None:
        raise AssertionError("staircase unsolvable: chain not minimal")
    # B'_inf and B'_0 are symmetric, so row j of zrows B' is B' z_j
    bz = _la.mat_mul(F, zrows, Binf) + _la.mat_mul(F, zrows[-1:], B0)
    xrows = [tuple(F.neg(F.add(x, y)) for x, y in zip(crow, brow))
             for crow, brow in zip(Cinf + C0[-1:], bz)]
    return (_la.mat_add(F, fs, _la.mat_mul(F, zrows, gs)),
            _la.mat_add(F, gs, _la.mat_mul(F, _la.transpose(xrows), es)))


def split_kronecker(P, c):
    """Congruence isolating the Kronecker module of the chain as an
    orthogonal direct factor.  Returns (vectors, module, complement):
    the congruence's columns as vectors, and the restrictions of P to the
    first 2h+1 of them, whose (e, *) rows already match K_h, and to the
    other m."""
    F, h = P.ctx, c.h
    es, fs, gs = _split_basis(P, c)
    if h > 0 and gs:
        fs, gs = _staircase_correction(P, es, fs, gs)
    vectors = es + fs + gs
    parts = orthogonal_parts(P, _la.transpose(vectors), (2 * h + 1, len(gs)))
    if parts is None:
        raise AssertionError("module coupling not cleared")
    module, comp = parts
    ref = kh_matrix(F, h)
    for B, K in ((module.b_inf, ref.b_inf), (module.b_0, ref.b_0)):
        if B[:h + 1] != K[:h + 1]:
            raise AssertionError("module block malformed")
    return vectors, module, comp


def _clear_ff_block(F, T, h):
    """Correction [[I, Z], [0, I]] removing the (f, f) junk of a Kronecker
    module in the shape [[0, K'], [tK', A]]; anti-diagonal recurrence."""
    n = 2 * h + 1
    fi = range(h + 1, n)
    Ainf = _la.submatrix(T.b_inf, fi, fi)
    A0 = _la.submatrix(T.b_0, fi, fi)
    L = _la.mat_neg(F, Ainf)
    M = _la.mat_neg(F, A0)
    Z = [[F.zero] * h for _ in range(h + 1)]
    if F.p == 2:
        for j in range(h):
            if Ainf[j][j] != F.zero or A0[j][j] != F.zero:
                raise ValueError("characteristic 2 needs alternating input")
        # diagonal seeds may be chosen freely; zero is canonical
    else:
        half = F.inv(F.scalar(2))
        for j in range(h):
            Z[j][j] = F.mul(half, L[j][j])
            Z[j + 1][j] = F.mul(half, M[j][j])
    for d in range(1, h):
        for j in range(h - d):
            Z[j][j + d] = F.sub(L[j][j + d], Z[j + d][j])
            Z[j + d + 1][j] = F.sub(M[j][j + d], Z[j + 1][j + d])
    corr = [list(row) for row in _la.identity(F, n)]
    for i in range(h + 1):
        for j in range(h):
            corr[i][h + 1 + j] = Z[i][j]
    return tuple(tuple(r) for r in corr)


def normalize_kronecker(P_K, h):
    """Congruence taking a Kronecker module whose (e, *) rows already
    match K_h, as split_kronecker leaves it, exactly to K_h."""
    F = P_K.ctx
    if P_K.n != 2 * h + 1:
        raise ValueError("not a Kronecker module: dimension mismatch")
    S = _clear_ff_block(F, P_K, h)
    if congruent_pencil(P_K, S) != kh_matrix(F, h):
        raise AssertionError("normalization did not reach K_h")
    return S


def _alternating(F, M):
    return all(M[i][i] == F.zero for i in range(len(M)))


def kronecker_decompose(P):
    """Strip all Kronecker blocks; returns indices (ascending), the full
    congruence, and the regular complement with its B_inf tower and,
    when that tower is empty, its B_inf^{-1}, all as the last chain
    search leaves them."""
    F, n = P.ctx, P.n
    if F.p == 2 and not (_alternating(F, P.b_inf) and _alternating(F, P.b_0)):
        raise ValueError("characteristic 2 requires alternating matrices")
    # the congruence's columns as vectors; only the last cur.n ever move
    cols = _la.identity(F, n)
    indices = []
    cur = P
    while True:
        c, tower, inverse = minimal_chain(cur)
        if c is None:
            break
        vectors, module, comp = split_kronecker(cur, c)
        S_norm = normalize_kronecker(module, c.h)
        done, k = n - cur.n, 2 * c.h + 1
        moved = _la.mat_mul(F, vectors, cols[done:])
        cols = (cols[:done] + _la.mat_mul(F, _la.transpose(S_norm), moved[:k])
                + moved[k:])
        indices.append(c.h)
        cur = comp
    # each chain is minimal, so the indices come out ascending
    if indices != sorted(indices):
        raise AssertionError("Kronecker indices were stripped out of order")
    S_total = _la.transpose(cols)
    if indices:  # otherwise S_total is I and the regular part is P
        final = apply_congruence(P, S_total)
        blocks = [kh_matrix(F, h) for h in indices] + [cur]
        if (final.b_inf != _la.block_diag(F, [K.b_inf for K in blocks])
                or final.b_0 != _la.block_diag(F, [K.b_0 for K in blocks])):
            raise AssertionError("decomposition does not reassemble the "
                                 "input")
    return KroneckerReport(tuple(indices), S_total, cur, tower, inverse)
