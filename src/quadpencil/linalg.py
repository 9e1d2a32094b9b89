"""Exact linear algebra over field and ring contexts.

Matrices are tuples of row tuples of elements; vectors are tuples.  Each
operation has one generic path, driven by the context object, that works
on any ring context with the field interface (extension fields and the
truncated local rings alike; `is_unit` picks pivots).  Prime fields (int
elements) take a vectorized numpy int64 path instead.  With p < 2^16 and
desk-scale n, all intermediate products stay below 2^63.
"""

from __future__ import annotations

import numpy as np


def _freeze(rows):
    return tuple(tuple(r) for r in rows)


def _to_np(A):
    return np.array(A, dtype=np.int64)


def _from_np(M):
    return tuple(map(tuple, M.tolist()))


def identity(F, n):
    return tuple(tuple(F.one if i == j else F.zero for j in range(n))
                 for i in range(n))


def zeros(F, r, c):
    return tuple((F.zero,) * c for _ in range(r))


def transpose(A):
    if not A:
        return ()
    return tuple(zip(*A))


def mat_add(F, A, B):
    return tuple(tuple(F.add(x, y) for x, y in zip(ra, rb))
                 for ra, rb in zip(A, B))


def mat_sub(F, A, B):
    return tuple(tuple(F.sub(x, y) for x, y in zip(ra, rb))
                 for ra, rb in zip(A, B))


def mat_neg(F, A):
    return tuple(tuple(F.neg(x) for x in r) for r in A)


def mat_scale(F, c, A):
    return tuple(tuple(F.mul(c, x) for x in r) for r in A)


def mat_mul(F, A, B):
    if not A or not B:
        return ()
    if F.prime:
        return _from_np(_to_np(A) @ _to_np(B) % F.p)
    return ring_mat_mul(F, A, B)


def mat_vec(F, A, v):
    if not A:
        return ()
    if F.prime:
        return tuple((_to_np(A) @ np.array(v, dtype=np.int64) % F.p).tolist())
    return tuple(vec_dot(F, row, v) for row in A)


def vec_dot(F, u, v):
    acc = F.zero
    for x, y in zip(u, v):
        if x != F.zero and y != F.zero:
            acc = F.add(acc, F.mul(x, y))
    return acc


def congruent(F, B, S):
    """Gram matrix after the substitution x -> S x, i.e. tS B S."""
    return mat_mul(F, transpose(S), mat_mul(F, B, S))


def hstack(A, B):
    if not A:
        return B
    if not B:
        return A
    return tuple(ra + rb for ra, rb in zip(A, B))


def block_diag(F, blocks):
    blocks = [b for b in blocks]
    n = sum(len(b) for b in blocks)
    out = [[F.zero] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return _freeze(out)


def submatrix(A, rows, cols):
    return tuple(tuple(A[i][j] for j in cols) for i in rows)


def _rref_np(A, p):
    M = _to_np(A) % p
    nr, nc = M.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        M[r] = M[r] * pow(int(M[r, c]), p - 2, p) % p
        col = M[:, c].copy()
        col[r] = 0
        M = (M - np.outer(col, M[r])) % p
        pivots.append(c)
        r += 1
    return _from_np(M), tuple(pivots)


def rref(F, A):
    """Reduced row echelon form and pivot columns; canonical.  Pivots
    are units, so over a local ring a column with no unit left is
    skipped."""
    if not A:
        return (), ()
    if F.prime:
        return _rref_np(A, F.p)
    rows = [list(r) for r in A]
    nr, nc = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if F.is_unit(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != F.zero:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return _freeze(rows), tuple(pivots)


def rank(F, A):
    return len(rref(F, A)[1])


def nullspace(F, A, ncols=None):
    """Canonical kernel basis (one vector per free column, ascending)."""
    if not A:
        n = ncols or 0
        return tuple(identity(F, n))
    R, pivots = rref(F, A)
    nc = len(A[0])
    pivset = set(pivots)
    out = []
    for c in range(nc):
        if c in pivset:
            continue
        v = [F.zero] * nc
        v[c] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R[r][c])
        out.append(tuple(v))
    return tuple(out)


def solve(F, A, b):
    """One solution of A x = b (free coordinates zero), or None."""
    X = mat_solve(F, A, tuple((x,) for x in b))
    return None if X is None else tuple(row[0] for row in X)


def mat_solve(F, A, B):
    """One solution X of A X = B (free rows zero), or None."""
    nc = len(A[0]) if A else 0
    aug = hstack(A, B)
    R, pivots = rref(F, aug)
    if pivots and pivots[-1] >= nc:
        return None
    wide = len(B[0]) if B else 0
    X = [[F.zero] * wide for _ in range(nc)]
    for r, c in enumerate(pivots):
        X[c] = list(R[r][nc:])
    return _freeze(X)


def inv(F, A):
    """Inverse matrix over a field or a local ring, by rref of [A | I]
    with unit pivots; None when singular."""
    n = len(A)
    if n == 0:
        return ()
    R, pivots = rref(F, hstack(A, identity(F, n)))
    if len(pivots) != n or pivots[-1] != n - 1:
        return None
    return tuple(r[n:] for r in R)


#: The same inverse under its own name, so that local-ring inversions
#: are traced apart from field ones.
ring_inv = inv


def is_invertible(F, A):
    """True when the square matrix A has full rank."""
    return len(A) == 0 or rank(F, A) == len(A)


def span_basis(F, vectors):
    """Canonical basis of the span of the given row vectors."""
    vecs = tuple(vectors)
    if not vecs:
        return ()
    R, pivots = rref(F, vecs)
    return R[:len(pivots)]


def greedy_extend(F, base, candidates):
    """Subsequence of candidates extending the independent family base to
    a basis of the joint span, chosen greedily in the given order."""
    rows = []  # (pivot column, eliminated normalized vector)

    def absorb(v):
        v = list(v)
        for pc, w in rows:
            c = v[pc]
            if c != F.zero:
                v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, w)]
        for pc, x in enumerate(v):
            if x != F.zero:
                inv = F.inv(x)
                rows.append((pc, [F.mul(inv, y) for y in v]))
                return True
        return False

    for b in base:
        if not absorb(b):
            raise ValueError("base family is dependent")
    return tuple(c for c in candidates if absorb(c))


def berkowitz(ring, A):
    """Characteristic polynomial coefficients of A over any commutative
    ring context, constant term first, division-free."""
    n = len(A)
    if n == 0:
        return (ring.one,)
    v = [ring.one, ring.neg(A[0][0])]
    for r in range(2, n + 1):
        a = A[r - 1][r - 1]
        R = A[r - 1][:r - 1]
        S = [A[i][r - 1] for i in range(r - 1)]
        c = [ring.one, ring.neg(a)]
        w = list(S)
        for j in range(2, r + 1):
            c.append(ring.neg(vec_dot(ring, R, w)))
            if j < r:
                w = [vec_dot(ring, A[i][:r - 1], w) for i in range(r - 1)]
        nv = []
        for i in range(r + 1):
            acc = ring.zero
            for j in range(max(0, i - r), min(i, r - 1) + 1):
                acc = ring.add(acc, ring.mul(c[i - j], v[j]))
            nv.append(acc)
        v = nv
    return tuple(reversed(v))


def _berkowitz_np(A, p):
    M = _to_np(A) % p
    n = M.shape[0]
    v = np.array([1, (-int(M[0, 0])) % p], dtype=np.int64)
    for r in range(2, n + 1):
        a = int(M[r - 1, r - 1])
        R = M[r - 1, :r - 1]
        S = M[:r - 1, r - 1].copy()
        Mp = M[:r - 1, :r - 1]
        c = np.zeros(r + 1, dtype=np.int64)
        c[0] = 1
        c[1] = (-a) % p
        w = S
        for j in range(2, r + 1):
            c[j] = (-int(R @ w)) % p
            if j < r:
                w = Mp @ w % p
        v = np.convolve(c, v)[:r + 1] % p
    return tuple(int(x) for x in reversed(v))


def charpoly(F, A):
    """Monic characteristic polynomial det(xI - A), constant term first."""
    if len(A) == 0:
        return (F.one,)
    if F.prime:
        return _berkowitz_np(A, F.p)
    return berkowitz(F, A)


def det(F, A):
    n = len(A)
    if n == 0:
        return F.one
    cp = charpoly(F, A)
    d = cp[0]
    return F.neg(d) if n % 2 else d


def mat_pow(F, M, e):
    n = len(M)
    out = identity(F, n)
    b = M
    while e:
        if e & 1:
            out = mat_mul(F, out, b)
        b = mat_mul(F, b, b)
        e >>= 1
    return out


def mat_poly_eval(F, f, M):
    """f(M) for a polynomial f (constant first) and square matrix M, by
    Horner's rule with each coefficient added on the diagonal."""
    n = len(M)
    if not f:
        return zeros(F, n, n)
    acc = _add_diagonal(F, zeros(F, n, n), f[-1])
    for c in reversed(f[:-1]):
        acc = _add_diagonal(F, mat_mul(F, acc, M), c)
    return acc


def _add_diagonal(F, A, c):
    """A + c I."""
    return tuple(row[:i] + (F.add(row[i], c),) + row[i + 1:]
                 for i, row in enumerate(A))


def ring_mat_mul(R, A, B):
    if not A or not B:
        return ()
    Bt = tuple(zip(*B))
    return tuple(tuple(vec_dot(R, ra, cb) for cb in Bt) for ra in A)
