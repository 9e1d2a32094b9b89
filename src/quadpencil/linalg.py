"""Exact linear algebra over field and ring contexts.

Matrices are tuples of row tuples of elements; vectors are tuples.  The
products, `rref` (and through it `rank`, `nullspace`, `mat_solve`, `inv`,
`span_basis` and `greedy_extend`), `mat_vec` and `charpoly` take one of
three paths, chosen by the context:

* prime fields (int elements) run numpy int64 kernels on (r, c) arrays;
* absolute extensions GF(p^k), k >= 2, run numpy int64 kernels on
  coefficient planes, arrays of shape (r, c, k): the products of the
  planes of two factors sum into 2k - 1 convolution planes, which the
  field's `red_rows`, the rows x^t mod f, reduce;
* local rings and towers run one generic element loop driven by the
  context object (`is_unit` picks pivots).

Tuples go to arrays and back once per call.  With p < 2^16 and desk-scale
n, every intermediate stays below 2^63; the plane kernels assert it.
"""

from __future__ import annotations

import numpy as np

from . import poly as _poly


def _freeze(rows):
    return tuple(tuple(r) for r in rows)


def _to_np(A):
    return np.array(A, dtype=np.int64)


def _from_np(M):
    return tuple(map(tuple, M.tolist()))


# -- coefficient planes of an absolute extension GF(p^k) --------------------


def _to_planes(F, A):
    """(r, c, k) array of a matrix over F."""
    return np.array(A, dtype=np.int64).reshape(len(A), len(A[0]), F.deg)


def _from_planes(M):
    return tuple(tuple(map(tuple, row)) for row in M.tolist())


def _convolve(prods):
    """Sums over i + j = t, t < 2k - 1, of products (..., k, k) indexed
    [..., i, j]: row i is laid out with stride 2k and read back with
    stride 2k - 1, which shifts it right by i."""
    lead, k = prods.shape[:-2], prods.shape[-1]
    rows = np.zeros(lead + (k, 2 * k), dtype=np.int64)
    rows[..., :k] = prods
    flat = rows.reshape(lead + (2 * k * k,))[..., :k * (2 * k - 1)]
    return flat.reshape(lead + (k, 2 * k - 1)).sum(axis=-2)


def _reduce_conv(F, conv):
    """Elements from unreduced convolution coefficients on the last axis,
    by the field's rows x^t mod f."""
    return conv % F.p @ F.red_rows % F.p


def _plane_mul(F, a, b):
    """Elementwise product of two broadcastable plane arrays."""
    return _reduce_conv(F, _convolve(a[..., :, None] * b[..., None, :]))


def _plane_matmul(F, A, B):
    """Matrix product of (r, m, k) and (m, c, k) plane arrays: one int64
    matmul gives every product of a plane of A with a plane of B, and
    the products of equal degree sum into 2k - 1 convolution planes."""
    r, m, k = A.shape
    c = B.shape[1]
    # a convolution coefficient sums m k products below p^2
    assert m * k * F.p ** 2 < 1 << 63, "coefficient planes would overflow"
    P = (A.transpose(0, 2, 1).reshape(r * k, m)
         @ B.reshape(m, c * k)).reshape(r, k, c, k)
    return _reduce_conv(F, _convolve(P.transpose(0, 2, 1, 3)))


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
    if F.red_rows is not None:
        return _from_planes(_plane_matmul(F, _to_planes(F, A),
                                          _to_planes(F, B)))
    return ring_mat_mul(F, A, B)


def mat_vec(F, A, v):
    if not A:
        return ()
    if F.prime:
        return tuple((_to_np(A) @ np.array(v, dtype=np.int64) % F.p).tolist())
    if F.red_rows is not None:
        col = np.array(v, dtype=np.int64).reshape(len(v), 1, F.deg)
        return tuple(map(tuple, _plane_matmul(
            F, _to_planes(F, A), col)[:, 0].tolist()))
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


def _rref_planes(F, A):
    M = _to_planes(F, A)
    nr, nc, _ = M.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = np.nonzero(M[r:, c].any(axis=1))[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        # columns left of c are zero in row r
        inv = np.array(F.inv(tuple(M[r, c].tolist())), dtype=np.int64)
        M[r, c:] = _plane_mul(F, M[r, c:], inv)
        col = M[:, c].copy()
        col[r] = 0
        M[:, c:] = (M[:, c:] - _plane_mul(F, col[:, None], M[r, c:])) % F.p
        pivots.append(c)
        r += 1
    return _from_planes(M), tuple(pivots)


def rref(F, A):
    """Reduced row echelon form and pivot columns; canonical.  Pivots
    are units, so over a local ring a column with no unit left is
    skipped."""
    if not A:
        return (), ()
    if F.prime:
        return _rref_np(A, F.p)
    if F.red_rows is not None:
        return _rref_planes(F, A)
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
    a basis of the joint span, chosen greedily in the given order: with
    base and candidates as the columns of one matrix, a column is a pivot
    of its rref exactly when it is independent of the columns before it."""
    nb = len(base)
    pivots = rref(F, transpose(base + candidates))[1]
    if pivots[:nb] != tuple(range(nb)):
        raise ValueError("base family is dependent")
    return tuple(candidates[c - nb] for c in pivots[nb:])


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


def _berkowitz_planes(F, A):
    p, k = F.p, F.deg
    M = _to_planes(F, A)
    n = M.shape[0]
    one = np.eye(1, k, dtype=np.int64)[0]
    v = np.array([one, (-M[0, 0]) % p])
    for r in range(2, n + 1):
        R = M[r - 1, :r - 1][None]
        Mp = M[:r - 1, :r - 1]
        c = np.zeros((r + 1, k), dtype=np.int64)
        c[0] = one
        c[1] = (-M[r - 1, r - 1]) % p
        w = M[:r - 1, r - 1][:, None]
        for j in range(2, r + 1):
            c[j] = (-_plane_matmul(F, R, w)[0, 0]) % p
            if j < r:
                w = _plane_matmul(F, Mp, w)
        # the product c v truncated to degree r, as the lower-triangular
        # Toeplitz matrix of c times v
        lag = np.arange(r + 1)[:, None] - np.arange(r)[None, :]
        T = np.where((lag >= 0)[..., None], c[np.maximum(lag, 0)], 0)
        v = _plane_matmul(F, T, v[:, None])[:, 0]
    return tuple(map(tuple, reversed(v.tolist())))


def charpoly(F, A):
    """Monic characteristic polynomial det(xI - A), constant term first."""
    if len(A) == 0:
        return (F.one,)
    if F.prime:
        return _berkowitz_np(A, F.p)
    if F.red_rows is not None:
        return _berkowitz_planes(F, A)
    return berkowitz(F, A)


def det(F, A):
    n = len(A)
    if n == 0:
        return F.one
    cp = charpoly(F, A)
    d = cp[0]
    return F.neg(d) if n % 2 else d


def mat_pow(F, M, e):
    return _poly.power(lambda A, B: mat_mul(F, A, B), M, e,
                       identity(F, len(M)))


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
