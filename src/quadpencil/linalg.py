"""Exact linear algebra over field and ring contexts.

Matrices are tuples of row tuples of elements; vectors are tuples.  The
products, `congruent`, `mat_pow`, `mat_poly_eval`, `rref` (and through it
`rank`, `nullspace`, `mat_solve`, `inv`, `span_basis` and
`greedy_extend`), `mat_vec` and `charpoly` take one of two paths, chosen
by the context:

* finite fields F_p and GF(p^k) run numpy int64 kernels on element
  arrays, of shape (r, c) over F_p and (r, c, k) over GF(p^k), where an
  element is its k coefficient planes.  Each kernel is written once
  against an elementwise product `_emul` and a matrix product
  `_matmul`.  Over F_p these are int64 products mod p; over GF(p^k) the
  products of the planes of two factors sum into 2k - 1 convolution
  planes, which the field's `red_rows`, the rows x^t mod f, reduce;
* local rings and towers run one generic element loop driven by the
  context object (`is_unit` picks pivots).

Each public kernel reads its tuples into arrays and converts its result
back once, however many products it chains: `congruent` is two products,
`mat_poly_eval` a Horner loop and `mat_pow` a square and multiply, all on
arrays.  `rref` delays reduction mod p: each pivot step reduces only the
pivot column and the pivot row, and the block is reduced once at the end.
The one bound that keeps every int64 intermediate below 2^63 is asserted
in `_array`.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from . import poly as _poly


def _freeze(rows):
    return tuple(tuple(r) for r in rows)


# -- element arrays over F_p and GF(p^k) ------------------------------------


def _on_arrays(F):
    """True for the fields whose kernels run on element arrays."""
    return F.prime or F.red_rows is not None


def _array(F, A):
    """Element array of a nonempty matrix over F.  Over GF(p^k) the
    nested coefficient tuples are read through one flat iterator, about
    twice as fast as np.array on them."""
    if F.prime:
        M = np.array(A, dtype=np.int64)
    else:
        r, c, k = len(A), len(A[0]), F.deg
        M = np.fromiter(chain.from_iterable(chain.from_iterable(A)),
                        np.int64, r * c * k).reshape(r, c, k)
    # Every factor of a product is reduced, and fields keep p < 2^16, so a
    # product is below p^2 < 2^32.  A matrix product sums fewer than
    # m (2k - 1) < 2 r c k of them.  rref changes an entry by less than
    # (2k - 1) p^2 per pivot, so after s pivots it stays below
    # p + s (2k - 1) p^2 in absolute value, where s (2k - 1) < 2 r c k.
    # With r c k < 2^30 both stay below 2^63.
    assert M.size < 1 << 30, "element arrays would overflow"
    return M


def _tuples(F, M):
    """The matrix of an element array, as row tuples of elements."""
    rows = M.tolist()
    if F.prime:
        return tuple(map(tuple, rows))
    return tuple(tuple(map(tuple, row)) for row in rows)


def _convolve(prods):
    """Sums over i + j = t, t < 2k - 1, of products (..., k, k) indexed
    [..., i, j]: row i is laid out with stride 2k and read back with
    stride 2k - 1, which shifts it right by i."""
    lead, k = prods.shape[:-2], prods.shape[-1]
    rows = np.zeros(lead + (k, 2 * k), dtype=np.int64)
    rows[..., :k] = prods
    flat = rows.reshape(lead + (2 * k * k,))[..., :k * (2 * k - 1)]
    return flat.reshape(lead + (k, 2 * k - 1)).sum(axis=-2)


def _emul(F, a, b):
    """Elementwise product of two broadcastable element arrays, congruent
    mod p to the reduced one, with entries below (2k - 1) p^2."""
    if F.prime:
        return a * b
    return _convolve(a[..., :, None] * b[..., None, :]) % F.p @ F.red_rows


def _matmul(F, A, B):
    """Reduced matrix product of element arrays.  Over GF(p^k) one int64
    matmul gives every product of a plane of A with a plane of B, and
    the products of equal degree sum into 2k - 1 convolution planes."""
    if F.prime:
        return A @ B % F.p
    r, m, k = A.shape
    c = B.shape[1]
    P = (A.transpose(0, 2, 1).reshape(r * k, m)
         @ B.reshape(m, c * k)).reshape(r, k, c, k)
    return _convolve(P.transpose(0, 2, 1, 3)) % F.p @ F.red_rows % F.p


def _pivot_inverse(F, x):
    """Inverse of a nonzero element x of an array, as an array element."""
    if F.prime:
        return pow(int(x), F.p - 2, F.p)
    return np.array(F.inv(tuple(x.tolist())), dtype=np.int64)


def _rref_array(F, M):
    """rref of an element array, in place, and its pivot columns.  A
    pivot row is zero left of its pivot column c, so each step works on
    M[:, c:] only.  Reduction mod p is delayed: a step reduces only
    column c, to find the pivot and the multipliers, and the pivot row
    before scaling it, so every factor of its products is below p; the
    rest of the block is reduced once, at the end."""
    p = F.p
    nr, nc = M.shape[:2]
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        X = M[:, c:]
        X[:, 0] %= p
        nz = X[r:, 0].nonzero()[0]
        if not nz.size:
            continue
        pr = r + int(nz[0])
        X[pr] %= p
        row = _emul(F, X[pr], _pivot_inverse(F, X[pr, 0])) % p
        if pr != r:
            X[pr] = X[r]
        X -= _emul(F, X[:, :1], row)
        X[r] = row
        pivots.append(c)
        r += 1
    M %= p
    return M, tuple(pivots)


def _berkowitz_array(F, M):
    """Characteristic polynomial of a square element array, leading
    coefficient first, by Berkowitz: step r multiplies the coefficients
    so far by the lower-triangular Toeplitz matrix of c = (1, -a, -R S,
    -R Mp S, ...) for the r-th leading block [[Mp, S], [R, a]], and one
    product of -R by the Krylov columns Mp^j S gives all of c[2:]."""
    p = F.p
    n = M.shape[0]
    N = -M % p
    # for i < j, c[i - j] wraps round to an entry past c[n], which stays 0
    c = np.zeros((2 * n + 2,) + M.shape[2:], dtype=np.int64)
    c[0] = F.one
    lag = np.arange(n + 1)[:, None] - np.arange(n)
    v = c[:2].copy()
    v[1] = N[0, 0]
    for r in range(2, n + 1):
        Mp = M[:r - 1, :r - 1]
        krylov = [M[:r - 1, r - 1:r]]
        for _ in range(r - 2):
            krylov.append(_matmul(F, Mp, krylov[-1]))
        c[1] = N[r - 1, r - 1]
        c[2:r + 1] = _matmul(F, N[r - 1:r, :r - 1],
                             np.concatenate(krylov, axis=1))[0]
        v = _matmul(F, c[lag[:r + 1, :r]], v[:, None])[:, 0]
    return v[::-1]


def identity(F, n):
    zero = (F.zero,) * n
    return tuple(zero[:i] + (F.one,) + zero[i + 1:] for i in range(n))


def zeros(F, r, c):
    return tuple((F.zero,) * c for _ in range(r))


def transpose(A):
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
    if A and B and _on_arrays(F):
        return _tuples(F, _matmul(F, _array(F, A), _array(F, B)))
    return ring_mat_mul(F, A, B)


def mat_vec(F, A, v):
    if A and _on_arrays(F):
        col = np.array(v, dtype=np.int64)[:, None]
        return _tuples(F, _matmul(F, _array(F, A), col)[None, :, 0])[0]
    return tuple(vec_dot(F, row, v) for row in A)


def vec_dot(F, u, v):
    acc = F.zero
    for x, y in zip(u, v):
        if x != F.zero and y != F.zero:
            acc = F.add(acc, F.mul(x, y))
    return acc


def congruent(F, B, S):
    """Gram matrix after the substitution x -> S x, i.e. tS B S, as one
    chain of two products on element arrays, tS a view of S's."""
    if S and _on_arrays(F):
        A = _array(F, S)
        return _tuples(F, _matmul(F, A.swapaxes(0, 1),
                                  _matmul(F, _array(F, B), A)))
    return mat_mul(F, transpose(S), mat_mul(F, B, S))


def hstack(A, B):
    if not A:
        return B
    if not B:
        return A
    return tuple(ra + rb for ra, rb in zip(A, B))


def block_diag(F, blocks):
    """Block-diagonal matrix: each row is zeros, a block row, zeros."""
    blocks = list(blocks)
    n = sum(len(b) for b in blocks)
    out = []
    off = 0
    for b in blocks:
        left, right = (F.zero,) * off, (F.zero,) * (n - off - len(b))
        out.extend(left + tuple(row) + right for row in b)
        off += len(b)
    return tuple(out)


def submatrix(A, rows, cols):
    return tuple(tuple(A[i][j] for j in cols) for i in rows)


def rref(F, A):
    """Reduced row echelon form and pivot columns; canonical.  Pivots
    are units, so over a local ring a column with no unit left is
    skipped."""
    if not A:
        return (), ()
    if _on_arrays(F):
        R, pivots = _rref_array(F, _array(F, A))
        return _tuples(F, R), pivots
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
        return identity(F, ncols or 0)
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
        R = A[r - 1][:r - 1]
        c = [ring.one, ring.neg(A[r - 1][r - 1])]
        w = [A[i][r - 1] for i in range(r - 1)]
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


def charpoly(F, A):
    """Monic characteristic polynomial det(xI - A), constant term first."""
    if A and _on_arrays(F):
        return _tuples(F, _berkowitz_array(F, _array(F, A))[None])[0]
    return berkowitz(F, A)


def det(F, A):
    n = len(A)
    if n == 0:
        return F.one
    cp = charpoly(F, A)
    d = cp[0]
    return F.neg(d) if n % 2 else d


def mat_pow(F, M, e):
    """M^e by square and multiply, on the element array when e > 1."""
    if e > 1 and M and _on_arrays(F):
        # with e > 0, power never returns its unit, so none is built
        return _tuples(F, _poly.power(lambda A, B: _matmul(F, A, B),
                                      _array(F, M), e, None))
    return _poly.power(lambda A, B: mat_mul(F, A, B), M, e,
                       identity(F, len(M)))


def mat_poly_eval(F, f, M):
    """f(M) for a polynomial f (constant first) and square matrix M, by
    Horner's rule with each coefficient added on the diagonal.  On an
    element array it starts from f_d M + f_{d-1} I, so that no product
    is spent on f_d I, and M is read and the result converted once."""
    n = len(M)
    if len(f) > 1 and n and _on_arrays(F):
        A = _array(F, M)
        diag = np.arange(n)
        acc = _emul(F, A, np.asarray(f[-1])) % F.p
        for i, c in enumerate(reversed(f[:-1])):
            if i:
                acc = _matmul(F, acc, A)
            acc[diag, diag] = (acc[diag, diag] + c) % F.p
        return _tuples(F, acc)
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
