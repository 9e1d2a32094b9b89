"""Exact linear algebra over field and ring contexts.

Matrices are tuples of row tuples of elements; vectors are tuples, and a
matrix times a vector is a product with a one-column or one-row matrix.
The products, `congruent`, `mat_poly_eval`, `krylov`, `rref` (and
through it `rank`, `nullspace`, `kernel_basis`, `mat_solve`, `inv`,
`span_basis`, `greedy_extend` and `solve_bidiagonal`) and `charpoly`
take one of two paths, chosen by the context:

* finite fields F_p and GF(p^k) run numpy int64 kernels on element
  arrays, of shape (r, c) over F_p and (r, c, k) over GF(p^k), where an
  element is its k coefficients.  Each kernel is written once against
  an elementwise product `_emul` and a matrix product `_matmul`.  Over
  F_p these are int64 products; over GF(p^k) each is one int64 matmul
  by the F_p-matrices of multiplication by the entries of one factor,
  read off the field's `red_rows`, the rows x^t mod f;
* local rings and towers run one generic element loop driven by the
  context object (`is_unit` picks pivots).

Each public kernel reads its tuples into arrays and converts its result
back once, however many products it chains: `congruent` is two products,
`mat_poly_eval` a Horner loop and `krylov` a doubling, all on arrays.
`rref` delays reduction mod p: each pivot step reduces only the pivot
column and the pivot row, and the block is reduced once at the end.  The
one bound that keeps every int64 intermediate below 2^63 is asserted in
`_array`.
"""

from __future__ import annotations

from functools import partial
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
    # matrix product, a sum of m k products, stays below m k p^2.  rref
    # moves an entry by less than k p^2 per pivot, so after s pivots it
    # stays below p + s k p^2 in absolute value.  m k and s k are below
    # r c k < 2^30, so both stay below 2^62.
    assert M.size < 1 << 30, "element arrays would overflow"
    return M


def _tuples(F, M):
    """The matrix of an element array, as row tuples of elements."""
    rows = M.tolist()
    if F.prime:
        return tuple(map(tuple, rows))
    return tuple(tuple(map(tuple, row)) for row in rows)


def _mulmats(F, b):
    """Reduced multiplication matrices of the elements of an (n, k) array
    b over GF(p^k), as a (k, n, k) array: [a, i] is row a of M_b for
    b = b[i], x^a b mod f, that is b times the rows red_rows[a:a + k],
    so that a b = a @ M_b.  Those rows, for every a, are one strided
    view of red_rows, so no k^3 table is built or kept."""
    R, k = F.red_rows, F.deg
    rows = np.ndarray((k, k, k), R.dtype, R, 0, R.strides[:1] + R.strides)
    return b @ rows % F.p


def _emul(F, a, b):
    """a * b, broadcast as over F_p, for b one element or a row that a
    meets on an axis of length 1 (a column and a row give their outer
    product); congruent mod p to the reduced one, entries below k p^2."""
    if F.prime:
        return a * b
    k = F.deg
    Mb = _mulmats(F, b.reshape(-1, k)).reshape(k, -1)
    return (a @ Mb).reshape(a.shape[:-2] + (-1, k))


def _matmul(F, A, B):
    """Reduced matrix product of element arrays: over GF(p^k), A as an
    (r, m k) matrix times the multiplication matrices of B as one
    (m k, c k) matrix."""
    if F.prime:
        return A @ B % F.p
    (r, m, k), c = A.shape, B.shape[1]
    MB = _mulmats(F, B.reshape(-1, k)).reshape(k, m, c * k).swapaxes(0, 1)
    return (A.reshape(r, m * k) @ MB.reshape(m * k, c * k)
            % F.p).reshape(r, c, k)


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
        x = X[pr, 0]
        inv = (pow(int(x), p - 2, p) if F.prime
               else np.array(F.inv(tuple(x.tolist())), dtype=np.int64))
        row = _emul(F, X[pr], inv) % p
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
    return ring_mat_mul(F, transpose(S), ring_mat_mul(F, B, S))


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
    return rref_kernel(F, *rref(F, A), len(A[0]))


def rref_kernel(F, R, pivots, nc):
    """The basis nullspace returns, read off a reduced row echelon form:
    the first nc columns of R, with their pivot columns, so that the
    left block of a wider rref serves as well."""
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


def kernel_basis(F, vectors):
    """The basis that nullspace returns for every matrix whose kernel is
    the span of the given row vectors.  nullspace's free columns are the
    columns independent in that span chosen greedily from the right, and
    its vector for a free column is 1 there and 0 at the others: the rref
    of the vectors with their columns reversed, read back in reverse."""
    R, pivots = rref(F, tuple(v[::-1] for v in vectors))
    return tuple(r[::-1] for r in reversed(R[:len(pivots)]))


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


def solve_bidiagonal(F, L, D, rhs):
    """z_0 .. z_s with L z_j + D z_(j+1) = rhs[j] for j < s = len(rhs),
    L and D square of size m: the solution that solve gives on the dense
    s m x (s + 1) m system (free coordinates zero), as s + 1 rows, or
    None when there is none.

    That solution depends only on the pivot columns, and no row
    operation moves them, so the system is reduced one block column at a
    time, at O(s m^3): block row j meets z_j and z_(j+1) only, and its
    rows that find no pivot in z_j, together with the rows carried into
    it, are carried on as rows in z_(j+1).  One path for every field:
    each step is one rref of at most 2m x (2m + 1) and one product."""
    m = len(D)
    zero = (F.zero,) * m
    band = tuple(a + d for a, d in zip(L, D))
    carry, steps, last = (), [], ()
    for b in rhs:
        R, pivots = rref(F, carry + tuple(
            row + (x,) for row, x in zip(band, b)))
        if pivots and pivots[-1] == 2 * m:
            return None
        k = sum(c < m for c in pivots)
        # rows with a pivot in z_j keep their z_(j+1) part and rhs entry
        steps.append((pivots[:k], tuple(row[m:] for row in R[:k])))
        carry = tuple(row[m:2 * m] + zero + row[2 * m:]
                      for row in R[k:len(pivots)])
        last = tuple(c - m for c in pivots[k:])
    z = [F.zero] * m
    for c, row in zip(last, carry):
        z[c] = row[2 * m]
    zs = [tuple(z)]
    for pivots, R in reversed(steps):
        z = [F.zero] * m
        if R:
            rz = mat_mul(F, tuple(row[:m] for row in R),
                         transpose(zs[-1:]))
            for c, row, (y,) in zip(pivots, R, rz):
                z[c] = F.sub(row[m], y)
        zs.append(tuple(z))
    return tuple(reversed(zs))


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


def krylov(F, M):
    """The function images(t, polys) of a square matrix M: h(M) e_t for
    each polynomial h of degree below n = len(M), as row vectors, that is
    the coefficient rows of the h times the Krylov rows, row k being
    M^k e_t.  Those are built by doubling (Keller-Gehrig): rows s to
    2s - 1 are the first s rows times tM^s.  The powers tM^s, s = 1, 2,
    4, ..., are made once, on element arrays where the field has them,
    and serve every start t."""
    n = len(M)
    if _on_arrays(F):
        mul, read, out = (partial(_matmul, F), partial(_array, F),
                          partial(_tuples, F))
        cat = np.vstack
    else:
        mul, read, out = partial(ring_mat_mul, F), tuple, tuple
        cat = partial(sum, start=())
    powers = [read(transpose(M))] if n else []

    def images(t, polys):
        Y = read((tuple(F.one if i == t else F.zero for i in range(n)),))
        for j in range((n - 1).bit_length()):
            if j == len(powers):
                powers.append(mul(powers[-1], powers[-1]))
            Y = cat((Y, mul(Y[:n - len(Y)], powers[j])))
        return out(mul(read(tuple(_poly.poly_pad(F, h, n) for h in polys)),
                       Y))

    return images


def _add_diagonal(F, A, c):
    """A + c I."""
    return tuple(row[:i] + (F.add(row[i], c),) + row[i + 1:]
                 for i, row in enumerate(A))


def ring_mat_mul(R, A, B):
    if not A or not B:
        return ()
    Bt = tuple(zip(*B))
    return tuple(tuple(vec_dot(R, ra, cb) for cb in Bt) for ra in A)
