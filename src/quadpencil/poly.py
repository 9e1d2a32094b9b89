"""Dense univariate polynomials over a field context.

A polynomial is a tuple of field elements, constant coefficient first,
with no trailing zeros; the zero polynomial is ().  Every function takes
the coefficient field as an explicit first argument, duck-typed so that
field.py can import this module without a cycle.

Over a prime field (``F.prime``) the hot routines leave the element
interface for plain ints: long products are one ``np.convolve``, every
long division (and so ``poly_mod``, ``poly_gcd`` and ``poly_xgcd``)
runs on int lists, and ``poly_pow_mod`` modulo f of degree k reduces
each product through ``reduction_rows`` (x^t mod f for t < 2k - 1), the
rows that extension fields also keep for their coefficient-plane
kernels.  Every branch returns the same polynomial as the generic code.
``power`` is the package's one square and multiply, for any product.
The distinct-degree loop keeps x^(q^d) mod f; over a prime field it
takes each power after the first as one product by the Frobenius matrix
Q of F_p[x]/f, whose row i is x^(i p) mod f, since h^p = h(x^p) there.
``is_irreducible`` is Ben-Or's test: ``poly_factor``'s distinct-degree
loop, stopped at its first factor group.  Each group is split by
Cantor-Zassenhaus, but for the linear group over a prime field: its
roots are the points where it vanishes, and one correlation against
the chirp w^C(k, 2), w a primitive root, evaluates it at every unit
(the tables are cached on the field).  ``mul_rows`` is the product
kernel of F_p[x]/f on int64 vectors, and ``pow_rows`` its square and
multiply, which extension fields use as well.
"""

from __future__ import annotations

import random

import numpy as np

def poly_trim(F, seq):
    c = list(seq)
    while c and c[-1] == F.zero:
        c.pop()
    return tuple(c)


def poly_pad(F, f, n):
    """Coefficient vector of fixed length n (f must fit)."""
    if len(f) > n:
        raise ValueError("polynomial does not fit in length %d" % n)
    return tuple(f) + (F.zero,) * (n - len(f))


def poly_deg(f):
    return len(f) - 1


def poly_x(F):
    return (F.zero, F.one)


def poly_add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return poly_trim(F, out)


def poly_neg(F, a):
    return tuple(F.neg(c) for c in a)


def poly_sub(F, a, b):
    return poly_add(F, a, poly_neg(F, b))


def poly_scale(F, c, a):
    if c == F.zero:
        return ()
    return poly_trim(F, [F.mul(c, x) for x in a])


def poly_mul(F, a, b):
    if not a or not b:
        return ()
    if F.prime and len(a) + len(b) > 16:
        c = np.convolve(np.array(a, dtype=np.int64),
                        np.array(b, dtype=np.int64)) % F.p
        return poly_trim(F, [int(x) for x in c])
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == F.zero:
            continue
        for j, bj in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return poly_trim(F, out)


def poly_divmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if F.prime:
        q, r = _divmod_mod_p(F.p, a, b)
        return tuple(q), tuple(r)
    r = list(a)
    db, lead_inv = len(b) - 1, F.inv(b[-1])
    q = [F.zero] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i]
        if c == F.zero:
            continue
        c = F.mul(c, lead_inv)
        q[i - db] = c
        for j in range(db + 1):
            r[i - db + j] = F.sub(r[i - db + j], F.mul(c, b[j]))
    return poly_trim(F, q), poly_trim(F, r)


def poly_mod(F, a, b):
    return poly_divmod(F, a, b)[1]


def poly_monic(F, f):
    if not f:
        return f
    return poly_scale(F, F.inv(f[-1]), f)


def poly_gcd(F, a, b):
    while b:
        a, b = b, poly_mod(F, a, b)
    return poly_monic(F, a)


def poly_xgcd(F, a, b):
    """(g, u) with g = gcd(a, b) monic and u*a = g mod b."""
    if F.prime:
        g, u = _xgcd_mod_p(F.p, list(a), list(b))
        return tuple(g), tuple(u)
    r0, r1 = tuple(a), tuple(b)
    u0, u1 = (F.one,), ()
    while r1:
        q, r = poly_divmod(F, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(F, u0, poly_mul(F, q, u1))
    if r0:
        c = F.inv(r0[-1])
        r0, u0 = poly_scale(F, c, r0), poly_scale(F, c, u0)
    return r0, u0


def _xgcd_mod_p(p, r0, r1):
    """poly_xgcd over F_p on trimmed int lists: the same remainder and
    cofactor sequence, without the element interface."""
    u0, u1 = [1], []
    while r1:
        q, r = _divmod_mod_p(p, r0, r1)
        u = u0 + [0] * (len(q) + len(u1) - 1 - len(u0))
        for i, qi in enumerate(q):
            if qi:
                for j, uj in enumerate(u1):
                    u[i + j] = (u[i + j] - qi * uj) % p
        while u and not u[-1]:
            u.pop()
        r0, r1, u0, u1 = r1, r, u1, u
    if r0:
        c = pow(r0[-1], p - 2, p)
        r0 = [x * c % p for x in r0]
        u0 = [x * c % p for x in u0]
    return r0, u0


def _divmod_mod_p(p, a, b):
    """(q, r) as int lists with a = q b + r over F_p, for trimmed int
    sequences a and b."""
    r = list(a)
    db, lead_inv = len(b) - 1, pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i] * lead_inv % p
        if c:
            q[i - db] = c
            for j in range(db):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return q, r


def reduction_rows(f, p):
    """(2k - 1, k) int64 array whose row t holds x^t mod f over F_p, for
    a monic f of degree k: a product's convolution coefficients times
    these rows give the product mod f."""
    k = len(f) - 1
    low = np.array(f[:-1], dtype=np.int64)
    rows = list(np.eye(k, dtype=np.int64))
    for _ in range(k - 1):
        cur = rows[-1]
        rows.append((np.concatenate(([0], cur[:-1])) - cur[-1] * low) % p)
    return np.array(rows)


def power(mul, x, e, one):
    """x^e for an integer e >= 0 by square and multiply under mul, which
    must be associative: from the lowest set bit of e up, so that nothing
    is multiplied by one and the last squaring is never made."""
    if not e:
        return one
    while not e & 1:
        x = mul(x, x)
        e >>= 1
    r = x
    while e > 1:
        e >>= 1
        x = mul(x, x)
        if e & 1:
            r = mul(r, x)
    return r


def poly_pow_mod(F, g, e, f):
    """g^e mod f by square and multiply."""
    if F.prime and poly_deg(f) >= 1:
        return _pow_mod_rows(F, g, e, f)
    return power(lambda u, v: poly_mod(F, poly_mul(F, u, v), f),
                 poly_mod(F, g, f), e, (F.one,))


def mul_rows(u, v, rows, p):
    """Product of two length-k int64 vectors of F_p[x]/f, rows =
    reduction_rows(f, p): one convolution times the rows x^t mod f."""
    return np.convolve(u, v) % p @ rows % p


def pow_rows(b, e, rows, p):
    """b^e in F_p[x]/f for a length-k int64 vector b, rows =
    reduction_rows(f, p), by square and multiply under mul_rows."""
    return power(lambda u, v: mul_rows(u, v, rows, p), b, e,
                 np.eye(1, len(b), dtype=np.int64)[0])


def _pow_mod_rows(F, g, e, f):
    """poly_pow_mod over F_p on length-k int64 vectors, k = deg f.  f
    need not be monic, as its monic multiple leaves the same
    remainders."""
    p, k = F.p, poly_deg(f)
    g = poly_mod(F, g, f)
    b = np.zeros(k, dtype=np.int64)
    b[:len(g)] = g
    r = pow_rows(b, e, reduction_rows(poly_monic(F, f), p), p)
    return poly_trim(F, r.tolist())


def _frobenius_rows(F, f, xq):
    """(k, k) int64 array whose row i holds x^(i q) mod f over F_p, for
    monic f of degree k, from xq = x^q mod f.  Over a prime field
    h(x)^q = h(x^q), so h^q mod f is h's coefficient vector times these
    rows (von zur Gathen and Shoup)."""
    p, k = F.p, poly_deg(f)
    rows = reduction_rows(f, p)
    b = np.array(poly_pad(F, xq, k), dtype=np.int64)
    Q = [np.eye(1, k, dtype=np.int64)[0], b]
    while len(Q) < k:
        Q.append(mul_rows(Q[-1], b, rows, p))
    return np.array(Q)


def poly_eval(F, f, x):
    acc = F.zero
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_deriv(F, f):
    out = []
    for i in range(1, len(f)):
        out.append(F.mul(F.scalar(i), f[i]))
    return poly_trim(F, out)


def poly_sort_key(F, f):
    """Total order on polynomials: degree, then coefficients from the
    constant term up."""
    return (len(f), tuple(F.sort_key(c) for c in f))


def is_irreducible(F, f):
    """Ben-Or's test: the distinct-degree loop on monic f, stopped at its
    first factor group, which is f itself exactly when f is irreducible."""
    if poly_deg(f) < 1:
        return False
    f = poly_monic(F, f)
    return next(_distinct_degree(F, f)) == (f, poly_deg(f))


def canonical_modulus(F, d):
    """Lexicographically first monic irreducible of degree d over F.
    For d >= 2 the tails with constant term 0 are skipped: x divides
    those polynomials."""
    import itertools
    base_list = list(F.elements())
    heads = base_list[1:] if d >= 2 else base_list
    for tail in itertools.product(heads, *[base_list] * (d - 1)):
        f = tuple(tail) + (F.one,)
        if is_irreducible(F, f):
            return f
    raise AssertionError("unreachable: irreducibles exist in every degree")


def _pth_root(F, f):
    """Inverse Frobenius on coefficients of f(x) = g(x^p); returns g."""
    p = F.p
    out = []
    for i in range(0, len(f), p):
        if any(c != F.zero for c in f[i + 1:i + p]):
            raise ValueError("polynomial is not a p-th power")
        out.append(F.pow(f[i], F.q // p))
    return poly_trim(F, out)


def _squarefree(F, f, e, out):
    fp = poly_deriv(F, f)
    if not fp:
        _squarefree(F, _pth_root(F, f), e * F.p, out)
        return
    c = poly_gcd(F, f, fp)
    w = poly_divmod(F, f, c)[0]
    i = 1
    while poly_deg(w) > 0:
        y = poly_gcd(F, w, c)
        z = poly_divmod(F, w, y)[0]
        if poly_deg(z) > 0:
            out[z] = out.get(z, 0) + e * i
        w = y
        c = poly_divmod(F, c, y)[0]
        i += 1
    if poly_deg(c) > 0:
        _squarefree(F, _pth_root(F, c), e * F.p, out)


def _distinct_degree(F, f):
    """Yield (product of the irreducible factors of degree d, d), d
    ascending, for monic f, each as soon as gcd(x^(q^d) - x, rest) finds
    it.  For squarefree f the products multiply to f; for any f the first
    one collects the distinct factors of least degree.  h = x^(q^d) is
    kept mod f, which rest divides; over a prime field every power after
    the first is one product by the Frobenius rows of f, built when the
    second is needed."""
    x = poly_x(F)
    h = x
    d = 0
    rest = f
    frob = None
    while poly_deg(rest) >= 2 * (d + 1):
        d += 1
        if F.prime and d > 1:
            if frob is None:
                frob = _frobenius_rows(F, f, h)
            h = poly_trim(F, (np.array(poly_pad(F, h, len(frob))) @ frob
                              % F.p).tolist())
        else:
            h = poly_pow_mod(F, h, F.q, f)
        g = poly_gcd(F, poly_sub(F, h, x), rest)
        if poly_deg(g) > 0:
            yield g, d
            rest = poly_divmod(F, rest, g)[0]
    if poly_deg(rest) > 0:
        yield rest, poly_deg(rest)


def _chirp_tables(F):
    """(pw, b) for the prime field F, cached on it: pw[e] = w^e for
    e < N = p - 1 and b[k] = w^C(k, 2) for k <= 2N, w the least primitive
    root.  pw is built by doubling and b indexes it."""
    if F._chirp is None:
        p, n = F.p, F.p - 1
        primes, t, r = [], n, 2
        while r * r <= t:
            if t % r:
                r += 1
            else:
                primes.append(r)
                while t % r == 0:
                    t //= r
        primes += [t] * (t > 1)
        w = next(g for g in range(1, p)
                 if all(pow(g, n // r, p) != 1 for r in primes))
        pw = np.ones(1, dtype=np.int64)
        while len(pw) < n:
            pw = np.concatenate((pw, pw * pow(w, len(pw), p) % p))
        k = np.arange(2 * n + 1, dtype=np.int64)
        F._chirp = (pw[:n], pw[k * (k - 1) // 2 % n])
    return F._chirp


def _linear_roots(F, f):
    """Every root of a squarefree monic f over F_p that splits into
    linear factors.  With ij = C(i + j, 2) - C(i, 2) - C(j, 2),
    f(w^i) = w^-C(i, 2) sum_j f_j w^-C(j, 2) w^C(i + j, 2) (Bluestein),
    so one exact correlation of the m + 1 scaled coefficients against
    b evaluates f at every unit; its sums stay below (m + 1) p^2."""
    p, m = F.p, poly_deg(f)
    pw, b = _chirp_tables(F)
    n = len(pw)
    j = np.arange(m + 1, dtype=np.int64)
    a = np.array(f, dtype=np.int64) * pw[-(j * (j - 1) // 2) % n] % p
    at_units = np.correlate(b[:n + m], a, "valid") % p
    roots = ([0] if f[0] == 0 else []) + pw[at_units == 0].tolist()
    if len(roots) != m:
        raise AssertionError("f does not split into distinct linear factors")
    return roots


def _equal_degree(F, f, d, rng):
    """Split a squarefree monic product of degree-d factors, yielded
    depth first so that a caller can stop at the first factor.  Over a
    prime field the linear factors are read off at once, from the roots
    that _linear_roots finds by one correlation (Berlekamp's small-p
    search over every point); otherwise Cantor-Zassenhaus splits f."""
    if poly_deg(f) == d:
        yield f
        return
    if F.prime and d == 1:
        for r in _linear_roots(F, f):
            yield (-r % F.p, 1)
        return
    n = poly_deg(f)
    while True:
        g = poly_trim(F, [F.rand(rng) for _ in range(n)])
        if poly_deg(g) < 1:
            continue
        u = poly_gcd(F, g, f)
        if 0 < poly_deg(u) < n:
            h = u
            break
        if F.p != 2:
            t = poly_pow_mod(F, g, (F.q ** d - 1) // 2, f)
            t = poly_sub(F, t, (F.one,))
        else:
            m = F.abs_deg * d
            t, acc = (), poly_mod(F, g, f)
            for _ in range(m):
                t = poly_add(F, t, acc)
                acc = poly_mod(F, poly_mul(F, acc, acc), f)
        h = poly_gcd(F, t, f)
        if 0 < poly_deg(h) < n:
            break
    yield from _equal_degree(F, h, d, rng)
    yield from _equal_degree(F, poly_divmod(F, f, h)[0], d, rng)


def poly_factor(F, f):
    """Monic irreducible factors with multiplicities, sorted by
    (degree, coefficient order).  Leading coefficient is dropped;
    the product of factors rebuilds f up to that unit."""
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(0x5EED)
    f = poly_monic(F, f)
    if poly_deg(f) == 0:
        return []
    sqf = {}
    _squarefree(F, f, 1, sqf)
    found = []
    for g, mult in sqf.items():
        for prod, d in _distinct_degree(F, g):
            for irr in _equal_degree(F, prod, d, rng):
                found.append((poly_monic(F, irr), mult))
    found.sort(key=lambda fm: poly_sort_key(F, fm[0]))
    return found


class PolyRing:
    """Commutative-ring context over F[x], for division-free algorithms."""

    def __init__(self, F):
        self.F = F
        self.zero = ()
        self.one = (F.one,)

    def add(self, a, b):
        return poly_add(self.F, a, b)

    def neg(self, a):
        return poly_neg(self.F, a)

    def mul(self, a, b):
        return poly_mul(self.F, a, b)
