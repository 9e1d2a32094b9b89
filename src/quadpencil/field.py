"""Finite field contexts with plain-data elements.

A prime-field element is an int in [0, p); an extension element is a
fixed-length tuple of base-field elements, constant coefficient first.
All arithmetic goes through the context object, so matrices stay nested
tuples that numpy can ingest.  Towers are allowed: an extension's base
may itself be an extension.

Scalar arithmetic takes one of three paths.  Prime fields use Python
ints.  An absolute extension GF(p^k) with q <= TABLE_MAX_Q multiplies,
inverts and raises to powers through log/antilog tables, built on first
use and kept on the field object (extension() keeps one object per
modulus).  Other extensions multiply by schoolbook convolution (an
absolute one of degree >= 3 by one np.convolve and the rows below,
`poly.mul_rows`), raise to powers by square and multiply (an absolute
one of degree >= 3 by `poly.pow_rows`, on one int64 vector throughout),
and invert by `poly.poly_xgcd`, which runs on int lists over a prime
base.  Every absolute extension of degree >= 2 carries `red_rows`, the
rows x^t mod f for t < 2k - 1: they reduce a product's convolution, and
row a of the matrix of multiplication by b, which `linalg` uses, is b
times rows a to a + k - 1.

A prime field also caches the chirp tables of `poly._linear_roots`
(powers of its least primitive root), built on first use.

`field_sqrt_class` is Tonelli-Shanks with one exponentiation per
element, square or not: the field caches q - 1 = 2^s t, z^t for its
first non-square z, and z^(-(t + 1)/2) and z^(-t).  A non-square x shows
up inside the loop, as x^t of order 2^s; those two factors then turn
the state of x into that of x / z, so the same exponentiation yields a
root of x / z.  `field_sqrt` is its answer for squares, None otherwise.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import poly as _poly


#: Largest absolute extension given log/antilog tables.  The bound stays
#: small: a pencil over F_31 can have hundreds of residue fields of order
#: 961, and tables there would cost memory for little gain.
TABLE_MAX_Q = 256


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FiniteField:
    """Arithmetic context for F_q.

    FiniteField(p) builds the prime field; base.extension(modulus) builds
    k[t]/(modulus) with modulus a monic irreducible tuple over base,
    constant coefficient first, once per modulus.
    """

    def __init__(self, p, base=None, modulus=None):
        if base is None:
            if p >= 1 << 16:
                raise ValueError("p must be < 2^16")
            if not _is_prime(p):
                raise ValueError("p = %r is not prime" % (p,))
            self.p = p
            self.base = None
            self.modulus = None
            self.deg = 1
            self.q = p
            self.abs_deg = 1
            self.zero = 0
            self.one = 1
        else:
            mod = tuple(modulus)
            if len(mod) < 2 or mod[-1] != base.one:
                raise ValueError("modulus must be monic of degree >= 1")
            if not _poly.is_irreducible(base, mod):
                raise ValueError("modulus is not irreducible over the base")
            self.p = base.p
            self.base = base
            self.modulus = mod
            self.deg = len(mod) - 1
            self.q = base.q ** self.deg
            self.abs_deg = base.abs_deg * self.deg
            self.zero = (base.zero,) * self.deg
            self.one = (base.one,) + (base.zero,) * (self.deg - 1)
        self.prime = self.base is None
        self._extensions = {}
        self._nonsquare = None
        self._tonelli = None
        self._chirp = None
        self._two_squares = None
        self.red_rows = None
        self._small = False
        self._log = self._exp = None
        if self.base is not None and self.base.prime and self.deg >= 2:
            self.red_rows = _poly.reduction_rows(self.modulus, self.p)
            self._small = self.q <= TABLE_MAX_Q

    # -- construction ------------------------------------------------

    def extension(self, modulus):
        """Extension of self by a monic irreducible modulus (tuple over self).
        Each modulus is checked and built once; later calls return the
        same object, so its caches are shared."""
        mod = tuple(modulus)
        K = self._extensions.get(mod)
        if K is None:
            K = self._extensions[mod] = FiniteField(self.p, self, mod)
        return K

    def _key(self):
        if self.prime:
            return (self.p,)
        return self.base._key() + (self.modulus,)

    def __eq__(self, other):
        return isinstance(other, FiniteField) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.prime:
            return "F_%d" % self.p
        return "F_%d^%d" % (self.p, self.abs_deg)

    # -- element arithmetic -------------------------------------------

    def scalar(self, c):
        """Image of the integer c."""
        r = c % self.p
        if self.prime:
            return r
        return self.lift(self.base.scalar(r))

    def lift(self, x):
        """Embed an element of the immediate base field."""
        return (x,) + (self.base.zero,) * (self.deg - 1)

    def add(self, a, b):
        if self.prime:
            return (a + b) % self.p
        base = self.base
        return tuple(base.add(u, v) for u, v in zip(a, b))

    def sub(self, a, b):
        if self.prime:
            return (a - b) % self.p
        base = self.base
        return tuple(base.sub(u, v) for u, v in zip(a, b))

    def neg(self, a):
        if self.prime:
            return (-a) % self.p
        base = self.base
        return tuple(base.neg(u) for u in a)

    def mul(self, a, b):
        if self.prime:
            return a * b % self.p
        if self._small:
            if a == self.zero or b == self.zero:
                return self.zero
            log = self._log or self._tables()
            return self._exp[log[a] + log[b]]
        return self._poly_mul(a, b)

    def _poly_mul(self, a, b):
        """Product by convolution and reduction modulo the modulus."""
        # at degree 2 the reduction rows cost more than the schoolbook
        if self.deg >= 3 and self.red_rows is not None:
            return tuple(_poly.mul_rows(np.asarray(a, dtype=np.int64),
                                        np.asarray(b, dtype=np.int64),
                                        self.red_rows, self.p).tolist())
        base, d = self.base, self.deg
        t = [base.zero] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai == base.zero:
                continue
            for j, bj in enumerate(b):
                if bj != base.zero:
                    t[i + j] = base.add(t[i + j], base.mul(ai, bj))
        return self._reduce(t)

    def _reduce(self, t):
        base, d, mod = self.base, self.deg, self.modulus
        for i in range(len(t) - 1, d - 1, -1):
            c = t[i]
            if c != base.zero:
                for j in range(d):
                    t[i - d + j] = base.sub(t[i - d + j], base.mul(c, mod[j]))
        return tuple(t[:d])

    def _tables(self):
        """Discrete logs to the first primitive element in elements()
        order, as a dict on the units, and its powers listed twice over,
        so that a sum of two logs indexes them directly.  Built once, with
        _poly_mul."""
        for g in self.elements():
            if g == self.zero:
                continue
            powers, x = [self.one], g
            while x != self.one:
                powers.append(x)
                x = self._poly_mul(x, g)
            if len(powers) == self.q - 1:
                break
        self._exp = tuple(powers * 2)
        self._log = {x: i for i, x in enumerate(powers)}
        return self._log

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.prime:
            return pow(a, self.p - 2, self.p)
        if self._small:
            log = self._log or self._tables()
            return self._exp[self.q - 1 - log[a]]
        g, u = _poly.poly_xgcd(self.base, _poly.poly_trim(self.base, a),
                               self.modulus)
        if g != (self.base.one,):
            raise ValueError("modulus not irreducible")
        return _poly.poly_pad(self.base, u, self.deg)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.prime:
            return pow(a, e, self.p)
        if self._small and a != self.zero:
            log = self._log or self._tables()
            return self._exp[log[a] * e % (self.q - 1)]
        if self.deg >= 3 and self.red_rows is not None:
            # _poly_mul's convolution path, on one vector throughout
            return tuple(_poly.pow_rows(np.array(a, dtype=np.int64), e,
                                        self.red_rows, self.p).tolist())
        return _poly.power(self.mul, a, e, self.one)

    def is_zero(self, a):
        return a == self.zero

    def is_unit(self, a):
        """Alias so fields and local rings share generic elimination code."""
        return a != self.zero

    # -- enumeration and ordering --------------------------------------

    def elements(self):
        """All elements in ascending lexicographic order."""
        if self.prime:
            yield from range(self.p)
        else:
            base_list = list(self.base.elements())
            yield from itertools.product(base_list, repeat=self.deg)

    def rand(self, rng):
        if self.prime:
            return rng.randrange(self.p)
        return tuple(self.base.rand(rng) for _ in range(self.deg))

    def sort_key(self, a):
        if self.prime:
            return a
        base = self.base
        return tuple(base.sort_key(u) for u in a)

    # -- squares -------------------------------------------------------

    def is_square(self, a):
        if self.p == 2:
            return True
        if self.is_zero(a):
            return True
        if self.prime:
            return pow(a, (self.p - 1) // 2, self.p) == 1
        # squares are detected by the norm down the tower: the Euler
        # exponent factors through (q^d - 1)/(q - 1)
        base = self.base
        nz = [j for j, u in enumerate(a) if u != base.zero]
        if len(nz) == 1:
            # monomial c zeta^j: its norm is c^deg N(zeta)^j
            j = nz[0]
            nzeta = self.modulus[0]
            if self.deg % 2:
                nzeta = base.neg(nzeta)
            nm = base.mul(base.pow(a[j], self.deg), base.pow(nzeta, j))
            return base.is_square(nm)
        nm, conj = a, a
        for _ in range(self.deg - 1):
            conj = self.pow(conj, self.base.q)
            nm = self.mul(nm, conj)
        if any(c != self.base.zero for c in nm[1:]):
            raise AssertionError("norm left the base field")
        return self.base.is_square(nm[0])


def field_nonsquare(ctx):
    """Lexicographically smallest non-square unit of the field."""
    if ctx.p == 2:
        raise ValueError("every element of a characteristic-2 field is a square")
    if ctx._nonsquare is None:
        for x in ctx.elements():
            if not ctx.is_zero(x) and not ctx.is_square(x):
                ctx._nonsquare = x
                break
    return ctx._nonsquare


def field_sqrt_class(ctx, x):
    """(s, nonsquare): s^2 = x, or s^2 = x / Delta when x is a non-square,
    Delta = field_nonsquare(ctx); s is the smaller root by sort_key.  One
    exponentiation either way.  Odd characteristic only."""
    if ctx.p == 2:
        raise ValueError("square roots unsupported in characteristic 2")
    if ctx.is_zero(x):
        return x, False
    # Tonelli-Shanks with q - 1 = 2^s t, t odd, and z = Delta
    if ctx._tonelli is None:
        s, t = 0, ctx.q - 1
        while t % 2 == 0:
            s, t = s + 1, t // 2
        z = field_nonsquare(ctx)
        w = ctx.pow(z, (t - 1) // 2)
        zr = ctx.mul(z, w)
        zt = ctx.mul(zr, w)
        # z^t, then z^(-(t + 1)/2) and z^(-t), which move r and u below
        # to those of x / z
        ctx._tonelli = (s, t, zt, ctx.inv(zr), ctx.inv(zt))
    m, t, c, zr_inv, zt_inv = ctx._tonelli
    # the one exponentiation: r = x^((t + 1)/2) and u = x^t
    w = ctx.pow(x, (t - 1) // 2)
    r = ctx.mul(x, w)
    u = ctx.mul(r, w)
    nonsquare = False
    while u != ctx.one:
        i, v = 0, u
        while v != ctx.one:
            v = ctx.mul(v, v)
            i += 1
        if i == m:
            # u = x^t has order 2^s exactly when x is a non-square; x / z
            # is a square, so this happens at most once
            nonsquare = True
            r, u = ctx.mul(r, zr_inv), ctx.mul(u, zt_inv)
            continue
        b = c
        for _ in range(m - i - 1):
            b = ctx.mul(b, b)
        m = i
        c = ctx.mul(b, b)
        u = ctx.mul(u, c)
        r = ctx.mul(r, b)
    # of the two roots the smaller by sort_key, which is also the first
    # in elements() order
    return min(r, ctx.neg(r), key=ctx.sort_key), nonsquare


def field_sqrt(ctx, x):
    """Square root with the lexicographically smaller representative, or
    None when x is a non-square.  Odd characteristic only."""
    s, nonsquare = field_sqrt_class(ctx, x)
    return None if nonsquare else s


def make_field(p, degree=1, modulus=None):
    """Absolute field F_{p^degree}; modulus is over F_p, constant first,
    canonical (lexicographically first) when omitted."""
    base = FiniteField(p)
    if degree == 1:
        if modulus is not None:
            raise ValueError("degree-1 fields take no modulus")
        return base
    if not 2 <= degree <= 8:
        raise ValueError("extension degree must be in [2, 8]")
    if modulus is None:
        mod = _poly.canonical_modulus(base, degree)
    else:
        mod = tuple(c % p for c in modulus)
        if len(mod) != degree + 1:
            raise ValueError("modulus length must be degree + 1")
    return base.extension(mod)


def is_int(v):
    """True for a JSON integer; bools are ints in Python but not here."""
    return isinstance(v, int) and not isinstance(v, bool)


def parse_field(doc):
    """Field from a JSON-style dict {"p", "degree", "modulus"}."""
    if not isinstance(doc, dict):
        raise ValueError("field description must be an object")
    p = doc.get("p")
    degree = doc.get("degree", 1)
    modulus = doc.get("modulus")
    if not is_int(p) or not is_int(degree):
        raise ValueError("field parameters must be integers")
    if modulus is not None:
        if (not isinstance(modulus, list)
                or not all(is_int(c) for c in modulus)):
            raise ValueError("modulus must be an integer array")
        if not all(0 <= c < p for c in modulus):
            raise ValueError("modulus entries must be reduced mod p")
    return make_field(p, degree, modulus)


def emit_field(ctx):
    """JSON-style dict for an absolute field."""
    if ctx.prime:
        return {"p": ctx.p, "degree": 1, "modulus": None}
    if not ctx.base.prime:
        raise ValueError("only absolute fields serialize")
    return {"p": ctx.p, "degree": ctx.deg, "modulus": list(ctx.modulus)}


def parse_elem(ctx, v):
    """Element from its JSON form: bare int (degree 1) or int array."""
    if ctx.prime:
        if not is_int(v):
            raise ValueError("degree-1 elements must be bare integers")
        if not 0 <= v < ctx.p:
            raise ValueError("element %r out of range" % (v,))
        return v
    if not isinstance(v, list) or len(v) != ctx.deg:
        raise ValueError("elements must be arrays of length %d" % ctx.deg)
    if not all(is_int(c) and 0 <= c < ctx.p for c in v):
        raise ValueError("element coefficients must be reduced mod p")
    return tuple(v)


def emit_elem(ctx, x):
    if ctx.prime:
        return x
    return list(x)
