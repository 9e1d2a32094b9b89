"""Truncated local rings R_ell = K[pi]/(pi^ell) over a finite field K.

Elements are tuples of K-elements of fixed length ell, coefficient of
pi^0 first.  The ring context mirrors the field interface closely enough
that the generic polynomial and elimination routines apply unchanged.
ring_sqrt returns the square class of a unit with a root of it or of it
over the canonical non-square, from one square root in K and, when
ell > 1, one Hensel lift.
"""

from __future__ import annotations

from . import field as _field
from . import poly as _poly


class LocalRing:
    def __init__(self, K, ell):
        if ell < 1:
            raise ValueError("ell must be at least 1")
        self.K = K
        self.ell = ell
        self.p = K.p
        self.prime = False
        self.red_rows = None
        self.zero = (K.zero,) * ell
        self.one = (K.one,) + (K.zero,) * (ell - 1)

    def _key(self):
        return (self.K._key(), self.ell)

    def __eq__(self, other):
        return isinstance(other, LocalRing) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%r[pi]/pi^%d" % (self.K, self.ell)

    # -- construction ---------------------------------------------------

    def scalar(self, c):
        return self.from_field(self.K.scalar(c))

    def from_field(self, a):
        return (a,) + (self.K.zero,) * (self.ell - 1)

    # -- arithmetic -------------------------------------------------------

    def add(self, a, b):
        K = self.K
        return tuple(K.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        K = self.K
        return tuple(K.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        K = self.K
        return tuple(K.neg(x) for x in a)

    def mul(self, a, b):
        K, ell = self.K, self.ell
        out = [K.zero] * ell
        for i, ai in enumerate(a):
            if ai == K.zero:
                continue
            for j in range(ell - i):
                bj = b[j]
                if bj != K.zero:
                    out[i + j] = K.add(out[i + j], K.mul(ai, bj))
        return tuple(out)

    def is_unit(self, a):
        return a[0] != self.K.zero

    def is_zero(self, a):
        return a == self.zero

    def inv(self, a):
        """Power series inversion of a unit."""
        if not self.is_unit(a):
            raise ZeroDivisionError("inverse of a non-unit")
        K, ell = self.K, self.ell
        c0 = K.inv(a[0])
        out = [c0] + [K.zero] * (ell - 1)
        for j in range(1, ell):
            acc = K.zero
            for i in range(1, j + 1):
                acc = K.add(acc, K.mul(a[i], out[j - i]))
            out[j] = K.neg(K.mul(c0, acc))
        return tuple(out)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _poly.power(self.mul, a, e, self.one)

    # -- structure maps ----------------------------------------------------

    def div_pi(self, a, j=1):
        """Exact division by pi^j; the quotient is only defined mod
        pi^(ell-j), so the top j coefficients are zero-filled."""
        if any(c != self.K.zero for c in a[:j]):
            raise ValueError("element not divisible by pi^%d" % j)
        return a[j:] + (self.K.zero,) * j

    def retract(self, a, m):
        """Image in R_m for m <= ell (drop high coefficients)."""
        return a[:m]

    def lift_from(self, a):
        """Lift a shorter tuple (an R_m element, m <= ell) by zero-padding."""
        return tuple(a) + (self.K.zero,) * (self.ell - len(a))


def hensel_root(R, g, x0):
    """Exact root of the polynomial g over R near x0, by Newton iteration.
    Requires g(x0) = 0 mod pi and g'(x0) a unit."""
    gp = _poly.poly_deriv(R, g)
    v = _poly.poly_eval(R, g, x0)
    if v[0] != R.K.zero:
        raise ValueError("x0 is not a root modulo pi")
    dv = _poly.poly_eval(R, gp, x0)
    if not R.is_unit(dv):
        raise ValueError("derivative not a unit at x0 (Hensel fails)")
    x = x0
    steps = max(1, R.ell).bit_length() + 1
    while not R.is_zero(v):
        if not steps:
            raise AssertionError("Newton failed to converge")
        steps -= 1
        x = R.sub(x, R.mul(v, R.inv(dv)))
        v = _poly.poly_eval(R, g, x)
        if not R.is_zero(v):
            dv = _poly.poly_eval(R, gp, x)
    return x


def ring_sqrt(R, a):
    """(s, nonsquare) for a unit a in odd characteristic: s^2 = a, or
    s^2 = a / Delta when the residue of a is a non-square, Delta the
    canonical non-square of K.  s is lifted from the smaller residue
    root, which one exponentiation finds in either case; at ell = 1 that
    root is already exact, so no lift runs."""
    if R.K.p == 2:
        raise ValueError("square roots unsupported in characteristic 2")
    if not R.is_unit(a):
        raise ValueError("ring_sqrt expects a unit")
    r0, nonsquare = _field.field_sqrt_class(R.K, a[0])
    if R.ell == 1:
        return (r0,), nonsquare
    if nonsquare:
        a = R.div(a, R.from_field(_field.field_nonsquare(R.K)))
    g = (R.neg(a), R.zero, R.one)
    return hensel_root(R, g, R.from_field(r0)), nonsquare
