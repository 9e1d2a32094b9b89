"""Reference oracles the tests compare the package against: pointwise
evaluation of forms and pencils, place data read straight off the
characteristic form, and the exhaustive PGL_2 sweep for the homographies
relating two binary forms."""

from quadpencil import linalg as la
from quadpencil import poly as pl
from quadpencil.ip2s import (SWEEP_BUDGET, _signature_of_descriptor,
                             _candidate_pool)
from quadpencil.pencil import INF, Homography, Pencil, char_poly
from quadpencil.regular import place_key


def poly_from_ints(F, coeffs):
    return pl.poly_trim(F, [F.scalar(c) for c in coeffs])


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


def factor_signature(P):
    """Places of the characteristic form bucketed by degree and exponent,
    by factoring it directly; the pencil must be regular."""
    F = P.ctx
    cp = char_poly(P)
    if cp.is_zero():
        raise ValueError("characteristic form is zero; strip the "
                         "singular part first")
    coeffs = cp.coeffs
    top = max(i for i, c in enumerate(coeffs) if c != F.zero)
    out = {}
    inf_exp = cp.degree - top
    if inf_exp:
        out[(1, inf_exp)] = (INF,)
    affine = pl.poly_trim(F, coeffs[:top + 1])
    if pl.poly_deg(affine) > 0:
        for f, e in pl.poly_factor(F, affine):
            de = (pl.poly_deg(f), e)
            out[de] = out.get(de, ()) + (f,)
    return {de: tuple(sorted(places, key=lambda p: place_key(F, p)))
            for de, places in out.items()}


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


def regular_form(desc):
    """Characteristic form of the regular part of a canonical pencil,
    which sits after the Kronecker blocks."""
    P = desc.canonical
    idx = range(sum(2 * h + 1 for h in desc.kronecker_indices), P.n)
    return char_poly(Pencil.make(
        P.ctx, tuple(tuple(P.b_inf[i][j] for j in idx) for i in idx),
        tuple(tuple(P.b_0[i][j] for j in idx) for i in idx)))


def candidate_pool(F, da, db):
    """The ip2s candidate pool for canonical descriptors da of A and db
    of B: homographies carrying the places of B onto those of A."""
    return _candidate_pool(F, _signature_of_descriptor(F, db),
                           _signature_of_descriptor(F, da))
