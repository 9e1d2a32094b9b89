"""Pencil equivalence up to reparametrization of the projective line.

The two-secret problem asks for an invertible S and a homography g with
S^t (twist(A, g)) S = B.  Twisting moves no subspace: the primary
component of twist(A, g) at a place is A's component at the image of
that place under g, with the same module structure, and scaling the
pencil changes only square-class characters.  So g must carry each place
of B onto a place of A of the same degree and the same layer ranks (the
number of free layers of each nilpotency order ell).  A finite candidate
set is pinned down from these place classes.  A and B are canonicalized
once; each candidate is checked by carrying A's layers over by g, and
only the winner's twist is canonicalized, to build S.  The candidates
are PGL_2 representatives; as twist(A, c g) = c twist(A, g) and mu^2 g
twists A to a pencil congruent to twist(A, g), the pool tried as it is
and then times one non-square covers all of GL_2.

The transport rule works in F alone.  A place p of degree k of
twist(A, g), with g(p) = t a place of A, takes the layers (ell, r) of A
at t.  Substituting g into the binary form of t, INF being the form mu,
gives c times the form of p for one scalar c.  Let s = -det g when
exactly one of p and t is INF and s = det g otherwise, and N = s
det(g)^(k-1) / c.  N is the norm N_{K/F}(u zeta + v) for a root zeta of
p, where (u, v) is the row (a, b) of g = ((a, b), (d, e)) when t is INF
and (d, e) otherwise, and N = u when p is INF.  With eps 1 on
non-squares and 0 on squares, the layer flips its character exactly
when r is odd and eps(N) + ell k eps(s) is odd.

Pinning is linear algebra over the base field.  "g = ((a, b), (d, e))
sends (x0:x1) to (y0:y1)" is the condition (a x0 + b x1) y1 - (d x0 +
e x1) y0 = 0, linear in the entries of g.  For a place of degree d, x is
its root (the class of t) in its residue field K, F itself when d = 1,
and y a root of the target place in K; the condition's d coordinates
over F are d rows.  The target's roots in K are one root and its
Frobenius conjugates.  The root of a quadratic target is read off one
square root in F; over a prime F, that of a target t of degree d >= 3
off a primitive idempotent of F[z, y]/(p(z), t(y)), an algebra held as
(d, d) int64 arrays.  The candidates for one choice of target roots are
the invertible projective points of the nullspace of the stacked rows.

The pinned places are the set S of at most three places that minimizes
one cost: the product over S of deg(p) |class(p)| (the target roots to
choose from) times (q^k - 1)/(q - 1) with k = 4 - min(3, sum of deg p)
(the projective points of a k-dimensional nullspace).  The empty set is
the sweep of all of PGL_2.  A class is the set of places of one degree
and one set of layer ranks.  The cost counts every projective point of
each nullspace, invertible or not.  The pool does not depend on which
places are pinned: every choice enumerates each homography that carries
the places of one pencil onto those of the other class by class, and
the filter keeps exactly those.  A candidate maps each pinned place onto
one of its targets by construction, so only the other places are
filtered.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from . import linalg as _la
from . import poly as _poly
from .field import field_nonsquare, field_sqrt
from .pencil import BinaryForm, Homography, INF, twist
from .regular import (canonical_witness, canonicalize, coords, from_coords,
                      place_key, residue_field)

#: Hard ceiling on the intersected candidate set; beyond it the solver
#: reports resource exhaustion rather than truncating.
CANDIDATE_BUDGET = 100_000

#: Largest candidate enumeration (and largest PGL_2 sweep) attempted.
SWEEP_BUDGET = 1_000_000


# -- place signatures and layer transport ----------------------------------


def _layers(desc):
    """The layers of a canonical descriptor as a dict mapping (place, ell)
    to (r, delta): r free layers of order ell at the place, of either
    character, and delta True when one of them carries the non-square."""
    out = {}
    for b in desc.local_blocks:
        r, delta = out.get((b.place, b.ell), (0, False))
        out[b.place, b.ell] = (r + b.mult, delta or b.character == "D")
    return out


def _signature_of_descriptor(F, desc):
    """Places of the characteristic form bucketed by degree and layer
    ranks: a dict mapping (d, ((ell, r_ell), ...)) to a sorted tuple of
    places, each a monic irreducible tuple or INF.  r_ell counts the free
    layers of order ell at the place, of either character, ell ascending.
    A twist and a scalar carry a place to a place with the same degree
    and layer ranks, but may change the characters, so those are left
    out."""
    ranks = {}
    for (place, ell), (r, _) in _layers(desc).items():
        ranks.setdefault(place, []).append((ell, r))
    out = {}
    for place, layers in ranks.items():
        key = (_place_degree(place), tuple(sorted(layers)))
        out.setdefault(key, []).append(place)
    return {de: tuple(sorted(places, key=lambda p: place_key(F, p)))
            for de, places in out.items()}


def _place_degree(place):
    return 1 if place is INF else _poly.poly_deg(place)


def _image(F, h, place):
    """(p, c) with form(place) o h = c form(p): p is the place whose roots
    are h^-1(x) for the roots x of place, read off the place's binary
    form, INF being mu, with h substituted."""
    form = (BinaryForm.make(F, 1, (F.one, F.zero)) if place is INF
            else BinaryForm.from_affine(F, place, _poly.poly_deg(place)))
    moved = form.compose(h)
    c = moved.coeffs[-1]
    if c == F.zero:
        return INF, moved.coeffs[0]
    return moved.normalized().coeffs, c


def _twisted_layers(F, layers, g):
    """The layers of twist(A, g) from the layers of A, by the transport
    rule of the module docstring; every square class is taken in F."""
    (a, b), (d, e) = g.m
    det = F.sub(F.mul(a, e), F.mul(b, d))
    out = {}
    for (t, ell), (r, delta) in layers.items():
        p, c = _image(F, g, t)
        k = _place_degree(p)
        s = det if (p is INF) == (t is INF) else F.neg(det)
        norm = F.div(F.mul(s, F.pow(det, k - 1)), c)
        odd = (not F.is_square(norm)) + ell * k * (not F.is_square(s))
        out[p, ell] = (r, delta != (r % 2 == 1 and odd % 2 == 1))
    return out


# -- linear pinning -----------------------------------------------------------


def _homography_key(F, g):
    return tuple(F.sort_key(e) for row in g.m for e in row)


def _place_root(F, place):
    """(K, x): the field holding the roots of a place, and one root as a
    projective point over it: INF is (1:0) over F, and another place's
    root is the class of t in its residue field K (F at a rational one)."""
    if place is INF:
        return F, (F.one, F.zero)
    K = residue_field(F, place)
    t = _poly.poly_mod(F, _poly.poly_x(F), place)
    return K, (from_coords(F, K, _poly.poly_pad(F, t, len(place) - 1)), K.one)


def _target_roots(F, K, place):
    """Every root in K of a place t of the same degree d as K over F, in
    odd characteristic: one root y, and its conjugates y^q, ...,
    y^(q^(d-1)).  For d = 2, y is read off the discriminants: with K =
    F[z]/(z^2 + b_p z + c_p), (2z + b_p)^2 is disc(p), so a root of the
    place y^2 + b_t y + c_t is (-b_t + s (2z + b_p))/2 with s^2 =
    disc(t)/disc(p) in F, a square because neither discriminant is.  For
    d >= 3 over a prime F, y comes from a primitive idempotent of
    F[z, y]/(p(z), t(y)) (see _idempotent_root); over a tower, from the
    first linear factor of the equal-degree split."""
    if K is F:
        return [_place_root(F, place)[1]]
    if K.deg == 2:
        (c_p, b_p, _), (c_t, b_t, _) = K.modulus, place
        four = F.scalar(4)
        s = field_sqrt(F, F.div(F.sub(F.mul(b_t, b_t), F.mul(four, c_t)),
                                F.sub(F.mul(b_p, b_p), F.mul(four, c_p))))
        half = F.inv(F.scalar(2))
        roots = [(F.mul(half, F.sub(F.mul(s, b_p), b_t)), s)]
    elif F.prime:
        roots = [_idempotent_root(F, K, place)]
    else:
        lin = next(_poly._equal_degree(K, tuple(K.lift(c) for c in place),
                                       1, random.Random(0x5EED)))
        roots = [K.neg(lin[0])]
    for _ in range(K.deg - 1):
        roots.append(K.pow(roots[-1], F.q))
    return [(y, K.one) for y in roots]


def _idempotent_root(F, K, place):
    """A root in K = F[z]/p of a place t of degree d = deg p >= 3, F
    prime and odd.  A = K[y]/t(y) is K^d, one factor per root c, so for a
    random a in A, b = a^((q^d - 1)/2) is +-1 on almost every factor and
    E (1 +- b)/2 drops the factors of the other sign from the support of
    E.  Once the support of E is one root c, E is a multiple of the
    Lagrange idempotent t(y)/((y - c) t'(c)), whose coefficients of y^(d-1)
    and y^(d-2) are 1/t'(c) and (c + t_(d-1))/t'(c).  A candidate read off
    E is returned only when it is a root.  An element of A is a (d, d)
    int64 array, row j the coefficient of y^j as an element of K."""
    d, p = K.deg, F.p
    w = 2 * d - 1
    zred, yred = K.red_rows, _poly.reduction_rows(place, p)

    def mul(a, b):
        # one convolution of the rows laid out with stride 2d - 1 is the
        # 2-D convolution; then reduce z mod p(z) and y mod t(y)
        pa = np.zeros((d, w), np.int64)
        pb = np.zeros((d, w), np.int64)
        pa[:, :d], pb[:, :d] = a, b
        c = np.convolve(pa.ravel(), pb.ravel())[:w * w].reshape(w, w) % p
        return yred.T @ (c @ zred % p) % p

    one = np.zeros((d, d), np.int64)
    one[0, 0] = 1
    half = (p + 1) // 2
    tK = tuple(K.lift(c) for c in place)
    rng = random.Random(0x5EED)
    E = one
    while True:
        a = np.array([[rng.randrange(p) for _ in range(d)]
                      for _ in range(d)], dtype=np.int64)
        b = _poly.power(mul, a, (F.q ** d - 1) // 2, one)
        E1 = mul(E, (one + b) * half % p)
        E = E1 if E1.any() else mul(E, (one - b) * half % p)
        lead = tuple(E[d - 1].tolist())
        if lead != K.zero:
            c = K.sub(K.div(tuple(E[d - 2].tolist()), lead), tK[d - 1])
            if _poly.poly_eval(K, tK, c) == K.zero:
                return c


def _pin_rows(F, K, x, y):
    """Rows over F of the condition that g sends x to y."""
    (x0, x1), (y0, y1) = x, y
    coeffs = (K.mul(x0, y1), K.mul(x1, y1),
              K.neg(K.mul(x0, y0)), K.neg(K.mul(x1, y0)))
    return tuple(zip(*(coords(F, K, c) for c in coeffs)))


def _combinations(F, lead, multiples):
    """lead plus one vector from each list in multiples, every way."""
    if not multiples:
        yield lead
        return
    for m in multiples[0]:
        yield from _combinations(F, tuple(map(F.add, lead, m)),
                                 multiples[1:])


def _projective_homographies(F, basis):
    """The invertible projective points of the span of basis, vectors
    (a, b, d, e), as normalized homographies: each basis vector plus
    every combination of the vectors after it."""
    elems = list(F.elements())
    multiples = [[tuple(F.mul(c, t) for t in w) for c in elems]
                 for w in basis[1:]]
    for i, lead in enumerate(basis):
        for a, b, d, e in _combinations(F, lead, multiples[i:]):
            if F.mul(a, e) != F.mul(b, d):
                yield Homography.make(F, ((a, b), (d, e))).normalized()


def _pinned(F, pins):
    """Every homography sending the root of each pinning place to a root
    of one of its options, distinct places to distinct options.  pins
    lists (place, options); with no pins this is all of PGL_2(F)."""
    blocks = []
    for place, opts in pins:
        K, x = _place_root(F, place)
        blocks.append({t: [_pin_rows(F, K, x, y)
                           for y in _target_roots(F, K, t)] for t in opts})
    for targets in itertools.product(*blocks):
        if len(set(targets)) < len(targets):
            continue
        for rows in itertools.product(
                *(b[t] for b, t in zip(blocks, targets))):
            basis = _la.nullspace(F, sum(rows, ()), ncols=4)
            yield from _projective_homographies(F, basis)


# -- the solver ---------------------------------------------------------------


def _candidate_pool(F, sig_src, sig_dst):
    """Candidates mapping the places of sig_src onto those of sig_dst,
    pinned by the cheapest set of places and filtered by the others."""
    if sorted(sig_src) != sorted(sig_dst) or any(
            len(sig_src[de]) != len(sig_dst[de]) for de in sig_src):
        return ()
    q = F.q
    classes = sorted(sig_src)

    def pin_order(item):
        return (len(sig_dst[item[1]]), item[1], place_key(F, item[0]))

    # a pin set's cost depends only on the degrees and class sizes of its
    # places, so the three places of each degree in the smallest classes
    # are enough to choose from
    by_degree = {}
    for de in classes:
        by_degree.setdefault(de[0], []).extend((p, de) for p in sig_src[de])
    items = [it for group in by_degree.values()
             for it in sorted(group, key=pin_order)[:3]]

    def cost(pins):
        # targets times the points of the nullspace left by the pins
        k = 4 - min(3, sum(de[0] for _, de in pins))
        return math.prod(de[0] * len(sig_dst[de]) for _, de in pins) * (
            (q ** k - 1) // (q - 1))

    pins = min((s for r in range(4)
                for s in itertools.combinations(items, r)), key=cost)
    if cost(pins) > SWEEP_BUDGET:
        raise ValueError("candidate enumeration exceeds the search budget")
    dst = {de: set(sig_dst[de]) for de in classes}
    pinned = {p for p, _ in pins}
    free = [(p, de) for de in classes for p in sig_src[de] if p not in pinned]
    out = []
    for g in _pinned(F, [(p, sig_dst[de]) for p, de in pins]):
        ginv = g.inverse()
        if all(_image(F, ginv, p)[0] in dst[de] for p, de in free):
            out.append(g)
            if len(out) > CANDIDATE_BUDGET:
                raise ValueError("candidate homographies exceed the "
                                 "search budget")
    return tuple(sorted(out, key=lambda g: _homography_key(F, g)))


def ip2s_solve(A, B):
    """(S, g) with S^t twist(A, g) S = B, or None when no pair exists.
    Among the candidates whose transported layers are those of B the
    homography with the smallest matrix wins, first as they are, then
    times field_nonsquare(F).  Only the winner's twist is canonicalized,
    to build S; a winner whose canonical key disagrees with its
    transported layers raises AssertionError.  Candidates come from the
    regular parts; the final check runs on the full pencils."""
    if A.ctx != B.ctx or A.n != B.n:
        raise ValueError("pencils live in different spaces")
    F = A.ctx
    da = canonicalize(A)
    db = canonicalize(B)
    if da.kronecker_indices != db.kronecker_indices:
        return None
    sig_a = _signature_of_descriptor(F, da)
    sig_b = _signature_of_descriptor(F, db)
    if not sig_b:
        S = canonical_witness(A, B, da, db)
        return None if S is None else (S, Homography.identity(F))
    layers_a, layers_b = _layers(da), _layers(db)
    pool = _candidate_pool(F, sig_b, sig_a)
    nsq = field_nonsquare(F)
    for g in itertools.chain(pool, (Homography(F, _la.mat_scale(F, nsq, h.m))
                                    for h in pool)):
        if _twisted_layers(F, layers_a, g) == layers_b:
            At = twist(A, g)
            S = canonical_witness(At, B, canonicalize(At), db)
            if S is None:
                raise AssertionError("transported layers disagree with "
                                     "the canonical form of the twist")
            return S, g
    return None
