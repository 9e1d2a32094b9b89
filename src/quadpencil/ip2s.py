"""Pencil equivalence up to reparametrization of the projective line.

The two-secret problem asks for an invertible S and a homography g with
S^t (twist(A, g)) S = B.  Twisting moves no subspace: the primary
component of twist(A, g) at a place is A's component at the image of
that place under g, with the same module structure, and scaling the
pencil changes only square-class characters.  So g must carry each place
of B onto a place of A of the same degree and the same layer ranks (the
number of free layers of each nilpotency order ell).  A finite candidate
set is pinned down from these place classes and each survivor is checked
by the one-sided solver on the full pencils.

Pinning is linear algebra over the base field.  "g = ((a, b), (d, e))
sends (x0:x1) to (y0:y1)" is the condition (a x0 + b x1) y1 - (d x0 +
e x1) y0 = 0, linear in the entries of g.  For a place of degree d, x is
its root (the class of t) in K = F.extension(place) and y a root of the
target place in K; the condition's d coordinates over F are d rows.  The
target's roots in K are one root and its Frobenius conjugates.  The
candidates for one choice of target roots are the invertible projective
points of the nullspace of the stacked rows.

The pinned places are the set S of at most three places that minimizes
one cost: the product over S of deg(p) |class(p)| (the target roots to
choose from) times (q^k - 1)/(q - 1) with k = 4 - min(3, sum of deg p)
(the projective points of a k-dimensional nullspace).  The empty set is
the sweep of all of PGL_2.  A class is the set of places of one degree
and one set of layer ranks.  The cost counts every projective point of
each nullspace, invertible or not.  It agrees with the per-shape costs
of the point triple, a point and a root pair, two root pairs, one
Galois orbit, a root pair alone (the nonsplit torus) and a lone point.
Two points alone (the split torus) cost q + 1, of which q - 1 points
are invertible, and the sweep costs (q^4 - 1)/(q - 1) against the
q^3 - q elements of PGL_2; by either count the sweep fits SWEEP_BUDGET
for exactly q <= 97.  The pool does not depend on which places are
pinned: every choice enumerates each homography that carries the
places of one pencil onto those of the other class by class, and the
filter by every class keeps exactly those.
"""

from __future__ import annotations

import itertools
import math
import random

from . import linalg as _la
from . import poly as _poly
from .pencil import BinaryForm, Homography, INF, twist
from .regular import canonical_witness, canonicalize, place_key

#: Hard ceiling on the intersected candidate set; beyond it the solver
#: reports resource exhaustion rather than truncating.
CANDIDATE_BUDGET = 100_000

#: Largest candidate enumeration (and largest PGL_2 sweep) attempted.
SWEEP_BUDGET = 1_000_000


# -- place signatures ------------------------------------------------------


def _signature_of_descriptor(F, desc):
    """Places of the characteristic form bucketed by degree and layer
    ranks: a dict mapping (d, ((ell, r_ell), ...)) to a sorted tuple of
    places, each a monic irreducible tuple or INF.  r_ell counts the free
    layers of order ell at the place, of either character, ell ascending.
    A twist and a scalar carry a place to a place with the same degree
    and layer ranks, but may change the characters, so those are left
    out.  Read off a canonical descriptor, whose local blocks carry every
    place with its layer multiplicities."""
    ranks = {}
    for b in desc.local_blocks:
        layers = ranks.setdefault(b.place, {})
        layers[b.ell] = layers.get(b.ell, 0) + b.mult
    out = {}
    for place, layers in ranks.items():
        key = (_place_degree(place), tuple(sorted(layers.items())))
        out.setdefault(key, []).append(place)
    return {de: tuple(sorted(places, key=lambda p: place_key(F, p)))
            for de, places in out.items()}


def _place_degree(place):
    return 1 if place is INF else _poly.poly_deg(place)


def _place_point(F, place):
    """Degree-1 place as a point of the projective line."""
    if place is INF:
        return INF
    return F.neg(place[0])


def _place_form(F, place):
    """Place as a normalized binary form; INF is the form mu."""
    if place is INF:
        return BinaryForm.make(F, 1, (F.one, F.zero))
    return BinaryForm.from_affine(F, place, _poly.poly_deg(place))


def _maps_onto(F, g, src_places, dst_places):
    """True when g carries the place set src_places onto dst_places."""
    dst = set(dst_places)
    ginv = None
    for place in src_places:
        if _place_degree(place) == 1:
            image = g.apply_point(_place_point(F, place))
            target = INF if image is INF else (F.neg(image), F.one)
        else:
            if ginv is None:
                ginv = g.inverse()
            moved = _place_form(F, place).compose(ginv).normalized()
            target = (tuple(moved.coeffs)
                      if moved.coeffs[-1] == F.one else None)
        if target not in dst:
            return False
    return True


# -- linear pinning -----------------------------------------------------------


def _homography_key(F, g):
    return tuple(F.sort_key(e) for row in g.m for e in row)


def _place_root(F, place):
    """(K, x): the field holding the roots of a place, and one root as a
    projective point over it.  A rational place is a point of F, with INF
    = (1:0); otherwise K = F.extension(place) and x is the class of t."""
    if place is INF:
        return F, (F.one, F.zero)
    if _poly.poly_deg(place) == 1:
        return F, (F.neg(place[0]), F.one)
    K = F.extension(place)
    return K, ((F.zero, F.one) + (F.zero,) * (K.deg - 2), K.one)


def _target_roots(F, K, place):
    """Every root in K of a place of the same degree d as K over F: the
    first linear factor of the equal-degree split gives one root y, and
    the others are its conjugates y^q, ..., y^(q^(d-1))."""
    if K is F:
        return [_place_root(F, place)[1]]
    lin = next(_poly._equal_degree(K, tuple(K.lift(c) for c in place), 1,
                                   random.Random(0x5EED)))
    roots = [K.neg(lin[0])]
    for _ in range(K.deg - 1):
        roots.append(K.pow(roots[-1], F.q))
    return [(y, K.one) for y in roots]


def _pin_rows(F, K, x, y):
    """Rows over F of the condition that g sends x to y."""
    (x0, x1), (y0, y1) = x, y
    coeffs = (K.mul(x0, y1), K.mul(x1, y1),
              K.neg(K.mul(x0, y0)), K.neg(K.mul(x1, y0)))
    return (coeffs,) if K is F else tuple(zip(*coeffs))


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
    (a, b, d, e), as homographies: each basis vector plus every
    combination of the vectors after it."""
    elems = list(F.elements())
    multiples = [[tuple(F.mul(c, t) for t in w) for c in elems]
                 for w in basis[1:]]
    for i, lead in enumerate(basis):
        for a, b, d, e in _combinations(F, lead, multiples[i:]):
            if F.mul(a, e) != F.mul(b, d):
                yield Homography.make(F, ((a, b), (d, e)))


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
    pinned by the cheapest set of places and filtered by every place
    class."""
    if not sig_src:
        raise ValueError("no places pin a homography; the pencils are "
                         "entirely singular")
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
    out = []
    for g in _pinned(F, [(p, sig_dst[de]) for p, de in pins]):
        if all(_maps_onto(F, g, sig_src[de], sig_dst[de])
               for de in classes):
            out.append(g)
            if len(out) > CANDIDATE_BUDGET:
                raise ValueError("candidate homographies exceed the "
                                 "search budget")
    return tuple(sorted(out, key=lambda g: _homography_key(F, g)))


def ip2s_solve(A, B):
    """(S, g) with S^t twist(A, g) S = B, or None when no pair exists.
    Among the surviving candidates the homography with the smallest
    matrix wins.  Candidates come from the regular parts; the final
    check runs on the full pencils."""
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
    for g in _candidate_pool(F, sig_b, sig_a):
        At = twist(A, g)
        S = canonical_witness(At, B, canonicalize(At), db)
        if S is not None:
            return S, g
    return None
