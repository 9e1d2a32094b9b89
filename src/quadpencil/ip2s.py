"""Pencil equivalence up to reparametrization of the projective line.

The two-secret problem asks for an invertible S and a homography g with
S^t (twist(A, g)) S = B.  Determinants force g to carry the places of
B's characteristic form onto those of A with matching exponents, so a
finite candidate set is pinned down from the factored place data and
each survivor is checked by the one-sided solver on the full pencils.
"""

from __future__ import annotations

from . import linalg as _la
from . import poly as _poly
from .field import field_sqrt
from .pencil import BinaryForm, Homography, INF, twist, verify_ip2s
from .regular import canonicalize, descriptor_key

#: Hard ceiling on the intersected candidate set; beyond it the solver
#: reports resource exhaustion rather than truncating.
CANDIDATE_BUDGET = 100_000

#: Largest candidate enumeration (and largest PGL_2 sweep) attempted.
SWEEP_BUDGET = 1_000_000


# -- place signatures ------------------------------------------------------


def _signature_of_descriptor(F, desc):
    """Places of the characteristic form bucketed by degree and exponent:
    a dict mapping (d, e) to a sorted tuple of places, each a monic
    irreducible tuple or INF.  Read off a canonical descriptor, whose
    local blocks carry every place with its layer multiplicities."""
    exps = {}
    for b in desc.local_blocks:
        exps[b.place] = exps.get(b.place, 0) + b.ell * b.mult
    out = {}
    for place, e in exps.items():
        out.setdefault((_place_degree(place), e), []).append(place)
    return {de: tuple(sorted(places, key=lambda p: _place_key(F, p)))
            for de, places in out.items()}


def _place_degree(place):
    return 1 if place is INF else _poly.poly_deg(place)


def _place_key(F, place):
    if place is INF:
        return (0, ())
    return (1, _poly.poly_sort_key(F, place))


def _point_key(F, x):
    if x is INF:
        return (0, 0)
    return (1, F.sort_key(x))


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


# -- projective invariants --------------------------------------------------


def cross_ratio(F, a, b, c, d):
    """Cross ratio (a-c)(b-d) / ((a-d)(b-c)) of four distinct points,
    with the usual limits when one of them is INF."""
    if a is INF:
        num, den = F.sub(b, d), F.sub(b, c)
    elif b is INF:
        num, den = F.sub(a, c), F.sub(a, d)
    elif c is INF:
        num, den = F.sub(b, d), F.sub(a, d)
    elif d is INF:
        num, den = F.sub(a, c), F.sub(b, c)
    else:
        num = F.mul(F.sub(a, c), F.sub(b, d))
        den = F.mul(F.sub(a, d), F.sub(b, c))
    return F.div(num, den)


def j_invariant(F, lam):
    """(lam^2 - lam + 1)^3 / (lam^2 (1 - lam)^2): collapses the six
    cross ratios of an unordered 4-point set to a single value."""
    if F.p in (2, 3):
        raise ValueError("the 4-point invariant needs characteristic >= 5")
    lam2 = F.mul(lam, lam)
    num = F.add(F.sub(lam2, lam), F.one)
    num = F.mul(F.mul(num, num), num)
    den = F.mul(lam2, F.mul(F.sub(F.one, lam), F.sub(F.one, lam)))
    return F.div(num, den)


# -- homography construction -------------------------------------------------


def _to_standard(F, a, b, c):
    """Homography sending the distinct triple (a, b, c) to (INF, 0, 1)."""
    if a is INF:
        m = ((F.one, F.neg(b)), (F.zero, F.sub(c, b)))
    elif b is INF:
        m = ((F.zero, F.sub(c, a)), (F.one, F.neg(a)))
    elif c is INF:
        m = ((F.one, F.neg(b)), (F.one, F.neg(a)))
    else:
        ca, cb = F.sub(c, a), F.sub(c, b)
        m = ((ca, F.neg(F.mul(b, ca))), (cb, F.neg(F.mul(a, cb))))
    return Homography.make(F, m)


def _pair_to_standard(F, a, b):
    """Some homography sending the distinct pair (a, b) to (INF, 0)."""
    if a is INF:
        m = ((F.one, F.neg(b)), (F.zero, F.one))
    elif b is INF:
        m = ((F.zero, F.one), (F.one, F.neg(a)))
    else:
        m = ((F.one, F.neg(b)), (F.one, F.neg(a)))
    return Homography.make(F, m)


def homography_from_triples(F, src, dst):
    """The unique homography with g(src[i]) = dst[i] for two triples of
    distinct points."""
    ms = _to_standard(F, *src)
    md = _to_standard(F, *dst)
    return md.inverse().compose(ms)


def _homography_key(F, g):
    return tuple(F.sort_key(e) for row in g.m for e in row)


def _descend_homography(F, K, g):
    """Rewrite a homography over the extension K with entries in the base
    field F, or None when an entry fails to be rational."""
    rows = []
    for row in g.m:
        out = []
        for e in row:
            if any(c != F.zero for c in e[1:]):
                return None
            out.append(e[0])
        rows.append(tuple(out))
    return Homography.make(F, tuple(rows))


def _all_homographies(F):
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


# -- pinning strategies -------------------------------------------------------


def _quad_roots(F, K, h):
    """Both roots in K of a monic quadratic irreducible over F, the
    lexicographically smaller one first."""
    half = K.inv(K.lift(F.scalar(2)))
    disc = F.sub(F.mul(h[1], h[1]), F.mul(F.scalar(4), h[0]))
    sq = field_sqrt(K, K.lift(disc))
    nb = K.lift(F.neg(h[1]))
    r0 = K.mul(half, K.add(nb, sq))
    r1 = K.mul(half, K.sub(nb, sq))
    return sorted((r0, r1), key=K.sort_key)


def _point_triple_candidates(F, xs, opts):
    """Three rational points with independent image option lists pin the
    homography; opts[i] lists the admissible images of xs[i]."""
    for y1 in opts[0]:
        for y2 in opts[1]:
            if y2 == y1:
                continue
            for y3 in opts[2]:
                if y3 == y1 or y3 == y2:
                    continue
                yield homography_from_triples(F, xs, (y1, y2, y3))


def _mixed_candidates(F, x1, g1, opts_pt, opts_quad):
    """One rational point and one conjugate root pair pin the homography,
    two Frobenius assignments per target quadratic."""
    K = F.extension(g1)
    q0 = F.q
    r = (F.zero, F.one)
    rc = K.pow(r, q0)
    xk = INF if x1 is INF else K.lift(x1)
    for y in opts_pt:
        yk = INF if y is INF else K.lift(y)
        for h in opts_quad:
            t = _quad_roots(F, K, h)[0]
            tc = K.pow(t, q0)
            for s, sc in ((t, tc), (tc, t)):
                gk = homography_from_triples(K, (xk, r, rc), (yk, s, sc))
                g = _descend_homography(F, K, gk)
                if g is not None:
                    yield g


def _quad_pair_candidates(F, g1, g2, opts1, opts2):
    """Two conjugate root pairs give four points of the quadratic
    extension; each of the four Frobenius assignments pins one
    homography, and for p >= 5 target pairs are pruned by the 4-point
    invariant first."""
    K = F.extension(g1)
    q0 = F.q
    r1 = (F.zero, F.one)
    r1c = K.pow(r1, q0)
    r2 = _quad_roots(F, K, g2)[0]
    r2c = K.pow(r2, q0)
    use_j = F.p >= 5
    if use_j:
        j_src = j_invariant(K, cross_ratio(K, r1, r1c, r2, r2c))
    roots = {}
    for h in set(opts1) | set(opts2):
        roots[h] = _quad_roots(F, K, h)[0]
    for h1 in opts1:
        t1 = roots[h1]
        t1c = K.pow(t1, q0)
        for h2 in opts2:
            if h2 == h1:
                continue
            t2 = roots[h2]
            t2c = K.pow(t2, q0)
            if use_j:
                j_dst = j_invariant(K, cross_ratio(K, t1, t1c, t2, t2c))
                if j_dst != j_src:
                    continue
            for s1, s1c in ((t1, t1c), (t1c, t1)):
                for s2 in (t2, t2c):
                    gk = homography_from_triples(
                        K, (r1, r1c, r2), (s1, s1c, s2))
                    g = _descend_homography(F, K, gk)
                    if g is not None:
                        yield g


def _orbit_candidates(F, d, g1, opts):
    """A place of degree >= 3 pins the homography up to the d rotations
    of a Galois orbit in the degree-d extension."""
    K = F.extension(g1)
    q0 = F.q
    zeta = tuple(F.one if i == 1 else F.zero for i in range(d))
    xs = [zeta]
    for _ in range(2):
        xs.append(K.pow(xs[-1], q0))
    for h in opts:
        hk = tuple(K.lift(c) for c in h)
        tau = _poly.poly_roots(K, hk)[0]
        orbit = [tau]
        for _ in range(d - 1):
            orbit.append(K.pow(orbit[-1], q0))
        for i in range(d):
            y = (orbit[i], orbit[(i + 1) % d], orbit[(i + 2) % d])
            gk = homography_from_triples(K, tuple(xs), y)
            g = _descend_homography(F, K, gk)
            if g is not None:
                yield g


def _split_torus_candidates(F, x1, x2, opts1, opts2):
    """Two rational points pin the homography up to the split torus of
    maps fixing INF and 0; all q - 1 scalings are enumerated per image
    assignment."""
    ms = _pair_to_standard(F, x1, x2)
    units = [x for x in F.elements() if x != F.zero]
    for y1 in opts1:
        for y2 in opts2:
            if y2 == y1:
                continue
            mdinv = _pair_to_standard(F, y1, y2).inverse()
            for t in units:
                scale = Homography.make(F, ((t, F.zero), (F.zero, F.one)))
                yield mdinv.compose(scale.compose(ms))


def _nonsplit_torus_candidates(F, g1, opts):
    """A single conjugate root pair pins the homography up to the
    nonsplit torus; its q + 1 rational elements are parametrized by the
    norm-one scalings t = c^(q-1), plus the conjugate-swapping coset."""
    K = F.extension(g1)
    q0 = F.q
    r = (F.zero, F.one)
    rc = K.pow(r, q0)
    ms = _pair_to_standard(K, r, rc)
    swap = Homography.make(K, ((K.zero, K.one), (K.one, K.zero)))
    ts = [K.one]
    for a in F.elements():
        c = K.add(r, K.lift(a))
        ts.append(K.div(K.pow(c, q0), c))
    for h in opts:
        t0 = _quad_roots(F, K, h)[0]
        t0c = K.pow(t0, q0)
        mdinv = _pair_to_standard(K, t0, t0c).inverse()
        for t in ts:
            scale = Homography.make(K, ((t, K.zero), (K.zero, K.one)))
            for gk in (mdinv.compose(scale.compose(ms)),
                       mdinv.compose(swap.compose(scale.compose(ms)))):
                g = _descend_homography(F, K, gk)
                if g is not None:
                    yield g


# -- the solver ---------------------------------------------------------------


def _candidate_pool(F, sig_src, sig_dst):
    """Candidates mapping the places of sig_src onto those of sig_dst,
    generated by the cheapest complete pinning strategy and filtered by
    every place class."""
    if not sig_src:
        raise ValueError("no places pin a homography; the pencils are "
                         "entirely singular")
    if sorted(sig_src) != sorted(sig_dst) or any(
            len(sig_src[de]) != len(sig_dst[de]) for de in sig_src):
        return ()
    rats = sorted(((p, de) for de in sig_src if de[0] == 1
                   for p in sig_src[de]),
                  key=lambda it: (len(sig_dst[it[1]]), it[1],
                                  _point_key(F, _place_point(F, it[0]))))
    quads = sorted(((p, de) for de in sig_src if de[0] == 2
                    for p in sig_src[de]),
                   key=lambda it: (len(sig_dst[it[1]]), it[1],
                                   _poly.poly_sort_key(F, it[0])))
    q = F.q

    def size(item):
        return len(sig_dst[item[1]])

    def points(de):
        return tuple(_place_point(F, p) for p in sig_dst[de])

    # (cost, generator, its arguments after F), appended in tie-break order
    strategies = []
    if len(rats) >= 3:
        strategies.append((
            size(rats[0]) * size(rats[1]) * size(rats[2]),
            _point_triple_candidates,
            (tuple(_place_point(F, p) for p, _ in rats[:3]),
             tuple(points(de) for _, de in rats[:3]))))
    if rats and quads:
        strategies.append((
            2 * size(rats[0]) * size(quads[0]), _mixed_candidates,
            (_place_point(F, rats[0][0]), quads[0][0], points(rats[0][1]),
             sig_dst[quads[0][1]])))
    if len(quads) >= 2:
        strategies.append((
            4 * size(quads[0]) * size(quads[1]), _quad_pair_candidates,
            (quads[0][0], quads[1][0], sig_dst[quads[0][1]],
             sig_dst[quads[1][1]])))
    orbits = [(de[0] * len(sig_src[de]), de)
              for de in sorted(sig_src) if de[0] >= 3]
    if orbits:
        cost, de = min(orbits, key=lambda o: o[0])
        strategies.append((cost, _orbit_candidates,
                           (de[0], sig_src[de][0], sig_dst[de])))
    if len(rats) >= 2:
        strategies.append((
            size(rats[0]) * size(rats[1]) * (q - 1), _split_torus_candidates,
            (_place_point(F, rats[0][0]), _place_point(F, rats[1][0]),
             points(rats[0][1]), points(rats[1][1]))))
    if quads:
        strategies.append((2 * (q + 1) * size(quads[0]),
                           _nonsplit_torus_candidates,
                           (quads[0][0], sig_dst[quads[0][1]])))
    if q ** 3 - q <= SWEEP_BUDGET:
        strategies.append((q ** 3 - q, _all_homographies, ()))
    if not strategies:
        raise ValueError("too few places pin a homography and the field "
                         "is too large to sweep")
    cost, generate, args = min(strategies, key=lambda s: s[0])
    if cost > SWEEP_BUDGET:
        raise ValueError("candidate enumeration exceeds the search budget")
    pool = generate(F, *args)
    classes = sorted(sig_src)
    out = {}
    for g in pool:
        if all(_maps_onto(F, g, sig_src[de], sig_dst[de])
               for de in classes):
            key = _homography_key(F, g)
            if key not in out:
                out[key] = g
                if len(out) > CANDIDATE_BUDGET:
                    raise ValueError("candidate homographies exceed the "
                                     "search budget")
    return tuple(out[key] for key in sorted(out))


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
    key_b = descriptor_key(db)
    inv_tb = _la.inv(F, db.transform)
    if not sig_b:
        if descriptor_key(da) != key_b:
            return None
        S = _la.mat_mul(F, da.transform, inv_tb)
        g = Homography.identity(F)
        if not verify_ip2s(A, B, S, g):
            raise AssertionError("transforms disagree on a fully "
                                 "singular pair")
        return S, g
    for g in _candidate_pool(F, sig_b, sig_a):
        dt = canonicalize(twist(A, g))
        if descriptor_key(dt) != key_b:
            continue
        S = _la.mat_mul(F, dt.transform, inv_tb)
        if not verify_ip2s(A, B, S, g):
            raise AssertionError("canonical transforms disagree on the "
                                 "twisted pencil")
        return S, g
    return None
