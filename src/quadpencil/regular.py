"""Canonical forms of regular symmetric pencils in odd characteristic.

A regular pencil splits along the places of the projective line: the
monic irreducible factors of its characteristic polynomial, plus a place
at infinity carrying the part where the leading form degenerates.  The
finite primary components are read off one Krylov matrix of c, with no
kernel of an n x n matrix per place, and c on each of them off one
product, so no block is inverted again.  Each primary block is a module
over a truncated local ring R_ell = K[pi]/(pi^ell); a semisimple block
(ell = 1, as at every place of multiplicity one) takes its generators
from its orbit basis, with no kernel filtration.  The leading form
descends, through the twisted trace Tr(xy/f'(zeta)), to a regular
symmetric R-valued form on the block.  Such forms split into free
layers, and each layer is classified by its rank and a square-class
character, read with the root of each diagonal entry from one
exponentiation.
Reassembling the classification data yields an exact congruence onto a
block diagonal matrix built from twisted trace forms, which is a
complete invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg as _la
from . import localring as _lr
from . import poly as _poly
from .field import field_nonsquare, field_sqrt, emit_elem
from .kronecker import kh_matrix, kronecker_decompose
from .pencil import (INF, Pencil, apply_congruence, emit_matrix,
                     orthogonal_parts, verify_ip1s)


# -- primary decomposition ----------------------------------------------


def char_endomorphism(P, binv=None):
    """c = -B_inf^{-1} B_0, the endomorphism whose polynomial structure
    drives the finite places.  B_inf c is symmetric.  binv, when the
    caller has it (the chain walk leaves it), is B_inf^{-1}, and c costs
    one product."""
    F = P.ctx
    if binv is None:
        binv = _la.inv(F, P.b_inf)
        if binv is None:
            raise ValueError("leading form is singular")
    return _la.mat_neg(F, _la.mat_mul(F, binv, P.b_0))


def infinite_split(P, w):
    """Split V = W + W' with W the stable kernel tower w of B_inf that
    minimal_chain leaves (the infinite place, B_0 invertible there) and
    W' its B_0-orthogonal (finite places, B_inf invertible there).
    Returns ((w, W), (basis_wp, W')), each basis a tuple of row vectors
    and each pencil the restriction of P to it.  Raises on singular
    pencils.  canonicalize calls it only when w is not empty: an empty
    tower means W = 0, and W' is the whole pencil in its own basis."""
    F, n = P.ctx, P.n
    # B_0 is symmetric, so row i of w B_0 is B_0 w_i
    wp = _la.nullspace(F, _la.mat_mul(F, w, P.b_0), ncols=n)
    if len(w) + len(wp) != n:
        raise ValueError("pencil is singular")
    if len(_la.span_basis(F, w + wp)) != n:
        raise ValueError("pencil is singular")
    if wp and _la.rank(F, _la.mat_mul(F, P.b_inf,
                                      _la.transpose(wp))) != len(wp):
        raise ValueError("pencil is singular")
    parts = orthogonal_parts(P, _la.transpose(w + wp), (len(w), len(wp)))
    if parts is None:
        raise ValueError("pencil is singular")
    return (w, parts[0]), (wp, parts[1])


def primary_split(P, binv=None):
    """Factor the characteristic polynomial of c and return the list of
    (factor, basis of its primary component, c on it, restriction of P
    to it), in factor order.  Requires B_inf invertible (binv, when
    given, is its inverse); components are orthogonal for both forms.
    c on a component is the matrix of c in its basis, which is also
    char_endomorphism of the restriction.

    With g = cp / f^m, g(c) maps V onto the component of f^m and kills
    the others, so the vectors (x^j g)(c) e_t, j < deg f^m, read off the
    Krylov rows of e_t, span it for enough starts e_0, e_1, ...: one
    where c is cyclic.  Each basis is the one nullspace(f(c)^m) returns,
    so its vector for a free column is 1 there and 0 at the other free
    columns: c on every component is one product c V^t, read at the
    free columns of that component's basis."""
    F = P.ctx
    c = char_endomorphism(P, binv)
    cp = _la.charpoly(F, c)
    factors, polys = [], []
    for f, m in _poly.poly_factor(F, cp):
        fm = _poly.power(lambda a, b: _poly.poly_mul(F, a, b), f, m, None)
        g = _poly.poly_divmod(F, cp, fm)[0]
        factors.append(f)
        polys.append([(F.zero,) * j + g for j in range(_poly.poly_deg(fm))])
    bases = [()] * len(factors)
    short = list(range(len(factors)))
    zero = (F.zero,) * P.n
    images = _la.krylov(F, c)
    for t in range(P.n):
        if not short:
            break
        imgs = iter(images(t, [h for i in short for h in polys[i]]))
        for i in short:
            new = tuple(v for v in (next(imgs) for _ in polys[i])
                        if v != zero)
            if new:
                bases[i] = _la.kernel_basis(F, bases[i] + new)
        short = [i for i in short if len(bases[i]) < len(polys[i])]
    if any(len(b) != len(h) for b, h in zip(bases, polys)):
        raise AssertionError("primary component has wrong dimension")
    if sum(len(b) for b in bases) != P.n:
        raise AssertionError("primary components do not fill the space")
    vt = _la.transpose(sum(bases, ()))
    parts = orthogonal_parts(P, vt, [len(b) for b in bases])
    if parts is None:
        raise AssertionError("primary components not orthogonal")
    # c v_k = sum_a c_(a, k) v_a, read at the free column of v_a: the last
    # nonzero entry of v_a, as kernel_basis reverses the columns
    cv = _la.mat_mul(F, c, vt)
    cs, lo = [], 0
    for b in bases:
        free = [max(i for i, e in enumerate(v) if e != F.zero) for v in b]
        cs.append(tuple(cv[i][lo:lo + len(b)] for i in free))
        lo += len(b)
    return list(zip(factors, bases, cs, parts))


# -- local structure of one primary block --------------------------------


def residue_field(F, f):
    """Residue field of the place f: F itself when f is linear, else F[x]/f."""
    return F if _poly.poly_deg(f) == 1 else F.extension(f)


def coords(F, K, a):
    """Coordinates over F of an element a of K, in the basis zeta^i."""
    return (a,) if K is F else a


def from_coords(F, K, v):
    """The element of the residue field K with coordinates v over F."""
    return v[0] if K is F else v


@dataclass(frozen=True)
class LocalStructure:
    K: object           # residue field, F itself at a rational place
    ell: int            # nilpotency order of pi
    x: tuple            # semisimple part of c, an exact root of f
    pi: tuple           # pi = c - x, nilpotent and commuting with x
    generators: tuple   # module generators, vectors in block coordinates
    orders: tuple       # pi-order of each generator, descending
    orbit: tuple        # x^i pi^j g_s in column s ell d + j d + i,
                        # i < d and j < ell (_orbit)


def _orbit(F, x, pi, G, d, depth):
    """The vectors x^i pi^j g for the columns g of G, i < d and j < depth,
    as the columns of one matrix, ordered by g, then j, then i: the order
    of an R-element's coefficients c_{j,i} of pi^j zeta^i."""
    r = len(G[0])
    # column i r + s of stage j is x^i pi^j g_s.  The x^i g, i < d, come
    # by doubling, as in krylov: x^k times the first k blocks gives the
    # next k, so ceil(log2 d) products and the squarings of x between
    xs, xk, k = G, x, 1
    while k < d:
        xs = _la.hstack(xs, _la.mat_mul(
            F, xk, tuple(row[:(d - k) * r] for row in xs)))
        k *= 2
        if k < d:
            xk = _la.mat_mul(F, xk, xk)
    stages = [xs]
    for _ in range(depth - 1):
        stages.append(_la.mat_mul(F, pi, stages[-1]))
    return tuple(tuple(stage[a][i * r + s] for s in range(r)
                       for stage in stages for i in range(d))
                 for a in range(len(G)))


def local_structure(block, f, c):
    """Module structure of a primary block over R_ell = K[pi]/(pi^ell),
    from c = char_endomorphism(block) (primary_split has it): splits c
    into an exact root of f plus a commuting nilpotent, then extracts
    module generators by kernel filtration over K.  A semisimple block,
    f(c) = 0, has pi = 0 and ell = 1: its generators are the starts of
    the orbit basis, and no filtration runs."""
    F = block.ctx
    nf = block.n
    d = _poly.poly_deg(f)
    if d <= 0 or nf % d:
        raise ValueError("factor does not match the block dimension")
    m = nf // d
    fp = _poly.poly_deriv(F, f)
    x = c
    for step in range(max(m, 1).bit_length() + 2):
        v = _la.mat_poly_eval(F, f, x)
        if all(e == F.zero for row in v for e in row):
            break
        dvi = _la.inv(F, _la.mat_poly_eval(F, fp, x))
        if dvi is None:
            raise ValueError("newton correction is singular; wrong factor")
        x = _la.mat_sub(F, x, _la.mat_mul(F, v, dvi))
    else:
        raise ValueError("newton iteration did not converge; wrong factor")
    pi = _la.mat_sub(F, c, x)
    K = residue_field(F, f)
    # greedy K-basis: orbits of standard vectors under the x action
    cols, starts = [], []
    for t in range(nf):
        if len(cols) == nf:
            break
        e = tuple(F.one if i == t else F.zero for i in range(nf))
        if cols and _la.solve(F, _la.transpose(tuple(cols)), e) is not None:
            continue
        starts.append(t)
        cols += _la.transpose(_orbit(F, x, pi, _la.transpose((e,)), d, 1))
    if len(cols) != nf:
        raise AssertionError("orbit basis does not span the block")
    M = _la.transpose(tuple(cols))
    if step == 0:
        # pi = 0: every start generates a free R_1-module, and M is the
        # orbit of the starts in _orbit's order
        gens = _la.identity(F, nf)
        return LocalStructure(K, 1, x, pi, tuple(gens[t] for t in starts),
                              (1,) * m, M)
    # column k of NK: the K-coordinates of pi e_t, t the start of the k-th
    # orbit, i.e. of column t of pi
    flat = _la.mat_solve(F, M, _la.submatrix(pi, range(nf), starts))
    NK = tuple(tuple(from_coords(F, K, col[j * d:(j + 1) * d])
                     for col in _la.transpose(flat)) for j in range(m))
    NKp = [_la.identity(K, m)]
    while any(e != K.zero for row in NKp[-1] for e in row):
        if len(NKp) > m + 1:
            raise ValueError("nilpotent part fails to vanish; wrong factor")
        NKp.append(_la.mat_mul(K, NKp[-1], NK))
    ell = len(NKp) - 1
    V = [_la.nullspace(K, NKp[j], ncols=m) if j else ()
         for j in range(ell + 1)]
    # (mt, the generators of pi-order mt); step j < mt extends V[j - 1]
    # by their images under N^(mt - j)
    tops = []
    for j in range(ell, 0, -1):
        base = V[j - 1]
        for mt, vs in tops:
            base += _la.transpose(_la.mat_mul(K, NKp[mt - j],
                                              _la.transpose(vs)))
        news = _la.greedy_extend(K, base, V[j])
        if news:
            tops.append((j, news))
    orders = tuple(j for j, vs in tops for _ in vs)
    if sum(orders) != m:
        raise AssertionError("kernel filtration miscounts the module")
    G = _la.mat_mul(F, M, _la.transpose(tuple(
        tuple(a for comp in v for a in coords(F, K, comp))
        for _, vs in tops for v in vs)))
    return LocalStructure(K, ell, x, pi, _la.transpose(G), orders,
                          _orbit(F, x, pi, G, d, ell))


def descend_bilinear(block, f, st):
    """Descend the leading form through the twisted trace Tr(xy/f'(zeta))
    to an R_ell-valued Gram matrix on the module generators of st, the
    local structure of the block at the place f.  Returns (R, gram)."""
    F, K, ell = block.ctx, st.K, st.ell
    d = _poly.poly_deg(f)
    R = _lr.LocalRing(K, ell)
    gens = st.generators
    r = len(gens)
    # row s d + a of xg is x^a g_s and column t ell + i of bn is B_inf
    # pi^(ell-1-i) g_t, both read off the orbit, so entry (s d + a, t ell
    # + i) of xg bn is Tr(zeta^a w / f'(zeta)) for the coefficient w of
    # gram[s][t][i].  By Euler's lemma the basis dual to the zeta^a under
    # that pairing is sum_t f_(t+j+1) zeta^t, so the anti-triangular
    # Hankel matrix hank turns the d traces into the coordinates of w
    cols = _la.transpose(st.orbit)
    xg = tuple(cols[s * ell * d + a] for s in range(r) for a in range(d))
    bn = _la.mat_mul(F, block.b_inf, _la.transpose(tuple(
        cols[(t * ell + ell - 1 - i) * d] for t in range(r)
        for i in range(ell))))
    tra = _la.mat_mul(F, xg, bn)
    hank = tuple(tuple(f[t + j + 1] if t + j < d else F.zero
                       for j in range(d)) for t in range(d))
    co = _la.mat_mul(F, hank, tuple(
        sum((tra[s * d + a] for s in range(r)), ()) for a in range(d)))
    gram = tuple(tuple(tuple(from_coords(F, K, tuple(
        co[a][(s * r + t) * ell + i] for a in range(d))) for i in range(ell))
                       for t in range(r)) for s in range(r))
    want = _la.congruent(F, block.b_inf, _la.transpose(gens))
    for s in range(r):
        for t in range(s, r):
            if gram[s][t] != gram[t][s]:
                raise AssertionError("descended form is not symmetric")
            # Tr(w / f'(zeta)) is the coefficient of zeta^(d-1) of w
            if co[d - 1][(s * r + t) * ell + ell - 1] != want[s][t]:
                raise AssertionError("descended form loses the trace")
    return R, gram


# -- layer splitting and diagonalization ---------------------------------


def split_free_layers(R, gram, orders):
    """Split the module orthogonally into its free layers.  Returns a
    list of (order, coefficient_columns, layer_gram) where the columns
    express the layer generators in the original ones over R and the
    layer Gram is regular over R_order.  Raises ValueError when the form
    is not regular on some layer."""
    K, ell = R.K, R.ell
    if list(orders) != sorted(orders, reverse=True):
        raise ValueError("generator orders must be descending")
    r, lo = len(orders), 0
    # the columns of W are the generators lo, lo + 1, ... in the original
    # ones, each made orthogonal to the layers split off before it
    W, G = _la.identity(R, r), gram
    out = []
    while lo < r:
        m = orders[lo]
        k = orders.count(m)
        X = tuple(tuple(R.retract(R.div_pi(x, ell - m), m) for x in row)
                  for row in G[:k])
        Rm = _lr.LocalRing(K, m)
        sub = tuple(row[:k] for row in X)
        Ainv = _la.ring_inv(Rm, sub)
        if Ainv is None:
            raise ValueError("form is not regular on a free layer")
        out.append((m, _la.transpose(W)[:k], sub))
        lo += k
        if lo < r:
            C = _la.ring_mat_mul(Rm, Ainv, tuple(row[k:] for row in X))
            W = _la.mat_sub(R, tuple(row[k:] for row in W), _la.ring_mat_mul(
                R, tuple(row[:k] for row in W),
                tuple(tuple(map(R.lift_from, row)) for row in C)))
            G = _la.congruent(R, gram, W)
    return out


def _two_squares(K):
    """First (u, v) with u^2 + v^2 = Delta, the canonical non-square of K;
    both are nonzero.  Cached on K, like Delta itself."""
    if K._two_squares is None:
        delta = field_nonsquare(K)
        for u in K.elements():
            v = field_sqrt(K, K.sub(delta, K.mul(u, u)))
            if v is not None and not K.is_zero(v):
                K._two_squares = (u, v)
                break
        else:
            raise AssertionError("unreachable: sums of two squares cover K")
    return K._two_squares


def diagonalize_unit(R, A):
    """Congruence transform T with T^t A T = diag(1, ..., 1) or
    diag(1, ..., 1, Delta) for the canonical non-square Delta of the
    residue field.  A must be symmetric with unit determinant over R.
    Returns (T, flag) with flag "1" or "D"."""
    K = R.K
    if K.p == 2:
        raise ValueError("odd characteristic required")
    r = len(A)
    # G is tracked through the symmetric elimination only: the scalings,
    # rotations and the swap after it act on the columns Tc of T alone
    G = [list(row) for row in A]
    Tc = [list(col) for col in _la.identity(R, r)]

    def col_add(j, k, c):
        Tc[j] = [R.add(x, R.mul(y, c)) for x, y in zip(Tc[j], Tc[k])]
        for i in range(r):
            G[i][j] = R.add(G[i][j], R.mul(G[i][k], c))
        for i in range(r):
            G[j][i] = R.add(G[j][i], R.mul(G[k][i], c))

    def col_swap(j, k):
        Tc[j], Tc[k] = Tc[k], Tc[j]
        for i in range(r):
            G[i][j], G[i][k] = G[i][k], G[i][j]
        G[j], G[k] = G[k], G[j]

    for i in range(r):
        if not R.is_unit(G[i][i]):
            jj = next((j for j in range(i, r) if R.is_unit(G[j][j])), None)
            if jj is None:
                pair = next(((a, b) for a in range(i, r)
                             for b in range(a + 1, r)
                             if R.is_unit(G[a][b])), None)
                if pair is None:
                    raise ValueError("form is not regular over the ring")
                col_add(pair[0], pair[1], R.one)
                jj = pair[0]
            if jj != i:
                col_swap(i, jj)
        dinv = R.inv(G[i][i])
        for j in range(i + 1, r):
            if not R.is_zero(G[i][j]):
                col_add(j, i, R.neg(R.mul(G[i][j], dinv)))
    delta = field_nonsquare(K)
    DR = R.from_field(delta)
    dpos = []
    for i in range(r):
        s, nonsquare = _lr.ring_sqrt(R, G[i][i])
        if nonsquare:
            dpos.append(i)
        si = R.inv(s)
        Tc[i] = [R.mul(x, si) for x in Tc[i]]
    while len(dpos) >= 2:
        i, j = dpos[0], dpos[1]
        u, v = _two_squares(K)
        dinv = R.inv(DR)
        a = R.mul(R.from_field(u), dinv)
        b = R.mul(R.from_field(v), dinv)
        nb = R.neg(b)
        Tc[i], Tc[j] = ([R.add(R.mul(x, a), R.mul(y, b))
                         for x, y in zip(Tc[i], Tc[j])],
                        [R.add(R.mul(x, nb), R.mul(y, a))
                         for x, y in zip(Tc[i], Tc[j])])
        dpos = dpos[2:]
    want = _la.identity(R, r)
    if dpos:
        Tc[dpos[0]], Tc[-1] = Tc[-1], Tc[dpos[0]]
        want = want[:-1] + (want[-1][:-1] + (DR,),)
    T = _la.transpose(Tc)
    if _la.congruent(R, A, T) != want:
        raise AssertionError("diagonalization failed to verify")
    return T, "D" if dpos else "1"


# -- canonical blocks and assembly ---------------------------------------


def canonical_local_block(F, place, ell, delta):
    """Canonical pencil block for one place: the twisted trace form
    Tr(tau(u (lambda - zeta - pi) x y / f'(zeta))) on the monomial basis
    of R_ell, with u = 1 or the canonical non-square.  The place at
    infinity takes the block of the place x with its two forms exchanged,
    as canonicalize treats it."""
    if place is INF:
        P = canonical_local_block(F, (F.zero, F.one), ell, delta)
        return Pencil(F, P.n, P.b_0, P.b_inf)
    f = place
    d = _poly.poly_deg(f)
    K = residue_field(F, f)
    # tv[a] = Tr(u zeta^a / f'(zeta)), by Euler's lemma the coefficient
    # of zeta^(d-1) of w = u zeta^a, and w zeta = shift(w) - w_(d-1) f
    w = coords(F, K, field_nonsquare(K) if delta else K.one)
    tv = []
    for _ in range(2 * d):
        tv.append(w[-1])
        w = tuple(F.sub(c, F.mul(w[-1], fc))
                  for c, fc in zip((F.zero,) + w[:-1], f))
    n = d * ell
    binf = [[F.zero] * n for _ in range(n)]
    b0 = [[F.zero] * n for _ in range(n)]
    for j in range(ell):
        for i in range(d):
            for jp in range(ell):
                for ip in range(d):
                    if j + jp == ell - 1:
                        binf[j * d + i][jp * d + ip] = tv[i + ip]
                        b0[j * d + i][jp * d + ip] = F.neg(tv[i + ip + 1])
                    elif j + jp == ell - 2:
                        b0[j * d + i][jp * d + ip] = F.neg(tv[i + ip])
    return Pencil.make(F, binf, b0)


def assemble_blocks(F, kron=(), blocks=()):
    """Block-diagonal pencil with the given Kronecker indices and local
    blocks; each block is (place, ell, delta) with delta a bool."""
    parts = [kh_matrix(F, h) for h in kron]
    parts += [canonical_local_block(F, f, ell, delta)
              for f, ell, delta in blocks]
    binf = _la.block_diag(F, [p.b_inf for p in parts])
    b0 = _la.block_diag(F, [p.b_0 for p in parts])
    return Pencil.make(F, binf, b0)


@dataclass(frozen=True)
class LocalBlockDesc:
    place: object       # monic irreducible tuple, or INF
    ell: int
    mult: int
    character: str      # "1" or "D"


@dataclass(frozen=True)
class CanonicalDescriptor:
    kronecker_indices: tuple
    local_blocks: tuple
    transform: tuple
    canonical: Pencil


@dataclass(frozen=True)
class _Entry:
    place: object
    ell: int
    character: str
    columns: tuple     # one column per canonical basis vector, reg coords


def place_key(F, place):
    """Sort key of a place: INF first, then the monic irreducibles in
    poly_sort_key order."""
    if place is INF:
        return (0, ())
    return (1, _poly.poly_sort_key(F, place))


def _entry_key(F, e):
    return place_key(F, e.place) + (e.ell, 0 if e.character == "1" else 1)


def canonical_assemble(F, kron, entries):
    """Sort the local entries, merge them into block descriptors, and
    assemble the canonical pencil and the full congruence.  Returns the
    descriptor without the final exactness check."""
    entries = sorted(entries, key=lambda e: _entry_key(F, e))
    blocks = []
    for e in entries:
        if blocks and (blocks[-1].place, blocks[-1].ell,
                       blocks[-1].character) == (e.place, e.ell, e.character):
            last = blocks.pop()
            blocks.append(LocalBlockDesc(last.place, last.ell,
                                         last.mult + 1, last.character))
        else:
            blocks.append(LocalBlockDesc(e.place, e.ell, 1, e.character))
    # entries merge into one run per (place, ell, character), so a layer
    # has at most one "D" block
    if any(b.character == "D" and b.mult != 1 for b in blocks):
        raise AssertionError("more than one non-square per layer")
    canon = assemble_blocks(F, kron.indices, [
        (e.place, e.ell, e.character == "D") for e in entries])
    cols = []
    for e in entries:
        cols.extend(e.columns)
    if len(cols) != kron.regular_part.n:
        raise AssertionError("local columns do not fill the regular part")
    # only the regular columns of kron.transform move, to the local ones;
    # with no Kronecker block, kron.transform is I
    total = _la.transpose(cols)
    if kron.indices:
        nk = sum(2 * h + 1 for h in kron.indices)
        total = _la.hstack(tuple(row[:nk] for row in kron.transform),
                           _la.mat_mul(F, tuple(row[nk:] for row
                                                in kron.transform), total))
    return CanonicalDescriptor(kron.indices, tuple(blocks), total, canon)


# -- the full pipeline ----------------------------------------------------


def _apply_ring_transform(F, st, T):
    """The new generators sum_s op(T[s][t]) g_s, as columns, from the
    generators g of st, where an R_ell-element acts as sum_{j,i} c_{j,i}
    pi^j zeta^i: the orbit of st times the coefficients c_{j,i} of
    T[s][t] in row s ell d + j d + i."""
    return _la.mat_mul(F, st.orbit, tuple(
        cs for row in T for cs in _la.transpose(tuple(
            tuple(c for x in Tst for c in coords(F, st.K, x))
            for Tst in row))))


def _process_place(block, f, c, cfull, place):
    """Run one primary block, with c = char_endomorphism(block), through
    structure, descent, layer splitting and diagonalization; returns
    canonical entries with columns mapped to the ambient regular
    coordinates through cfull."""
    F = block.ctx
    st = local_structure(block, f, c)
    R, gram = descend_bilinear(block, f, st)
    layers = split_free_layers(R, gram, st.orders)
    K, d = st.K, _poly.poly_deg(f)
    entries = []
    for m, coeffcols, layer_gram in layers:
        # T^t G T = diag(1, ..., 1, u) is the twisted trace form that
        # canonical_local_block displays
        Tm, flag = diagonalize_unit(_lr.LocalRing(K, m), layer_gram)
        # coeffcols holds one column per layer generator; both changes of
        # generators compose into one matrix over R
        G = _apply_ring_transform(F, st, _la.ring_mat_mul(
            R, _la.transpose(coeffcols),
            tuple(tuple(R.lift_from(x) for x in row) for row in Tm)))
        # the m d columns of generator idx are cfull x^i pi^j g_idx, j < m
        cols = _la.transpose(_la.mat_mul(F, cfull,
                                         _orbit(F, st.x, st.pi, G, d, m)))
        for idx in range(len(Tm)):
            char = flag if idx == len(Tm) - 1 else "1"
            entries.append(_Entry(place, m, char,
                                  cols[idx * m * d:(idx + 1) * m * d]))
    return entries


def canonicalize(P):
    """Exact canonical form of a symmetric pencil in odd characteristic:
    Kronecker part stripped first, then the regular part split along its
    places, classified layer by layer, and reassembled.  The returned
    descriptor is a complete congruence invariant together with a
    transform achieving the canonical matrix exactly."""
    F = P.ctx
    if F.p == 2:
        raise ValueError("odd characteristic required")
    kron = kronecker_decompose(P)
    sub, base, entries = kron.regular_part, None, []
    if kron.inf_tower:
        (wb, W), (wpb, sub) = infinite_split(sub, kron.inf_tower)
        swapped = Pencil(F, W.n, W.b_0, W.b_inf)
        entries += _process_place(swapped, (F.zero, F.one),
                                  char_endomorphism(swapped),
                                  _la.transpose(wb), INF)
        base = _la.transpose(wpb)
    if sub.n:
        # kron.inf_inverse is B_inf^-1 of the regular part when W = 0
        for f, vb, c, blk in primary_split(sub, kron.inf_inverse):
            cols = _la.transpose(vb)
            entries += _process_place(blk, f, c, cols if base is None
                                      else _la.mat_mul(F, base, cols), f)
    desc = canonical_assemble(F, kron, entries)
    achieved = apply_congruence(P, desc.transform)
    if achieved != desc.canonical:
        raise AssertionError("canonical form failed the exactness check")
    return desc


def descriptor_key(desc):
    """The congruence invariant: everything except the transform."""
    return (desc.kronecker_indices, desc.local_blocks)


def canonical_witness(A, B, da, db):
    """S with S^t A S = B on both forms, from the canonical descriptors da
    of A and db of B, or None when their invariants differ.  S is
    rechecked on the pencils themselves."""
    if descriptor_key(da) != descriptor_key(db):
        return None
    F = A.ctx
    S = _la.mat_mul(F, da.transform, _la.inv(F, db.transform))
    if not verify_ip1s(A, B, S):
        raise AssertionError("canonical transforms disagree on the pencil")
    return S


def ip1s_solve(A, B):
    """Simultaneous equivalence of two symmetric pencils: an invertible S
    with S^t A_inf S = B_inf and S^t A_0 S = B_0, or None."""
    if A.ctx != B.ctx or A.n != B.n:
        raise ValueError("pencils live in different spaces")
    return canonical_witness(A, B, canonicalize(A), canonicalize(B))


def emit_descriptor(F, desc):
    """JSON-ready encoding of a canonical descriptor."""
    blocks = []
    for b in desc.local_blocks:
        place = "inf" if b.place is INF else [emit_elem(F, c)
                                              for c in b.place]
        blocks.append({"place": place, "ell": b.ell, "mult": b.mult,
                       "char": b.character})
    return {"kronecker": list(desc.kronecker_indices),
            "blocks": blocks,
            "transform": emit_matrix(F, desc.transform)}
