"""Seeded inputs and answer checks for the benchmark workloads.

A workload's corpus is its ops 0 .. CORPUS - 1; op ``i`` is drawn from
two random streams:

* a *shape* stream, keyed by ``i``, fixes everything the cost and the
  answer depend on: the congruence class of every pencil (sizes,
  Kronecker indices, places, layers, or a random pencil before
  scrambling), and for ip2s-pool the homography g0 and the square class
  of the scalar c;
* a *seed* stream, keyed by (seed, i), draws the scrambling congruences
  and the value of c.

So the same seed always gives the same inputs, and different seeds give
different matrices of the same classes, with much the same cost and the
same expected answers.  A run generates the corpus once and passes over it
again and again.  Each op names one public entry point of quadpencil,
the pencils it is given, and the planted facts its answer is checked
against; the program sees only the pencils.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from quadpencil import linalg as la
from quadpencil import poly as pl
from quadpencil import sampling as sp
from quadpencil.field import make_field
from quadpencil.kronecker import kh_matrix
from quadpencil.pencil import (INF, Pencil, apply_congruence, char_poly,
                               twist, verify_ip1s, verify_ip2s)


@dataclass(frozen=True)
class Op:
    kind: str       # op label, e.g. "ip2s-nonequiv"
    module: str     # quadpencil module that binds the entry point
    func: str       # entry point name in that module
    args: tuple     # pencils handed to the program
    expect: object  # planted facts, read only by check()
    pair: object = None  # True/False for planted (non-)equivalent pairs


_FIELD_SPECS = {
    "canon-f101": ((101, 1),),
    "ip1s-ext": ((3, 2), (5, 2)),
    "kron-small": ((3, 1), (5, 1), (7, 1), (2, 1), (2, 2)),
    "ip2s-pool": ((31, 1), (103, 1)),
}


def make_fields(workload):
    """Every field the workload draws from, keyed by (p, degree)."""
    return {spec: make_field(*spec) for spec in _FIELD_SPECS[workload]}


def _rand_place(F, rng, d, allow_inf=True):
    if d == 1 and allow_inf and rng.random() < 0.15:
        return INF
    while True:
        f = tuple(F.rand(rng) for _ in range(d)) + (F.one,)
        if pl.is_irreducible(F, f):
            return f


def _place_dim(place):
    return 1 if place is INF else len(place) - 1


def _fill_blocks(F, shape, room):
    """Local blocks (place, ell, delta) filling at most ``room`` dimensions:
    places of degree 1 or 2 (the infinite place included), ell <= 2,
    characters 1 and D."""
    blocks = []
    while room > 0 and (not blocks or shape.random() < 0.7):
        d = 2 if room >= 2 and shape.random() < 0.35 else 1
        ell = 2 if room >= 2 * d and shape.random() < 0.3 else 1
        blocks.append((_rand_place(F, shape, d), ell, shape.random() < 0.3))
        room -= d * ell
    return blocks


def _scramble(F, rng, P):
    return apply_congruence(P, sp.rand_invertible(F, rng, P.n))


def _block_dim(kron, blocks):
    return (sum(2 * h + 1 for h in kron)
            + sum(_place_dim(f) * ell for f, ell, _ in blocks))


# -- canon-f101 ------------------------------------------------------------

# Every size as a regular and a singular pencil; the larger sizes come
# less often (16:24:32:48 as 7:4:4:1) so that a pass over the corpus
# takes a few seconds and a run makes several.
_CANON_CYCLE = tuple((n, sing) for n in (16, 24, 16, 32, 16, 24, 16, 32,
                                         16, 24, 16, 32, 16, 24, 32, 48)
                     for sing in (False, True))


def _canon_op(fields, shape, rng, i, warm):
    F = fields[(101, 1)]
    n, sing = (16, False) if warm else _CANON_CYCLE[i % len(_CANON_CYCLE)]
    if not sing:
        P = _scramble(F, rng, sp.rand_regular_pencil(F, shape, n))
        return Op("canon-regular", "regular", "canonicalize", (P,), ())
    h = max(1, n // 8)
    roots = shape.sample(range(F.p), n - (2 * h + 1))
    blocks = tuple(((c, 1), 1, shape.random() < 0.5) for c in roots)
    P, _ = sp.planted_pencil(F, rng, (h,), blocks)
    return Op("canon-singular", "regular", "canonicalize", (P,), (h,))


# -- ip1s-ext --------------------------------------------------------------


def _ext_structure(F, shape, nmax, split):
    """test_1-style structure: Kronecker blocks h <= 2, places of degree
    1-2 including INF, ell <= 2, characters 1/D.  With ``split`` the first
    block is an ell = 2 block that the partner replaces by two ell = 1
    copies: same dimension and places, different layer partition."""
    blocks = []
    if split:
        d = shape.choice((1, 2))
        blocks.append((_rand_place(F, shape, d), 2, shape.random() < 0.3))
    kron = []
    if shape.random() < 0.5:
        for _ in range(shape.randint(1, 2)):
            h = shape.choice((0, 0, 1, 2))
            if _block_dim(kron + [h], blocks) <= nmax:
                kron.append(h)
    room = nmax - _block_dim(kron, blocks)
    if room > 0:
        blocks += _fill_blocks(F, shape, room)
    return tuple(kron), tuple(blocks)


def _ip1s_ext_op(fields, shape, rng, i, warm):
    """Pairs over GF(9) and GF(25), n <= 10 or n <= 8 in turn; one pair in
    five is non-equivalent by construction."""
    F = fields[((3, 2), (5, 2))[i % 2]]
    nonequiv = not warm and i % 5 == 4
    nmax = 6 if warm else (10, 8)[(i // 2) % 2]
    kron, blocks = _ext_structure(F, shape, nmax, nonequiv)
    A, _ = sp.planted_pencil(F, rng, kron, blocks)
    if nonequiv:
        place, _, delta = blocks[0]
        partner = ((place, 1, delta), (place, 1, delta)) + blocks[1:]
        B, _ = sp.planted_pencil(F, rng, kron, partner)
        return Op("ip1s-nonequiv", "regular", "ip1s_solve", (A, B), None,
                  pair=False)
    B = _scramble(F, rng, A)
    return Op("ip1s-equiv", "regular", "ip1s_solve", (A, B), None, pair=True)


# -- kron-small ------------------------------------------------------------

_KRON_CYCLE = ("kd-odd", "ip1s-singular", "kd-char2")
_ODD_SMALL = ((3, 1), (5, 1), (7, 1))
_CHAR2 = ((2, 1), (2, 2))


def _odd_singular_structure(F, shape, nmax=12):
    """1-3 Kronecker blocks with h <= 3, then local blocks up to n <= 12."""
    kron = []
    for _ in range(shape.randint(1, 3)):
        h = shape.choice((0, 1, 1, 2, 2, 3))
        if _block_dim(kron + [h], ()) <= nmax:
            kron.append(h)
    room = nmax - _block_dim(kron, ())
    blocks = _fill_blocks(F, shape, shape.randint(0, room)) if room else []
    return tuple(kron), tuple(blocks)


def _rand_alternating_regular(F, rng, n):
    """Random alternating pencil of even size n with nonzero
    characteristic form (test_9's regular part)."""
    while True:
        mats = []
        for _ in range(2):
            M = [[F.zero] * n for _ in range(n)]
            for a in range(n):
                for b in range(a + 1, n):
                    M[a][b] = M[b][a] = F.rand(rng)
            mats.append(M)
        P = Pencil.make(F, mats[0], mats[1])
        if not char_poly(P).is_zero():
            return P


def _char2_op(F, shape, rng):
    """test_9-style planted alternating pencil: K_h blocks plus a random
    alternating regular part, scrambled by a random congruence."""
    hs = sorted(shape.choice((0, 0, 1, 1, 2, 3))
                for _ in range(shape.randint(1, 3)))
    while _block_dim(hs, ()) > 12:
        hs.pop()
    room = 12 - _block_dim(hs, ())
    m = shape.choice([k for k in (0, 2, 4) if k <= room])
    parts = [kh_matrix(F, h) for h in hs]
    if m:
        parts.append(_rand_alternating_regular(F, shape, m))
    P0 = Pencil.make(F, la.block_diag(F, [p.b_inf for p in parts]),
                     la.block_diag(F, [p.b_0 for p in parts]))
    P = _scramble(F, rng, P0)
    return Op("kd-char2", "kronecker", "kronecker_decompose", (P,), tuple(hs))


def _kron_op(fields, shape, rng, i, warm):
    kind = _KRON_CYCLE[i % len(_KRON_CYCLE)]
    if kind == "kd-char2":
        return _char2_op(fields[_CHAR2[(i // 3) % 2]], shape, rng)
    F = fields[_ODD_SMALL[(i // 3) % 3]]
    kron, blocks = _odd_singular_structure(F, shape)
    A, _ = sp.planted_pencil(F, rng, kron, blocks)
    if kind == "kd-odd":
        return Op(kind, "kronecker", "kronecker_decompose", (A,),
                  tuple(sorted(kron)))
    B = _scramble(F, rng, A)
    return Op(kind, "regular", "ip1s_solve", (A, B), None, pair=True)


# -- ip2s-pool -------------------------------------------------------------

# Eight equivalent pairs per two non-equivalent ones.  The equivalent
# pairs (n <= 6) alternate q = 31 and 103 and plant a square or a
# non-square scalar in equal numbers.  The non-equivalent pairs have a
# split-torus pool at q = 103 (about q candidates) and a nonsplit-torus
# pool at q = 31 (about 2(q + 1) candidates).
_IP2S_CYCLE = (("eq", 31, True), ("eq", 103, True),
               ("eq", 31, False), ("eq", 103, False),
               ("split", 103, None),
               ("eq", 31, True), ("eq", 103, False),
               ("eq", 31, False), ("eq", 103, True),
               ("nonsplit", 31, None))


def _scale(F, P, c):
    return Pencil.make(F, la.mat_scale(F, c, P.b_inf),
                       la.mat_scale(F, c, P.b_0))


def _ip2s_equiv(F, shape, rng, nmax, square):
    """B = c * S0^t twist(A, g0) S0 over the full GL_2: twisting is linear
    in g, so the scalar c is the part of g0 that a normalized homography
    drops.  A is a scrambled random regular pencil with 3 <= n <= nmax."""
    A = _scramble(F, rng, sp.rand_regular_pencil(F, shape,
                                                 shape.randint(3, nmax)))
    g0 = sp.rand_homography(F, shape)
    c = rng.randrange(1, F.p)
    while F.is_square(c) != square:
        c = rng.randrange(1, F.p)
    B = _scale(F, _scramble(F, rng, twist(A, g0)), c)
    return Op("ip2s-equiv", "ip2s", "ip2s_solve", (A, B), None, pair=True)


def _ip2s_nonequiv(F, shape, rng, torus):
    """Same place signature, different layer partition: one pencil has an
    ell = 2 block where the other has two ell = 1 copies.  Two rational
    places leave a split-torus pool, one quadratic place a nonsplit one."""
    if torus == "split":
        x1, x2 = shape.sample(range(F.p), 2)
        main, rest = (x1, 1), (((x2, 1), 1, shape.random() < 0.5),)
    else:
        main, rest = _rand_place(F, shape, 2, allow_inf=False), ()
    delta = shape.random() < 0.5
    A, _ = sp.planted_pencil(F, rng, (), ((main, 2, delta),) + rest)
    B, _ = sp.planted_pencil(F, rng, (),
                             ((main, 1, delta), (main, 1, delta)) + rest)
    if shape.random() < 0.5:
        A, B = B, A
    return Op("ip2s-nonequiv", "ip2s", "ip2s_solve", (A, B), None, pair=False)


def _ip2s_op(fields, shape, rng, i, warm):
    if warm:
        return _ip2s_equiv(fields[(31, 1)], shape, rng, 4, True)
    kind, q, square = _IP2S_CYCLE[i % len(_IP2S_CYCLE)]
    if kind == "eq":
        return _ip2s_equiv(fields[(q, 1)], shape, rng, 6, square)
    return _ip2s_nonequiv(fields[(q, 1)], shape, rng, kind)


_GENERATORS = {
    "canon-f101": _canon_op,
    "ip1s-ext": _ip1s_ext_op,
    "kron-small": _kron_op,
    "ip2s-pool": _ip2s_op,
}


# Inputs per workload: a whole number of each workload's cycle of kinds
# and fields, and a few seconds of ops per pass.
CORPUS = {"canon-f101": 64, "ip1s-ext": 80, "kron-small": 54,
          "ip2s-pool": 60}
# Inputs a traced run passes over, the first ones of the corpus: all but
# on ip1s-ext, whose element counters would make a pass over all 80 take
# over a minute.
TRACE_INPUTS = {"canon-f101": 64, "ip1s-ext": 40, "kron-small": 54,
                "ip2s-pool": 60}


def make_op(workload, fields, seed, i):
    """Op ``i`` of the workload's corpus for this seed; i = -1 is the
    warm-up op, a small instance of the workload's first kind."""
    shape = random.Random("%s/shape/%d" % (workload, i))
    rng = random.Random("%s/%d/%d" % (workload, seed, i))
    return _GENERATORS[workload](fields, shape, rng, max(i, 0), i < 0)


# -- answer checks ---------------------------------------------------------


def _expand(desc):
    """Descriptor blocks as assemble_blocks input, in canonical order."""
    return [(b.place, b.ell, b.character == "D")
            for b in desc.local_blocks for _ in range(b.mult)]


def _block_diagonal_ok(P, rep):
    F = P.ctx
    got = apply_congruence(P, rep.transform)
    ks = [kh_matrix(F, h) for h in rep.indices]
    return (got.b_inf == la.block_diag(
                F, [k.b_inf for k in ks] + [rep.regular_part.b_inf])
            and got.b_0 == la.block_diag(
                F, [k.b_0 for k in ks] + [rep.regular_part.b_0]))


def _invertible(F, S):
    return la.det(F, S) != F.zero


def check(op, out):
    """'ok', 'missed' (None on a pair planted equivalent) or 'wrong' (an
    answer that asserts something false).  Uses only the planted facts
    and independent recomputation, never the solvers' own self-checks;
    det S != 0 is checked here because the verifiers do not."""
    if op.func == "canonicalize":
        (P,) = op.args
        F = P.ctx
        if (out.kronecker_indices != op.expect
                or not _invertible(F, out.transform)):
            return "wrong"
        rebuilt = sp.assemble_blocks(F, out.kronecker_indices, _expand(out))
        same = apply_congruence(P, out.transform) == rebuilt
        return "ok" if same else "wrong"
    if op.func == "kronecker_decompose":
        (P,) = op.args
        if out.indices != op.expect or not _invertible(P.ctx, out.transform):
            return "wrong"
        return "ok" if _block_diagonal_ok(P, out) else "wrong"
    A, B = op.args
    if out is None:
        return "missed" if op.pair else "ok"
    if not op.pair:
        return "wrong"
    if op.func == "ip1s_solve":
        S, ok = out, verify_ip1s(A, B, out)
    else:
        S, g = out
        ok = verify_ip2s(A, B, S, g)
    return "ok" if ok and _invertible(A.ctx, S) else "wrong"
