"""Seeded samplers for field elements, matrices, and pencil instances."""

from __future__ import annotations

from . import linalg as _la
from .pencil import Homography, Pencil, apply_congruence
from .regular import assemble_blocks


def rand_matrix(F, rng, r, c):
    return tuple(tuple(F.rand(rng) for _ in range(c)) for _ in range(r))


def rand_symmetric(F, rng, n):
    rows = [[F.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = F.rand(rng)
            rows[i][j] = rows[j][i] = x
    return tuple(tuple(r) for r in rows)


def rand_invertible(F, rng, n):
    while True:
        M = rand_matrix(F, rng, n, n)
        if _la.is_invertible(F, M):
            return M


def rand_homography(F, rng):
    """A random element of PGL_2(F) as its normalized matrix."""
    while True:
        a, b, d, e = (F.rand(rng) for _ in range(4))
        if F.sub(F.mul(a, e), F.mul(b, d)) != F.zero:
            return Homography.make(F, ((a, b), (d, e))).normalized()


def rand_pencil(F, rng, n):
    return Pencil.make(F, rand_symmetric(F, rng, n), rand_symmetric(F, rng, n))


def rand_regular_pencil(F, rng, n):
    """Pencil with invertible B_inf, hence nonzero characteristic form."""
    while True:
        binf = rand_symmetric(F, rng, n)
        if _la.is_invertible(F, binf):
            return Pencil.make(F, binf, rand_symmetric(F, rng, n))


def planted_pencil(F, rng, kron=(), blocks=()):
    """Scrambled instance with known structure: assemble_blocks pushed
    through a random congruence.  Returns (pencil, scramble)."""
    P = assemble_blocks(F, kron, blocks)
    S = rand_invertible(F, rng, P.n)
    return apply_congruence(P, S), S
