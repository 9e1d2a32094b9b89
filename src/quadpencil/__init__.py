"""Exact canonical forms for pencils of symmetric bilinear forms over
finite fields of odd characteristic, with the one-secret (congruence)
and two-secret (congruence plus homography) equivalence solvers built
on top, and the alternating Kronecker decomposition in characteristic
two."""

from .field import (FiniteField, make_field, field_sqrt, field_nonsquare,
                    parse_field, emit_field, parse_elem, emit_elem)
from .poly import (poly_factor, canonical_modulus, is_irreducible,
                   poly_monic, poly_trim)
from .localring import LocalRing, hensel_root, ring_sqrt
from .pencil import (Pencil, BinaryForm, Homography, INF, char_poly,
                     twist, apply_congruence, polarize, quadratic_part,
                     verify_ip1s, verify_ip2s, parse_pencil, emit_pencil,
                     parse_solution, emit_solution)
from .kronecker import (KroneckerReport, kh_matrix, minimal_chain,
                        kronecker_decompose)
from .regular import (CanonicalDescriptor, LocalBlockDesc, canonicalize,
                      canonical_local_block, descriptor_key,
                      diagonalize_unit, emit_descriptor, ip1s_solve)
from .ip2s import ip2s_solve
from . import sampling

__version__ = "1.0.0"

__all__ = [
    "FiniteField", "make_field", "field_sqrt", "field_nonsquare",
    "parse_field", "emit_field", "parse_elem", "emit_elem",
    "poly_factor", "canonical_modulus", "is_irreducible", "poly_monic",
    "poly_trim",
    "LocalRing", "hensel_root", "ring_sqrt",
    "Pencil", "BinaryForm", "Homography", "INF", "char_poly", "twist",
    "apply_congruence", "polarize", "quadratic_part", "verify_ip1s",
    "verify_ip2s", "parse_pencil", "emit_pencil", "parse_solution",
    "emit_solution",
    "KroneckerReport", "kh_matrix", "minimal_chain", "kronecker_decompose",
    "CanonicalDescriptor", "LocalBlockDesc", "canonicalize",
    "canonical_local_block", "descriptor_key", "diagonalize_unit",
    "emit_descriptor", "ip1s_solve",
    "ip2s_solve",
    "sampling",
]
