"""Command-line surface: instance generation, canonicalization, the two
equivalence solvers, and independent verification.

Exit codes: 0 solved/equivalent/verified, 2 proven non-equivalent or
failed verification, 1 usage or internal error.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from . import poly as _poly
from . import sampling
from .field import make_field
from .kronecker import kronecker_decompose
from .pencil import (INF, apply_congruence, emit_matrix, emit_pencil,
                     emit_solution, parse_pencil, parse_solution, twist,
                     verify_ip1s, verify_ip2s)
from .regular import canonicalize, emit_descriptor, ip1s_solve
from .ip2s import ip2s_solve


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to 1 so exit 2 keeps its
    proven-non-equivalent meaning."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _dump(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(doc, out):
    text = _dump(doc)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _field_from_args(args):
    return make_field(args.q, args.degree,
                      None if args.modulus is None
                      else tuple(args.modulus))


# -- block spec parsing ------------------------------------------------------


def _split_top(s, seps=",+"):
    """Split on separators not enclosed in parentheses."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses in block spec")
        if depth == 0 and ch in seps:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ValueError("unbalanced parentheses in block spec")
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _parse_poly(F, s):
    """Polynomial in x with integer coefficients, e.g. 'x^2+2x+2'."""
    s = s.replace(" ", "").replace("**", "^").replace("*", "")
    if not s:
        raise ValueError("empty polynomial")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError("cannot parse polynomial %r" % s)
    coeffs = {}
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        m = re.fullmatch(r"(\d*)(x(\^(\d+))?)?", body)
        if not m or not body:
            raise ValueError("bad polynomial term %r" % term)
        c = int(m.group(1)) if m.group(1) else 1
        e = int(m.group(4)) if m.group(4) else (1 if m.group(2) else 0)
        coeffs[e] = coeffs.get(e, 0) + sign * c
    deg = max(coeffs)
    return _poly.poly_trim(F, tuple(F.scalar(coeffs.get(i, 0))
                                    for i in range(deg + 1)))


def parse_blocks(F, spec):
    """Planted-structure grammar: comma-separated K<h>,
    L(<poly>,<ell>,<1|D>) and Linf(<ell>,<1|D>), with ell >= 1."""
    kron, blocks = [], []
    for item in _split_top(spec):
        if re.fullmatch(r"K\d+", item):
            kron.append(int(item[1:]))
            continue
        m = re.fullmatch(r"Linf\((\d+),(1|D)\)", item.replace(" ", ""))
        if m:
            place, ell_s, ch = INF, m.group(1), m.group(2)
        else:
            m = re.fullmatch(r"L\((.+)\)", item)
            if not m:
                raise ValueError("bad block item %r" % item)
            poly_s, ell_s, ch = (x.strip() for x in m.group(1).rsplit(",", 2))
            if ch not in ("1", "D"):
                raise ValueError("block character must be 1 or D")
            place = _poly.poly_monic(F, _parse_poly(F, poly_s))
            if not _poly.is_irreducible(F, place):
                raise ValueError("place polynomial %r is not irreducible"
                                 % poly_s)
        ell = int(ell_s)
        if ell < 1:
            raise ValueError("block order ell must be at least 1, not %d"
                             % ell)
        blocks.append((place, ell, ch == "D"))
    return tuple(kron), tuple(blocks)


# -- subcommands -------------------------------------------------------------


def cmd_gen(args):
    F = _field_from_args(args)
    rng = random.Random(args.seed)
    if args.n is not None and args.n < 0:
        raise ValueError("--n must be at least 0, not %d" % args.n)
    if args.blocks is not None:
        kron, blocks = parse_blocks(F, args.blocks)
        A, _ = sampling.planted_pencil(F, rng, kron, blocks)
        if args.n is not None and args.n != A.n:
            raise ValueError("blocks fill dimension %d, not n=%d"
                             % (A.n, args.n))
    else:
        if args.n is None:
            raise ValueError("gen needs --n or --blocks")
        A = sampling.rand_pencil(F, rng, args.n)
    docs = {"A": emit_pencil(A)}
    if args.plant_ip1s or args.plant_ip2s:
        S0 = sampling.rand_invertible(F, rng, A.n)
        if args.plant_ip2s:
            g0 = sampling.rand_homography(F, rng)
            B = apply_congruence(twist(A, g0), S0)
            docs["planted"] = emit_solution(F, S0, g0)
        else:
            B = apply_congruence(A, S0)
            docs["planted"] = emit_solution(F, S0)
        docs["B"] = emit_pencil(B)
    if args.out is None:
        _emit(docs, None)
    else:
        _emit(docs["A"], args.out + "_A.json")
        if "B" in docs:
            _emit(docs["B"], args.out + "_B.json")
            _emit(docs["planted"], args.out + "_sol.json")
    return 0


def cmd_canon(args):
    A = parse_pencil(_load(args.instance))
    F = A.ctx
    if F.p == 2:
        # characteristic two: only the singular part is canonical
        rep = kronecker_decompose(A)
        doc = {"indices": list(rep.indices),
               "transform": emit_matrix(F, rep.transform),
               "regular_part": emit_pencil(rep.regular_part)}
        _emit(doc, args.out)
        return 0
    desc = canonicalize(A)
    _emit(emit_descriptor(F, desc), args.out)
    return 0


def cmd_ip1s(args):
    A = parse_pencil(_load(args.a))
    B = parse_pencil(_load(args.b))
    S = ip1s_solve(A, B)
    if S is None:
        _emit({"equivalent": False}, args.out)
        return 2
    _emit(emit_solution(A.ctx, S), args.out)
    return 0


def cmd_ip2s(args):
    A = parse_pencil(_load(args.a))
    B = parse_pencil(_load(args.b))
    out = ip2s_solve(A, B)
    if out is None:
        _emit({"equivalent": False}, args.out)
        return 2
    S, g = out
    _emit(emit_solution(A.ctx, S, g), args.out)
    return 0


def cmd_verify(args):
    A = parse_pencil(_load(args.a))
    B = parse_pencil(_load(args.b))
    try:
        S, g = parse_solution(A.ctx, A.n, _load(args.solution))
        ok = (verify_ip1s(A, B, S) if g is None
              else verify_ip2s(A, B, S, g))
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        _emit({"verified": False, "error": str(exc)}, args.out)
        return 2
    _emit({"verified": bool(ok)}, args.out)
    return 0 if ok else 2


# -- entry point -------------------------------------------------------------


def _add_field_flags(p):
    p.add_argument("--q", type=int, default=3,
                   help="characteristic of the base prime field")
    p.add_argument("--degree", type=int, default=1,
                   help="extension degree over the prime field")
    p.add_argument("--modulus", type=int, nargs="+", default=None,
                   help="extension modulus coefficients, constant first")


def build_parser():
    top = _Parser(prog="quadpencil",
                  description="canonical forms and equivalence solvers "
                              "for symmetric pencils over finite fields")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance, optionally with "
                                   "a planted secret")
    _add_field_flags(g)
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--blocks", default=None,
                   help="planted structure, e.g. 'K1,K0,L(x^2+1,1,1)'")
    plant = g.add_mutually_exclusive_group()
    plant.add_argument("--plant-ip1s", action="store_true")
    plant.add_argument("--plant-ip2s", action="store_true")
    g.add_argument("-o", "--out", default=None,
                   help="output prefix; writes <out>_A.json etc.")
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("canon", help="print the canonical descriptor")
    c.add_argument("instance")
    c.add_argument("-o", "--out", default=None)
    c.set_defaults(func=cmd_canon)

    s1 = sub.add_parser("ip1s", help="solve one-secret equivalence")
    s1.add_argument("a")
    s1.add_argument("b")
    s1.add_argument("-o", "--out", default=None)
    s1.set_defaults(func=cmd_ip1s)

    s2 = sub.add_parser("ip2s", help="solve two-secret equivalence")
    s2.add_argument("a")
    s2.add_argument("b")
    s2.add_argument("-o", "--out", default=None)
    s2.set_defaults(func=cmd_ip2s)

    v = sub.add_parser("verify", help="independently re-check a solution")
    v.add_argument("a")
    v.add_argument("b")
    v.add_argument("solution")
    v.add_argument("-o", "--out", default=None)
    v.set_defaults(func=cmd_verify)

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
