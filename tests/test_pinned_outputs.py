"""Byte-level pin of the solvers' JSON outputs on fixed seeds.

One sha256 (`DIGEST`) covers `emit_descriptor`, `emit_solution` and the
Kronecker report of fifty small seeded records: singular and planted
pencils, ip1s and ip2s pairs, over odd-characteristic prime and
extension fields and over GF(2) and GF(4).  Refactors that keep outputs
byte-identical keep the digest.  A second one (`INVARIANT_DIGEST`)
covers the same records with the transforms and S dropped: the
canonical Kronecker indices and blocks, the full Kronecker reports,
whether each ip1s pair is equivalent, and for each ip2s pair whether it
is equivalent and its gamma.  A third one (`CLI_DIGEST`) covers the
command line: the exit code, stdout and written files of each command
in `CLI_COMMANDS`, run in-process over F_3, F_7, F_31, GF(9) and GF(4).

Solving ip2s over all of GL_2 rather than over PGL_2 representatives
moved none of the three digests.  The solver tries the whole pool as
it is before any non-square multiple of a candidate, so every pair
solved over PGL_2 keeps its witness, and no pinned pair went from
"non-equivalent" to solved.  A change that does move a digest records
the new one.
"""

import hashlib
import json
import os
import random

from quadpencil import sampling as sp
from quadpencil.cli import main as cli_main
from quadpencil.field import emit_elem, make_field
from quadpencil.ip2s import ip2s_solve
from quadpencil.kronecker import kh_matrix, kronecker_decompose
from quadpencil.linalg import block_diag
from quadpencil.pencil import (INF, Pencil, apply_congruence, char_poly,
                               emit_pencil, emit_solution, twist)
from quadpencil.regular import canonicalize, emit_descriptor, ip1s_solve

DIGEST = ("089138e1710c7a15434afd77de3249163"
          "d0185407e8d05039a97cdde48094e1b")
INVARIANT_DIGEST = ("3046db974f609031fe1b9809ebbf2c798"
                    "66378a4074605ee886e9f462ae9b771")
CLI_DIGEST = ("3ca1b9d589975a0791c16537d6e3c27d9"
              "6a4626f9c39bf43cac97b1f6ede49ba")


def _planted(F, rng, kron, blocks):
    return sp.planted_pencil(F, rng, kron, blocks)[0]


def _kron_doc(F, rep):
    return {"indices": list(rep.indices),
            "transform": [[emit_elem(F, x) for x in row]
                          for row in rep.transform],
            "regular_part": emit_pencil(rep.regular_part)}


# what the CLI prints for a pair it proves non-equivalent
NOT_EQUIVALENT = {"equivalent": False}


def _alternating_part(F, rng, n):
    """Random alternating pencil of even size n with a nonzero
    characteristic form."""
    while True:
        mats = []
        for _ in range(2):
            A = [[F.zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    A[i][j] = A[j][i] = F.rand(rng)
            mats.append(tuple(map(tuple, A)))
        P = Pencil.make(F, *mats)
        if not char_poly(P).is_zero():
            return P


def _records():
    rng = random.Random(4242)
    f3, f5, f7, f11 = (make_field(q) for q in (3, 5, 7, 11))
    f9, f25 = make_field(3, 2), make_field(5, 2)
    planted = (
        (f3, (1,), ((INF, 1, False), ((1, 1), 2, True))),
        (f3, (0, 2), (((1, 0, 1), 1, False),)),
        (f5, (), (((2, 1), 1, False), ((2, 1), 1, True), (INF, 2, False))),
        (f5, (1,), (((0, 1), 3, False), ((2, 0, 1), 1, True))),
        (f7, (0,), (((3, 1), 1, False), ((3, 1), 1, False),
                    ((1, 0, 1), 2, False))),
        (f7, (2,), ((INF, 1, True), ((5, 1), 1, False))),
        (f11, (), (((4, 1), 2, True), ((1, 0, 1), 1, False),
                   (INF, 1, False))),
        (f11, (0, 1), (((7, 1), 1, True),)),
        (f9, (1,), ((INF, 1, False), ((f9.scalar(1), f9.one), 1, True))),
        (f9, (), (((f9.zero, f9.one), 2, False),
                  ((f9.scalar(2), f9.one), 1, False))),
        (f25, (0,), (((f25.scalar(3), f25.one), 1, True), (INF, 2, False))),
    )
    for F, kron, blocks in planted:
        A = _planted(F, rng, kron, blocks)
        yield "canon", emit_descriptor(F, canonicalize(A))
        if F.q <= 7:
            yield "kron", _kron_doc(F, kronecker_decompose(A))
    for F, n in ((f3, 4), (f5, 5), (f7, 3), (f11, 6), (f9, 3), (f25, 2)):
        A = sp.rand_pencil(F, rng, n)
        yield "canon", emit_descriptor(F, canonicalize(A))
    for F, kron, blocks in planted[:8]:
        A = _planted(F, rng, kron, blocks)
        B = apply_congruence(A, sp.rand_invertible(F, rng, A.n))
        S = ip1s_solve(A, B)
        yield "ip1s", NOT_EQUIVALENT if S is None else emit_solution(F, S)
    for F in (f3, f5, f7, f9):
        A = sp.rand_regular_pencil(F, rng, 3)
        B = sp.rand_regular_pencil(F, rng, 3)
        S = ip1s_solve(A, B)
        yield "ip1s", NOT_EQUIVALENT if S is None else emit_solution(F, S)
    for F, n in ((f5, 3), (f7, 4), (f11, 3), (make_field(13), 4)):
        A = sp.rand_regular_pencil(F, rng, n)
        g0 = sp.rand_homography(F, rng)
        B = apply_congruence(twist(A, g0),
                             sp.rand_invertible(F, rng, A.n))
        out = ip2s_solve(A, B)
        yield "ip2s", NOT_EQUIVALENT if out is None else emit_solution(F, *out)
    for F, kron, blocks in planted[2:7:2]:
        A = _planted(F, rng, kron, blocks)
        g0 = sp.rand_homography(F, rng)
        B = apply_congruence(twist(A, g0),
                             sp.rand_invertible(F, rng, A.n))
        out = ip2s_solve(A, B)
        yield "ip2s", NOT_EQUIVALENT if out is None else emit_solution(F, *out)
    for F in (make_field(2), make_field(2, 2, (1, 1, 1))):
        for hs, m in (((0,), 2), ((1, 0), 0), ((2,), 4), ((0, 1), 2)):
            parts = [kh_matrix(F, h) for h in hs]
            if m:
                parts.append(_alternating_part(F, rng, m))
            P0 = Pencil.make(F, block_diag(F, [p.b_inf for p in parts]),
                             block_diag(F, [p.b_0 for p in parts]))
            P = apply_congruence(P0, sp.rand_invertible(F, rng, P0.n))
            yield "kron", _kron_doc(F, kronecker_decompose(P))


def _invariant(kind, doc):
    """The part of a record that no choice of transform or S affects."""
    if kind == "canon":
        return {k: v for k, v in doc.items() if k != "transform"}
    if kind == "kron":
        return doc
    out = {"equivalent": doc != NOT_EQUIVALENT}
    if "gamma" in doc:
        out["gamma"] = doc["gamma"]
    return out


def _digests():
    full, inv = hashlib.sha256(), hashlib.sha256()
    count = 0
    for kind, doc in _records():
        full.update(json.dumps([kind, doc], sort_keys=True).encode())
        full.update(b"\n")
        inv.update(json.dumps([kind, _invariant(kind, doc)],
                              sort_keys=True).encode())
        inv.update(b"\n")
        count += 1
    assert count == 50
    return full.hexdigest(), inv.hexdigest()


def test_outputs_are_pinned():
    assert _digests()[0] == DIGEST


def test_invariants_are_pinned():
    assert _digests()[1] == INVARIANT_DIGEST


# -- CLI outputs ----------------------------------------------------------

# Each command runs in-process through quadpencil.cli.main inside one
# temporary directory; "@x" names the file x in it.  Files are written
# by the commands themselves, except "bad_S.json", which corrupts one
# entry of a planted witness.
CLI_COMMANDS = (
    "gen --q 3 --n 4 --seed 1",
    "gen --q 3 --degree 2 --n 3 --seed 7 --plant-ip2s",
    "gen --q 3 --seed 5 --blocks K1,K0,L(x^2+1,1,1) -o @k3",
    "canon @k3_A.json",
    "gen --q 3 --seed 6 --blocks L(x^3+2x+1,1,1),L(x,2,D) -o @d3",
    "canon @d3_A.json -o @d3_canon.json",
    "gen --q 7 --seed 2 --blocks Linf(2,D)+L(x+4,1,1)+K0 -o @l7",
    "canon @l7_A.json",
    "gen --q 7 --n 4 --seed 3 --plant-ip1s -o @p7",
    "ip1s @p7_A.json @p7_B.json -o @p7_S.json",
    "verify @p7_A.json @p7_B.json @p7_S.json",
    "verify @p7_A.json @p7_B.json @p7_sol.json",
    "verify @p7_A.json @p7_B.json @bad_S.json",
    "gen --q 7 --seed 1 --blocks L(x+1,1,1) -o @a7",
    "gen --q 7 --seed 1 --blocks L(x+1,1,D) -o @b7",
    "ip1s @a7_A.json @b7_A.json",
    "gen --q 7 --seed 1 --blocks L(x,1,1),L(x+1,1,1) -o @c7",
    "gen --q 7 --seed 1 --blocks L(x^2+1,1,1) -o @e7",
    "ip2s @c7_A.json @e7_A.json -o @ce7.json",
    "gen --q 31 --seed 2 --blocks L(x^2+1,2,1),Linf(1,D),K0 --plant-ip1s"
    " -o @f31",
    "ip1s @f31_A.json @f31_B.json",
    "gen --q 31 --n 3 --seed 4 --plant-ip2s -o @t31",
    "ip2s @t31_A.json @t31_B.json -o @t31_g.json",
    "verify @t31_A.json @t31_B.json @t31_g.json",
    "gen --q 3 --degree 2 --seed 8 --blocks L(x+1,1,1),L(x,2,D),Linf(1,1)"
    " --plant-ip2s -o @g9",
    "ip2s @g9_A.json @g9_B.json",
    "canon @g9_B.json",
    "gen --q 2 --seed 3 --blocks K0,K1 -o @c2",
    "canon @c2_A.json",
    "gen --q 2 --degree 2 --seed 4 --blocks K1,K0,K2 -o @c4",
    "canon @c4_A.json -o @c4_canon.json",
    "gen --q 7",
)


def test_cli_outputs_are_pinned(tmp_path, capsys):
    h = hashlib.sha256()
    for cmd in CLI_COMMANDS:
        if "@bad_S.json" in cmd:
            sol = json.loads((tmp_path / "p7_sol.json").read_text())
            sol["S"][0][0] = (sol["S"][0][0] + 1) % 7
            (tmp_path / "bad_S.json").write_text(json.dumps(sol))
        before = set(tmp_path.iterdir())
        rc = cli_main([a.replace("@", str(tmp_path) + os.sep)
                       for a in cmd.split()])
        h.update(json.dumps([cmd, rc, capsys.readouterr().out]).encode())
        for path in sorted(set(tmp_path.iterdir()) - before):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        h.update(b"\n")
    assert h.hexdigest() == CLI_DIGEST
