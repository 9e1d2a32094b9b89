"""Command-line surface: subcommands, block grammar, exit codes."""

import json
import random

from quadpencil import linalg as la
from quadpencil import sampling as sp
from quadpencil.cli import main
from quadpencil.field import make_field
from quadpencil.pencil import (Pencil, apply_congruence, emit_matrix,
                               emit_pencil)


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out else None)


def test_gen_with_blocks_and_canon(tmp_path, capsys):
    pre = str(tmp_path / "inst")
    rc = main(["gen", "--q", "3", "--seed", "5",
               "--blocks", "K1,K0,L(x^2+1,1,1)", "-o", pre])
    assert rc == 0
    doc = json.loads((tmp_path / "inst_A.json").read_text())
    assert doc["n"] == 6
    rc, desc = _run(capsys, ["canon", pre + "_A.json"])
    assert rc == 0
    assert desc["kronecker"] == [0, 1]
    assert [b for b in desc["blocks"]
            if b["place"] == [1, 0, 1] and b["ell"] == 1
            and b["mult"] == 1 and b["char"] == "1"]


def test_block_grammar_variants(tmp_path, capsys):
    pre = str(tmp_path / "v")
    rc = main(["gen", "--q", "5", "--seed", "2",
               "--blocks", "Linf(2,D)+L(x+4,1,1)+K0", "-o", pre])
    assert rc == 0
    rc, desc = _run(capsys, ["canon", pre + "_A.json"])
    assert rc == 0
    assert desc["kronecker"] == [0]
    places = {(json.dumps(b["place"]), b["ell"], b["char"])
              for b in desc["blocks"]}
    assert ('"inf"', 2, "D") in places
    assert ("[4, 1]", 1, "1") in places


def test_gen_rejects_bad_requests(capsys):
    assert main(["gen", "--q", "7"]) == 1
    assert main(["gen", "--q", "6", "--n", "2"]) == 1
    assert main(["gen", "--q", "3", "--n", "2",
                 "--blocks", "K0,K0,K0"]) == 1
    assert main(["gen", "--q", "3", "--n", "2",
                 "--blocks", "L(x^2+1,1,Q)"]) == 1
    assert main(["gen", "--q", "5", "--n", "-1"]) == 1
    assert "--n" in capsys.readouterr().err
    for spec in ("L(x,0,1)", "Linf(0,D)", "K0,L(x+1,-1,1)"):
        assert main(["gen", "--q", "5", "--blocks", spec]) == 1
        assert "ell must be at least 1" in capsys.readouterr().err
    # dangling or doubled signs are a parse error, not a planted x+1
    for spec in ("L(x++1,1,1)", "L(x+1-,1,1)", "L(--x+1,1,1)",
                 "L(x^2+,1,1)"):
        assert main(["gen", "--q", "5", "--blocks", spec]) == 1
        assert "cannot parse polynomial" in capsys.readouterr().err
    assert main(["gen", "--q", "5", "--n", "2", "--plant-ip1s",
                 "--plant-ip2s"]) == 1
    assert "not allowed with" in capsys.readouterr().err
    capsys.readouterr()


def test_usage_error_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_ip1s_round_trip(tmp_path, capsys):
    pre = str(tmp_path / "one")
    assert main(["gen", "--q", "7", "--n", "4", "--seed", "3",
                 "--plant-ip1s", "-o", pre]) == 0
    sol = str(tmp_path / "sol.json")
    assert main(["ip1s", pre + "_A.json", pre + "_B.json", "-o", sol]) == 0
    rc, doc = _run(capsys, ["verify", pre + "_A.json", pre + "_B.json", sol])
    assert rc == 0 and doc == {"verified": True}
    # the planted witness verifies too
    rc, doc = _run(capsys, ["verify", pre + "_A.json", pre + "_B.json",
                            pre + "_sol.json"])
    assert rc == 0 and doc == {"verified": True}


def test_ip2s_round_trip(tmp_path, capsys):
    pre = str(tmp_path / "two")
    assert main(["gen", "--q", "5", "--seed", "9",
                 "--blocks", "K0,L(x+1,1,1),L(x+2,1,1),Linf(1,1)",
                 "--plant-ip2s", "-o", pre]) == 0
    sol = str(tmp_path / "g.json")
    assert main(["ip2s", pre + "_A.json", pre + "_B.json", "-o", sol]) == 0
    assert "gamma" in json.loads((tmp_path / "g.json").read_text())
    rc, doc = _run(capsys, ["verify", pre + "_A.json", pre + "_B.json", sol])
    assert rc == 0 and doc == {"verified": True}


def test_non_equivalent_pair_exits_2(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["gen", "--q", "7", "--seed", "1",
                 "--blocks", "L(x+1,1,1)", "-o", a]) == 0
    assert main(["gen", "--q", "7", "--seed", "1",
                 "--blocks", "L(x+1,1,D)", "-o", b]) == 0
    rc, doc = _run(capsys, ["ip1s", a + "_A.json", b + "_A.json"])
    assert rc == 2 and doc == {"equivalent": False}
    # reparametrization absorbs a character flip in one dimension, so an
    # ip2s obstruction needs a place-shape mismatch instead
    c, d = str(tmp_path / "c"), str(tmp_path / "d")
    assert main(["gen", "--q", "7", "--seed", "1",
                 "--blocks", "L(x,1,1),L(x+1,1,1)", "-o", c]) == 0
    assert main(["gen", "--q", "7", "--seed", "1",
                 "--blocks", "L(x^2+1,1,1)", "-o", d]) == 0
    rc, doc = _run(capsys, ["ip2s", c + "_A.json", d + "_A.json"])
    assert rc == 2 and doc == {"equivalent": False}


def test_verify_rejects_corrupt_solutions(tmp_path, capsys):
    pre = str(tmp_path / "c")
    assert main(["gen", "--q", "7", "--n", "3", "--seed", "4",
                 "--plant-ip1s", "-o", pre]) == 0
    sol = json.loads((tmp_path / "c_sol.json").read_text())
    sol["S"][0][0] = (sol["S"][0][0] + 1) % 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(sol))
    rc, doc = _run(capsys, ["verify", pre + "_A.json", pre + "_B.json",
                            str(bad)])
    assert rc == 2 and doc == {"verified": False}
    # structurally broken solution: exit 2 with an error note
    bad.write_text(json.dumps({"S": [[1]]}))
    rc, doc = _run(capsys, ["verify", pre + "_A.json", pre + "_B.json",
                            str(bad)])
    assert rc == 2 and doc["verified"] is False and "error" in doc
    # a singular S satisfying both equalities is rejected
    sing = tmp_path / "sing.json"
    sing.write_text(json.dumps({"field": {"p": 3, "degree": 1},
                                "n": 2, "b_inf": [[1, 0], [0, 0]],
                                "b_0": [[0, 0], [0, 0]]}))
    bad.write_text(json.dumps({"S": [[1, 0], [0, 0]]}))
    rc, doc = _run(capsys, ["verify", str(sing), str(sing), str(bad)])
    assert rc == 2 and doc == {"verified": False}
    # unreadable instance file is a usage problem, not a verdict
    assert main(["verify", pre + "_missing.json", pre + "_B.json",
                 str(bad)]) == 1
    capsys.readouterr()


def test_verify_takes_gamma_in_gl2(tmp_path, capsys):
    # B = S^t (2A) S = S^t twist(A, 2I) S over F_5, where 2 is a
    # non-square: gamma = 2I is a valid witness, and gamma = I, its PGL_2
    # representative, is not
    F = make_field(5)
    rng = random.Random(1)
    A = sp.rand_regular_pencil(F, rng, 3)
    S = sp.rand_invertible(F, rng, 3)
    B = apply_congruence(Pencil.make(F, la.mat_scale(F, 2, A.b_inf),
                                     la.mat_scale(F, 2, A.b_0)), S)
    a, b, sol = (tmp_path / "a.json", tmp_path / "b.json",
                 tmp_path / "sol.json")
    a.write_text(json.dumps(emit_pencil(A)))
    b.write_text(json.dumps(emit_pencil(B)))
    for gamma, rc_want in (([[2, 0], [0, 2]], 0), ([[1, 0], [0, 1]], 2)):
        sol.write_text(json.dumps({"S": emit_matrix(F, S), "gamma": gamma}))
        rc, doc = _run(capsys, ["verify", str(a), str(b), str(sol)])
        assert rc == rc_want and doc == {"verified": rc_want == 0}


def test_ip2s_solves_a_nonsquare_scalar_twist(tmp_path, capsys):
    # B = S^t twist(A, 2I) S over F_5, 2 a non-square, and no PGL_2
    # representative of a solution: ip2s answers with a witness, which
    # verify accepts
    F = make_field(5)
    rng = random.Random(4)
    A = sp.rand_regular_pencil(F, rng, 3)
    B = apply_congruence(Pencil.make(F, la.mat_scale(F, 2, A.b_inf),
                                     la.mat_scale(F, 2, A.b_0)),
                         sp.rand_invertible(F, rng, 3))
    a, b, sol = (str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                 str(tmp_path / "sol.json"))
    (tmp_path / "a.json").write_text(json.dumps(emit_pencil(A)))
    (tmp_path / "b.json").write_text(json.dumps(emit_pencil(B)))
    assert main(["ip2s", a, b, "-o", sol]) == 0
    rc, doc = _run(capsys, ["verify", a, b, sol])
    assert rc == 0 and doc == {"verified": True}


def test_gen_is_deterministic(capsys):
    argv = ["gen", "--q", "3", "--degree", "2", "--n", "3", "--seed", "7",
            "--plant-ip2s"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == first
    assert first.endswith("\n")


def test_canon_char2_reports_kronecker(tmp_path, capsys):
    pre = str(tmp_path / "alt")
    assert main(["gen", "--q", "2", "--seed", "3",
                 "--blocks", "K0,K1", "-o", pre]) == 0
    rc, doc = _run(capsys, ["canon", pre + "_A.json"])
    assert rc == 0
    assert doc["indices"] == [0, 1]
    assert "regular_part" in doc and "transform" in doc


def test_huge_prime_exits_1(tmp_path, capsys):
    inst = tmp_path / "huge.json"
    inst.write_text(json.dumps({"field": {"p": 2305843009213693951,
                                          "degree": 1},
                                "n": 1, "b_inf": [[1]], "b_0": [[0]]}))
    assert main(["canon", str(inst)]) == 1
    assert "2^16" in capsys.readouterr().err
    assert main(["gen", "--q", "2305843009213693951", "--n", "1"]) == 1
    assert "2^16" in capsys.readouterr().err
