import argparse
import json
from fractions import Fraction
from pathlib import Path
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smodlab.basedmod import IntegrityError
from smodlab.frontend.cli import main
from smodlab.frontend.formulas import (Atom, Bang, Dual, Lolli, One,
                                       ParseError, Plus, Tensor, Top, With,
                                       Zero, parse_formula, print_formula)
from smodlab.frontend.interpreter import (InterpretError, NotProved,
                                          interpret_formula, interpret_morphism)
from smodlab.frontend.workspace import (WorkspaceError, load_workspace,
                                        loads_workspace)
from smodlab.linmaps import LinMap, compose, is_morphism

WS_TEXT = """
semiring I
cohspace A { atoms [a, b, c]; coherent (a, b); }
cohspace B { atoms [x, y]; coherent (x, y); }
pcoh P { atoms [p, q]; gen (1, 0); gen (0, 1); }
glue G { web [g, h]; u (1, 0); u (0, 1); }
module M = coherence(A)
module N = free(I, web [m1, m2])
matrix swap : N -> N = 0 1; 1 0
formula X = A -o B
"""


@pytest.fixture
def ws():
    return loads_workspace(WS_TEXT)


@pytest.fixture
def ws_file(tmp_path):
    p = tmp_path / "demo.llw"
    p.write_text(WS_TEXT)
    return str(p)


# ---------------------------------------------------------------------------
# formulas


def test_precedence():
    f = parse_formula("A -o B * C + D")
    assert isinstance(f, Lolli)
    assert isinstance(f.right, Plus)
    assert isinstance(f.right.left, Tensor)


def test_bang_needs_degree():
    assert parse_formula("!2 A") == Bang(Atom("A"), 2)
    with pytest.raises(ParseError):
        parse_formula("! A")


def test_par_desugars():
    f = parse_formula("A ⅋ B")
    assert f == Dual(Tensor(Dual(Atom("A")), Dual(Atom("B"))))


def test_units():
    assert parse_formula("1") == One()
    assert parse_formula("0") == Zero()
    assert parse_formula("T") == Top()


@pytest.mark.parametrize("bad", ["", "A -o", "(A", "A &", "2", "A ^ ^ -o", "!A"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_formula(bad)


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Atom("A"), Atom("B"), One(), Zero(), Top()])
    kind = rng.randrange(6)
    if kind == 0:
        return Tensor(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 1:
        return Lolli(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 2:
        return With(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 3:
        return Plus(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if kind == 4:
        return Dual(_random_ast(rng, depth - 1))
    return Bang(_random_ast(rng, depth - 1), rng.randrange(1, 4))


def test_print_parse_round_trip_random():
    rng = random.Random(7)
    for _ in range(500):
        ast = _random_ast(rng, 5)
        assert parse_formula(print_formula(ast)) == ast


# ---------------------------------------------------------------------------
# workspaces


def test_workspace_loads(ws):
    assert set(ws.spaces) == {"A", "B", "P"}
    assert set(ws.modules) == {"M", "N"}
    assert "swap" in ws.matrices and "X" in ws.formulas and "G" in ws.glues


def test_workspace_duplicate_name():
    with pytest.raises(WorkspaceError):
        loads_workspace(WS_TEXT + "module A = free(I, web [z])\n")


def test_workspace_bad_matrix_shape():
    with pytest.raises(WorkspaceError):
        loads_workspace("module N = free(I, web [a, b])\n"
                        "matrix f : N -> N = 1 0\n")


def test_workspace_unknown_semiring():
    with pytest.raises(WorkspaceError):
        loads_workspace("semiring Q\n")


def test_workspace_dead_atom_reported():
    with pytest.raises(WorkspaceError):
        loads_workspace("pcoh P { atoms [a, b]; gen (1, 0); }\n")


def test_workspace_generator_outside_rpos_reported():
    with pytest.raises(WorkspaceError):
        loads_workspace("pcoh P { atoms [a, b]; gen (inf, 1); }\n")


def test_workspace_matrix_cell_outside_carrier_reported():
    with pytest.raises(WorkspaceError):
        loads_workspace("module N = free(I, web [a, b])\n"
                        "matrix f : N -> N = 2 0; 0 1\n")


def test_workspace_pcoh_matrix_entries_may_exceed_one():
    ws = loads_workspace("pcoh P { atoms [a, b]; gen (1/2, 0); gen (0, 1); }\n"
                         "matrix f : P -> P = 0 0; 2 0\n")
    assert ws.matrices["f"][0].entry("b", "a") == Fraction(2)


# ---------------------------------------------------------------------------
# interpreter


@pytest.mark.parametrize("text", [
    "1", "0", "T", "A", "A * B", "A -o B", "A & B", "A + B", "A^",
    "P", "P * P", "P^", "!2 P", "!2 A", "X",
])
def test_interpret_formula_everywhere(ws, text):
    den = interpret_formula(ws, parse_formula(text))
    assert den.module.semiring is not None


def test_interpret_unbound_atom(ws):
    with pytest.raises(InterpretError):
        interpret_formula(ws, parse_formula("Nope"))


def test_combinators_all_are_morphisms():
    ws = loads_workspace(WS_TEXT + "module MB = free(B, web [b1, b2])\n"
                         "module MN = free(N, web [n1, n2])\n")
    terms = [
        "id(A)", "swap", "comp(swap, swap)", "tensor(swap, id(N))",
        "pair(id(N), swap)", "proj1(A, B)", "proj2(A, B)",
        "inj1(A, B)", "inj2(A, B)", "curry(tensor(id(A), id(B)))",
        "apply(A, B)", "promote(P, 2, {p:1/2, q:1/2})",
        "derelict(P, 2)", "comult(P, 2)",
        # a free I-module is the complete coherence space in every
        # connective, and a (co)product is the module it equals
        "id(N * A)", "apply(N, N)", "id((A & B) -o B)", "inj1(N, A)",
        "proj1(P, P)",
        # the function space of free modules over a finitely complete
        # semiring is the free module on the pair web
        "id((MB -o MB) -o MB)", "id(MN -o MN)",
    ]
    for term in terms:
        f = interpret_morphism(ws, term)
        assert is_morphism(f).ok, term


def test_pairing_projection_identity(ws):
    mp = interpret_morphism(ws, "pair(id(N), swap)")
    pr = interpret_morphism(ws, "proj1(N, N)")
    ident = interpret_morphism(ws, "id(N)")
    assert compose(mp, pr).matrix == ident.matrix


def test_curry_apply_triangle(ws):
    f = interpret_morphism(ws, "tensor(id(A), id(B))")
    tri = interpret_morphism(
        ws, "comp(tensor(curry(tensor(id(A), id(B))), id(B)), apply(B, A * B))")
    assert sorted(f.matrix.entries) == sorted(tri.matrix.entries)


def test_morphism_type_mismatch(ws):
    with pytest.raises(InterpretError):
        interpret_morphism(ws, "comp(swap, id(A))")


# objects that share webs but not carriers, so that a term can be well
# typed by webs alone: A and B on [a, b]; P, R, S and Box on [p1, p2]
# (S ⊆ Box, not Box ⊆ S); Q and U on [u]
TYPED_TEXT = """
cohspace A { atoms [a, b]; coherent (a, b); }
cohspace B { atoms [a, b]; }
pcoh P { atoms [p1, p2]; gen (1, 0); gen (0, 1); }
pcoh Q { atoms [u]; gen (1/2); }
pcoh R { atoms [p1, p2]; gen (1, 1/2); }
pcoh S { atoms [p1, p2]; gen (1, 0); gen (0, 1); }
pcoh Box { atoms [p1, p2]; gen (1, 1); }
pcoh U { atoms [u]; gen (1); }
module MB = free(B, web [b1, b2])
matrix tot : S -> U = 1; 1
"""


@pytest.fixture(scope="module")
def typed_ws():
    return loads_workspace(TYPED_TEXT)


def test_curry_reads_its_source_from_the_tensor_factors(typed_ws):
    # slicing P ⊗ Q at u gave ½P: generators (0, 1/2) and (1/2, 0)
    f = interpret_morphism(typed_ws, "curry(tensor(id(P), id(Q)))")
    assert f.src == typed_ws.module_named("P")
    assert sorted(f.src.presentation.polytope(f.src)) == [(0, 1), (1, 0)]


@pytest.mark.parametrize("target", ["P", "R"])
def test_curried_evaluation_is_the_identity_on_the_function_space(typed_ws, target):
    f = interpret_morphism(typed_ws, f"curry(apply(R, {target}))")
    assert f.verified and f.src.web == f.dst.web
    assert sorted(f.matrix.entries) == [((a, a), 1) for a in f.src.web.atoms]


def test_curry_of_a_source_that_is_not_a_tensor_is_a_type_error(ws):
    with pytest.raises(InterpretError, match="curry needs a tensor source"):
        interpret_morphism(ws, "curry(id(A -o B))")


def test_comp_checks_a_composite_whose_middle_objects_differ(typed_ws, tmp_path, capsys):
    # (1, 1) ∈ Box goes to 2, outside U; S ⊆ Box, so tot itself is a morphism
    with pytest.raises(NotProved) as err:
        interpret_morphism(typed_ws, "comp(id(Box), tot)")
    assert err.value.verdict.ok is False
    assert interpret_morphism(typed_ws, "comp(id(S), tot)").verified
    p = tmp_path / "typed.llw"
    p.write_text(TYPED_TEXT)
    assert main(["eval", str(p), "comp(id(Box), tot)"]) == 1
    assert "[FAIL]" in capsys.readouterr().err


def _terms(objects, depth):
    names = st.sampled_from(objects)
    leaves = st.one_of(names.map("id({})".format), st.just("tot"),
                       st.builds("apply({}, {})".format, names, names))
    if depth == 0:
        return leaves
    sub = _terms(objects, depth - 1)
    return st.one_of(
        leaves, sub.map("curry({})".format),
        st.builds("{}({}, {})".format,
                  st.sampled_from(("comp", "tensor", "pair")), sub, sub),
        # f followed by an identity or `tot`: whether f lands in its source
        st.builds("comp({}, {})".format, sub, leaves))


# terms of depth ≤ 2 over at most two catalog objects and `tot`, so that
# the operands of `comp` and `pair` often share a web.  Each `tensor` and
# `apply` multiplies the size of a source web (four `apply(S, S)` tensored
# together have 8⁴ atoms), so a term holds at most three of them.
TERMS = (st.lists(st.sampled_from(("A", "B", "P", "Q", "R", "S", "Box", "MB")),
                  min_size=1, max_size=2, unique=True)
         .flatmap(lambda objects: _terms(objects, 2))
         .filter(lambda term: term.count("tensor") + term.count("apply") <= 3))


@settings(max_examples=150, deadline=None)
@given(TERMS)
def test_every_accepted_term_re_verifies_from_scratch(typed_ws, term):
    try:
        f = interpret_morphism(typed_ws, term)
    except (ValueError, NotImplementedError, IntegrityError):
        return  # refused: ill-typed, mixed semirings, or not proved
    assert is_morphism(LinMap(f.src, f.dst, f.matrix)).ok is True, term


# ---------------------------------------------------------------------------
# CLI


def test_cli_check_axioms():
    assert main(["check-axioms", "I"]) == 0
    assert main(["check-axioms", "nope"]) == 2


def test_cli_eval_and_show(ws_file, capsys):
    assert main(["eval", ws_file, "comp(swap, swap)"]) == 0
    assert capsys.readouterr().out.strip() == "1 0; 0 1"
    assert main(["show-matrix", ws_file, "swap"]) == 0
    assert capsys.readouterr().out.strip() == "0 1; 1 0"


def test_cli_dual_bipolar_bang(ws_file, capsys):
    assert main(["dual", ws_file, "P"]) == 0
    assert main(["bipolar", ws_file, "P", "(1/2, 1/2)"]) == 0
    assert capsys.readouterr().out.strip().endswith("true")
    assert main(["bipolar", ws_file, "P", "(1, 1)"]) == 0
    assert capsys.readouterr().out.strip().endswith("false")
    assert main(["bang", ws_file, "P", "--degree", "2"]) == 0


def test_cli_glue_and_morphism(ws_file):
    assert main(["glue-close", ws_file, "G"]) == 0
    assert main(["check-morphism", ws_file, "swap"]) == 0


def test_cli_json_format(ws_file, capsys):
    assert main(["--format", "json", "bipolar", ws_file, "P", "(1/3, 1/3)"]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": True}


def test_cli_builds_its_parser_once(ws_file, capsys, monkeypatch):
    assert main(["show-matrix", ws_file, "swap"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["--format", "json", "show-matrix", ws_file, "swap"]) == 0
    assert built == []
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {"matrix": "0 1; 1 0"}


def test_cli_usage_errors(ws_file, capsys):
    assert main(["eval", "missing.llw", "id(A)"]) == 2
    assert main(["eval", ws_file, "comp(swap)"]) == 2
    capsys.readouterr()
    # a morphism term's own error, not its misreading as a formula
    assert main(["eval", ws_file, "comp(swap, id(A))"]) == 2
    assert "type mismatch in comp" in capsys.readouterr().err


def test_cli_check_comonoid(ws_file):
    assert main(["check-comonoid", ws_file, "P", "--degree", "2"]) == 0


def test_cli_check_comonoid_with_nothing_to_prove_the_laws_is_undecided(tmp_path, capsys):
    # the basis of a coproduct of free N modules is not decidable, and no
    # sample stands in for it
    p = tmp_path / "n.llw"
    p.write_text("module M = free(N, web [a])\nformula X = M + M\n")
    assert main(["--format", "json", "check-comonoid", str(p), "X", "--degree", "1"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] == "unknown"
    assert all(c["strategy"] != "sampled" for c in payload["checks"])


def test_cli_check_comonoid_over_free_N_is_proved(tmp_path, capsys):
    p = tmp_path / "n.llw"
    p.write_text("module M = free(N, web [a])\n")
    assert main(["--format", "json", "check-comonoid", str(p), "M"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


N_TO_UNIT = """
module M = free(N, web [a, b])
module U = free(unit, web [a, b])
matrix mix : M -> U = 1 0; 0 1
matrix ones : M -> M = 1 1; 1 1
"""


def test_cli_check_morphism_cut_short_is_undecided(tmp_path, capsys):
    # N^2 into [0,1]^2 is decided by neither the free generators (2·δ_a
    # leaves the target) nor an enumeration of N^2
    p = tmp_path / "n.llw"
    p.write_text(N_TO_UNIT)
    assert main(["--format", "json", "check-morphism", str(p), "mix"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] == "unknown" and payload["strategy"] == "none"
    assert main(["eval", str(p), "mix"]) == 3
    assert "[UNKNOWN]" in capsys.readouterr().err
    assert main(["eval", str(p), "inj1(M, M)"]) == 3
    assert "[UNKNOWN]" in capsys.readouterr().err


def test_cli_check_morphism_over_free_N_is_proved(tmp_path, capsys):
    # every N-matrix is a morphism N^A -> N^B, proved on the free generators
    p = tmp_path / "n.llw"
    p.write_text(N_TO_UNIT)
    assert main(["--format", "json", "check-morphism", str(p), "ones"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["strategy"] == "polytope-generators"
    assert main(["eval", str(p), "ones"]) == 0
    assert capsys.readouterr().out.strip() == "1 1; 1 1"


def test_cli_report_counts_a_skipped_triple_dual_as_undecided(tmp_path, capsys):
    # pcoh_dual refuses webs above 4 atoms (BoundExceeded)
    p = tmp_path / "big.llw"
    p.write_text("pcoh P { atoms [a, b, c, d, e]; gen (1, 1, 1, 1, 1); }\n")
    assert main(["--format", "json", "report", str(p)]) == 3
    checks = {c["what"]: c["ok"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["triple-dual P"] == "unknown" and checks["basis of P"] is True


def test_cli_report_proves_the_pcoh_basis_on_its_generators(capsys):
    demo = Path(__file__).resolve().parents[1] / "demo.llw"
    assert main(["report", str(demo)]) == 0
    assert "basis of P (polytope-generators, 2 checked)" in capsys.readouterr().out


def test_lolli_of_free_rpos_modules_interprets():
    ws = loads_workspace("module M = free(Rpos, web [a])\nformula L = M -o M\n")
    den = interpret_formula(ws, ws.formulas["L"])
    assert den.module.web.atoms == ("(a,a)",)


@pytest.mark.parametrize("text", [
    "pcoh P { atoms [a, b]; gen (inf, 1); }\n",
    "module N = free(I, web [a, b])\nmatrix f : N -> N = 2 0; 0 1\n",
], ids=["gen-inf", "cell-2-over-I"])
def test_cli_literal_outside_its_carrier_is_a_usage_error(tmp_path, capsys, text):
    p = tmp_path / "bad.llw"
    p.write_text(text)
    assert main(["show-matrix", str(p), "f"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_library_errors_are_usage_errors(ws_file, capsys):
    # the degree bound raises ExponentialError inside the library
    assert main(["bang", ws_file, "P", "--degree", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert main(["bipolar", ws_file, "P", "(inf, 0)"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


PCOH_TEXT = """
pcoh P { atoms [a, b]; gen (2, 0); gen (0, 1); }
module M = pcoh(P)
"""


@pytest.fixture
def pcoh_file(tmp_path):
    p = tmp_path / "pcoh.llw"
    p.write_text(PCOH_TEXT)
    return str(p)


def test_cli_bang_of_pcoh_module_matches_its_space(pcoh_file, capsys):
    outputs = []
    for name in ("M", "P"):
        assert main(["bang", pcoh_file, name, "--degree", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "gamma [a,b] = 1/2" in outputs[0]


def test_cli_promote_parses_vectors_in_the_ambient_carrier(pcoh_file, capsys):
    assert main(["promote", pcoh_file, "P", "{a:2}", "--degree", "1"]) == 0
    assert capsys.readouterr().out.strip() == "{[]:1, [a]:1}"
    assert main(["promote", pcoh_file, "P", "{a:3}", "--degree", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_report_labels_exhaustive_axiom_checks_enumerated(capsys):
    assert main(["--format", "json", "report"]) == 0
    strategies = {c["what"]: c["strategy"]
                  for c in json.loads(capsys.readouterr().out)["checks"]}
    assert strategies["axioms I"] == strategies["axioms F"] == "enumerated"
    assert strategies["axioms unit"] == "sampled"


def test_load_workspace_from_disk(ws_file):
    ws = load_workspace(ws_file)
    assert "swap" in ws.matrices
