import argparse
import json
from fractions import Fraction
from pathlib import Path
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smodlab.basedmod import IntegrityError, Web, free_module
from smodlab.frontend import workspace as workspace_module
from smodlab.frontend.cli import main
from smodlab.frontend.formulas import (Atom, Bang, Dual, Lolli, One,
                                       ParseError, Plus, Tensor, Top, With,
                                       Zero, parse_formula, print_formula)
from smodlab.frontend.interpreter import (InterpretError, NotProved,
                                          interpret_formula, interpret_morphism)
from smodlab.frontend.workspace import (GlueDecl, Workspace, WorkspaceError,
                                        load_workspace, loads_workspace)
from smodlab.linmaps import LinMap, Matrix, compose, identity, is_morphism
from smodlab.models import (CoherenceSpace, FinitenessSpace, ModelError,
                            ProbCohSpace, coherence_module, coherence_space,
                            finiteness_module, pcoh_space, H_embed)
from smodlab.scalars import INF, NINF, RPOS, SEMIRINGS, CarrierError, parse_scalar

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
# the one-pass loader against the two-pass loader it replaced
#
# The `_parent_*` functions are that loader, kept as the oracle: it took the
# blocks anywhere in the text, blanked them, then took the line
# declarations by a second regex pass, and it parsed every matrix cell.


def _parent_parse_scalar(text, s):
    text = text.strip()
    try:
        if text == "inf":
            value = INF
        elif "/" in text:
            num, den = text.split("/", 1)
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad scalar literal {text!r}") from None
    if value is not INF and s.ambient is not RPOS and value.denominator == 1:
        value = value.numerator
    s.check_scalar(value)
    return value


def _parent_parse_matrix(text, src_web, dst_web, s):
    rows = [r.strip() for r in text.split(";")]
    if len(rows) != len(src_web):
        raise ValueError(f"expected {len(src_web)} rows, got {len(rows)}")
    entries = {}
    for a, row in zip(src_web.atoms, rows):
        cells = row.split()
        if len(cells) != len(dst_web):
            raise ValueError(f"row for {a}: expected {len(dst_web)} entries")
        for b, cell in zip(dst_web.atoms, cells):
            entries[(a, b)] = _parent_parse_scalar(cell, s.ambient)
    return Matrix.make(src_web, dst_web, entries)


def _parent_module_named(ws, name):
    if name in ws.modules:
        return ws.modules[name]
    if name in ws.spaces:
        sp = ws.spaces[name]
        if isinstance(sp, CoherenceSpace):
            return coherence_module(sp)
        if isinstance(sp, ProbCohSpace):
            return H_embed(sp)
    raise WorkspaceError(f"no module or space named {name!r}")


def _parent_parse_atoms(text, what):
    m = re.fullmatch(r"\[\s*([^\]]*)\]", text.strip())
    if not m:
        raise WorkspaceError(f"bad {what} list {text!r}")
    body = m.group(1).strip()
    if not body:
        return ()
    return tuple(a.strip() for a in body.split(","))


def _parent_parse_tuple(text):
    m = re.fullmatch(r"\(\s*([^)]*)\)", text.strip())
    if not m:
        raise WorkspaceError(f"bad tuple {text!r}")
    parts = [p.strip() for p in m.group(1).split(",")] if m.group(1).strip() else []
    return tuple(parts)


def _parent_parse_scalars(text, s):
    try:
        return tuple(_parent_parse_scalar(x, s) for x in _parent_parse_tuple(text))
    except (ValueError, CarrierError) as exc:
        raise WorkspaceError(f"in {text.strip()!r}: {exc}") from None


_PARENT_BLOCK = re.compile(
    r"(?P<kind>cohspace|pcoh|glue)\s+(?P<name>\w+)\s*\{(?P<body>[^}]*)\}",
    re.DOTALL)
_PARENT_LINE = re.compile(
    r"(?P<kind>semiring|module|matrix|formula)\s+(?P<rest>[^\n]*)")


def _parent_loads_workspace(text):
    text = re.sub(r"#[^\n]*", "", text)
    ws = Workspace(semiring=SEMIRINGS["I"])
    consumed = []

    for m in _PARENT_BLOCK.finditer(text):
        consumed.append((m.start(), m.end()))
        kind, name, body = m.group("kind"), m.group("name"), m.group("body")
        ws._claim(name)
        items = [s.strip() for s in body.split(";") if s.strip()]
        fields = []
        for item in items:
            mm = re.fullmatch(r"(\w+)\s*(.*)", item, re.DOTALL)
            if not mm:
                raise WorkspaceError(f"bad item {item!r} in {name}")
            fields.append((mm.group(1), mm.group(2).strip()))
        try:
            if kind == "cohspace":
                atoms = ()
                pairs = []
                for key, value in fields:
                    if key == "atoms":
                        atoms = _parent_parse_atoms(value, "atoms")
                    elif key == "coherent":
                        pairs.append(_parent_parse_tuple(value))
                    else:
                        raise WorkspaceError(f"unknown field {key!r} in {name}")
                ws.spaces[name] = coherence_space(name, atoms, pairs)
            elif kind == "pcoh":
                atoms = ()
                gens = []
                for key, value in fields:
                    if key == "atoms":
                        atoms = _parent_parse_atoms(value, "atoms")
                    elif key == "gen":
                        gens.append(_parent_parse_scalars(value, RPOS))
                    else:
                        raise WorkspaceError(f"unknown field {key!r} in {name}")
                ws.spaces[name] = pcoh_space(name, atoms, gens)
            elif kind == "glue":
                web_atoms = ()
                vectors = []
                for key, value in fields:
                    if key == "web":
                        web_atoms = _parent_parse_atoms(value, "web")
                    elif key == "u":
                        vectors.append(_parent_parse_scalars(value, NINF))
                    else:
                        raise WorkspaceError(f"unknown field {key!r} in {name}")
                ws.glues[name] = GlueDecl(name, Web(web_atoms), tuple(vectors))
        except ModelError as exc:
            raise WorkspaceError(f"in {kind} {name}: {exc}") from exc

    stripped = list(text)
    for a, b in consumed:
        for i in range(a, b):
            stripped[i] = " "
    rest_text = "".join(stripped)

    pending_matrices = []
    for m in _PARENT_LINE.finditer(rest_text):
        kind, rest = m.group("kind"), m.group("rest").strip()
        if kind == "semiring":
            if rest not in SEMIRINGS:
                raise WorkspaceError(
                    f"unknown semiring {rest!r}; have {sorted(SEMIRINGS)}")
            ws.semiring = SEMIRINGS[rest]
        elif kind == "module":
            mm = re.fullmatch(r"(\w+)\s*=\s*(\w+)\s*\((.*)\)", rest)
            if not mm:
                raise WorkspaceError(f"bad module declaration {rest!r}")
            name, ctor, args = mm.group(1), mm.group(2), mm.group(3).strip()
            ws._claim(name)
            if ctor == "free":
                am = re.fullmatch(r"(\w+)\s*,\s*web\s*(\[[^\]]*\])", args)
                if not am:
                    raise WorkspaceError(f"bad free(...) arguments {args!r}")
                sid, atoms = am.group(1), _parent_parse_atoms(am.group(2), "web")
                if sid not in SEMIRINGS:
                    raise WorkspaceError(f"unknown semiring {sid!r}")
                ws.modules[name] = free_module(SEMIRINGS[sid], Web(atoms), name)
            elif ctor == "coherence":
                sp = ws.spaces.get(args)
                if not isinstance(sp, CoherenceSpace):
                    raise WorkspaceError(f"{args!r} is not a cohspace")
                ws.modules[name] = coherence_module(sp)
            elif ctor == "pcoh":
                sp = ws.spaces.get(args)
                if not isinstance(sp, ProbCohSpace):
                    raise WorkspaceError(f"{args!r} is not a pcoh space")
                ws.modules[name] = H_embed(sp)
            elif ctor == "finiteness":
                am = re.fullmatch(r"web\s*(\[[^\]]*\])", args)
                if not am:
                    raise WorkspaceError(f"bad finiteness(...) arguments {args!r}")
                atoms = _parent_parse_atoms(am.group(1), "web")
                ws.modules[name] = finiteness_module(
                    FinitenessSpace(name, atoms))
            else:
                raise WorkspaceError(f"unknown module constructor {ctor!r}")
        elif kind == "matrix":
            mm = re.fullmatch(r"(\w+)\s*:\s*(\w+)\s*->\s*(\w+)\s*=\s*(.*)", rest)
            if not mm:
                raise WorkspaceError(f"bad matrix declaration {rest!r}")
            name, src, dst, body = (mm.group(1), mm.group(2), mm.group(3),
                                    mm.group(4).strip())
            ws._claim(name)
            pending_matrices.append((name, src, dst, body))
        elif kind == "formula":
            mm = re.fullmatch(r"(\w+)\s*=\s*(.*)", rest)
            if not mm:
                raise WorkspaceError(f"bad formula declaration {rest!r}")
            name, body = mm.group(1), mm.group(2).strip()
            ws._claim(name)
            ws.formulas[name] = parse_formula(body)

    for name, src, dst, body in pending_matrices:
        src_m = _parent_module_named(ws, src)
        dst_m = _parent_module_named(ws, dst)
        try:
            mat = _parent_parse_matrix(body, src_m.web, dst_m.web, src_m.semiring)
        except (ValueError, CarrierError) as exc:
            raise WorkspaceError(f"matrix {name}: {exc}") from exc
        ws.matrices[name] = (mat, src, dst)
    return ws


def _typed(v):
    return type(v).__name__, v


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789/+-_ inf²٣", max_size=5), st.sampled_from(sorted(SEMIRINGS)))
def test_parse_scalar_matches_the_parent_parser(text, name):
    # "²" and "٣" are digits to str.isdigit, but int() refuses the first
    def outcome(parse):
        try:
            return _typed(parse(text, SEMIRINGS[name]))
        except (ValueError, CarrierError) as exc:
            return type(exc).__name__, str(exc)
    assert outcome(parse_scalar) == outcome(_parent_parse_scalar)


def _outcome(load, text):
    """A load's tables in declaration order, each scalar with its type, or
    the type and message of the error it raised."""
    try:
        ws = load(text)
    except Exception as exc:  # the oracle may raise any library error
        return type(exc).__name__, str(exc)
    return (ws.semiring, list(ws.spaces.items()), list(ws.modules.items()),
            list(ws.formulas.items()),
            [(n, g.web, [tuple(map(_typed, u)) for u in g.vectors])
             for n, g in ws.glues.items()],
            [(n, m.src_web, m.dst_web, [(k, _typed(v)) for k, v in m.entries], s, d)
             for n, (m, s, d) in ws.matrices.items()])


@st.composite
def _workspace_texts(draw):
    """A well-formed workspace: blocks (some over several lines), modules,
    matrices and formulas in any order, with comments and blank lines.
    Some cells lie outside their carrier and some pcoh atoms are dead, so
    errors are drawn too."""
    atoms = st.lists(st.sampled_from(("x", "y", "z")), min_size=1, max_size=3,
                     unique=True)
    names = iter(f"W{k}" for k in range(100))
    statements, objects = [], {}  # objects: name -> web, for matrices

    def block(kind, name, items):
        if draw(st.booleans()):
            return f"{kind} {name} {{ {'; '.join(items)}; }}"
        lines = "".join(f"  {item};  # {item} }}\n" for item in items)
        return f"{kind} {name} {{\n{lines}}}"

    for _ in range(draw(st.integers(0, 2))):
        name, web = next(names), draw(atoms)
        pairs = draw(st.lists(st.sampled_from([(a, b) for a in web for b in web
                                               if a < b] or [None]), max_size=2))
        items = [f"atoms [{', '.join(web)}]"] + [
            f"coherent ({a}, {b})" for a, b in filter(None, pairs)]
        statements.append(block("cohspace", name, items))
        objects[name] = web
        if draw(st.booleans()):
            statements.append(f"module {next(names)} = coherence({name})")
    for _ in range(draw(st.integers(0, 1))):
        name, web = next(names), draw(atoms.map(lambda w: w[:2]))
        gens = draw(st.lists(st.tuples(*[st.sampled_from(("0", "1", "1/2", "2/3"))
                                         for _ in web]), min_size=1, max_size=2))
        items = [f"atoms [{', '.join(web)}]"] + [f"gen ({', '.join(g)})" for g in gens]
        statements.append(block("pcoh", name, items))
        objects[name] = web
        if draw(st.booleans()):
            statements.append(f"module {next(names)} = pcoh({name})")
    for _ in range(draw(st.integers(0, 2))):
        web = draw(atoms)
        us = draw(st.lists(st.tuples(*[st.sampled_from(("0", "1", "2", "inf"))
                                       for _ in web]), max_size=2))
        items = [f"web [{', '.join(web)}]"] + [f"u ({', '.join(u)})" for u in us]
        statements.append(block("glue", next(names), items))
    for _ in range(draw(st.integers(0, 3))):
        name, web = next(names), draw(atoms)
        if draw(st.booleans()):
            statements.append(f"module {name} = finiteness(web [{', '.join(web)}])")
        else:
            s = draw(st.sampled_from(("I", "B", "F", "N", "Rpos")))
            statements.append(f"module {name} = free({s}, web [{', '.join(web)}])")
        objects[name] = web
    cell = st.sampled_from(("0",) * 6 + ("1",) * 6 + ("2", "1/2", "inf"))
    for _ in range(draw(st.integers(0, 3)) if objects else 0):
        src, dst = draw(st.sampled_from(sorted(objects))), draw(st.sampled_from(sorted(objects)))
        rows = "; ".join(" ".join(draw(cell) for _ in objects[dst]) for _ in objects[src])
        statements.append(f"matrix {next(names)} : {src} -> {dst} = {rows}")
    for _ in range(draw(st.integers(0, 2))):
        ast = _random_ast(random.Random(draw(st.integers(0, 999))), 3)
        statements.append(f"formula {next(names)} = {print_formula(ast)}")
    if draw(st.booleans()):
        statements.append(f"semiring {draw(st.sampled_from(sorted(SEMIRINGS)))}")
    statements = draw(st.permutations(statements))
    return "".join(draw(st.sampled_from(("", "\n", "# note\n"))) + stmt
                   + draw(st.sampled_from(("", "  # note"))) + "\n"
                   for stmt in statements)


@settings(max_examples=60, deadline=None)
@given(_workspace_texts())
def test_loader_matches_the_two_pass_loader(text):
    assert _outcome(loads_workspace, text) == _outcome(_parent_loads_workspace, text)


def test_shipped_workspaces_load_as_before():
    demo = Path(__file__).resolve().parent.parent / "demo.llw"
    for text in (demo.read_text(encoding="utf-8"), WS_TEXT, TYPED_TEXT, PCOH_TEXT):
        assert _outcome(loads_workspace, text) == _outcome(_parent_loads_workspace, text)


# each of these the two-pass loader took without a word
@pytest.mark.parametrize("text,line", [
    ("semiring I\nthis is junk\n", 2),                             # unknown
    ("module N = free(I, web [a])\nmodul M = free(I, web [b])\n", 2),  # typo
    ("\nmypcoh P { atoms [a]; gen (1); }\n", 2),                   # glued keyword
    ("submodule M = free(I, web [a])\n", 1),                       # glued keyword
    ("semiring I\ncohspace A { atoms [a];\n  coherent (a, a);\n", 2),  # unclosed
    ("cohspace A {\n  atoms [a]; } module M = coherence(A)\n", 2),  # text after
], ids=["unknown", "typo", "glued-block", "glued-line", "unclosed", "text-after"])
def test_loader_refuses_what_is_not_a_statement(text, line, tmp_path, capsys):
    _parent_loads_workspace(text)
    with pytest.raises(WorkspaceError, match=f"^line {line}: "):
        loads_workspace(text)
    p = tmp_path / "bad.llw"
    p.write_text(text)
    assert main(["check-morphism", str(p), "f"]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


def test_each_space_has_one_module_per_load(monkeypatch):
    ws = loads_workspace(WS_TEXT)
    assert ws.module_named("A") is ws.module_named("A")
    assert ws.modules["M"] is ws.module_named("A")
    calls = []

    def counting(P):
        calls.append(P.name)
        return H_embed(P)

    monkeypatch.setattr(workspace_module, "H_embed", counting)
    ws = loads_workspace(PCOH_TEXT + "matrix f : P -> P = 1 0; 0 1\n"
                                     "matrix g : P -> M = 0 0; 0 1\n")
    assert calls == ["P"]
    assert ws.module_named("P") is ws.modules["M"]


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


def test_compose_keeps_proofs_only_across_one_middle_object(typed_ws):
    tot = interpret_morphism(typed_ws, "tot")
    assert compose(identity(typed_ws.module_named("Box")), tot).verified is False
    assert compose(identity(typed_ws.module_named("S")), tot).verified is True


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
