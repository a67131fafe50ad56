"""Compositional interpretation of formulas and combinator morphism terms.

Formulas denote based modules with orthogonal dual bases; morphism terms
denote verified linear maps.  The combinator surface:

    id(F)                      identity on the interpretation of F
    comp(f, g)                 g after f
    tensor(f, g)               f ⊗ g
    pair(f, g)                 ⟨f, g⟩ into a product
    proj1(F, G) / proj2(F, G)  product projections
    inj1(F, G) / inj2(F, G)    coproduct injections
    curry(f)                   A ⊗ B → C  ⇒  A → (B -o C)
    apply(F, G)                evaluation (F -o G) * F → G
    promote(F, d, {vec})       point 1 → !d F
    derelict(F, d)             !d F → F
    comult(F, d)               !d F → !d F ⊠ !d F
    <name>                     a workspace matrix, checked as a morphism

Formula arguments are ordinary formula syntax; vector literals are
``{a:1, b:1/2}``.

Each term carries the tensor factors of its source: a ⊗ formula, a
`tensor` term, `apply`'s (F -o G) * F and a named coherence tensor have
them, and `comp`, `pair`, `inj1/2` and `curry` pass their source's on.
`curry` reads A and B from them, so its source must be tensor-typed; any
other source is a type error.  `comp` needs the middle webs to agree; when
f's target and g's source are different objects on that web, it checks
the composite as a morphism instead of trusting the operands' proofs.  A
term whose check is refuted or cut short raises `NotProved`, which carries
the verdict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..scalars import Semiring, parse_scalar
from ..basedmod import (BasedModule, PolytopeP, Vector, Verdict, Web,
                        coproduct_module, pair_atom, product_module,
                        split_pair, vec, zero_module)
from ..linmaps import (DualBasis, LinMap, Matrix, compose, functional,
                       gamma_basis, identity, is_morphism, lolli_obj,
                       semiring_module, tensor_obj, unit_basis)
from ..models import coherence_module, coherence_of
from ..exponential import bang, bang_basis, comult as exp_comult, \
    dereliction, promote as exp_promote
from . import formulas as F
from .workspace import Workspace, WorkspaceError


class InterpretError(ValueError):
    pass


class NotProved(InterpretError):
    """A term whose morphism check is refuted or cut short: `verdict` says
    which."""

    def __init__(self, message: str, verdict: Verdict):
        super().__init__(message)
        self.verdict = verdict


@dataclass(frozen=True)
class Denotation:
    module: BasedModule
    basis: DualBasis
    factors: Optional[tuple] = None  # (A, B) when the module is A ⊗ B


def _denote_name(ws: Workspace, name: str) -> Denotation:
    if name in ws.formulas:
        return interpret_formula(ws, ws.formulas[name])
    try:
        mod = ws.module_named(name)
    except WorkspaceError:
        raise InterpretError(f"unbound atom {name!r}") from None
    return _denote(mod, _tensor_parts(mod))


def _shift_basis(whole: BasedModule, part: Denotation, prefix: str) -> tuple:
    """Basis pairs of a (co)product component, embedded along the prefix."""
    pairs = []
    for e, phi in part.basis.pairs:
        e2 = vec(whole.web, {f"{prefix}{a}": v for a, v in e.entries})
        coeffs = {f"{prefix}{a}": v for a, v in phi.matrix.column("*")}
        pairs.append((e2, functional(whole, coeffs, part.module.semiring)))
    return tuple(pairs)


def interpret_formula(ws: Workspace, ast) -> Denotation:
    s = ws.semiring
    if isinstance(ast, F.Atom):
        return _denote_name(ws, ast.name)
    if isinstance(ast, F.One):
        return Denotation(semiring_module(s), unit_basis(s))
    if isinstance(ast, (F.Zero, F.Top)):
        return Denotation(zero_module(s), DualBasis(()))
    if isinstance(ast, F.Tensor):
        return _tensor_den(interpret_formula(ws, ast.left),
                           interpret_formula(ws, ast.right))
    if isinstance(ast, F.Lolli):
        l, r = interpret_formula(ws, ast.left), interpret_formula(ws, ast.right)
        mod, basis = lolli_obj(l.module, r.module, l.basis, r.basis)
        return Denotation(mod, basis)
    if isinstance(ast, (F.With, F.Plus)):
        l, r = interpret_formula(ws, ast.left), interpret_formula(ws, ast.right)
        build = product_module if isinstance(ast, F.With) else coproduct_module
        mod = build([l.module, r.module])
        pairs = _shift_basis(mod, l, "0.") + _shift_basis(mod, r, "1.")
        return Denotation(mod, DualBasis(pairs))
    if isinstance(ast, F.Dual):
        body = interpret_formula(ws, ast.body)
        mod, basis = lolli_obj(body.module, semiring_module(body.module.semiring),
                               body.basis, unit_basis(body.module.semiring))
        return Denotation(mod, basis)
    if isinstance(ast, F.Bang):
        body = interpret_formula(ws, ast.body)
        if not body.basis.orthogonal:
            raise InterpretError("'!' needs an orthogonal basis")
        B = bang(body.module, body.basis, ast.degree)
        return Denotation(B.module, bang_basis(B))
    raise InterpretError(f"cannot interpret {ast!r}")


# ---------------------------------------------------------------------------
# morphism terms


def parse_vector(text: str, w: Web, s: Semiring) -> Vector:
    """Coordinates are literals of the ambient carrier of `s`; membership is
    the caller's check."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise InterpretError(f"bad vector literal {text!r}")
    body = text[1:-1].strip()
    coords = {}
    if body:
        for item in body.split(","):
            if ":" not in item:
                raise InterpretError(f"bad vector entry {item!r}")
            atom, value = item.split(":", 1)
            atom = atom.strip()
            if atom not in w.atoms:
                raise InterpretError(f"unknown atom {atom!r} in vector literal")
            coords[atom] = parse_scalar(value.strip(), s.ambient)
    return vec(w, coords)


def _split_args(body: str):
    out = []
    depth = 0
    cur = []
    for ch in body:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    last = "".join(cur).strip()
    if last:
        out.append(last)
    return out


_CALL = re.compile(r"(\w+)\s*\((.*)\)\s*$", re.DOTALL)

_COMBINATORS = {"id", "comp", "tensor", "pair", "proj1", "proj2",
                "inj1", "inj2", "curry", "apply", "promote",
                "derelict", "comult"}


def _check(f: LinMap, what: str) -> LinMap:
    rep = is_morphism(f)
    if rep.ok is not True:
        raise NotProved(f"{what} is not proved a morphism: {rep}", rep)
    return LinMap(f.src, f.dst, f.matrix, verified=True)


def is_morphism_term(ws: Workspace, text: str) -> bool:
    """Whether `text` is a combinator call or the name of a matrix."""
    text = text.strip()
    m = _CALL.fullmatch(text)
    return bool(m and m.group(1) in _COMBINATORS) or text in ws.matrices


def interpret_morphism(ws: Workspace, text: str) -> LinMap:
    return _term(ws, text)[0]


def _term(ws: Workspace, text: str) -> tuple[LinMap, Optional[tuple]]:
    """The term's map and the tensor factors of its source (or None)."""
    text = text.strip()
    if not is_morphism_term(ws, text):
        raise InterpretError(f"cannot parse morphism term {text!r}")
    if text in ws.matrices:
        mat, src, dst = ws.matrices[text]
        f = LinMap(ws.module_named(src), ws.module_named(dst), mat)
        return _check(f, f"matrix {text}"), _tensor_parts(f.src)
    head, body = _CALL.fullmatch(text).groups()
    return _combinator(ws, head, _split_args(body))


def _formula_arg(ws: Workspace, text: str) -> Denotation:
    return interpret_formula(ws, F.parse_formula(text))


def _combinator(ws: Workspace, head: str, args) -> tuple[LinMap, Optional[tuple]]:
    def arity(n):
        if len(args) != n:
            raise InterpretError(f"{head} takes {n} argument(s), got {len(args)}")

    if head == "id":
        arity(1)
        den = _formula_arg(ws, args[0])
        return identity(den.module), den.factors

    if head == "comp":
        arity(2)
        f, factors = _term(ws, args[0])
        g, _ = _term(ws, args[1])
        if f.dst.web != g.src.web:
            raise InterpretError(
                f"type mismatch in comp: {f.dst.web!r} vs {g.src.web!r}")
        # two objects on one web may differ: compose keeps the operands'
        # proofs only across a shared middle object
        h = compose(f, g)
        return (h if h.verified else _check(h, "composite")), factors

    if head == "tensor":
        arity(2)
        f, f_factors = _term(ws, args[0])
        g, g_factors = _term(ws, args[1])
        src = _tensor_den(_denote(f.src, f_factors), _denote(g.src, g_factors))
        dst, _ = tensor_obj(f.dst, g.dst, _recover_basis(f.dst),
                            _recover_basis(g.dst))
        mul = f.src.semiring.ambient_mul
        entries = {}
        for (a, c), v in f.matrix.entries:
            for (b, d), w in g.matrix.entries:
                entries[(pair_atom(a, b), pair_atom(c, d))] = mul(v, w)
        raw = LinMap(src.module, dst,
                     Matrix.make(src.module.web, dst.web, entries))
        return _check(raw, "tensor map"), src.factors

    if head == "pair":
        arity(2)
        f, factors = _term(ws, args[0])
        g, _ = _term(ws, args[1])
        if f.src.web != g.src.web:
            raise InterpretError("pair needs a shared source")
        dst = product_module([f.dst, g.dst])
        entries = {}
        for (a, b), v in f.matrix.entries:
            entries[(a, f"0.{b}")] = v
        for (a, b), v in g.matrix.entries:
            entries[(a, f"1.{b}")] = v
        raw = LinMap(f.src, dst, Matrix.make(f.src.web, dst.web, entries))
        return _check(raw, "pairing"), factors

    if head in ("proj1", "proj2", "inj1", "inj2"):
        arity(2)
        l = _formula_arg(ws, args[0])
        r = _formula_arg(ws, args[1])
        k = "0." if head.endswith("1") else "1."
        part = l if head.endswith("1") else r
        s = part.module.semiring
        if head.startswith("proj"):
            whole = product_module([l.module, r.module])
            entries = {(f"{k}{a}", a): s.one for a in part.module.web.atoms}
            raw = LinMap(whole, part.module,
                         Matrix.make(whole.web, part.module.web, entries))
            return _check(raw, head), None
        whole = coproduct_module([l.module, r.module])
        entries = {(a, f"{k}{a}"): s.one for a in part.module.web.atoms}
        raw = LinMap(part.module, whole,
                     Matrix.make(part.module.web, whole.web, entries))
        return _check(raw, head), part.factors

    if head == "curry":
        arity(1)
        f, factors = _term(ws, args[0])
        if factors is None:
            raise InterpretError(
                f"curry needs a tensor source, got {f.src.name or f.src.web!r}")
        a, b = factors
        lol, _ = lolli_obj(b.module, f.dst, b.basis, _recover_basis(f.dst))
        entries = {}
        for (xy, c), v in f.matrix.entries:
            x, y = split_pair(xy)
            entries[(x, pair_atom(y, c))] = v
        raw = LinMap(a.module, lol, Matrix.make(a.module.web, lol.web, entries))
        return _check(raw, "curry"), a.factors

    if head == "apply":
        arity(2)
        l = _formula_arg(ws, args[0])
        r = _formula_arg(ws, args[1])
        src = _tensor_den(Denotation(*lolli_obj(l.module, r.module, l.basis,
                                                r.basis)), l)
        one = l.module.semiring.one
        entries = {(pair_atom(pair_atom(a, b), a), b): one
                   for a in l.module.web.atoms for b in r.module.web.atoms}
        raw = LinMap(src.module, r.module,
                     Matrix.make(src.module.web, r.module.web, entries))
        return _check(raw, "evaluation"), src.factors

    if head == "promote":
        arity(3)
        den = _formula_arg(ws, args[0])
        d = int(args[1])
        B = bang(den.module, den.basis, d)
        x = parse_vector(args[2], den.module.web, den.module.semiring)
        if not den.module.admits(x):
            raise InterpretError(f"{x!r} is not a member of {args[0]}")
        px = exp_promote(B, x)
        src = semiring_module(den.module.semiring)
        entries = {("*", a): v for a, v in px.entries}
        raw = LinMap(src, B.module, Matrix.make(src.web, B.module.web, entries))
        return _check(raw, "promotion point"), None

    if head == "derelict":
        arity(2)
        den = _formula_arg(ws, args[0])
        B = bang(den.module, den.basis, int(args[1]))
        return _check(dereliction(B), "dereliction"), None

    if head == "comult":
        arity(2)
        den = _formula_arg(ws, args[0])
        B = bang(den.module, den.basis, int(args[1]))
        return exp_comult(B), None

    raise InterpretError(f"unknown combinator {head!r}")


def _tensor_den(l: Denotation, r: Denotation) -> Denotation:
    return Denotation(*tensor_obj(l.module, r.module, l.basis, r.basis), (l, r))


def _denote(m: BasedModule, factors=None) -> Denotation:
    return Denotation(m, _recover_basis(m), factors)


def _tensor_parts(m: BasedModule) -> Optional[tuple]:
    """The factors of a carrier that is a coherence space A ⊗ B, or None."""
    T = coherence_of(m)
    if T is None or T.rule != "tensor":
        return None
    return tuple(_denote(part_module, _tensor_parts(part_module))
                 for part_module in map(coherence_module, T.parts))


def _recover_basis(m: BasedModule) -> DualBasis:
    """γ_a = the largest generator coordinate at a for a polytope carrier
    (the pcoh basis), else γ_a = 1."""
    if isinstance(m.presentation, PolytopeP):
        gens = m.presentation.polytope(m)
        return gamma_basis(m, {a: max(g[i] for g in gens)
                               for i, a in enumerate(m.web.atoms)})
    return gamma_basis(m)
