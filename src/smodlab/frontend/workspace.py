"""Workspace (.llw) loader.

Line-oriented plain text; `#` starts a comment.  Declarations:

    semiring I
    cohspace A { atoms [a,b]; coherent (a,b); }
    pcoh P { atoms [a,b]; gen (1,0); gen (0,1); }
    glue G { web [a,b]; u (1,0); u (0,1); }
    module M = free(I, web [a,b])
    module M = coherence(A)          # references a cohspace
    module M = pcoh(P)               # references a pcoh space
    module M = finiteness(web [a,b])  # the free F-module on the web
    matrix f : M -> N = 1 0; 0 1
    formula X = A -o (B * B)

Every declared object is validated at load time (reflexivity/symmetry of
coherence relations, non-negative generators with no dead atoms, matrix
shapes, resolvable references); names share one namespace and must be
unique.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..scalars import NINF, RPOS, SEMIRINGS, CarrierError, Semiring, parse_scalar
from ..basedmod import BasedModule, Web, free_module
from ..linmaps import parse_matrix
from ..models import (CoherenceSpace, FinitenessSpace,
                      ModelError, ProbCohSpace, coherence_space,
                      coherence_module, finiteness_module, pcoh_space,
                      H_embed)
from .formulas import parse_formula


class WorkspaceError(ValueError):
    pass


@dataclass
class GlueDecl:
    name: str
    web: Web
    vectors: tuple


@dataclass
class Workspace:
    semiring: Semiring
    spaces: dict = field(default_factory=dict)      # name -> model object
    modules: dict = field(default_factory=dict)     # name -> BasedModule
    matrices: dict = field(default_factory=dict)    # name -> (Matrix, src, dst)
    formulas: dict = field(default_factory=dict)    # name -> AST
    glues: dict = field(default_factory=dict)       # name -> GlueDecl

    def _claim(self, name: str):
        for table in (self.spaces, self.modules, self.matrices,
                      self.formulas, self.glues):
            if name in table:
                raise WorkspaceError(f"duplicate name {name!r}")

    def module_named(self, name: str) -> BasedModule:
        if name in self.modules:
            return self.modules[name]
        if name in self.spaces:
            sp = self.spaces[name]
            if isinstance(sp, CoherenceSpace):
                return coherence_module(sp)
            if isinstance(sp, ProbCohSpace):
                return H_embed(sp)
        raise WorkspaceError(f"no module or space named {name!r}")


def _parse_atoms(text: str, what: str):
    m = re.fullmatch(r"\[\s*([^\]]*)\]", text.strip())
    if not m:
        raise WorkspaceError(f"bad {what} list {text!r}")
    body = m.group(1).strip()
    if not body:
        return ()
    return tuple(a.strip() for a in body.split(","))


def _parse_tuple(text: str):
    m = re.fullmatch(r"\(\s*([^)]*)\)", text.strip())
    if not m:
        raise WorkspaceError(f"bad tuple {text!r}")
    parts = [p.strip() for p in m.group(1).split(",")] if m.group(1).strip() else []
    return tuple(parts)


def parse_scalars(text: str, s: Semiring) -> tuple:
    """A tuple literal `(x, y, ...)` of scalars of the carrier of `s`."""
    try:
        return tuple(parse_scalar(x, s) for x in _parse_tuple(text))
    except (ValueError, CarrierError) as exc:
        raise WorkspaceError(f"in {text.strip()!r}: {exc}") from None


_BLOCK = re.compile(
    r"(?P<kind>cohspace|pcoh|glue)\s+(?P<name>\w+)\s*\{(?P<body>[^}]*)\}",
    re.DOTALL)
_LINE = re.compile(
    r"(?P<kind>semiring|module|matrix|formula)\s+(?P<rest>[^\n]*)")


def loads_workspace(text: str) -> Workspace:
    text = re.sub(r"#[^\n]*", "", text)
    ws = Workspace(semiring=SEMIRINGS["I"])
    consumed = []

    for m in _BLOCK.finditer(text):
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
                        atoms = _parse_atoms(value, "atoms")
                    elif key == "coherent":
                        pairs.append(_parse_tuple(value))
                    else:
                        raise WorkspaceError(f"unknown field {key!r} in {name}")
                ws.spaces[name] = coherence_space(name, atoms, pairs)
            elif kind == "pcoh":
                atoms = ()
                gens = []
                for key, value in fields:
                    if key == "atoms":
                        atoms = _parse_atoms(value, "atoms")
                    elif key == "gen":
                        gens.append(parse_scalars(value, RPOS))
                    else:
                        raise WorkspaceError(f"unknown field {key!r} in {name}")
                ws.spaces[name] = pcoh_space(name, atoms, gens)
            elif kind == "glue":
                web_atoms = ()
                vectors = []
                for key, value in fields:
                    if key == "web":
                        web_atoms = _parse_atoms(value, "web")
                    elif key == "u":
                        vectors.append(parse_scalars(value, NINF))
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
    for m in _LINE.finditer(rest_text):
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
                sid, atoms = am.group(1), _parse_atoms(am.group(2), "web")
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
                atoms = _parse_atoms(am.group(1), "web")
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
        src_m = ws.module_named(src)
        dst_m = ws.module_named(dst)
        try:
            mat = parse_matrix(body, src_m.web, dst_m.web, src_m.semiring)
        except (ValueError, CarrierError) as exc:
            raise WorkspaceError(f"matrix {name}: {exc}") from exc
        ws.matrices[name] = (mat, src, dst)
    return ws


def load_workspace(path: str) -> Workspace:
    with open(path, encoding="utf-8") as fh:
        return loads_workspace(fh.read())
