"""Workspace (.llw) loader.

One declaration per statement; `#` starts a comment.  A statement is a
`{…}` block, which may span lines, or one line:

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

A statement begins with its keyword; anything else (an unknown or glued
keyword, a `{` never closed, text after a block's `}` on its line) is an
error naming its line.  The text is read in one pass; blocks are built
first, then the line declarations, then the matrices, so a declaration may
refer to one further down.  Every declared object is validated at load
time (reflexivity/symmetry of coherence relations, non-negative generators
with no dead atoms, matrix shapes, resolvable references); names share one
namespace and must be unique.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..scalars import NINF, RPOS, SEMIRINGS, CarrierError, Semiring, parse_scalar
from ..basedmod import BasedModule, Web, free_module
from ..linmaps import parse_matrix
from ..models import (CoherenceSpace, ModelError, ProbCohSpace, coherence_space,
                      coherence_module, pcoh_space, H_embed)
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
    # each space's module, built on first use
    _space_modules: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)

    def _claim(self, name: str):
        if (name in self.spaces or name in self.modules or name in self.matrices
                or name in self.formulas or name in self.glues):
            raise WorkspaceError(f"duplicate name {name!r}")

    def module_named(self, name: str) -> BasedModule:
        if name in self.modules:
            return self.modules[name]
        if name not in self._space_modules:
            sp = self.spaces.get(name)
            if not isinstance(sp, (CoherenceSpace, ProbCohSpace)):
                raise WorkspaceError(f"no module or space named {name!r}")
            self._space_modules[name] = (coherence_module(sp) if isinstance(
                sp, CoherenceSpace) else H_embed(sp))
        return self._space_modules[name]


_COMMENT = re.compile(r"#[^\n]*")
# one statement after blanks: a block, which must end its line, a matrix
# (name, source, target, rows) or another line
_STATEMENT = re.compile(r"""\s*(?:
    (cohspace|pcoh|glue)\s+(\w+)\s*\{([^{}]*)\}[^\S\n]*(?=\n|\Z)
  | matrix\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+)\s*=([^\n]*)
  | (semiring|module|matrix|formula)\b([^\n]*))""", re.VERBOSE)
# where no statement matches: the keyword and, for a block, its head and `}`
_REFUSED = re.compile(r"\s*(\w*)(\s+\w+\s*\{[^{}]*(\})?)?")
_ITEM = re.compile(r"\s*(\w+)\s*(.*\S)?\s*", re.DOTALL)
_LIST = re.compile(r"\s*\[\s*([^\]]*)\]\s*")
_TUPLE = re.compile(r"\s*\(\s*([^)]*)\)\s*")
_MODULE = re.compile(r"(\w+)\s*=\s*(\w+)\s*\((.*)\)")
_WEB_ARGS = re.compile(r"(?:(\w+)\s*,\s*)?web\s*(\[[^\]]*\])")  # [semiring,] web
_FORMULA = re.compile(r"(\w+)\s*=\s*(.*)")

# a block's fields: its atom list, and the field it repeats
_BLOCKS = {"cohspace": ("atoms", "coherent"), "pcoh": ("atoms", "gen"),
           "glue": ("web", "u")}


def _items(pattern: re.Pattern, text: str, what: str) -> tuple:
    """The comma-separated items of a `[…]` or `(…)` literal."""
    m = pattern.fullmatch(text)
    if not m:
        raise WorkspaceError(f"bad {what} {text!r}")
    body = m.group(1)
    return tuple(map(str.strip, body.split(","))) if body.strip() else ()


def parse_scalars(text: str, s: Semiring) -> tuple:
    """A tuple literal `(x, y, ...)` of scalars of the carrier of `s`."""
    try:
        return tuple([parse_scalar(x, s) for x in _items(_TUPLE, text, "tuple")])
    except (ValueError, CarrierError) as exc:
        raise WorkspaceError(f"in {text.strip()!r}: {exc}") from None


def _statements(text: str) -> tuple[list, list, list]:
    """The blocks (keyword, name, body), matrices (name, source, target,
    rows) and other line statements (keyword, rest), each in order."""
    text = _COMMENT.sub("", text).rstrip()
    blocks, matrices, lines, pos, end = [], [], [], 0, len(text)
    while pos < end:
        m = _STATEMENT.match(text, pos)
        if m is None:
            raise _statement_error(text, pos)
        if m.group(1):
            blocks.append(m.group(1, 2, 3))
        elif m.group(4):
            matrices.append(m.group(4, 5, 6, 7))
        else:
            lines.append((m.group(8), m.group(9).strip()))
        pos = m.end()
    return blocks, matrices, lines


def _statement_error(text: str, pos: int) -> WorkspaceError:
    """Why no statement begins at `pos`, naming the line."""
    m = _REFUSED.match(text, pos)
    keyword, start = m.group(1), m.start(1)
    line, first = text.count("\n", 0, start) + 1, text[start:].partition("\n")[0]
    if keyword not in _BLOCKS:
        why = f"unknown statement {first.strip()!r}"
    elif not m.group(2):
        why = f"bad {keyword} declaration"
    elif not m.group(3):
        why = "unclosed { block"
    else:
        line, why = text.count("\n", 0, m.end()) + 1, "text after the declaration"
    return WorkspaceError(f"line {line}: {why}")


def _declare_block(ws: Workspace, kind: str, name: str, body: str):
    ws._claim(name)
    list_key, item_key = _BLOCKS[kind]
    atoms, items = (), []
    for item in filter(str.strip, body.split(";")):
        m = _ITEM.fullmatch(item)
        if not m:
            raise WorkspaceError(f"bad item {item.strip()!r} in {name}")
        key, value = m.group(1), m.group(2) or ""
        if key == list_key:
            atoms = _items(_LIST, value, f"{key} list")
        elif key == item_key:
            items.append(_items(_TUPLE, value, "tuple") if kind == "cohspace" else
                         parse_scalars(value, RPOS if kind == "pcoh" else NINF))
        else:
            raise WorkspaceError(f"unknown field {key!r} in {name}")
    try:
        if kind == "cohspace":
            ws.spaces[name] = coherence_space(name, atoms, items)
        elif kind == "pcoh":
            ws.spaces[name] = pcoh_space(name, atoms, items)
        else:
            ws.glues[name] = GlueDecl(name, Web(atoms), tuple(items))
    except ModelError as exc:
        raise WorkspaceError(f"in {kind} {name}: {exc}") from exc


def _declare_module(ws: Workspace, rest: str):
    m = _MODULE.fullmatch(rest)
    if not m:
        raise WorkspaceError(f"bad module declaration {rest!r}")
    name, ctor, args = m.group(1), m.group(2), m.group(3).strip()
    ws._claim(name)
    if ctor in ("free", "finiteness"):  # a finiteness module is free over F
        am = _WEB_ARGS.fullmatch(args)
        if not am or (ctor == "free") != bool(am.group(1)):
            raise WorkspaceError(f"bad {ctor}(...) arguments {args!r}")
        sid, atoms = am.group(1) or "F", _items(_LIST, am.group(2), "web list")
        if sid not in SEMIRINGS:
            raise WorkspaceError(f"unknown semiring {sid!r}")
        ws.modules[name] = free_module(SEMIRINGS[sid], Web(atoms), name)
    elif ctor in ("coherence", "pcoh"):
        kind, what = ((CoherenceSpace, "cohspace") if ctor == "coherence"
                      else (ProbCohSpace, "pcoh space"))
        if not isinstance(ws.spaces.get(args), kind):
            raise WorkspaceError(f"{args!r} is not a {what}")
        ws.modules[name] = ws.module_named(args)
    else:
        raise WorkspaceError(f"unknown module constructor {ctor!r}")


def loads_workspace(text: str) -> Workspace:
    blocks, matrices, lines = _statements(text)
    ws = Workspace(semiring=SEMIRINGS["I"])
    for kind, name, body in blocks:
        _declare_block(ws, kind, name, body)

    for kind, rest in lines:
        if kind == "semiring":
            if rest not in SEMIRINGS:
                raise WorkspaceError(
                    f"unknown semiring {rest!r}; have {sorted(SEMIRINGS)}")
            ws.semiring = SEMIRINGS[rest]
        elif kind == "module":
            _declare_module(ws, rest)
        elif kind == "matrix":  # one `_STATEMENT` could not split
            raise WorkspaceError(f"bad matrix declaration {rest!r}")
        elif kind == "formula":
            m = _FORMULA.fullmatch(rest)
            if not m:
                raise WorkspaceError(f"bad formula declaration {rest!r}")
            name = m.group(1)
            ws._claim(name)
            ws.formulas[name] = parse_formula(m.group(2).strip())

    for name, src, dst, body in matrices:
        ws._claim(name)
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
