"""Command-line driver.

Exit codes: 0 success, 1 a checked property fails, 2 usage error, 3 a check
its search bound cut short (undecided).  An `eval` term whose morphism check
is refuted exits 1, and one whose check is cut short exits 3; an ill-typed
term (bad arity, mismatched webs, `curry` of a source that is not a tensor)
exits 2.  A library error (bad literal, bound exceeded, unsupported
construction) prints `error: …` and exits 2 rather than escaping as a
traceback.

`check-morphism`, `check-comonoid` and `report` print one verdict; its JSON
form has the keys `what`, `ok` (true, false or "unknown"), `strategy`,
`checked`, `counterexample` and `checks` (sub-verdicts of the same shape).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from ..scalars import RPOS, SEMIRINGS, CarrierError, axiom_report, format_scalar
from ..ratlp import VERTEX_BOUND
from ..basedmod import UNKNOWN, IntegrityError, Verdict
from ..linmaps import LinMap, format_matrix, is_morphism, validate_basis
from ..models import (BoundExceeded, ModelError, ProbCohSpace, CoherenceSpace,
                      glue_tight_closure, pcoh_bipolar_member, pcoh_dual,
                      pcoh_gamma_and_basis, H_embed, F_embed)
from ..exponential import (ExponentialError, bang, check_comonoid,
                           promote as exp_promote)
from .workspace import WorkspaceError, load_workspace, parse_scalars
from .interpreter import (InterpretError, NotProved, interpret_formula,
                          interpret_morphism, is_morphism_term, parse_vector,
                          _denote_name)
from .formulas import ParseError, parse_formula

USAGE_ERROR = 2
PROPERTY_FAILURE = 1
UNDECIDED = 3


def _emit(args, payload: dict, text_lines):
    if args.format == "json":
        print(json.dumps(payload, default=str, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _verdict(args, v: Verdict) -> int:
    _emit(args, v.as_json(), v.lines())
    return 0 if v.ok is True else PROPERTY_FAILURE if v.ok is False else UNDECIDED


def _space(ws, name, kind):
    sp = ws.spaces.get(name)
    if not isinstance(sp, kind):
        raise WorkspaceError(f"{name!r} is not a {kind.__name__}")
    return sp


def cmd_check_axioms(args) -> int:
    if args.semiring not in SEMIRINGS:
        print(f"unknown semiring {args.semiring!r}; have {sorted(SEMIRINGS)}",
              file=sys.stderr)
        return USAGE_ERROR
    s = SEMIRINGS[args.semiring]
    rep = axiom_report(s, samples=args.samples, seed=args.seed)
    payload = {"semiring": s.name, "ok": rep.ok,
               "checks": [{"axiom": c.axiom, "passed": c.passed,
                           "checked": c.checked,
                           "counterexample": c.counterexample}
                          for c in rep.checks]}
    _emit(args, payload, rep.lines())
    return 0 if rep.ok else PROPERTY_FAILURE


def cmd_eval(args) -> int:
    ws = load_workspace(args.workspace)
    if not is_morphism_term(ws, args.expr):
        den = interpret_formula(ws, parse_formula(args.expr))
        _emit(args, {"module": den.module.name or args.expr,
                     "web": list(den.module.web.atoms)},
              [f"module over {den.module.semiring.name} with web: "
               + " ".join(den.module.web.atoms)])
        return 0
    f = interpret_morphism(ws, args.expr)
    text = format_matrix(f.matrix)
    _emit(args, {"matrix": text,
                 "src": list(f.src.web.atoms), "dst": list(f.dst.web.atoms)},
          [text])
    return 0


def cmd_show_matrix(args) -> int:
    ws = load_workspace(args.workspace)
    if args.name not in ws.matrices:
        print(f"no matrix named {args.name!r}", file=sys.stderr)
        return USAGE_ERROR
    text = format_matrix(ws.matrices[args.name][0])
    _emit(args, {"matrix": text}, [text])
    return 0


def cmd_dual(args) -> int:
    ws = load_workspace(args.workspace)
    sp = _space(ws, args.name, ProbCohSpace)
    dual = pcoh_dual(sp, bound=args.bound)
    gens = [tuple(format_scalar(x) for x in g) for g in dual.generators]
    _emit(args, {"name": dual.name, "generators": gens},
          [f"dual generators of {args.name}:"] +
          ["  (" + ", ".join(g) + ")" for g in gens])
    return 0


def cmd_bipolar(args) -> int:
    ws = load_workspace(args.workspace)
    sp = _space(ws, args.name, ProbCohSpace)
    u = parse_scalars(args.vector, RPOS)
    verdict = pcoh_bipolar_member(sp, u)
    _emit(args, {"member": verdict}, ["true" if verdict else "false"])
    return 0


def cmd_bang(args) -> int:
    ws = load_workspace(args.workspace)
    den = _denote_name(ws, args.name)
    B = bang(den.module, den.basis, args.degree)
    gammas = [(l, format_scalar(g)) for l, g in B.gammas]
    _emit(args, {"web": list(B.web.atoms), "gammas": dict(gammas)},
          [f"web: {' '.join(B.web.atoms)}"] +
          [f"  gamma {l} = {g}" for l, g in gammas])
    return 0


def cmd_glue_close(args) -> int:
    ws = load_workspace(args.workspace)
    if args.name not in ws.glues:
        print(f"no glue object named {args.name!r}", file=sys.stderr)
        return USAGE_ERROR
    decl = ws.glues[args.name]
    obj = glue_tight_closure(decl.web, decl.vectors, bound=args.bound)

    def fmt(vs):
        return sorted("(" + ",".join(format_scalar(x) for x in v) + ")"
                      for v in vs)
    _emit(args, {"web": list(obj.web.atoms), "U": fmt(obj.u), "X": fmt(obj.x)},
          [f"U ({len(obj.u)}):"] + [f"  {v}" for v in fmt(obj.u)] +
          [f"X ({len(obj.x)}):"] + [f"  {v}" for v in fmt(obj.x)])
    return 0


def cmd_check_morphism(args) -> int:
    ws = load_workspace(args.workspace)
    if args.name not in ws.matrices:
        print(f"no matrix named {args.name!r}", file=sys.stderr)
        return USAGE_ERROR
    mat, src, dst = ws.matrices[args.name]
    f = LinMap(ws.module_named(src), ws.module_named(dst), mat)
    return _verdict(args, is_morphism(f))


def cmd_promote(args) -> int:
    ws = load_workspace(args.workspace)
    den = _denote_name(ws, args.name)
    B = bang(den.module, den.basis, args.degree)
    x = parse_vector(args.vector, den.module.web, den.module.semiring)
    px = exp_promote(B, x)
    _emit(args, {"vector": repr(px)}, [repr(px)])
    return 0


def cmd_check_comonoid(args) -> int:
    ws = load_workspace(args.workspace)
    den = _denote_name(ws, args.name)
    B = bang(den.module, den.basis, args.degree)
    return _verdict(args, check_comonoid(B))


def cmd_report(args) -> int:
    ws = load_workspace(args.workspace) if args.workspace else None
    checks = []
    for name, s in SEMIRINGS.items():
        rep = axiom_report(s, samples=30, seed=args.seed)
        checks.append(Verdict(f"axioms {name}", rep.ok,
                              "enumerated" if s.is_enumerable else "sampled",
                              sum(c.checked for c in rep.checks)))
    if ws is not None:
        for name, sp in ws.spaces.items():
            if isinstance(sp, ProbCohSpace):
                try:
                    good = (pcoh_dual(sp).generators
                            == pcoh_dual(pcoh_dual(pcoh_dual(sp))).generators)
                except BoundExceeded as exc:
                    checks.append(Verdict(f"triple-dual {name}", UNKNOWN, "none",
                                          counterexample=str(exc)))
                else:
                    checks.append(Verdict(f"triple-dual {name}", good,
                                          "vertex enumeration", 1))
                _, basis = pcoh_gamma_and_basis(sp)
                checks.append(validate_basis(H_embed(sp), basis))
            elif isinstance(sp, CoherenceSpace):
                checks.append(validate_basis(*F_embed(sp)))
        for name, decl in ws.glues.items():
            obj = glue_tight_closure(decl.web, decl.vectors, bound=args.bound)
            checks.append(Verdict(f"tightness {name}", obj.is_tight(bound=args.bound),
                                  "enumerated", 1))
    return _verdict(args, Verdict.all("report", checks))


@functools.cache  # a parser is reusable, and building one is not cheap
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="smodlab",
        description="Workbench for Σ-semirings, based modules, and "
                    "linear-logic models at finite web scale.")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-axioms", help="verify the scalar sum axioms")
    p.add_argument("semiring")
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_axioms)

    p = sub.add_parser("eval", help="evaluate a morphism term to a matrix")
    p.add_argument("workspace")
    p.add_argument("expr")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("show-matrix", help="print a declared matrix")
    p.add_argument("workspace")
    p.add_argument("name")
    p.set_defaults(func=cmd_show_matrix)

    p = sub.add_parser("dual", help="dual of a probabilistic coherence space")
    p.add_argument("workspace")
    p.add_argument("name")
    p.add_argument("--bound", type=int, default=VERTEX_BOUND)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("bipolar", help="bipolar membership query")
    p.add_argument("workspace")
    p.add_argument("name")
    p.add_argument("vector", help="rational tuple like (1/2, 1)")
    p.set_defaults(func=cmd_bipolar)

    p = sub.add_parser("bang", help="truncated exponential web")
    p.add_argument("workspace")
    p.add_argument("name")
    p.add_argument("--degree", type=int, default=2)
    p.set_defaults(func=cmd_bang)

    p = sub.add_parser("glue-close", help="tight closure of a glue object")
    p.add_argument("workspace")
    p.add_argument("name")
    p.add_argument("--bound", type=int, default=2)
    p.set_defaults(func=cmd_glue_close)

    p = sub.add_parser("check-morphism", help="linearity check for a matrix")
    p.add_argument("workspace")
    p.add_argument("name")
    p.set_defaults(func=cmd_check_morphism)

    p = sub.add_parser("promote", help="promotion of a vector")
    p.add_argument("workspace")
    p.add_argument("name")
    p.add_argument("vector", help="vector literal like {a:1/2}")
    p.add_argument("--degree", type=int, default=2)
    p.set_defaults(func=cmd_promote)

    p = sub.add_parser("check-comonoid", help="comonoid-law report")
    p.add_argument("workspace")
    p.add_argument("name")
    p.add_argument("--degree", type=int, default=2)
    p.set_defaults(func=cmd_check_comonoid)

    p = sub.add_parser("report", help="run the property suite")
    p.add_argument("workspace", nargs="?")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=2)
    p.set_defaults(func=cmd_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except NotProved as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PROPERTY_FAILURE if exc.verdict.ok is False else UNDECIDED
    except (WorkspaceError, InterpretError, ParseError, ModelError,
            FileNotFoundError, ValueError, CarrierError, ExponentialError,
            IntegrityError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
