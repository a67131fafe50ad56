"""Span wrappers around smodlab's public functions, installed from outside.

Each wrapped call is a span.  A span's self time is its duration minus the
time its child spans cover; the tracer keeps one frame per open span on a
stack and folds each closed span into per-name totals (calls, self time),
so a run of millions of scalar sums needs no per-span storage.  The totals
stay in memory and are written out once, by `layer_metrics`, when the run
ends.

Wrappers replace every binding a caller can reach: the defining module's
attribute, every `from … import` copy inside `smodlab.*` (found by an
identity scan), and methods on their classes.
"""

from __future__ import annotations

import math
import sys
import time

PRESENTATIONS = ("FreeP", "CoherenceP", "FinitenessP", "PolytopeP",
                 "EnumeratedP", "ProductP", "SymGradedP")
STRATEGIES = ("coherence", "polytope-generators", "enumerated", "none")


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.counts = {}
        self._stack = []
        self._restore = []

    def count(self, name: str, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, hook=None):
        stack, clock = self._stack, time.perf_counter_ns
        calls, self_ns = self.calls, self.self_ns
        calls.setdefault(name, 0)
        self_ns.setdefault(name, 0)

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = stack.pop()
                calls[name] += 1
                self_ns[name] += took - children
                if stack:
                    stack[-1] += took
            if hook is not None:
                hook(args, result)
            return result

        return span

    def _replace(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the layers' public functions; returns nothing, see uninstall."""
        from smodlab import basedmod, exponential, linmaps, models, ratlp, scalars
        from smodlab.frontend import cli, interpreter, workspace

        def undef(prefix):
            def hook(args, result):
                if result is scalars.UNDEF:
                    self.count(prefix + ".undef")
            return hook

        def axiom_instances(args, rep):
            self.count("scalars.axiom_instances", sum(c.checked for c in rep.checks))

        def polar_vertices(args, verts):
            gens, dim = args[0], args[1]
            self.count("ratlp.polar_vertices.bases", math.comb(dim + len(gens), dim))
            self.count("ratlp.polar_vertices.vertices", len(verts))

        def prune_dominated(args, kept):
            self.count("ratlp.prune_dominated.offered", len(set(map(tuple, args[0]))))
            self.count("ratlp.prune_dominated.kept", len(kept))

        def admits(args, result):
            cls = type(args[0].presentation).__name__
            self.count(f"basedmod.admits.{cls}.calls")

        def carrier_vectors(args, result):
            if result is None:
                self.count("basedmod.carrier_vectors.bound_hits")
            else:
                self.count("basedmod.carrier_vectors.vectors", len(result))

        def is_morphism(args, rep):
            self.count(f"linmaps.is_morphism.{rep.strategy}.calls")

        methods = [
            (scalars.Semiring, "sum_family", "scalars.sum_family", undef("scalars.sum_family")),
            (scalars.Semiring, "mul", "scalars.mul", None),
            (basedmod.BasedModule, "admits", "basedmod.admits", admits),
            (basedmod.BasedModule, "carrier_vectors", "basedmod.carrier_vectors",
             carrier_vectors),
        ]
        functions = [
            (scalars, "axiom_report", "scalars.axiom_report", axiom_instances),
            (ratlp, "max_scale", "ratlp.max_scale", None),
            (ratlp, "in_bipolar", "ratlp.in_bipolar", None),
            (ratlp, "polar_vertices", "ratlp.polar_vertices", polar_vertices),
            (ratlp, "prune_dominated", "ratlp.prune_dominated", prune_dominated),
            (basedmod, "vec_sum", "basedmod.vec_sum", undef("basedmod.vec_sum")),
            (linmaps, "apply", "linmaps.apply", None),
            (linmaps, "compose", "linmaps.compose", None),
            (linmaps, "is_morphism", "linmaps.is_morphism", is_morphism),
            (linmaps, "tensor_obj", "linmaps.tensor_obj", None),
            (linmaps, "lolli_obj", "linmaps.lolli_obj", None),
            (linmaps, "dual_and_eta", "linmaps.dual_and_eta", None),
            (models, "pcoh_dual", "models.pcoh_dual", None),
            (models, "coherence_lolli", "models.coherence_lolli", None),
            (models, "glue_tight_closure", "models.glue_tight_closure", None),
            (exponential, "bang", "exponential.bang", None),
            (exponential, "check_comonoid", "exponential.check_comonoid", None),
            (exponential, "promote", "exponential.promote", None),
            (workspace, "load_workspace", "frontend.load_workspace", None),
            (interpreter, "interpret_morphism", "frontend.interpret_morphism", None),
            (interpreter, "interpret_formula", "frontend.interpret_formula", None),
            (cli, "main", "frontend.cli", None),
        ]
        for owner, attr, name, hook in methods:
            self._replace(owner, attr, self.wrap(name, getattr(owner, attr), hook))
        program = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "smodlab" or n.startswith("smodlab."))]
        for owner, attr, name, hook in functions:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            for module in program:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def layer_metrics(self) -> dict:
        """Every name in PER_LAYER except the tracing overhead, as (value, unit)."""
        calls, counts = self.calls, self.counts
        got = {}
        for name in calls:
            got[f"{name}.calls"] = calls[name]
            got[f"{name}.self_s"] = self.self_ns[name] / 1e9
        got.update(counts)

        def share(part, whole):
            return got.get(part, 0) / got[whole] if got.get(whole) else 0.0

        got["scalars.sum_family.undef_share"] = share("scalars.sum_family.undef",
                                                      "scalars.sum_family.calls")
        got["basedmod.vec_sum.undef_share"] = share("basedmod.vec_sum.undef",
                                                    "basedmod.vec_sum.calls")
        got["ratlp.polar_vertices.vertex_yield"] = share(
            "ratlp.polar_vertices.vertices", "ratlp.polar_vertices.bases")
        got["ratlp.prune_dominated.kept_share"] = share(
            "ratlp.prune_dominated.kept", "ratlp.prune_dominated.offered")
        return {name: (got.get(name, 0), unit) for name, unit, _ in PER_LAYER
                if name != "trace.overhead_share"}


def _unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_share", "_yield")):
        return "ratio"
    return "count"


def _better(name: str) -> str:
    # more of these is better: coverage and useful work per attempt
    return "higher" if name.endswith(("axiom_instances", "vertex_yield",
                                      "kept_share")) else "lower"


_NAMES = (
    "scalars.sum_family.calls", "scalars.sum_family.self_s",
    "scalars.sum_family.undef_share", "scalars.mul.calls", "scalars.mul.self_s",
    "scalars.axiom_report.self_s", "scalars.axiom_instances",
    "ratlp.max_scale.calls", "ratlp.max_scale.self_s", "ratlp.in_bipolar.calls",
    "ratlp.polar_vertices.calls", "ratlp.polar_vertices.self_s",
    "ratlp.polar_vertices.bases", "ratlp.polar_vertices.vertex_yield",
    "ratlp.prune_dominated.calls", "ratlp.prune_dominated.self_s",
    "ratlp.prune_dominated.kept_share",
    "basedmod.admits.calls", "basedmod.admits.self_s",
    *(f"basedmod.admits.{cls}.calls" for cls in PRESENTATIONS),
    "basedmod.vec_sum.calls", "basedmod.vec_sum.self_s",
    "basedmod.vec_sum.undef_share",
    "basedmod.carrier_vectors.calls", "basedmod.carrier_vectors.self_s",
    "basedmod.carrier_vectors.vectors", "basedmod.carrier_vectors.bound_hits",
    "linmaps.apply.calls", "linmaps.apply.self_s",
    "linmaps.compose.calls", "linmaps.compose.self_s",
    "linmaps.is_morphism.calls", "linmaps.is_morphism.self_s",
    *(f"linmaps.is_morphism.{s}.calls" for s in STRATEGIES),
    "linmaps.tensor_obj.self_s", "linmaps.lolli_obj.self_s",
    "linmaps.dual_and_eta.self_s",
    "models.pcoh_dual.calls", "models.pcoh_dual.self_s",
    "models.coherence_lolli.self_s", "models.glue_tight_closure.self_s",
    "exponential.bang.calls", "exponential.bang.self_s",
    "exponential.check_comonoid.self_s",
    "exponential.promote.calls", "exponential.promote.self_s",
    "frontend.load_workspace.self_s", "frontend.interpret_morphism.self_s",
    "frontend.interpret_formula.self_s", "frontend.cli.self_s",
    "trace.overhead_share",
)

#: (name, unit, better) of every per-layer metric, as BENCHMARK.json lists them
PER_LAYER = tuple((name, _unit(name), _better(name)) for name in _NAMES)

#: counts that do not depend on the machine: two traced runs of one seed agree
EXACT_COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")
