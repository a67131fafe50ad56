"""The benchmark's four workloads.

A workload turns a seed into inputs and yields its checks in rounds; a
round is one cycle of the workload's check mix, so every run measures the
same mix whatever its length.  A check is one public smodlab call that
returns a verdict.  `run` makes that call and returns what the program
said; `verify` compares it with the known answer from `reference` and
returns None, "wrong" (a decided verdict that contradicts the known answer)
or "undecided" (the program reports that a search bound cut it short).

smodlab is reached through module attributes at call time (`models.H_embed`,
not a copied name) so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

from smodlab import exponential, linmaps, models, scalars
from smodlab.frontend import cli

import reference as ref

HALF_GRID = (Fraction(0), Fraction(1, 2), Fraction(1))
QUARTER_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                Fraction(1))


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{stream}")


def _random_gens(rng, atoms: int, count: int, grid):
    """`count` generators on `grid` with no dead atom (every atom reached)."""
    while True:
        gens = [tuple(rng.choice(grid) for _ in range(atoms))
                for _ in range(count)]
        if all(any(g[i] for g in gens) for i in range(atoms)):
            return gens


# ---------------------------------------------------------------------------
# axiom_sweep


class AxiomSweep:
    """One axiom_report per check at the criterion-1 bounds."""

    name = "axiom_sweep"
    KINDS = ("I", "B", "F", "N", "Ninf", "unit", "Rpos", "broken_F")
    tail_pct = 100.0   # eight checks a round: no percentile has ten beyond it
    trace_rounds = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.semirings = dict(scalars.SEMIRINGS)
        self.semirings["broken_F"] = scalars.broken_F()

    def rounds(self, stream="checks"):
        rng = _rng(self.name, self.seed, stream)
        while True:
            kinds = list(self.KINDS)
            rng.shuffle(kinds)
            yield [(kind, rng.randrange(2 ** 31), 6, 400) for kind in kinds]

    def warmup(self):
        # every kind once at small bounds: touches each code path cheaply
        return [(kind, 0, 2, 6) for kind in self.KINDS]

    def run(self, check):
        kind, seed, max_entries, samples = check
        rep = scalars.axiom_report(self.semirings[kind], max_entries=max_entries,
                                   samples=samples, seed=seed)
        return rep.ok, {c.axiom: c.passed for c in rep.checks}

    def verify(self, check, outcome):
        ok, passed = outcome
        if check[0] == "broken_F":
            # its two-fold sum of 1 is undefined while 1+1+1 is defined
            good = not ok and passed.get("subfamily definedness") is False
        else:
            good = ok and len(passed) == 5
        return None if good else "wrong"


# ---------------------------------------------------------------------------
# pcoh_queries


class PcohQueries:
    """Membership-style checks against a small fixed pool of pcoh spaces."""

    name = "pcoh_queries"
    # (web size, generator count) of the pool's spaces.  Two irredundant
    # generators are the most the {0, ½, 1} grid allows on a 2-atom web; a
    # 3-atom space with three takes 0.7 s per bang + comonoid, more than a
    # whole round of the other checks.
    POOL_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (3, 2), (3, 2))
    # one round of 200: morphism checks, membership points and one bang +
    # comonoid, which visits the pool in turn.  The shares of time are about
    # 45%, 25% and 30%; p50 falls inside the membership checks and p99.9
    # among the comonoid checks on 3-atom, 2-generator spaces.
    MORPHISMS, MEMBERS = 79, 120
    tail_pct = 99.9
    trace_rounds = 10

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        # the pool is the same for every seed, so runs of different seeds
        # measure the same presentations; the seed draws the queries
        rng = _rng(self.name, 0, "pool")
        self.known = {}
        self.pool = []
        for i, (atoms, count) in enumerate(self.POOL_SHAPES):
            # irredundant generators: the LP sizes, and with them the cost of
            # every check, are the shape's and not the draw's
            while True:
                gens = _random_gens(rng, atoms, count, HALF_GRID)
                if not any(ref.in_bipolar(gens[:k] + gens[k + 1:], g)
                           for k, g in enumerate(gens)):
                    break
            space = models.pcoh_space(f"P{i}", tuple("pqr"[:atoms]), gens)
            self.pool.append((space, gens))

    def rounds(self, stream="checks"):
        rng = _rng(self.name, self.seed, stream)
        n = len(self.pool)
        for r in itertools.count():
            checks = [("comonoid", r % n)]
            for _ in range(self.MORPHISMS):
                i, j = rng.randrange(n), rng.randrange(n)
                rows = tuple(tuple(rng.choice(HALF_GRID)
                                   for _ in self.pool[j][0].atoms)
                             for _ in self.pool[i][0].atoms)
                checks.append(("morphism", i, j, rows))
            for _ in range(self.MEMBERS):
                i = rng.randrange(n)
                u = tuple(rng.choice(QUARTER_GRID) for _ in self.pool[i][0].atoms)
                checks.append(("member", i, u))
            rng.shuffle(checks)
            yield checks

    def warmup(self):
        return next(self.rounds("warmup"))[:40] + [("comonoid", 0)]

    def run(self, check):
        kind = check[0]
        if kind == "morphism":
            _, i, j, rows = check
            P, Q = self.pool[i][0], self.pool[j][0]
            # built the way H_map builds its map
            src, dst = models.H_embed(P), models.H_embed(Q)
            entries = {(a, b): v for a, row in zip(P.atoms, rows)
                       for b, v in zip(Q.atoms, row) if v}
            mat = linmaps.Matrix.make(src.web, dst.web, entries)
            return linmaps.is_morphism(linmaps.LinMap(src, dst, mat)).ok
        if kind == "member":
            _, i, u = check
            return models.pcoh_bipolar_member(self.pool[i][0], u)
        P = self.pool[check[1]][0]
        _, basis = models.pcoh_gamma_and_basis(P)
        B = exponential.bang(models.H_embed(P), basis, 2)
        return exponential.check_comonoid(B).ok

    def _member(self, i, u) -> bool:
        # the pool is small and the grid coarse, so points repeat often
        key = (i, tuple(u))
        if key not in self.known:
            self.known[key] = ref.in_bipolar(self.pool[i][1], u)
        return self.known[key]

    def verify(self, check, outcome):
        kind = check[0]
        if kind == "morphism":
            _, i, j, rows = check
            want = all(self._member(j, ref.image(rows, g)) for g in self.pool[i][1])
        elif kind == "member":
            want = self._member(check[1], check[2])
        else:
            want = True  # the comonoid laws hold exactly
        return None if outcome == want else "wrong"


# ---------------------------------------------------------------------------
# pcoh_duals


class PcohDuals:
    """A fresh space per check: dual, triple dual, and η on H(P)."""

    name = "pcoh_duals"
    # one round: (atoms, least and most polar vertices) of each check.  The
    # vertex count sets the cost of a dual, so a fixed quota of them keeps
    # the rounds alike; the cap keeps a rare giant from swamping a run.
    SLOTS = ((3, 4, 4), (3, 5, 6), (3, 7, 9), (4, 5, 5), (4, 6, 7), (4, 8, 10)) * 2
    tail_pct = 90.0
    trace_rounds = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    @staticmethod
    def _draw(rng, atoms, least, most):
        while True:
            gens = _random_gens(rng, atoms, rng.randint(1, 4), QUARTER_GRID)
            if least <= ref.polar_vertex_count(gens, atoms) <= most:
                return tuple(gens)

    def rounds(self, stream="checks"):
        rng = _rng(self.name, self.seed, stream)
        while True:
            checks = [self._draw(rng, *slot) for slot in self.SLOTS]
            rng.shuffle(checks)
            yield checks

    def warmup(self):
        rng = _rng(self.name, self.seed, "warmup")
        return [self._draw(rng, *slot) for slot in self.SLOTS[:2]]

    def run(self, gens):
        P = models.pcoh_space("P", tuple("pqrs"[:len(gens[0])]), gens)
        dual = models.pcoh_dual(P)
        triple = models.pcoh_dual(models.pcoh_dual(dual))
        _, basis = models.pcoh_gamma_and_basis(P)
        rep = linmaps.dual_and_eta(models.H_embed(P), basis)
        return (dual.generators, dual.generators == triple.generators,
                rep.eta_iso, rep.mu_eta_identity)

    def verify(self, gens, outcome):
        dual_gens, bipolar, eta_iso, mu_eta = outcome
        # the bipolar and η-iso theorems hold; the dual lies in the polar
        good = (bipolar and eta_iso and mu_eta and dual_gens
                and all(ref.in_polar(gens, d) for d in dual_gens))
        return None if good else "wrong"


# ---------------------------------------------------------------------------
# workspace_session


def _matrix_text(src_atoms, dst_atoms, entries) -> str:
    return "; ".join(" ".join(str(entries.get((a, b), 0)) for b in dst_atoms)
                     for a in src_atoms)


def _parse_matrix(text: str, src, dst) -> dict:
    out = {}
    for a, row in zip(src, text.split(";")):
        for b, cell in zip(dst, row.split()):
            if cell != "0":
                out[(a, b)] = int(cell)
    return out


class _Space:
    """What the benchmark knows about one declared workspace object."""

    def __init__(self, name, atoms, semiring, coh=None):
        self.name, self.atoms, self.semiring, self.coh = name, atoms, semiring, coh

    @property
    def coherent(self) -> bool:
        return self.coh is not None


class _Workspace:
    """A seeded discrete `.llw` workspace and its known answers."""

    def __init__(self, rng, path: str, edges):
        self.path = path
        self.objects = {}
        lines = ["semiring I"]
        for name, size, count in zip("ABC", (3, 2, 3), edges):
            atoms = tuple(f"{name.lower()}{k}" for k in range(1, size + 1))
            pairs = sorted(rng.sample(list(itertools.combinations(atoms, 2)), count))
            self.objects[name] = _Space(name, atoms, "I",
                                        frozenset(frozenset(p) for p in pairs))
            coherent = "".join(f" coherent ({a}, {b});" for a, b in pairs)
            lines.append(f"cohspace {name} {{ atoms [{', '.join(atoms)}];{coherent} }}")
        for s in ("I", "B", "F", "N"):
            name = f"M{s}"
            atoms = (f"{s.lower()}1", f"{s.lower()}2")
            self.objects[name] = _Space(name, atoms, s)
            lines.append(f"module {name} = free({s}, web [{', '.join(atoms)}])")

        self.glues = {}
        for name, dim in (("G", 2), ("H", 3)):
            seeds = {tuple(rng.choice((0, 1, 1, 2, ref.INF)) for _ in range(dim))
                     for _ in range(rng.randint(1, 3))}
            atoms = [f"{name.lower()}{k}" for k in range(1, dim + 1)]
            us = "".join(f" u ({', '.join(map(str, u))});" for u in sorted(seeds, key=str))
            lines.append(f"glue {name} {{ web [{', '.join(atoms)}];{us} }}")
            self.glues[name] = (dim, seeds)

        # matrices: coherence maps between the spaces, one endomorphism per
        # free module; about half of the coherence and I maps are linear
        self.matrices = {}
        pairs = [(s, d) for s in "ABC" for d in "ABC"]
        rng.shuffle(pairs)
        for k, (s, d) in enumerate(pairs[:5]):
            self._declare(lines, f"c{k}", s, d, self._coherence_entries(rng, s, d))
        for s in ("I", "B", "F", "N"):
            for k in range(2):
                name = f"M{s}"
                atoms = self.objects[name].atoms
                values = (0, 1, 2) if s == "N" else (0, 1)
                entries = {(a, b): rng.choice(values) for a in atoms for b in atoms}
                self._declare(lines, f"{s.lower()}{k}", name, name, entries)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def _coherence_entries(self, rng, s, d):
        src, dst = self.objects[s], self.objects[d]
        if rng.random() < 0.5:
            # a random partial injection between cliques is usually linear
            return {(a, b): 1 for a, b in zip(src.atoms, rng.sample(dst.atoms, len(dst.atoms)))
                    if rng.random() < 0.7}
        return {(a, b): 1 for a in src.atoms for b in dst.atoms if rng.random() < 0.3}

    def _declare(self, lines, name, src, dst, entries):
        entries = {k: v for k, v in entries.items() if v}
        s, d = self.objects[src], self.objects[dst]
        if s.coherent:
            linear = ref.coherence_morphism(s.atoms, s.coh, d.atoms, d.coh, entries)
        else:
            linear = ref.free_morphism(s.semiring, entries)
        self.matrices[name] = (src, dst, entries, linear)
        lines.append(f"matrix {name} : {src} -> {dst} = "
                     + _matrix_text(s.atoms, d.atoms, entries))

    # -- eval terms with their expected matrices ---------------------------

    def linear_maps(self, semirings=("I", "B", "F")):
        """Declared linear maps usable in terms (the N module's are left out:
        the program cannot enumerate its carrier, ROADMAP 4a)."""
        return [n for n, (s, _, _, lin) in self.matrices.items()
                if lin and self.objects[s].semiring in semirings]

    def coherence_terms(self):
        """(term, entries) of coherence morphisms: linear declared maps and
        the identities, so the list is never empty."""
        out = [(f"id({n})", {(a, a): 1 for a in self.objects[n].atoms})
               for n in "ABC"]
        out += [(n, self.matrices[n][2]) for n in self.linear_maps(("I",))
                if self.objects[self.matrices[n][0]].coherent]
        return out

    def eval_term(self, rng, form):
        """(term, expected {(src, dst): value}) for one combinator form."""
        spaces = [self.objects[n] for n in "ABC"]
        if form == "id":
            X = self.objects[rng.choice(("A", "B", "C", "MI", "MB", "MF"))]
            return f"id({X.name})", {(a, a): 1 for a in X.atoms}
        if form in ("comp", "tensor", "pair"):
            names = self.linear_maps()
            f = rng.choice(names)
            fs, fd, fe, _ = self.matrices[f]
            if form == "comp":
                after = [g for g in names if self.matrices[g][0] == fd]
                if not after:
                    return (f"comp({f}, id({fd}))", fe)
                g = rng.choice(after)
                return (f"comp({f}, {g})",
                        ref.compose(self.objects[fs].semiring, fe,
                                    self.matrices[g][2], self.objects[fd].atoms))
            if form == "tensor":
                same = [g for g in names
                        if self.objects[self.matrices[g][0]].semiring
                        == self.objects[fs].semiring
                        and self.objects[self.matrices[g][0]].coherent
                        == self.objects[fs].coherent]
                g = rng.choice(same)
                return f"tensor({f}, {g})", ref.tensor(fe, self.matrices[g][2])
            same = [g for g in names if self.matrices[g][0] == fs]
            g = rng.choice(same)
            expected = {(a, f"0.{b}"): v for (a, b), v in fe.items()}
            expected.update({(a, f"1.{b}"): v
                             for (a, b), v in self.matrices[g][2].items()})
            return f"pair({f}, {g})", expected
        if form in ("proj", "inj"):
            # one factor of 2 atoms: a product of two 3-atom cliques has 64
            # carrier vectors, and its enumerated check alone would swamp
            # the session
            L, R = rng.choice(spaces), rng.choice((self.objects["B"], self.objects["MI"]))
            if rng.random() < 0.5:
                L, R = R, L
            k = rng.choice((1, 2))
            part = L if k == 1 else R
            tag = f"{k - 1}."
            if form == "proj":
                expected = {(tag + a, a): 1 for a in part.atoms}
            else:
                expected = {(a, tag + a): 1 for a in part.atoms}
            return f"{form}{k}({L.name}, {R.name})", expected
        if form == "curry":
            (f, fe), (g, ge) = rng.choice(self.coherence_terms()), \
                rng.choice(self.coherence_terms())
            expected = {(a, ref.pair_atom(b, ref.pair_atom(c, d))): v * w
                        for (a, c), v in fe.items() for (b, d), w in ge.items()}
            return f"curry(tensor({f}, {g}))", expected
        X, Y = rng.choice(spaces), rng.choice(spaces)
        if form == "apply":
            return (f"apply({X.name}, {Y.name})",
                    {(ref.pair_atom(ref.pair_atom(a, b), a), b): 1
                     for a in X.atoms for b in Y.atoms})
        d = rng.randint(1, 3)
        if form == "derelict":
            return (f"derelict({X.name}, {d})",
                    ref.dereliction_entries(X.atoms, d))
        if form == "promote":
            clique = rng.choice([c for c in ref.cliques(X.atoms, X.coh) if c])
            support = [a for a in X.atoms if a in clique]
            vector = "{" + ", ".join(f"{a}:1" for a in support) + "}"
            return (f"promote({X.name}, {d}, {vector})",
                    ref.promotion_entries(X.atoms, d, support))
        return f"comult({X.name}, {d})", ref.comult_entries(X.atoms, X.coh, d)


EVAL_FORMS = ("id", "comp", "tensor", "pair", "proj", "inj", "curry", "apply",
              "promote", "derelict", "comult")


class WorkspaceSession:
    """In-process `smodlab --format json` commands on seeded workspaces."""

    name = "workspace_session"
    # coherent pairs of the spaces A, B, C (3, 2 and 3 atoms) per workspace:
    # on webs this small the count fixes the space up to relabelling, so
    # every seed sees each kind of space, from discrete to a full clique
    EDGES = ((3, 1, 0), (2, 0, 1), (1, 1, 2))
    WORKSPACES = len(EDGES)
    # one round: an eval of each form, 6 check-morphism (two coherence, one
    # each of free I, B, F and N), check-comonoid and bang at degrees 1-3,
    # glue-close of each glue object
    tail_pct = 99.0
    trace_rounds = 12

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = _rng(self.name, seed, "workspaces")
        self.workspaces = [_Workspace(rng, os.path.join(workdir, f"ws{k}.llw"), edges)
                           for k, edges in enumerate(self.EDGES)]

    def rounds(self, stream="checks"):
        rng = _rng(self.name, self.seed, stream)
        slots = ([("eval", form) for form in EVAL_FORMS]
                 + [("check-morphism", kind) for kind in
                    ("coherence", "coherence", "I", "B", "F", "N")]
                 + [(cmd, d) for cmd in ("check-comonoid", "bang") for d in (1, 2, 3)]
                 + [("glue-close", g) for g in ("G", "H")])
        for r in itertools.count():
            checks = []
            for k, (cmd, what) in enumerate(slots):
                # each slot visits the workspaces in turn
                w = (k + r) % self.WORKSPACES
                checks.append(self._check(rng, w, cmd, what))
            rng.shuffle(checks)
            yield checks

    def _check(self, rng, w, cmd, what):
        ws = self.workspaces[w]
        if cmd == "eval":
            term, expected = ws.eval_term(rng, what)
            return w, cmd, (term,), expected
        if cmd == "check-morphism":
            names = [n for n, (s, _, _, _) in ws.matrices.items()
                     if (ws.objects[s].coherent if what == "coherence"
                         else ws.objects[s].semiring == what
                         and not ws.objects[s].coherent)]
            name = rng.choice(names)
            return w, cmd, (name,), ws.matrices[name][3]
        if cmd == "glue-close":
            return w, cmd, (what,), ref.tight_closure(*ws.glues[what])
        X = ws.objects[rng.choice("ABC")]
        return (w, cmd, (X.name, "--degree", str(what)),
                ref.bang_labels(X.atoms, X.coh, what))

    def warmup(self):
        return next(self.rounds("warmup"))

    def run(self, check):
        w, cmd, args, _ = check
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(["--format", "json", cmd,
                                 self.workspaces[w].path, *args])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    def verify(self, check, outcome):
        _, cmd, args, expected = check
        code, text = outcome
        if cmd == "check-morphism":
            payload = json.loads(text) if text else {}
            if payload.get("ok") is expected and code == (0 if expected else 1):
                return None
            # "none": the carrier search hit its bound, so there is no verdict
            return "undecided" if payload.get("strategy") == "none" else "wrong"
        if code != 0 or not text:
            return "wrong"
        payload = json.loads(text)
        if cmd == "eval":
            got = _parse_matrix(payload["matrix"], payload["src"], payload["dst"])
            return None if got == expected else "wrong"
        if cmd == "check-comonoid":
            return None if payload["ok"] else "wrong"
        if cmd == "bang":
            good = (payload["web"] == expected
                    and all(g == "1" for g in payload["gammas"].values()))
            return None if good else "wrong"
        u, x = expected
        fmt = lambda vs: sorted("(" + ",".join(map(str, v)) + ")" for v in vs)
        return None if (payload["U"], payload["X"]) == (fmt(u), fmt(x)) else "wrong"


WORKLOADS = {w.name: w for w in (AxiomSweep, PcohQueries, PcohDuals,
                                 WorkspaceSession)}
