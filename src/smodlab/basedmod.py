"""Finite-web based modules: vectors, gated coordinate-wise sums, (co)products.

A module couples a scalar semiring with a finite web of atoms and a
membership presentation saying which web-indexed vectors are carrier
elements.  Sums are coordinate-wise in the semiring and additionally gated
by membership of the result; "undefined" (UNDEF) is a first-class outcome.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .scalars import OMEGA, UNDEF, UNIT, CarrierError, Semiring, format_scalar
from . import ratlp


class _Unknown:
    """The verdict of a search its bound cut short: neither True nor False."""

    def __repr__(self):
        return "UNKNOWN"

    def __bool__(self):
        raise TypeError("UNKNOWN has no truth value; test `ok is True`")


UNKNOWN = _Unknown()


@dataclass(frozen=True)
class Verdict:
    """The outcome of a bounded check of `what`.

    `ok` is True (proved), False (refuted; `counterexample` is a witness) or
    UNKNOWN (cut short; `counterexample` names the bound).  `checked` counts
    the instances examined by `strategy`; `checks` holds sub-verdicts.
    """

    what: str
    ok: object
    strategy: str = ""
    checked: int = 0
    counterexample: Optional[str] = None
    checks: tuple = ()

    @staticmethod
    def all(what: str, checks) -> "Verdict":
        """The conjunction of `checks`: False if one fails, else UNKNOWN if
        one is undecided, else True."""
        checks = tuple(checks)
        ok = (False if any(c.ok is False for c in checks)
              else UNKNOWN if any(c.ok is UNKNOWN for c in checks) else True)
        return Verdict(what, ok, checked=sum(c.checked for c in checks),
                       checks=checks)

    def __str__(self):
        status = {True: "pass", False: "FAIL"}.get(self.ok, "UNKNOWN")
        line = f"[{status}] {self.what}"
        if self.strategy:
            line += f" ({self.strategy}, {self.checked} checked)"
        if self.counterexample:
            line += f" -- {self.counterexample}"
        return line

    def lines(self, indent: str = "") -> list:
        return [indent + str(self)] + [line for c in self.checks
                                       for line in c.lines(indent + "  ")]

    def as_json(self) -> dict:
        return {"what": self.what,
                "ok": "unknown" if self.ok is UNKNOWN else self.ok,
                "strategy": self.strategy, "checked": self.checked,
                "counterexample": self.counterexample,
                "checks": [c.as_json() for c in self.checks]}


ENUMERATION_CAP = 10 ** 6


class WebMismatch(ValueError):
    pass


class MembershipError(ValueError):
    """A vector used where a carrier element is required."""


class IntegrityError(RuntimeError):
    """A presentation or verified morphism broke its own contract."""


@dataclass(frozen=True)
class Web:
    atoms: tuple

    def __post_init__(self):
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("web atoms must be distinct")
        if any(not a for a in self.atoms):
            raise ValueError("web atoms must be non-empty labels")

    def index(self, atom) -> int:
        return self.atoms.index(atom)

    def __len__(self):
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __repr__(self):
        return f"Web[{','.join(self.atoms)}]"


def web(*atoms) -> Web:
    return Web(tuple(atoms))


def pair_atom(a, b) -> str:
    """The atom `(a,b)` of a pair web (tensor, function space, comult)."""
    return f"({a},{b})"


def split_pair(atom: str):
    """Inverse of `pair_atom`: (a, b), split at the top-level comma, or None."""
    if not (atom.startswith("(") and atom.endswith(")")):
        return None
    body = atom[1:-1]
    depth = 0
    for i, ch in enumerate(body):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1:]
    return None


@dataclass(frozen=True)
class Vector:
    """A web-indexed vector; zero coordinates are not stored."""

    web: Web
    entries: tuple  # ((atom, value), ...) in web order, no zeros

    @staticmethod
    def make(w: Web, coords) -> "Vector":
        if isinstance(coords, dict):
            items = coords
        else:
            items = dict(coords)
        unknown = set(items) - set(w.atoms)
        if unknown:
            raise WebMismatch(f"atoms {sorted(unknown)} not in {w}")
        entries = tuple((a, items[a]) for a in w.atoms
                        if a in items and items[a] != 0)
        return Vector(w, entries)

    def value(self, atom):
        for a, v in self.entries:
            if a == atom:
                return v
        return 0

    @property
    def support(self) -> frozenset:
        return frozenset(a for a, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def as_tuple(self) -> tuple:
        return tuple(self.value(a) for a in self.web.atoms)

    def __repr__(self):
        inner = ", ".join(f"{a}:{format_scalar(v)}" for a, v in self.entries)
        return "{" + inner + "}"


def vec(w: Web, coords=None, **kw) -> Vector:
    coords = dict(coords or {})
    coords.update(kw)
    return Vector.make(w, coords)


def zero_vector(w: Web) -> Vector:
    return Vector(w, ())


# ---------------------------------------------------------------------------
# presentations


class Presentation:
    """Membership/definedness discipline of a based module."""

    def check_semiring(self, s: Semiring):
        pass

    def coordinate_values(self, s: Semiring):
        """Values coordinates may take, for enumeration; None if infinite."""
        return s.carrier_elements() if s.is_enumerable else None

    def admits(self, module: "BasedModule", v: Vector) -> bool:
        raise NotImplementedError

    def coord_sum(self, module: "BasedModule", fam):
        """Per-coordinate partial sum; defaults to the semiring's."""
        return module.semiring.sum_family(fam)

    def polytope(self, module: "BasedModule"):
        """Generators (tuples in web order) whose downward convex hull is the
        carrier, or None when the carrier is not a rational polytope."""
        return None

    def _kept_hull(self, compute):
        """`compute()` once per presentation.  The result is an instance
        attribute, not a field: it takes no part in ==, hash or repr."""
        if "_hull" not in self.__dict__:
            self.__dict__["_hull"] = compute()
        return self.__dict__["_hull"]


@dataclass(frozen=True)
class FreeP(Presentation):
    def admits(self, module, v):
        return all(module.semiring.contains(x) for _, x in v.entries)

    def polytope(self, module):
        # [0,1]^web is the downward closure of the all-ones vector; a free
        # Rpos module is the cone R>=0^web, which no polytope presents
        if module.semiring is not UNIT:
            return None
        return (tuple(Fraction(1) for _ in module.web.atoms),)

    def __repr__(self):
        return "free"


@dataclass(frozen=True)
class CoherenceP(Presentation):
    """0/1 vectors over I whose support is a clique."""

    space: object  # models.CoherenceSpace

    def check_semiring(self, s):
        if s.name != "I":
            raise ValueError(
                f"coherence presentation requires the semiring I, got {s.name}: "
                "x + x = x fails in a general based module")

    def admits(self, module, v):
        if any(x != 1 for _, x in v.entries):
            return False
        return self.space.is_clique(v.support)

    def __repr__(self):
        return f"coherence({self.space.name})"


@dataclass(frozen=True)
class PolytopeP(Presentation):
    """Non-negative rational vectors in a polytope over a [0,1] action.

    Carried by generators, by constraint vectors, or by both (the
    generators of a polytope and the vertices of its polar).  Membership is
    all pairings with the constraints <= 1 when they are present, else the
    exact bipolar LP on the generators.
    """

    generators: Optional[tuple] = None   # tuples of Fractions, web order
    constraints: Optional[tuple] = None  # tuples of Fractions, web order

    def check_semiring(self, s):
        if s.name != "unit":
            raise ValueError(f"polytope presentation requires unit, got {s.name}")

    def coordinate_values(self, s):
        return None

    def admits(self, module, v):
        coords = v.as_tuple()
        if any(not isinstance(x, (int, Fraction)) or x < 0 for x in coords):
            return False
        return self.contains(tuple(Fraction(x) for x in coords))

    def contains(self, coords) -> bool:
        """Membership of a non-negative rational tuple in web order."""
        if self.constraints is not None:
            return all(sum(c * x for c, x in zip(con, coords)) <= 1
                       for con in self.constraints)
        return ratlp.in_bipolar(self.generators, coords)

    def coord_sum(self, module, fam):
        # bound enforced by membership, not per-coordinate
        return module.semiring.ambient.sum_family(fam)

    def polytope(self, module):
        if self.generators is not None:
            return self.generators
        return self._kept_hull(lambda: tuple(
            ratlp.pruned_polar(self.constraints, len(module.web))))

    def __repr__(self):
        if self.generators is not None:
            return f"polytope(gens={len(self.generators)})"
        return f"polytope(cons={len(self.constraints)})"


@dataclass(frozen=True)
class EnumeratedP(Presentation):
    """Explicit finite carrier, optionally a submodule of an ambient module."""

    vectors: frozenset
    ambient: Optional["BasedModule"] = None
    # optional non-coordinatewise sum (value, mult) family -> scalar/UNDEF;
    # lets genuinely exotic module sums (e.g. join) be expressed
    sum_rule: Optional[object] = None

    def coordinate_values(self, s):
        values = set()
        for v in self.vectors:
            values.update(x for _, x in v.entries)
        values.add(s.zero)
        return tuple(values)

    def admits(self, module, v):
        return v in self.vectors

    def coord_sum(self, module, fam):
        if self.sum_rule is not None:
            return self.sum_rule(fam)
        if self.ambient is not None:
            return self.ambient.presentation.coord_sum(self.ambient, fam)
        return module.semiring.sum_family(fam)

    def __repr__(self):
        return f"enumerated({len(self.vectors)})"


@dataclass(frozen=True)
class ProductP(Presentation):
    """Componentwise membership over a partition of the web."""

    parts: tuple  # ((prefix, BasedModule), ...)
    at_most_one: bool = False  # coproduct discipline

    def coordinate_values(self, s):
        vals = set()
        for _, m in self.parts:
            got = m.presentation.coordinate_values(s)
            if got is None:
                return None
            vals.update(got)
        return tuple(vals)

    def split(self, module, v: Vector):
        out = []
        for prefix, part in self.parts:
            coords = {}
            for a, x in v.entries:
                if a.startswith(prefix):
                    coords[a[len(prefix):]] = x
            out.append(Vector.make(part.web, coords))
        return out

    def admits(self, module, v):
        pieces = self.split(module, v)
        if not all(p.admits(piece) for (_, p), piece in zip(self.parts, pieces)):
            return False
        if self.at_most_one:
            nonzero = sum(1 for piece in pieces if not piece.is_zero())
            return nonzero <= 1
        return True

    def polytope(self, module):
        # a product of down-closed hulls is the hull of the concatenated
        # generator pairs; a coproduct is not a product of its parts
        gens = [p.presentation.polytope(p) for _, p in self.parts]
        if self.at_most_one or None in gens:
            return None
        return tuple(sum(pick, ()) for pick in itertools.product(*gens))

    def __repr__(self):
        tag = "coproduct" if self.at_most_one else "product"
        return f"{tag}({len(self.parts)})"


# ---------------------------------------------------------------------------
# modules


@dataclass(frozen=True)
class BasedModule:
    semiring: Semiring
    web: Web
    presentation: Presentation
    name: str = ""

    def __post_init__(self):
        self.presentation.check_semiring(self.semiring)

    def admits(self, v: Vector) -> bool:
        if v.web != self.web:
            raise WebMismatch(f"{v.web} vs {self.web}")
        return self.presentation.admits(self, v)

    def require(self, v: Vector):
        if not self.admits(v):
            raise MembershipError(f"{v!r} is not a carrier element of {self}")

    def zero(self) -> Vector:
        return zero_vector(self.web)

    @property
    def label(self) -> str:
        return self.name or f"{self.semiring.name}^{len(self.web)}"

    def __repr__(self):
        return f"Module({self.label}:{self.presentation!r})"

    # -- enumeration -----------------------------------------------------

    def carrier_vectors(self, cap: int = ENUMERATION_CAP):
        """All carrier vectors, or None when not enumerable within cap."""
        pres = self.presentation
        if isinstance(pres, EnumeratedP):
            return sorted(pres.vectors, key=lambda v: v.entries)
        values = pres.coordinate_values(self.semiring)
        if values is None:
            return None
        n = len(self.web)
        if len(values) ** n > cap:
            return None
        out = []
        for combo in itertools.product(values, repeat=n):
            v = vec(self.web, dict(zip(self.web.atoms, combo)))
            if self.admits(v):
                out.append(v)
        return out


def free_module(s: Semiring, w: Web, name: str = "") -> BasedModule:
    return BasedModule(s, w, FreeP(), name)


def zero_module(s: Semiring) -> BasedModule:
    """The zero object: the free module over the empty web."""
    return BasedModule(s, Web(()), FreeP(), "0")


def enumerated_module(s: Semiring, w: Web, vectors, ambient=None,
                      name: str = "", sum_rule=None) -> BasedModule:
    vectors = frozenset(vectors)
    if len(vectors) > ENUMERATION_CAP:
        raise ValueError("enumerated carrier exceeds cap")
    if zero_vector(w) not in vectors:
        raise ValueError("enumerated carrier must contain the zero vector")
    return BasedModule(s, w, EnumeratedP(vectors, ambient, sum_rule), name)


# ---------------------------------------------------------------------------
# operations


def vec_sum(m: BasedModule, fams):
    """Partial sum of a family of (vector, multiplicity) pairs.

    Coordinate-wise in the semiring, gated by membership of the result.
    Returns a Vector or UNDEF.  Non-member inputs raise MembershipError.
    """
    columns = {a: [] for a in m.web.atoms}
    for v, mult in fams:
        m.require(v)
        for a, x in v.entries:
            columns[a].append((x, mult))
    coords = {}
    for a, fam in columns.items():
        got = m.presentation.coord_sum(m, tuple(fam))
        if got is UNDEF:
            return UNDEF
        if got != 0:
            coords[a] = got
    out = Vector.make(m.web, coords)
    if not m.admits(out):
        return UNDEF
    return out


def scalar_action(m: BasedModule, r, v: Vector) -> Vector:
    """Total action of a scalar on a carrier vector."""
    m.semiring.check_scalar(r)
    m.require(v)
    if r == 0:
        return m.zero()
    # coordinates live in the ambient carrier (a polytope's may exceed 1)
    mul = m.semiring.ambient.mul
    out = vec(m.web, {a: mul(r, x) for a, x in v.entries})
    if not m.admits(out):
        raise IntegrityError(
            f"action of {format_scalar(r)} left the carrier: {out!r} -- "
            "the presentation is not a module")
    return out


def product_module(ms: Sequence[BasedModule], name: str = "") -> BasedModule:
    """Product: disjoint-union web, componentwise membership and sums."""
    return _on_disjoint_web(ms, name, at_most_one=False)


def coproduct_module(ms: Sequence[BasedModule], name: str = "") -> BasedModule:
    """Coproduct: like the product but at most one nonzero component."""
    return _on_disjoint_web(ms, name, at_most_one=True)


def _on_disjoint_web(ms, name: str, at_most_one: bool) -> BasedModule:
    """The (co)product of `ms` on the disjoint union of their webs, atoms
    `i.a`: the coherence space A & B or A ⊕ B when every part is a coherence
    carrier, the free module for a product of free modules, else a ProductP."""
    from .models import coherence_module, coherence_of, coherence_sum
    ms = list(ms)
    if not ms:
        from .scalars import I as _I
        return zero_module(_I)
    s = ms[0].semiring
    if any(m.semiring is not s for m in ms):
        kind = "coproduct" if at_most_one else "product"
        raise ValueError(f"{kind} requires a shared semiring")
    if len(ms) == 1:
        return ms[0]
    spaces = [coherence_of(m) for m in ms]
    if None not in spaces:
        return coherence_module(coherence_sum(spaces, not at_most_one, name))
    atoms = Web(tuple(f"{i}.{a}" for i, m in enumerate(ms) for a in m.web.atoms))
    if not at_most_one and all(isinstance(m.presentation, FreeP) for m in ms):
        return BasedModule(s, atoms, FreeP(), name)
    parts = tuple((f"{i}.", m) for i, m in enumerate(ms))
    return BasedModule(s, atoms, ProductP(parts, at_most_one), name)


def equalizer_submodule(f, g) -> BasedModule:
    """Submodule { x | f(x) = g(x) } of f.src, enumerated within bounds."""
    from .linmaps import apply  # deferred: linmaps builds on this module
    if f.src.web != g.src.web or f.dst.web != g.dst.web:
        raise WebMismatch("equalizer requires parallel maps")
    carrier = f.src.carrier_vectors()
    if carrier is None:
        raise IntegrityError("equalizer needs an enumerable source carrier")
    kept = [x for x in carrier if apply(f, x) == apply(g, x)]
    return enumerated_module(f.src.semiring, f.src.web, kept, ambient=f.src,
                             name="eq")


SUBMODULE_FAMILY_ENTRIES = 3
SUBMODULE_SAMPLES = 50


def classify_submodule(sub: BasedModule, sup: BasedModule) -> Verdict:
    """Bounded check of the submodule / sum-reflecting / downward-closed flags,
    the three sub-verdicts in that order.

    Enumerates carriers when possible, otherwise samples; a verdict the
    bounds cannot settle is UNKNOWN, never silently False.  Sums and the
    order are checked from the first 12 sub carrier vectors only: beyond
    them an enumerated carrier leaves each unrefuted sub-verdict UNKNOWN.
    """
    import random
    if sub.web != sup.web:
        raise WebMismatch("classify_submodule requires a shared web")
    rng = random.Random(0)
    sub_carrier = sub.carrier_vectors(cap=2000)
    sup_carrier = sup.carrier_vectors(cap=2000)
    strategy = ("enumerated" if sub_carrier is not None and sup_carrier is not None
                else "sampled")
    what = f"{sub.label} is a sum-reflecting, downward-closed submodule of {sup.label}"

    if sub_carrier is None:
        sub_carrier = _sample_vectors(sub, rng, SUBMODULE_SAMPLES)
    outside = next((v for v in sub_carrier if not sup.admits(v)), None)
    if outside is not None:
        why = f"carrier element {outside!r} not contained"
        return Verdict.all(what, (Verdict(flag, False, strategy, counterexample=why)
                                  for flag in ("submodule", "sum-reflecting",
                                               "downward-closed")))

    not_sub = not_reflecting = None
    families = 0
    base = sub_carrier[:12]
    terms = [(v, m) for v in base for m in (1, 2, OMEGA)]
    for fam in (c for k in range(1, SUBMODULE_FAMILY_ENTRIES + 1)
                for c in itertools.combinations_with_replacement(terms, k)):
        families += 1
        in_sub = vec_sum(sub, fam)
        in_sup = vec_sum(sup, fam)
        if in_sub is not UNDEF:
            if in_sup is UNDEF or in_sup != in_sub:
                not_sub = f"sum of {fam}"
                break
        if (not_reflecting is None and in_sup is not UNDEF
                and sub.admits(in_sup) and in_sub is UNDEF):
            not_reflecting = f"sum of {fam}"

    down, below, pairs = True, None, 0
    candidates = sup_carrier if sup_carrier is not None \
        else _sample_vectors(sup, rng, 30)
    for y in base:
        for x in candidates:
            pairs += 1
            le = preorder_leq_vec(sup, x, y)
            if le is UNKNOWN:
                down = UNKNOWN if down is True else down
                below = below or f"{x!r} <= {y!r} undecided within the carrier bound"
            elif le is True and not sub.admits(x):
                down, below = False, f"{x!r} <= {y!r} lies outside"
                break
        if down is False:
            break

    checks = (Verdict("submodule", not_sub is None, strategy, families, not_sub),
              Verdict("sum-reflecting", not_reflecting is None, strategy, families,
                      not_reflecting),
              Verdict("downward-closed", down, strategy, pairs, below))
    if strategy == "enumerated" and len(base) < len(sub_carrier):
        cut = (f"cut short by its bound: only the first {len(base)} of "
               f"{len(sub_carrier)} carrier vectors were checked")
        checks = tuple(Verdict(c.what, UNKNOWN, strategy, c.checked, cut)
                       if c.ok is True else c for c in checks)
    return Verdict.all(what, checks)


def _sample_vectors(m: BasedModule, rng, count: int):
    out = {m.zero()}
    scalars = m.semiring.sample_scalars(rng, 8)
    tries = 0
    while len(out) < count and tries < count * 30:
        tries += 1
        coords = {a: rng.choice(scalars) for a in m.web.atoms}
        try:
            v = vec(m.web, coords)
        except CarrierError:
            continue
        if m.admits(v):
            out.add(v)
    return sorted(out, key=lambda v: v.entries)


def preorder_leq_vec(m: BasedModule, x: Vector, y: Vector):
    """x <= y iff some admitted z has x + z = y.  True / False / UNKNOWN."""
    m.require(x)
    m.require(y)
    if m.semiring.is_cancellative:
        # the only candidate witness is y - x
        coords = {}
        for a in m.web.atoms:
            d = y.value(a) - x.value(a)
            if d < 0:
                return False
            if d != 0:
                coords[a] = d
        z = vec(m.web, coords)
        if not m.admits(z):
            return False
        return vec_sum(m, [(x, 1), (z, 1)]) == y
    carrier = m.carrier_vectors(cap=5000)
    if carrier is None:
        return UNKNOWN
    for z in carrier:
        if vec_sum(m, [(x, 1), (z, 1)]) == y:
            return True
    return False
