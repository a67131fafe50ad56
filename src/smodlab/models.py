"""Concrete models at finite web scale.

Coherence spaces, finiteness spaces, probabilistic coherence spaces with an
exact-rational bipolar oracle, and the double-gluing / tight-orthogonality
closure over ℕ∞-weighted relations.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .scalars import F as FSEMI
from .scalars import I as ISEMI
from .scalars import INF, NINF, UNIT, Semiring
from .basedmod import (BasedModule, CoherenceP, FreeP, IntegrityError,
                       PolytopeP, Web, WebMismatch, free_module, pair_atom)
from .linmaps import LinMap, Matrix, gamma_basis, is_morphism, sparse_product
from . import ratlp


class ModelError(Exception):
    pass


class BoundExceeded(ModelError):
    """A computation was refused because its configured size bound was hit."""


# ---------------------------------------------------------------------------
# coherence spaces


@dataclass(frozen=True)
class CoherenceSpace:
    """A web with a reflexive, symmetric coherence relation.

    Only a declared space (`coherence_space`) stores and validates its
    relation.  A space built by a connective holds its parts and each atom's
    key in them, and answers by the connective's rule (Girard 1987)."""

    name: str
    atoms: tuple
    coh: Optional[frozenset] = None  # declared: symmetric, reflexive atom pairs
    rule: str = "declared"
    parts: tuple = ()
    keys: tuple = ()  # in web order

    def __post_init__(self):
        if self.coh is None:
            return
        for (a, b) in self.coh:
            if a not in self.atoms or b not in self.atoms:
                raise ModelError(f"coherence pair ({a},{b}) outside the web")
        for a in self.atoms:
            if (a, a) not in self.coh:
                raise ModelError(f"relation not reflexive at {a}")
        for (a, b) in self.coh:
            if (b, a) not in self.coh:
                raise ModelError(f"relation not symmetric at ({a},{b})")

    @property
    def web(self) -> Web:
        return Web(self.atoms)

    @functools.cached_property
    def _key(self) -> dict:
        """Each atom's key, indexed once; not part of ==, hash or repr."""
        return dict(zip(self.atoms, self.keys))

    def coherent(self, a, b) -> bool:
        if self.coh is not None:
            return (a, b) in self.coh
        return _RULES[self.rule](self.parts, self._key[a], self._key[b])

    def strictly_incoherent(self, a, b) -> bool:
        """a ≍ b: equal or incoherent."""
        return a == b or not self.coherent(a, b)

    def is_clique(self, support: Iterable) -> bool:
        sup = list(support)
        return all(self.coherent(a, b) for a, b in
                   itertools.combinations_with_replacement(sup, 2))

    def cliques(self):
        out = []
        for r in range(len(self.atoms) + 1):
            for sup in itertools.combinations(self.atoms, r):
                if self.is_clique(sup):
                    out.append(frozenset(sup))
        return out


def lolli_coherent(A: CoherenceSpace, B: CoherenceSpace, p, q) -> bool:
    """(a,b) ⌢ (a′,b′) in A ⊸ B: a ⌢ a′ ⇒ b ⌢ b′, and b ≍ b′ ⇒ a ≍ a′."""
    (a, b), (a2, b2) = p, q
    return ((not A.coherent(a, a2) or B.coherent(b, b2))
            and (not B.strictly_incoherent(b, b2) or A.strictly_incoherent(a, a2)))


# each connective's coherence of two atoms, from its parts and the atoms' keys
_RULES = {
    "complete": lambda P, x, y: True,
    "dual": lambda P, x, y: P[0].strictly_incoherent(x, y),
    "tensor": lambda P, x, y: P[0].coherent(x[0], y[0]) and P[1].coherent(x[1], y[1]),
    "lolli": lambda P, x, y: lolli_coherent(*P, x, y),
    "bang": lambda P, x, y: P[0].is_clique(x | y),
    # keys (i, a): atoms of two parts are coherent in A & B, incoherent in A ⊕ B
    "with": lambda P, x, y: x[0] != y[0] or P[x[0]].coherent(x[1], y[1]),
    "plus": lambda P, x, y: x[0] == y[0] and P[x[0]].coherent(x[1], y[1]),
}


def coherence_space(name: str, atoms, coherent_pairs=()) -> CoherenceSpace:
    """Build a space from the strict part of the relation; reflexive and
    symmetric closure is taken automatically."""
    atoms = tuple(atoms)
    rel = {(a, a) for a in atoms}
    for (a, b) in coherent_pairs:
        rel.add((a, b))
        rel.add((b, a))
    return CoherenceSpace(name, atoms, frozenset(rel))


def coherence_dual(A: CoherenceSpace, name: str = "") -> CoherenceSpace:
    return CoherenceSpace(name or f"{A.name}^", A.atoms, rule="dual", parts=(A,),
                          keys=A.atoms)


def _on_pairs(rule, A: CoherenceSpace, B: CoherenceSpace, name) -> CoherenceSpace:
    keys = tuple(itertools.product(A.atoms, B.atoms))
    atoms = tuple(pair_atom(a, b) for a, b in keys)
    return CoherenceSpace(name, atoms, rule=rule, parts=(A, B), keys=keys)


def coherence_tensor(A: CoherenceSpace, B: CoherenceSpace,
                     name: str = "") -> CoherenceSpace:
    return _on_pairs("tensor", A, B, name or f"({A.name}⊗{B.name})")


def coherence_lolli(A: CoherenceSpace, B: CoherenceSpace,
                    name: str = "") -> CoherenceSpace:
    return _on_pairs("lolli", A, B, name or f"({A.name}⊸{B.name})")


def coherence_bang(A: CoherenceSpace, labels, supports) -> CoherenceSpace:
    """The multiset exponential, on multisets of A's atoms given by their
    labels and supports: ξ ⌢ ξ′ iff their supports together are a clique."""
    return CoherenceSpace(f"!{A.name}", tuple(labels), rule="bang", parts=(A,),
                          keys=tuple(supports))


def coherence_sum(parts, product: bool, name: str) -> CoherenceSpace:
    """A & B (`product`) or A ⊕ B, on the disjoint web of atoms `i.a`."""
    keys = tuple((i, a) for i, A in enumerate(parts) for a in A.atoms)
    return CoherenceSpace(name, tuple(f"{i}.{a}" for i, a in keys),
                          rule="with" if product else "plus", parts=tuple(parts),
                          keys=keys)


def coherence_of(m: BasedModule) -> Optional[CoherenceSpace]:
    """An I-module's coherence space, or None.  A free I-module is the
    complete space: both admit every 0/1 vector and sum disjoint supports."""
    if isinstance(m.presentation, CoherenceP):
        return m.presentation.space
    if isinstance(m.presentation, FreeP) and m.semiring is ISEMI:
        return CoherenceSpace(m.name, m.web.atoms, rule="complete", keys=m.web.atoms)
    return None


def coherence_module(space: CoherenceSpace) -> BasedModule:
    return BasedModule(ISEMI, space.web, CoherenceP(space), space.name)


def F_embed(A: CoherenceSpace):
    """The coherence space as an 𝕀-module with its canonical basis."""
    mod = coherence_module(A)
    return mod, gamma_basis(mod)


def F_map(A: CoherenceSpace, B: CoherenceSpace, rel) -> LinMap:
    """A clique of A⊸B as a matrix; rejects non-cliques with a witness."""
    src, dst = coherence_module(A), coherence_module(B)
    f = LinMap(src, dst, Matrix.make(src.web, dst.web, dict.fromkeys(rel, 1)))
    if (rep := is_morphism(f)).ok is not True:
        raise ModelError(f"not a clique of A⊸B: {rep.counterexample}")
    return LinMap(src, dst, f.matrix, verified=True)


def F_invert(g: LinMap) -> frozenset:
    """Recover the relation: (a,b) ∈ f ⇔ b ∈ g({a})."""
    if not g.verified and (rep := is_morphism(g)).ok is not True:
        raise ModelError(f"F_invert requires a morphism: {rep}")
    return frozenset((a, b) for (a, b), v in g.matrix.entries if v == 1)


# ---------------------------------------------------------------------------
# finiteness spaces


@dataclass(frozen=True)
class FinitenessSpace:
    name: str
    atoms: tuple

    @property
    def web(self) -> Web:
        return Web(self.atoms)


def fin_dual(supports, web: Web):
    """The finiteness dual; at finite webs every intersection is finite,
    so the dual is the full powerset."""
    del supports
    out = []
    for r in range(len(web) + 1):
        for sup in itertools.combinations(web.atoms, r):
            out.append(frozenset(sup))
    return out


def finiteness_module(A: FinitenessSpace) -> BasedModule:
    """At a finite web every support is finitary: the free F-module."""
    return free_module(FSEMI, A.web, A.name)


# ---------------------------------------------------------------------------
# probabilistic coherence spaces


@dataclass(frozen=True)
class ProbCohSpace:
    name: str
    atoms: tuple
    generators: tuple  # canonical tuple of tuples of Fraction

    @property
    def web(self) -> Web:
        return Web(self.atoms)

    def gamma(self, a) -> Fraction:
        idx = self.atoms.index(a)
        return max(g[idx] for g in self.generators)

    @functools.cached_property
    def polar(self) -> tuple:
        """Irredundant generators of P⊥, enumerated once per space.  Kept in
        the instance `__dict__`, so it takes no part in ==, hash or repr."""
        return tuple(ratlp.pruned_polar(self.generators, len(self.atoms)))


def pcoh_space(name: str, atoms, generators) -> ProbCohSpace:
    atoms = tuple(atoms)
    gens = []
    for g in generators:
        g = tuple(Fraction(x) for x in g)
        if len(g) != len(atoms):
            raise ModelError(f"generator {g} has wrong length")
        if any(x < 0 for x in g):
            raise ModelError(f"generator {g} has a negative coordinate")
        gens.append(g)
    if not gens:
        raise ModelError("at least one generator is required")
    for i, a in enumerate(atoms):
        if max(g[i] for g in gens) == 0:
            raise ModelError(f"dead atom {a}: every generator is 0 there")
    canon = ratlp.prune_dominated(gens)
    return ProbCohSpace(name, atoms, tuple(canon))


def _carrier(P: ProbCohSpace) -> PolytopeP:
    """P as a polytope.  P = P⊥⊥, so within the vertex bound membership is
    a pairing with each vertex of P⊥; beyond it, one exact LP per query."""
    if len(P.atoms) > ratlp.VERTEX_BOUND:
        return PolytopeP(generators=P.generators)
    return PolytopeP(generators=P.generators, constraints=P.polar)


def pcoh_bipolar_member(P: ProbCohSpace, u) -> bool:
    u = tuple(Fraction(x) for x in u)
    if len(u) != len(P.atoms):
        raise WebMismatch("vector length does not match the web")
    if any(x < 0 for x in u):
        raise ModelError(f"negative coordinate in {u}")
    return _carrier(P).contains(u)


def pcoh_dual(P: ProbCohSpace, bound: int = ratlp.VERTEX_BOUND) -> ProbCohSpace:
    if len(P.atoms) > bound:
        raise BoundExceeded(
            f"dual generator enumeration refused at web size {len(P.atoms)} "
            f"(bound {bound}); membership queries remain available")
    return ProbCohSpace(f"{P.name}^", P.atoms, P.polar)


def H_embed(P: ProbCohSpace) -> BasedModule:
    return BasedModule(UNIT, P.web, _carrier(P), P.name)


def pcoh_gamma_and_basis(P: ProbCohSpace):
    """γ_a = max generator coordinate; basis (e_a = γ_a·δ_a, φ_a = x(a)/γ_a)."""
    gammas = {a: P.gamma(a) for a in P.atoms}
    return gammas, gamma_basis(H_embed(P), gammas)


def H_map(P: ProbCohSpace, Q: ProbCohSpace, rows) -> LinMap:
    """A rational matrix as a map H(P) → H(Q), verified on generators.

    `rows` is indexed rows-by-source-atom, columns-by-target-atom,
    or an existing Matrix.
    """
    src, dst = H_embed(P), H_embed(Q)
    if isinstance(rows, Matrix):
        mat = rows
    else:
        entries = {}
        for a, row in zip(P.atoms, rows):
            for b, v in zip(Q.atoms, row):
                v = Fraction(v)
                if v < 0:
                    raise ModelError(f"negative entry at ({a},{b})")
                if v != 0:
                    entries[(a, b)] = v
        mat = Matrix.make(src.web, dst.web, entries)
    f = LinMap(src, dst, mat)
    rep = is_morphism(f)
    if rep.ok is not True:
        raise ModelError(f"not proved a morphism: {rep}")
    return LinMap(src, dst, mat, verified=True)


# ---------------------------------------------------------------------------
# double gluing over ℕ∞


@dataclass(frozen=True)
class GlueObject:
    web: Web
    u: frozenset  # vectors, tuples over ℕ∞ in web order
    x: frozenset  # covectors

    def is_tight(self, bound: int = 2) -> bool:
        carrier = _glue_carrier(len(self.web), bound)
        return (self.u == _polar(self.x, carrier)
                and self.x == _polar(self.u, carrier))


def glue_pairing(u, x):
    return NINF.ambient_sum(NINF.ambient_mul(a, b) for a, b in zip(u, x))


def _glue_carrier(dim: int, bound: int):
    values = tuple(range(bound + 1)) + (INF,)
    return [tuple(v) for v in itertools.product(values, repeat=dim)]


def _polar(vectors, carrier):
    out = set()
    for x in carrier:
        ok = True
        for u in vectors:
            p = glue_pairing(u, x)
            if p is INF or p > 1:
                ok = False
                break
        if ok:
            out.add(x)
    return frozenset(out)


def glue_tight_closure(web: Web, u_vectors, s: Semiring = NINF,
                       bound: int = 2) -> GlueObject:
    """Tight closure (R, U°°, U°) within the {0..bound, ∞}-coordinate carrier."""
    if not s.is_complete:
        raise ModelError(
            f"focused orthogonality needs a complete carrier; {s.name} is not")
    seed = {tuple(v) for v in u_vectors}
    carrier = _glue_carrier(len(web), bound)
    x = _polar(seed, carrier)
    u = _polar(x, carrier)
    if _polar(u, carrier) != x:
        raise IntegrityError("triple polar must collapse")
    return GlueObject(web, frozenset(u), x)


def glue_is_morphism(f: Matrix, A: GlueObject, B: GlueObject) -> bool:
    """f·u ∈ U_B for every u ∈ U_A, and x∘f ∈ X_A for every x ∈ X_B."""
    if f.src_web != A.web or f.dst_web != B.web:
        raise WebMismatch("matrix webs do not match the glue objects")
    for u in A.u:
        img, _ = sparse_product(NINF, (((0, a), v) for a, v in zip(A.web.atoms, u)),
                                f.entries)
        if tuple(img.get((0, b), 0) for b in B.web.atoms) not in B.u:
            return False
    for x in B.x:
        pre, _ = sparse_product(NINF, f.entries,
                                (((b, 0), v) for b, v in zip(B.web.atoms, x)))
        if tuple(pre.get((a, 0), 0) for a in A.web.atoms) not in A.x:
            return False
    return True


def wrel_compose(s: Semiring, f: Matrix, g: Matrix) -> Matrix:
    """Total matrix product over a complete semiring (weighted relations)."""
    if not s.is_complete:
        raise ModelError(
            f"{s.name} is not complete; use linmaps.compose for partial sums")
    if f.dst_web != g.src_web:
        raise WebMismatch("middle webs differ")
    entries, undefined = sparse_product(s, f.entries, g.entries)
    if undefined is not None:
        a, c = undefined
        raise ModelError(f"entry ({a},{c}) has an undefined sum "
                         f"in the complete semiring {s.name}")
    return Matrix.make(f.src_web, g.dst_web, entries)
