"""Degree-truncated cofree exponential.

Symmetric tensor powers with multiset bases, coefficient ideals, promotion,
comultiplication, dereliction, and comonoid-law verification — everything at
a fixed degree bound d, where the grading makes the ≤ d components
self-contained.

A vector over the multiset web stands for the symmetric tensor
``Σ_ξ v(ξ)·e_ξ`` where ``e_ξ`` is the orbit sum of the pure tensors of base
basis vectors; membership is checked gradedwise in the tensor powers.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .scalars import RPOS, UNDEF
from .basedmod import (UNKNOWN, BasedModule, IntegrityError,
                       Presentation, Vector, Verdict, Web, pair_atom, vec,
                       vec_sum)
from .linmaps import (CARRIER_CAP, DualBasis, LinMap, Matrix, apply,
                      free_module, gamma_basis, scalar_of, semiring_module,
                      spanning_members, sparse_product, tensor_obj,
                      unit_basis, validate_basis)
from .models import coherence_bang, coherence_module, coherence_of
from . import ratlp


DEGREE_CAP = 3


class ExponentialError(Exception):
    pass


# ---------------------------------------------------------------------------
# multiset indices


@dataclass(frozen=True)
class MultisetIndex:
    """A finite multiset over a web, canonical by web atom order."""

    atoms: tuple          # the ambient web order
    counts: tuple         # ((atom, positive count), ...) in web order

    @staticmethod
    def make(atoms, counts) -> "MultisetIndex":
        atoms = tuple(atoms)
        if isinstance(counts, dict):
            items = counts
        else:
            items = {}
            for a in counts:
                items[a] = items.get(a, 0) + 1
        canon = tuple((a, items[a]) for a in atoms if items.get(a, 0) > 0)
        return MultisetIndex(atoms, canon)

    @property
    def degree(self) -> int:
        return sum(c for _, c in self.counts)

    def count(self, a) -> int:
        return dict(self.counts).get(a, 0)

    @property
    def support(self) -> frozenset:
        return frozenset(a for a, _ in self.counts)

    def add(self, other: "MultisetIndex") -> "MultisetIndex":
        items = dict(self.counts)
        for a, c in other.counts:
            items[a] = items.get(a, 0) + c
        return MultisetIndex.make(self.atoms, items)

    @property
    def flat(self) -> tuple:
        """Each atom repeated by its count, in web order."""
        return tuple(a for a, c in self.counts for _ in range(c))

    def sequences(self):
        """All distinct orderings (the sequences s ◁ ξ)."""
        return sorted(set(itertools.permutations(self.flat)))

    @property
    def label(self) -> str:
        return "[" + ",".join(self.flat) + "]"

    def __repr__(self):
        return self.label


def multisets_of_degree(atoms, n: int):
    atoms = tuple(atoms)
    out = []
    for combo in itertools.combinations_with_replacement(atoms, n):
        out.append(MultisetIndex.make(atoms, combo))
    return out


def parse_multiset(text: str, w: Web) -> MultisetIndex:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad multiset literal {text!r}")
    body = text[1:-1].strip()
    items = [t.strip() for t in body.split(",")] if body else []
    for a in items:
        if a not in w.atoms:
            raise ValueError(f"unknown atom {a!r} in multiset literal")
    return MultisetIndex.make(w.atoms, items)


# ---------------------------------------------------------------------------
# tensor powers


def _tensor_powers(V: BasedModule, basis: DualBasis, d: int):
    """[(T_n, product basis)] for n = 0..d, with T_n = T_{n−1} ⊗ V.

    The basis pairs of T_n are ordered seq-major: the pure tensor
    e_{i_1}⊗…⊗e_{i_n} sits at the base-|basis| number i_1…i_n.
    """
    s = V.semiring
    powers = [(semiring_module(s), unit_basis(s)), (V, basis)][:d + 1]
    for _ in range(2, d + 1):
        T, tb = powers[-1]
        powers.append(tensor_obj(T, V, tb, basis))
    return powers


@dataclass(frozen=True)
class IdealGamma:
    xi: MultisetIndex
    sup: object           # scalar: largest r with the orbit sum defined
    basis_kind: str       # full-unit | interval | zero


def _orbit_coords(s, members) -> dict:
    """Coordinates of e_ξ = Σ_{s◁ξ} e_s, summed in the ambient arithmetic."""
    coords = {}
    for m in members:
        for a, x in m.entries:
            got = s.ambient_sum((coords[a], x)) if a in coords else x
            if got is UNDEF:
                raise IntegrityError(f"orbit sum undefined at coordinate {a}")
            coords[a] = got
    return coords


def _orbit(T: BasedModule, tb: DualBasis, width: int, xi: MultisetIndex):
    """(R_ξ by its supremum, coordinates of e_ξ in T's web or None when ξ is
    not admissible), from the pure tensors e_s, s◁ξ, whose sum is e_ξ."""
    s = T.semiring
    pos = {a: i for i, a in enumerate(xi.atoms)}
    members = []
    for seq in xi.sequences():
        idx = 0
        for a in seq:
            idx = idx * width + pos[a]
        members.append(tb.pairs[idx][0])
    gens = T.presentation.polytope(T)
    if gens is None:
        if vec_sum(T, [(m, 1) for m in members]) is UNDEF:
            return IdealGamma(xi, s.zero, "zero"), None
        return IdealGamma(xi, s.one, "full-unit"), _orbit_coords(s, members)
    # membership is convex: the supremum is an exact LP optimum
    coords = _orbit_coords(s, members)
    w = tuple(coords.get(a, 0) for a in T.web.atoms)
    if all(x == 0 for x in w):
        return IdealGamma(xi, s.one, "full-unit"), coords
    t = ratlp.max_scale(gens, w)
    sup = s.one if t is None else min(Fraction(t), s.one)
    kind = ("zero" if sup == 0
            else "full-unit" if sup == s.one else "interval")
    return IdealGamma(xi, sup, kind), coords


def ideal_gamma(V: BasedModule, basis: DualBasis,
                xi: MultisetIndex) -> IdealGamma:
    """R_ξ = { r | Σ_{s◁ξ} r·e_s defined }, reported by its supremum."""
    T, tb = _tensor_powers(V, basis, xi.degree)[-1]
    return _orbit(T, tb, len(basis.pairs), xi)[0]


# ---------------------------------------------------------------------------
# graded symmetric presentation


@dataclass(frozen=True)
class SymGradedP(Presentation):
    """Membership via the graded map into tensor powers.

    ``layers`` maps degree n to (tensor power module, orbit-coordinate table):
    the table is the layer map's matrix, whose entry ((a, ξ), x) is the
    coordinate x of e_ξ at the atom a of the power's web, for each
    admissible ξ of degree n.
    """

    layers: tuple   # ((degree, tensor module, (((atom, label), x), ...)), ...)

    def admits(self, module, v):
        for degree, T, table in self.layers:
            coords, undefined = sparse_product(
                module.semiring, table, (((label, 0), r) for label, r in v.entries))
            if undefined is not None:
                return False
            if not T.admits(vec(T.web, {a: x for (a, _), x in coords.items()})):
                return False
        # coordinates at atoms outside every layer table are not possible:
        # the module web is exactly the union of layer labels
        return True

    def polytope(self, module):
        return self._kept_hull(lambda: self._pulled_back_hull(module))

    def _pulled_back_hull(self, module):
        """Over a rational ambient, pull the dual constraints of each
        tensor-power polytope back through the graded layer map
        v ↦ Σ_ξ v(ξ)·e_ξ; the carrier is the polar of those rows."""
        if module.semiring.ambient is not RPOS:
            return None
        atoms = module.web.atoms
        idx = {a: i for i, a in enumerate(atoms)}
        rows = []
        for degree, T, table in self.layers:
            gens = T.presentation.polytope(T)
            if gens is None:
                return None
            tpos = {a: i for i, a in enumerate(T.web.atoms)}
            for dvec in ratlp.polar_vertices(gens, len(T.web.atoms)):
                row = [Fraction(0)] * len(atoms)
                for (a, label), x in table:
                    row[idx[label]] += Fraction(dvec[tpos[a]]) * Fraction(x)
                if any(row):
                    rows.append(tuple(row))
        return tuple(ratlp.pruned_polar(ratlp.prune_dominated(rows), len(atoms)))


# ---------------------------------------------------------------------------
# symmetric powers and the truncated bang


def _sym_layer(V: BasedModule, basis: DualBasis, T: BasedModule,
               tb: DualBasis, n: int):
    """Admissible multisets of degree n with their R_ξ, plus the layer table
    for SymGradedP."""
    admissible = []
    table = []
    for xi in multisets_of_degree(V.web.atoms, n):
        gamma, coords = _orbit(T, tb, len(basis.pairs), xi)
        if gamma.basis_kind == "zero":
            continue
        admissible.append((xi, gamma))
        table += (((a, xi.label), x) for a, x in coords.items() if x != 0)
    return admissible, tuple(table)


def sym_power(V: BasedModule, basis: DualBasis, n: int):
    """Symmetric n-th power with the multiset basis (γ_ξ·δ_ξ, x(ξ)/γ_ξ)."""
    if n > DEGREE_CAP:
        raise ExponentialError(f"degree {n} exceeds the bound {DEGREE_CAP}")
    if not basis.orthogonal:
        raise ExponentialError("sym_power needs an orthogonal base basis")
    T, tb = _tensor_powers(V, basis, n)[-1]
    admissible, table = _sym_layer(V, basis, T, tb, n)
    w = Web(tuple(xi.label for xi, _ in admissible))
    mod = BasedModule(V.semiring, w, SymGradedP(((n, T, table),)),
                      f"Sym{n}({V.name or 'V'})")
    return mod, gamma_basis(mod, {xi.label: gamma.sup for xi, gamma in admissible})


@dataclass(frozen=True)
class TruncatedBang:
    base: BasedModule
    basis: DualBasis
    degree: int
    module: BasedModule
    multisets: tuple       # MultisetIndex in web order
    gammas: tuple          # ((label, sup), ...)

    @property
    def web(self) -> Web:
        return self.module.web


def bang(V: BasedModule, basis: DualBasis, d: int) -> TruncatedBang:
    """Degree-≤-d fragment of the cofree exponential.  On a coherence carrier
    with the canonical basis e_a = δ_a it is the multiset exponential !A."""
    if d > DEGREE_CAP:
        raise ExponentialError(f"degree {d} exceeds the bound {DEGREE_CAP}")
    if not basis.orthogonal:
        raise ExponentialError("bang needs an orthogonal base basis")
    s = V.semiring
    layers = []
    all_multisets = []
    gammas = []
    for n, (T, tb) in enumerate(_tensor_powers(V, basis, d)):
        admissible, table = _sym_layer(V, basis, T, tb, n)
        layers.append((n, T, table))
        for xi, gamma in admissible:
            all_multisets.append(xi)
            gammas.append((xi.label, gamma.sup))
    w = Web(tuple(xi.label for xi in all_multisets))

    A = coherence_of(V)
    if A is not None and [e for e, _ in basis.pairs] == [vec(V.web, {a: 1})
                                                         for a in V.web.atoms]:
        mod = coherence_module(coherence_bang(A, w.atoms,
                                              (xi.support for xi in all_multisets)))
    else:
        mod = BasedModule(s, w, SymGradedP(tuple(layers)),
                          f"!{V.name or 'V'}@{d}")
    return TruncatedBang(V, basis, d, mod, tuple(all_multisets),
                         tuple(gammas))


# ---------------------------------------------------------------------------
# structure maps


def bang_basis(B: TruncatedBang) -> DualBasis:
    """Orthogonal basis (γ_ξ·δ_ξ, x(ξ)/γ_ξ) of the truncated bang."""
    return gamma_basis(B.module, dict(B.gammas))


def _coefficients(B: TruncatedBang, x: Vector) -> dict:
    """φ_a(x) for each base atom a."""
    out = {}
    for a, (_, phi) in zip(B.base.web.atoms, B.basis.pairs):
        got = apply(phi, x)
        if got is UNDEF:
            raise IntegrityError(f"a basis functional is undefined at {x!r}")
        out[a] = scalar_of(got)
    return out


def _monomial(s, coeffs: dict, xi: MultisetIndex):
    """∏_a coeffs[a]^ξ(a) in the ambient arithmetic."""
    v = s.one
    for a in xi.flat:
        v = s.ambient_mul(v, coeffs[a])
    return v


def promote(B: TruncatedBang, x: Vector) -> Vector:
    """!x truncated: coordinate at ξ is ∏_i φ_i(x)^{ξ(i)}."""
    B.base.require(x)
    coeffs = _coefficients(B, x)
    out = vec(B.web, {xi.label: _monomial(B.base.semiring, coeffs, xi)
                      for xi in B.multisets})
    if not B.module.admits(out):
        raise ExponentialError(f"promotion of {x!r} not admitted (truncation)")
    return out


def _splits(B: TruncatedBang):
    """The comultiplication table: (ξ, ξ₁, ξ₂) labels with ξ₁+ξ₂ = ξ."""
    labels = {xi.label for xi in B.multisets}
    out = []
    for x1 in B.multisets:
        for x2 in B.multisets:
            whole = x1.add(x2)
            if whole.label in labels:
                out.append((whole.label, x1.label, x2.label))
    return out


def comult(B: TruncatedBang) -> LinMap:
    """δ: e_ξ ↦ Σ_{ξ₁+ξ₂=ξ} e_{ξ₁} ⊠ e_{ξ₂}; every split has coefficient 1."""
    pair_atoms = tuple(pair_atom(x1.label, x2.label)
                       for x1 in B.multisets for x2 in B.multisets)
    dst = free_module(B.base.semiring, Web(pair_atoms), "!V⊠!V")
    one = B.base.semiring.one
    entries = {(xi, pair_atom(x1, x2)): one for xi, x1, x2 in _splits(B)}
    return LinMap(B.module, dst,
                  Matrix.make(B.web, dst.web, entries))


def counit(B: TruncatedBang) -> LinMap:
    """ε: projection onto the empty multiset."""
    dst = semiring_module(B.base.semiring)
    empty = MultisetIndex.make(B.base.web.atoms, ()).label
    return LinMap(B.module, dst,
                  Matrix.make(B.web, dst.web, {(empty, "*"): B.base.semiring.one}))


def dereliction(B: TruncatedBang) -> LinMap:
    """Projection onto degree-1 multisets, written in the base web."""
    if B.degree < 1:
        raise ExponentialError("dereliction needs degree ≥ 1")
    entries = {}
    pos = {a: i for i, a in enumerate(B.base.web.atoms)}
    for xi in B.multisets:
        if xi.degree != 1:
            continue
        (atom, _), = xi.counts
        e, _ = B.basis.pairs[pos[atom]]
        for a, v in e.entries:
            entries[(xi.label, a)] = v
    return LinMap(B.module, B.base,
                  Matrix.make(B.web, B.base.web, entries))


# ---------------------------------------------------------------------------
# comonoid laws


def _delta_dict(B: TruncatedBang, mutate_seed: Optional[int] = None):
    delta = {(xi, (x1, x2)): 1 for xi, x1, x2 in _splits(B)}
    if mutate_seed is not None:
        del delta[random.Random(mutate_seed).choice(sorted(delta, key=repr))]
    return delta


def _first_difference(a: dict, b: dict):
    """A key at which two tables differ, or None."""
    return next((k for k in a.keys() | b.keys() if a.get(k) != b.get(k)), None)


def check_comonoid(B: TruncatedBang,
                   mutate_seed: Optional[int] = None) -> Verdict:
    """Exact identities on the degree-≤ d components, one sub-verdict per law.

    The four matrix laws compare comultiplication tables entry by entry.
    promote(x) at ξ is the monomial ∏_a φ_a(x)^ξ(a), so the pointwise laws
    are polynomial identities, decided with no point evaluation ("symbolic").
    dereliction∘promote = id is the basis reconstruction x = Σ_a φ_a(x)·e_a
    once dereliction's rows are e_a at [a] and 0 elsewhere, so it carries
    `validate_basis`'s verdict.  comult∘promote = promote⊠promote holds when
    each split (ξ₁, ξ₂) with |ξ₁| + |ξ₂| ≤ d is in the table or its monomial
    at ξ₁+ξ₂ vanishes on the carrier: on a polytope or finitely complete free
    module iff ξ has a dead atom, φ_a = 0 on every spanning member (each φ_a
    is linear, and an average or the sum of the members makes every live φ_a
    nonzero, with no zero divisors).  On a coherence carrier where each φ_a
    is x_a or 0, it vanishes iff ξ has an atom with φ_a = 0 or its support
    is not a clique.  Other carriers and bases are checked point by point
    within `CARRIER_CAP`; beyond it the law is UNKNOWN (strategy "none").

    ``mutate_seed`` perturbs one comultiplication entry (negative control).
    """
    delta = _delta_dict(B, mutate_seed)
    checks = []

    def record(law, diff):
        checks.append(Verdict(law, diff is None, "matrix", len(delta),
                              None if diff is None else str(diff)))

    # cocommutativity: swapping the two output factors fixes the matrix
    record("cocommutativity", _first_difference(
        delta, {(xi, (b, a)): v for (xi, (a, b)), v in delta.items()}))

    # coassociativity through explicit reassociation
    halves = {}
    for xi, pair in delta:
        halves.setdefault(xi, []).append(pair)
    left = Counter((xi, (x1, x2, x3)) for xi, (rho, x3) in delta
                   for x1, x2 in halves.get(rho, ()))
    right = Counter((xi, (x1, x2, x3)) for xi, (x1, rho) in delta
                    for x2, x3 in halves.get(rho, ()))
    record("coassociativity", _first_difference(left, right))

    # counit laws
    empty = MultisetIndex.make(B.base.web.atoms, ()).label
    ident = {(xi.label, xi.label): 1 for xi in B.multisets}
    record("left counit", _first_difference(ident, {
        (xi, x2): v for (xi, (x1, x2)), v in delta.items() if x1 == empty}))
    record("right counit", _first_difference(ident, {
        (xi, x1): v for (xi, (x1, x2)), v in delta.items() if x2 == empty}))

    checks.append(_dereliction_law(B))
    checks.append(_comult_law(B, delta))
    return Verdict.all(f"comonoid laws of !{B.degree} {B.base.label}", checks)


def _dereliction_law(B: TruncatedBang) -> Verdict:
    law = "dereliction∘promote = id"
    if B.degree < 1:
        return Verdict(law, True, "symbolic", 0)
    atoms = B.base.web.atoms
    want = {(MultisetIndex.make(atoms, (a,)).label, b): v
            for a, (e, _) in zip(atoms, B.basis.pairs) for b, v in e.entries}
    bad = _first_difference(dict(dereliction(B).matrix.entries), want)
    if bad is not None:
        return Verdict(law, False, "symbolic", len(atoms),
                       f"dereliction's entry at {bad} is not the basis vector's")
    basis = validate_basis(B.base, B.basis)
    return Verdict(law, basis.ok, "symbolic", len(atoms) + basis.checked,
                   basis.counterexample, (basis,))


def _comult_law(B: TruncatedBang, delta: dict) -> Verdict:
    law = "comult∘promote = promote⊠promote"
    splits = [(x1, x2) for x1, x2 in itertools.product(B.multisets, repeat=2)
              if x1.degree + x2.degree <= B.degree]
    missing = [(x1, x2, x1.add(x2)) for x1, x2 in splits
               if (x1.add(x2).label, (x1.label, x2.label)) not in delta]
    vanishes = _vanishing(B) if missing else None
    if missing and vanishes is None:
        return Verdict(law, UNKNOWN, "none", 0,
                       f"cut short by its bound: the carrier is not enumerable "
                       f"within {CARRIER_CAP} vectors")
    for x1, x2, whole in missing:
        if not vanishes(whole):
            return Verdict(law, False, "symbolic", len(splits),
                           f"split ({x1.label},{x2.label}) is not in the table "
                           f"and the monomial at {whole.label} does not vanish")
    return Verdict(law, True, "symbolic", len(splits))


def _vanishing(B: TruncatedBang):
    """ξ ↦ whether its monomial vanishes on the carrier, or None if undecided."""
    V = B.base
    members = spanning_members(V)
    if members is not None:
        live = {a for g in members for a, _ in g.entries}
        dead = frozenset(atom for atom, (_, phi) in zip(V.web.atoms, B.basis.pairs)
                         if not any(b in live for (b, _), _ in phi.matrix.entries))
        return lambda xi: bool(xi.support & dead)
    A = coherence_of(V)
    columns = [phi.matrix.entries for _, phi in B.basis.pairs]
    if A is not None and all(c in ((), (((a, "*"), V.semiring.one),))
                             for a, c in zip(V.web.atoms, columns)):
        dead = frozenset(a for a, c in zip(V.web.atoms, columns) if not c)
        return lambda xi: bool(xi.support & dead) or not A.is_clique(xi.support)
    carrier = V.carrier_vectors(cap=CARRIER_CAP)
    if carrier is None:
        return None
    points = [_coefficients(B, x) for x in carrier]
    return lambda xi: all(_monomial(V.semiring, c, xi) == 0 for c in points)
