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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .scalars import RPOS, UNDEF
from .basedmod import (BasedModule, CoherenceP, IntegrityError, Presentation,
                       Vector, Verdict, Web, pair_atom, vec, vec_sum,
                       zero_vector)
from .linmaps import (DualBasis, LinMap, Matrix, apply, free_module,
                      gamma_basis, scalar_of, semiring_module, tensor_obj,
                      unit_basis)
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

    def sequences(self):
        """All distinct orderings (the sequences s ◁ ξ)."""
        flat = []
        for a, c in self.counts:
            flat.extend([a] * c)
        return sorted(set(itertools.permutations(flat)))

    @property
    def label(self) -> str:
        flat = []
        for a, c in self.counts:
            flat.extend([a] * c)
        return "[" + ",".join(flat) + "]"

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
    the table sends each admissible ξ of degree n to the coordinates of e_ξ
    in the power's web.
    """

    layers: tuple   # ((degree, tensor module, ((label, coords-tuple), ...)), ...)

    def admits(self, module, v):
        s = module.semiring
        for degree, T, table in self.layers:
            coords = {}
            for label, e_coords in table:
                r = v.value(label)
                if r == 0:
                    continue
                for a, x in e_coords:
                    t = s.ambient_mul(r, x)
                    got = s.ambient_sum((coords[a], t) if a in coords else (t,))
                    if got is UNDEF:
                        return False
                    coords[a] = got
            w = vec(T.web, {a: x for a, x in coords.items() if x != 0})
            if not T.admits(w):
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
                for label, e_coords in table:
                    row[idx[label]] = sum(
                        (Fraction(dvec[tpos[a]]) * Fraction(x)
                         for a, x in e_coords), Fraction(0))
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
        table.append((xi.label, tuple((a, x) for a, x in coords.items()
                                      if x != 0)))
    return admissible, tuple(table)


def sym_power(V: BasedModule, basis: DualBasis, n: int,
              bound: int = DEGREE_CAP):
    """Symmetric n-th power with the multiset basis (γ_ξ·δ_ξ, x(ξ)/γ_ξ)."""
    if n > bound:
        raise ExponentialError(f"degree {n} exceeds the bound {bound}")
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

    def index(self, label: str) -> MultisetIndex:
        for xi in self.multisets:
            if xi.label == label:
                return xi
        raise KeyError(label)


def bang(V: BasedModule, basis: DualBasis, d: int,
         bound: int = DEGREE_CAP) -> TruncatedBang:
    """Degree-≤-d fragment of the cofree exponential."""
    if d > bound:
        raise ExponentialError(f"degree {d} exceeds the bound {bound}")
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

    if isinstance(V.presentation, CoherenceP):
        # the multiset exponential: ξ ⌢ ξ′ iff the union support is a clique
        from .models import CoherenceSpace, coherence_module
        space_rel = set()
        sp = V.presentation.space
        for x1 in all_multisets:
            for x2 in all_multisets:
                if sp.is_clique(x1.support | x2.support):
                    space_rel.add((x1.label, x2.label))
        space = CoherenceSpace(f"!{sp.name}", tuple(w.atoms),
                               frozenset(space_rel))
        mod = coherence_module(space, w)
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


def promote(B: TruncatedBang, x: Vector) -> Vector:
    """!x truncated: coordinate at ξ is ∏_i φ_i(x)^{ξ(i)}."""
    B.base.require(x)
    s = B.base.semiring
    mul = s.ambient_mul
    coeffs = []
    for _, phi in B.basis.pairs:
        got = apply(phi, x)
        if got is UNDEF:
            raise IntegrityError(f"a basis functional is undefined at {x!r}")
        coeffs.append(scalar_of(got))
    pos = {a: i for i, a in enumerate(B.base.web.atoms)}
    coords = {}
    for xi in B.multisets:
        v = s.one
        for a, c in xi.counts:
            for _ in range(c):
                v = mul(v, coeffs[pos[a]])
        if v != 0:
            coords[xi.label] = v
    out = vec(B.web, coords)
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
        rng = random.Random(mutate_seed)
        key = rng.choice(sorted(delta, key=repr))
        del delta[key]
    return delta


def check_comonoid(B: TruncatedBang, samples: int = 20, seed: int = 0,
                   mutate_seed: Optional[int] = None) -> Verdict:
    """Exact matrix identities on the degree-≤ d components, one sub-verdict
    per law; the pointwise laws are checked on carrier samples.

    ``mutate_seed`` perturbs one comultiplication entry (negative control).
    """
    mul = B.base.semiring.ambient_mul
    delta = _delta_dict(B, mutate_seed)
    checks = []

    def record(law, diff, strategy="matrix", checked=len(delta)):
        checks.append(Verdict(law, diff is None, strategy, checked,
                              None if diff is None else str(diff)))

    # cocommutativity: swapping the two output factors fixes the matrix
    swapped = {(xi, (b, a)): v for (xi, (a, b)), v in delta.items()}
    record("cocommutativity",
           None if swapped == delta else
           next(iter(set(delta) ^ set(swapped))))

    # coassociativity through explicit reassociation
    left = {}
    for (xi, (rho, x3)), v in delta.items():
        for (rho2, (x1, x2)), w in delta.items():
            if rho2 != rho:
                continue
            key = (xi, (x1, x2, x3))
            left[key] = left.get(key, 0) + 1
    right = {}
    for (xi, (x1, rho)), v in delta.items():
        for (rho2, (x2, x3)), w in delta.items():
            if rho2 != rho:
                continue
            key = (xi, (x1, x2, x3))
            right[key] = right.get(key, 0) + 1
    record("coassociativity",
           None if left == right else
           next(iter(set(left) ^ set(right) or
                     {k for k in left if left[k] != right.get(k)})))

    # counit laws
    empty = MultisetIndex.make(B.base.web.atoms, ()).label
    lcounit = {(xi, x2): v for (xi, (x1, x2)), v in delta.items()
               if x1 == empty}
    rcounit = {(xi, x1): v for (xi, (x1, x2)), v in delta.items()
               if x2 == empty}
    ident = {(xi.label, xi.label): 1 for xi in B.multisets}
    record("left counit", None if lcounit == ident else
           next(iter(set(lcounit) ^ set(ident))))
    record("right counit", None if rcounit == ident else
           next(iter(set(rcounit) ^ set(ident))))

    # pointwise laws on carrier samples: dereliction∘promote = id and
    # comult∘promote = promote ⊠ promote on degree-≤ d components
    der = dereliction(B) if B.degree >= 1 else None
    xs = _sample_members(B.base, samples, seed)
    bad_dp = None
    bad_cp = None
    for x in xs:
        px = promote(B, x)
        if der is not None and bad_dp is None:
            got = apply(der, px)
            if got is UNDEF or got != x:
                bad_dp = f"x = {x!r}: dereliction(promote(x)) = {got!r}"
        if bad_cp is None:
            for (x1, x2) in itertools.product(B.multisets, repeat=2):
                if x1.degree + x2.degree > B.degree:
                    continue
                whole = x1.add(x2)
                lhs = px.value(whole.label) \
                    if (whole.label, (x1.label, x2.label)) in delta else 0
                rhs = mul(px.value(x1.label), px.value(x2.label))
                if lhs != rhs:
                    bad_cp = (f"x = {x!r}, split ({x1.label},{x2.label}): "
                              f"{lhs} vs {rhs}")
                    break
    record("dereliction∘promote = id", bad_dp, "sampled", len(xs))
    record("comult∘promote = promote⊠promote", bad_cp, "sampled", len(xs))
    return Verdict.all(f"comonoid laws of !{B.degree} {B.base.label}", checks)


def _sample_members(V: BasedModule, samples: int, seed: int):
    carrier = V.carrier_vectors(cap=256)
    if carrier is not None:
        return carrier
    rng = random.Random(seed)
    out = [zero_vector(V.web)]
    gens = V.presentation.polytope(V) or ()
    for g in gens:
        out.append(vec(V.web, dict(zip(V.web.atoms, g))))
    for _ in range(samples):
        if not gens:
            break
        weights = [Fraction(rng.randrange(0, 4), 3) for _ in gens]
        total = sum(weights)
        if total > 1:
            weights = [w / total for w in weights]
        coords = {}
        for g, lam in zip(gens, weights):
            for a, x in zip(V.web.atoms, g):
                coords[a] = coords.get(a, Fraction(0)) + lam * x
        out.append(vec(V.web, {a: x for a, x in coords.items() if x != 0}))
    uniq = []
    for v in out:
        if v not in uniq and V.admits(v):
            uniq.append(v)
    return uniq
