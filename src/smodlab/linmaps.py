"""Linear maps as web-indexed matrices between based modules.

Every matrix product in the library, vector-by-matrix included, is one
sparse product (`sparse_product`) in the coefficient semiring's ambient
arithmetic (`Semiring.ambient_mul` / `ambient_sum`): its own partial sum, or
exact Q>=0 for rational carriers, with definedness enforced by membership of
the results rather than per-entry carrier bounds.  A `Matrix` indexes its
cells once, so `entry` is a lookup.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from .scalars import (OMEGA, RPOS, SEMIRINGS, UNDEF, Semiring, format_scalar,
                      parse_scalar)
from .basedmod import (UNKNOWN, BasedModule, FreeP, IntegrityError, PolytopeP,
                       Vector, Verdict, Web, WebMismatch, enumerated_module,
                       free_module, pair_atom, scalar_action, vec, vec_sum)
from . import ratlp


@dataclass(frozen=True)
class Matrix:
    src_web: Web
    dst_web: Web
    entries: tuple  # (((src_atom, dst_atom), value), ...) canonical order

    @staticmethod
    def make(src_web: Web, dst_web: Web, entries) -> "Matrix":
        items = dict(entries)
        src_atoms, dst_atoms = set(src_web.atoms), set(dst_web.atoms)
        for a, b in items:
            if a not in src_atoms or b not in dst_atoms:
                raise WebMismatch(f"entry ({a},{b}) outside webs")
        canon = tuple(((a, b), items[(a, b)])
                      for a in src_web.atoms for b in dst_web.atoms
                      if (a, b) in items and items[(a, b)] != 0)
        return Matrix(src_web, dst_web, canon)

    @functools.cached_property
    def _cells(self) -> dict:
        """Each cell's value, indexed once; not part of ==, hash or repr."""
        return dict(self.entries)

    def entry(self, a, b):
        return self._cells.get((a, b), 0)

    def column(self, b):
        return [((a, v)) for (a, y), v in self.entries if y == b]

    def transpose(self) -> "Matrix":
        return Matrix.make(self.dst_web, self.src_web,
                           {(b, a): v for (a, b), v in self.entries})

    def __repr__(self):
        return f"Matrix({len(self.src_web)}x{len(self.dst_web)})"


def identity_matrix(w: Web) -> Matrix:
    return Matrix.make(w, w, {(a, a): 1 for a in w.atoms})


def format_matrix(mat: Matrix) -> str:
    """Rows are source atoms in web order; `;` separates rows."""
    rows = []
    for a in mat.src_web.atoms:
        rows.append(" ".join(format_scalar(mat.entry(a, b))
                             for b in mat.dst_web.atoms))
    return "; ".join(rows)


def parse_matrix(text: str, src_web: Web, dst_web: Web, s: Semiring) -> Matrix:
    """Cells are literals of the ambient carrier of `s`, each parsed once."""
    rows, values, entries = text.split(";"), {}, []
    if len(rows) != len(src_web.atoms):
        raise ValueError(f"expected {len(src_web)} rows, got {len(rows)}")
    for a, row in zip(src_web.atoms, rows):
        cells = row.split()
        if len(cells) != len(dst_web.atoms):
            raise ValueError(f"row for {a}: expected {len(dst_web)} entries")
        for b, cell in zip(dst_web.atoms, cells):
            if cell not in values:
                values[cell] = parse_scalar(cell, s.ambient)
            if values[cell] != 0:
                entries.append(((a, b), values[cell]))
    return Matrix(src_web, dst_web, tuple(entries))


@dataclass(frozen=True)
class LinMap:
    src: BasedModule
    dst: BasedModule
    matrix: Matrix
    verified: bool = False

    def __post_init__(self):
        if self.matrix.src_web != self.src.web or self.matrix.dst_web != self.dst.web:
            raise WebMismatch("matrix webs do not match the modules")

    def __repr__(self):
        tag = "✓" if self.verified else "?"
        return f"LinMap({self.src!r} -> {self.dst!r} {tag})"


def linmap(src, dst, entries, verified=False) -> LinMap:
    """Raises CarrierError on an entry outside the target's ambient carrier."""
    mat = Matrix.make(src.web, dst.web, entries)
    for _, v in mat.entries:
        dst.semiring.ambient.check_scalar(v)
    return LinMap(src, dst, mat, verified)


def identity(m: BasedModule) -> LinMap:
    return LinMap(m, m, identity_matrix(m.web), verified=True)


def zero_map(src: BasedModule, dst: BasedModule) -> LinMap:
    return LinMap(src, dst, Matrix.make(src.web, dst.web, {}), verified=True)


# ---------------------------------------------------------------------------
# application / composition


def sparse_product(s: Semiring, left, right):
    """The product of two sparse matrices given as ((i, j), v) and
    ((j, k), w) entries, in the ambient arithmetic of `s`.

    Each product is `s.ambient_mul(w, v)`, and each output cell is summed
    once by `s.ambient_sum` over its terms in the order of `left`.  Returns
    (cells, None) with the nonzero cells {(i, k): value}, or (None, cell)
    for the first cell whose sum is undefined.
    """
    rows = {}
    for (j, k), w in right:
        rows.setdefault(j, []).append((k, w))
    mul = s.ambient_mul
    terms = {}
    for (i, j), v in left:
        for k, w in rows.get(j, ()):
            terms.setdefault((i, k), []).append(mul(w, v))
    cells = {}
    for cell, ts in terms.items():
        got = s.ambient_sum(ts)
        if got is UNDEF:
            return None, cell
        if got != 0:
            cells[cell] = got
    return cells, None


def apply(f: LinMap, x: Vector):
    """Matrix application; a Vector of f.dst or UNDEF."""
    f.src.require(x)
    return _image(f, x)


def _image(f: LinMap, x: Vector):
    """`apply` for an x already known to be a member of f.src."""
    cells, undefined = sparse_product(
        f.src.semiring, (((0, a), xa) for a, xa in x.entries), f.matrix.entries)
    if undefined is not None:
        return UNDEF
    out = vec(f.dst.web, {b: v for (_, b), v in cells.items()})
    if not f.dst.admits(out):
        return UNDEF
    return out


def compose(f: LinMap, g: LinMap) -> LinMap:
    """Matrix product (g after f); an undefined entry is an integrity error.
    Verified when f and g are, across one middle object (not just one web)."""
    if f.dst.web != g.src.web:
        raise WebMismatch(f"middle webs differ: {f.dst.web} vs {g.src.web}")
    entries, undefined = sparse_product(f.src.semiring, f.matrix.entries,
                                        g.matrix.entries)
    if undefined is not None:
        raise IntegrityError(
            "composition entry ({},{}) has an undefined sum".format(*undefined))
    return LinMap(f.src, g.dst,
                  Matrix.make(f.src.web, g.dst.web, entries),
                  verified=f.verified and g.verified and f.dst == g.src)


# ---------------------------------------------------------------------------
# morphism checking


CARRIER_CAP = 4096


def _free_on_generators(m: BasedModule) -> bool:
    """m = R^web over a shipped finitely complete semiring: free on the δ_a."""
    s = m.semiring
    return (isinstance(m.presentation, FreeP) and s.is_finitely_complete
            and SEMIRINGS.get(s.name) is s)


def spanning_members(m: BasedModule):
    """Members that settle a linear map, or a basis, on all of m: the
    generators of a polytope (only rational modules have one), or the free
    generators δ_a of `_free_on_generators` modules.  None for any other."""
    gens = m.presentation.polytope(m)
    if gens is not None:
        return [vec(m.web, dict(zip(m.web.atoms, g))) for g in gens]
    if _free_on_generators(m):
        return [vec(m.web, {a: 1}) for a in m.web.atoms]
    return None


def is_morphism(f: LinMap) -> Verdict:
    """Presentation-directed linearity check.

    Between coherence modules (a free I-module is the complete coherence
    space), each pair of matrix entries is tested by the coherence rule of
    the function space; a `spanning_members` source checks their images
    when both sides are rational or the target is free over the same
    finitely complete semiring (rows δ_a·M); enumerable carriers are checked
    by bounded brute force (definedness, additivity on defined two-term
    families with ω-repetitions, action preservation when the semirings
    coincide).  Any other source leaves the verdict UNKNOWN (strategy "none").
    """
    src, dst = f.src, f.dst
    what = f"morphism {src.label} -> {dst.label}"
    from .models import coherence_of, lolli_coherent
    A, B = coherence_of(src), coherence_of(dst)
    if A is not None and B is not None:
        if any(v != 1 for _, v in f.matrix.entries):
            return Verdict(what, False, "coherence", 0, "non-0/1 entry")
        pairs = [p for p, _ in f.matrix.entries]
        for n, (p, q) in enumerate(itertools.combinations_with_replacement(pairs, 2), 1):
            if not lolli_coherent(A, B, p, q):
                return Verdict(what, False, "coherence", n,
                               f"pairs {p} and {q} violate the "
                               "function-space coherence")
        return Verdict(what, True, "coherence", len(pairs) * (len(pairs) + 1) // 2)

    settled = src.semiring.ambient is dst.semiring.ambient is RPOS or (
        _free_on_generators(dst) and dst.semiring is src.semiring)
    if settled and (gens := spanning_members(src)) is not None:
        # Rational modules use ambient arithmetic, so additivity and the
        # scalar action hold entry-wise; membership is convex, so checking
        # the generators suffices.  An Rpos source holds every t·g, which
        # a bounded (unit) target holds only when g's image is zero.
        bounded = src.semiring is RPOS and dst.semiring is not RPOS
        for n, g in enumerate(gens, 1):
            img = _image(f, g)
            if img is UNDEF or (bounded and not img.is_zero()):
                return Verdict(what, False, "polytope-generators", n,
                               f"image of generator {g!r} leaves the target")
        return Verdict(what, True, "polytope-generators", len(gens))

    carrier = src.carrier_vectors(cap=CARRIER_CAP)
    if carrier is None:
        return Verdict(what, UNKNOWN, "none", 0,
                       f"cut short by its bound: the source carrier is not "
                       f"enumerable within {CARRIER_CAP} vectors")
    images = {}
    for x in carrier:
        y = apply(f, x)
        if y is UNDEF:
            return Verdict(what, False, "enumerated", len(images) + 1,
                           f"application undefined at {x!r}")
        images[x] = y
    checked = len(carrier)
    if src.semiring is dst.semiring and src.semiring.is_enumerable:
        for r in src.semiring.carrier_elements():
            for x in carrier:
                checked += 1
                lhs = images[scalar_action(src, r, x)]
                rhs = scalar_action(dst, r, images[x])
                if lhs != rhs:
                    return Verdict(what, False, "enumerated", checked,
                                   f"action not preserved at {r}, {x!r}")
    mults = [1, OMEGA]
    pairs = [(x, m) for x in carrier if not x.is_zero() for m in mults]
    for fam in itertools.combinations_with_replacement(pairs, 2):
        checked += 1
        total = vec_sum(src, fam)
        if total is UNDEF:
            continue
        img_fam = [(images[x], m) for x, m in fam]
        img_total = vec_sum(dst, img_fam)
        if img_total is UNDEF or img_total != images[total]:
            return Verdict(what, False, "enumerated", checked,
                           f"sum not preserved on {fam}")
    return Verdict(what, True, "enumerated", checked)


def verify(f: LinMap) -> LinMap:
    rep = is_morphism(f)
    if rep.ok is not True:
        raise IntegrityError(f"not proved a morphism: {rep}")
    return LinMap(f.src, f.dst, f.matrix, verified=True)


# ---------------------------------------------------------------------------
# dual bases


@dataclass(frozen=True)
class DualBasis:
    """Pairs (e_i, phi_i) with x = Σ phi_i(x)·e_i; orthogonal when
    additionally phi_i(e_j) = delta_{i,j}."""

    pairs: tuple  # ((Vector, LinMap), ...)
    orthogonal: bool = True

    def __len__(self):
        return len(self.pairs)


def semiring_module(s: Semiring, name: str = "") -> BasedModule:
    """The coefficient semiring as a one-atom based module."""
    return free_module(s, Web(("*",)), name or s.name)


def scalar_of(v: Vector):
    """The '*' coordinate of a one-atom vector."""
    return v.value("*")


def unit_basis(s: Semiring) -> DualBasis:
    m = semiring_module(s)
    e = vec(m.web, {"*": s.one})
    phi = identity(m)
    return DualBasis(((e, phi),))


def functional(m: BasedModule, coeffs, s: Optional[Semiring] = None) -> LinMap:
    """A linear functional m -> R given by one matrix column."""
    s = s or m.semiring
    r_mod = semiring_module(s)
    entries = {(a, "*"): c for a, c in coeffs.items() if c != 0}
    return LinMap(m, r_mod, Matrix.make(m.web, r_mod.web, entries))


def gamma_basis(m: BasedModule, gammas: Optional[dict] = None) -> DualBasis:
    """Orthogonal basis (γ_a·δ_a, x(a)/γ_a) over the atoms of `gammas`, in
    its order; γ_a = 1 at every atom of the web when omitted."""
    if gammas is None:
        gammas = dict.fromkeys(m.web.atoms, m.semiring.one)
    inv = m.semiring.ambient_inv
    return DualBasis(tuple((vec(m.web, {a: g}), functional(m, {a: inv(g)}))
                           for a, g in gammas.items()))


def validate_basis(m: BasedModule, b: DualBasis) -> Verdict:
    """Check reconstruction, linearity of each functional, and orthogonality.

    Reconstruction is linear, so it is proved on the generators or rays and
    one multiple of each axis, which span the carrier; a functional peaks at
    a generator, so definedness there covers the carrier.  Otherwise the
    carrier is enumerated within `CARRIER_CAP` vectors, or the verdict is
    UNKNOWN.  The one sub-verdict is the delta condition phi_i(e_j) =
    delta_{i,j}, which fails the basis only when it claims to be orthogonal.
    A functional whose linearity is UNKNOWN leaves the verdict UNKNOWN
    unless another check fails.
    """
    what = f"basis of {m.label}"
    undecided = None
    for e, phi in b.pairs:
        if not m.admits(e):
            return Verdict(what, False, counterexample=f"basis vector {e!r} not admitted")
        rep = is_morphism(phi)
        if rep.ok is False:
            return Verdict(what, False, counterexample=f"functional for {e!r} "
                           f"is not linear: {rep.counterexample}")
        if rep.ok is UNKNOWN:
            undecided = f"linearity of the functional for {e!r}: {rep.counterexample}"
    carrier = spanning_members(m)
    if carrier is not None:
        strategy = "polytope-generators"
        axes = (vec(m.web, {a: max(g.value(a) for g in carrier)})
                for a in m.web.atoms)
        carrier = list(dict.fromkeys(carrier + [x for x in axes if not x.is_zero()]))
    else:
        strategy = "enumerated"
        carrier = m.carrier_vectors(cap=CARRIER_CAP)
        if carrier is None:
            return Verdict(what, UNKNOWN, "none", 0,
                           f"cut short by its bound: the carrier is not "
                           f"enumerable within {CARRIER_CAP} vectors")
    for n, x in enumerate(carrier, 1):
        fam = []
        for e, phi in b.pairs:
            fx = _image(phi, x)
            if fx is UNDEF:
                return Verdict(what, False, strategy, n, f"phi undefined at {x!r}")
            r = scalar_of(fx)
            if r == 0:
                continue
            fam.append((scalar_action(m, r, e), 1))
        got = vec_sum(m, fam)
        if got is UNDEF or got != x:
            return Verdict(what, False, strategy, n,
                           f"reconstruction failed at {x!r}: got {got!r}")
    ortho = True
    for i, (ei, _) in enumerate(b.pairs):
        for j, (_, phij) in enumerate(b.pairs):
            img = _image(phij, ei)
            if img is UNDEF:
                ortho = False
                continue
            r = scalar_of(img)
            if r != (m.semiring.one if i == j else m.semiring.zero):
                ortho = False
    delta = (Verdict("orthogonality", ortho, "delta", len(b.pairs) ** 2),)
    if b.orthogonal and not ortho:
        return Verdict(what, False, strategy, len(carrier),
                       "claimed orthogonal but delta condition fails", delta)
    return Verdict(what, UNKNOWN if undecided else True, strategy, len(carrier),
                   undecided, delta)


# ---------------------------------------------------------------------------
# tensor / lolli objects


def pair_web(w1: Web, w2: Web) -> Web:
    return Web(tuple(pair_atom(a, b) for a in w1.atoms for b in w2.atoms))


def _outer(xs, ys, mul) -> dict:
    """Coordinates x_a·y_b at the pair atoms (a,b), from two sequences of
    (atom, value) items: vector entries or a functional's column."""
    coords = {}
    for a, xa in xs:
        for b, yb in ys:
            v = mul(xa, yb)
            if v != 0:
                coords[pair_atom(a, b)] = v
    return coords


def tensor_obj(m: BasedModule, n: BasedModule, bm: DualBasis, bn: DualBasis,
               name: str = ""):
    """Tensor product object with the product basis (e_i⊗e'_j, phi_i·phi'_j)."""
    if m.semiring is not n.semiring:
        raise ValueError("tensor requires a shared semiring")
    s = m.semiring
    w = pair_web(m.web, n.web)
    mp, np_ = m.presentation, n.presentation
    from .models import coherence_module, coherence_of, coherence_tensor
    if (A := coherence_of(m)) is not None and (B := coherence_of(n)) is not None:
        mod = coherence_module(coherence_tensor(A, B, name or "⊗"))
    elif ((gm := mp.polytope(m)) is not None
          and (gn := np_.polytope(n)) is not None):
        gens = []
        for g in gm:
            for h in gn:
                gens.append(tuple(s.ambient_mul(gi, hj) for gi in g for hj in h))
        mod = BasedModule(s, w, PolytopeP(generators=tuple(ratlp.prune_dominated(gens))),
                          name or "⊗")
    elif isinstance(mp, FreeP) and isinstance(np_, FreeP):
        mod = BasedModule(s, w, FreeP(), name or "⊗")
    else:
        raise NotImplementedError(f"tensor of {mp!r} and {np_!r}")

    mul = s.ambient_mul
    pairs = []
    for (e1, p1) in bm.pairs:
        for (e2, p2) in bn.pairs:
            e = vec(w, _outer(e1.entries, e2.entries, mul))
            coeffs = _outer(p1.matrix.column("*"), p2.matrix.column("*"), mul)
            pairs.append((e, functional(mod, coeffs, s)))
    return mod, DualBasis(tuple(pairs), orthogonal=bm.orthogonal and bn.orthogonal)


def matrix_as_vector(w: Web, mat: Matrix) -> Vector:
    coords = {pair_atom(a, b): v for (a, b), v in mat.entries}
    return vec(w, coords)


def lolli_obj(m: BasedModule, n: BasedModule, bm: DualBasis, bn: DualBasis,
              name: str = ""):
    """Linear-function-space object: morphisms m -> n encoded as matrices
    (the free module on the pair web between `_free_on_generators` ones)."""
    if m.semiring is not n.semiring:
        raise ValueError("lolli requires a shared semiring")
    s = m.semiring
    w = pair_web(m.web, n.web)
    mp, np_ = m.presentation, n.presentation
    from .models import coherence_lolli, coherence_module, coherence_of
    if (A := coherence_of(m)) is not None and (B := coherence_of(n)) is not None:
        mod = coherence_module(coherence_lolli(A, B, name or "⊸"))
    elif ((gm := mp.polytope(m)) is not None
          and (gn := np_.polytope(n)) is not None):
        cons = []
        # constraints, when held, are generators of the target's polar
        dual_n = np_.constraints if isinstance(np_, PolytopeP) else None
        if dual_n is None:
            dual_n = ratlp.pruned_polar(gn, len(n.web))
        for g in gm:
            for u in dual_n:
                cons.append(tuple(s.ambient_mul(ga, ub) for ga in g for ub in u))
        mod = BasedModule(s, w, PolytopeP(constraints=tuple(sorted(set(cons)))),
                          name or "⊸")
    elif _free_on_generators(m) and _free_on_generators(n):
        mod = BasedModule(s, w, FreeP(), name or "⊸")
    else:
        carrier = m.carrier_vectors(cap=512)
        dvalues = n.presentation.coordinate_values(s)
        if carrier is None or dvalues is None:
            raise NotImplementedError(f"lolli of {mp!r} and {np_!r}")
        entry_values = tuple(set(dvalues) | {s.zero, s.one})
        cells = [(a, b) for a in m.web.atoms for b in n.web.atoms]
        if len(entry_values) ** len(cells) > 40000:
            raise NotImplementedError("lolli carrier too large to enumerate")
        vectors = []
        for combo in itertools.product(entry_values, repeat=len(cells)):
            mat = Matrix.make(m.web, n.web,
                              {cell: v for cell, v in zip(cells, combo) if v != 0})
            rep = is_morphism(LinMap(m, n, mat))
            if rep.ok is UNKNOWN:
                raise NotImplementedError(f"lolli carrier: {rep}")
            if rep.ok is True:
                vectors.append(matrix_as_vector(w, mat))
        mod = enumerated_module(s, w, vectors, name=name or "⊸")

    mul = s.ambient_mul
    pairs = []
    for (e1, p1) in bm.pairs:
        for (e2, p2) in bn.pairs:
            # basis map e'_j · phi_i as a matrix, encoded as a vector
            e = vec(w, _outer(p1.matrix.column("*"), e2.entries, mul))
            # functional f -> psi'_j(f(e_i))
            coeffs = _outer(e1.entries, p2.matrix.column("*"), mul)
            pairs.append((e, functional(mod, coeffs, s)))
    return mod, DualBasis(tuple(pairs), orthogonal=bm.orthogonal and bn.orthogonal)


def matrix_of(f: LinMap, bsrc: DualBasis, bdst: DualBasis) -> Matrix:
    """Matrix of f in the given bases: entry (i,j) = psi_j(f(e_i))."""
    rows = len(bsrc.pairs)
    cols = len(bdst.pairs)
    src_w = Web(tuple(f"i{i}" for i in range(rows)))
    dst_w = Web(tuple(f"j{j}" for j in range(cols)))
    entries = {}
    for i, (e, _) in enumerate(bsrc.pairs):
        img = apply(f, e)
        if img is UNDEF:
            raise IntegrityError(f"f undefined on basis vector {e!r}")
        for j, (_, psi) in enumerate(bdst.pairs):
            got = apply(psi, img)
            if got is UNDEF:
                raise IntegrityError(f"psi_{j} undefined on f(e_{i})")
            r = scalar_of(got)
            if r != 0:
                entries[(f"i{i}", f"j{j}")] = r
    return Matrix.make(src_w, dst_w, entries)


# ---------------------------------------------------------------------------
# duals and double negation


@dataclass
class DualityReport:
    dual: BasedModule
    ddual: BasedModule
    eta: LinMap
    eta_iso: bool
    mu_eta_identity: bool
    detail: str = ""


def _same_hull(m: BasedModule, n: BasedModule) -> bool:
    """Whether two polytope modules on webs of one length have the same
    down-closed hull: each holds the other's generators, coordinate by
    coordinate in web order."""
    pm, pn = m.presentation, n.presentation
    return (all(pn.contains(g) for g in pm.polytope(m))
            and all(pm.contains(g) for g in pn.polytope(n)))


def dual_and_eta(m: BasedModule, b: DualBasis) -> DualityReport:
    """Dual, double dual and the evaluation map eta(x)(f) = f(x).

    For polytope modules the dual is computed by exact vertex enumeration;
    for enumerable discrete modules by brute-force morphism enumeration.
    eta is the coordinate-relabeling matrix; it is an isomorphism exactly
    when the double dual carrier equals the original carrier.
    """
    s = m.semiring
    r_mod = semiring_module(s)
    ub = unit_basis(s)
    dual, dual_b = lolli_obj(m, r_mod, b, ub, name="dual")
    ddual, _ = lolli_obj(dual, r_mod, dual_b, ub, name="ddual")

    # eta: coordinate a of m goes to coordinate ((a,*),*) of ddual
    entries = {}
    for a in m.web.atoms:
        entries[(a, pair_atom(pair_atom(a, "*"), "*"))] = s.one
    eta = LinMap(m, ddual, Matrix.make(m.web, ddual.web, entries))
    inv = LinMap(ddual, m, eta.matrix.transpose())
    eta_rep, inv_rep = is_morphism(eta), is_morphism(inv)
    if UNKNOWN in (eta_rep.ok, inv_rep.ok):
        raise NotImplementedError(f"eta: {eta_rep}; its inverse: {inv_rep}")

    iso = False
    mu_eta = False
    detail = ""
    if eta_rep.ok is True and inv_rep.ok is True:
        fwd = compose(eta, inv)
        bwd = compose(inv, eta)
        iso = (fwd.matrix == identity_matrix(m.web)
               and bwd.matrix == identity_matrix(ddual.web))
        carrier_m = m.carrier_vectors(cap=4096)
        carrier_dd = ddual.carrier_vectors(cap=4096)
        if carrier_m is not None and carrier_dd is not None:
            relabeled = {apply(eta, x) for x in carrier_m}
            iso = iso and relabeled == set(carrier_dd)
        elif isinstance(m.presentation, PolytopeP):
            iso = iso and _same_hull(m, ddual)
        mu_eta = iso and fwd.matrix == identity_matrix(m.web)
    else:
        detail = "eta or its inverse fails the morphism check"
    return DualityReport(dual, ddual, eta, iso, mu_eta, detail)
