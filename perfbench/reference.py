"""Independent known answers for the benchmark's checks.

Nothing here imports smodlab: every verdict is recomputed from the
definitions, with algorithms other than the program's where one exists.

* Bipolar membership uses Fourier–Motzkin elimination of the hull
  multipliers (the program runs a simplex).
* Probabilistic coherence morphisms are decided by the images of the source
  generators (convexity makes them sufficient).
* Coherence morphisms use the clique-image test of acceptance criterion 2:
  a 0/1 relation is linear iff every source clique has an injectively
  covered image that is again a clique.
* Free modules: over I a matrix is linear iff no target column holds more
  than one 1; over B, F and N every matrix is linear.
* The truncated coherence exponential, dereliction, promotion and the tight
  closure over ℕ∞ are written out from their definitions.

`polar_vertex_count` decides no verdict: it sizes the inputs of pcoh_duals.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

INF = "inf"


# ---------------------------------------------------------------------------
# probabilistic coherence spaces


def in_bipolar(gens, u) -> bool:
    """u ∈ {x ≥ 0 | x ≤ Σ λ_i g_i for some λ ≥ 0 with Σ λ_i ≤ 1}."""
    u = [Fraction(x) for x in u]
    if all(x == 0 for x in u):
        return True
    k = len(gens)
    # rows (coeffs over λ, rhs) meaning coeffs·λ <= rhs
    rows = set()
    for i in range(k):
        rows.add((tuple(-1 if j == i else 0 for j in range(k)), 0))
    rows.add((tuple([1] * k), 1))
    for d, ud in enumerate(u):
        rows.add((tuple(-Fraction(g[d]) for g in gens), -ud))
    for j in range(k):
        pos, neg, keep = [], [], set()
        for coeffs, rhs in rows:
            c = coeffs[j]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                keep.add((coeffs, rhs))
        for pc, pr in pos:
            for nc, nr in neg:
                a, b = pc[j], -nc[j]
                coeffs = tuple((x * b + y * a) / (a * b) for x, y in zip(pc, nc))
                keep.add((coeffs, (pr * b + nr * a) / (a * b)))
        rows = keep
    return all(rhs >= 0 for _, rhs in rows)


def image(rows, g):
    """Row vector g times the matrix `rows` (rows by source coordinate)."""
    m = len(rows[0]) if rows else 0
    return tuple(sum((Fraction(g[i]) * Fraction(rows[i][j])
                      for i in range(len(rows))), Fraction(0))
                 for j in range(m))


def in_polar(gens, d) -> bool:
    """d ≥ 0 and <g, d> ≤ 1 for every generator g."""
    return (all(x >= 0 for x in d)
            and all(sum(Fraction(a) * Fraction(b) for a, b in zip(g, d)) <= 1
                    for g in gens))


# ---------------------------------------------------------------------------
# coherence spaces


def is_clique(coh, support) -> bool:
    """`coh` holds the strict coherent pairs as frozensets."""
    return all(frozenset(p) in coh for p in itertools.combinations(support, 2))


def cliques(atoms, coh):
    return [frozenset(s) for r in range(len(atoms) + 1)
            for s in itertools.combinations(atoms, r) if is_clique(coh, s)]


def coherence_morphism(src_atoms, src_coh, dst_atoms, dst_coh, entries) -> bool:
    """entries: {(a, b): value}; a 0/1 relation linear by clique images."""
    if any(v not in (0, 1) for v in entries.values()):
        return False
    targets = {}
    for (a, b), v in entries.items():
        if v == 1:
            targets.setdefault(a, []).append(b)
    dst_cliques = set(cliques(dst_atoms, dst_coh))
    for x in cliques(src_atoms, src_coh):
        img = [b for a in x for b in targets.get(a, ())]
        if len(img) != len(set(img)) or frozenset(img) not in dst_cliques:
            return False
    return True


def free_morphism(semiring: str, entries) -> bool:
    if semiring != "I":
        return True
    hits = {}
    for (_, b), v in entries.items():
        if v == 1:
            hits[b] = hits.get(b, 0) + 1
    return all(v in (0, 1) for v in entries.values()) and \
        all(n <= 1 for n in hits.values())


# ---------------------------------------------------------------------------
# the truncated coherence exponential


def multiset_label(ms) -> str:
    return "[" + ",".join(ms) + "]"


def bang_multisets(atoms, coh, degree):
    """Multisets of degree <= d, in web order, whose support is a clique."""
    return [ms for n in range(degree + 1)
            for ms in itertools.combinations_with_replacement(atoms, n)
            if is_clique(coh, sorted(set(ms), key=atoms.index))]


def bang_labels(atoms, coh, degree):
    return [multiset_label(ms) for ms in bang_multisets(atoms, coh, degree)]


def comult_entries(atoms, coh, degree):
    """δ(e_ξ) = Σ_{ξ1+ξ2=ξ} e_ξ1 ⊠ e_ξ2, each split with coefficient 1."""
    web = bang_multisets(atoms, coh, degree)
    known = set(web)
    out = {}
    for x1 in web:
        for x2 in web:
            whole = tuple(sorted(x1 + x2, key=atoms.index))
            if whole in known:
                pair = f"({multiset_label(x1)},{multiset_label(x2)})"
                out[(multiset_label(whole), pair)] = 1
    return out


def dereliction_entries(atoms, degree):
    return {(multiset_label((a,)), a): 1 for a in atoms} if degree >= 1 else {}


def promotion_entries(atoms, degree, support):
    """!x for a 0/1 clique vector x: 1 at every multiset inside its support."""
    out = {}
    for n in range(degree + 1):
        for ms in itertools.combinations_with_replacement(atoms, n):
            if set(ms) <= set(support):
                out[("*", multiset_label(ms))] = 1
    return out


# ---------------------------------------------------------------------------
# matrices over the discrete semirings


def semiring_sum(semiring: str, terms):
    total = sum(terms)
    return min(total, 1) if semiring in ("B", "F") else total


def compose(semiring: str, f, g, mid):
    """g after f; f: {(a,b)}, g: {(b,c)} with middle atoms `mid`."""
    out = {}
    srcs = {a for a, _ in f}
    dsts = {c for _, c in g}
    for a in srcs:
        for c in dsts:
            v = semiring_sum(semiring, [f.get((a, b), 0) * g.get((b, c), 0)
                                        for b in mid])
            if v:
                out[(a, c)] = v
    return out


def pair_atom(a, b) -> str:
    return f"({a},{b})"


def tensor(f, g):
    return {(pair_atom(a, b), pair_atom(c, d)): v * w
            for (a, c), v in f.items() for (b, d), w in g.items() if v * w}


# ---------------------------------------------------------------------------
# double gluing over ℕ∞


def _mul(a, b):
    if a == 0 or b == 0:
        return 0
    if a == INF or b == INF:
        return INF
    return a * b


def _pairing(u, x):
    total = 0
    for a, b in zip(u, x):
        p = _mul(a, b)
        if p == INF:
            return INF
        total += p
    return total


def _orthogonal(u, x) -> bool:
    p = _pairing(u, x)
    return p != INF and p <= 1


def _polar(vectors, carrier):
    return frozenset(x for x in carrier
                     if all(_orthogonal(u, x) for u in vectors))


def tight_closure(dim: int, seeds, bound: int = 2):
    """(U°°, U°) inside the {0..bound, ∞}^dim carrier."""
    carrier = list(itertools.product(tuple(range(bound + 1)) + (INF,), repeat=dim))
    x = _polar(seeds, carrier)
    return _polar(x, carrier), x


def _solve(rows, rhs):
    """Gauss–Jordan over the rationals; None when singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(row[-1] for row in aug)


def polar_vertex_count(gens, dim: int) -> int:
    """Vertices of {u ≥ 0 | <g, u> ≤ 1}: the size of the work a dual takes."""
    cons = [(tuple(-1 if j == d else 0 for j in range(dim)), 0) for d in range(dim)]
    cons += [(tuple(g), 1) for g in gens]
    verts = set()
    for combo in itertools.combinations(cons, dim):
        sol = _solve([c for c, _ in combo], [r for _, r in combo])
        if sol is not None and all(
                sum(Fraction(a) * x for a, x in zip(c, sol)) <= r for c, r in cons):
            verts.add(sol)
    return len(verts)
