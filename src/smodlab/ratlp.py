"""Exact rational linear programming, sized for tiny webs.

No floating point: the simplex works over `fractions.Fraction`, and the
vertex layer in integers.  The entry points are

* `max_scale(gens, w)` -- the largest t with t·w in the downward convex hull
  of `gens` (hull scaled by a total weight <= 1).  For non-negative input
  it is solved on the support of w alone, with dominated generators
  dropped: on at most 2 coordinates from the polar's vertices, wider by a
  dense exact simplex with one row per support coordinate; signed input
  goes to the simplex on the whole web;
* `polar_vertices(gens, dim)` -- vertex enumeration of
  {u >= 0 | <g, u> <= 1 for all g in gens} by basis inspection: each basis
  fixes some coordinates to 0, and the square system of generator rows on
  the remaining ones is solved by fraction-free (Bareiss) elimination on
  the generators scaled to integer rows;
* `pruned_polar(gens, dim)` -- those vertices with the dominated ones
  dropped: irredundant generators of the polar polytope.  The polar of
  non-negative generators is anti-blocking, so a vertex is dropped when
  some coordinate is free in every row tight at it; no LP is solved;
* `prune_dominated(gens)` -- the same pruning for any generator list, one
  `max_scale` per generator.

All are deliberately simple: vertices are enumerated only within
`VERTEX_BOUND` atoms, where membership pairs with the polar's vertices.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

Vec = Sequence[Fraction]

VERTEX_BOUND = 4


def _simplex_max(c, A, b):
    """Maximize c·x subject to A x <= b, x >= 0 (all rational, b >= 0).

    Standard dense tableau simplex with Bland's rule.  Returns the optimum
    value, or None if unbounded.  Assumes b >= 0 so the origin is feasible.
    """
    m, n = len(A), len(c)
    # tableau rows: [A | I | b]; objective row: [-c | 0 | 0]
    tab = [[Fraction(A[i][j]) for j in range(n)]
           + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
           + [Fraction(b[i])] for i in range(m)]
    obj = [-Fraction(cj) for cj in c] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]

    while True:
        # Bland: smallest index with negative reduced cost
        pivot_col = next((j for j in range(n + m) if obj[j] < 0), None)
        if pivot_col is None:
            return obj[-1]
        ratios = [
            (tab[i][-1] / tab[i][pivot_col], basis[i], i)
            for i in range(m) if tab[i][pivot_col] > 0
        ]
        if not ratios:
            return None  # unbounded
        _, _, pivot_row = min(ratios)
        pv = tab[pivot_row][pivot_col]
        tab[pivot_row] = [x / pv for x in tab[pivot_row]]
        for i in range(m):
            if i != pivot_row and tab[i][pivot_col] != 0:
                f = tab[i][pivot_col]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[pivot_row])]
        if obj[pivot_col] != 0:
            f = obj[pivot_col]
            obj = [x - f * y for x, y in zip(obj, tab[pivot_row])]
        basis[pivot_row] = pivot_col


def _undominated(gens: Sequence[tuple]) -> list:
    """The distinct vectors of `gens` that no other one bounds coordinatewise.

    Sorted in decreasing lexicographic order, a vector comes after every
    vector that dominates it, so comparing with those already kept suffices.
    Dropping them leaves the downward convex hull unchanged.
    """
    kept = []
    for g in sorted(set(gens), reverse=True):
        if not any(all(a >= b for a, b in zip(h, g)) for h in kept):
            kept.append(g)
    return kept


def max_scale(gens: Sequence[Vec], w: Vec) -> Optional[Fraction]:
    """sup { t >= 0 | t·w <= Σ λ_i g_i for some λ >= 0 with Σ λ_i <= 1 }.

    Returns None when the supremum is infinite (w = 0, or w supported only
    where it costs nothing).  This is exactly membership scaling in the
    bipolar of `gens`: w is a member iff max_scale >= 1.

    When `gens` and w are non-negative, only the support S of w matters:
    outside S a row reads 0 <= Σ λ_i g_i, which always holds.  So the
    problem is solved on the shadows g_S, with duplicate and dominated
    shadows dropped.  A coordinate of S that every shadow leaves at 0 gives
    t = 0.  For |S| <= 2 the answer is 1 / max <f, w_S> over the vertices f
    of the shadows' polar, since the down-hull is its own bipolar; wider
    shadows, and any signed input, go to the simplex.
    """
    if all(x == 0 for x in w):
        return None
    if not gens:
        return Fraction(0)
    if all(x >= 0 for x in w) and all(x >= 0 for g in gens for x in g):
        support = [d for d, x in enumerate(w) if x]
        gens = _undominated(tuple(Fraction(g[d]) for d in support) for g in gens)
        w = [w[d] for d in support]
        if any(all(g[i] == 0 for g in gens) for i in range(len(w))):
            return Fraction(0)
        if len(w) <= 2:
            return 1 / max(sum(f * x for f, x in zip(v, w))
                           for v in polar_vertices(gens, len(w)))
    k = len(gens)
    # variables: lambda_1..k, t ; maximize t
    # constraints: sum lambda <= 1 ; t*w_d - sum_i lambda_i g_i[d] <= 0
    c = [Fraction(0)] * k + [Fraction(1)]
    A = [[Fraction(1)] * k + [Fraction(0)]]
    b = [Fraction(1)]
    for d in range(len(w)):
        A.append([-Fraction(g[d]) for g in gens] + [Fraction(w[d])])
        b.append(Fraction(0))
    return _simplex_max(c, A, b)


def in_bipolar(gens: Sequence[Vec], u: Vec) -> bool:
    """Exact membership of u in the bipolar (downward convex hull) of gens."""
    if all(x == 0 for x in u):
        return True
    t = max_scale(gens, u)
    return t is None or t >= 1


def _integer_rows(gens: Sequence[Vec]) -> list:
    """Each generator g as (L·g, L): an integer row and its bound, with L the
    lcm of g's denominators, so that <g, u> <= 1 reads (L·g)·u <= L."""
    rows = []
    for g in gens:
        g = [Fraction(x) for x in g]
        lcm = math.lcm(*(x.denominator for x in g))
        rows.append((tuple(x.numerator * (lcm // x.denominator) for x in g), lcm))
    return rows


def _bareiss(aug) -> Optional[tuple]:
    """Solve an integer square system, given as augmented rows [A | b].

    Fraction-free Gauss-Jordan elimination (Bareiss 1968): every division
    is exact, and at the end each diagonal entry is ±det A and the last
    column is ±det A times the solution.  Returns (y, det) with det > 0 and
    solution y/det, or None when A is singular.  `aug` is consumed.
    """
    k = len(aug)
    prev = 1
    for c in range(k):
        p = next((r for r in range(c, k) if aug[r][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        top = aug[c]
        pv = top[c]
        for r in range(k):
            if r != c:
                row, f = aug[r], aug[r][c]
                aug[r] = [(pv * x - f * t) // prev for x, t in zip(row, top)]
        prev = pv
    y = [row[k] for row in aug]
    return (y, prev) if prev > 0 else ([-v for v in y], -prev)


def polar_vertices(gens: Sequence[Vec], dim: int) -> list:
    """Vertices of {u >= 0 | <g, u> <= 1 for every g in gens}, sorted.

    A basis sets some coordinates to 0 (non-negativity facets) and makes
    as many generator rows tight as there are free coordinates; only that
    square system on the free coordinates is solved, in integers.  A
    solution y/det is a vertex when y >= 0 and every row keeps
    (L·g)·y <= L·det; only those become `Fraction`s.  The origin is always
    a vertex.  Intended for dim <= 4.  Raises ValueError when the
    polyhedron is unbounded (a zero column in the generator matrix, i.e. a
    dead atom).
    """
    for d in range(dim):
        if all(g[d] == 0 for g in gens):
            raise ValueError(f"polar is unbounded in coordinate {d}")
    rows = _integer_rows(gens)
    zero = Fraction(0)
    verts = {(zero,) * dim}
    for k in range(1, min(dim, len(rows)) + 1):
        for free in itertools.combinations(range(dim), k):
            cut = [([r[i] for i in free], bound) for r, bound in rows]
            for basis in itertools.combinations(cut, k):
                sol = _bareiss([r + [bound] for r, bound in basis])
                if sol is None:
                    continue
                y, det = sol
                if any(v < 0 for v in y) or any(
                        sum(a * v for a, v in zip(r, y)) > bound * det
                        for r, bound in cut):
                    continue
                x = [zero] * dim
                for i, v in zip(free, y):
                    x[i] = Fraction(v, det)
                verts.add(tuple(x))
    return sorted(verts)


def prune_dominated(gens: Sequence[tuple]) -> list:
    """Drop generators inside the bipolar of the remaining ones; sort canonically."""
    gens = sorted(set(tuple(map(Fraction, g)) for g in gens))
    kept = list(gens)
    for g in list(kept):
        rest = [h for h in kept if h != g]
        if rest and in_bipolar(rest, g):
            kept = rest
    return sorted(kept)


def pruned_polar(gens: Sequence[Vec], dim: int) -> list:
    """Irredundant generators of the polar of non-negative `gens`: the
    vertices of `polar_vertices` that are maximal in the polar.

    The polar is anti-blocking (Fulkerson 1971), so a vertex v is
    dominated exactly when some coordinate i can grow, that is when every
    generator tight at v (<g, v> = 1) has g_i = 0.  That is decided by
    integer dot products, and gives the list `prune_dominated`'s LPs would.
    A negative generator entry raises ValueError: the rule needs them all
    non-negative.
    """
    rows = _integer_rows(gens)
    if any(a < 0 for r, _ in rows for a in r):
        raise ValueError("pruned_polar needs non-negative generators")
    verts = polar_vertices(gens, dim)
    kept = []
    for v in verts:
        den = math.lcm(*(x.denominator for x in v))
        y = [x.numerator * (den // x.denominator) for x in v]
        grows = set(range(dim))
        for r, bound in rows:
            if sum(a * b for a, b in zip(r, y)) == bound * den:
                grows.difference_update(i for i, a in enumerate(r) if a)
        if not grows:
            kept.append(v)
    return kept
