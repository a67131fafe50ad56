"""Exact rational linear programming, sized for tiny webs.

Everything here works over `fractions.Fraction`; no floating point.  The
entry points are

* `max_scale(gens, w)` -- the largest t with t·w in the downward convex hull
  of `gens` (hull scaled by a total weight <= 1), via a dense exact simplex;
* `polar_vertices(gens, dim)` -- vertex enumeration of
  {u >= 0 | <g, u> <= 1 for all g in gens} by brute-force basis inspection;
* `pruned_polar(gens, dim)` -- those vertices with the dominated ones
  dropped: irredundant generators of the polar polytope.

All are deliberately simple: vertices are enumerated only within
`VERTEX_BOUND` atoms, where membership pairs with the polar's vertices.
"""

from __future__ import annotations

import itertools
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


def max_scale(gens: Sequence[Vec], w: Vec) -> Optional[Fraction]:
    """sup { t >= 0 | t·w <= Σ λ_i g_i for some λ >= 0 with Σ λ_i <= 1 }.

    Returns None when the supremum is infinite (w = 0, or w supported only
    where it costs nothing).  This is exactly membership scaling in the
    bipolar of `gens`: w is a member iff max_scale >= 1.
    """
    dim = len(w)
    if all(x == 0 for x in w):
        return None
    k = len(gens)
    if k == 0:
        return Fraction(0)
    # variables: lambda_1..k, t ; maximize t
    # constraints: sum lambda <= 1 ; t*w_d - sum_i lambda_i g_i[d] <= 0
    c = [Fraction(0)] * k + [Fraction(1)]
    A = [[Fraction(1)] * k + [Fraction(0)]]
    b = [Fraction(1)]
    for d in range(dim):
        row = [-Fraction(g[d]) for g in gens] + [Fraction(w[d])]
        A.append(row)
        b.append(Fraction(0))
    opt = _simplex_max(c, A, b)
    return opt


def in_bipolar(gens: Sequence[Vec], u: Vec) -> bool:
    """Exact membership of u in the bipolar (downward convex hull) of gens."""
    if all(x == 0 for x in u):
        return True
    t = max_scale(gens, u)
    return t is None or t >= 1


def _solve_square(rows, rhs):
    """Solve a square rational system; None if singular."""
    n = len(rows)
    aug = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][-1] for i in range(n)]


def polar_vertices(gens: Sequence[Vec], dim: int) -> list:
    """Vertices of {u >= 0 | <g, u> <= 1 for every g in gens}.

    Brute force over all choices of `dim` active constraints from the
    non-negativity facets and the generator facets.  Intended for dim <= 4.
    Raises ValueError when the polyhedron is unbounded (a zero column in the
    generator matrix, i.e. a dead atom).
    """
    for d in range(dim):
        if all(g[d] == 0 for g in gens):
            raise ValueError(f"polar is unbounded in coordinate {d}")
    # constraints: rows (a, rhs) with a·u <= rhs
    cons = [([Fraction(-1) if j == d else Fraction(0) for j in range(dim)], Fraction(0))
            for d in range(dim)]
    cons += [([Fraction(g[j]) for j in range(dim)], Fraction(1)) for g in gens]
    verts = set()
    for combo in itertools.combinations(range(len(cons)), dim):
        rows = [cons[i][0] for i in combo]
        rhs = [cons[i][1] for i in combo]
        sol = _solve_square(rows, rhs)
        if sol is None:
            continue
        if any(x < 0 for x in sol):
            continue
        if all(sum(a * x for a, x in zip(row, sol)) <= r for row, r in cons):
            verts.add(tuple(sol))
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
    """Irredundant generators of the polar of `gens` (see `polar_vertices`)."""
    return prune_dominated(polar_vertices(gens, dim))
