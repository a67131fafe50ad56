import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from smodlab import ratlp
from smodlab.basedmod import BasedModule, PolytopeP, Web
from smodlab.linmaps import LinMap, _same_hull, dual_and_eta, is_morphism
from smodlab.models import H_embed, pcoh_gamma_and_basis, pcoh_space
from smodlab.scalars import UNIT


# ---------------------------------------------------------------------------
# the reference: brute-force basis inspection in `Fraction`s


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


def reference_polar_vertices(gens, dim):
    """Every choice of `dim` active constraints among the non-negativity
    and the generator facets, solved in `Fraction`s and kept if feasible."""
    for d in range(dim):
        if all(g[d] == 0 for g in gens):
            raise ValueError(f"polar is unbounded in coordinate {d}")
    cons = [([Fraction(-1) if j == d else Fraction(0) for j in range(dim)], Fraction(0))
            for d in range(dim)]
    cons += [([Fraction(g[j]) for j in range(dim)], Fraction(1)) for g in gens]
    verts = set()
    for combo in itertools.combinations(range(len(cons)), dim):
        sol = _solve_square([cons[i][0] for i in combo], [cons[i][1] for i in combo])
        if sol is None or any(x < 0 for x in sol):
            continue
        if all(sum(a * x for a, x in zip(row, sol)) <= r for row, r in cons):
            verts.add(tuple(sol))
    return sorted(verts)


ENTRIES = [Fraction(x) for x in ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1", "3/2")]


@st.composite
def generator_sets(draw, min_atoms=1):
    dim = draw(st.integers(min_atoms, 4))
    gens = draw(st.lists(st.tuples(*[st.sampled_from(ENTRIES)] * dim),
                         min_size=1, max_size=5))
    return gens, dim


def _live(gens, dim):
    return all(any(g[d] for g in gens) for d in range(dim))


@settings(max_examples=300, deadline=None)
@given(generator_sets())
def test_polar_vertices_match_the_fraction_reference(case):
    gens, dim = case
    if not _live(gens, dim):
        with pytest.raises(ValueError):
            ratlp.polar_vertices(gens, dim)
        return
    got = ratlp.polar_vertices(gens, dim)
    assert got == reference_polar_vertices(gens, dim)
    assert all(type(x) is Fraction for v in got for x in v)


@settings(max_examples=300, deadline=None)
@given(generator_sets())
def test_pruned_polar_matches_the_lp_pruning(case):
    gens, dim = case
    if not _live(gens, dim):
        return
    assert ratlp.pruned_polar(gens, dim) == ratlp.prune_dominated(
        reference_polar_vertices(gens, dim))


def test_a_dead_atom_is_refused():
    for f in (ratlp.polar_vertices, ratlp.pruned_polar):
        with pytest.raises(ValueError, match="coordinate 1"):
            f([(1, 0, 1), (Fraction(1, 2), 0, 0)], 3)


def test_pruned_polar_refuses_a_negative_generator():
    # the tight-row rule holds only for an anti-blocking polar
    with pytest.raises(ValueError, match="non-negative"):
        ratlp.pruned_polar([(1, -1), (Fraction(1, 2), 1)], 2)


def test_bareiss_solves_integer_systems():
    cases = [([[2, 1], [1, 3]], [5, 10]), ([[0, 2, 1], [3, 0, 0], [1, 1, 4]], [1, 2, 3]),
             ([[-4, 6], [2, -3]], [1, 1]), ([[7]], [3])]
    for a, b in cases:
        sol = ratlp._bareiss([row + [r] for row, r in zip(a, b)])
        want = _solve_square(a, b)
        if want is None:
            assert sol is None
            continue
        y, det = sol
        assert det > 0 and [Fraction(v, det) for v in y] == want


# ---------------------------------------------------------------------------
# max_scale: the shadow on the support of w against the whole-web simplex


def reference_max_scale(gens, w):
    """Maximize t subject to Σ λ_i <= 1 and t·w_d <= Σ λ_i g_i[d] on every
    coordinate d of the web, by the plain simplex on the unreduced system."""
    if all(x == 0 for x in w):
        return None
    k = len(gens)
    A = [[1] * k + [0]] + [[-g[d] for g in gens] + [w[d]] for d in range(len(w))]
    return ratlp._simplex_max([0] * k + [1], A, [1] + [0] * len(w))


@st.composite
def scale_cases(draw):
    dim = draw(st.integers(1, 6))
    entry = st.sampled_from(ENTRIES)
    gens = draw(st.lists(st.tuples(*[entry] * dim), min_size=1, max_size=5))
    # duplicate and dominated generators
    for i, half in draw(st.lists(st.tuples(st.integers(0, len(gens) - 1),
                                           st.booleans()), max_size=3)):
        gens.append(tuple(x / 2 for x in gens[i]) if half else gens[i])
    w = list(draw(st.tuples(*[st.sampled_from(ENTRIES + [0, 0])] * dim)))
    support = [d for d, x in enumerate(w) if x]
    if support and draw(st.booleans()):
        # a dead shadow coordinate: every generator is 0 where w is not
        d = draw(st.sampled_from(support))
        gens = [g[:d] + (0,) + g[d + 1:] for g in gens]
    if draw(st.integers(0, 5)) == 0:
        # signed input keeps the whole-web simplex
        w = [-x if draw(st.booleans()) else x for x in w]
    return gens, tuple(w)


@settings(max_examples=400, deadline=None)
@given(scale_cases())
def test_max_scale_matches_the_whole_web_simplex(case):
    gens, w = case
    assert ratlp.max_scale(gens, w) == reference_max_scale(gens, w)


def test_max_scale_edge_cases():
    gens = [(1, 0, Fraction(1, 2)), (1, 0, Fraction(1, 2)), (Fraction(1, 2), 0, 0)]
    assert ratlp.max_scale(gens, (0, 0, 0)) is None
    assert ratlp.max_scale(gens, (1, 1, 0)) == 0
    assert ratlp.max_scale(gens, (Fraction(1, 4), 0, Fraction(1, 2))) == 1
    assert ratlp.max_scale(gens, (2, 5, 1)) == reference_max_scale(gens, (2, 5, 1))


def test_max_scale_on_a_narrow_support_of_many_generators():
    # 32 generators on 4 atoms: the polar of the full shadow would try
    # C(34, 2) bases per pair of coordinates; the dominance filter keeps
    # that small, so a combinatorial blow-up shows as a slow test
    rng = random.Random(7)
    gens = [tuple(Fraction(rng.randint(0, 8), 4) for _ in range(4)) for _ in range(32)]
    for w in [(Fraction(1, 2), 0, Fraction(1, 3), 0), (0, 1, 0, 0), (1, 1, 0, 0)]:
        assert ratlp.max_scale(gens, w) == reference_max_scale(gens, w)


# ---------------------------------------------------------------------------
# dual_and_eta: the hull test against the parent's prune-and-compare rule


def _old_same_hull(m, n):
    return (ratlp.prune_dominated(m.presentation.polytope(m))
            == ratlp.prune_dominated(n.presentation.polytope(n)))


def _module(gens, dim, by_constraints):
    pres = (PolytopeP(constraints=tuple(map(tuple, gens))) if by_constraints
            else PolytopeP(generators=tuple(ratlp.prune_dominated(gens))))
    return BasedModule(UNIT, Web(tuple("abcd"[:dim])), pres)


@settings(max_examples=150, deadline=None)
@given(generator_sets(), st.data())
def test_same_hull_matches_prune_and_compare(case, data):
    gens, dim = case
    if not _live(gens, dim):
        return
    other = data.draw(st.lists(st.tuples(*[st.sampled_from(ENTRIES)] * dim),
                               min_size=1, max_size=5))
    if not _live(other, dim):
        return
    # some pairs share a hull: a polytope against its polar's polar
    if data.draw(st.booleans()):
        other = ratlp.pruned_polar(gens, dim)
    m = _module(gens, dim, False)
    n = _module(other, dim, data.draw(st.booleans()))
    assert _same_hull(m, n) == _old_same_hull(m, n)


@settings(max_examples=40, deadline=None)
@given(generator_sets())
def test_dual_and_eta_matches_prune_and_compare(case):
    gens, dim = case
    if not _live(gens, dim):
        return
    P = pcoh_space("P", tuple("pqrs"[:dim]), gens)
    m = H_embed(P)
    rep = dual_and_eta(m, pcoh_gamma_and_basis(P)[1])
    inv = LinMap(rep.ddual, m, rep.eta.matrix.transpose())
    maps_ok = is_morphism(rep.eta).ok is True and is_morphism(inv).ok is True
    old_iso = maps_ok and _old_same_hull(m, rep.ddual)
    assert (rep.eta_iso, rep.mu_eta_identity) == (old_iso, old_iso)
