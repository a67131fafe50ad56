import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smodlab import ratlp
from smodlab.basedmod import Web, WebMismatch, vec, vec_sum, web
from smodlab.linmaps import apply, is_morphism, matrix_of, validate_basis
from smodlab.exponential import bang
from smodlab.models import (BoundExceeded, CoherenceSpace, F_embed, F_invert,
                            F_map, FinitenessSpace, ModelError,
                            coherence_dual, coherence_lolli, coherence_module,
                            coherence_of, coherence_space, coherence_tensor,
                            fin_dual, finiteness_module, glue_is_morphism,
                            glue_tight_closure, pcoh_bipolar_member,
                            pcoh_dual, pcoh_gamma_and_basis, pcoh_space,
                            wrel_compose, H_embed, H_map)
from smodlab.scalars import B, I, INF, NINF, OMEGA, UNDEF
from smodlab.linmaps import Matrix
from smodlab.frontend.interpreter import interpret_morphism
from smodlab.frontend.workspace import Workspace


# ---------------------------------------------------------------------------
# coherence spaces


def tri():
    return coherence_space("A", ("a", "b", "c"), [("a", "b")])


def test_coherence_space_closure_and_cliques():
    A = tri()
    assert A.coherent("a", "a") and A.coherent("b", "a")
    assert not A.coherent("a", "c")
    assert frozenset({"a", "b"}) in A.cliques()
    assert frozenset({"a", "c"}) not in A.cliques()


def test_coherence_dual_swaps_strict_parts():
    A = tri()
    D = coherence_dual(A)
    assert D.coherent("a", "c")
    assert not D.coherent("a", "b")
    assert D.coherent("a", "a")


def test_coherence_tensor_and_lolli():
    A = tri()
    B_ = coherence_space("B", ("x", "y"), [("x", "y")])
    T = coherence_tensor(A, B_)
    assert T.coherent("(a,x)", "(b,y)")
    assert not T.coherent("(a,x)", "(c,y)")
    L = coherence_lolli(A, B_)
    # coherent args must go to coherent results
    assert L.coherent("(a,x)", "(b,y)")
    # strictly incoherent results must reflect strict incoherence backwards
    assert not L.coherent("(a,x)", "(b,x)") or A.strictly_incoherent("a", "b")


def test_coherence_module_carrier_is_cliques():
    A = tri()
    m = coherence_module(A)
    assert m.admits(vec(m.web, a=1, b=1))
    assert not m.admits(vec(m.web, a=1, c=1))
    x, y = vec(m.web, a=1), vec(m.web, c=1)
    assert vec_sum(m, ((x, 1), (y, 1))) is UNDEF  # sum leaves the carrier


def test_F_functor_round_trip():
    A = tri()
    B_ = coherence_space("B", ("x", "y"), [("x", "y")])
    rel = frozenset({("a", "x"), ("b", "y")})
    f = F_map(A, B_, rel)
    assert f.verified
    assert F_invert(f) == rel
    # non-clique relations are rejected with a witness
    # a ⌢ b strictly, yet both land on x: violates the ≍ reflection clause
    bad = frozenset({("a", "x"), ("b", "x")})
    with pytest.raises(ModelError):
        F_map(A, B_, bad)


def test_F_map_names_the_clashing_pairs():
    A, B_ = tri(), coherence_space("B", ("x", "y"), [("x", "y")])
    with pytest.raises(ModelError, match=r"pairs \('a', 'x'\) and \('b', 'x'\)"):
        F_map(A, B_, {("a", "x"), ("b", "x")})


# The materialising constructions that connectives used before they answered by
# rule, kept as the oracle: each stores the whole relation as pairs.


def stored(name, atoms, rel):
    return CoherenceSpace(name, tuple(atoms), frozenset(rel))


def materialised_dual(A):
    return stored(f"{A.name}^", A.atoms, {(a, b) for a in A.atoms for b in A.atoms
                                          if A.strictly_incoherent(a, b)})


def materialised_tensor(A, B_):
    atoms = tuple(f"({a},{b})" for a in A.atoms for b in B_.atoms)
    rel = set()
    for (a, b) in itertools.product(A.atoms, B_.atoms):
        for (a2, b2) in itertools.product(A.atoms, B_.atoms):
            if A.coherent(a, a2) and B_.coherent(b, b2):
                rel.add((f"({a},{b})", f"({a2},{b2})"))
    return stored("⊗", atoms, rel)


def materialised_lolli(A, B_):
    atoms = tuple(f"({a},{b})" for a in A.atoms for b in B_.atoms)
    rel = set()
    for (a, b) in itertools.product(A.atoms, B_.atoms):
        for (a2, b2) in itertools.product(A.atoms, B_.atoms):
            cond1 = (not A.coherent(a, a2)) or B_.coherent(b, b2)
            cond2 = (not B_.strictly_incoherent(b, b2)) or A.strictly_incoherent(a, a2)
            if cond1 and cond2:
                rel.add((f"({a},{b})", f"({a2},{b2})"))
    return stored("⊸", atoms, rel)


def materialised_bang(A, multisets):
    rel = {(x1.label, x2.label) for x1 in multisets for x2 in multisets
           if A.is_clique(x1.support | x2.support)}
    return stored(f"!{A.name}", [xi.label for xi in multisets], rel)


def materialised_slice(T, atoms, other, first):
    rel = set()
    for x in atoms:
        for y in atoms:
            pair = (f"({x},{other[0]})", f"({y},{other[0]})") if first \
                else (f"({other[0]},{x})", f"({other[0]},{y})")
            if T.coherent(*pair):
                rel.add((x, y))
    return stored("slice", atoms, rel)


def all_coherence_spaces(max_atoms):
    """Every reflexive symmetric relation on 1..max_atoms atoms."""
    out = []
    for n in range(1, max_atoms + 1):
        atoms = tuple("abc"[:n])
        offdiag = list(itertools.combinations(atoms, 2))
        for bits in range(2 ** len(offdiag)):
            pairs = [p for i, p in enumerate(offdiag) if bits >> i & 1]
            out.append(coherence_space(f"S{n}_{bits}", atoms, pairs))
    return out


def assert_same_relation(space, oracle):
    # a space built by a connective stores no pairs, yet has the same relation
    assert space.coh is None and space.atoms == oracle.atoms
    for a in oracle.atoms:
        for b in oracle.atoms:
            assert space.coherent(a, b) == oracle.coherent(a, b), (space.name, a, b)
            assert space.strictly_incoherent(a, b) == oracle.strictly_incoherent(a, b)


def test_connectives_by_rule_match_their_materialised_relations():
    spaces = all_coherence_spaces(3)
    assert len(spaces) == 11
    for A in spaces:
        assert_same_relation(coherence_dual(A), materialised_dual(A))
        for B_ in spaces:
            T, oracle_T = coherence_tensor(A, B_), materialised_tensor(A, B_)
            assert_same_relation(T, oracle_T)
            assert_same_relation(coherence_lolli(A, B_), materialised_lolli(A, B_))


def test_curried_source_is_the_materialised_slice_of_the_tensor():
    # `curry` reads A from the factors of A ⊗ B; slicing the materialised
    # tensor at one atom of the other factor is the oracle
    spaces = all_coherence_spaces(3)
    for A, B_ in itertools.product(spaces, repeat=2):
        ws = Workspace(semiring=I, spaces={"A": A, "B": B_})
        oracle_T = materialised_tensor(A, B_)
        for term, atoms, other, first in (
                ("curry(tensor(id(A), id(B)))", A.atoms, B_.atoms, True),
                ("curry(tensor(id(B), id(A)))", B_.atoms, A.atoms, False)):
            curried = coherence_of(interpret_morphism(ws, term).src)
            oracle = materialised_slice(oracle_T, atoms, other, first)
            assert curried.atoms == oracle.atoms
            for a, b in itertools.product(atoms, repeat=2):
                assert curried.coherent(a, b) == oracle.coherent(a, b), (term, a, b)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_multiset_bang_by_rule_matches_its_materialised_relation(degree):
    for A in all_coherence_spaces(3):
        B_ = bang(*F_embed(A), degree)
        assert_same_relation(B_.module.presentation.space,
                             materialised_bang(A, B_.multisets))


def test_connectives_of_derived_spaces_match_their_materialised_relations():
    # parts that are themselves built by rule: (A ⊗ B) ⊸ C and its dual
    spaces = all_coherence_spaces(2)
    for A, B_, C in itertools.product(spaces, repeat=3):
        L = coherence_lolli(coherence_tensor(A, B_), C)
        oracle = materialised_lolli(materialised_tensor(A, B_), C)
        assert_same_relation(L, oracle)
        assert_same_relation(coherence_dual(L), materialised_dual(oracle))


def test_derived_spaces_are_structural_values():
    A, B_ = tri(), coherence_space("B", ("x", "y"), [("x", "y")])
    L = coherence_lolli(A, B_)
    assert L == coherence_lolli(A, B_) and hash(L) == hash(coherence_lolli(A, B_))
    assert L != coherence_lolli(B_, A)
    assert coherence_module(L) == coherence_module(coherence_lolli(A, B_))


def test_F_embed_basis_validates():
    m, basis = F_embed(tri())
    rep = validate_basis(m, basis)
    orthogonality, = rep.checks
    assert rep.ok is True and orthogonality.ok is True


# ---------------------------------------------------------------------------
# finiteness spaces


def test_finiteness_module_refuses_infinite_multiplicity():
    sp = FinitenessSpace("X", ("a", "b"))
    m = finiteness_module(sp)
    x = vec(m.web, a=1)
    assert vec_sum(m, ((x, OMEGA),)) is UNDEF


def test_fin_dual_at_finite_webs_is_powerset():
    w = web("a", "b")
    supports = frozenset({frozenset(), frozenset({"a"})})
    dual = fin_dual(supports, w)
    assert frozenset({"b"}) in dual and frozenset({"a", "b"}) in dual


def test_G_embed():
    m = finiteness_module(FinitenessSpace("X", ("a",)))
    assert m.admits(vec(m.web, a=1))


# ---------------------------------------------------------------------------
# probabilistic coherence spaces


def simplex():
    return pcoh_space("S", ("a", "b"), [(1, 0), (0, 1)])


def box():
    return pcoh_space("Bx", ("a", "b"), [(1, 1)])


def test_pcoh_dual_box_simplex():
    assert pcoh_dual(simplex()).generators == box().generators
    assert pcoh_dual(box()).generators == simplex().generators


def test_pcoh_triple_dual_collapse():
    P = pcoh_space("P", ("a", "b"), [(1, Fraction(1, 2))])
    assert pcoh_dual(P).generators == pcoh_dual(pcoh_dual(pcoh_dual(P))).generators


def test_pcoh_dead_atom_rejected():
    with pytest.raises(ModelError):
        pcoh_space("D", ("a", "b"), [(1, 0)])


def test_pcoh_bound_exceeded():
    P = pcoh_space("big", tuple("abcde"), [tuple(1 for _ in "abcde")])
    with pytest.raises(BoundExceeded):
        pcoh_dual(P)


def test_pcoh_bipolar_member():
    S = simplex()
    assert pcoh_bipolar_member(S, (Fraction(1, 2), Fraction(1, 2)))
    assert not pcoh_bipolar_member(S, (Fraction(1, 2), Fraction(3, 4)))
    with pytest.raises(ModelError):
        pcoh_bipolar_member(S, (Fraction(-1, 2), 0))


_QUARTERS = st.integers(min_value=0, max_value=8).map(lambda k: Fraction(k, 4))
_TWELFTHS = st.integers(min_value=0, max_value=18).map(lambda k: Fraction(k, 12))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(lambda dim: st.tuples(
    st.lists(st.tuples(*[_QUARTERS] * dim), min_size=1, max_size=4),
    st.lists(st.tuples(*[_TWELFTHS] * dim), min_size=1, max_size=6))))
def test_pcoh_membership_by_polar_matches_the_lp(case):
    # 5 atoms lies beyond the vertex bound, where membership is the LP itself
    gens, points = case
    dim = len(gens[0])
    assume(all(any(g[i] for g in gens) for i in range(dim)))
    P = pcoh_space("P", tuple(f"x{i}" for i in range(dim)), gens)
    m = H_embed(P)
    for u in points:
        want = ratlp.in_bipolar(P.generators, u)
        assert m.admits(vec(m.web, dict(zip(m.web.atoms, u)))) == want
        assert pcoh_bipolar_member(P, u) == want
    with pytest.raises(ModelError):
        pcoh_bipolar_member(P, (Fraction(-1, 4),) + points[0][1:])
    with pytest.raises(WebMismatch):
        pcoh_bipolar_member(P, points[0] + (0,))


def test_H_map_accepts_and_rejects():
    S, Bx = simplex(), box()
    f = H_map(S, Bx, [[1, 1], [1, 1]])  # simplex fits in the box
    assert f.verified
    with pytest.raises(ModelError):
        H_map(Bx, S, [[1, 0], [0, 1]])  # box does not fit in the simplex


def test_H_basis_validates():
    S = simplex()
    _, basis = pcoh_gamma_and_basis(S)
    rep = validate_basis(H_embed(S), basis)
    orthogonality, = rep.checks
    assert rep.ok is True and orthogonality.ok is True


# ---------------------------------------------------------------------------
# double gluing


def test_glue_closure_reconstructs_cliques():
    A = tri()
    m = coherence_module(A)
    w = m.web
    cliques = [tuple(1 if a in c else 0 for a in w.atoms) for c in A.cliques()]
    obj = glue_tight_closure(w, cliques, bound=1)
    assert obj.u == frozenset(cliques)
    assert obj.is_tight(bound=1)


def test_glue_morphism_and_wrel():
    w = web("a")
    obj = glue_tight_closure(w, [(0,), (1,)], bound=1)
    ident = Matrix.make(w, w, {("a", "a"): 1})
    assert glue_is_morphism(ident, obj, obj)
    comp = wrel_compose(NINF, ident, ident)
    assert comp == ident
    with pytest.raises(ModelError):
        wrel_compose(I, ident, ident)  # needs a complete semiring


def test_glue_rejects_a_map_that_leaves_the_vectors():
    w = web("a")
    obj = glue_tight_closure(w, [(0,), (1,)], bound=1)
    double = Matrix.make(w, w, {("a", "a"): 2})
    assert glue_is_morphism(double, obj, obj) is False  # 2·(1) is not in U


def test_wrel_compose_with_infinite_weights():
    w = web("a", "b")
    f = Matrix.make(w, w, {("a", "a"): INF, ("a", "b"): 1, ("b", "b"): 2})
    g = Matrix.make(w, w, {("a", "a"): 2, ("b", "a"): 3, ("b", "b"): INF})
    # (a,a) = ∞·2 + 1·3 = ∞, (a,b) = 1·∞, (b,a) = 2·3, (b,b) = 2·∞
    assert wrel_compose(NINF, f, g) == Matrix.make(
        w, w, {("a", "a"): INF, ("a", "b"): INF, ("b", "a"): 6, ("b", "b"): INF})
    # ∞·0 = 0: no ∞ reaches a cell through a zero entry
    assert wrel_compose(NINF, f, Matrix.make(w, w, {("b", "a"): 1})) == Matrix.make(
        w, w, {("a", "a"): 1, ("b", "a"): 2})


def test_coherence_over_B_rejected():
    # B satisfies x + x = x, which collapses the clique structure
    from smodlab.basedmod import BasedModule, CoherenceP
    A = tri()
    with pytest.raises(ValueError):
        BasedModule(B, Web(A.atoms), CoherenceP(A))
