import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from smodlab import exponential, ratlp
from smodlab.basedmod import (UNKNOWN, Web, coproduct_module, enumerated_module,
                              equalizer_submodule, vec, web)
from smodlab.exponential import (ExponentialError, MultisetIndex, bang,
                                 bang_basis, check_comonoid, comult, counit,
                                 dereliction, ideal_gamma, multisets_of_degree,
                                 parse_multiset, promote, sym_power)
from smodlab.linmaps import (DualBasis, LinMap, Matrix, apply, compose,
                             free_module, functional, gamma_basis, identity,
                             is_morphism, tensor_obj, validate_basis)
from smodlab.models import (F_embed, H_embed, coherence_module, coherence_space,
                            pcoh_gamma_and_basis, pcoh_space)
from smodlab.scalars import B, F, I, N, UNIT


def interval():
    P = pcoh_space("U", ("u",), [(1,)])
    return H_embed(P), pcoh_gamma_and_basis(P)[1]


def simplex():
    P = pcoh_space("S", ("a", "b"), [(1, 0), (0, 1)])
    return H_embed(P), pcoh_gamma_and_basis(P)[1]


def coh_pair():
    A = coherence_space("A", ("a", "b"), [("a", "b")])
    return F_embed(A)


# ---------------------------------------------------------------------------
# multiset indices


def test_multiset_canonical_label():
    w = web("a", "b")
    xi = parse_multiset("[b,a,a]", w)
    assert xi.label == "[a,a,b]"
    assert xi.degree == 3 and xi.count("a") == 2
    assert len(list(xi.sequences())) == 3


def test_multisets_of_degree():
    labels = [xi.label for xi in multisets_of_degree(("a", "b"), 2)]
    assert labels == ["[a,a]", "[a,b]", "[b,b]"]


def test_parse_multiset_rejects_unknown_atom():
    with pytest.raises(Exception):
        parse_multiset("[z]", web("a"))


# ---------------------------------------------------------------------------
# ideals and webs


def test_ideal_gamma_simplex():
    m, basis = simplex()
    g = ideal_gamma(m, basis, parse_multiset("[a,b]", m.web))
    assert g.sup == Fraction(1, 2)
    g2 = ideal_gamma(m, basis, parse_multiset("[a,a]", m.web))
    assert g2.sup == 1


def test_bang_web_excludes_incoherent_multisets():
    A = coherence_space("A", ("a", "b"), [])  # a, b incoherent
    m, basis = F_embed(A)
    B = bang(m, basis, 2)
    labels = set(B.web.atoms)
    assert "[a,b]" not in labels
    assert {"[]", "[a]", "[b]", "[a,a]", "[b,b]"} <= labels


def test_bang_degree_cap():
    m, basis = interval()
    with pytest.raises(ExponentialError):
        bang(m, basis, 9)


# ---------------------------------------------------------------------------
# structure maps


def test_promote_coordinates():
    m, basis = interval()
    B = bang(m, basis, 2)
    x = vec(m.web, u=Fraction(1, 2))
    px = promote(B, x)
    assert px.value("[]") == 1
    assert px.value("[u]") == Fraction(1, 2)
    assert px.value("[u,u]") == Fraction(1, 4)


def test_promote_requires_membership():
    m, basis = simplex()
    B = bang(m, basis, 2)
    with pytest.raises(Exception):
        promote(B, vec(m.web, a=1, b=1))


def test_dereliction_after_promote_is_identity():
    m, basis = simplex()
    B = bang(m, basis, 2)
    x = vec(m.web, a=Fraction(1, 3), b=Fraction(1, 3))
    assert apply(dereliction(B), promote(B, x)) == x


def test_counit_picks_empty_multiset():
    m, basis = interval()
    B = bang(m, basis, 2)
    x = vec(m.web, u=Fraction(1, 2))
    assert apply(counit(B), promote(B, x)).value("*") == 1


def test_bang_basis_validates():
    m, basis = simplex()
    B = bang(m, basis, 2)
    rep = validate_basis(B.module, bang_basis(B))
    orthogonality, = rep.checks
    assert rep.ok is True and orthogonality.ok is True


def test_structure_maps_are_morphisms():
    m, basis = simplex()
    B = bang(m, basis, 2)
    assert is_morphism(dereliction(B)).ok
    assert is_morphism(counit(B)).ok


def test_comult_of_a_clique_bang_is_a_morphism_into_its_tensor_square():
    # !A ⊗ !A has 400 atoms (160,000 coherent pairs); no relation is stored,
    # and the check tests the 84 entries' 84·85/2 pairs by the ⊸ rule
    A = coherence_space("A", ("a", "b", "c"), itertools.combinations("abc", 2))
    B = bang(*F_embed(A), 3)
    basis = bang_basis(B)
    T, _ = tensor_obj(B.module, B.module, basis, basis)
    delta = comult(B).matrix
    assert len(B.web) == 20 and len(delta.entries) == 84
    assert T.presentation.space.coh is None
    rep = is_morphism(LinMap(B.module, T, delta))
    assert (rep.ok, rep.strategy, rep.checked) == (True, "coherence", 3570)


# ---------------------------------------------------------------------------
# comonoid laws


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_comonoid_laws_interval(degree):
    m, basis = interval()
    B = bang(m, basis, degree)
    rep = check_comonoid(B)
    assert rep.ok, rep.lines()


@pytest.mark.parametrize("degree", [1, 2])
def test_comonoid_laws_simplex(degree):
    m, basis = simplex()
    B = bang(m, basis, degree)
    rep = check_comonoid(B)
    assert rep.ok, rep.lines()


def test_comonoid_laws_coherence():
    m, basis = coh_pair()
    B = bang(m, basis, 2)
    rep = check_comonoid(B)
    assert rep.ok, rep.lines()


def test_comonoid_mutant_caught():
    m, basis = interval()
    B = bang(m, basis, 2)
    rep = check_comonoid(B, mutate_seed=0)
    assert not rep.ok


def test_comonoid_laws_over_free_N_are_undecided():
    # nothing decides the basis of a coproduct of free N modules, and no
    # sample proves the laws
    m = free_module(N, Web(("a",)))
    X = coproduct_module([m, m])
    rep = check_comonoid(bang(X, gamma_basis(X), 1))
    assert rep.ok is UNKNOWN
    laws = {c.what: c for c in rep.checks}
    assert laws["dereliction∘promote = id"].ok is UNKNOWN
    assert laws["comult∘promote = promote⊠promote"].ok is True
    assert all(c.strategy != "sampled" for c in rep.checks)


def test_comonoid_laws_over_free_N_are_proved():
    # free N is free on its generators: its basis is proved there
    m = free_module(N, Web(("a",)))
    rep = check_comonoid(bang(m, gamma_basis(m, {"a": 1}), 2))
    assert rep.ok is True
    laws = {c.what: c for c in rep.checks}
    assert laws["dereliction∘promote = id"].checks[0].strategy == "polytope-generators"


def test_check_comonoid_runs_no_lp(monkeypatch):
    P = pcoh_space("P", ("a", "b", "c"), [(1, 0, 1), (0, 1, 1)])
    B = bang(H_embed(P), pcoh_gamma_and_basis(P)[1], 2)
    calls = []
    for name in ("max_scale", "in_bipolar"):
        def counting(*args, _name=name, _f=getattr(ratlp, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(ratlp, name, counting)
    assert check_comonoid(B).ok is True
    assert calls == []


def test_orbit_ideals_run_no_simplex(monkeypatch):
    # every orbit of degree <= 2 has a support of at most 2 coordinates,
    # where max_scale reads R_ξ off the polar's vertices
    P = pcoh_space("P", ("a", "b", "c"), [(1, 0, 1), (0, 1, 1)])
    V, basis = H_embed(P), pcoh_gamma_and_basis(P)[1]
    powers = exponential._tensor_powers(V, basis, 2)
    calls = []

    def counting(*args, _f=ratlp._simplex_max):
        calls.append(args)
        return _f(*args)

    monkeypatch.setattr(ratlp, "_simplex_max", counting)
    for n, (T, tb) in enumerate(powers):
        exponential._sym_layer(V, basis, T, tb, n)
    assert calls == []
    monkeypatch.undo()
    gammas = dict(bang(V, basis, 2).gammas)
    assert gammas.pop("[a,b]") == Fraction(1, 2)
    assert len(gammas) == 9 and set(gammas.values()) == {1}


# ---------------------------------------------------------------------------
# the symbolic comult∘promote law against pointwise evaluation


COMULT_LAW = "comult∘promote = promote⊠promote"


def pointwise_comult_law(B, delta, promoted) -> bool:
    """comult∘promote = promote⊠promote evaluated at each promoted point,
    split by split for |ξ₁| + |ξ₂| ≤ d: the reference for the symbolic
    check."""
    mul = B.base.semiring.ambient_mul
    for px in promoted:
        for x1, x2 in itertools.product(B.multisets, repeat=2):
            if x1.degree + x2.degree > B.degree:
                continue
            whole = x1.add(x2)
            lhs = px.value(whole.label) \
                if (whole.label, (x1.label, x2.label)) in delta else 0
            if lhs != mul(px.value(x1.label), px.value(x2.label)):
                return False
    return True


def grid_points(m, basis, d):
    """x = Σ_a φ_a·e_a with every φ_a in {0, 1/(dn), …, 1/n}: a (d+1)^n
    grid in φ-coordinates, inside the carrier since Σ_a φ_a ≤ 1.  A
    polynomial of degree ≤ d in each φ_a that vanishes on it is zero (Alon
    1999, Combinatorial Nullstellensatz)."""
    n = len(basis.pairs)
    out = []
    for ks in itertools.product(range(d + 1), repeat=n):
        coords = {}
        for k, (e, _) in zip(ks, basis.pairs):
            for a, x in e.entries:
                coords[a] = coords.get(a, 0) + Fraction(k, d * n) * x
        out.append(vec(m.web, {a: x for a, x in coords.items() if x}))
    return out


def assert_symbolic_matches_pointwise(m, basis, d, points):
    """The symbolic sub-verdict equals the pointwise one on the intact
    table and on the table without each single split."""
    B = bang(m, basis, d)
    promoted = [promote(B, x) for x in points]
    table = exponential._splits(B)
    law = {c.what: c for c in check_comonoid(B).checks}[COMULT_LAW]
    assert law.ok is pointwise_comult_law(B, exponential._delta_dict(B), promoted)
    for i in range(len(table)):
        delta = {(xi, (x1, x2)): 1 for xi, x1, x2 in table[:i] + table[i + 1:]}
        law = exponential._comult_law(B, delta)
        assert law.ok is pointwise_comult_law(B, delta, promoted), (d, table[i], law)


def with_dead_functional(m, basis):
    """`basis` with its last functional replaced by zero.  It still claims
    to be orthogonal, so `bang` accepts it, but every monomial at the last
    atom vanishes on the carrier."""
    e, _ = basis.pairs[-1]
    return DualBasis(basis.pairs[:-1] + ((e, functional(m, {})),))


def dead_simplex():
    m, basis = simplex()
    return m, with_dead_functional(m, basis)


@pytest.mark.parametrize("base", [interval, simplex, dead_simplex])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_comult_law_matches_pointwise_on_rational_bases(base, degree):
    m, basis = base()
    assert_symbolic_matches_pointwise(m, basis, degree,
                                      grid_points(m, basis, degree))


_HALVES = st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1)))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=3).flatmap(lambda dim: st.lists(
    st.tuples(*[_HALVES] * dim), min_size=1, max_size=3)),
    st.integers(min_value=1, max_value=2))
def test_comult_law_matches_pointwise_on_pcoh_spaces(gens, degree):
    dim = len(gens[0])
    assume(all(any(g[i] for g in gens) for i in range(dim)))
    P = pcoh_space("P", tuple("pqr"[:dim]), gens)
    m, basis = H_embed(P), pcoh_gamma_and_basis(P)[1]
    assert_symbolic_matches_pointwise(m, basis, degree,
                                      grid_points(m, basis, degree))


def coherence_spaces(max_atoms):
    """Every coherence space on 1..max_atoms atoms."""
    for n in range(1, max_atoms + 1):
        atoms = tuple("abc"[:n])
        offdiag = list(itertools.combinations(atoms, 2))
        for bits in range(2 ** len(offdiag)):
            yield coherence_space(f"S{n}_{bits}", atoms,
                                  [p for i, p in enumerate(offdiag) if bits >> i & 1])


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_comult_law_matches_pointwise_on_coherence_spaces(degree):
    # a zero φ_a kills every monomial at a, though its support is a clique
    for A in coherence_spaces(3):
        m, basis = F_embed(A)
        for basis in (basis, with_dead_functional(m, basis)):
            assert_symbolic_matches_pointwise(m, basis, degree, m.carrier_vectors())


@pytest.mark.parametrize("s", [B, F], ids=["B", "F"])
@pytest.mark.parametrize("degree", [1, 2])
def test_comult_law_matches_pointwise_on_free_modules(s, degree):
    # the free rule: no monomial vanishes but at an atom whose φ_a is zero
    for n in (1, 2, 3):
        m = free_module(s, Web(tuple("abc"[:n])))
        for basis in (gamma_basis(m), with_dead_functional(m, gamma_basis(m))):
            assert_symbolic_matches_pointwise(m, basis, degree, m.carrier_vectors())


def with_summed_functional(m, basis):
    """`basis` with its last functional reading every atom, so no rule
    decides vanishing and the carrier is enumerated."""
    e, _ = basis.pairs[-1]
    return DualBasis(basis.pairs[:-1] + ((e, functional(m, dict.fromkeys(m.web.atoms, 1))),))


@pytest.mark.parametrize("degree", [1, 2])
def test_comult_law_matches_pointwise_on_enumerated_carriers(degree):
    # vanishing is decided point by point on the enumerated carrier: of an
    # enumerated module (whose tensor square is not built, so at degree 1
    # only), and of a free F-module whose last functional reads every atom
    for n in (1, 2, 3):
        w = Web(tuple("abc"[:n]))
        m = free_module(F, w)
        cases = [(m, with_summed_functional(m, gamma_basis(m)))]
        if degree == 1:
            e = enumerated_module(N, w, [vec(w, {}), vec(w, {"a": 1}), vec(w, {"a": 2})]
                                  + [vec(w, {a: 1}) for a in w.atoms])
            cases += [(e, gamma_basis(e)), (e, with_dead_functional(e, gamma_basis(e)))]
        for m, basis in cases:
            assert_symbolic_matches_pointwise(m, basis, degree, m.carrier_vectors())


# ---------------------------------------------------------------------------
# symmetric powers against the equalizer oracle


def test_sym_power_matches_swap_equalizer():
    m, basis = coh_pair()
    S, sb = sym_power(m, basis, 2)
    T, tb = tensor_obj(m, m, basis, basis)
    swap_entries = {}
    for a in m.web.atoms:
        for b in m.web.atoms:
            swap_entries[(f"({a},{b})", f"({b},{a})")] = 1
    swap = LinMap(T, T, Matrix.make(T.web, T.web, swap_entries))
    eq = equalizer_submodule(swap, identity(T))

    def embed(v):
        coords = {}
        for label, x in v.entries:
            xi = S.web  # labels are multiset labels
            atoms = label[1:-1].split(",") if label != "[]" else []
            if len(atoms) == 2:
                a, b = atoms
                coords[f"({a},{b})"] = 1
                coords[f"({b},{a})"] = 1
        return vec(T.web, coords)

    sym_carrier = {embed(v) for v in S.carrier_vectors()}
    eq_carrier = set(eq.carrier_vectors())
    assert sym_carrier == eq_carrier
