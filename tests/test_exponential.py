from fractions import Fraction

import pytest

from smodlab.basedmod import equalizer_submodule, vec, web
from smodlab.exponential import (ExponentialError, MultisetIndex, bang,
                                 bang_basis, check_comonoid, comult, counit,
                                 dereliction, ideal_gamma, multisets_of_degree,
                                 parse_multiset, promote, sym_power)
from smodlab.linmaps import (LinMap, Matrix, apply, compose, identity,
                             is_morphism, tensor_obj, validate_basis)
from smodlab.models import (F_embed, H_embed, coherence_module,
                            coherence_space, pcoh_gamma_and_basis, pcoh_space)
from smodlab.scalars import I, UNIT


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
