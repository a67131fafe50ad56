import gc
import importlib.util
import itertools
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from smodlab.basedmod import (UNKNOWN, BasedModule, FreeP, IntegrityError,
                              ProductP, Web, WebMismatch, coproduct_module,
                              enumerated_module, product_module, vec, web)
from smodlab.linmaps import (DualBasis, LinMap, Matrix, apply, compose,
                             dual_and_eta, format_matrix, functional,
                             gamma_basis, identity, is_morphism, linmap,
                             lolli_obj, matrix_of, pair_web, parse_matrix,
                             semiring_module, tensor_obj, unit_basis,
                             validate_basis, verify, zero_map)
from smodlab.models import (F_embed, H_embed, coherence_module,
                            coherence_space, pcoh_gamma_and_basis,
                            pcoh_space)
from smodlab.scalars import (B, F, I, INF, N, NINF, RPOS, UNDEF, UNIT,
                             CarrierError, broken_F, naive_complete)
from smodlab.basedmod import free_module


def tri_mod():
    return coherence_module(coherence_space("A", ("a", "b", "c"), [("a", "b")]))


def simplex_mod():
    P = pcoh_space("S", ("a", "b"), [(1, 0), (0, 1)])
    return H_embed(P), pcoh_gamma_and_basis(P)[1]


# ---------------------------------------------------------------------------
# matrices


def test_matrix_format_parse_round_trip():
    w1, w2 = web("a", "b"), web("x")
    mat = Matrix.make(w1, w2, {("a", "x"): 1})
    text = format_matrix(mat)
    assert parse_matrix(text, w1, w2, I) == mat


def test_matrix_make_rejects_entries_outside_its_webs():
    w = web("a", "b")
    with pytest.raises(WebMismatch):
        Matrix.make(w, w, {("a", "z"): 1})
    with pytest.raises(WebMismatch):
        Matrix.make(w, w, {("z", "a"): 0})


def test_matrix_transpose_and_entry():
    w1, w2 = web("a"), web("x", "y")
    mat = Matrix.make(w1, w2, {("a", "y"): 1})
    assert mat.entry("a", "y") == 1 and mat.entry("a", "x") == 0
    assert mat.transpose().entry("y", "a") == 1


def test_matrix_cell_index_takes_no_part_in_equality():
    w = web("a", "b")
    looked_up = Matrix.make(w, w, {("a", "b"): 1})
    assert looked_up.entry("a", "b") == 1 and looked_up.entry("b", "a") == 0
    fresh = Matrix.make(w, w, {("a", "b"): 1})
    assert looked_up == fresh and hash(looked_up) == hash(fresh)
    assert repr(looked_up) == repr(fresh)


# ---------------------------------------------------------------------------
# application and composition


def test_apply_identity_and_zero():
    m = tri_mod()
    x = vec(m.web, a=1, b=1)
    assert apply(identity(m), x) == x
    assert apply(zero_map(m, m), x) == m.zero()


def test_collapsing_coherent_atoms_is_not_a_morphism():
    m = tri_mod()
    # a ⌢ b strictly, so {a,b} is a clique; collapsing both onto a would
    # need 1 + 1 in I
    f = linmap(m, m, {("a", "a"): 1, ("b", "a"): 1})
    assert not is_morphism(f).ok
    # collapsing the incoherent pair {a,c} is fine: they never share a clique
    g = linmap(m, m, {("a", "a"): 1, ("c", "a"): 1})
    assert is_morphism(g).ok


def test_compose_rational():
    m, basis = simplex_mod()
    h = Fraction(1, 2)
    f = linmap(m, m, {("a", "a"): h, ("b", "b"): h})
    ff = compose(f, f)
    assert ff.matrix.entry("a", "a") == Fraction(1, 4)


def test_compose_undefined_entry_raises():
    w = web("a", "b")
    m = free_module(I, w)
    f = linmap(m, m, {("a", "a"): 1, ("a", "b"): 1})
    g = linmap(m, m, {("a", "a"): 1, ("b", "a"): 1})
    with pytest.raises(IntegrityError):
        compose(f, g)  # entry (a,a) needs 1 + 1 in I


# ---------------------------------------------------------------------------
# morphism checks


def test_is_morphism_coherence_strategy():
    m = tri_mod()
    rep = is_morphism(identity(m))
    assert rep.ok and rep.strategy == "coherence"


def _benchmark_reference():
    """The benchmark's known answers, computed without smodlab."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _coherence_spaces(max_atoms):
    for n in range(1, max_atoms + 1):
        atoms = tuple("abc"[:n])
        offdiag = list(itertools.combinations(atoms, 2))
        for bits in range(2 ** len(offdiag)):
            yield coherence_module(coherence_space(
                f"S{n}_{bits}", atoms, [p for i, p in enumerate(offdiag) if bits >> i & 1]))


def test_is_morphism_into_and_out_of_free_I_matches_enumeration():
    # a free I-module is the complete coherence space: every 0/1 matrix
    # between such modules gets the coherence verdict the enumeration gives
    reference = _benchmark_reference()
    free = [free_module(I, web(*"xy"[:n]), f"free{n}") for n in (1, 2)]
    sources = list(_coherence_spaces(3)) + free
    targets = free + list(_coherence_spaces(2))
    for src in sources:
        src_enum = enumerated_module(I, src.web, src.carrier_vectors())
        for dst in targets:
            dst_enum = enumerated_module(I, dst.web, dst.carrier_vectors())
            cells = list(itertools.product(src.web.atoms, dst.web.atoms))
            for bits in range(2 ** len(cells)):
                entries = {c: 1 for i, c in enumerate(cells) if bits >> i & 1}
                rep = is_morphism(linmap(src, dst, entries))
                oracle = is_morphism(linmap(src_enum, dst_enum, entries))
                assert (rep.strategy, oracle.strategy) == ("coherence", "enumerated")
                assert rep.ok is oracle.ok, (src, dst, entries)
                if src in free and dst in free:
                    assert rep.ok is reference.free_morphism("I", entries)


def test_basis_of_a_coherence_module_needs_no_enumerated_functional():
    m, basis = F_embed(coherence_space("A", ("a", "b", "c"), [("a", "b")]))
    reps = [is_morphism(phi) for _, phi in basis.pairs]
    assert all(r.ok is True and r.strategy == "coherence" for r in reps)
    assert validate_basis(m, basis).ok is True


def test_is_morphism_polytope_strategy():
    m, basis = simplex_mod()
    f = linmap(m, m, {("a", "b"): 1, ("b", "a"): 1})
    rep = is_morphism(f)
    assert rep.ok and rep.strategy == "polytope-generators"
    g = linmap(m, m, {("a", "a"): 1, ("a", "b"): 1})
    assert not is_morphism(g).ok  # image of e_a leaves the simplex


@pytest.mark.parametrize("dst_semiring,entry,ok", [
    (UNIT, Fraction(1, 2), False),  # the ray through {a:1} leaves [0,1]
    (UNIT, 0, True),
    (RPOS, Fraction(1, 2), True),
], ids=["rpos-to-unit", "rpos-to-unit-zero", "rpos-to-rpos"])
def test_is_morphism_free_rpos_source_is_a_cone(dst_semiring, entry, ok):
    f = linmap(free_module(RPOS, web("a")), free_module(dst_semiring, web("a")),
               {("a", "a"): entry})
    rep = is_morphism(f)
    assert rep.ok is ok and rep.strategy == "polytope-generators"
    if entry:
        image = apply(f, vec(f.src.web, {"a": 10}))
        assert (image is UNDEF) is not ok


def test_is_morphism_cut_short_by_its_bound_is_unknown():
    # N^2 into [0,1]^2: neither side settles it on generators, and N^2
    # cannot be enumerated
    f = linmap(free_module(N, web("a", "b")), free_module(UNIT, web("a", "b")),
               {("a", "a"): 1, ("b", "b"): 1})
    rep = is_morphism(f)
    assert rep.ok is UNKNOWN and rep.strategy == "none"
    with pytest.raises(IntegrityError, match="bound"):
        verify(f)


@pytest.mark.parametrize("s", [B, F, N, NINF, RPOS])
def test_is_morphism_into_a_free_module_over_the_same_semiring_is_proved(s):
    # R^A is free on the δ_a: every R-matrix is a morphism R^A -> R^B
    src, dst = free_module(s, web("a", "b")), free_module(s, web("x"))
    top = INF if s is NINF else 2 if s in (N, RPOS) else 1
    rep = is_morphism(linmap(src, dst, {("a", "x"): top, ("b", "x"): 1}))
    assert rep.ok is True and rep.strategy == "polytope-generators"
    assert rep.checked == 2


@pytest.mark.parametrize("s,t", [(N, UNIT), (B, UNIT), (B, N)])
def test_is_morphism_from_a_free_module_into_another_semiring_is_not_proved(s, t):
    # 2·δ_a leaves [0,1], and δ_a + δ_a = δ_a over B is 2·δ_a over N: the
    # image of δ_a alone must not prove the map
    f = linmap(free_module(s, web("a")), free_module(t, web("a")), {("a", "a"): 1})
    assert is_morphism(f).ok is not True
    if s is N:
        assert apply(f, vec(f.src.web, {"a": 2})) is UNDEF


@pytest.mark.parametrize("s,entry", [(B, 2), (N, Fraction(1, 2))])
def test_linmap_refuses_an_entry_outside_the_target_carrier(s, entry):
    # over B an entry 2 would act as 0 in the product; over N 1/2 has no sum
    m = free_module(s, web("a"))
    with pytest.raises(CarrierError, match="carrier"):
        linmap(m, m, {("a", "a"): entry})


@pytest.mark.parametrize("s", [broken_F(), naive_complete(N)])
def test_is_morphism_proves_no_free_module_over_an_unproved_semiring(s):
    # finitely complete by its flag, but its Σ-axioms are not proved
    m = free_module(s, web("a"))
    assert is_morphism(linmap(m, m, {("a", "a"): 1})).strategy != "polytope-generators"


def _enumerated_copy(m, values=None):
    """m's carrier, or its sub-carrier with coordinates in `values`, as an
    explicit carrier over the same semiring."""
    if values is None:
        vectors = m.carrier_vectors()
    else:
        vectors = [vec(m.web, dict(zip(m.web.atoms, combo)))
                   for combo in itertools.product(values, repeat=len(m.web))]
    return enumerated_module(m.semiring, m.web, vectors)


@st.composite
def free_finite_maps(draw):
    """A 0/1 matrix between free B or F modules of 1-2 atoms."""
    s = draw(st.sampled_from((B, F)))
    src = free_module(s, Web(tuple(f"a{k}" for k in range(draw(st.integers(1, 2))))))
    dst = free_module(s, Web(tuple(f"b{k}" for k in range(draw(st.integers(1, 2))))))
    entries = {(a, b): 1 for a in src.web.atoms for b in dst.web.atoms
               if draw(st.booleans())}
    return src, dst, entries


@settings(max_examples=40, deadline=None)
@given(free_finite_maps())
def test_generator_verdict_matches_the_enumerated_one_over_B_and_F(case):
    src, dst, entries = case
    fast = is_morphism(linmap(src, dst, entries))
    slow = is_morphism(linmap(_enumerated_copy(src), _enumerated_copy(dst), entries))
    assert fast.strategy == "polytope-generators" and slow.strategy == "enumerated"
    assert fast.ok is slow.ok


@pytest.mark.parametrize("s", [B, F])
def test_lolli_of_free_modules_is_the_enumerated_function_space(s):
    # the brute-force function space of the enumerated copies has the same
    # carrier as the free module on the pair web
    m, n = free_module(s, web("a", "b")), free_module(s, web("x", "y"))
    fast, fast_b = lolli_obj(m, n, gamma_basis(m), gamma_basis(n))
    slow, _ = lolli_obj(_enumerated_copy(m), _enumerated_copy(n),
                        gamma_basis(m), gamma_basis(n))
    assert isinstance(fast.presentation, FreeP)
    assert not isinstance(slow.presentation, FreeP)
    assert set(fast.carrier_vectors()) == set(slow.carrier_vectors())
    assert len(slow.carrier_vectors()) == 2 ** 4
    assert validate_basis(fast, fast_b).ok is True


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((N, NINF)), st.data())
def test_generator_verdict_over_N_matches_a_bounded_enumeration(s, data):
    # the enumerated check from the sub-carrier {0,1,2}^A (with inf over
    # Ninf) into the free target agrees with the proof on the δ_a
    values = (0, 1, 2, INF) if s is NINF else (0, 1, 2)
    src, dst = free_module(s, web("a", "b")), free_module(s, web("x", "y"))
    entries = {(a, b): data.draw(st.sampled_from(values + (3,)))
               for a in src.web.atoms for b in dst.web.atoms}
    fast = is_morphism(linmap(src, dst, entries))
    slow = is_morphism(linmap(_enumerated_copy(src, values), dst, entries))
    assert fast.strategy == "polytope-generators" and slow.strategy == "enumerated"
    assert fast.ok is slow.ok is True


def test_is_morphism_from_a_product_of_cones_is_decided():
    # a product of cones is the cone on the disjoint web, checked on its rays
    a = free_module(RPOS, web("a"))
    rep = is_morphism(linmap(product_module([a, a]), a, {("0.a", "a"): 1}))
    assert rep.ok is True and rep.strategy == "polytope-generators"


def componentwise(whole, parts, at_most_one):
    """The (co)product `whole` presented part by part, as a ProductP."""
    prefixed = tuple((f"{i}.", m) for i, m in enumerate(parts))
    return BasedModule(whole.semiring, whole.web, ProductP(prefixed, at_most_one))


@st.composite
def product_maps(draw):
    """A 0/1 matrix into or out of a (co)product of coherence spaces (free
    I-modules among them), or of a product of free B or F modules, with the
    same matrix on the (co)product presented componentwise."""
    s = draw(st.sampled_from((I, I, B, F)))  # every 0/1 matrix is a B or F map

    def part(prefix, most):
        atoms = tuple(f"{prefix}{k}" for k in range(draw(st.integers(1, most))))
        if s is I and draw(st.booleans()):
            pairs = [p for p in itertools.combinations(atoms, 2) if draw(st.booleans())]
            return coherence_module(coherence_space(prefix, atoms, pairs))
        return free_module(s, Web(atoms))

    parts = [part("p", 3), part("q", 3)]
    at_most_one = s is I and draw(st.booleans())
    whole = (coproduct_module if at_most_one else product_module)(parts)
    slow = componentwise(whole, parts, at_most_one)
    other = part("x", 2)
    into = draw(st.booleans())
    src, dst = (other, whole) if into else (whole, other)
    cells = [(a, b) for a in src.web.atoms for b in dst.web.atoms]
    entries = {c: 1 for c in cells if draw(st.booleans())}
    return (linmap(src, dst, entries),
            linmap(other, slow, entries) if into else linmap(slow, other, entries))


@settings(max_examples=60, deadline=None)
@given(product_maps())
def test_is_morphism_on_a_folded_product_matches_the_componentwise_one(maps):
    folded, slow = maps
    assert not any(isinstance(m.presentation, ProductP) for m in (folded.src, folded.dst))
    assert is_morphism(folded).ok is is_morphism(slow).ok


def test_is_morphism_keeps_no_presentation_alive():
    P = pcoh_space("P", ("a", "b"), [(1, 0), (0, 1)])
    m = H_embed(P)
    assert is_morphism(identity(m)).ok
    pres = weakref.ref(m.presentation)
    del m
    gc.collect()
    assert pres() is None


# ---------------------------------------------------------------------------
# bases


def test_validate_basis_coherence_and_pcoh():
    m, basis = F_embed(coherence_space("A", ("a", "b"), [("a", "b")]))
    assert validate_basis(m, basis).ok is True
    m2, b2 = simplex_mod()
    assert validate_basis(m2, b2).ok is True


@pytest.mark.parametrize("s", [N, NINF])
def test_validate_basis_of_free_N_is_proved_on_its_generators(s):
    m = free_module(s, web("a", "b"))
    rep = validate_basis(m, gamma_basis(m))
    assert rep.ok is True and rep.strategy == "polytope-generators"


def test_validate_basis_rejects_fake():
    m, basis = F_embed(coherence_space("A", ("a", "b"), []))
    # functional claiming phi_a = phi_b breaks reconstruction
    wrong = DualBasis(tuple(
        (e, functional(m, {"a": 1})) for e, _ in basis.pairs))
    assert validate_basis(m, wrong).ok is False


def test_validate_basis_rejects_doubled_functionals_over_pcoh():
    m, basis = simplex_mod()
    doubled = DualBasis(tuple(
        (e, functional(m, {a: 2 * v for (a, _), v in phi.matrix.entries}))
        for e, phi in basis.pairs))
    assert validate_basis(m, doubled).ok is False


def test_validate_basis_checks_reconstruction_off_the_generators():
    # x ↦ (x_a + x_b)/2 · (δ_a + δ_b) fixes the box's one generator (1, 1)
    # but not its member (1, 0)
    m = H_embed(pcoh_space("Bx", ("a", "b"), [(1, 1)]))
    half = Fraction(1, 2)
    mean = DualBasis(tuple((vec(m.web, {a: 1}),
                            functional(m, {"a": half, "b": half}))
                           for a in m.web.atoms), orthogonal=False)
    rep = validate_basis(m, mean)
    assert rep.ok is False and rep.strategy == "polytope-generators"


# ---------------------------------------------------------------------------
# tensor / lolli / duality


def test_tensor_obj_coherence():
    m = tri_mod()
    t, tb = tensor_obj(m, m, F_embed(m.presentation.space)[1],
                       F_embed(m.presentation.space)[1])
    assert "(a,b)" in t.web.atoms
    assert t.admits(vec(t.web, {"(a,b)": 1}))
    assert t.admits(vec(t.web, {"(a,a)": 1, "(b,b)": 1}))
    assert not t.admits(vec(t.web, {"(a,a)": 1, "(c,c)": 1}))
    assert validate_basis(t, tb).ok is True


def test_tensor_obj_free_rpos_is_free_rpos():
    m = free_module(RPOS, web("a", "b"))
    t, tb = tensor_obj(m, m, gamma_basis(m), gamma_basis(m))
    assert t == free_module(RPOS, pair_web(m.web, m.web), "⊗")
    assert t.admits(vec(t.web, {"(a,b)": 7}))
    assert len(tb) == 4


def test_lolli_obj_free_rpos_is_free_rpos():
    # the maps between two cones are the nonnegative matrices
    m = free_module(RPOS, web("a"))
    d, db = lolli_obj(m, m, gamma_basis(m), gamma_basis(m))
    assert isinstance(d.presentation, FreeP) and d.semiring is RPOS
    assert validate_basis(d, db).ok is True


def test_lolli_obj_semiring_dual():
    s_mod = semiring_module(I)
    m = tri_mod()
    mb = F_embed(m.presentation.space)[1]
    d, db = lolli_obj(m, s_mod, mb, unit_basis(I))
    assert validate_basis(d, db).ok is True


def test_matrix_of_identity_is_identity():
    m, basis = simplex_mod()
    mat = matrix_of(identity(m), basis, basis)
    assert mat.entry("i0", "j0") == 1 and mat.entry("i1", "j1") == 1
    assert mat.entry("i0", "j1") == 0 and mat.entry("i1", "j0") == 0


def test_dual_and_eta_coherence():
    A = coherence_space("A", ("a", "b"), [("a", "b")])
    m, basis = F_embed(A)
    rep = dual_and_eta(m, basis)
    assert rep.eta_iso and rep.mu_eta_identity


def test_dual_and_eta_pcoh():
    m, basis = simplex_mod()
    rep = dual_and_eta(m, basis)
    assert rep.eta_iso and rep.mu_eta_identity


def test_lolli_obj_reuses_the_polar_an_embedded_target_holds(monkeypatch):
    from smodlab import ratlp
    from smodlab.basedmod import BasedModule, PolytopeP
    calls = []
    polar_vertices = ratlp.polar_vertices

    def counting(gens, dim):
        calls.append(dim)
        return polar_vertices(gens, dim)

    monkeypatch.setattr(ratlp, "polar_vertices", counting)
    P = pcoh_space("P", ("a", "b", "c"), [(1, 0, 1), (0, 1, 1)])
    Q = pcoh_space("Q", ("x", "y"), [(1, 1)])
    m, bm = H_embed(P), pcoh_gamma_and_basis(P)[1]
    n, bn = H_embed(Q), pcoh_gamma_and_basis(Q)[1]
    lol, _ = lolli_obj(m, n, bm, bn)
    assert len(calls) == 2  # one polar per H_embed, none for the lolli
    # the target by its generators alone: the same constraints, one more polar
    bare = BasedModule(n.semiring, n.web, PolytopeP(generators=Q.generators))
    assert lolli_obj(m, bare, bm, bn)[0].presentation == lol.presentation
    assert len(calls) == 3
