from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smodlab import ratlp
from smodlab.basedmod import (BasedModule, EnumeratedP, MembershipError,
                              PolytopeP, UNKNOWN, Vector, Verdict,
                              Web, WebMismatch, classify_submodule,
                              coproduct_module, enumerated_module,
                              free_module, preorder_leq_vec, product_module,
                              scalar_action, vec, vec_sum, web, zero_module)
from smodlab.models import H_embed, pcoh_space
from smodlab.scalars import (B, F, I, N, OMEGA, UNDEF, UNIT, CarrierError)


def test_vec_construction_and_web_checks():
    w = web("a", "b")
    x = vec(w, {"a": 1})
    assert x.value("a") == 1 and x.value("b") == 0
    assert x.support == frozenset({"a"})
    with pytest.raises(WebMismatch):
        vec(w, {"c": 1})


def test_free_module_sums_follow_the_semiring():
    m = free_module(I, web("a", "b"))
    x, y = vec(m.web, a=1), vec(m.web, b=1)
    assert vec_sum(m, ((x, 1), (y, 1))) == vec(m.web, a=1, b=1)
    assert vec_sum(m, ((x, 2),)) is UNDEF
    assert vec_sum(m, ((x, OMEGA), (y, 1))) is UNDEF


def test_free_module_rational_carrier():
    m = free_module(UNIT, web("a"))
    assert m.admits(vec(m.web, a=Fraction(1, 3)))
    assert not m.admits(vec(m.web, a=Fraction(3, 2)))


def test_enumerated_module_with_sum_rule():
    # {0,1} with join: a B-flavored carrier sitting over the I scalars
    w = web("*")
    vs = (vec(w), vec(w, {"*": 1}))
    join = lambda fam: 1 if any(v == 1 for v, _ in fam) else 0
    m = enumerated_module(I, w, vs, sum_rule=join)
    one = vec(w, {"*": 1})
    assert vec_sum(m, ((one, 1), (one, 1))) == one
    assert m.carrier_vectors() is not None


def test_scalar_action():
    m = free_module(UNIT, web("a", "b"))
    x = vec(m.web, a=Fraction(1, 2), b=1)
    y = scalar_action(m, Fraction(1, 2), x)
    assert y == vec(m.web, a=Fraction(1, 4), b=Fraction(1, 2))


def test_product_and_coproduct():
    m = free_module(I, web("a"))
    n = free_module(I, web("b"))
    p = product_module([m, n])
    assert p.web.atoms == ("0.a", "1.b")
    both = vec(p.web, {"0.a": 1, "1.b": 1})
    assert p.admits(both)
    c = coproduct_module([m, n])
    assert c.admits(vec(c.web, {"0.a": 1}))
    assert not c.admits(vec(c.web, {"0.a": 1, "1.b": 1}))


def test_a_product_of_polytopes_is_generated_by_concatenated_pairs():
    P = H_embed(pcoh_space("P", ("a", "b"), [(1, 0), (0, 1)]))
    Q = H_embed(pcoh_space("Q", ("c",), [(Fraction(1, 2),)]))
    p, c = product_module([P, Q]), coproduct_module([P, Q])
    assert set(p.presentation.polytope(p)) == {(1, 0, Fraction(1, 2)),
                                               (0, 1, Fraction(1, 2))}
    assert c.presentation.polytope(c) is None


def test_preorder():
    m = free_module(N, web("a"))
    assert preorder_leq_vec(m, vec(m.web, a=1), vec(m.web, a=3)) is True
    assert preorder_leq_vec(m, vec(m.web, a=3), vec(m.web, a=1)) is False


# ---------------------------------------------------------------------------
# submodule classification


def _scalar_submodule(ambient, values, sum_rule=None):
    w = web("*")
    vs = tuple(vec(w, {"*": v}) for v in values)
    return enumerated_module(ambient, w, vs, sum_rule=sum_rule)


def test_I_inside_F_is_not_sum_reflecting():
    w = web("*")
    sup = free_module(F, w)
    sub = _scalar_submodule(F, (0, 1), sum_rule=I.sum_family)
    is_submodule, is_sum_reflecting, _ = classify_submodule(sub, sup).checks
    assert is_submodule.ok is True
    assert is_sum_reflecting.ok is False


def test_I_inside_N_is_sum_reflecting():
    w = web("*")
    sup = free_module(N, w)
    sub = _scalar_submodule(N, (0, 1), sum_rule=I.sum_family)
    is_submodule, is_sum_reflecting, _ = classify_submodule(sub, sup).checks
    assert is_submodule.ok is True
    assert is_sum_reflecting.ok is True


def test_unknown_has_no_truth_value():
    with pytest.raises(TypeError):
        bool(UNKNOWN)


def test_verdict_conjunction_puts_false_before_unknown():
    t, f, u = (Verdict("part", ok) for ok in (True, False, UNKNOWN))
    assert Verdict.all("all", (t, t)).ok is True
    assert Verdict.all("all", (t, u)).ok is UNKNOWN
    assert Verdict.all("all", (u, f, t)).ok is False
    assert Verdict.all("all", (u,)).as_json()["ok"] == "unknown"


def test_classify_beyond_its_summed_vectors_is_unknown():
    # 16 enumerated carrier vectors, of which only the first 12 are summed
    m = free_module(B, web("a", "b", "c", "d"))
    rep = classify_submodule(m, m)
    assert [c.ok for c in rep.checks] == [UNKNOWN] * 3
    assert all("first 12 of 16" in c.counterexample for c in rep.checks)
    assert all(c.strategy == "enumerated" for c in rep.checks)


def test_classify_requires_shared_web():
    with pytest.raises(WebMismatch):
        classify_submodule(free_module(I, web("a")), free_module(I, web("b")))


def test_zero_module():
    z = zero_module(I)
    assert z.web.atoms == ()
    assert z.admits(vec(z.web))


_QUARTERS = st.integers(min_value=0, max_value=8).map(lambda k: Fraction(k, 4))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(lambda dim: st.tuples(
    st.lists(st.tuples(*[_QUARTERS] * dim), min_size=1, max_size=3),
    st.lists(st.tuples(*[_QUARTERS] * dim), min_size=1, max_size=6))))
def test_constraint_polytope_hull_matches_its_constraints(case):
    constraints, points = case
    dim = len(constraints[0])
    # every atom needs a positive constraint entry, or the polar is a cone
    constraints = constraints + [(Fraction(1),) * dim]
    m = BasedModule(UNIT, Web(tuple(f"x{i}" for i in range(dim))),
                    PolytopeP(constraints=tuple(constraints)))
    hull = m.presentation.polytope(m)
    for u in points:
        by_constraints = all(sum(c * x for c, x in zip(con, u)) <= 1
                             for con in constraints)
        assert ratlp.in_bipolar(hull, u) == by_constraints
