"""Differential oracles for `linmaps.sparse_product`, the one sparse matrix
product behind compose, apply, weighted relations, glue morphisms and graded
membership.  The dense loops it replaced are kept here as the references:
on random sparse matrices and vectors over every shipped semiring the two
must give the same value, UNDEF or error."""

import functools
import itertools
from fractions import Fraction

from hypothesis import find, given, settings, strategies as st

from smodlab.basedmod import IntegrityError, Web, free_module, vec
from smodlab.exponential import bang
from smodlab.linmaps import (DualBasis, LinMap, Matrix, apply, compose,
                             functional, gamma_basis)
from smodlab.models import (GlueObject, H_embed, ModelError, coherence_module,
                            coherence_space, glue_is_morphism,
                            glue_tight_closure, pcoh_gamma_and_basis,
                            pcoh_space, wrel_compose)
from smodlab.scalars import B, F, I, INF, N, NINF, RPOS, UNDEF, UNIT, Semiring

# I's partial sum on a semiring that claims to be complete: the one way to
# reach wrel_compose's undefined-sum error
FALSE_COMPLETE_I = Semiring("I*", "finite", 0, 1, True, True, (0, 1),
                            I._sum_rule, I._mul_rule)

# nonzero entry values per semiring; sparsity comes from the cells drawn
VALUES = {
    I: (1,), B: (1,), F: (1,), N: (1, 2, 3), NINF: (1, 2, INF),
    UNIT: (Fraction(1, 3), Fraction(1, 2), Fraction(1)),
    RPOS: (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)),
    FALSE_COMPLETE_I: (1,),
}
SHIPPED = (I, B, F, N, NINF, UNIT, RPOS)


def _outcome(fn, *args):
    """A call's value, or the type of the library error it raises."""
    try:
        return fn(*args)
    except (IntegrityError, ModelError) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# the dense references


def dense_image(f: LinMap, x):
    """`apply` as one dense column scan per target atom."""
    s = f.src.semiring
    coords = {}
    for b in f.dst.web.atoms:
        terms = [s.ambient_mul(m_ab, x.value(a))
                 for (a, bb), m_ab in f.matrix.entries
                 if bb == b and x.value(a) != 0]
        if not terms:
            continue
        got = s.ambient_sum(terms)
        if got is UNDEF:
            return UNDEF
        if got != 0:
            coords[b] = got
    out = vec(f.dst.web, coords)
    return out if f.dst.admits(out) else UNDEF


def dense_compose(f: LinMap, g: LinMap) -> LinMap:
    s = f.src.semiring
    entries = {}
    for a in f.src.web.atoms:
        for c in g.dst.web.atoms:
            terms = []
            for b in f.dst.web.atoms:
                fab, gbc = f.matrix.entry(a, b), g.matrix.entry(b, c)
                if fab != 0 and gbc != 0:
                    terms.append(s.ambient_mul(gbc, fab))
            if not terms:
                continue
            got = s.ambient_sum(terms)
            if got is UNDEF:
                raise IntegrityError(
                    f"composition entry ({a},{c}) has an undefined sum")
            if got != 0:
                entries[(a, c)] = got
    return LinMap(f.src, g.dst, Matrix.make(f.src.web, g.dst.web, entries),
                  verified=f.verified and g.verified)


def dense_wrel_compose(s: Semiring, f: Matrix, g: Matrix) -> Matrix:
    if not s.is_complete:
        raise ModelError(f"{s.name} is not complete")
    entries = {}
    for a in f.src_web.atoms:
        for c in g.dst_web.atoms:
            terms = [s.ambient_mul(g.entry(b, c), f.entry(a, b))
                     for b in f.dst_web.atoms]
            got = s.ambient_sum(t for t in terms if t != 0)
            if got is UNDEF:
                raise ModelError(f"entry ({a},{c}) has an undefined sum")
            if got != 0:
                entries[(a, c)] = got
    return Matrix.make(f.src_web, g.dst_web, entries)


def _ninf_mul(a, b):
    if a == 0 or b == 0:
        return 0
    if a is INF or b is INF:
        return INF
    return a * b


def _ninf_sum(terms):
    total = 0
    for t in terms:
        if t is INF:
            return INF
        total += t
    return total


def dense_glue_is_morphism(f: Matrix, A: GlueObject, B: GlueObject) -> bool:
    for u in A.u:
        img = tuple(_ninf_sum(_ninf_mul(f.entry(a, b), ua)
                              for a, ua in zip(A.web.atoms, u))
                    for b in B.web.atoms)
        if img not in B.u:
            return False
    for x in B.x:
        pre = tuple(_ninf_sum(_ninf_mul(f.entry(a, b), xb)
                              for b, xb in zip(B.web.atoms, x))
                    for a in A.web.atoms)
        if pre not in A.x:
            return False
    return True


def dense_admits(module, v) -> bool:
    """`SymGradedP.admits` on per-label tables, summing term by term."""
    s = module.semiring
    for _, T, flat in module.presentation.layers:
        table = {}
        for (a, label), x in flat:
            table.setdefault(label, []).append((a, x))
        coords = {}
        for label, e_coords in table.items():
            r = v.value(label)
            if r == 0:
                continue
            for a, x in e_coords:
                t = s.ambient_mul(r, x)
                got = s.ambient_sum((coords[a], t) if a in coords else (t,))
                if got is UNDEF:
                    return False
                coords[a] = got
        if not T.admits(vec(T.web, {a: x for a, x in coords.items() if x != 0})):
            return False
    return True


# ---------------------------------------------------------------------------
# random sparse matrices and vectors


def _web(prefix: str, n: int) -> Web:
    return Web(tuple(f"{prefix}{i}" for i in range(n)))


def _sparse(s, keys):
    return st.dictionaries(st.sampled_from(keys), st.sampled_from(VALUES[s]),
                           max_size=len(keys))


def _matrix(s, src: Web, dst: Web):
    cells = [(a, b) for a in src.atoms for b in dst.atoms]
    return _sparse(s, cells).map(lambda e: Matrix.make(src, dst, e))


_SIZES = st.integers(min_value=1, max_value=3)


@st.composite
def chains(draw, semirings):
    """(s, m1, m2) with m1: a → b and m2: b → c over s."""
    s = draw(st.sampled_from(semirings))
    wa, wb, wc = (_web(p, draw(_SIZES)) for p in "abc")
    return s, draw(_matrix(s, wa, wb)), draw(_matrix(s, wb, wc))


def _maps(chain):
    s, m1, m2 = chain
    return tuple(LinMap(free_module(s, m.src_web), free_module(s, m.dst_web), m)
                 for m in (m1, m2))


@st.composite
def applications(draw, semirings):
    """(f, x) with f a map of free modules and x a member of its source."""
    s = draw(st.sampled_from(semirings))
    src, dst = _web("a", draw(_SIZES)), _web("b", draw(_SIZES))
    f = LinMap(free_module(s, src), free_module(s, dst),
               draw(_matrix(s, src, dst)))
    return f, vec(src, draw(_sparse(s, src.atoms)))


@functools.cache
def _glue_objects():
    w1, w2 = Web(("g",)), Web(("g", "h"))
    seeds = [(w1, [(0,), (1,)]), (w1, [(1,)]), (w1, [(INF,)]),
             (w2, [(1, 0), (0, 1)]), (w2, [(1, 1)]), (w2, [(1, 0), (0, 2)])]
    return [glue_tight_closure(w, us, bound=1) for w, us in seeds]


@st.composite
def glue_maps(draw):
    A, B_ = (draw(st.sampled_from(_glue_objects())) for _ in "AB")
    return draw(_matrix(NINF, A.web, B_.web)), A, B_


def _skew(m):
    """A basis of a 2-atom I-module whose e_a = δ_a + δ_b overlaps e_b."""
    w = m.web
    return DualBasis(((vec(w, {"a": 1, "b": 1}), functional(m, {"a": 1})),
                      (vec(w, {"b": 1}), functional(m, {"b": 1}))))


@functools.cache
def _bangs():
    """Graded bangs at degree 2: free modules over B, F, N, Ninf and Rpos, a
    pcoh module over unit, and a free I-module whose skewed basis makes
    orbit coordinates overlap, so a layer sum can be undefined."""
    w = Web(("a", "b"))
    out = []
    for s in (B, F, N, NINF, RPOS):
        m = free_module(s, w)
        out.append(bang(m, gamma_basis(m), 2))
    m = free_module(I, w)
    out.append(bang(m, _skew(m), 2))
    P = pcoh_space("P", ("a", "b"), [(1, 0), (Fraction(1, 2), 1)])
    out.append(bang(H_embed(P), pcoh_gamma_and_basis(P)[1], 2))
    return out


@st.composite
def graded_vectors(draw):
    module = draw(st.sampled_from(_bangs())).module
    return module, vec(module.web, draw(_sparse(module.semiring, module.web.atoms)))


# ---------------------------------------------------------------------------
# the oracles


@settings(max_examples=300, deadline=None)
@given(chains(SHIPPED))
def test_compose_matches_the_dense_product(chain):
    f, g = _maps(chain)
    assert _outcome(compose, f, g) == _outcome(dense_compose, f, g)


@settings(max_examples=300, deadline=None)
@given(applications(SHIPPED))
def test_apply_matches_the_dense_product(case):
    f, x = case
    assert apply(f, x) == dense_image(f, x)


@settings(max_examples=300, deadline=None)
@given(chains(SHIPPED + (FALSE_COMPLETE_I,)))
def test_wrel_compose_matches_the_dense_product(chain):
    s, m1, m2 = chain
    assert (_outcome(wrel_compose, s, m1, m2)
            == _outcome(dense_wrel_compose, s, m1, m2))


@settings(max_examples=200, deadline=None)
@given(glue_maps())
def test_glue_is_morphism_matches_the_dense_products(case):
    assert glue_is_morphism(*case) is dense_glue_is_morphism(*case)


@settings(max_examples=200, deadline=None)
@given(graded_vectors())
def test_graded_membership_matches_the_dense_layer_sums(case):
    module, v = case
    assert module.admits(v) is dense_admits(module, v)


def test_random_matrices_reach_every_outcome():
    # the oracles above compare undefined sums too, not only values
    find(chains((I,)), lambda c: _outcome(dense_compose, *_maps(c)) is IntegrityError)
    find(applications((I,)), lambda c: dense_image(*c) is UNDEF)
    find(chains((FALSE_COMPLETE_I,)),
         lambda c: _outcome(dense_wrel_compose, *c) is ModelError)
    find(chains((NINF,)), lambda c: INF in dict(dense_wrel_compose(*c).entries).values())
    find(glue_maps(), lambda c: dense_glue_is_morphism(*c))
    find(glue_maps(), lambda c: not dense_glue_is_morphism(*c))
    skewed = _bangs()[5].module
    find(st.builds(lambda e: vec(skewed.web, e), _sparse(I, skewed.web.atoms)),
         lambda v: not dense_admits(skewed, v))


def test_bang_of_a_coherence_module_under_a_skewed_basis_is_the_graded_carrier():
    # the multiset exponential presents the bang only for e_a = δ_a; the
    # complete space on {a, b} has the carrier of free(I, {a, b})
    graded = _bangs()[5].module
    m = coherence_module(coherence_space("K", ("a", "b"), [("a", "b")]))
    module = bang(m, _skew(m), 2).module
    assert module.web == graded.web
    vectors = [vec(module.web, {a: 1 for a, bit in zip(module.web.atoms, bits) if bit})
               for bits in itertools.product((0, 1), repeat=len(module.web))]
    admitted = [v for v in vectors if module.admits(v)]
    assert admitted == [v for v in vectors if dense_admits(graded, v)]
    assert len(admitted) == 18
