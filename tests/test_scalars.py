import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smodlab.scalars import (B, F, I, INF, N, NINF, OMEGA, RPOS, SEMIRINGS,
                             UNDEF, UNIT, CarrierError, Semiring,
                             axiom_report, broken_F, format_scalar,
                             naive_complete, normalize_family, parse_scalar)


# ---------------------------------------------------------------------------
# hand-checked sums


def test_I_binary_sum_partial():
    assert I.sum(0, 0) == 0
    assert I.sum(0, 1) == 1
    assert I.sum(1, 1) is UNDEF
    assert I.sum_family(((1, OMEGA),)) is UNDEF
    assert I.sum_family(((0, OMEGA),)) == 0


def test_B_complete_join():
    assert B.sum(1, 1) == 1
    assert B.sum_family(((1, OMEGA),)) == 1
    assert B.is_complete


def test_F_finite_join_only():
    assert F.sum(1, 1) == 1
    assert F.sum_family(((1, OMEGA),)) is UNDEF
    assert F.sum_family(((0, OMEGA), (1, 2))) == 1
    assert F.is_finitely_complete and not F.is_complete


def test_N_sums():
    assert N.sum(2, 3) == 5
    assert N.sum_family(((2, 3),)) == 6
    assert N.sum_family(((1, OMEGA),)) is UNDEF
    assert N.sum_family(((0, OMEGA),)) == 0


def test_NINF_absorbs():
    assert NINF.sum_family(((1, OMEGA),)) is INF
    assert NINF.sum(INF, 3) is INF
    assert NINF.mul(INF, 0) == 0
    assert NINF.mul(INF, 2) is INF


def test_inf_sorts_above_every_natural():
    # an explicit Ninf carrier lists its vectors in order
    assert sorted([INF, 2, 0, INF]) == [0, 2, INF, INF]
    assert 3 < INF and not INF < 3 and not INF < INF


def test_UNIT_threshold():
    h = Fraction(1, 2)
    assert UNIT.sum(h, h) == 1
    assert UNIT.sum(h, Fraction(3, 4)) is UNDEF
    assert UNIT.sum_family(((h, 3),)) is UNDEF
    assert UNIT.mul(h, h) == Fraction(1, 4)


def test_RPOS_total_finite_sums():
    assert RPOS.sum(Fraction(3, 2), Fraction(5, 2)) == 4
    assert RPOS.sum_family(((Fraction(1), OMEGA),)) is UNDEF


def test_carrier_errors():
    with pytest.raises(CarrierError):
        I.sum(1, 2)
    with pytest.raises(CarrierError):
        UNIT.mul(Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(CarrierError):
        N.sum_family(((Fraction(1, 2), 1),))


# ---------------------------------------------------------------------------
# normal forms


def test_normalize_family_merges_and_drops_zeros():
    fam = ((1, 1), (0, 5), (1, 2))
    assert normalize_family(fam) == ((1, 3),)
    assert normalize_family(((1, 2), (1, OMEGA))) == ((1, OMEGA),)
    assert normalize_family(()) == ()


def test_normalize_family_rejects_bad_multiplicity():
    with pytest.raises(ValueError):
        normalize_family(((1, 0),))
    with pytest.raises(ValueError):
        normalize_family(((1, -2),))


@given(st.lists(st.tuples(st.fractions(min_value=0, max_value=1),
                          st.one_of(st.integers(min_value=1, max_value=4),
                                    st.just(OMEGA))),
                max_size=5))
@settings(max_examples=200, deadline=None)
def test_unit_sum_order_invariant(fam):
    fam = tuple(fam)
    assert UNIT.sum_family(fam) == UNIT.sum_family(tuple(reversed(fam)))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                          st.integers(min_value=1, max_value=3)),
                max_size=4))
@settings(max_examples=200, deadline=None)
def test_nat_subfamily_definedness(fam):
    fam = tuple(fam)
    if N.sum_family(fam) is not UNDEF:
        for k in range(len(fam)):
            assert N.sum_family(fam[:k]) is not UNDEF


# ---------------------------------------------------------------------------
# axiom reports


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_axiom_report_passes(name):
    rep = axiom_report(SEMIRINGS[name], samples=40)
    assert rep.ok, rep.lines()


def test_broken_F_fails_subfamily_definedness():
    rep = axiom_report(broken_F())
    assert not rep.ok
    failed = {c.axiom for c in rep.checks if not c.passed}
    assert "subfamily definedness" in failed
    assert [(c.axiom, c.passed, c.checked) for c in rep.checks] == [
        ("unit", True, 5), ("permutation/merge invariance", True, 1815),
        ("subfamily definedness", False, 17),
        ("finite-partition associativity", False, 20), ("distributivity", True, 900)]


def test_naive_completion_of_I_passes_axioms():
    s = naive_complete(I)
    assert s.is_complete
    assert s.sum(1, 1) is INF
    rep = axiom_report(s)
    assert rep.ok
    assert [c.checked for c in rep.checks] == [7, 6860, 30129, 30129, 6400]
    assert naive_complete(s) is s
    assert naive_complete(NINF) is NINF


def _normal_form_path(s: Semiring) -> Semiring:
    """`s` with its rule wrapped: not a shipped rule, so every sum takes the
    ordered carrier check and the normal form."""
    rule = s._sum_rule
    return dataclasses.replace(s, _sum_rule=lambda t, fam: rule(t, fam))


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_axiom_report_is_the_same_on_the_normal_form_path(name):
    s = SEMIRINGS[name]
    slow = _normal_form_path(s)
    assert s._one_pass and not slow._one_pass
    fields = [[(c.axiom, c.passed, c.checked, c.counterexample) for c in
               axiom_report(t, max_entries=3, max_mult=2, samples=8).checks]
              for t in (s, slow)]
    assert fields[0] == fields[1]


# ---------------------------------------------------------------------------
# the generator-based axiom_report the table-driven one replaced, kept as the
# reference: one (passed, lazy message) pair per instance, and every block of
# every split summed on its own


def _family_pool(values, max_entries, mults):
    pairs = [(v, m) for v in values for m in mults]
    for k in range(max_entries + 1):
        yield from itertools.combinations_with_replacement(pairs, k)


def _subfamilies(fam):
    """Proper reductions: drop entries and lower multiplicities."""
    for keep in itertools.product([0, 1], repeat=len(fam)):
        sub = tuple(e for e, k in zip(fam, keep) if k)
        yield sub
    for i, (v, m) in enumerate(fam):
        if m is OMEGA:
            yield fam[:i] + ((v, 1),) + fam[i + 1:]
        elif m > 1:
            yield fam[:i] + ((v, m - 1),) + fam[i + 1:]


def _two_partitions(fam):
    """Entry-level two-block partitions; ω entries may be split as ω + ω."""
    n = len(fam)
    for mask in range(2 ** n):
        left = tuple(fam[i] for i in range(n) if mask & (1 << i))
        right = tuple(fam[i] for i in range(n) if not mask & (1 << i))
        yield left, right
    for i, (v, m) in enumerate(fam):
        rest = fam[:i] + fam[i + 1:]
        if m is OMEGA:
            yield ((v, OMEGA),), rest + ((v, OMEGA),)
        elif m > 1:
            yield ((v, 1),), rest + ((v, m - 1),)


def _reference_axiom_report(s, max_entries=4, max_mult=3, samples=0, seed=0):
    """(axiom, passed, checked, counterexample) per axiom."""
    rng = random.Random(seed)
    if s.is_enumerable:
        values = list(s.carrier_elements())
    else:
        values = s.sample_scalars(rng, max(samples, 6))
    mults = list(range(1, (max_mult if max_mult is not OMEGA else 2) + 1)) + [OMEGA]

    if s.is_enumerable:
        fam_pool = list(_family_pool(values, max_entries, mults))
    else:
        pairs = [(v, m) for v in values for m in mults]
        fam_pool = [(), *(((v, 1),) for v in values)]
        for _ in range(max(samples, 6) * 25):
            k = rng.randint(1, max_entries)
            fam_pool.append(tuple(rng.choice(pairs) for _ in range(k)))

    checks = []

    def run(axiom, gen):
        count = 0
        for passed, cex in gen:
            count += 1
            if not passed:
                checks.append((axiom, False, count, cex() if callable(cex) else cex))
                return
        checks.append((axiom, True, count, None))

    def unit_gen():
        yield s.sum_family(()) == s.zero, "empty sum != 0"
        for v in values:
            got = s.sum_family(((v, 1),))
            yield got == v, lambda v=v, got=got: f"sum[({v},1)] = {got!r}"
            padded = s.sum_family(((v, 1), (s.zero, 2)))
            yield padded == v, lambda v=v: f"zero padding changed sum of {v}"

    def perm_gen():
        for fam in fam_pool:
            ref = s.sum_family(fam)
            rev = s.sum_family(tuple(reversed(fam)))
            yield rev == ref, lambda fam=fam: f"reversal of {fam} changed sum"
            for i, (v, m) in enumerate(fam):
                if m is OMEGA:
                    split = fam[:i] + ((v, 1), (v, OMEGA)) + fam[i + 1:]
                elif m > 1:
                    split = fam[:i] + ((v, 1), (v, m - 1)) + fam[i + 1:]
                else:
                    continue
                got = s.sum_family(split)
                yield got == ref, lambda i=i, fam=fam, ref=ref, got=got: \
                    f"splitting entry {i} of {fam}: {ref!r} vs {got!r}"

    def subfam_gen():
        for fam in fam_pool:
            if s.sum_family(fam) is UNDEF:
                continue
            for sub in _subfamilies(fam):
                yield s.sum_family(sub) is not UNDEF, lambda fam=fam, sub=sub: \
                    f"{fam} defined but subfamily {sub} undefined"

    def partition_gen():
        pool = fam_pool if s.is_enumerable else fam_pool[:5000]
        for fam in pool:
            whole = s.sum_family(fam)
            for left, right in _two_partitions(fam):
                ls, rs = s.sum_family(left), s.sum_family(right)
                if ls is UNDEF or rs is UNDEF:
                    outer = UNDEF
                else:
                    outer = s.sum_family(((ls, 1), (rs, 1)))
                ok = outer == whole or (outer is UNDEF and whole is UNDEF)
                yield ok, lambda fam=fam, left=left, right=right, whole=whole, outer=outer: \
                    f"{fam} split {left}|{right}: {whole!r} vs {outer!r}"

    def distrib_gen():
        small = min(max_entries, 2)
        fams = [f for f in fam_pool if len(f) <= small][:80]
        for xs in fams:
            sx = s.sum_family(xs)
            if sx is UNDEF:
                continue
            for ys in fams:
                sy = s.sum_family(ys)
                if sy is UNDEF:
                    continue
                prod = s.mul(sx, sy)
                cross = []
                for xv, xm in xs:
                    for yv, ym in ys:
                        p = s.mul(xv, yv)
                        if xm is OMEGA or ym is OMEGA:
                            m = OMEGA
                        else:
                            m = xm * ym
                        cross.append((p, m))
                dbl = s.sum_family(cross)
                yield dbl == prod, lambda xs=xs, ys=ys, prod=prod, dbl=dbl: \
                    f"({xs})*({ys}): product {prod!r}, double sum {dbl!r}"

    run("unit", unit_gen())
    run("permutation/merge invariance", perm_gen())
    run("subfamily definedness", subfam_gen())
    run("finite-partition associativity", partition_gen())
    run("distributivity", distrib_gen())
    return checks


def _report_fields(s, *bounds, seed=0):
    return [(c.axiom, c.passed, c.checked, c.counterexample)
            for c in axiom_report(s, *bounds, seed=seed).checks]


REPORT_CASES = {**SEMIRINGS, "broken_F": broken_F(), "I~inf": naive_complete(I),
                **{f"{name}-normal-form": _normal_form_path(s)
                   for name, s in SEMIRINGS.items()}}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_axiom_report_matches_the_generator_reference(name):
    s = REPORT_CASES[name]
    for bounds in ((3, 2, 8), (4, 3, 40)):
        for seed in ((0,) if s.is_enumerable else (0, 1, 7)):
            assert (_report_fields(s, *bounds, seed=seed)
                    == _reference_axiom_report(s, *bounds, seed=seed))


@given(st.sampled_from(sorted(SEMIRINGS)), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_axiom_report_matches_the_reference_on_a_faulty_rule(name, seed, data):
    # a shipped rule made wrong on one drawn family, so that first failures
    # land at varied positions of every axiom
    s = SEMIRINGS[name]
    values = s.sample_scalars(random.Random(seed), 8)
    mults = (1, 2, OMEGA)
    fam = data.draw(st.lists(st.tuples(st.sampled_from(values), st.sampled_from(mults)),
                             min_size=1, max_size=3).map(tuple))
    bad = normalize_family(fam)
    right = s.sum_family(bad)
    wrong = data.draw(st.sampled_from([UNDEF, *values]).filter(lambda w: w != right))
    rule = s._sum_rule
    faulty = dataclasses.replace(
        s, _sum_rule=lambda t, f: wrong if f == bad else rule(t, f))
    assert (_report_fields(faulty, 3, 2, 8, seed=seed)
            == _reference_axiom_report(faulty, 3, 2, 8, seed=seed))


def test_axiom_report_sums_each_split_block_once(monkeypatch):
    # the partition axiom sums each subfamily once per family, not once per
    # block of every split: a count of the work that no wall clock can flake
    calls = 0
    sum_family = Semiring.sum_family

    def counted(self, fam):
        nonlocal calls
        calls += 1
        return sum_family(self, fam)

    monkeypatch.setattr(Semiring, "sum_family", counted)
    for s, checked, most in ((I, [5, 15015, 14193, 153581, 400], 217_114),
                             (B, [5, 15015, 153581, 153581, 2025], 495_851)):
        calls = 0
        rep = axiom_report(s, max_entries=6)
        assert [c.checked for c in rep.checks] == checked
        assert calls <= most, (s, calls)


# ---------------------------------------------------------------------------
# the one-pass sums against the normal-form rules they replaced


def _ref_I(fam):
    total = 0
    for v, m in fam:
        if v == 1:
            if m is OMEGA or total + m > 1:
                return UNDEF
            total += m
    return total


def _ref_B(fam):
    return 1 if any(v == 1 for v, _ in fam) else 0


def _ref_F(fam):
    for v, m in fam:
        if v == 1 and m is OMEGA:
            return UNDEF
    return 1 if any(v == 1 for v, _ in fam) else 0


def _ref_nat(fam):
    total = 0
    for v, m in fam:
        if m is OMEGA and v != 0:
            return UNDEF
        total += v * m
    return total


def _ref_nat_inf(fam):
    total = 0
    for v, m in fam:
        if v == INF or (m is OMEGA and v != 0):
            return INF
        total += v * m
    return total


def _ref_rpos(fam):
    total = Fraction(0)
    for v, m in fam:
        if m is OMEGA:
            if v != 0:
                return UNDEF
            continue
        total += v * m
    return total


def _ref_unit(fam):
    total = _ref_rpos(fam)
    return UNDEF if total is not UNDEF and total > 1 else total


REFERENCE_RULES = {"I": _ref_I, "B": _ref_B, "F": _ref_F, "N": _ref_nat,
                   "Ninf": _ref_nat_inf, "unit": _ref_unit, "Rpos": _ref_rpos}

#: values outside some carrier: each semiring's own check decides
OUTSIDERS = (-1, 2, Fraction(3, 2), Fraction(-1, 2), True, INF, "x")
CARRIER_VALUES = {
    "I": st.sampled_from((0, 1)), "B": st.sampled_from((0, 1)),
    "F": st.sampled_from((0, 1)), "N": st.integers(0, 5),
    "Ninf": st.one_of(st.integers(0, 5), st.just(INF)),
    "unit": st.fractions(0, 1, max_denominator=6),
    "Rpos": st.one_of(st.integers(0, 3), st.fractions(0, 3, max_denominator=6)),
}
MULTIPLICITIES = st.one_of(st.integers(1, 3), st.just(OMEGA),
                           st.sampled_from((0, -1, "x", True)))


def _outcome(f, *args):
    try:
        got = f(*args)
    except (CarrierError, ValueError) as err:
        return type(err), str(err)
    return type(got), got


def _reference_sum(s, fam):
    for v, _ in fam:
        s.check_scalar(v)
    return REFERENCE_RULES[s.name](normalize_family(fam))


def _families(name):
    value = st.one_of(CARRIER_VALUES[name], CARRIER_VALUES[name],
                      st.sampled_from(OUTSIDERS))
    return st.lists(st.tuples(value, MULTIPLICITIES), max_size=5).map(tuple)


@given(st.sampled_from(sorted(SEMIRINGS)).flatmap(
    lambda name: st.tuples(st.just(name), _families(name))))
# a value outside the carrier is reported before a bad multiplicity
@example(("I", ((1, 0), (2, 1))))
@example(("unit", ((Fraction(1, 2), "x"), (Fraction(3, 2), 1))))
@example(("Ninf", ((INF, 1), (1, 0))))
@settings(max_examples=600, deadline=None)
def test_one_pass_sums_match_the_normal_form_rules(case):
    name, fam = case
    s = SEMIRINGS[name]
    assert _outcome(s.sum_family, fam) == _outcome(_reference_sum, s, fam)


def test_unknown_kind_is_refused_at_construction():
    with pytest.raises(ValueError, match="bogus"):
        Semiring("x", "bogus", 0, 1, False, False, None, I._sum_rule, I._mul_rule)


# ---------------------------------------------------------------------------
# formatting


@pytest.mark.parametrize("text,s", [
    ("0", I), ("1", B), ("1/2", UNIT), ("3", N), ("inf", NINF),
])
def test_parse_format_round_trip(text, s):
    assert format_scalar(parse_scalar(text, s)) == text


# ---------------------------------------------------------------------------
# the ambient arithmetic of matrix entries


@pytest.mark.parametrize("s", list(SEMIRINGS.values()), ids=lambda s: s.name)
def test_ambient_arithmetic_agrees_with_the_semiring(s):
    values = s.sample_scalars(random.Random(0), 8)
    for a, b in itertools.product(values, repeat=2):
        assert s.ambient_mul(a, b) == s.mul(a, b)
    for k in range(4):
        for terms in itertools.combinations_with_replacement(values, k):
            got = s.ambient_sum(terms)
            want = s.sum_family((t, 1) for t in terms)
            if want is not UNDEF:
                assert got == want, (terms, got, want)
            if s.ambient is RPOS:
                assert type(got) is Fraction
                assert got == RPOS.sum_family((t, 1) for t in terms)
    assert s.ambient_mul(s.one, s.ambient_inv(s.one)) == s.one


def test_ambient_arithmetic_of_unit_is_unbounded_and_invertible():
    assert UNIT.ambient_sum((Fraction(3, 4), Fraction(1, 2))) == Fraction(5, 4)
    assert UNIT.ambient_inv(Fraction(2, 5)) == Fraction(5, 2)
    with pytest.raises(ValueError):
        N.ambient_inv(2)
