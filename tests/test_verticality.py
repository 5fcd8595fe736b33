"""Openness and flatness decisions: generic denominators, dominant parts,
vertical components, torsion, and the full power-loop checks."""

import json
import pathlib
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from fibrecheck import (
    QQ,
    CharacteristicGuardError,
    CheckConfig,
    Ideal,
    ModulePresentation,
    Polynomial,
    PrimeField,
    Problem,
    RingLayout,
    check_flatness,
    check_openness,
    contract_to_base,
    default_order,
    dominant_part,
    fibred_power_ideal,
    generic_denominator,
    has_torsion_ideal,
    has_torsion_module,
    has_vertical_component,
    integer_normalized,
    quotient,
    radical_member,
    saturate,
    squarefree_part,
    tensor_power_presentation,
    transport,
    vertical_witness,
)

from fibrecheck import groebner, verticality
from fibrecheck.cli import parse_problem, run
from fibrecheck.groebner import ComputeBudget, ResourceLimitError, encode_vectors, exact_divide
from fibrecheck.poly import MonomialOrder
from fibrecheck.verticality import (
    WitnessSoundnessError,
    _verify_flat_ideal_certificate,
    _verify_flat_module_certificate,
    _verify_open_witness,
)

from corpus import full_corpus, named_fixtures
from oracles import saturate_by_quotients
from test_acceptance import _value
from test_poly import poly_strategy
from util import (
    BLOWUP_LAYOUT,
    CUSP_LAYOUT,
    P,
    PW,
    count_computations,
    ideal_equal,
    ideal_of,
    reference_generic_denominator,
)

BLOWUP_IDEAL = ideal_of(BLOWUP_LAYOUT, "y1*x - y2")
BLOWUP1 = fibred_power_ideal(BLOWUP_IDEAL, 1)
BLOWUP2 = fibred_power_ideal(BLOWUP_IDEAL, 2)
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
FIXTURES = GOLDEN.parent.parent / "fixtures"
A3_CHART = ideal_of(RingLayout(("y1", "y2", "y3"), ("x1", "x2")), "y1*x1 - y2", "y1*x2 - y3")


# ---------------------------------------------------------------------------
# squarefree reduction and generic denominators


def test_squarefree_part_monomial():
    f = P(BLOWUP_LAYOUT, "y1^3*y2^2")
    assert squarefree_part(f) == P(BLOWUP_LAYOUT, "y1*y2")


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(3), PrimeField(5), PrimeField(7)], ids=["Q", "F3", "F5", "F7"]
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_squarefree_part_keeps_every_factor(field, data):
    # f = prod (y - a)^m, m in 1..4: r must divide f, and f must divide
    # r^deg f, so r has the same irreducible factors as f
    lay = RingLayout(("y",), ("x",))
    values = st.integers(-3, 3) if field == QQ else st.integers(0, field.p - 1)
    y, f = P(lay, "y", field), Polynomial.constant(lay, field, 1)
    for a in data.draw(st.lists(values, min_size=1, max_size=3, unique=True)):
        f = f * (y - Polynomial.constant(lay, field, a)) ** data.draw(st.integers(1, 4))
    r = squarefree_part(f)
    exact_divide(f, r)
    exact_divide(r ** f.total_degree(), f)
    if len(f.terms) > 1:
        assert r == f


def test_squarefree_part_multivariate_identity():
    f = P(BLOWUP_LAYOUT, "y1^2 + y2")
    assert squarefree_part(f) == f


def test_generic_denominator_blowup_power2():
    order = default_order(BLOWUP2.layout)
    gb = BLOWUP2.groebner_basis(order)
    h = generic_denominator(gb, BLOWUP2.layout, QQ, order)
    assert h == PW(BLOWUP2.layout, "y1*y2")


def test_generic_denominator_trivial_when_leading_coeffs_constant():
    I = ideal_of(BLOWUP_LAYOUT, "x - y1")
    order = default_order(BLOWUP_LAYOUT)
    h = generic_denominator(I.groebner_basis(order), BLOWUP_LAYOUT, QQ, order)
    assert h.is_constant


def test_generic_denominator_cusp_contains_discriminant():
    I = ideal_of(CUSP_LAYOUT, "y1 - t^2", "y2 - t^3")
    order = default_order(CUSP_LAYOUT)
    h = generic_denominator(I.groebner_basis(order), CUSP_LAYOUT, QQ, order)
    # the contracted curve equation divides h (it shows up as a base leading
    # coefficient of the fibre-over-base basis)
    disc = ideal_of(CUSP_LAYOUT, "y1^3 - y2^2")
    assert disc.contains(h) or radical_member(P(CUSP_LAYOUT, "y1^3 - y2^2"), ideal_of(CUSP_LAYOUT, str(h)))


TWO_FIBRES = RingLayout(("y1", "y2"), ("x1", "x2"))


@pytest.mark.parametrize("encoded", [False, True], ids=["plain", "encoded"])
@pytest.mark.parametrize("within", ["grevlex", "lex"])
@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_generic_denominator_equals_reference(field, within, encoded, data):
    """The one-pass denominator equals the element-by-element reference term
    for term, coefficients included, on lists with repeated and rescaled
    elements, whose leading coefficients repeat with and without scaling."""
    polys = poly_strategy(TWO_FIBRES, field, max_exp=2, max_terms=4)
    if encoded:
        vectors = st.tuples(polys, polys).filter(lambda v: not all(c.is_zero for c in v))
        basis = encode_vectors(data.draw(st.lists(vectors, min_size=1, max_size=4)), TWO_FIBRES, 2)
        layout = TWO_FIBRES.with_positions(2)
    else:
        basis = data.draw(st.lists(polys.filter(lambda p: not p.is_zero), min_size=1, max_size=4))
        layout = TWO_FIBRES
    scales = data.draw(st.lists(st.sampled_from([1, -1, 2, 3]), max_size=len(basis)))
    basis += [g.scale(c) for g, c in zip(basis, scales)]
    for order in (default_order(layout, within), None):
        h = generic_denominator(basis, layout, field, order)
        expected = reference_generic_denominator(basis, layout, field, order)
        assert h.terms == expected.terms
        assert [type(c) for c, _ in h.terms] == [type(c) for c, _ in expected.terms]
    base_first = MonomialOrder((TWO_FIBRES.base_indices, TWO_FIBRES.fibre_indices), within)
    if not encoded:
        with pytest.raises(ValueError):
            generic_denominator(basis, layout, field, base_first)


# ---------------------------------------------------------------------------
# dominant part


def test_dominant_part_contains_original():
    union = ideal_of(BLOWUP_LAYOUT, "x*y1", "x*y2")
    for J, first in ((BLOWUP2, BLOWUP1), (union, union)):
        D = dominant_part(J, first)
        for g in J.gens:
            assert D.contains(g)


def test_dominant_part_is_saturation_fixpoint():
    # saturated by J_1's denominator, the dominant part is saturated by
    # J_2's own too
    D = dominant_part(BLOWUP2, BLOWUP1)
    order = default_order(BLOWUP2.layout)
    h = generic_denominator(BLOWUP2.groebner_basis(order), BLOWUP2.layout, QQ, order)
    assert ideal_equal(saturate(D, h), D)
    order1 = default_order(BLOWUP1.layout)
    h1 = generic_denominator(BLOWUP1.groebner_basis(order1), BLOWUP1.layout, QQ, order1)
    assert h1 == P(BLOWUP1.layout, "y1")
    assert ideal_equal(saturate(D, PW(BLOWUP2.layout, "y1")), D)


def test_dominant_part_blowup_power2_gains_diagonal():
    D = dominant_part(BLOWUP2, BLOWUP1)
    assert D.contains(PW(BLOWUP2.layout, "x1 - x2"))


def test_dominant_part_identity_when_already_dominant():
    I = ideal_of(BLOWUP_LAYOUT, "x - y1")
    assert ideal_equal(dominant_part(I, I), I)


def _ideal_over(problem, field) -> Ideal:
    """The problem's ideal with its coefficients read in ``field``."""
    gens = (Polynomial.from_dict(g.layout, field, {e: field.coerce(c) for c, e in g.terms}) for g in problem.ideal_gens)
    return Ideal(problem.layout, field, tuple(gens))


# problems whose J_k carry denominators with factors beyond J_1's, with the
# powers each is checked at
SPURIOUS_FACTORS = (
    ("base y1 y2 y3\nvars x1 x2\nideal: y1*x1 - y2, y1*x2 - y3\n", (2, 3)),
    ("base y1 y2 y3\nvars x1 x2 x3\nideal: x1*x2 - y1, x2*x3 - y2, x1*x3 - y3*x2 + y1\n", (2,)),
    ((GOLDEN / "rational_chart.alg").read_text(), (2, 3)),
)


@pytest.mark.parametrize("within", ["grevlex", "lex"])
@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_first_power_denominator_gives_each_powers_dominant_part(field, within):
    # generic freeness: A_{h_1} is free over R_{h_1}, so J_k : h_1^infinity
    # equals J_k : h_k^infinity; both equal the stabilized quotient chain
    cases = [(p, (2, 3)) for p in full_corpus()] + [(parse_problem(t), ks) for t, ks in SPURIOUS_FACTORS]
    spurious = 0
    for problem, powers in cases:
        I = _ideal_over(problem, field)
        J1 = fibred_power_ideal(I, 1)
        order1 = default_order(J1.layout, within)
        h1 = generic_denominator(J1.groebner_basis(order1), J1.layout, field, order1)
        for k in powers:
            Jk = fibred_power_ideal(I, k)
            order = default_order(Jk.layout, within)
            hk = generic_denominator(Jk.groebner_basis(order), Jk.layout, field, order)
            spurious += hk != transport(h1, Jk.layout)
            shared = dominant_part(Jk, J1, within).groebner_basis(order)
            assert shared == saturate(Jk, hk, within).groebner_basis(order), problem.ideal_gens
            for h in (transport(h1, Jk.layout), hk):
                assert saturate_by_quotients(Jk, h).groebner_basis(order) == shared, problem.ideal_gens
    assert spurious == 7  # the corpus alone gives two: the blow-up at k = 2 and 3


# ---------------------------------------------------------------------------
# vertical components


def test_blowup_power1_has_no_vertical_component():
    found, _ = has_vertical_component(BLOWUP1, BLOWUP1)
    assert not found


def test_blowup_power2_has_vertical_component():
    found, g = has_vertical_component(BLOWUP2, BLOWUP1)
    assert found
    assert not radical_member(g, BLOWUP2)


def test_vertical_witness_blowup_power2():
    found, g = has_vertical_component(BLOWUP2, BLOWUP1)
    r = vertical_witness(BLOWUP2, g)
    # r is pure-base, nonzero, kills g modulo sqrt(J) without g itself dying
    nb = len(BLOWUP2.layout.base_vars)
    assert not r.is_zero and all(i < nb for i in r.support_indices())
    assert radical_member(r * g, BLOWUP2)
    assert not radical_member(g, BLOWUP2)
    assert ideal_of(BLOWUP2.layout, "y1", "y2").contains(r)


def test_vertical_union_detects_at_power_one():
    I = ideal_of(BLOWUP_LAYOUT, "x*y1", "x*y2")
    J1 = fibred_power_ideal(I, 1)
    found, g = has_vertical_component(J1, J1)
    assert found
    r = vertical_witness(J1, g)
    assert radical_member(r * g, J1) and not radical_member(g, J1)


def _spy_radical_member(monkeypatch) -> list:
    """A list that gains (f, I, whether the memo is bypassed) for every
    radical membership the checks ask for."""
    calls, real = [], verticality.radical_member

    def spy(f, I, within="grevlex", budget=None):
        calls.append((f, I, budget is not None and budget.memo is None))
        return real(f, I, within, budget)

    monkeypatch.setattr(verticality, "radical_member", spy)
    return calls


def test_open_check_runs_rabinowitsch_only_outside_jk(monkeypatch):
    # generators of the dominant part that lie in J_k are decided by a normal
    # form; the re-check runs no radical membership: r*g is proven in J_k by
    # division by its generators, and g outside sqrt(J_k) by a point
    problem = Problem(QQ, ("y1", "y2", "y3"), ("x1", "x2"), A3_CHART.gens)
    skipped, first = 0, fibred_power_ideal(A3_CHART, 1)
    for k in (1, 2):
        J = fibred_power_ideal(A3_CHART, k)
        skipped += sum(J.contains(g) for g in dominant_part(J, first).gens)
    assert skipped  # the search has members of J_k to skip
    calls = _spy_radical_member(monkeypatch)
    verdict = check_openness(problem)
    assert verdict.outcome == "fail" and verdict.failing_power == 2
    search = [(f, I) for f, I, bypassed in calls if not bypassed]
    recheck = [f for f, _, bypassed in calls if bypassed]
    assert search
    assert not any(Ideal(I.layout, I.field, I.gens).contains(f) for f, I in search)
    assert recheck == []


def test_noether_cover_passes_without_radical_membership(monkeypatch):
    # h = 1, so the dominant part is J_k itself at every power
    lay = RingLayout(("y1", "y2", "y3"), ("x1", "x2", "x3"))
    gens = tuple(P(lay, f"x{i}^2 - y{i}") for i in (1, 2, 3))
    calls = _spy_radical_member(monkeypatch)
    verdict = check_openness(Problem(QQ, lay.base_vars, lay.fibre_vars, gens))
    assert verdict.outcome == "pass" and verdict.conclusive
    assert [(p.k, p.pairs) for p in verdict.powers] == [(1, 0), (2, 0), (3, 0)]
    assert calls == []


def _reference_vertical_component(J, first, within):
    """A radical membership for every generator of the dominant part."""
    for g in dominant_part(J, first, within).gens:
        if not radical_member(g, J, within):
            return True, g
    return False, None


@pytest.mark.parametrize("within", ["grevlex", "lex"])
@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_vertical_component_equals_radical_membership_of_every_generator(field, within, data):
    # one to three generators c*m + (a term of lower fibre degree), c a base
    # monomial and m a fibre monomial, some multiplied by x1; the draws give
    # passes with the dominant part equal to J and larger than J, and
    # failures at the first generator tested and after members of J
    x1 = Polynomial.variable(TWO_FIBRES, field, "x1")
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        c = data.draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))
        m = data.draw(st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]))
        acc = {c + m: field.one}
        for _ in range(data.draw(st.integers(0, 1))):
            e = data.draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))
            if sum(e) < sum(m):
                exps = (data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))) + e
                acc[exps] = field.canon(acc.get(exps, field.zero) + field.coerce(data.draw(st.integers(-3, 3))))
        g = Polynomial.from_dict(TWO_FIBRES, field, acc)
        gens.append(g * x1 if data.draw(st.booleans()) else g)
    I = Ideal(TWO_FIBRES, field, tuple(gens))
    J, first = fibred_power_ideal(I, data.draw(st.sampled_from([1, 2]))), fibred_power_ideal(I, 1)
    fresh = Ideal(J.layout, field, J.gens)
    assert has_vertical_component(J, first, within) == _reference_vertical_component(fresh, first, within)


# ---------------------------------------------------------------------------
# torsion


def test_cusp_coordinate_ring_has_base_torsion():
    I = ideal_of(CUSP_LAYOUT, "y1 - t^2", "y2 - t^3")
    J1 = fibred_power_ideal(I, 1)
    found, cert = has_torsion_ideal(J1, J1)
    assert found
    r, v = cert
    assert J1.contains(r * v)
    assert not J1.contains(v)


def test_double_cover_is_torsion_free():
    I = ideal_of(RingLayout(("y",), ("x",)), "x^2 - y")
    J1 = fibred_power_ideal(I, 1)
    found, _ = has_torsion_ideal(J1, J1)
    assert not found


def test_module_torsion_detected():
    lay = RingLayout(("y",), ("x",))
    rel = (P(lay, "y"), Polynomial.zero(lay, QQ))
    pres = ModulePresentation(lay, QQ, 2, (rel,))
    found, cert = has_torsion_module(pres)
    assert found
    r, v = cert
    scaled = tuple(r * c for c in v)
    assert pres.contains(scaled)
    assert not pres.contains(v)


def test_free_module_has_no_torsion():
    lay = RingLayout(("y",), ("x",))
    x = P(lay, "x")
    zero = Polynomial.zero(lay, QQ)
    pres = ModulePresentation(lay, QQ, 2, ((x, zero), (zero, x)))
    found, _ = has_torsion_module(pres)
    assert not found


# ---------------------------------------------------------------------------
# the full checks against the fixture table


def test_fixture_table_openness_and_flatness():
    for fx in named_fixtures():
        overdict = check_openness(fx.problem)
        assert overdict.outcome == fx.open_outcome, fx.name
        assert overdict.failing_power == fx.open_power, fx.name
        fverdict = check_flatness(fx.problem)
        assert fverdict.outcome == fx.flat_outcome, fx.name
        assert fverdict.failing_power == fx.flat_power, fx.name


def test_every_failure_carries_a_valid_witness():
    for problem in full_corpus():
        v = check_openness(problem)
        if v.outcome == "fail":
            Jk = fibred_power_ideal(problem.ideal, v.failing_power)
            assert radical_member(v.witness_r * v.witness_g, Jk)
            assert not radical_member(v.witness_g, Jk)
        f = check_flatness(problem)
        if f.outcome == "fail" and problem.module is None:
            Jk = fibred_power_ideal(problem.ideal, f.failing_power)
            assert Jk.contains(f.certificate_r * f.certificate_v)
            assert not Jk.contains(f.certificate_v)


def test_flat_implies_open_on_corpus():
    for problem in full_corpus():
        o = check_openness(problem)
        f = check_flatness(problem)
        if f.outcome == "pass" and f.conclusive:
            assert o.outcome == "pass", problem.ideal_gens


def test_verdicts_invariant_under_within_block_order():
    for problem in full_corpus():
        o_g = check_openness(problem, CheckConfig(within="grevlex"))
        o_l = check_openness(problem, CheckConfig(within="lex"))
        assert (o_g.outcome, o_g.failing_power) == (o_l.outcome, o_l.failing_power)
        f_g = check_flatness(problem, CheckConfig(within="grevlex"))
        f_l = check_flatness(problem, CheckConfig(within="lex"))
        assert (f_g.outcome, f_g.failing_power) == (f_l.outcome, f_l.failing_power)


def test_power_loop_respects_max_power():
    blowup = named_fixtures()[0].problem
    v = check_openness(blowup, CheckConfig(max_power=1))
    assert v.outcome == "pass" and not v.conclusive
    assert v.max_power_tested == 1
    v2 = check_openness(blowup, CheckConfig(max_power=2))
    assert v2.outcome == "fail" and v2.failing_power == 2


def test_power_stats_recorded_per_power():
    blowup = named_fixtures()[0].problem
    v = check_openness(blowup)
    assert [s.k for s in v.powers] == [1, 2]
    assert all(s.basis_size >= 1 for s in v.powers)


def test_power_stats_report_each_powers_own_largest_basis():
    # J_k of a Noether cover is already a basis, so the flatness check
    # appends nothing and each power reports its 2k generators
    lay = RingLayout(("y1", "y2"), ("x1", "x2"))
    problem = Problem(QQ, ("y1", "y2"), ("x1", "x2"), (P(lay, "x1^2 - y1"), P(lay, "x2^2 - y2")))
    v = check_flatness(problem)
    assert v.outcome == "pass"
    assert [s.basis_size for s in v.powers] == [2, 4]


def test_char_p_flatness_guard():
    lay = RingLayout(("y",), ("x",))
    F5 = PrimeField(5)
    g = Polynomial.from_dict(lay, F5, {(1, 2): F5.one, (0, 0): F5.coerce(-1)})
    problem = Problem(F5, ("y",), ("x",), (g,))
    with pytest.raises(CharacteristicGuardError):
        check_flatness(problem)
    v = check_flatness(problem, CheckConfig(allow_char_p_flatness=True))
    assert v.outcome in ("pass", "fail")
    # openness over F_p needs no acknowledgment
    assert check_openness(problem).outcome in ("pass", "fail")


def test_resource_abort_is_reported_not_raised():
    # the A^3 chart charges 13 pairs at power 1
    problem = Problem(QQ, ("y1", "y2", "y3"), ("x1", "x2"), A3_CHART.gens)
    v = check_openness(problem, CheckConfig(pair_limit=5))
    assert v.outcome == "aborted"
    assert not v.conclusive
    assert v.abort_reason


# ---------------------------------------------------------------------------
# re-verification and the basis memo


def test_basis_memo_is_owned_by_the_config():
    with pytest.raises(TypeError):
        CheckConfig(memo={})
    config = CheckConfig()
    assert config.budget().memo is config.budget().memo is config.memo
    assert CheckConfig().memo is not config.memo


def test_open_witness_recheck_recomputes_memoized_bases(monkeypatch):
    J = fibred_power_ideal(BLOWUP_IDEAL, 2)  # no basis cached on the object
    J1 = fibred_power_ideal(BLOWUP_IDEAL, 1)
    budget = CheckConfig().budget()
    found, g = has_vertical_component(J, J1, "grevlex", budget)
    assert found
    r = vertical_witness(J, g, "grevlex", budget)
    g = integer_normalized(g)  # as the power loop hands it to the re-check
    assert radical_member(r * g, J, "grevlex", budget)
    assert not radical_member(g, J, "grevlex", budget)
    computed = count_computations(monkeypatch)
    radical_member(r * g, J, "grevlex", budget)
    radical_member(g, J, "grevlex", budget)
    assert not computed  # both bases of the engine route are in the memo
    memo = budget.memo = _ReadLog(budget.memo)
    _verify_open_witness(J, J1, g, r, "grevlex", budget)
    assert memo.reads == []  # bypassed: the re-check reads no record of the search
    assert computed == []  # r*g is proven by division, g by a point
    assert budget.memo is memo and memo  # bypassed during the re-check, not dropped


class _ReadLog(dict):
    """A memo that lists the keys read from it."""

    def __init__(self, records):
        super().__init__(records)
        self.reads = []

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads.append(key)
        return super().__contains__(key)


def test_flat_certificate_recheck_recomputes_memoized_basis(monkeypatch):
    budget = CheckConfig().budget()
    J1, J2 = (fibred_power_ideal(BLOWUP_IDEAL, k) for k in (1, 2))
    found, (r, v) = has_torsion_ideal(J2, J1, "grevlex", budget)
    assert found
    fresh = fibred_power_ideal(BLOWUP_IDEAL, 2)  # no basis cached on the object
    assert (fresh.gens, default_order(fresh.layout)) in budget.memo
    computed = count_computations(monkeypatch)
    _verify_flat_ideal_certificate(fresh, r, integer_normalized(v), "grevlex", budget)
    assert computed == [fresh.gens]


def test_flat_certificate_recheck_ignores_the_search_basis(monkeypatch):
    # the re-check runs on the very Jk whose basis the torsion search cached,
    # and must still compute that basis anew
    budget = CheckConfig().budget()
    Jk = fibred_power_ideal(BLOWUP_IDEAL, 2)
    found, (r, v) = has_torsion_ideal(Jk, fibred_power_ideal(BLOWUP_IDEAL, 1), "grevlex", budget)
    assert found and Jk._gb_cache
    computed = count_computations(monkeypatch)
    _verify_flat_ideal_certificate(Jk, r, integer_normalized(v), "grevlex", budget)
    assert computed == [Jk.gens]


@pytest.mark.parametrize("within", ["grevlex", "lex"])
def test_flat_module_certificate_recheck_ignores_the_search_basis(monkeypatch, within):
    lay = RingLayout(("y",), ("x",))
    rel = (P(lay, "y"), Polynomial.zero(lay, QQ))
    pres = ModulePresentation(lay, QQ, 2, (rel, (P(lay, "x"), P(lay, "x"))))
    budget = CheckConfig().budget()
    found, (r, v) = has_torsion_module(pres, within, budget)
    assert found and pres._gb_cache
    encoded = tuple(encode_vectors(pres.relations, lay, 2))
    assert (encoded, default_order(lay.with_positions(2), within)) in budget.memo
    computed = count_computations(monkeypatch)
    _verify_flat_module_certificate(pres, r, v, within, budget)
    assert computed == [encoded]


def test_deadline_passing_as_the_module_basis_returns_aborts_before_the_saturation(monkeypatch):
    # the basis is computed in time and the deadline passes as it returns:
    # the search aborts before the saturation by h = y charges a pair
    lay = RingLayout(("y",), ("x",))
    pres = ModulePresentation(lay, QQ, 2, ((P(lay, "y"), Polynomial.zero(lay, QQ)), (P(lay, "x"), P(lay, "x"))))
    budget, real, charged = ComputeBudget(), groebner.module_buchberger, []

    def in_time(encoded, order, budget):
        basis = real(encoded, order, budget)
        budget.deadline = 0.0
        charged.append((budget.pairs, budget.work))
        return basis

    monkeypatch.setattr(groebner, "module_buchberger", in_time)
    with pytest.raises(ResourceLimitError, match="timeout exceeded"):
        has_torsion_module(pres, "grevlex", budget)
    assert charged == [(budget.pairs, budget.work)]


def _count_vector_codings(monkeypatch) -> dict:
    """Calls of encode_vectors and decode_vectors through every binding of
    them in the package, counted from now on."""
    counts = dict.fromkeys(("encode_vectors", "decode_vectors"), 0)
    modules = [m for name, m in sys.modules.items() if name == "fibrecheck" or name.startswith("fibrecheck.")]
    for name in counts:
        real = getattr(groebner, name)

        def spy(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, spy)
    return counts


@pytest.mark.parametrize("within", ["grevlex", "lex"])
@pytest.mark.parametrize("case, failing_power", [("rank2_module", 2), ("module_scaled", 1)])
def test_flat_module_search_decodes_only_the_printed_certificate(monkeypatch, capsys, case, failing_power, within):
    # the search runs on encoded vectors: one encode of the relations per
    # power, one of the printed v in its re-check, and one decode, of v
    counts = _count_vector_codings(monkeypatch)
    assert run(["--input", str(GOLDEN / f"{case}.alg"), "--json", "--order", within]) == 0
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert (check["kind"], check["outcome"], check["failing_power"]) == ("flat", "fail", failing_power)
    assert counts == {"encode_vectors": failing_power + 1, "decode_vectors": 1}


# ---------------------------------------------------------------------------
# the negative half of an openness witness by a point of V(J_k)

# y1^2 + 1 has no rational root, so V(J_1) has no rational point to certify
# the witness: the engine re-checks it alone.
NO_RATIONAL_POINT = "base y1\nvars x1\nideal: -2*y1*x1 - 2, y1^2 + 1\ncheck open\n"


def _spy_point_outside(monkeypatch) -> list:
    """A list that gains (Jk, g, point or None) for every point search."""
    calls, real = [], verticality._point_outside

    def spy(Jk, first, g, r, budget):
        calls.append((Jk, g, real(Jk, first, g, r, budget)))
        return calls[-1][2]

    monkeypatch.setattr(verticality, "_point_outside", spy)
    return calls


def _open_failures():
    """(name, problem) of the fixtures, the goldens and full_corpus()."""
    inputs = sorted(FIXTURES.glob("*.alg")) + sorted(GOLDEN.glob("*.alg"))
    named = [(path.name, parse_problem(path.read_text())) for path in inputs if path.name != "malformed.alg"]
    return named + [(f"corpus {i}", problem) for i, problem in enumerate(full_corpus())]


@pytest.mark.parametrize("within", ["grevlex", "lex"])
def test_every_open_failure_is_proven_by_a_point(monkeypatch, within):
    points = _spy_point_outside(monkeypatch)
    failed, pointless = [], []
    for name, problem in _open_failures():
        if name == "oversized.alg":  # its basis does not finish
            continue
        points.clear()
        verdict = check_openness(problem, CheckConfig(within=within))
        if verdict.outcome != "fail":
            assert not points, name
            continue
        failed.append(name)
        ((Jk, g, point),) = points
        assert g == verdict.witness_g
        assert Jk.gens == fibred_power_ideal(problem.ideal, verdict.failing_power).gens
        if point is None:
            pointless.append([str(f) for f in problem.ideal_gens])
            continue
        assert all(_value(f, point) == 0 for f in Jk.gens) and _value(g, point), name
    named = {"blowup.alg", "charp_open.alg", "charp_vertical.alg", "huge_exponent.alg", "nonmonomial_denominator.alg"}
    assert named <= set(failed)
    assert len(failed) == 15
    assert pointless == [["-2*y1*x1 - 2", "y1^2 + 1"]]


def test_no_rational_point_falls_back_to_both_radical_memberships(monkeypatch):
    # r*g is proven in J_1 by division, so only g's half falls back
    calls, points = _spy_radical_member(monkeypatch), _spy_point_outside(monkeypatch)
    verdict = check_openness(parse_problem(NO_RATIONAL_POINT))
    assert (verdict.outcome, verdict.failing_power) == ("fail", 1)
    assert [point for _, _, point in points] == [None]
    recheck = [f for f, _, bypassed in calls if bypassed]
    assert recheck == [verdict.witness_g]


def _spy_rechecks(monkeypatch) -> list:
    """A list that gains, for every ideal re-check (a module's included),
    (its divisions' results, whether each point search found a point, the
    generators of each basis it computed)."""
    rechecks, computed = [], count_computations(monkeypatch)
    divisions, points = [], []
    for name, log in (("_divides_into", divisions), ("_point_outside", points)):

        def spy(*args, real=getattr(verticality, name), log=log):
            log.append(real(*args))
            return log[-1]

        monkeypatch.setattr(verticality, name, spy)
    for name in ("_verify_open_witness", "_verify_flat_ideal_certificate"):

        def spy(*args, real=getattr(verticality, name)):
            divisions.clear()
            points.clear()
            before = len(computed)
            real(*args)
            rechecks.append((divisions[:], [p is not None for p in points], computed[before:]))

        monkeypatch.setattr(verticality, name, spy)
    return rechecks


@pytest.mark.parametrize(
    "path, within, kind, divisions, points, bases",
    [
        # the common route: the division leaves no remainder, and a point is found
        ("fixtures/blowup.alg", "grevlex", "open", [True], [True], 0),
        ("fixtures/blowup.alg", "lex", "flat", [True], [True], 0),
        ("fixtures/charp_open.alg", "grevlex", "open", [True], [True], 0),
        ("tests/golden/charp_vertical.alg", "lex", "open", [True], [True], 0),
        ("tests/golden/huge_exponent.alg", "lex", "open", [True], [True], 0),
        # a remainder under grevlex: r*g's Rabinowitsch basis, the fresh J_2's
        ("tests/golden/huge_exponent.alg", "grevlex", "open", [False], [True], 1),
        ("tests/golden/huge_exponent.alg", "grevlex", "flat", [False], [True], 1),
        # v is nilpotent mod J_2, so no point exists: the fresh basis of J_2
        # decides both halves
        ("tests/golden/rational_chart.alg", "grevlex", "flat", [False], [False], 1),
        ("tests/golden/rational_chart.alg", "lex", "flat", [False], [False], 1),
        # a module of rank 2 gets no point search, and its division proves r*v
        ("fixtures/module_torsion.alg", "grevlex", "flat", [True], [], 1),
        ("tests/golden/rank2_module.alg", "lex", "flat", [False], [], 1),
    ],
)
def test_each_recheck_route_fires_on_a_named_input(monkeypatch, path, within, kind, divisions, points, bases):
    rechecks = _spy_rechecks(monkeypatch)
    problem = parse_problem((GOLDEN.parent.parent / path).read_text())
    config = CheckConfig(within=within, allow_char_p_flatness=True)
    verdict = (check_openness if kind == "open" else check_flatness)(problem, config)
    assert verdict.outcome == "fail"
    ((got_divisions, got_points, computed),) = rechecks
    assert (got_divisions, got_points, len(computed)) == (divisions, points, bases)
    if kind == "flat" and bases:  # the fallback's basis is that of a fresh J_k
        J = verticality._power_ideal(problem, "flat", verdict.failing_power, config.budget())
        if J is not None:
            assert computed == [J.gens]


@pytest.mark.parametrize("within", ["grevlex", "lex"])
@pytest.mark.parametrize("field", ["Q", "F 5"], ids=["Q", "F5"])
def test_tampered_certificates_fail_their_recheck_by_either_route(within, field):
    # each tampered half is unprovable: the cheap proof is missing, and the
    # engine's fallback refutes it, with a point search (given J_1) or without
    problem = parse_problem(f"field {field}\nbase y1 y2\nvars x\nideal: y1*x - y2\n")
    J1, J2 = (fibred_power_ideal(problem.ideal, k) for k in (1, 2))
    budget = CheckConfig(within=within).budget()
    found, g = has_vertical_component(J2, J1, within, budget)
    assert found
    r, g = vertical_witness(J2, g, within, budget), integer_normalized(g)
    one, inside = Polynomial.constant(r.layout, problem.field, 1), J2.gens[0]
    _verify_open_witness(J2, J1, g, r, within, budget)
    for first in (J1, None):
        _verify_flat_ideal_certificate(J2, r, g, within, budget, first)
    with pytest.raises(WitnessSoundnessError):  # r*g = g outside sqrt(J_2)
        _verify_open_witness(J2, J1, g, one, within, budget)
    with pytest.raises(WitnessSoundnessError):  # g in J_2, so vanishing on V(J_2)
        _verify_open_witness(J2, J1, inside, r, within, budget)
    for first in (J1, None):
        with pytest.raises(WitnessSoundnessError):  # r*v = v outside J_2
            _verify_flat_ideal_certificate(J2, one, g, within, budget, first)
        with pytest.raises(WitnessSoundnessError):  # v in J_2
            _verify_flat_ideal_certificate(J2, r, inside, within, budget, first)
    assert budget.memo  # every re-check bypassed it


@pytest.mark.parametrize("within", ["grevlex", "lex"])
@pytest.mark.parametrize("field", ["Q", "F 5"], ids=["Q", "F5"])
@pytest.mark.parametrize("name, k", [("rank2_module.alg", 2), ("module_scaled.alg", 1)])
def test_tampered_module_certificates_fail_their_recheck(within, field, name, k):
    # a module of rank 2 has no point search: the fresh basis of the encoded
    # relations refutes each tampered half
    text = (GOLDEN / name).read_text().replace("field Q", f"field {field}")
    problem = parse_problem(text)
    config = CheckConfig(within=within, allow_char_p_flatness=True)
    verdict = check_flatness(problem, config)
    assert (verdict.outcome, verdict.failing_power) == ("fail", k)
    budget = config.budget()
    pres = tensor_power_presentation(problem, k, budget)
    r, v = verdict.certificate_r, verdict.certificate_v
    _verify_flat_module_certificate(pres, r, v, within, budget)
    with pytest.raises(WitnessSoundnessError):  # r*v = v outside N
        _verify_flat_module_certificate(pres, Polynomial.constant(r.layout, problem.field, 1), v, within, budget)
    with pytest.raises(WitnessSoundnessError):  # v in N
        _verify_flat_module_certificate(pres, r, pres.relations[0], within, budget)


@pytest.mark.parametrize("within", ["grevlex", "lex"])
def test_flat_certificate_is_that_of_the_plain_quotient(monkeypatch, within):
    # the annihilator search takes J_k : v from J_k : v^infinity when the two
    # are equal; run as under `check both`, every failing ideal flat check
    # must print the r that the plain quotient J_k : v gives, and both routes
    # must be taken
    problems = _open_failures()  # full_corpus() runs checks when first built
    routes, real = [], verticality.quotient

    def spy(J, v, within, budget, upper):
        out = real(J, v, within, budget, upper)
        routes.append(out is upper)
        return out

    monkeypatch.setattr(verticality, "quotient", spy)
    failed = []
    for name, problem in problems:
        if name == "oversized.alg" or (problem.module is not None and problem.module.rank > 1):
            continue
        config = CheckConfig(within=within, allow_char_p_flatness=True)
        check_openness(problem, config)
        verdict = check_flatness(problem, config)
        if verdict.outcome != "fail":
            continue
        failed.append(name)
        Jk = verticality._power_ideal(problem, "flat", verdict.failing_power, config.budget())
        Q = quotient(Jk, verdict.certificate_v, within)
        assert verdict.certificate_r == integer_normalized(transport(contract_to_base(Q, within).gens[0], Jk.layout)), name
    # 15 failures; only rational_chart.alg's v is nilpotent mod J_2
    assert len(routes) == len(failed) == 15
    assert routes.count(False) == 1 and not routes[failed.index("rational_chart.alg")]


def _blowup_witness():
    budget = CheckConfig().budget()
    found, g = has_vertical_component(BLOWUP2, BLOWUP1, "grevlex", budget)
    return integer_normalized(g), vertical_witness(BLOWUP2, g, "grevlex", budget), budget


def test_point_search_refuses_a_point_off_v_jk():
    # x(1)^2 + 1 vanishes at no integer point: with it among the generators of
    # J_k, every candidate the fibre of J_1 offers must be refused, though g is
    # nonzero at some of them
    g, r, budget = _blowup_witness()
    point = verticality._point_outside(BLOWUP2, BLOWUP1, g, r, budget)
    assert point is not None and _value(g, point)
    x1 = Polynomial.variable(BLOWUP2.layout, QQ, "x(1)")
    off = Ideal(BLOWUP2.layout, QQ, BLOWUP2.gens + (x1 * x1 + Polynomial.constant(x1.layout, QQ, 1),))
    assert verticality._point_outside(off, BLOWUP1, g, r, budget) is None


def test_point_search_is_bounded_and_checks_the_deadline(monkeypatch):
    g, r, budget = _blowup_witness()
    monkeypatch.setattr(verticality, "_POINT_TRIES", 1)  # the origin, where g vanishes
    assert verticality._point_outside(BLOWUP2, BLOWUP1, g, r, budget) is None
    monkeypatch.undo()
    late = ComputeBudget(deadline=time.monotonic() - 1)
    with pytest.raises(ResourceLimitError):
        verticality._point_outside(BLOWUP2, BLOWUP1, g, r, late)


def test_point_evaluation_is_mod_p_over_a_prime_field(monkeypatch):
    points = _spy_point_outside(monkeypatch)
    for path in (GOLDEN / "charp_vertical.alg", FIXTURES / "charp_open.alg"):
        assert check_openness(parse_problem(path.read_text())).outcome == "fail"
    assert all(point is not None for _, _, point in points) and len(points) == 2
    # charp_open's y1*x - y2 over F_5, stored as y1*x + 4*y2, at (y1, y2, x)
    (f,) = parse_problem((FIXTURES / "charp_open.alg").read_text()).ideal_gens
    assert [c for c, _ in f.terms] == [1, 4]
    terms = verticality._kernel_terms(f)
    assert verticality._value(terms, (1, 1, 1), 5) == 0
    assert verticality._value(terms, (1, 2, 1), 5) == 4  # 1 - 2 mod 5


def test_point_evaluation_skips_a_huge_power_over_q():
    # y1*x1 - y2^(10^12): only y2 in {-1, 0, 1} is evaluated
    problem = parse_problem((GOLDEN / "huge_exponent.alg").read_text())
    terms = verticality._kernel_terms(problem.ideal_gens[0])
    assert verticality._value(terms, (1, 2, 5), 0) is None and verticality._value(terms, (1, -3, 0), 0) is None
    values = [verticality._value(terms, point, 0) for point in ((2, 1, 1), (2, -1, 1), (3, 0, 0))]
    assert values == [1, 1, 0]
