"""Groebner engine: S-polynomials, Buchberger, normal forms, module bases
(vectors encoded with position variables)."""

import itertools
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fibrecheck import (
    QQ,
    ComputeBudget,
    Ideal,
    ModulePresentation,
    MonomialOrder,
    Polynomial,
    PrimeField,
    ResourceLimitError,
    RingLayout,
    buchberger,
    default_order,
    fibred_power_ideal,
    module_buchberger,
    module_normal_form,
    normal_form,
    s_polynomial,
)
from fibrecheck import groebner
from fibrecheck.groebner import decode_vectors, encode_vectors, exact_divide

from oracles import macaulay_member
from test_poly import poly_strategy
from util import (
    BLOWUP_LAYOUT,
    P,
    PW,
    count_computations,
    ideal_of,
    reference_buchberger,
    reference_module_buchberger,
    reference_module_normal_form,
    reference_normal_form,
    reference_s_polynomial,
    reference_s_vector,
    reference_vector_leading,
)

XY2 = RingLayout((), ("x", "y"))  # plain bivariate ring, grevlex x > y
POW2 = BLOWUP_LAYOUT.powered(2)


def _pow2(text):
    return PW(POW2, text)


BLOWUP2 = Ideal(POW2, QQ, (_pow2("y1*x1 - y2"), _pow2("y1*x2 - y2")))


# ---------------------------------------------------------------------------
# S-polynomials


def test_s_polynomial_hand_example():
    f = P(XY2, "x^2 - y")
    g = P(XY2, "x*y - 1")
    assert s_polynomial(f, g, default_order(XY2)) == P(XY2, "x - y^2")


def test_s_polynomial_identical_inputs():
    f = P(XY2, "x^2 - y")
    assert s_polynomial(f, f, default_order(XY2)).is_zero


def test_s_polynomial_coprime_pair_cancels():
    s = s_polynomial(P(XY2, "x"), P(XY2, "y"), default_order(XY2))
    assert s.is_zero


def test_s_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        s_polynomial(P(XY2, "x"), Polynomial.zero(XY2, QQ), default_order(XY2))


# ---------------------------------------------------------------------------
# Buchberger


def test_buchberger_blowup_power2():
    basis = BLOWUP2.groebner_basis()
    assert _pow2("y2*x1 - y2*x2") in basis
    _assert_buchberger_criterion(basis, default_order(POW2))


def test_buchberger_two_step_reduction():
    basis = buchberger((P(XY2, "x^2 - y"), P(XY2, "x")), default_order(XY2))
    assert set(basis) == {P(XY2, "x"), P(XY2, "y")}


def test_buchberger_unit_ideal():
    basis = buchberger((P(XY2, "1"),), default_order(XY2))
    assert [str(g) for g in basis] == ["1"]


def test_buchberger_zero_ideal():
    assert buchberger((), default_order(XY2)) == []


def _assert_buchberger_criterion(basis, order):
    basis = list(basis)
    for f, g in itertools.combinations(basis, 2):
        assert normal_form(s_polynomial(f, g, order), basis, order).is_zero


def test_buchberger_criterion_on_fixture_bases():
    from corpus import full_corpus
    from fibrecheck import fibred_power_ideal

    for problem in full_corpus():
        for k in range(1, problem.n + 1):
            Jk = fibred_power_ideal(problem.ideal, k)
            order = default_order(Jk.layout)
            _assert_buchberger_criterion(Jk.groebner_basis(order), order)


def test_generators_reduce_to_zero_against_basis():
    order = default_order(POW2)
    basis = list(BLOWUP2.groebner_basis(order))
    for g in BLOWUP2.gens:
        assert normal_form(g, basis, order).is_zero


def test_basis_canonical_under_generator_permutation():
    gens = (P(XY2, "x^2 - y"), P(XY2, "x*y - 1"), P(XY2, "y^2 - x"))
    order = default_order(XY2)
    reference = buchberger(gens, order)
    for perm in itertools.permutations(gens):
        assert buchberger(perm, order) == reference


def test_pair_limit_raises_resource_error():
    gens = (P(XY2, "x^3 - 2*x*y"), P(XY2, "x^2*y - 2*y^2 + x"))
    with pytest.raises(ResourceLimitError):
        buchberger(gens, default_order(XY2), ComputeBudget(pair_limit=1))


GROWING = (P(XY2, "x^3 - 2*x*y"), P(XY2, "x^2*y - 2*y^2 + x"))


def test_basis_memo_hit_charges_like_a_computation(monkeypatch):
    order = default_order(XY2)
    plain = ComputeBudget()
    expected = buchberger(GROWING, order, plain)
    assert plain.max_basis > len(GROWING)  # S-polynomials were kept
    memo = {}
    buchberger(GROWING, order, ComputeBudget(memo=memo))
    computed = count_computations(monkeypatch)
    again = ComputeBudget(memo=memo)
    assert buchberger(GROWING, order, again) == expected
    assert not computed
    assert (again.pairs, again.work, again.max_basis) == (
        plain.pairs,
        plain.work,
        plain.max_basis,
    )


def test_basis_size_noted_is_the_input_size_when_nothing_is_appended():
    # coprime leading monomials: the generators are already a basis
    gens = (P(XY2, "x^2 - 1"), P(XY2, "y^3 - y"))
    order = default_order(XY2)
    memo = {}
    computed = ComputeBudget(memo=memo)
    buchberger(gens, order, computed)
    replayed = ComputeBudget(memo=memo)
    buchberger(gens, order, replayed)
    assert computed.max_basis == replayed.max_basis == len(gens)
    assert memo[(gens, order)].peak == len(gens)


def test_basis_memo_misses_on_other_order_or_generators(monkeypatch):
    memo = {}
    buchberger(GROWING, default_order(XY2), ComputeBudget(memo=memo))
    computed = count_computations(monkeypatch)
    buchberger(GROWING, default_order(XY2, "lex"), ComputeBudget(memo=memo))
    buchberger(GROWING[::-1], default_order(XY2), ComputeBudget(memo=memo))
    assert len(computed) == 2


@pytest.mark.parametrize("over", ["pairs", "work"])
def test_basis_memo_unaffordable_hit_aborts_like_a_computation(monkeypatch, over):
    order = default_order(XY2)
    plain = ComputeBudget()
    buchberger(GROWING, order, plain)
    memo = {}
    buchberger(GROWING, order, ComputeBudget(memo=memo))

    def starved(memo):
        """A budget one pair or one reduction step short of the basis."""
        budget = ComputeBudget(memo=memo)
        if over == "pairs":
            budget.pairs = budget.pair_limit - plain.pairs + 1
        else:
            budget.work = 200 * budget.pair_limit - plain.work + 1
        return budget

    with pytest.raises(ResourceLimitError) as direct:
        buchberger(GROWING, order, starved(None))
    computed = count_computations(monkeypatch)
    with pytest.raises(ResourceLimitError) as replayed:
        buchberger(GROWING, order, starved(memo))
    assert len(computed) == 1
    assert str(replayed.value) == str(direct.value)
    assert replayed.value.pairs == direct.value.pairs


A3_CHART = ideal_of(RingLayout(("y1", "y2", "y3"), ("x1", "x2")), "y1*x1 - y2", "y1*x2 - y3")


@pytest.mark.parametrize(
    "gens",
    [
        fibred_power_ideal(A3_CHART, 2).gens,
        # coprime leads: the generators are the basis, but x - y has a tail
        # divisible by y, so dividing it changes it
        (P(XY2, "x - y"), P(XY2, "y - 1")),
    ],
    ids=["A3-chart-J2", "unreduced-tail"],
)
def test_interreduction_divides_each_kept_element_once(monkeypatch, gens):
    # the minimal elements of a Groebner basis reach the reduced basis in one
    # pass: one division each, with no sweep to confirm that nothing changed
    inside, calls = [False], [0]
    interreduce, reduce = groebner._interreduce, groebner._reduce

    def spy_interreduce(*args):
        inside[0] = True
        try:
            return interreduce(*args)
        finally:
            inside[0] = False

    def spy_reduce(*args):
        calls[0] += inside[0]
        return reduce(*args)

    monkeypatch.setattr(groebner, "_interreduce", spy_interreduce)
    monkeypatch.setattr(groebner, "_reduce", spy_reduce)
    basis = buchberger(gens, default_order(gens[0].layout))
    assert len(basis) > 1
    assert calls[0] == len(basis)


def test_deadline_passing_mid_division_aborts_on_the_next_step(monkeypatch):
    # x^10 by x - y takes eleven reduction steps; the clock passes the
    # deadline after the third
    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) <= 3 else 2.0

    monkeypatch.setattr(groebner.time, "monotonic", clock)
    budget = ComputeBudget(deadline=1.0)
    with pytest.raises(ResourceLimitError, match="timeout exceeded"):
        normal_form(P(XY2, "x^10"), [P(XY2, "x - y")], default_order(XY2), budget=budget)
    assert budget.work == 4


@pytest.mark.parametrize("kind", ["ideal", "module"])
def test_deadline_passing_mid_membership_division_aborts(monkeypatch, kind):
    # membership divides under the budget: x^10 by the basis x - y takes
    # eleven reduction steps, and the clock passes the deadline after the third
    gens = (P(XY2, "x - y"),)
    budget = ComputeBudget()
    if kind == "ideal":
        N, member = Ideal(XY2, QQ, gens), P(XY2, "x^10")
    else:
        N, member = ModulePresentation(XY2, QQ, 1, (gens,)), (P(XY2, "x^10"),)
    N.groebner_basis(None, budget)
    budget.deadline, work = 1.0, budget.work
    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) <= 3 else 2.0

    monkeypatch.setattr(groebner.time, "monotonic", clock)
    with pytest.raises(ResourceLimitError, match="timeout exceeded"):
        N.contains(member, None, budget)
    assert budget.work == work + 4


# ---------------------------------------------------------------------------
# normal forms and membership


def test_normal_form_single_division_step():
    basis = [P(XY2, "x^2 - y")]
    assert normal_form(P(XY2, "x^2"), basis, default_order(XY2)) == P(XY2, "y")


@settings(max_examples=30)
@given(poly_strategy(XY2))
def test_normal_form_idempotent(f):
    order = default_order(XY2)
    basis = list(buchberger((P(XY2, "x^2 - y"), P(XY2, "x*y - 1")), order))
    once = normal_form(f, basis, order)
    assert normal_form(once, basis, order) == once


def test_normal_form_difference_lies_in_ideal():
    order = default_order(POW2)
    basis = list(BLOWUP2.groebner_basis(order))
    f = _pow2("y1*x1 - y1*x2")
    assert normal_form(f, basis, order).is_zero


TAGGED2 = POW2.with_tag()


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize(
    "layout,order",
    [
        (POW2, default_order(POW2)),
        (POW2, default_order(POW2, "lex")),
        (POW2, MonomialOrder((POW2.base_indices, POW2.fibre_indices))),
        (TAGGED2, default_order(TAGGED2)),
    ],
    ids=["default", "lex", "elimination", "tagged"],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_normal_form_equals_reference_division(field, layout, order, data):
    # the heap-driven division must take exactly the reference's steps
    f = data.draw(poly_strategy(layout, field, max_terms=6))
    basis = [
        g
        for g in data.draw(st.lists(poly_strategy(layout, field), min_size=1, max_size=3))
        if not g.is_zero
    ]
    want_budget, got_budget = ComputeBudget(), ComputeBudget()
    want = reference_normal_form(f, basis, order, budget=want_budget)
    assert normal_form(f, basis, order, budget=got_budget) == want
    assert got_budget.work == want_budget.work


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize(
    "layout,order",
    [
        (POW2, default_order(POW2)),
        (POW2, default_order(POW2, "lex")),
        (POW2, MonomialOrder((POW2.base_indices, POW2.fibre_indices))),
        (TAGGED2, default_order(TAGGED2)),
    ],
    ids=["default", "lex", "elimination", "tagged"],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_spair_reduction_equals_reference_division(field, layout, order, data):
    # reducing an S-pair straight from the accumulator must take exactly the
    # steps of dividing the S-polynomial itself
    gens = data.draw(
        st.lists(poly_strategy(layout, field, max_terms=5), min_size=2, max_size=4)
    )
    G = [g for g in gens if not g.is_zero]
    if len(G) < 2:
        return
    i, j = data.draw(st.sampled_from(list(itertools.combinations(range(len(G)), 2))))
    packing = order.packing(32)
    basis = groebner._divisors(G, order, field, packing)
    leads = basis[0]
    lcm = packing.lcm(leads[i], leads[j])
    lcm_key = -packing.key(packing.unpack(lcm))

    def reduced(budget):
        pending, mono, scale = groebner._spair(basis, i, j, lcm, lcm_key)
        rem, steps_scale = groebner._reduce(pending, mono, basis, budget)
        return groebner._polynomial(rem, scale * steps_scale, layout, field, order, packing)

    want_budget, got_budget = ComputeBudget(), ComputeBudget()
    want = reference_normal_form(s_polynomial(G[i], G[j], order), G, order, budget=want_budget)
    assert reduced(got_budget) == want
    assert got_budget.work == want_budget.work
    assert reduced(None) == want


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize(
    "order",
    [default_order(POW2, "lex"), MonomialOrder((POW2.base_indices, POW2.fibre_indices))],
    ids=["lex", "elimination"],
)
def test_remainder_under_other_order_is_stored_in_default_order(field, order):
    # the remainder pops in descending ``order`` but must be stored
    # descending under default_order, where its leading term is read
    f = _pow2("x1^2 + y1^3 + y2*x2 + y1^2*y2^2 + x2 + 1")
    basis = [_pow2("x1 - y2"), _pow2("y2^3 - 3")]
    f, *basis = (
        Polynomial.from_dict(POW2, field, {e: field.coerce(c) for c, e in g.terms})
        for g in [f, *basis]
    )
    r = normal_form(f, basis, order)
    stored = default_order(POW2)
    keys = [stored.key(e) for _, e in r.terms]
    assert len(keys) > 2 and keys == sorted(keys, reverse=True)
    assert [order.key(e) for _, e in r.terms] != sorted(
        (order.key(e) for _, e in r.terms), reverse=True
    )
    assert r == reference_normal_form(f, basis, order)


def test_divisor_with_a_negative_lead_under_the_division_order():
    # -x2^2 leads x2^2 - y1^2*x1 in storage, but under lex y1^2*x1 leads, with
    # coefficient -1 once the stored lead is made positive; two steps by it,
    # with a remainder term popped between them, must keep the signs
    order = default_order(POW2, "lex")
    basis = [_pow2("y2*x1*x2 + y1^2*x1"), _pow2("-x2^2 + y1^2*x1"), _pow2("x1^2 + x1")]
    f = _pow2("y1^2*x1^2 - y2*x1*x2")
    want = reference_normal_form(f, basis, order)
    assert want == _pow2("x1*x2^2 + x2^2")
    assert normal_form(f, basis, order) == want


# ---------------------------------------------------------------------------
# exact division


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("layout", [POW2, TAGGED2], ids=["plain", "tagged"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_divide_returns_the_quotient_or_refuses(field, layout, data):
    # q comes back from q*f, a constant divisor included; adding a monomial
    # that LM(f) does not divide leaves a remainder, so the division refuses
    nonzero = poly_strategy(layout, field, max_terms=3).filter(lambda p: not p.is_zero)
    q, f = data.draw(nonzero), data.draw(nonzero)
    c = Polynomial.constant(layout, field, field.coerce(data.draw(st.sampled_from([1, -1, 2, 3]))))
    assert exact_divide(q * f, f) == q
    assert exact_divide(q * c, c) == q
    lead = f.leading_monomial(default_order(layout))
    support = [i for i, e in enumerate(lead) if e]
    if not support:
        return
    i = data.draw(st.sampled_from(support))
    m = list(data.draw(st.tuples(*[st.integers(0, 3)] * layout.nvars)))
    m[i] = data.draw(st.integers(0, lead[i] - 1))
    with pytest.raises(ArithmeticError):
        exact_divide(q * f + Polynomial.from_dict(layout, field, {tuple(m): field.one}), f)


def test_ideal_member_examples():
    assert BLOWUP2.contains(_pow2("y1*x1 - y1*x2"))
    assert not BLOWUP2.contains(_pow2("x1 - x2"))
    assert BLOWUP2.contains(Polynomial.zero(POW2, QQ))


def test_ideal_member_agrees_with_macaulay_oracle():
    fixtures = [
        (ideal_of(XY2, "x^2 - y", "x*y - 1"), ["x", "y", "x - y^2", "y^3 - 1", "x + y"]),
        (ideal_of(XY2, "x^2 - y"), ["x^2 - y", "x^3 - x*y", "y", "x"]),
        (BLOWUP2, ["y1*x1 - y1*x2", "x1 - x2", "y2*x1 - y2*x2", "y1", "0"]),
    ]
    for I, candidates in fixtures:
        bound = max(g.total_degree() for g in I.gens) + 6
        for text in candidates:
            f = _pow2(text) if I is BLOWUP2 else P(XY2, text)
            assert I.contains(f) == macaulay_member(f, I.gens, bound), (
                I.gens,
                text,
            )


# ---------------------------------------------------------------------------
# modules


def test_module_rank1_reduces_to_ideal():
    gens = (P(XY2, "x^2 - y"), P(XY2, "x*y - 1"))
    pres = ModulePresentation(XY2, QQ, 1, tuple((g,) for g in gens))
    mod_basis = pres.groebner_basis()
    ideal_basis = buchberger(gens, default_order(XY2))
    assert [v[0] for v in mod_basis] == list(ideal_basis)


def test_module_disjoint_positions_untouched():
    x = P(XY2, "x")
    zero = Polynomial.zero(XY2, QQ)
    pres = ModulePresentation(XY2, QQ, 2, ((x, zero), (zero, x)))
    basis = pres.groebner_basis()
    assert sorted(basis, key=str) == sorted([(x, zero), (zero, x)], key=str)


def test_module_buchberger_s_vectors_reduce_to_zero():
    y1x = P(BLOWUP_LAYOUT, "y1*x - y2")
    y1 = P(BLOWUP_LAYOUT, "y1")
    zero = Polynomial.zero(BLOWUP_LAYOUT, QQ)
    x2 = P(BLOWUP_LAYOUT, "x^2")
    y2x = P(BLOWUP_LAYOUT, "y2*x")
    pres = ModulePresentation(BLOWUP_LAYOUT, QQ, 2, ((y1x, zero), (y1, y1), (x2, y2x)))
    ring_order, order = default_order(BLOWUP_LAYOUT), pres.morder
    basis = pres.groebner_basis()
    same_position = [
        (u, v)
        for u, v in itertools.combinations(basis, 2)
        if reference_vector_leading(u, ring_order)[0] == reference_vector_leading(v, ring_order)[0]
    ]
    assert len(same_position) >= 4
    for u, v in same_position:
        s = reference_s_vector(u, v, ring_order)
        assert all(c.is_zero for c in module_normal_form(s, list(basis), order))
    for rel in pres.relations:
        assert all(c.is_zero for c in module_normal_form(rel, list(basis), order))


def test_vector_encoding_round_trips():
    layout = BLOWUP_LAYOUT.powered(2).with_tag()
    v = (PW(layout, "y1*x1 - 3*x2^2 + 1"), Polynomial.zero(layout, QQ), PW(layout, "x2*_t - y2"))
    (f,) = encode_vectors([v], layout, 3)
    assert f.layout == layout.with_positions(3)
    assert {sum(e[i] for i in f.layout.position_indices) for _, e in f.terms} == {1}
    assert decode_vectors([f]) == [v]


@pytest.mark.parametrize("within", ["grevlex", "lex"])
def test_positioned_default_order_is_term_over_position(within):
    # the ring order decides; between equal ring monomials the lower position wins
    lay = XY2.with_positions(3)
    order = default_order(lay, within)
    ring = default_order(XY2, within)
    monomials = [(a, b) for a in range(3) for b in range(3)]
    terms = [(pos, m) for pos in range(3) for m in monomials]
    by_engine = sorted(terms, key=lambda t: order.key(t[1] + tuple(int(i == t[0]) for i in range(3))))
    by_reference = sorted(terms, key=lambda t: (ring.key(t[1]), -t[0]))
    assert by_engine == by_reference


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("within", ["grevlex", "lex"])
@pytest.mark.parametrize("rank", [1, 2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_module_engine_equals_reference(field, within, rank, data):
    # the encoded ideal path must give the reduced basis and the remainders
    # of the vector-by-vector module algorithms
    vec = st.tuples(*[poly_strategy(XY2, field, max_terms=3)] * rank)
    vectors = data.draw(st.lists(vec, min_size=1, max_size=3))
    v = data.draw(vec)
    ring_order, order = default_order(XY2, within), default_order(XY2.with_positions(rank), within)
    try:
        want = reference_module_buchberger(vectors, ring_order, ComputeBudget(pair_limit=300))
    except ResourceLimitError:
        return
    assert module_buchberger(vectors, order) == want
    want_budget, got_budget = ComputeBudget(), ComputeBudget()
    want_r = reference_module_normal_form(v, want, ring_order, want_budget)
    assert module_normal_form(v, want, order, got_budget) == want_r
    assert got_budget.work == want_budget.work


# ---------------------------------------------------------------------------
# sugar and the Gebauer-Moeller update against a loop with no criterion

L3 = RingLayout(("y",), ("x1", "x2"))
GB_ORDERS = {
    "default": (L3, default_order(L3)),
    "lex": (L3, default_order(L3, "lex")),
    "elimination": (L3, MonomialOrder((L3.base_indices, L3.fibre_indices))),
    "tagged": (L3.with_tag(), default_order(L3.with_tag())),
}


@st.composite
def gens_sharing_leads(draw, layout, order, field, coeff=None):
    """Generators whose leading monomials come from a pool of one to three,
    so equal leading monomials, and pairs with equal lcms, are common; the
    coefficients are drawn from ``coeff``, by default small integers."""
    mono = st.tuples(*[st.integers(0, 2)] * layout.nvars)
    coeff = coeff if coeff is not None else st.sampled_from([-3, -2, -1, 1, 2, 3]).map(field.coerce)
    pool = draw(st.lists(mono, min_size=1, max_size=3))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        lead = draw(st.sampled_from(pool))
        terms = {e: draw(coeff) for e in draw(st.lists(mono, max_size=3)) if order.key(e) < order.key(lead)}
        terms[lead] = draw(coeff)
        gens.append(Polynomial.from_dict(layout, field, terms))
    return gens


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("name", sorted(GB_ORDERS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_buchberger_equals_reference(field, name, data):
    layout, order = GB_ORDERS[name]
    gens = data.draw(gens_sharing_leads(layout, order, field))
    try:
        want = reference_buchberger(gens, order, ComputeBudget(pair_limit=200))
    except ResourceLimitError:
        return
    assert buchberger(gens, order) == want


# ---------------------------------------------------------------------------
# rational coefficients: denominators, content, scaling, signs and big ints

# numerators up to about 2^80 and denominators up to about 2^40, either sign
RATIONALS = st.builds(Fraction, st.integers(-(2**80), 2**80).filter(bool), st.integers(1, 2**40))


@st.composite
def rational_polys(draw, layout, max_terms=4):
    mono = st.tuples(*[st.integers(0, 2)] * layout.nvars)
    return Polynomial.from_dict(layout, QQ, draw(st.dictionaries(mono, RATIONALS, max_size=max_terms)))


@pytest.mark.parametrize("name", sorted(GB_ORDERS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_rational_normal_form_equals_reference(name, data):
    layout, order = GB_ORDERS[name]
    f = data.draw(rational_polys(layout, max_terms=6))
    basis = [g for g in data.draw(st.lists(rational_polys(layout), min_size=1, max_size=3)) if not g.is_zero]
    want_budget, got_budget = ComputeBudget(), ComputeBudget()
    want = reference_normal_form(f, basis, order, budget=want_budget)
    assert normal_form(f, basis, order, budget=got_budget) == want
    assert got_budget.work == want_budget.work


@pytest.mark.parametrize("name", sorted(GB_ORDERS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_rational_s_polynomial_equals_reference(name, data):
    layout, order = GB_ORDERS[name]
    f, g = (data.draw(rational_polys(layout).filter(lambda p: not p.is_zero)) for _ in range(2))
    assert s_polynomial(f, g, order) == reference_s_polynomial(f, g, order)


@pytest.mark.parametrize("name", sorted(GB_ORDERS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_rational_buchberger_equals_reference(name, data):
    layout, order = GB_ORDERS[name]
    gens = data.draw(gens_sharing_leads(layout, order, QQ, RATIONALS))
    try:
        # the reference's Fraction arithmetic swells on large bases
        want = reference_buchberger(gens, order, ComputeBudget(pair_limit=40))
    except ResourceLimitError:
        return
    assert buchberger(gens, order) == want


# ---------------------------------------------------------------------------
# packed exponents that outgrow their width


def _basis_and_remainder(gens, f, order):
    """The basis of gens and the normal form of f by it, with the counts
    each call charged.  The cases here take at most 37 pairs and 152
    reduction steps, so a width check that stops firing ends in a
    ResourceLimitError rather than a hang."""
    gb_budget, nf_budget = ComputeBudget(pair_limit=100), ComputeBudget(pair_limit=100)
    basis = buchberger(gens, order, gb_budget)
    r = normal_form(f, basis, order, budget=nf_budget) if basis else None
    counts = [(b.pairs, b.work, b.max_basis) for b in (gb_budget, nf_budget)]
    return basis, r, counts


@contextmanager
def _forced_narrow(widths):
    """A context in which every packed computation starts at the narrowest
    width its inputs allow; ``widths`` gains each width a packing is
    requested at."""
    packing = MonomialOrder.packing
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "HEADROOM_BITS", 0)
        mp.setattr(MonomialOrder, "packing", lambda order, w: widths.append(w) or packing(order, w))
        yield


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("name", sorted(GB_ORDERS))
# a missed width check fails many draws; shrinking one of them is enough
@settings(max_examples=25, deadline=None, derandomize=True, report_multiple_bugs=False)
@given(data=st.data())
def test_widened_runs_equal_a_wide_run(field, name, data):
    # reruns at double width restore the budget, so bases, remainders and
    # every count equal those of a run that starts wide enough
    layout, order = GB_ORDERS[name]
    gens = data.draw(gens_sharing_leads(layout, order, field))
    f = data.draw(poly_strategy(layout, field, max_exp=3, max_terms=4))
    wide = _basis_and_remainder(gens, f, order)
    with _forced_narrow([]):
        assert _basis_and_remainder(gens, f, order) == wide


TAGGED_XY2 = XY2.with_tag()
NARROW_VECTORS = [(GROWING[0], P(XY2, "y")), (GROWING[1], P(XY2, "x"))]
# kind -> (generators, order, a polynomial to divide by their basis)
NARROW_CASES = {
    "grevlex": (GROWING, default_order(XY2), P(XY2, "x^5*y^4 + y^7")),
    "lex": (GROWING, default_order(XY2, "lex"), P(XY2, "x^5*y^4 + y^7")),
    "elimination": (
        A3_CHART.gens,
        MonomialOrder((A3_CHART.layout.fibre_indices, A3_CHART.layout.base_indices)),
        P(A3_CHART.layout, "x1^5*y1^3 + x2^2*y3^4"),
    ),
    "tagged": (
        tuple(P(TAGGED_XY2, t) for t in ("_t*x^3 - 2*x*y", "x^2*y - 2*y^2 + x", "_t*y - 1")),
        default_order(TAGGED_XY2),
        P(TAGGED_XY2, "_t^3*x^5 + y^7"),
    ),
    "module": (
        encode_vectors(NARROW_VECTORS, XY2, 2),
        default_order(XY2.with_positions(2)),
        encode_vectors([(P(XY2, "x^5*y^4"), P(XY2, "y^7"))], XY2, 2)[0],
    ),
}


@pytest.mark.parametrize("kind", sorted(NARROW_CASES))
def test_narrow_start_widens_and_counts_like_a_wide_run(kind):
    gens, order, f = NARROW_CASES[kind]
    wide = _basis_and_remainder(gens, f, order)
    if kind == "module":
        want = reference_module_buchberger(NARROW_VECTORS, default_order(XY2))
        assert decode_vectors(wide[0]) == want
    else:
        assert wide[0] == reference_buchberger(gens, order)
    widths = []
    with _forced_narrow(widths):
        assert _basis_and_remainder(gens, f, order) == wide
    assert len(set(widths)) > 1
