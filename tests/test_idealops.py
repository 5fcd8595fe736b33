"""Derived ideal operations: contraction to the base, quotient, saturation,
radical membership, and dimension diagnostics."""

import pytest
from hypothesis import given, settings, strategies as st

from fibrecheck import (
    QQ,
    ComputeBudget,
    Ideal,
    ModulePresentation,
    Polynomial,
    PrimeField,
    RingLayout,
    contract_to_base,
    default_order,
    fibre_dim,
    fibred_power_ideal,
    krull_dim,
    module_saturate,
    quotient,
    radical_member,
    saturate,
    transport,
)
from fibrecheck import idealops
from fibrecheck.groebner import encode_vectors

from oracles import macaulay_member, saturate_by_quotients
from test_poly import poly_strategy
from util import (
    BLOWUP_LAYOUT,
    CUSP_LAYOUT,
    LINE_LAYOUT,
    P,
    PW,
    count_computations,
    ideal_equal,
    ideal_of,
    reference_unit,
)

XY2 = RingLayout((), ("x", "y"))
BLOWUP_IDEAL = ideal_of(BLOWUP_LAYOUT, "y1*x - y2")
BLOWUP2 = fibred_power_ideal(BLOWUP_IDEAL, 2)
POW2 = BLOWUP2.layout


def _pw(text):
    return PW(POW2, text)


# ---------------------------------------------------------------------------
# contraction


def test_contract_to_base_cusp():
    I = ideal_of(CUSP_LAYOUT, "y1 - t^2", "y2 - t^3")
    out = contract_to_base(I)
    base = CUSP_LAYOUT.base_only()
    assert out.layout == base
    assert ideal_equal(out, ideal_of(base, "y1^3 - y2^2"))


def test_eliminate_soundness_only_kept_variables_appear():
    """Eliminating the fibre variable t: every generator of the contraction,
    read back in the full ring, is free of t and lies in I."""
    I = ideal_of(CUSP_LAYOUT, "y1 - t^2", "y2 - t^3")
    out = contract_to_base(I)
    assert out.gens
    drop = CUSP_LAYOUT.index_of("t")
    for g in out.gens:
        back = transport(g, CUSP_LAYOUT)
        assert drop not in back.support_indices()
        assert I.contains(back)


def test_contract_to_base_of_blowup_is_zero():
    out = contract_to_base(BLOWUP_IDEAL)
    assert out.gens == ()


# ---------------------------------------------------------------------------
# quotient


def test_quotient_monomial_example():
    I = ideal_of(XY2, "x*y")
    out = quotient(I, P(XY2, "x"))
    assert ideal_equal(out, ideal_of(XY2, "y"))


def test_quotient_by_nonzerodivisor_is_identity():
    I = ideal_of(XY2, "x^2 - y")
    out = quotient(I, P(XY2, "x + 1"))
    assert ideal_equal(out, I)


def test_quotient_defining_property():
    I = ideal_of(XY2, "x^2*y", "x*y^2")
    f = P(XY2, "x*y")
    out = quotient(I, f)
    for g in out.gens:
        assert I.contains(g * f)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_quotient_on_random_ideals(field, data):
    """I ⊆ I : f, g*f ∈ I for every generator g of I : f (by the engine and by
    the Macaulay oracle), and the grevlex and lex quotients are one ideal."""
    polys = poly_strategy(LINE_LAYOUT, field, max_exp=2, max_terms=3)
    gens = data.draw(st.lists(polys, min_size=1, max_size=3))
    f = data.draw(polys.filter(lambda p: not p.is_zero))
    I = Ideal(LINE_LAYOUT, field, tuple(gens))
    by_order = {within: quotient(I, f, within) for within in ("grevlex", "lex")}
    for Q in by_order.values():
        assert all(Q.contains(h) for h in I.gens)
        for g in Q.gens:
            assert I.contains(g * f)
            assert macaulay_member(g * f, I.gens, (g * f).total_degree() + 4)
    assert ideal_equal(by_order["grevlex"], by_order["lex"])


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_quotient_with_upper_bound_on_random_ideals(field, data):
    """Given I : f^infinity as its upper bound, the quotient has the reduced
    basis of the plain quotient, under grevlex and lex, whether the bound is
    taken or the tagged basis is built."""
    polys = poly_strategy(LINE_LAYOUT, field, max_exp=2, max_terms=3)
    gens = data.draw(st.lists(polys, min_size=1, max_size=3))
    f = data.draw(polys.filter(lambda p: not p.is_zero))
    I = Ideal(LINE_LAYOUT, field, tuple(gens))
    for within in ("grevlex", "lex"):
        order = default_order(LINE_LAYOUT, within)
        bounded = quotient(I, f, within, upper=saturate(I, f, within))
        assert bounded.groebner_basis(order) == quotient(I, f, within).groebner_basis(order)


@pytest.mark.parametrize("gens, want, taken", [("x*y", "y", True), ("x^2*y", "x*y", False)])
def test_quotient_takes_its_upper_bound_only_when_it_is_the_quotient(monkeypatch, gens, want, taken):
    # (x*y) : x = (y) = (x*y) : x^infinity, so the saturation is returned
    # itself; (x^2*y) : x = (x*y) lies strictly inside (y), so the tagged
    # intersection basis is built
    I, x = ideal_of(XY2, gens), P(XY2, "x")
    upper = saturate(I, x)
    computed = count_computations(monkeypatch)
    out = quotient(I, x, upper=upper)
    assert ideal_equal(out, ideal_of(XY2, want))
    tagged = [g for g in computed if g[0].layout == XY2.with_tag()]
    assert (out is upper, len(tagged)) == (taken, 0 if taken else 1)


def test_quotient_charges_its_exact_divisions(monkeypatch):
    """Dividing I ∩ (f) by f charges reduction steps to the budget, beyond
    those of the tagged basis."""
    build, after_basis = idealops.buchberger, []

    def spy(gens, order, budget, eliminate=None):
        basis = build(gens, order, budget, eliminate)
        after_basis.append(budget.work)
        return basis

    monkeypatch.setattr(idealops, "buchberger", spy)
    budget = ComputeBudget()
    out = quotient(ideal_of(CUSP_LAYOUT, "y1 - t^2", "y2 - t^3"), P(CUSP_LAYOUT, "t"), budget=budget)
    assert out.gens and len(after_basis) == 1
    assert budget.work > after_basis[0]


def test_quotient_by_zero_raises():
    with pytest.raises(ValueError):
        quotient(ideal_of(XY2, "x"), Polynomial.zero(XY2, QQ))


# ---------------------------------------------------------------------------
# saturation


def test_saturate_strips_embedded_monomial_factor():
    I = ideal_of(XY2, "x^2*y", "x*y^2")
    out = saturate(I, P(XY2, "x"))
    assert ideal_equal(out, ideal_of(XY2, "y"))


def test_saturate_blowup_power2_contains_diagonal_gap():
    out = saturate(BLOWUP2, _pw("y1*y2"))
    assert out.contains(_pw("x1 - x2"))
    assert not BLOWUP2.contains(_pw("x1 - x2"))


def test_saturate_is_idempotent():
    cases = [
        (ideal_of(XY2, "x^2*y", "x*y^2"), P(XY2, "x")),
        (BLOWUP2, _pw("y1*y2")),
        (ideal_of(XY2, "x^2 - y"), P(XY2, "y")),
    ]
    for I, f in cases:
        once = saturate(I, f)
        twice = saturate(once, f)
        assert ideal_equal(once, twice)


def test_saturate_agrees_with_quotient_chain_oracle():
    cases = [
        (ideal_of(XY2, "x^2*y", "x*y^2"), P(XY2, "x")),
        (BLOWUP2, _pw("y1*y2")),
        (ideal_of(BLOWUP_LAYOUT, "x*y1", "x*y2"), P(BLOWUP_LAYOUT, "x")),
        (ideal_of(XY2, "x^3", "x*y"), P(XY2, "y")),
    ]
    for I, f in cases:
        assert ideal_equal(saturate(I, f), saturate_by_quotients(I, f))


def test_saturate_by_constant_is_identity():
    I = ideal_of(XY2, "x^2 - y")
    assert ideal_equal(saturate(I, P(XY2, "7")), I)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("rank", [0, 2])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_with_inverse_equals_arithmetic(field, rank, data):
    # 1 - t*f built term by term, and placed at every position of an encoded
    # submodule, must equal the polynomial computed by arithmetic
    layout = BLOWUP_LAYOUT.with_positions(rank)
    f = data.draw(poly_strategy(BLOWUP_LAYOUT, field, max_terms=4).filter(lambda f: not f.is_zero))
    I = Ideal(layout, field, (Polynomial.variable(layout, field, "x"),))
    ext, gens = idealops._with_inverse(I, f)
    t = Polynomial.variable(ext, field, ext.tag_var)
    unit = Polynomial.constant(ext, field, 1) - t * transport(f, ext)
    units = [unit * Polynomial.variable(ext, field, e) for e in ext.position_vars] if rank else [unit]
    assert gens == [transport(g, ext) for g in I.gens] + units


def test_position_monomials_are_unit_exponents():
    # on a rank-5 presentation, each component of an encoded vector carries
    # its position's unit exponents, and 1 - t*f is placed at each position
    # by multiplying with them
    lay, rank = BLOWUP_LAYOUT, 5
    vectors = [
        tuple(P(lay, f"{i + 1}*y1*x^{i} - y2") if i % 2 == j % 2 else P(lay, "0") for i in range(rank))
        for j in range(3)
    ] + [tuple(P(lay, "x") if i == rank - 1 else P(lay, "0") for i in range(rank))]
    encoded = encode_vectors(vectors, lay, rank)
    key = default_order(lay.with_positions(rank)).key
    for v, f in zip(vectors, encoded):
        terms = [(c, e + reference_unit(rank, i)) for i, comp in enumerate(v) for c, e in comp.terms]
        assert f.terms == tuple(sorted(terms, key=lambda t: key(t[1]), reverse=True))
    I = Ideal(lay.with_positions(rank), QQ, tuple(encoded))
    f = P(lay, "y1*y2 - 3")
    ext, gens = idealops._with_inverse(I, f)
    inverse = Polynomial.constant(ext, QQ, 1) - Polynomial.variable(ext, QQ, ext.tag_var) * transport(f, ext)
    assert gens[len(encoded) :] == [inverse.mul_term(QQ.one, reference_unit(ext.nvars, i)) for i in ext.position_indices]


def test_module_saturate_torsion_example():
    # presentation of R^2 / <(y; 0)>: saturating by y exposes (1; 0)
    lay = RingLayout(("y",), ("x",))
    rel = (P(lay, "y"), Polynomial.zero(lay, QQ))
    pres = ModulePresentation(lay, QQ, 2, (rel,))
    out = module_saturate(pres, P(lay, "y"))
    one = Polynomial.constant(lay, QQ, 1)
    zero = Polynomial.zero(lay, QQ)
    assert pres_contains(out, (one, zero))
    assert not pres_contains(pres, (one, zero))


def pres_contains(pres, vec):
    return pres.contains(vec)


# ---------------------------------------------------------------------------
# radical membership


def test_radical_member_examples():
    I = ideal_of(XY2, "x^2")
    assert radical_member(P(XY2, "x"), I)
    assert not radical_member(P(XY2, "y"), I)
    assert radical_member(Polynomial.zero(XY2, QQ), I)
    assert radical_member(P(XY2, "x*y + x"), I)


def test_radical_member_consistent_with_explicit_powers():
    cases = [
        (ideal_of(XY2, "x^2", "y^3"), [P(XY2, t) for t in ("x", "y", "x + y", "x*y")], True),
        (ideal_of(XY2, "x^2", "y^3"), [P(XY2, t) for t in ("x + 1", "y - x - 2")], False),
        (BLOWUP2, [_pw("y2*x1 - y2*x2")], True),
    ]
    for I, polys, expected in cases:
        for f in polys:
            assert radical_member(f, I) == expected
            if expected:
                # some explicit power must land in the ideal
                assert any(I.contains(f ** k) for k in range(1, 11))


# ---------------------------------------------------------------------------
# dimension


def test_krull_dim_blowup_power1():
    report = krull_dim(BLOWUP_IDEAL)
    assert report.dim == 2


def test_krull_dim_unit_and_zero_ideals():
    assert krull_dim(ideal_of(XY2, "1")).dim == -1
    assert krull_dim(Ideal(XY2, QQ, ())).dim == 2


def test_krull_dim_point():
    assert krull_dim(ideal_of(XY2, "x", "y")).dim == 0


def test_fibre_dim_blowup():
    assert fibre_dim(BLOWUP_IDEAL, (0, 0)).dim == 1  # fibre over origin: a line
    assert fibre_dim(BLOWUP_IDEAL, (1, 1)).dim == 0  # generic fibre: a point


def test_nagata_equality_on_blowup():
    # dim(source) = dim(base) + generic fibre dimension: 2 = 2 + 0
    assert krull_dim(BLOWUP_IDEAL).dim == 2
    assert len(BLOWUP_LAYOUT.base_vars) + fibre_dim(BLOWUP_IDEAL, (1, 1)).dim == 2


def test_fibre_dim_empty_fibre():
    I = ideal_of(BLOWUP_LAYOUT, "x*y1 - 1")
    assert fibre_dim(I, (0, 0)).dim == -1
