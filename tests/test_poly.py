"""Polynomial substrate: arithmetic, orders, layouts, leading data."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fibrecheck import (
    QQ,
    LayoutMismatchError,
    MonomialOrder,
    Polynomial,
    PrimeField,
    RingLayout,
    base_leading_coefficient,
    default_order,
    integer_normalized,
    relabel,
    substitute_base_point,
    transport,
)
from fibrecheck.poly import Packing, power_products

from util import (
    BLOWUP_LAYOUT,
    P,
    mono_divides,
    mono_lcm,
    reference_base_leading_coefficient,
    reference_order_key,
    reference_packing_weights,
)

XY = RingLayout(("y",), ("x",))
F5 = PrimeField(5)


def poly_strategy(layout, field=QQ, max_exp=2, max_terms=4):
    nv = layout.nvars

    @st.composite
    def build(draw):
        acc = {}
        for _ in range(draw(st.integers(0, max_terms))):
            exps = tuple(draw(st.integers(0, max_exp)) for _ in range(nv))
            c = field.coerce(draw(st.integers(-3, 3)))
            acc[exps] = field.canon(acc.get(exps, field.zero) + c)
        return Polynomial.from_dict(layout, field, acc)

    return build()


# ---------------------------------------------------------------------------
# arithmetic


def test_add_cancels_antisymmetric_parts():
    f = P(XY, "x + y") + P(XY, "x - y")
    assert f == P(XY, "2*x")


def test_mul_difference_of_squares():
    assert P(XY, "x + y") * P(XY, "x - y") == P(XY, "x^2 - y^2")


def test_mul_by_zero_absorbs():
    f = P(XY, "3*x^2*y - 7")
    assert (f * Polynomial.zero(XY, QQ)).is_zero


@pytest.mark.parametrize("op", ["+", "-", "*", "r*"])
def test_unsupported_operand_raises_type_error(op):
    # the operator returns NotImplemented, so Python raises its own TypeError
    x = P(XY, "x")
    with pytest.raises(TypeError, match="unsupported operand"):
        {"+": lambda: x + 1.5, "-": lambda: x - 1.5, "*": lambda: x * 1.5, "r*": lambda: 1.5 * x}[op]()


def test_int_and_fraction_operands_are_constants():
    x = P(XY, "x")
    assert x + 2 == P(XY, "x + 2")
    assert 2 * x == x * 2 == P(XY, "2*x")
    assert x - Fraction(1, 2) == P(XY, "x - 1/2")


def test_layout_mismatch_raises():
    other = RingLayout(("a",), ("b",))
    with pytest.raises(LayoutMismatchError):
        P(XY, "x") + P(other, "a")


@settings(max_examples=40)
@given(poly_strategy(XY), poly_strategy(XY), poly_strategy(XY))
def test_commutative_ring_axioms(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f - f == Polynomial.zero(XY, QQ)


@settings(max_examples=40)
@given(poly_strategy(XY, F5), poly_strategy(XY, F5))
def test_prime_field_coefficients_stay_reduced(f, g):
    for c, _ in (f * g + f).terms:
        assert 0 < c < 5 or c != 0
        assert 0 <= c < 5


@settings(max_examples=40)
@given(poly_strategy(XY), poly_strategy(XY))
def test_rational_coefficients_stay_canonical(f, g):
    for c, _ in (f * g).terms:
        assert isinstance(c, Fraction)
        assert c.denominator > 0
        assert c != 0


@settings(max_examples=40)
@given(
    st.sampled_from([QQ, F5]).flatmap(
        lambda fld: st.tuples(poly_strategy(XY, fld, max_terms=3), st.integers(0, 9))
    )
)
def test_power_equals_repeated_multiplication(case):
    f, n = case
    product = Polynomial.constant(XY, f.field, 1)
    for _ in range(n):
        product = product * f
    assert f**n == product


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 13])
@pytest.mark.parametrize("text", ["x", "x + 2*y", "x + y - 1"])
def test_power_products_counts_the_squaring_schedule(monkeypatch, text, n):
    # power_products must count exactly the term products ** forms when the
    # powers of the base have the most terms possible, as these bases' do
    f = P(XY, text)
    counted = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(
        Polynomial, "__mul__", lambda a, b: counted.append(len(a.terms) * len(b.terms)) or mul(a, b)
    )
    f**n
    assert sum(counted) == power_products(len(f.terms), n)
    assert power_products(0, n) == 0


# ---------------------------------------------------------------------------
# orders


def _orders_for(nvars):
    all_idx = tuple(range(nvars))
    split = (all_idx[: nvars // 2], all_idx[nvars // 2 :])
    return [
        MonomialOrder((all_idx,), "grevlex"),
        MonomialOrder((all_idx,), "lex"),
        MonomialOrder(tuple(b for b in split if b), "grevlex"),
        MonomialOrder(tuple(b for b in split if b), "lex"),
    ]


def test_order_total_and_one_minimal():
    # exhaustive on exponent vectors with entries <= 3 in 4 variables
    vectors = list(itertools.product(range(4), repeat=4))
    one = (0, 0, 0, 0)
    for order in _orders_for(4):
        keys = [order.key(v) for v in vectors]
        assert len(set(keys)) == len(keys)  # total: distinct monomials compare
        for v, k in zip(vectors, keys):
            assert k >= order.key(one)


def test_flat_key_compares_like_block_keys():
    # exhaustive on exponent vectors with entries <= 3 in 4 variables
    vectors = list(itertools.product(range(4), repeat=4))
    for order in _orders_for(4):
        flat = [order.key(v) for v in vectors]
        nested = [reference_order_key(order, v) for v in vectors]
        assert all(isinstance(k, int) for key in flat for k in key)
        for a, b in itertools.product(range(len(vectors)), repeat=2):
            assert (flat[a] < flat[b]) == (nested[a] < nested[b])


def test_order_multiplicative():
    # exhaustive triples on entries <= 2 in 3 variables
    vectors = list(itertools.product(range(3), repeat=3))
    for order in _orders_for(3):
        for a, b in itertools.combinations(vectors, 2):
            if order.key(a) >= order.key(b):
                a, b = b, a
            for c in vectors:
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert order.key(ac) < order.key(bc)


def test_fibre_monomials_beat_base_monomials():
    order = default_order(BLOWUP_LAYOUT)
    x = (0, 0, 1)
    y_big = (3, 3, 0)
    assert order.key(x) > order.key(y_big)


Y2X2 = RingLayout(("y1", "y2"), ("x1", "x2"))
PACKED_ORDERS = {
    "grevlex": (4, default_order(Y2X2)),
    "lex": (4, default_order(Y2X2, "lex")),
    "elimination": (4, MonomialOrder((Y2X2.base_indices, Y2X2.fibre_indices))),
    "tagged": (5, default_order(Y2X2.with_tag())),
    "positioned": (6, default_order(Y2X2.with_positions(2))),
    "base-first": (3, MonomialOrder(((0, 1), (2,)))),
}


@pytest.mark.parametrize("name", sorted(PACKED_ORDERS))
@settings(max_examples=60, derandomize=True)
@given(data=st.data())
def test_packing_agrees_with_tuple_monomials(name, data):
    nvars, order = PACKED_ORDERS[name]
    width = data.draw(st.integers(1, 9), label="width")
    packing = order.packing(width)
    assert order.packing(width) is packing
    top = (1 << width) - 1
    exps = st.lists(
        st.one_of(st.integers(0, top), st.sampled_from([0, 1, top])), min_size=nvars, max_size=nvars
    ).map(tuple)
    a, b, c = data.draw(exps), data.draw(exps), data.draw(exps)
    ab = tuple(x + y for x, y in zip(a, b))
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.unpack(pa) == a
    # a divides b when no field of (b | guards) - a borrows its guard bit
    assert (((pb | packing.guards) - pa) & packing.guards == packing.guards) == mono_divides(a, b)
    assert packing.unpack(packing.lcm(pa, pb)) == mono_lcm(a, b)
    # keys order like the order's keys, ties included, on vectors and on
    # products of two vectors, and a product's key is the sum of the keys
    assert packing.key(ab) == packing.key(a) + packing.key(b)
    for u, v in [(a, b), (a, c), (ab, c), (ab, a), (a, a)]:
        ku, kv = packing.key(u), packing.key(v)
        assert (ku < kv, ku == kv) == (order.key(u) < order.key(v), order.key(u) == order.key(v))
    # a product is a sum, and one past the width sets a guard bit rather
    # than wrapping into the next field
    assert packing.unpack(pa + pb) == ab
    assert bool((pa + pb) & packing.guards) == (max(ab, default=0) > top)


@pytest.mark.parametrize("name", sorted(PACKED_ORDERS))
def test_packed_keys_order_every_product_like_the_order(name):
    # exhaustive over exponents up to 2^(width + 1) - 1, the range of a
    # product of two packed vectors: a key digit may span no less
    nvars, order = PACKED_ORDERS[name]
    for width in (1, 2) if nvars <= 4 else (1,):
        packing = order.packing(width)
        vectors = list(itertools.product(range(1 << (width + 1)), repeat=nvars))
        by_packed = sorted(vectors, key=packing.key)
        assert by_packed == sorted(vectors, key=order.key)
        assert len({packing.key(v) for v in vectors}) == len(vectors)


@pytest.mark.parametrize("within", ["grevlex", "lex"])
def test_packing_weights_sum_only_nonzero_digits(within):
    # a unit vector's key has few nonzero digits; the weights summed over
    # those alone equal the sums over every digit, on 2 + 2*2 + 1 + 200 variables
    order = default_order(Y2X2.powered(2).with_tag().with_positions(200), within)
    for width in (1, 17):
        assert Packing(order, width).weights == reference_packing_weights(order, width)


@pytest.mark.parametrize("within", ["grevlex", "lex"])
@pytest.mark.parametrize("layout", [Y2X2.with_tag(), Y2X2.with_positions(4)], ids=["tagged", "positioned"])
@settings(max_examples=40, derandomize=True)
@given(data=st.data())
def test_degree_key_sums_only_the_nonzero_fields(layout, within, data):
    # the degree and key of a packed monomial from its nonzero fields equal
    # those of its unpacked exponents, up to 2^width - 1 in every field
    packing = default_order(layout, within).packing(data.draw(st.integers(1, 9), label="width"))
    top = (1 << packing.width) - 1
    exps = data.draw(
        st.lists(st.one_of(st.integers(0, top), st.sampled_from([0, 0, top])), min_size=layout.nvars, max_size=layout.nvars)
    )
    m = packing.pack(tuple(exps))
    assert packing.degree_key(m) == (sum(packing.unpack(m)), packing.key(packing.unpack(m)))


def test_degree_key_on_the_power_3_layout_of_a_rank_12_module():
    layout = RingLayout(("y1", "y2", "y3", "y4"), (), 3).with_positions(12**3)
    assert layout.nvars == 1732
    packing = default_order(layout).packing(17)
    exps = [0] * layout.nvars
    exps[1], exps[3], exps[1000], exps[-1] = 3, (1 << 17) - 1, 1, 2
    m = packing.pack(tuple(exps))
    assert packing.degree_key(m) == (sum(packing.unpack(m)), packing.key(packing.unpack(m)))
    assert packing.degree_key(m)[0] == 3 + (1 << 17) - 1 + 1 + 2


# ---------------------------------------------------------------------------
# leading data


def test_leading_term_fibre_over_base():
    f = P(BLOWUP_LAYOUT, "y1*x - y2")
    c, m = f.leading_term(default_order(BLOWUP_LAYOUT))
    assert m == (1, 0, 1)  # y1*x
    assert c == 1


def test_leading_term_grevlex_degree_tie():
    lay = RingLayout((), ("x", "y"))
    f = P(lay, "x^2 + x*y")
    _, m = f.leading_term(default_order(lay))
    assert m == (2, 0)


def test_leading_term_constant():
    f = P(XY, "5")
    c, m = f.leading_term()
    assert c == 5 and m == (0, 0)


def test_leading_term_of_zero_raises():
    with pytest.raises(ValueError):
        Polynomial.zero(XY, QQ).leading_term()


POW2 = RingLayout(("y1", "y2"), ("x1", "x2"), copies=2)
TAGGED = POW2.with_tag()


@pytest.mark.parametrize(
    "layout,order",
    [
        (POW2, None),
        (POW2, default_order(POW2)),
        (POW2, default_order(POW2, "lex")),
        (POW2, MonomialOrder((POW2.base_indices, POW2.fibre_indices))),
        (TAGGED, default_order(TAGGED)),
    ],
    ids=["none", "default", "lex", "elimination", "tagged"],
)
@settings(max_examples=40)
@given(data=st.data())
def test_leading_term_matches_full_scan(layout, order, data):
    # leading_term reads the first stored term for the stored order; it must
    # agree with a scan of all terms for every order and every constructor
    f = data.draw(poly_strategy(layout))
    g = data.draw(poly_strategy(layout))
    scan_order = order or default_order(layout)
    for h in (f, -f, f * g, f - g):
        if h.is_zero:
            continue
        expected = max(h.terms, key=lambda t: scan_order.key(t[1]))
        assert h.leading_term(order) == expected


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@settings(max_examples=40)
@given(data=st.data())
def test_mul_term_keeps_stored_order(field, data):
    # mul_term builds its product in the stored order without sorting; it
    # must equal the product built and sorted by from_dict
    layout = TAGGED
    f = data.draw(poly_strategy(layout, field))
    coeff = field.coerce(data.draw(st.integers(-7, 7)))
    exps = tuple(data.draw(st.integers(0, 2)) for _ in range(layout.nvars))
    acc = {}
    if coeff:
        acc = {tuple(a + b for a, b in zip(e, exps)): field.canon(c * coeff) for c, e in f.terms}
    expected = Polynomial.from_dict(layout, field, acc)
    order = default_order(layout)
    for got, want in (
        (f.mul_term(coeff, exps), expected),
        (f.scale(coeff), _general_product(f, Polynomial.constant(layout, field, coeff))),
    ):
        assert got == want
        keys = [order.key(e) for _, e in got.terms]
        assert keys == sorted(keys, reverse=True)
        assert len(set(keys)) == len(keys)


def _general_product(f, g):
    """f * g summed term by term in a dict and sorted by from_dict."""
    a, b = ({e: c for c, e in p.terms} for p in (f, g))
    return Polynomial.from_dict(f.layout, f.field, _reference_product(a, b))


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@settings(max_examples=40, derandomize=True)
@given(data=st.data())
def test_product_with_a_one_term_factor_equals_the_general_product(field, data):
    # a one-term factor, on either side, multiplies by mul_term; terms,
    # their order and their coefficient types are those of the general product
    layout = TAGGED
    f = data.draw(poly_strategy(layout, field))
    coeff = field.coerce(data.draw(st.integers(1, 4)))
    exps = tuple(data.draw(st.integers(0, 2)) for _ in range(layout.nvars))
    t = Polynomial(layout, field, ((coeff, exps),))
    c = Polynomial.constant(layout, field, data.draw(st.integers(1, 4)))
    zero = Polynomial.zero(layout, field)
    for a, b in [(f, t), (t, f), (f, c), (c, f), (t, t), (t, zero), (zero, t), (c, zero), (f, zero)]:
        got, want = a * b, _general_product(a, b)
        assert [(type(x), x, e) for x, e in got.terms] == [(type(x), x, e) for x, e in want.terms]


F32003 = PrimeField(32003)


def _raw_coefficients(p):
    """Coefficients as a caller may hand them in: Fractions over Q (p = 0),
    ints of either sign and past p over F_p."""
    if not p:
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    return st.one_of(st.integers(-2 * p - 3, 2 * p + 3), st.integers(-3, 3))


def _raw_dict(layout, p):
    monos = st.tuples(*[st.integers(0, 2)] * layout.nvars)
    return st.dictionaries(monos, _raw_coefficients(p), max_size=4)


def _reference_terms(acc, layout, p):
    """The terms of a {monomial: value} dict: values taken mod p over F_p,
    zeros dropped, sorted descending by the reference order key."""
    order = default_order(layout)
    terms = [(c % p if p else c, e) for e, c in acc.items()]
    return sorted([t for t in terms if t[0]], key=lambda t: reference_order_key(order, t[1]), reverse=True)


def _reference_sum(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


def _reference_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


@pytest.mark.parametrize("field", [QQ, F5, F32003], ids=["Q", "F5", "F32003"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_arithmetic_matches_plain_dict_reference(field, data):
    # every operation must give, term for term, what Fraction or int
    # arithmetic on dicts gives with an explicit reduction mod p at the end
    p, layout = field.characteristic, Y2X2
    a, b = data.draw(_raw_dict(layout, p)), data.draw(_raw_dict(layout, p))
    f, g = Polynomial.from_dict(layout, field, a), Polynomial.from_dict(layout, field, b)
    coeff = data.draw(_raw_coefficients(p))
    exps = data.draw(st.tuples(*[st.integers(0, 2)] * layout.nvars))
    n = data.draw(st.integers(0, 4))
    negated = {e: -c for e, c in b.items()}
    power = {(0,) * layout.nvars: Fraction(1) if not p else 1}
    for _ in range(n):
        power = _reference_product(power, a)
    cases = [
        (f + g, _reference_sum(a, b)),
        (f - g, _reference_sum(a, negated)),
        (-g, negated),
        (f * g, _reference_product(a, b)),
        (f.mul_term(coeff, exps), _reference_product(a, {exps: coeff})),
        (f.scale(coeff), _reference_product(a, {(0,) * layout.nvars: coeff})),
        (f**n, power),
    ]
    for got, acc in cases:
        want = _reference_terms(acc, layout, p)
        assert [(type(c), c, e) for c, e in got.terms] == [(type(c), c, e) for c, e in want]


def test_from_dict_stores_canonical_prime_field_values():
    e = (1, 0)
    assert Polynomial.from_dict(XY, F5, {e: 7}).terms == ((2, e),)
    assert Polynomial.from_dict(XY, F5, {e: 5}).is_zero
    f = Polynomial.from_dict(XY, F5, {e: -1})
    assert f.terms == ((4, e),)
    assert str(f) == "4*y"


def test_from_dict_stores_fractions_over_q():
    # int values become Fractions through QQ.coerce, in products and sums too
    layout = RingLayout(("y1", "y2"), ("x",))
    g = Polynomial.from_dict(layout, QQ, {(1, 0, 1): 1, (0, 1, 0): -1})
    for f, text in [(g, "y1*x - y2"), (g * g, "y1^2*x^2 - 2*y1*y2*x + y2^2"), (g + g, "2*y1*x - 2*y2")]:
        assert all(type(c) is Fraction for c, _ in f.terms)
        assert str(f) == text


def test_derived_layouts_are_made_once():
    layout = RingLayout(("y1", "y2"), ("x",))
    positioned = layout.with_positions(2)
    assert layout.with_positions(2) is positioned
    assert positioned.with_positions(0) is positioned.with_positions(0)
    assert positioned.with_positions(0) == layout
    assert layout.with_tag() is layout.with_tag()
    assert layout.powered(2) is layout.powered(2)
    assert layout.base_only() is layout.base_only()
    assert layout.fibre_only() is layout.fibre_only()
    # equality and hashing stay on the declared fields
    twin = RingLayout(("y1", "y2"), ("x",), 1, None, 2)
    assert twin is not positioned and twin == positioned and hash(twin) == hash(positioned)
    f = P(layout, "y1*x - y2")
    assert hash(f) == hash(f) == hash(Polynomial(layout, QQ, f.terms))


def _transport_by_names(f, layout):
    """transport through a dict and a sort; LayoutMismatchError when f uses
    a variable the layout lacks."""
    names = f.layout.var_names()
    acc = {}
    for c, e in f.terms:
        new_e = [0] * layout.nvars
        for i, x in enumerate(e):
            if x:
                if names[i] not in layout.var_names():
                    raise LayoutMismatchError(f"variable {names[i]!r} absent from target layout")
                new_e[layout.index_of(names[i])] = x
        acc[tuple(new_e)] = c
    return Polynomial.from_dict(layout, f.field, acc)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_transport_keeps_stored_order(field, data):
    # the two moves keep the stored order without a sort: with the same base,
    # fibre block and copies, adding or dropping a tag (positioned or not) or
    # positions; and moving a pure-base polynomial between layouts with the
    # same base.  Each must equal the result gathered by name in a dict and
    # sorted, term for term, and move back to f.
    positioned, positioned3 = Y2X2.with_positions(2), POW2.with_positions(3)
    moves = (
        (POW2, POW2),  # the same layout object
        (POW2, RingLayout(("y1", "y2"), ("x1", "x2"), copies=2)),  # an equal layout, built separately
        (POW2, TAGGED),
        (positioned, positioned.with_tag()),
        (positioned3, positioned3.with_tag()),  # the tag sits before three positions
        (Y2X2, positioned),
        (TAGGED, positioned3.with_tag()),  # positions after a tag
        (Y2X2, positioned.with_tag()),  # a tag and positions at once
    )
    pure_base = (
        (Y2X2.base_only(), TAGGED),
        (Y2X2, positioned3.with_tag()),  # other copies, a tag and positions at once
        (positioned, POW2),
        (RingLayout(("y1", "y2"), ("x2", "x1")), Y2X2),  # fibre reordered
    )
    for (src, dst), pure in [(move, False) for move in moves] + [(move, True) for move in pure_base]:
        f = data.draw(poly_strategy(src.base_only() if pure else src, field))
        f = transport(f, src) if pure else f
        there = transport(f, dst)
        assert there.layout is dst
        assert there.terms == _transport_by_names(f, dst).terms
        assert transport(there, src).terms == f.terms
    f = data.draw(poly_strategy(POW2, field))
    assert transport(f, POW2) is f
    # dropping a tag that some term uses
    for src in (TAGGED, positioned3.with_tag()):
        dst = RingLayout(src.base_vars, src.fibre_vars, src.copies, None, src.positions)
        f = data.draw(poly_strategy(dst, field))
        h = data.draw(poly_strategy(dst, field).filter(lambda p: not p.is_zero))
        g = transport(f, src) + Polynomial.variable(src, field, src.tag_var) * transport(h, src)
        message = re.escape(f"variable {src.tag_var!r} absent from target layout")
        for move in (transport, _transport_by_names):
            with pytest.raises(LayoutMismatchError, match=message):
                move(g, dst)
    # every other move is refused, also where the names would match: a fibre
    # variable into another fibre block or other copies, a used position
    # dropped, another base
    f = data.draw(poly_strategy(Y2X2, field).filter(lambda p: any(any(e[2:]) for _, e in p.terms)))
    for dst in (RingLayout(("y1", "y2"), ("x2", "x1")), POW2.with_tag(), RingLayout(("y2", "y1"), ("x1", "x2"))):
        with pytest.raises(LayoutMismatchError, match="no move by block structure"):
            transport(f, dst)
    g = transport(f, positioned) * Polynomial.variable(positioned, field, "[2]")
    with pytest.raises(LayoutMismatchError, match="no move by block structure"):
        transport(g, Y2X2.with_positions(1))
    with pytest.raises(LayoutMismatchError, match="no move by block structure"):
        transport(Polynomial.constant(Y2X2, field, 1), RingLayout(("y1",), ("x1", "x2")))


def test_base_leading_coefficient_examples():
    assert base_leading_coefficient(P(BLOWUP_LAYOUT, "y1*x - y2")) == P(BLOWUP_LAYOUT, "y1")
    f = P(BLOWUP_LAYOUT, "(y1 + y2)*x^2 + y1*x")
    assert base_leading_coefficient(f) == P(BLOWUP_LAYOUT, "y1 + y2")
    g = P(BLOWUP_LAYOUT, "y1^3 - y2^2")  # pure base: fibre part is 1
    assert base_leading_coefficient(g) == g


def test_base_leading_coefficient_extraction_identity():
    order = default_order(BLOWUP_LAYOUT)
    for text in ("y1*x - y2", "(y1 + y2)*x^2 + y1*x - 3", "y1^3 - y2^2 + y2*x"):
        f = P(BLOWUP_LAYOUT, text)
        blc = base_leading_coefficient(f, order)
        _, lm = f.leading_term(order)
        fibre_mono = (0, 0) + lm[2:]
        fibre_poly = Polynomial.from_dict(BLOWUP_LAYOUT, QQ, {fibre_mono: QQ.one})
        extracted = Polynomial.from_dict(
            BLOWUP_LAYOUT, QQ, {e: c for c, e in f.terms if e[2:] == lm[2:]}
        )
        assert blc * fibre_poly - extracted == Polynomial.zero(BLOWUP_LAYOUT, QQ)


@pytest.mark.parametrize("within", ["grevlex", "lex"])
@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_base_leading_coefficient_keeps_stored_order(field, within, data):
    # the coefficient is built from the kept terms without a sort; it must
    # equal, term for term, the one gathered in a dict and sorted, also with
    # a tag and with position variables
    for layout in (TAGGED, Y2X2.with_positions(2)):
        f = data.draw(poly_strategy(layout, field).filter(lambda p: not p.is_zero))
        for order in (default_order(layout, within), None):
            assert base_leading_coefficient(f, order).terms == reference_base_leading_coefficient(f, order).terms


def test_base_leading_coefficient_rejects_base_first_order():
    order = MonomialOrder(((0, 1), (2,)), "grevlex")  # base ahead of fibre
    with pytest.raises(ValueError):
        base_leading_coefficient(P(BLOWUP_LAYOUT, "y1*x - y2"), order)


# ---------------------------------------------------------------------------
# substitution and relabelling


def test_substitute_base_point():
    f = P(BLOWUP_LAYOUT, "y1*x - y2")
    assert substitute_base_point(f, (0, 0)).is_zero
    at11 = substitute_base_point(f, (1, 1))
    fibre = BLOWUP_LAYOUT.fibre_only()
    assert at11 == P(fibre, "x - 1")
    g = P(XY, "x^2 - y")
    assert substitute_base_point(g, (4,)) == P(XY.fibre_only(), "x^2 - 4")


def test_substitute_dimension_mismatch():
    with pytest.raises(ValueError):
        substitute_base_point(P(BLOWUP_LAYOUT, "y1*x"), (1,))


def test_relabel_into_second_copy():
    target = BLOWUP_LAYOUT.powered(2)
    f = relabel(P(BLOWUP_LAYOUT, "y1*x - y2"), target, 2)
    assert str(f) == "y1*x(2) - y2"


def test_relabel_fixes_base():
    target = BLOWUP_LAYOUT.powered(3)
    g = P(BLOWUP_LAYOUT, "y1^3 - y2^2")
    for i in (1, 2, 3):
        assert str(relabel(g, target, i)) == "y1^3 - y2^2"


def test_relabel_single_copy():
    lay = RingLayout((), ("x",))
    target = lay.powered(1)
    assert str(relabel(P(lay, "x^2"), target, 1)) == "x^2"


def _relabel_by_names(f, target, i):
    """relabel through variable names, a dict and a sort."""
    nb, names = len(f.layout.base_vars), f.layout.var_names()
    moved = [n if j < nb or target.copies == 1 else f"{n}({i})" for j, n in enumerate(names)]
    acc = {}
    for c, e in f.terms:
        new_e = [0] * target.nvars
        for name, x in zip(moved, e):
            new_e[target.index_of(name)] = x
        acc[tuple(new_e)] = c
    return Polynomial.from_dict(target, f.field, acc)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_relabel_keeps_stored_order(field, data):
    # relabel shifts the fibre block into copy i without a sort; it must
    # equal, term for term, the polynomial gathered by name and sorted
    src = data.draw(st.sampled_from([Y2X2, RingLayout(("y1",), ("x1", "x2", "x3"))]))
    f = data.draw(poly_strategy(src, field))
    k = data.draw(st.integers(1, 3))
    for target in (src.powered(k), src.powered(k).with_tag(), src.powered(k).with_positions(2)):
        for i in range(1, k + 1):
            assert relabel(f, target, i).terms == _relabel_by_names(f, target, i).terms


def test_relabel_rejects_tag_and_positions():
    for src in (Y2X2.with_tag(), Y2X2.with_positions(2)):
        with pytest.raises(ValueError, match="without tag or positions"):
            relabel(Polynomial.zero(src, QQ), Y2X2.powered(2), 1)


def test_relabel_copy_out_of_range():
    with pytest.raises(ValueError):
        relabel(P(BLOWUP_LAYOUT, "x"), BLOWUP_LAYOUT.powered(2), 3)


# ---------------------------------------------------------------------------
# normalization and layouts


def test_integer_normalized_display():
    f = P(BLOWUP_LAYOUT, "1/2*y1 - 1/3*y2") * P(BLOWUP_LAYOUT, "-6")
    g = integer_normalized(f)
    assert str(g) == "3*y1 - 2*y2" or str(g) == "-3*y1 + 2*y2"
    assert g.leading_coefficient() > 0


def test_layout_name_collision_rejected():
    with pytest.raises(ValueError):
        RingLayout(("x", "x"), ())


def test_tag_layout_avoids_collisions():
    # the tag is named [t], like the positions a name no input can declare
    lay = RingLayout(("_t", "t"), ("x",))
    ext = lay.with_tag()
    assert ext.tag_var == "[t]" and ext.var_names()[ext.tag_index] == "[t]"
    assert len(set(ext.var_names())) == ext.nvars


def test_layout_names_are_made_once_and_leave_equality_alone():
    lay = RingLayout(("y1", "y2"), ("x",), 2, "_t", 2)
    names = lay.var_names()
    assert names == ("y1", "y2", "x(1)", "x(2)", "_t", "[1]", "[2]")
    assert lay.var_names() is names
    assert [lay.index_of(n) for n in names] == list(range(lay.nvars))
    with pytest.raises(KeyError, match="unknown variable 'z'"):
        lay.index_of("z")
    twin = RingLayout(("y1", "y2"), ("x",), 2, "_t", 2)
    assert twin == lay and hash(twin) == hash(lay) and {lay: 1}[twin] == 1
    assert repr(twin) == repr(lay) and "_names" not in repr(lay)
    assert lay != lay.with_positions(1)
