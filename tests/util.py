"""Shared test helpers: compact polynomial construction, ideal equality and
reference implementations."""

from __future__ import annotations

from fibrecheck import QQ, Ideal, Polynomial, RingLayout, groebner
from fibrecheck.cli import _parse_polyexpr, _Tokens
from fibrecheck.poly import mono_div, mono_divides


def P(layout: RingLayout, text: str, field=QQ) -> Polynomial:
    """Parse a polynomial expression against a layout's bare variable names."""
    return _parse_polyexpr(_Tokens(text, 1, 0), layout, field)


def PW(powered: RingLayout, text: str, field=QQ) -> Polynomial:
    """Parse against a powered layout, accepting bare aliases like ``x1`` for
    the copy-tagged variable names ``x(1)``."""
    names = powered.var_names()
    alias = {n.replace("(", "").replace(")", ""): n for n in names}
    helper = RingLayout((), tuple(alias))
    f = P(helper, text, field)
    helper_names = helper.var_names()
    acc = {}
    for c, e in f.terms:
        new_e = [0] * powered.nvars
        for i, x in enumerate(e):
            if x:
                new_e[names.index(alias[helper_names[i]])] = x
        acc[tuple(new_e)] = c
    return Polynomial.from_dict(powered, field, acc)


def ideal_of(layout: RingLayout, *exprs: str, field=QQ) -> Ideal:
    return Ideal(layout, field, tuple(P(layout, e, field) for e in exprs))


def count_computations(monkeypatch) -> list:
    """A list that gains the generators of every ideal basis computed from
    here on; bases served by a memo are not computed and not listed."""
    computed = []
    real = groebner._buchberger

    def spy(gens, *args, **kwargs):
        computed.append(tuple(gens))
        return real(gens, *args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger", spy)
    return computed


def reference_order_key(order, exps):
    """A monomial order's key as a tuple of per-block keys: a grevlex block
    gives (degree, negated exponents in reverse), a lex block its exponents.
    ``MonomialOrder.key`` must compare exactly like it."""
    parts = []
    for blk in order.blocks:
        if order.within == "grevlex":
            parts.append((sum(exps[i] for i in blk), tuple(-exps[i] for i in reversed(blk))))
        else:
            parts.append(tuple(exps[i] for i in blk))
    return tuple(parts)


def reference_normal_form(f, basis, order, with_quotients=False, budget=None):
    """Division as plainly as it can be written: rebuild the whole dividend
    after every step.  The engine's ``normal_form`` must agree with it on
    remainder, quotients and reduction steps charged."""
    fld = f.field
    lead = [g.leading_term(order) for g in basis]
    rem = {}
    p = f
    quots = [Polynomial.zero(f.layout, fld) for _ in basis] if with_quotients else None
    while not p.is_zero:
        if budget is not None:
            budget.charge_work()
        c, m = p.leading_term(order)
        for i, (gc, gm) in enumerate(lead):
            if mono_divides(gm, m):
                factor_c = fld.div(c, gc)
                factor_m = mono_div(m, gm)
                p = p - basis[i].mul_term(factor_c, factor_m)
                if with_quotients:
                    one = Polynomial.from_dict(f.layout, fld, {factor_m: factor_c})
                    quots[i] = quots[i] + one
                break
        else:
            rem[m] = c
            p = p - Polynomial.from_dict(f.layout, fld, {m: c})
    r = Polynomial.from_dict(f.layout, fld, rem)
    return (r, quots) if with_quotients else r


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Mutual membership of generators."""
    return all(J.contains(g) for g in I.gens) and all(I.contains(g) for g in J.gens)


BLOWUP_LAYOUT = RingLayout(("y1", "y2"), ("x",))
CUSP_LAYOUT = RingLayout(("y1", "y2"), ("t",))
LINE_LAYOUT = RingLayout(("y",), ("x",))
