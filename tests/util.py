"""Shared test helpers: compact polynomial construction and ideal equality."""

from __future__ import annotations

from fibrecheck import QQ, Ideal, Polynomial, RingLayout, groebner
from fibrecheck.cli import _parse_polyexpr, _Tokens


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


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Mutual membership of generators."""
    return all(J.contains(g) for g in I.gens) and all(I.contains(g) for g in J.gens)


BLOWUP_LAYOUT = RingLayout(("y1", "y2"), ("x",))
CUSP_LAYOUT = RingLayout(("y1", "y2"), ("t",))
LINE_LAYOUT = RingLayout(("y",), ("x",))
