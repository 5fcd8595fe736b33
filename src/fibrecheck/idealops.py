"""Derived ideal and module operations: contraction to the base, quotient,
saturation, radical membership, and dimension diagnostics.

Quotient, saturation and radical membership remove one tag variable t, found
by its index, which ``default_order`` ranks first (tag >> fibres >> base):
the tag-free elements of a basis of I + (1 - t*f) are a basis of
I : f^infinity, those of t*I + (1 - t)*f a basis of I ∩ (f), and 1 lies in
I + (1 - t*f) iff f lies in the radical of I (the Rabinowitsch trick).
Buchberger keeps and interreduces only the tag-free elements, so a
saturation is its own reduced basis, and a saturation and a radical
membership of the same I and f share one memo entry.  I : f lies in
I : f^infinity, equal iff f*(I : f^infinity) lies in I, which a quotient
given the saturation as its upper bound tests first.
Contraction to the base keeps the base-only elements of the default basis,
which ranks the fibres above the base.  Krull dimension is computed
combinatorially from independent sets of the leading-term ideal.  A submodule
is saturated as the ideal of its vectors encoded with position variables (see
:mod:`fibrecheck.groebner`): :func:`saturate` multiplies 1 - t*f by each
position, and :func:`module_saturate` encodes, saturates and decodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groebner import (
    ComputeBudget,
    Ideal,
    ModulePresentation,
    buchberger,
    decode_vectors,
    exact_divide,
)
from .poly import (
    Polynomial,
    default_order,
    substitute_base_point,
    transport,
    unit,
)


@dataclass(frozen=True)
class DimensionReport:
    """Krull dimension together with a witness independent variable set.
    dim = -1 encodes the empty variety (unit ideal)."""

    dim: int
    independent_vars: tuple


# ---------------------------------------------------------------------------
# contraction, quotient and saturation


def contract_to_base(I: Ideal, within: str = "grevlex", budget: ComputeBudget | None = None) -> Ideal:
    """I intersected with the base polynomial ring k[y]; the result lives in
    the base-only layout: the base-only elements of the default (fibre >>
    base) basis, which it reuses (the elimination theorem)."""
    layout = I.layout
    gb = I.groebner_basis(default_order(layout, within), budget)
    nb, base = len(layout.base_vars), layout.base_only()
    return Ideal(base, I.field, tuple(transport(g, base) for g in gb if not any(any(e[nb:]) for _, e in g.terms)))


def quotient(I: Ideal, f: Polynomial, within: str = "grevlex", budget=None, upper: Ideal | None = None) -> Ideal:
    """The ideal quotient I : f = {g : g*f in I}, via (I ∩ (f)) / f, with
    I ∩ (f) = (t*I + (1 - t)*f) ∩ k[vars].  ``upper``, an ideal known to
    contain I : f (such as I : f^infinity), is returned itself when f times
    each of its generators lies in I, without the tagged basis."""
    if f.is_zero:
        raise ValueError("quotient by the zero polynomial")
    if upper is not None and all(I.contains(f * u, default_order(I.layout, within), budget) for u in upper.gens):
        return upper
    ext = I.layout.with_tag()
    t = Polynomial(ext, I.field, ((I.field.one, unit(ext.nvars, ext.tag_index)),))
    gens = [t * transport(g, ext) for g in I.gens]
    gens.append((Polynomial.constant(ext, I.field, 1) - t) * transport(f, ext))
    inter = buchberger(gens, default_order(ext, within), budget, eliminate=ext.tag_index)
    return Ideal(I.layout, I.field, tuple(exact_divide(transport(g, I.layout), f, budget) for g in inter))


def saturate(I: Ideal, f: Polynomial, within: str = "grevlex", budget=None) -> Ideal:
    """I : f^infinity, via the tag construction (I + (1 - t*f)) ∩ k[vars];
    its generators are its reduced basis under ``default_order(I.layout,
    within)``, and the returned Ideal is told so."""
    if f.is_zero:
        raise ValueError("saturation by the zero polynomial")
    if f.is_constant:
        return Ideal(I.layout, I.field, I.gens)
    return Ideal(I.layout, I.field, _saturation(I, f, within, budget), default_order(I.layout, within))


def _saturation(I: Ideal, f: Polynomial, within, budget) -> tuple:
    """The reduced basis of I : f^infinity, memoized under ``("saturation",
    I.gens, f, within)`` for :func:`saturate` and :func:`radical_member`."""

    def compute():
        ext, gens = _with_inverse(I, f)
        gb = buchberger(gens, default_order(ext, within), budget, eliminate=ext.tag_index)
        return tuple(transport(g, I.layout) for g in gb)

    return budget.memoized(("saturation", I.gens, f, within), compute) if budget else compute()


def _with_inverse(I: Ideal, f: Polynomial):
    """(layout with a tag t, the generators of I + (1 - t*f) there).  When
    I's layout has positions, I is an encoded submodule, and 1 - t*f is added
    at every position: (1 - t*f)*e_i."""
    ext = I.layout.with_tag()
    fld, t, nvars = I.field, ext.tag_index, ext.nvars
    # t leads the default order, so the terms of -t*f, in f's stored order,
    # come before the constant 1
    inverse = Polynomial(
        ext,
        fld,
        tuple((fld.canon(-c), e[:t] + (1,) + e[t + 1 :]) for c, e in transport(f, ext).terms)
        + ((fld.one, (0,) * nvars),),
    )
    gens = [transport(g, ext) for g in I.gens]
    if ext.positions:
        gens += [inverse.mul_term(fld.one, unit(nvars, i)) for i in ext.position_indices]
    else:
        gens.append(inverse)
    return ext, gens


def module_saturate(
    pres: ModulePresentation, f: Polynomial, within: str = "grevlex", budget=None
) -> ModulePresentation:
    """N : f^infinity inside the ambient free module: :func:`saturate` on the
    encoded relations."""
    layout, fld, rank = pres.layout, pres.field, pres.rank
    N = Ideal(layout.with_positions(rank), fld, pres.encoded)
    S = saturate(N, f, within, budget)
    return ModulePresentation(layout, fld, rank, tuple(decode_vectors(S.gens)))


# ---------------------------------------------------------------------------
# radical membership (Rabinowitsch trick)


def radical_member(f: Polynomial, I: Ideal, within: str = "grevlex", budget=None) -> bool:
    """True iff f lies in the radical of I: 1 in I + (1 - t*f), so that
    I : f^infinity is the unit ideal."""
    if f.is_zero:
        return True
    gb = _saturation(I, f, within, budget)
    return bool(gb) and gb[0].is_constant


# ---------------------------------------------------------------------------
# dimension


def krull_dim(I: Ideal, within: str = "grevlex", budget=None) -> DimensionReport:
    """Krull dimension of k[vars]/I: the maximum cardinality of a variable
    subset S such that no leading monomial of GB(I) is supported in S."""
    layout = I.layout
    order = default_order(layout, within)
    gb = I.groebner_basis(order, budget)
    names = layout.var_names()
    nv = layout.nvars
    supports = []
    for g in gb:
        lm = g.leading_monomial(order)
        supports.append(frozenset(i for i, e in enumerate(lm) if e))
    for size in range(nv, -1, -1):
        for combo in itertools.combinations(range(nv), size):
            s = set(combo)
            if not any(sup <= s for sup in supports):
                return DimensionReport(size, tuple(names[i] for i in combo))
    return DimensionReport(-1, ())


def fibre_dim(I: Ideal, point, within: str = "grevlex", budget=None) -> DimensionReport:
    """Dimension of the scheme-theoretic fibre over a closed base point:
    substitute the point into every generator and take krull_dim in the
    fibre-only layout."""
    subbed = [substitute_base_point(g, point) for g in I.gens]
    fibre_layout = I.layout.fibre_only()
    J = Ideal(fibre_layout, I.field, tuple(subbed))
    return krull_dim(J, within, budget)
