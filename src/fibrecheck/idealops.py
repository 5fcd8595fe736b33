"""Derived ideal and module operations: contraction to the base, quotient,
saturation, radical membership, and dimension diagnostics.

Quotient, saturation and radical membership remove one tag variable t, which
``default_order`` ranks first (tag >> fibres >> base): the tag-free elements
of a basis of I + (1 - t*f) are a basis of I : f^infinity, those of
t*I + (1 - t)*f a basis of I ∩ (f), and 1 lies in I + (1 - t*f) iff f lies in
the radical of I (the Rabinowitsch trick).  Contraction to the base keeps the
base-only elements of the default basis, which ranks the fibres above the
base.  Krull dimension is computed combinatorially from independent sets of
the leading-term ideal.  A submodule is saturated as the ideal of its vectors
encoded with position variables (see :mod:`fibrecheck.groebner`):
:func:`saturate` multiplies 1 - t*f by each position, and
:func:`module_saturate` encodes, saturates and decodes.
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
    encode_vectors,
    exact_divide,
)
from .poly import (
    Polynomial,
    default_order,
    substitute_base_point,
    transport,
)


@dataclass(frozen=True)
class DimensionReport:
    """Krull dimension together with a witness independent variable set.
    dim = -1 encodes the empty variety (unit ideal)."""

    dim: int
    independent_vars: tuple


# ---------------------------------------------------------------------------
# contraction, quotient and saturation


def _avoiding(gb, drop: set, layout) -> tuple:
    """The elements of a basis that avoid the variables at the indices
    ``drop``, transported to ``layout``.  Under an order ranking ``drop``
    first they form a basis of the ideal's intersection with the ring of
    the other variables (the elimination theorem)."""
    return tuple(transport(g, layout) for g in gb if not (g.support_indices() & drop))


def contract_to_base(I: Ideal, within: str = "grevlex", budget: ComputeBudget | None = None) -> Ideal:
    """I intersected with the base polynomial ring k[y]; the result lives in
    the base-only layout.  Reuses the default (fibre >> base) basis."""
    layout = I.layout
    gb = I.groebner_basis(default_order(layout, within), budget)
    non_base = set(range(len(layout.base_vars), layout.nvars))
    return Ideal(layout.base_only(), I.field, _avoiding(gb, non_base, layout.base_only()))


def quotient(I: Ideal, f: Polynomial, within: str = "grevlex", budget=None) -> Ideal:
    """The ideal quotient I : f = {g : g*f in I}, via (I ∩ (f)) / f, with
    I ∩ (f) = (t*I + (1 - t)*f) ∩ k[vars]."""
    if f.is_zero:
        raise ValueError("quotient by the zero polynomial")
    ext = I.layout.with_tag()
    t = Polynomial.variable(ext, I.field, ext.tag_var)
    gens = [t * transport(g, ext) for g in I.gens]
    gens.append((Polynomial.constant(ext, I.field, 1) - t) * transport(f, ext))
    gb = buchberger(gens, default_order(ext, within), budget)
    inter = _avoiding(gb, {ext.tag_index}, I.layout)
    return Ideal(I.layout, I.field, tuple(exact_divide(g, f, budget) for g in inter))


def saturate(I: Ideal, f: Polynomial, within: str = "grevlex", budget=None) -> Ideal:
    """I : f^infinity, via the tag construction (I + (1 - t*f)) ∩ k[vars]."""
    if f.is_zero:
        raise ValueError("saturation by the zero polynomial")
    if f.is_constant:
        return Ideal(I.layout, I.field, I.gens)
    ext, gens = _with_inverse(I, f)
    gb = buchberger(gens, default_order(ext, within), budget)
    return Ideal(I.layout, I.field, _avoiding(gb, {ext.tag_index}, I.layout))


def _with_inverse(I: Ideal, f: Polynomial):
    """(layout with a tag t, the generators of I + (1 - t*f) there).  When
    I's layout has positions, I is an encoded submodule, and 1 - t*f is added
    at every position: (1 - t*f)*e_i."""
    ext = I.layout.with_tag()
    fld = I.field
    t = Polynomial.variable(ext, fld, ext.tag_var)
    unit = Polynomial.constant(ext, fld, 1) - t * transport(f, ext)
    gens = [transport(g, ext) for g in I.gens]
    if ext.positions:
        gens += [unit * Polynomial.variable(ext, fld, e) for e in ext.position_vars]
    else:
        gens.append(unit)
    return ext, gens


def module_saturate(
    pres: ModulePresentation, f: Polynomial, within: str = "grevlex", budget=None
) -> ModulePresentation:
    """N : f^infinity inside the ambient free module: :func:`saturate` on the
    encoded relations."""
    layout, fld, rank = pres.layout, pres.field, pres.rank
    N = Ideal(layout.with_positions(rank), fld, tuple(encode_vectors(pres.relations, layout, rank)))
    S = saturate(N, f, within, budget)
    return ModulePresentation(layout, fld, rank, tuple(decode_vectors(S.gens)))


# ---------------------------------------------------------------------------
# radical membership (Rabinowitsch trick)


def radical_member(f: Polynomial, I: Ideal, within: str = "grevlex", budget=None) -> bool:
    """True iff f lies in the radical of I: 1 in I + (1 - t*f)."""
    if f.is_zero:
        return True
    ext, gens = _with_inverse(I, f)
    gb = buchberger(gens, default_order(ext, within), budget)
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
