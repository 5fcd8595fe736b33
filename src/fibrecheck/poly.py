"""Variable layouts, monomial orders, and sparse multivariate polynomials.

A :class:`RingLayout` names the variables of the ambient polynomial ring:
a block of base variables y_1..y_n, ``copies`` relabelled blocks of fibre
variables, an optional auxiliary tag variable used by saturation and
radical-membership constructions, and an optional block of position variables
e_1..e_r.  A vector (p_1, ..., p_r) of a free module of rank r is encoded as
the polynomial p_1*e_1 + ... + p_r*e_r, so that each of its terms carries
exactly one position variable, at exponent 1.  Monomials are exponent tuples
indexed by the layout; polynomials are immutable sorted term sequences over
an exact coefficient field.  Coefficients are the field's canonical values
(see :mod:`fibrecheck.fields`): arithmetic combines them with Python
operators and brings each result to canonical form with ``field.canon``, and
:meth:`Polynomial.from_dict` brings the values it is given to canonical form
with ``field.coerce``, so that an int becomes a Fraction over Q.

A :class:`MonomialOrder` compares monomials through a flat key: one tuple of
ints per monomial, so that the order is plain tuple comparison.  Every block
contributes a fixed number of entries (a grevlex block its degree and then its
negated exponents in reverse, a lex block its exponents), which makes the flat
key compare exactly like the tuple of per-block keys.

Exponent tuples are the API's representation, in terms, parsing, rendering
and layout changes.  Only the Groebner engine packs monomials and order keys
into ints, by an order's :class:`Packing`, and it unpacks what it returns.
Every layout of a problem is its base ring with fibre copies, a tag or
positions added, so :func:`transport` moves polynomials between layouts by
block structure and never matches variables by name.

Terms are stored descending under ``default_order(layout)``.  Multiplying by a
single term keeps that order and every term (a monomial order is
multiplicative and a field has no zero divisors), so :meth:`Polynomial.mul_term`
and :meth:`Polynomial.scale` never sort.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add, itemgetter, lshift, mul, neg, sub


Exponents = tuple


class LayoutMismatchError(ValueError):
    """Operands live in different ring layouts or over different fields."""


# ---------------------------------------------------------------------------
# layouts


@dataclass(frozen=True)
class RingLayout:
    """Named variable blocks: base y-block, ``copies`` fibre x-blocks, tag,
    ``positions`` position variables.

    Variable index order is base variables, then fibre copies 1..k, then the
    tag variable when present, then the positions.  With copies > 1 the fibre
    variable ``x`` of copy i displays as ``x(i)``; position i displays as
    ``[i]`` and the tag :meth:`with_tag` adds as ``[t]``, names no input can
    declare.
    """

    base_vars: tuple = ()
    fibre_vars: tuple = ()
    copies: int = 1
    tag_var: str | None = None
    positions: int = 0

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError("copies must be >= 1")
        names = list(self.base_vars)
        for i in range(1, self.copies + 1):
            for v in self.fibre_vars:
                names.append(v if self.copies == 1 else f"{v}({i})")
        if self.tag_var is not None:
            names.append(self.tag_var)
        names = tuple(names) + self.position_vars
        if len(set(names)) != len(names):
            raise ValueError(f"variable names collide in layout {names}")
        # made once; equality and hashing stay on the declared fields
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "nvars", len(names))
        # derived layouts, by their fields, and default orders, by ``within``
        object.__setattr__(self, "_made", {})

    def var_names(self) -> tuple:
        return self._names

    @property
    def position_vars(self) -> tuple:
        return tuple(f"[{i}]" for i in range(1, self.positions + 1))

    @property
    def base_indices(self) -> tuple:
        return tuple(range(len(self.base_vars)))

    @property
    def fibre_indices(self) -> tuple:
        m = len(self.fibre_vars)
        nb = len(self.base_vars)
        return tuple(range(nb, nb + self.copies * m))

    @property
    def tag_index(self) -> int | None:
        return None if self.tag_var is None else self.nvars - self.positions - 1

    @property
    def position_indices(self) -> tuple:
        return tuple(range(self.nvars - self.positions, self.nvars))

    def index_of(self, name: str) -> int:
        try:
            return self._names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    # derived layouts ------------------------------------------------------
    #
    # Each derived layout is made once and kept on the layout that made it.
    # A derived layout holds no reference back, so a layout and the layouts
    # derived from it are freed together.

    def _derived(self, *fields) -> "RingLayout":
        layout = self._made.get(fields)
        if layout is None:
            layout = self._made[fields] = RingLayout(*fields)
        return layout

    def powered(self, k: int) -> "RingLayout":
        return self._derived(self.base_vars, self.fibre_vars, k, self.tag_var, self.positions)

    def with_tag(self) -> "RingLayout":
        if self.tag_var is not None:
            raise ValueError("layout already carries a tag variable")
        return self._derived(self.base_vars, self.fibre_vars, self.copies, "[t]", self.positions)

    def with_positions(self, rank: int) -> "RingLayout":
        return self._derived(self.base_vars, self.fibre_vars, self.copies, self.tag_var, rank)

    def base_only(self) -> "RingLayout":
        return self._derived(self.base_vars, (), 1, None, 0)

    def fibre_only(self) -> "RingLayout":
        return self._derived((), self.fibre_vars, self.copies, None, 0)


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """Block (product) order: blocks in decreasing significance, lex or
    grevlex within each block.  Grevlex blocks are degree-graded, so a block
    order with the fibre block ahead of the base block has the elimination
    property for the base."""

    blocks: tuple  # tuple of tuples of variable indices
    within: str = "grevlex"

    def __post_init__(self):
        if self.within not in ("lex", "grevlex"):
            raise ValueError(f"unknown within-block order {self.within!r}")
        if self.within == "lex":
            picks = (_picker(tuple(i for blk in self.blocks for i in blk)),)
        else:
            picks = tuple(_picker(tuple(reversed(blk))) for blk in self.blocks)
        object.__setattr__(self, "_picks", picks)

    def key(self, exps: Exponents) -> tuple:
        """Flat tuple of ints; a monomial is greater exactly when its key is.

        A grevlex block gives its degree, then its exponents negated from the
        last variable to the first; a lex block gives its exponents.  Blocks
        have fixed lengths, so the keys of consecutive blocks never overlap
        in a comparison."""
        if self.within == "lex":
            return self._picks[0](exps)
        out = []
        for pick in self._picks:
            vals = pick(exps)
            out.append(sum(vals))
            out += map(neg, vals)
        return tuple(out)

    def packing(self, width: int) -> "Packing":
        """This order's :class:`Packing` of exponents below 2^width, made once
        for equal orders (each layout makes its own default order)."""
        return _packing(self, width)

    def base_is_last(self, layout: RingLayout) -> bool:
        """True when every fibre and tag variable outranks every base
        variable; position variables are skipped."""
        nb, top = len(layout.base_vars), layout.nvars - layout.positions
        seen_base = False
        for blk in self.blocks:
            kinds = {i < nb for i in blk if i < top}  # True for a base variable
            if len(kinds) > 1 or (seen_base and False in kinds):
                return False
            seen_base = seen_base or True in kinds
        return True


class Packing:
    """Exponent vectors, each below 2^width, packed into one int: variable i
    owns bits i*(width + 1) on, the top one a guard bit that stays clear.  A
    product is a sum with no carry between fields, a set guard bit marking an
    exponent past the width; a divides b when no field of ``(b | guards) - a``
    borrows its guard bit; an lcm takes each larger field under a mask made
    from those bits.  The key ``sum(weights[i] * e[i])`` holds the entries of
    :meth:`MonomialOrder.key` as digits in a radix none spans below
    2^(width + 1), so keys order and tie like the order's on vectors and
    their pairwise products, and a product's key is a sum.  The blocks must
    partition the variables, so that only equal vectors tie."""

    def __init__(self, order: MonomialOrder, width: int):
        nvars = sum(map(len, order.blocks))
        if sorted(i for blk in order.blocks for i in blk) != list(range(nvars)):
            raise ValueError("a packed order's blocks must partition its variables")
        self.order, self.width, self._mask = order, width, (1 << (width + 1)) - 1
        self.shifts = tuple(range(0, (width + 1) * nvars, width + 1))
        self.guards = sum(1 << (shift + width) for shift in self.shifts)
        # digit j of the order key is the sum of columns[i][j] * e[i], with
        # coefficients in {-1, 0, 1}: it spans less than nvars * 2^(width + 1)
        columns = [order.key(unit(nvars, i)) for i in range(nvars)]
        r, digits = (nvars * self._mask).bit_length(), len(order.key((0,) * nvars))
        self.weights = tuple(sum(a << (r * (digits - 1 - j)) for j, a in enumerate(col) if a) for col in columns)

    def pack(self, exps: Exponents) -> int:
        return sum(map(lshift, exps, self.shifts))

    def unpack(self, packed: int) -> Exponents:
        return tuple([(packed >> shift) & self._mask for shift in self.shifts])

    def key(self, exps: Exponents) -> int:
        return sum(map(mul, self.weights, exps))

    def lcm(self, a: int, b: int) -> int:
        at_least = ((a | self.guards) - b) & self.guards  # guard bits where a >= b
        take_a = at_least - (at_least >> self.width)
        return (a & take_a) | (b & ~take_a)


# the packings made last, so that a long-running process keeps a bounded number
_packing = functools.lru_cache(maxsize=64)(Packing)


def _picker(indices: tuple):
    """Function taking an exponent tuple to the tuple of its entries at the
    indices (``itemgetter`` returns a bare entry for a single index)."""
    if len(indices) == 1:
        (i,) = indices
        return lambda exps: (exps[i],)
    return itemgetter(*indices) if indices else lambda exps: ()


def default_order(layout: RingLayout, within: str = "grevlex") -> MonomialOrder:
    """Tag >> all fibre blocks jointly >> base block >> positions, made once
    per layout and kept on it.

    The position block comes last, so on encoded vectors this is the
    term-over-position order: the ring order decides, and between equal ring
    monomials the lower position is greater (under lex and grevlex alike)."""
    order = layout._made.get(within)
    if order is not None:
        return order
    blocks = []
    if layout.tag_index is not None:
        blocks.append((layout.tag_index,))
    if layout.fibre_indices:
        blocks.append(layout.fibre_indices)
    if layout.base_indices:
        blocks.append(layout.base_indices)
    if layout.positions:
        blocks.append(layout.position_indices)
    if not blocks:
        blocks.append(())
    order = layout._made[within] = MonomialOrder(tuple(blocks), within)
    return order


# ---------------------------------------------------------------------------
# monomial helpers


def unit(nvars: int, i: int) -> Exponents:
    """The exponents of variable i alone, sliced from one zero tuple."""
    zeros = (0,) * nvars
    return zeros[:i] + (1,) + zeros[i + 1 :]


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(sub, a, b))


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial: nonzero coefficients on distinct monomials, stored
    descending under the layout's default grevlex order."""

    layout: RingLayout
    field: object
    terms: tuple  # tuple of (coefficient, exponent tuple)

    # construction ---------------------------------------------------------

    @staticmethod
    def from_dict(layout: RingLayout, field, mapping) -> "Polynomial":
        order = default_order(layout)
        items = [(c, e) for e, c in zip(mapping, map(field.coerce, mapping.values())) if c]
        items.sort(key=lambda t: order.key(t[1]), reverse=True)
        return Polynomial(layout, field, tuple(items))

    @staticmethod
    def zero(layout: RingLayout, field) -> "Polynomial":
        return Polynomial(layout, field, ())

    @staticmethod
    def constant(layout: RingLayout, field, value) -> "Polynomial":
        c = field.coerce(value)
        if not c:
            return Polynomial.zero(layout, field)
        return Polynomial(layout, field, ((c, (0,) * layout.nvars),))

    @staticmethod
    def variable(layout: RingLayout, field, name: str) -> "Polynomial":
        return Polynomial(layout, field, ((field.one, unit(layout.nvars, layout.index_of(name))),))

    def __hash__(self):
        # made once: a memo key hashes every generator of a basis request
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.layout, self.field, self.terms)))
            return self._hash

    # predicates -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(self.terms[0][1]))

    def total_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(sum(e) for _, e in self.terms)

    def support_indices(self) -> set:
        used = set()
        for _, e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return used

    # arithmetic -----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.layout != other.layout or self.field != other.field:
            raise LayoutMismatchError("operands live in different rings")

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return other
        self._check(other)
        acc = {e: c for c, e in self.terms}
        for c, e in other.terms:
            acc[e] = acc[e] + c if e in acc else c
        return Polynomial.from_dict(self.layout, self.field, acc)

    def __sub__(self, other):
        other = self._coerce_operand(other)
        return other if other is NotImplemented else self + (-other)

    def __neg__(self):
        canon = self.field.canon
        return Polynomial(self.layout, self.field, tuple((canon(-c), e) for c, e in self.terms))

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return other
        self._check(other)
        acc = {}
        for c1, e1 in self.terms:
            for c2, e2 in other.terms:
                e = tuple(map(add, e1, e2))
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
        return Polynomial.from_dict(self.layout, self.field, acc)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        # power_products counts the term products of this schedule
        if n < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(self.layout, self.field, 1)
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def _coerce_operand(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.layout, self.field, other)
        return NotImplemented

    def mul_term(self, coeff, exps: Exponents) -> "Polynomial":
        """coeff * monomial * self, built term by term in the stored order.

        No sort is needed: a monomial order is multiplicative, so the products
        keep the stored order, and a field has no zero divisors, so no
        product coefficient vanishes."""
        f, canon = self.field, self.field.canon
        if not canon(coeff):
            return Polynomial.zero(self.layout, f)
        return Polynomial(
            self.layout,
            f,
            tuple((canon(c * coeff), tuple(map(add, e, exps))) for c, e in self.terms),
        )

    def scale(self, coeff) -> "Polynomial":
        return self.mul_term(self.field.coerce(coeff), (0,) * self.layout.nvars)

    # leading data ---------------------------------------------------------

    def leading_term(self, order: MonomialOrder | None = None):
        """(coefficient, monomial) maximal under the order.

        Every constructor stores the terms in descending order under
        ``default_order(self.layout)``, so for that order (the default) the
        leading term is the first stored one; other orders scan the terms."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        if order is None or order == default_order(self.layout):
            return self.terms[0]
        return max(self.terms, key=lambda t: order.key(t[1]))

    def leading_monomial(self, order: MonomialOrder | None = None) -> Exponents:
        return self.leading_term(order)[1]

    def leading_coefficient(self, order: MonomialOrder | None = None):
        return self.leading_term(order)[0]

    # rendering ------------------------------------------------------------

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return f"Polynomial({render_poly(self)!r})"


def power_products(t: int, n: int) -> int:
    """Most term products ``f ** n`` forms for a t-term f: the products of
    its squaring schedule, each power f^k having at most C(t+k-1, t-1)
    terms."""
    if not t:
        return 0
    size = lambda k: comb(t + k - 1, t - 1)
    products, result, square = 0, 0, 1
    while n:
        if n & 1:
            products += size(result) * size(square)
            result += square
        n >>= 1
        if n:
            products += size(square) ** 2
            square *= 2
    return products


def render_poly(f: Polynomial) -> str:
    if f.is_zero:
        return "0"
    names = f.layout.var_names()
    parts = []
    for k, (c, e) in enumerate(f.terms):
        factors = []
        for i, x in enumerate(e):
            if x == 1:
                factors.append(names[i])
            elif x > 1:
                factors.append(f"{names[i]}^{x}")
        cs = str(c)
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        if factors and mag == "1":
            body = "*".join(factors)
        elif factors:
            body = mag + "*" + "*".join(factors)
        else:
            body = mag
        if k == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def integer_normalized(f: Polynomial) -> Polynomial:
    """Scale so integer coefficients are coprime and the leading one positive
    (rationals); monic over F_p: the field's division-kernel form of f.  Used
    for reproducible witness rendering."""
    return f.scale(f.field.to_kernel([c for c, _ in f.terms])[1])


# ---------------------------------------------------------------------------
# layout-changing operations


def transport(f: Polynomial, new_layout: RingLayout) -> Polynomial:
    """Re-express f in another layout with the same base variables.

    Every layout of a problem is its base ring k[y, x] with fibre copies, a
    tag or positions added, and :func:`relabel` places f in a fibre copy, so
    two moves by block structure, never by name, are all that is needed.  With
    the same fibre block and copies, a tag is added (a 0 spliced in at its
    index) or an unused one dropped, and positions are added or unused ones
    dropped; a pure-base f keeps its base exponents, padded with zeros.  Both
    keep the stored order; any other move is a LayoutMismatchError."""
    old, new = f.layout, new_layout
    if old is new:
        return f
    same_blocks = (old.base_vars, old.fibre_vars, old.copies) == (new.base_vars, new.fibre_vars, new.copies)
    tagged = old.tag_var is not None
    if same_blocks and tagged != (new.tag_var is not None):
        if old.positions != new.positions:  # the positions, then the tag
            return transport(transport(f, old.with_positions(new.positions)), new)
        if not tagged:
            t = new.tag_index
            return Polynomial(new, f.field, tuple((c, e[:t] + (0,) + e[t:]) for c, e in f.terms))
        t = old.tag_index
        if any(e[t] for _, e in f.terms):
            raise LayoutMismatchError(f"variable {old.tag_var!r} absent from target layout")
        return Polynomial(new, f.field, tuple((c, e[:t] + e[t + 1 :]) for c, e in f.terms))
    # keep all but the positions, or the base alone, and pad with zeros
    cut = min(old.nvars, new.nvars) if same_blocks else len(old.base_vars)
    if old.base_vars != new.base_vars or any(any(e[cut:]) for _, e in f.terms):
        raise LayoutMismatchError("no move by block structure takes f to the target layout")
    pad = (0,) * (new.nvars - cut)
    return Polynomial(new, f.field, tuple((c, e[:cut] + pad) for c, e in f.terms))


def relabel(f: Polynomial, target_layout: RingLayout, copy_index: int) -> Polynomial:
    """Send the (single) fibre block of f to copy ``copy_index`` of the target
    layout, keeping base variables fixed.

    ``default_order`` ranks all fibre copies as one grevlex block, so the
    terms keep their stored order when every one moves into the same copy."""
    src = f.layout
    if src.copies != 1 or src.tag_var is not None or src.positions:
        raise ValueError("relabel expects a single-copy source layout without tag or positions")
    if src.base_vars != target_layout.base_vars or src.fibre_vars != target_layout.fibre_vars:
        raise LayoutMismatchError("source and target layouts disagree on variable names")
    if not 1 <= copy_index <= target_layout.copies:
        raise ValueError(f"copy index {copy_index} out of range 1..{target_layout.copies}")
    nb, m = len(src.base_vars), len(src.fibre_vars)
    before = (0,) * ((copy_index - 1) * m)
    after = (0,) * (target_layout.nvars - nb - copy_index * m)
    return Polynomial(target_layout, f.field, tuple((c, e[:nb] + before + e[nb:] + after) for c, e in f.terms))


def substitute_base_point(f: Polynomial, point) -> Polynomial:
    """Evaluate the base variables at a rational point; the result lives in
    the fibre-only layout."""
    layout = f.layout
    if layout.tag_var is not None:
        raise ValueError("cannot substitute into a tag-extended layout")
    nb = len(layout.base_vars)
    if len(point) != nb:
        raise ValueError(f"expected {nb} coordinates, got {len(point)}")
    field, canon = f.field, f.field.canon
    coords = [field.coerce(p) for p in point]
    acc = {}
    for c, e in f.terms:
        for i in range(nb):
            for _ in range(e[i]):
                c = canon(c * coords[i])
        new_e = e[nb:]
        acc[new_e] = acc[new_e] + c if new_e in acc else c
    return Polynomial.from_dict(layout.fibre_only(), field, acc)


def base_leading_coefficient(f: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    """The pure-base coefficient of the leading fibre monomial of f, under an
    order that places the fibre blocks jointly above the base block.  For an
    encoded vector, the leading fibre monomial is taken in its leading
    position."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    layout = f.layout
    order = order or default_order(layout)
    if not order.base_is_last(layout):
        raise ValueError("order must place fibre blocks above the base block")
    nb = len(layout.base_vars)
    lead_fibre = f.leading_monomial(order)[nb:]
    pad = (0,) * (layout.nvars - nb)
    # the stored order compares terms with equal non-base parts by their
    # base parts alone, so the kept terms need no sort once padded
    return Polynomial(layout, f.field, tuple((c, e[:nb] + pad) for c, e in f.terms if e[nb:] == lead_fibre))
