"""Buchberger's algorithm: one engine for ideals and for submodules of free
modules.

Produces canonical reduced bases (monic, interreduced, sorted by the order),
so recomputation from any permutation of the generators yields an identical
basis.  Pairs are chosen by the sugar strategy and pruned by the
Gebauer-Moeller update; resource use is metered by a :class:`ComputeBudget`.

A submodule of a free module of rank r runs through the same code as an
ideal.  Its vectors (p_1, ..., p_r) are encoded as polynomials
p_1*e_1 + ... + p_r*e_r in a layout with r position variables (see
:mod:`fibrecheck.poly`), so each term carries exactly one position at
exponent 1.  ``default_order`` of that layout puts the position block last,
which makes it the term-over-position order.  Buchberger pairs two
elements only when their leading monomials have the same position; an ideal
has no positions, so every pair qualifies.  Division needs nothing extra: a
leading monomial divides only monomials in its own position, and every
quotient is free of positions.  The Gebauer-Moeller rules stay valid: two
leads in one position share e_i, so they are never coprime, and a leading
monomial that divides an lcm lies in the lcm's position.
:func:`module_buchberger` and :func:`module_normal_form` encode, run the ideal
path and decode.

Every element joins the basis through the Gebauer-Moeller update (Gebauer &
Moeller 1988, *On an installation of Buchberger's algorithm*), the input
generators too, one at a time in input order.  When h with leading monomial
t joins:

- h pairs with every live element of its position, one pair per lcm (the
  least sugar, then the least index); a pair whose lcm is that of a coprime
  pair, or a proper multiple of another new pair's lcm, is dropped;
- a pending pair (i, j) is deleted when t divides its lcm and the lcm differs
  from both lcm(t, LM(g_i)) and lcm(t, LM(g_j));
- an element whose leading monomial t divides retires: it stays in the basis
  and still divides, but no later element pairs with it.

Pending pairs wait in a binary heap ranked
``(sugar, deg lcm, order key of lcm, i, j)``, the sugar strategy of Giovini et
al. 1991 (*"One sugar cube, please"*).  An input generator's sugar is its
total degree; a pair's is the larger of sugar(g) + deg(lcm/LM(g)) over its
two elements; an S-polynomial remainder joins with its pair's sugar.  Ranks
are unique by ``(i, j)``, so the order of reductions is deterministic.  The
budget is charged one pair per S-polynomial actually reduced: a pair dropped
or deleted by the update costs nothing, so a report's ``pairs`` counts
reductions.

Division (:func:`_reduce`) is the package's one division kernel: normal
forms, S-pair remainders, interreduction and exact division all run through
it, on packed monomials (:class:`fibrecheck.poly.Packing`) and int
coefficients.  An exponent vector is one int with a guard bit above each
variable's field, so a product is one addition, divisibility a
subtract-and-mask and an lcm a mask; an order key is one int, a linear form in
the exponents, so a product's key is a sum.  The part still to divide maps
each monomial's negated key to its coefficient and its packed monomial, and a
heap of those keys pops the largest monomial first (skipping cancelled ones).
Each step divides by the first basis element whose leading monomial divides
it.  These are the steps of textbook division; the remainder comes out
sorted, and it is all the kernel returns.  Buchberger never builds an
S-polynomial: :func:`_spair` writes its terms straight into the division's
accumulator.  Exact division g / f divides the encoded vector (g; 0) by
(f; -1): under term-over-position the remainder is (g - q*f; q), q the
quotient of g by f.

Coefficients are ints over both fields, through the field's kernel hooks (see
:mod:`fibrecheck.fields`).  Over Q every element is stored primitive and each
step is fraction-free, the primitive pseudo-remainder (Geddes, Czapor &
Labahn 1992, *Algorithms for Computer Algebra*): at coefficient c, by an
element with leading coefficient lc, with d = gcd(c, lc), the accumulator P
becomes (lc/d)*P - (c/d)*t*g; when lc/d is not 1 the pending entries and the
division's running scale are multiplied by it, and each remainder term is
brought to the final scale when the division ends.  Over F_p elements are
stored monic and the step is (1, -c/lc).  An S-polynomial remainder joins the
basis with its content removed (made monic over F_p).  Exact values are
rebuilt only where they leave the engine: a remainder as R over the running
scale, and each reduced basis element as c/lc.  Popped monomials, divisors and
zero tests are those of division over the field, so counts and bases do not
depend on this.

Each computation packs its inputs and unpacks what it returns; ``Exponents``
tuples and field values stay the representation everywhere else.  Fields
start HEADROOM_BITS wider than the inputs' largest exponent.  A product that
outgrows them sets a guard bit, never wrapping into the next field, and the
:func:`buchberger` or :func:`normal_form` call runs again at double width with
the budget's pairs, reduction steps and largest basis restored: its counts are
those of one run at the final width, which steps like any wider one.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .poly import MonomialOrder, Polynomial, RingLayout, default_order

# bits above the inputs' largest exponent that a packed computation starts
# with; one whose exponents outgrow them runs again at double width
HEADROOM_BITS = 16


class _WidthExceeded(Exception):
    """A packed product has an exponent too large for its packing's fields."""


class ResourceLimitError(RuntimeError):
    """Pair limit or deadline exceeded during a basis computation."""

    def __init__(self, message: str, pairs: int | None = None):
        super().__init__(message)
        self.pairs = pairs


class BasisRecord(NamedTuple):
    """A memoized reduced basis and what computing it charged."""

    basis: tuple
    pairs: int
    work: int
    peak: int  # largest basis held: the input size when nothing was appended


@dataclass
class ComputeBudget:
    """Cumulative pair/time limits shared by a sequence of computations.
    Reduction steps are metered too (at 200x the pair limit), so oversized
    inputs abort deterministically even inside a single division; the
    deadline is checked at every pair and reduction step, membership tests too.

    ``memo`` (None: no memo) maps ``(nonzero generators in input order,
    MonomialOrder)`` to a :class:`BasisRecord`.  :func:`buchberger` serves a
    hit only when the recorded pairs and reduction steps still fit under the
    limits, and charges them again, so counts and aborts never depend on
    which computations ran before.  Aborted computations are never stored;
    module bases are encoded polynomials and share the memo.  Re-verification
    runs inside :meth:`memo_bypassed` and recomputes every basis it needs."""

    pair_limit: int = 100_000
    deadline: float | None = None  # absolute time.monotonic() deadline
    pairs: int = 0
    max_basis: int = 0  # largest basis held since the last reset
    work: int = 0
    memo: dict | None = None

    def charge_pair(self):
        self.pairs += 1
        if self.pairs > self.pair_limit:
            raise ResourceLimitError(
                f"pair limit {self.pair_limit} exceeded", pairs=self.pairs
            )
        self._check_deadline()

    def charge_work(self):
        self.work += 1
        if self.work > 200 * self.pair_limit:
            raise ResourceLimitError(
                f"reduction-step limit {200 * self.pair_limit} exceeded",
                pairs=self.pairs,
            )
        self._check_deadline()

    def _check_deadline(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError("timeout exceeded", pairs=self.pairs)

    def note_basis(self, size: int):
        if size > self.max_basis:
            self.max_basis = size

    def can_afford(self, record: BasisRecord) -> bool:
        return (
            self.pairs + record.pairs <= self.pair_limit
            and self.work + record.work <= 200 * self.pair_limit
        )

    def charge_again(self, record: BasisRecord):
        """Charge what computing the record's basis charged when it ran."""
        self.pairs += record.pairs
        self.work += record.work
        self.note_basis(record.peak)
        self._check_deadline()

    @contextmanager
    def memo_bypassed(self):
        """Compute every basis inside the block, neither reading nor storing
        the memo."""
        saved, self.memo = self.memo, None
        try:
            yield self
        finally:
            self.memo = saved


# ---------------------------------------------------------------------------
# packed terms


def _widening(run, polys, order: MonomialOrder, budget):
    """``run(packing)`` at the start width of ``polys``, then at double width
    while a product outgrows it, restoring the budget's counters each time."""
    exps = chain.from_iterable(map(itemgetter(1), chain.from_iterable(f.terms for f in polys)))
    width = max(1, max(exps, default=0).bit_length() + HEADROOM_BITS)
    saved = budget and (budget.pairs, budget.work, budget.max_basis)
    while True:
        try:
            return run(order.packing(width))
        except _WidthExceeded:
            if budget is not None:
                budget.pairs, budget.work, budget.max_basis = saved
            width *= 2


def _packed(f: Polynomial, packing) -> tuple:
    """(terms, scale): f's terms as (int coefficient, packed monomial, negated
    key), descending, their coefficients those of f times the scale.  The
    leading coefficient is positive over Q, so every step's scalar a is too."""
    pack, key = packing.pack, packing.key
    terms = sorted([(c, pack(e), -key(e)) for c, e in f.terms], key=itemgetter(2))
    ints, scale = f.field.to_kernel([c for c, _, _ in terms])
    return [(i, m, k) for i, (_, m, k) in zip(ints, terms)], scale


def _polynomial(terms, scale, layout: RingLayout, fld, order: MonomialOrder, packing) -> Polynomial:
    """The polynomial of packed terms given in descending order, their
    coefficients divided by the scale."""
    coeffs = fld.from_kernel([c for c, _, _ in terms], scale)
    monos = map(packing.unpack, [m for _, m, _ in terms])
    if order == default_order(layout):
        return Polynomial(layout, fld, tuple(zip(coeffs, monos)))
    return Polynomial.from_dict(layout, fld, dict(zip(monos, coeffs)))


def _table(terms) -> tuple:
    """(negated key of the lead, tail, leading coefficient) of packed terms,
    lead first; the tail holds the other terms."""
    return terms[0][2], terms[1:], terms[0][0]


class _Tables(dict):
    """The :func:`_table` of each of ``polys``, made on first use."""

    def __init__(self, polys, packing):
        self.polys, self.packing = polys, packing

    def __missing__(self, i):
        table = self[i] = _table(_packed(self.polys[i], self.packing)[0])
        return table


def _divisors(basis, order: MonomialOrder, fld, packing) -> tuple:
    """``basis`` packed for division: (leading monomials, tables, field, packing)."""
    stored = bool(basis) and order == default_order(basis[0].layout)
    leads = [packing.pack((g.terms[0] if stored else g.leading_term(order))[1]) for g in basis]
    return leads, _Tables(basis, packing), fld, packing


# ---------------------------------------------------------------------------
# division and S-polynomials


def normal_form(f: Polynomial, basis, order: MonomialOrder, budget=None):
    """Remainder of multivariate division of f by the basis; no remainder term
    is divisible by any basis leading monomial."""
    layout, fld = f.layout, f.field

    def run(packing):
        (terms, scale), divisors = _packed(f, packing), _divisors(basis, order, fld, packing)
        pending, mono = {k: c for c, _, k in terms}, {k: m for _, m, k in terms}
        rem, steps_scale = _reduce(pending, mono, divisors, budget)
        return _polynomial(rem, fld.mul(scale, steps_scale), layout, fld, order, packing)

    return _widening(run, [f, *basis], order, budget)


def exact_divide(g: Polynomial, f: Polynomial, budget=None) -> Polynomial:
    """g / f; ArithmeticError when f does not divide g.  Under
    term-over-position the remainder of (g; 0) by (f; -1) is (g - q*f; q),
    g - q*f the remainder of g by f."""
    zero, one = Polynomial.zero(g.layout, g.field), Polynomial.constant(g.layout, g.field, 1)
    v, d = encode_vectors([(g, zero), (f, -one)], g.layout, 2)
    r, q = decode_vectors([normal_form(v, [d], default_order(v.layout), budget)])[0]
    if not r.is_zero:
        raise ArithmeticError("inexact division")
    return q


def _reduce(pending, mono, basis, budget):
    """Division by ``basis`` (see :func:`_divisors`) of the accumulator that
    maps negated keys to int coefficients (``pending``, zeros allowed) and to
    packed monomials (``mono``), both consumed.  Returns the remainder R as
    packed terms, descending, and the scale S, the product of the steps'
    scalars a: S times the accumulator equals R plus a combination of the
    basis elements."""
    leads, tables, fld, packing = basis
    step, canon, guards = fld.step, fld.canon, packing.guards
    heap = list(pending)
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    rem, at = [], []  # popped in descending order, and the scale each was popped at
    scale = 1
    while heap:
        k = pop(heap)
        c = canon(pending.pop(k))
        if not c:
            continue
        if budget is not None:
            budget.charge_work()
        m = mono[k]
        guarded = m | guards
        for i, lead in enumerate(leads):
            if (guarded - lead) & guards == guards:
                lead_key, tail, lc = tables[i]
                a, b = step(c, lc)
                if a != 1:
                    scale *= a
                    for key, old in pending.items():
                        pending[key] = old * a
                shift, shift_key = m - lead, k - lead_key
                for tc, tm, tk in tail:
                    e_key = tk + shift_key
                    old = pending.get(e_key)
                    if old is None:
                        # keys tell products apart, so only a new monomial can outgrow the width
                        e = tm + shift
                        if e & guards:
                            raise _WidthExceeded
                        pending[e_key] = b * tc
                        mono[e_key] = e
                        push(heap, e_key)
                    else:
                        pending[e_key] = old + b * tc
                break
        else:
            rem.append((c, m, k))
            at.append(scale)
    if scale != 1:  # bring every term to the final scale; a > 0, so it only grew
        rem = [(c * (scale // s), m, k) for (c, m, k), s in zip(rem, at)]
    return rem, scale


def _spair(basis, i, j, lcm, lcm_key):
    """The accumulator ``(pending, mono)`` of a*(lcm/LM(g_i))*g_i +
    b*(lcm/LM(g_j))*g_j, (a, b) the step scalars of the two leading
    coefficients and ``lcm_key`` the negated key of lcm, and its scale: the
    multiple it is of the S-polynomial (lcm/LT(g_i))*g_i - (lcm/LT(g_j))*g_j.
    The leading terms cancel, so no entry is made at lcm; other cancelled
    entries stay as zeros."""
    leads, tables, fld, packing = basis
    (key_i, tail_i, lc_i), (key_j, tail_j, lc_j) = tables[i], tables[j]
    a, b = fld.step(lc_i, lc_j)
    shift, shift_key = lcm - leads[i], lcm_key - key_i
    mono = {tk + shift_key: tm + shift for _, tm, tk in tail_i}
    pending = {tk + shift_key: a * tc for tc, _, tk in tail_i}
    shift, shift_key = lcm - leads[j], lcm_key - key_j
    for tc, tm, tk in tail_j:
        k = tk + shift_key
        if k in pending:
            pending[k] += b * tc
        else:
            pending[k], mono[k] = b * tc, tm + shift
    if any(m & packing.guards for m in mono.values()):
        raise _WidthExceeded
    return pending, mono, a * lc_i


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """(lcm/LT(f))*f - (lcm/LT(g))*g; the leading terms cancel."""
    if f.is_zero or g.is_zero:
        raise ValueError("s_polynomial of the zero polynomial")
    f._check(g)

    def run(packing):
        basis = _divisors([f, g], order, f.field, packing)
        lcm = packing.lcm(*basis[0])
        pending, mono, scale = _spair(basis, 0, 1, lcm, -packing.key(packing.unpack(lcm)))
        coeffs = f.field.from_kernel(list(pending.values()), scale)
        return Polynomial.from_dict(f.layout, f.field, dict(zip([packing.unpack(mono[k]) for k in pending], coeffs)))

    return _widening(run, [f, g], order, None)


# ---------------------------------------------------------------------------
# Buchberger


def buchberger(gens, order: MonomialOrder, budget: ComputeBudget | None = None):
    """Reduced Groebner basis of the ideal generated by ``gens``, or of the
    submodule when they are encoded vectors.  The budget's memo is consulted
    first (see :class:`ComputeBudget`)."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    budget = budget or ComputeBudget()
    if budget.memo is None:
        return _buchberger(gens, order, budget)[0]
    key = (tuple(gens), order)
    record = budget.memo.get(key)
    if record is not None and budget.can_afford(record):
        budget.charge_again(record)
        return list(record.basis)
    pairs, work = budget.pairs, budget.work
    basis, peak = _buchberger(gens, order, budget)
    budget.memo[key] = BasisRecord(
        tuple(basis), budget.pairs - pairs, budget.work - work, peak
    )
    return basis


def _buchberger(gens, order: MonomialOrder, budget: ComputeBudget):
    """(basis, largest basis held) of nonzero ``gens``."""
    return _widening(lambda packing: _buchberger_at(gens, order, packing, budget), gens, order, budget)


def _buchberger_at(gens, order: MonomialOrder, packing, budget: ComputeBudget):
    layout, fld = gens[0].layout, gens[0].field
    divides, lcm_of, unpack, key = packing.divides, packing.lcm, packing.unpack, packing.key
    rank = layout.positions
    positions = packing.pack((0,) * (layout.nvars - rank) + ((1 << packing.width) - 1,) * rank)
    leads, tables = [], []
    basis = leads, tables, fld, packing
    elements = []  # packed terms of each element, leading term first
    surplus = []  # per element: its sugar less the degree of its leading monomial
    live = []  # the elements new ones pair with: no later leading monomial divides theirs
    # pending pairs (sugar, deg lcm, order key of lcm, i, j, packed lcm), a heap
    queue = []

    def insert(terms, sugar):
        """Append the packed ``terms`` to the basis by the Gebauer-Moeller update."""
        h = len(leads)
        hm = terms[0][1]
        hdeg = sum(unpack(hm))
        leads.append(hm)
        tables.append(_table(terms))
        elements.append(terms)
        surplus.append(sugar - hdeg)
        # a pending pair whose lcm hm divides, and differs from the lcms of
        # both its elements with h, reduces through those two pairs
        kept = [
            p for p in queue
            if p[1] < hdeg or not divides(hm, p[5])
            or lcm_of(leads[p[3]], hm) == p[5] or lcm_of(leads[p[4]], hm) == p[5]
        ]
        # the pairs (k, h), one per lcm: the least sugar, then the least k
        where = hm & positions  # 0 for an ideal
        best, coprime = {}, set()
        for k in live:
            km = leads[k]
            if where and km & positions != where:
                continue
            lcm = lcm_of(km, hm)
            if lcm == km + hm:
                coprime.add(lcm)
            over = max(surplus[k], surplus[h])  # the pair's sugar less deg lcm
            if lcm not in best or over < best[lcm][0]:
                best[lcm] = (over, k)
        # no pair whose lcm is that of a coprime pair, or a proper multiple of
        # another new pair's lcm
        for lcm, (over, k) in best.items():
            if lcm in coprime or any(other != lcm and divides(other, lcm) for other in best):
                continue
            exps = unpack(lcm)
            deg = sum(exps)
            kept.append((deg + over, deg, key(exps), k, h, lcm))
        heapq.heapify(kept)
        queue[:] = kept
        live[:] = [k for k in live if not divides(hm, leads[k])]
        live.append(h)
        budget.note_basis(len(leads))

    for g in gens:
        insert(_packed(g, packing)[0], g.total_degree())
    while queue:
        pair_sugar, _, lcm_key, i, j, lcm = heapq.heappop(queue)
        budget.charge_pair()
        pending, mono, _ = _spair(basis, i, j, lcm, -lcm_key)
        rem, _ = _reduce(pending, mono, basis, budget)
        if rem:
            ints, _ = fld.to_kernel([c for c, _, _ in rem])  # content removed
            insert([(i, m, k) for i, (_, m, k) in zip(ints, rem)], pair_sugar)
    return _interreduce(elements, basis, order, layout, budget), len(leads)


def _interreduce(elements, basis, order: MonomialOrder, layout, budget):
    """The reduced basis of the Groebner basis of packed ``elements``: the
    minimal elements, each divided once by the others, made monic (c/lc),
    sorted descending.  The minimal leading monomials are those of the reduced basis,
    and division by a Groebner basis has a unique remainder, so one pass is
    enough."""
    leads, tables, fld, packing = basis
    # drop elements whose leading monomial is divisible by another's
    kept = []
    for i in sorted(range(len(leads)), key=lambda i: tables[i][0], reverse=True):
        if not any(packing.divides(leads[j], leads[i]) for j in kept):
            kept.append(i)
    out = []
    for i in reversed(kept):
        others = [j for j in kept if j != i]
        divisors = [leads[j] for j in others], [tables[j] for j in others], fld, packing
        pending = {k: c for c, _, k in elements[i]}
        rem, _ = _reduce(pending, {k: m for _, m, k in elements[i]}, divisors, budget)
        out.append(_polynomial(rem, rem[0][0], layout, fld, order, packing))
    return out


# ---------------------------------------------------------------------------
# ideals


@dataclass
class Ideal:
    """Generator list with lazily cached reduced Groebner bases per order."""

    layout: RingLayout
    field: object
    gens: tuple

    def __post_init__(self):
        self.gens = tuple(g for g in self.gens if not g.is_zero)
        self._gb_cache = {}

    def groebner_basis(self, order: MonomialOrder | None = None, budget: ComputeBudget | None = None):
        order = order or default_order(self.layout)
        if order not in self._gb_cache:
            self._gb_cache[order] = tuple(buchberger(self.gens, order, budget))
        return self._gb_cache[order]

    def contains(self, f: Polynomial, order=None, budget=None) -> bool:
        gb = self.groebner_basis(order, budget)
        if not gb:
            return f.is_zero
        order = order or default_order(self.layout)
        return normal_form(f, list(gb), order, budget=budget).is_zero


# ---------------------------------------------------------------------------
# submodules of free modules, encoded with position variables


def encode_vectors(vectors, layout: RingLayout, rank: int) -> list:
    """Each vector (p_1, ..., p_r) of polynomials in ``layout`` as the
    polynomial p_1*e_1 + ... + p_r*e_r in ``layout.with_positions(rank)``."""
    target = layout.with_positions(rank)
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    out = []
    for v in vectors:
        acc = {e + unit: c for comp, unit in zip(v, units) for c, e in comp.terms}
        out.append(Polynomial.from_dict(target, v[0].field, acc))
    return out


def decode_vectors(polys) -> list:
    """The vectors that :func:`encode_vectors` encoded as ``polys``."""
    out = []
    for f in polys:
        layout = f.layout
        ring = layout.with_positions(0)
        first_pos = layout.nvars - layout.positions
        comps = [[] for _ in range(layout.positions)]
        for c, e in f.terms:
            comps[e.index(1, first_pos) - first_pos].append((c, e[:first_pos]))
        # within one position the stored order is the ring's default order
        out.append(tuple(Polynomial(ring, f.field, tuple(terms)) for terms in comps))
    return out


def _is_zero_vector(v) -> bool:
    return all(c.is_zero for c in v)


def module_normal_form(v, basis, order: MonomialOrder, budget=None):
    """Remainder of the vector ``v`` on division by the basis vectors, under
    ``order`` on the encoded layout."""
    if not basis:
        return v
    layout, rank = v[0].layout, len(v)
    f, *encoded = encode_vectors([v, *basis], layout, rank)
    r = normal_form(f, encoded, order, budget=budget)
    return decode_vectors([r])[0]


def module_buchberger(vectors, order: MonomialOrder, budget: ComputeBudget | None = None):
    """Reduced Groebner basis of the submodule generated by ``vectors``, under
    ``order`` on the encoded layout."""
    if not vectors:
        return []
    layout, rank = vectors[0][0].layout, len(vectors[0])
    encoded = encode_vectors(vectors, layout, rank)
    return decode_vectors(buchberger(encoded, order, budget))


@dataclass
class ModulePresentation:
    """Finite presentation of a module: relation vectors inside a free module
    of the given rank; the module itself is the cokernel.  Its bases are
    computed on the encoded vectors, by default under ``morder``, the default
    order of the encoded layout."""

    layout: RingLayout
    field: object
    rank: int
    relations: tuple  # tuple of vectors (tuples of rank polynomials)

    def __post_init__(self):
        for v in self.relations:
            if len(v) != self.rank:
                raise ValueError("relation vector length differs from rank")
        self.relations = tuple(v for v in self.relations if not _is_zero_vector(v))
        self.morder = default_order(self.layout.with_positions(self.rank))
        self._gb_cache = {}

    def groebner_basis(self, order: MonomialOrder | None = None, budget=None):
        order = order or self.morder
        if order not in self._gb_cache:
            self._gb_cache[order] = tuple(module_buchberger(self.relations, order, budget))
        return self._gb_cache[order]

    def contains(self, v, order=None, budget=None) -> bool:
        gb = self.groebner_basis(order, budget)
        if not gb:
            return _is_zero_vector(v)
        return _is_zero_vector(module_normal_form(v, list(gb), order or self.morder, budget))
