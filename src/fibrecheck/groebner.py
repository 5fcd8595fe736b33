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
A :class:`ModulePresentation` encodes its relations once and keeps, per
order, its submodule as an :class:`Ideal` of the encoded reduced basis, so the
module path runs on encoded vectors end to end: :func:`module_buchberger`
takes and returns encoded polynomials, and a membership test encodes only the
vector it tests.  A vector is decoded only where it leaves that path: the
certificate a torsion search prints, :meth:`ModulePresentation.groebner_basis`
and :func:`module_normal_form`.

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

The update tests divisibility and takes lcms as int expressions on packed
monomials (see below), on each element's lead degree and key, kept as it
joins: a new pair's degree and key are those of LM(g_k) plus those of
lcm/LM(g_k), from the quotient's few nonzero fields, so no lcm is unpacked.
New lcms are taken in increasing int order, each tested against the minimal
ones before it: a proper divisor of a packed monomial is a smaller int, and
division is transitive.  A coprime pair's lcm stays among those minimal lcms,
although the pair itself is dropped.

Pending pairs wait in a binary heap ranked
``(sugar, deg lcm, order key of lcm, i, j)``, the sugar strategy of Giovini et
al. 1991 (*"One sugar cube, please"*).  An input generator's sugar is its
total degree; a pair's is the larger of sugar(g) + deg(lcm/LM(g)) over its
two elements; an S-polynomial remainder joins with its pair's sugar.  Ranks
are unique by ``(i, j)``, so the order of reductions is deterministic, and
the heap's shape does not matter: new pairs are pushed onto it, and it is
rebuilt only when the update deleted a pending pair.  The budget is charged
one pair per S-polynomial actually reduced: a pair dropped or deleted by the
update costs nothing, so a report's ``pairs`` counts reductions.  The engine
counts pairs and reduction steps itself and calls the budget's ``charge_*``
only at a limit or under a deadline, so each abort comes at the same step.

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
accumulator.  Interreduction divides the tail of each minimal element by one
table of all the minimal elements: a lead divides no monomial below it, so
each step takes the divisor that division by the others would.  Exact
division g / f divides the encoded vector (g; 0) by (f; -1): under
term-over-position the remainder is (g - q*f; q), q the quotient of g by f.

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
tuples and field values stay the representation everywhere else.  The one
exception is a basis that an :class:`Ideal` divides by in membership tests (a
:class:`ModulePresentation`'s submodule is such an Ideal): its
:class:`Divisors` keep it packed, so each test packs and width-scans only the
element it tests.  Fields
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
from dataclasses import InitVar, dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import itemgetter, or_
from typing import NamedTuple

from .poly import MonomialOrder, Polynomial, RingLayout, default_order, unit

# bits above the inputs' largest exponent that a packed computation starts
# with; one whose exponents outgrow them runs again at double width
HEADROOM_BITS = 16


class _WidthExceeded(Exception):
    """A packed product has an exponent too large for its packing's fields."""


class ResourceLimitError(RuntimeError):
    """Pair limit, reduction-step limit or deadline exceeded."""


class Record(NamedTuple):
    """A memoized result and what computing it charged."""

    value: object
    pairs: int
    work: int
    peak: int  # largest basis held: for a basis, the input size when nothing was appended


@dataclass
class ComputeBudget:
    """Cumulative pair/time limits shared by a sequence of computations.
    Reduction steps are metered too (at 200x the pair limit), so oversized
    inputs abort deterministically even inside a single division; a tensor
    power of a module charges its dense relation slots as steps before it
    builds them.  The deadline is checked at every charge, membership tests
    too, and at the boundaries of stages that charge nothing but take long at
    high module rank (see :meth:`check_deadline`).

    ``memo`` (None: no memo) maps a key to a :class:`Record`, made and
    replayed by :meth:`memoized`.  It records bases (keyed by ``(nonzero
    generators in input order, MonomialOrder)``; module bases are encoded
    polynomials and share the memo), saturations (``("saturation",
    generators, f, within)``), dominant parts (``("dominant part",
    generators, generators of J_1, order)``) and membership answers
    (``(generators, order, f)``).  A hit is served only when the recorded
    pairs and reduction steps still fit under the limits, and they are
    charged again, so counts and aborts never depend on which computations
    ran before.  Aborted computations are never stored.  Re-verification
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
            raise ResourceLimitError(f"pair limit {self.pair_limit} exceeded")
        self.check_deadline()

    def charge_work(self, steps: int = 1):
        self.work += steps
        if self.work > 200 * self.pair_limit:
            raise ResourceLimitError(f"reduction-step limit {200 * self.pair_limit} exceeded")
        self.check_deadline()

    def check_deadline(self):
        """ResourceLimitError once the deadline has passed.  Besides every
        charge, it is called after a packed computation's width scan, as each
        input joins a basis and after a tensor power's relations are built."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError("timeout exceeded")

    def note_basis(self, size: int):
        if size > self.max_basis:
            self.max_basis = size

    def can_afford(self, record: Record) -> bool:
        return (
            self.pairs + record.pairs <= self.pair_limit
            and self.work + record.work <= 200 * self.pair_limit
        )

    def memoized(self, key, compute):
        """``compute()``, or the memo's record of it under ``key``: a hit that
        the limits can afford charges what the computation charged and
        returns its value; any other call computes, and records the result
        unless the computation aborted."""
        if self.memo is None:
            return compute()
        record = self.memo.get(key)
        if record is not None and self.can_afford(record):
            self.pairs += record.pairs
            self.work += record.work
            self.note_basis(record.peak)
            self.check_deadline()
            return record.value
        pairs, work, held = self.pairs, self.work, self.max_basis
        self.max_basis = 0  # the computation's own largest basis
        try:
            value = compute()
        finally:
            peak, self.max_basis = self.max_basis, max(held, self.max_basis)
        self.memo[key] = Record(value, self.pairs - pairs, self.work - work, peak)
        return value

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


def _top(polys) -> int:
    """The largest exponent in the terms of ``polys`` (0 when there is none)."""
    return max(chain.from_iterable(map(itemgetter(1), chain.from_iterable(f.terms for f in polys))), default=0)


def _widening(run, top: int, order: MonomialOrder, budget):
    """``run(packing)`` at the start width of exponents up to ``top``, then at
    double width while a product outgrows it, restoring the budget's counters
    each time."""
    width = max(1, top.bit_length() + HEADROOM_BITS)
    if budget is not None:
        budget.check_deadline()
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
    terms = [(c, pack(e), -key(e)) for c, e in f.terms]
    if packing.order != default_order(f.layout):  # else already descending
        terms.sort(key=itemgetter(2))
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


class Divisors:
    """A basis made ready for division under ``order``: its largest exponent
    and, at each packing, the basis packed, each made once.  An object that
    owns a basis keeps its Divisors, so that every later division by the
    basis packs and width-scans only the dividend."""

    def __init__(self, basis, order: MonomialOrder, fld):
        self.basis, self.order, self.field = basis, order, fld
        self._at = {}  # packing -> what at() returns

    @cached_property
    def top(self) -> int:
        return _top(self.basis)

    def at(self, packing) -> tuple:
        """(leading monomials, tables, field, packing): the basis packed."""
        packed = self._at.get(packing)
        if packed is None:
            basis, order = self.basis, self.order
            stored = bool(basis) and order == default_order(basis[0].layout)
            leads = [packing.pack((g.terms[0] if stored else g.leading_term(order))[1]) for g in basis]
            packed = self._at[packing] = leads, _Tables(basis, packing), self.field, packing
        return packed


# ---------------------------------------------------------------------------
# division and S-polynomials


def normal_form(f: Polynomial, basis, order: MonomialOrder, budget=None):
    """Remainder of multivariate division of f by the basis (polynomials, or
    their :class:`Divisors` under ``order``); no remainder term is divisible
    by any basis leading monomial."""
    layout, fld = f.layout, f.field
    divisors = basis if isinstance(basis, Divisors) else Divisors(basis, order, fld)

    def run(packing):
        terms, scale = _packed(f, packing)
        pending, mono = {k: c for c, _, k in terms}, {k: m for _, m, k in terms}
        rem, steps_scale = _reduce(pending, mono, divisors.at(packing), budget)
        return _polynomial(rem, fld.canon(scale * steps_scale), layout, fld, order, packing)

    return _widening(run, max(_top([f]), divisors.top), order, budget)


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
    """Division by ``basis`` (see :meth:`Divisors.at`) of the accumulator that
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
    if budget is not None:  # charge_work runs only where it can raise
        cap, timed = 200 * budget.pair_limit, budget.deadline is not None
    while heap:
        k = pop(heap)
        c = canon(pending.pop(k))
        if not c:
            continue
        if budget is not None:
            if timed or budget.work >= cap:
                budget.charge_work()
            else:
                budget.work += 1
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
    if reduce(or_, mono.values(), 0) & packing.guards:
        raise _WidthExceeded
    return pending, mono, a * lc_i


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """(lcm/LT(f))*f - (lcm/LT(g))*g; the leading terms cancel."""
    if f.is_zero or g.is_zero:
        raise ValueError("s_polynomial of the zero polynomial")
    f._check(g)

    def run(packing):
        basis = Divisors([f, g], order, f.field).at(packing)
        lcm = packing.lcm(*basis[0])
        pending, mono, scale = _spair(basis, 0, 1, lcm, -packing.key(packing.unpack(lcm)))
        coeffs = f.field.from_kernel(list(pending.values()), scale)
        return Polynomial.from_dict(f.layout, f.field, dict(zip([packing.unpack(mono[k]) for k in pending], coeffs)))

    return _widening(run, _top([f, g]), order, None)


# ---------------------------------------------------------------------------
# Buchberger


def buchberger(gens, order: MonomialOrder, budget: ComputeBudget | None = None, eliminate: int | None = None):
    """Reduced Groebner basis of the ideal generated by ``gens``, or of the
    submodule when they are encoded vectors; with ``eliminate``, the index of
    a variable ``order`` ranks above all others, only its elements free of
    that variable, the reduced basis of the elimination ideal.  The budget's
    memo is consulted first (see :class:`ComputeBudget`), except with
    ``eliminate``: callers memoize what they derive from such a run."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    budget = budget or ComputeBudget()
    if eliminate is not None:
        return _buchberger(gens, order, budget, eliminate)
    return list(budget.memoized((tuple(gens), order), lambda: tuple(_buchberger(gens, order, budget))))


def _buchberger(gens, order: MonomialOrder, budget: ComputeBudget, eliminate=None):
    """The reduced basis of nonzero ``gens``, its part free of ``eliminate``."""
    return _widening(lambda packing: _buchberger_at(gens, order, packing, budget, eliminate), _top(gens), order, budget)


def _buchberger_at(gens, order: MonomialOrder, packing, budget: ComputeBudget, eliminate=None):
    layout, fld = gens[0].layout, gens[0].field
    degree_key, guards, width = packing.degree_key, packing.guards, packing.width
    push = heapq.heappush
    rank = layout.positions
    positions = packing.pack((0,) * (layout.nvars - rank) + ((1 << width) - 1,) * rank)
    leads, tables = [], []
    basis = leads, tables, fld, packing
    elements = []  # packed terms of each element, leading term first
    degrees = []  # per element: the degree of its leading monomial
    surplus = []  # per element: its sugar less the degree of its leading monomial
    live = []  # the elements new ones pair with: no later leading monomial divides theirs
    # pending pairs (sugar, deg lcm, order key of lcm, i, j, packed lcm), a heap
    queue = []

    # On packed monomials (see Packing), a divides b when
    # ((b | guards) - a) & guards == guards, and the fields where a >= b are
    # those whose guard bit survives ((a | guards) - b) & guards; the lcm
    # takes a's fields under the mask that bit spans.

    def insert(terms, sugar):
        """Append the packed ``terms`` to the basis by the Gebauer-Moeller update."""
        h = len(leads)
        hm = terms[0][1]
        hdeg = degree_key(hm)[0]
        leads.append(hm)
        tables.append(_table(terms))
        elements.append(terms)
        degrees.append(hdeg)
        h_over = sugar - hdeg
        surplus.append(h_over)
        # a pending pair whose lcm hm divides, and differs from the lcms of
        # both its elements with h, reduces through those two pairs
        deleted = set()
        for p in queue:
            lcm = p[5]
            if p[1] >= hdeg and ((lcm | guards) - hm) & guards == guards:
                for k in p[3], p[4]:
                    km = leads[k]
                    at_least = ((km | guards) - hm) & guards
                    at_least -= at_least >> width
                    if (km & at_least) | (hm & ~at_least) == lcm:
                        break
                else:
                    deleted.add(p)
        # the pairs (k, h), one per lcm: the least sugar, then the least k
        where = hm & positions  # 0 for an ideal
        best, coprime, stay = {}, set(), []
        for k in live:
            km = leads[k]
            if where and km & positions != where:
                stay.append(k)
                continue
            at_least = ((km | guards) - hm) & guards
            if at_least != guards:  # else hm divides km, and k retires
                stay.append(k)
            at_least -= at_least >> width
            lcm = (km & at_least) | (hm & ~at_least)
            if lcm == km + hm:
                coprime.add(lcm)  # stays a candidate below
            over = surplus[k] if surplus[k] > h_over else h_over  # the pair's sugar less deg lcm
            if lcm not in best or over < best[lcm][0]:
                best[lcm] = (over, k)
        # no pair whose lcm is that of a coprime pair, or a proper multiple of
        # another new pair's lcm
        new, minimal = [], []
        for lcm in sorted(best):
            guarded = lcm | guards
            for other in minimal:
                if (guarded - other) & guards == guards:
                    break
            else:
                minimal.append(lcm)
                if lcm not in coprime:
                    over, k = best[lcm]
                    deg, key = degree_key(lcm - leads[k])
                    deg += degrees[k]
                    new.append((deg + over, deg, key - tables[k][0], k, h, lcm))
        # ranks are unique, so the heap's shape never changes the pop order
        if deleted:
            queue[:] = [p for p in queue if p not in deleted] + new
            heapq.heapify(queue)
        else:
            for pair in new:
                push(queue, pair)
        stay.append(h)
        live[:] = stay
        budget.note_basis(len(leads))

    for g in gens:
        insert(_packed(g, packing)[0], g.total_degree())
        budget.check_deadline()  # inputs of high rank take milliseconds each
    timed = budget.deadline is not None  # charge_pair runs only where it can raise
    while queue:
        pair_sugar, _, lcm_key, i, j, lcm = heapq.heappop(queue)
        if timed or budget.pairs >= budget.pair_limit:
            budget.charge_pair()
        else:
            budget.pairs += 1
        pending, mono, _ = _spair(basis, i, j, lcm, -lcm_key)
        rem, _ = _reduce(pending, mono, basis, budget)
        if rem:
            ints, _ = fld.to_kernel([c for c, _, _ in rem])  # content removed
            insert([(i, m, k) for i, (_, m, k) in zip(ints, rem)], pair_sugar)
    return _interreduce(elements, basis, order, layout, budget, eliminate)


def _interreduce(elements, basis, order: MonomialOrder, layout, budget, eliminate=None):
    """The reduced basis of the Groebner basis of packed ``elements``: the
    minimal elements, each divided once by the others, made monic (c/lc),
    sorted descending.  The minimal leading monomials are those of the reduced basis,
    and division by a Groebner basis has a unique remainder, so one pass is
    enough.  With ``eliminate``, only the elements whose lead is free of that
    variable are kept; the order ranks it first, so they are free of it, and
    a lead carrying it divides no monomial of theirs.

    Each element's tail is divided by one table of all the minimal elements,
    and its lead put back in front at the division's scale.  No minimal lead
    divides another, and a lead divides no monomial below it, so the element
    itself never divides: every step and every divisor chosen is that of
    division by the others."""
    leads, tables, fld, packing = basis
    guards = packing.guards
    candidates = range(len(leads))
    if eliminate is not None:
        tag_bits = packing.pack(unit(layout.nvars, eliminate)) * ((1 << packing.width) - 1)
        candidates = [i for i in candidates if not leads[i] & tag_bits]
    # drop elements whose leading monomial is divisible by another's
    kept = []
    for i in sorted(candidates, key=lambda i: tables[i][0], reverse=True):
        guarded = leads[i] | guards
        if not any((guarded - leads[j]) & guards == guards for j in kept):
            kept.append(i)
    divisors = [leads[j] for j in kept], [tables[j] for j in kept], fld, packing
    out = []
    for i in reversed(kept):
        (c, m, k), *tail = elements[i]
        budget.charge_work()  # the lead, a remainder term
        rem, scale = _reduce({k: c for c, _, k in tail}, {k: m for _, m, k in tail}, divisors, budget)
        out.append(_polynomial([(c * scale, m, k), *rem], c * scale, layout, fld, order, packing))
    return out


# ---------------------------------------------------------------------------
# ideals


@dataclass
class Ideal:
    """Generator list with, per order, the :class:`Divisors` of its reduced
    Groebner basis, made lazily: the basis and what membership divides by.
    Generators known to be the reduced basis under an order are given that
    order as ``reduced_under``, and no basis is computed for it."""

    layout: RingLayout
    field: object
    gens: tuple
    reduced_under: InitVar[MonomialOrder | None] = None

    def __post_init__(self, reduced_under):
        self.gens = tuple(g for g in self.gens if not g.is_zero)
        self._gb_cache = {}  # order -> Divisors of the basis under order
        if reduced_under is not None:
            self._gb_cache[reduced_under] = Divisors(self.gens, reduced_under, self.field)

    def groebner_basis(self, order: MonomialOrder | None = None, budget: ComputeBudget | None = None):
        order = order or default_order(self.layout)
        if order not in self._gb_cache:
            self._gb_cache[order] = Divisors(tuple(buchberger(self.gens, order, budget)), order, self.field)
        return self._gb_cache[order].basis

    def contains(self, f: Polynomial, order=None, budget=None) -> bool:
        """Whether f lies in the ideal; the answer is kept in the budget's
        memo, if it has one, under ``(gens, order, f)``."""
        order = order or default_order(self.layout)
        gb = self.groebner_basis(order, budget)
        if not gb:
            return f.is_zero

        def member():
            return normal_form(f, self._gb_cache[order], order, budget=budget).is_zero

        return budget.memoized((self.gens, order, f), member) if budget else member()


# ---------------------------------------------------------------------------
# submodules of free modules, encoded with position variables


def encode_vectors(vectors, layout: RingLayout, rank: int) -> list:
    """Each vector (p_1, ..., p_r) of polynomials in ``layout`` as the
    polynomial p_1*e_1 + ... + p_r*e_r in ``layout.with_positions(rank)``."""
    target = layout.with_positions(rank)
    key = default_order(target).key
    out = []
    for v in vectors:
        # each component is stored in the ring's order, so one position's
        # terms keep their order; only the merge of several needs a sort
        terms = [(c, e + unit(rank, i)) for i, comp in enumerate(v) for c, e in comp.terms]
        if rank > 1:
            terms.sort(key=lambda t: key(t[1]), reverse=True)
        out.append(Polynomial(target, v[0].field, tuple(terms)))
    return out


def decode_vectors(polys) -> list:
    """The vectors that :func:`encode_vectors` encoded as ``polys``."""
    out = []
    for f in polys:
        layout = f.layout
        ring = layout.with_positions(0)
        first_pos = layout.nvars - layout.positions
        comps = {}
        for c, e in f.terms:
            comps.setdefault(e.index(1, first_pos) - first_pos, []).append((c, e[:first_pos]))
        # within one position the stored order is the ring's default order;
        # the positions f does not use share one zero
        zero = Polynomial.zero(ring, f.field)
        out.append(
            tuple(Polynomial(ring, f.field, tuple(comps[i])) if i in comps else zero for i in range(layout.positions))
        )
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


def module_buchberger(encoded, order: MonomialOrder, budget: ComputeBudget | None = None) -> list:
    """Reduced Groebner basis, encoded, of the submodule generated by the
    encoded vectors ``encoded``, under ``order`` on their positioned layout:
    :func:`buchberger`, under the module path's own name."""
    return buchberger(encoded, order, budget)


@dataclass
class ModulePresentation:
    """Finite presentation of a module: relation vectors inside a free module
    of the given rank; the module itself is the cokernel.  Its bases are
    computed on the encoded vectors, by default under ``morder``, the default
    order of the encoded layout.

    The presentation encodes its relations once (``encoded``, made on first
    use) and keeps, per order, the submodule they generate as an
    :class:`Ideal` on the positioned layout whose generators are the encoded
    reduced basis (:meth:`submodule`), so that a membership test encodes,
    packs and width-scans only the vector it tests; :meth:`groebner_basis`
    decodes that basis."""

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
        self._gb_cache = {}  # order -> Ideal of the encoded basis, reduced under order

    @cached_property
    def encoded(self) -> tuple:
        """The relations encoded with position variables."""
        return tuple(encode_vectors(self.relations, self.layout, self.rank))

    def submodule(self, order: MonomialOrder | None = None, budget=None) -> Ideal:
        """The submodule the relations generate, as the Ideal of its encoded
        reduced basis under ``order``, made once per order."""
        order = order or self.morder
        if order not in self._gb_cache:
            gb = module_buchberger(self.encoded, order, budget)
            self._gb_cache[order] = Ideal(self.layout.with_positions(self.rank), self.field, tuple(gb), order)
        return self._gb_cache[order]

    def groebner_basis(self, order: MonomialOrder | None = None, budget=None):
        return tuple(decode_vectors(self.submodule(order, budget).gens))

    def contains(self, v, order=None, budget=None) -> bool:
        (f,) = encode_vectors([v], self.layout, self.rank)
        return self.submodule(order, budget).contains(f, order, budget)
