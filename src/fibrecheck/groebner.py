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
exponent 1.  ``default_order`` puts the position block last, which is the
term-over-position order of :class:`ModuleOrder`.  Buchberger pairs two
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
it.  The part still to divide lives in a ``{monomial: coefficient}``
accumulator, and a binary heap holds the negated order key of every monomial
that entered it, each key computed once.  Each step pops the largest pending
monomial (one whose coefficient cancelled to zero is skipped), divides by the
first basis element whose leading monomial divides it, and subtracts that
element's other terms, scaled by the coefficient times the stored inverse of
the element's leading coefficient, into the accumulator.  The steps are
exactly those of textbook division.  The monomials pop in descending order,
so under the stored order the remainder is built from them as they come,
with no sort.  :func:`normal_form` computes the divisors' leading terms and
inverses once per call; Buchberger and interreduction pass in the tables
they hold, computed once per element.

Buchberger never builds an S-polynomial.  :func:`_reduce_spair` writes the
terms of (lcm/LT(g_i))*g_i - (lcm/LT(g_j))*g_j, less the two leading terms
that cancel, straight into the division's accumulator, and divides from
there.  The inverse of each basis element's leading coefficient is computed
once, when the element joins the basis, and serves both the S-pair scaling
and every division step by that element.  :func:`s_polynomial` builds the
same terms into a polynomial.

A budget may carry a basis memo, keyed by content: the nonzero generators in
input order together with the monomial order.  A hit returns the stored
reduced basis and charges the budget again with the pairs, reduction steps and
basis high-water mark that the computation charged when it ran, so every
count, every abort and every report is the same as if the basis had been
recomputed.  A hit the budget cannot afford is recomputed, so it aborts at the
same step with the same message.  Aborted computations are never stored, and
witness re-verification bypasses the memo.  Module bases are encoded
polynomials, so they share the memo.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from dataclasses import dataclass
from operator import add, neg
from typing import NamedTuple

from .poly import (
    MonomialOrder,
    Polynomial,
    RingLayout,
    default_order,
    mono_div,
    mono_divides,
    mono_lcm,
)


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
    deadline is checked at every pair and every reduction step.

    ``memo`` (None: no memo) maps ``(nonzero generators in input order,
    MonomialOrder)`` to a :class:`BasisRecord`.  :func:`buchberger` serves a
    hit only when the recorded pairs and reduction steps still fit under the
    limits, and charges them again, so counts and aborts never depend on
    which computations ran before.  Re-verification runs inside
    :meth:`memo_bypassed` and recomputes every basis it needs."""

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
# division and S-polynomials


def normal_form(
    f: Polynomial,
    basis,
    order: MonomialOrder,
    with_quotients: bool = False,
    budget: "ComputeBudget | None" = None,
):
    """Remainder of multivariate division of f by the basis; no remainder term
    is divisible by any basis leading monomial.  With ``with_quotients``,
    also the quotient per basis element."""
    leads = [g.leading_term(order) for g in basis]
    invs = [f.field.inv(c) for c, _ in leads]
    pending = {e: c for c, e in f.terms}
    return _reduce(
        pending, basis, leads, invs, order, f.layout, f.field, budget, with_quotients
    )


def exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """g / f; ArithmeticError when f does not divide g."""
    r, quots = normal_form(g, [f], default_order(g.layout), with_quotients=True)
    if not r.is_zero:
        raise ArithmeticError("inexact division")
    return quots[0]


def _reduce(pending, basis, leads, invs, order, layout, fld, budget, with_quotients):
    """:func:`normal_form` of the polynomial whose terms are the
    ``{monomial: coefficient}`` accumulator ``pending``, which is consumed;
    zero entries are allowed.  ``leads`` holds the leading terms of the basis
    under the order and ``invs`` the inverses of their coefficients; each
    step's factor is the popped coefficient times that inverse."""
    key, mul, sub, fneg, is_zero = order.key, fld.mul, fld.sub, fld.neg, fld.is_zero
    # a cancelled monomial keeps a zero entry, so each monomial's key is
    # computed once, when it enters the heap
    heap = [(tuple(map(neg, key(e))), e) for e in pending]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    rem = []  # popped in descending order
    quots = [{} for _ in basis] if with_quotients else None
    while heap:
        m = pop(heap)[1]
        c = pending.pop(m)
        if is_zero(c):
            continue
        if budget is not None:
            budget.charge_work()
        for i, (_, gm) in enumerate(leads):
            if mono_divides(gm, m):
                factor_c = mul(c, invs[i])
                factor_m = mono_div(m, gm)
                # the product's term at m cancels c exactly and is skipped
                for tc, te in basis[i].terms:
                    e = tuple(map(add, te, factor_m))
                    if e == m:
                        continue
                    old = pending.get(e)
                    if old is None:
                        pending[e] = fneg(mul(factor_c, tc))
                        push(heap, (tuple(map(neg, key(e))), e))
                    else:
                        pending[e] = sub(old, mul(factor_c, tc))
                if with_quotients:
                    quots[i][factor_m] = factor_c
                break
        else:
            rem.append((c, m))
    if order == default_order(layout):
        r = Polynomial(layout, fld, tuple(rem))
    else:
        r = Polynomial.from_dict(layout, fld, {m: c for c, m in rem})
    if with_quotients:
        return r, [Polynomial.from_dict(layout, fld, q) for q in quots]
    return r


def _spair_terms(f, f_inv, fm, g, g_inv, gm, lcm):
    """``{monomial: coefficient}`` of (lcm/fm)*f_inv*f - (lcm/gm)*g_inv*g,
    where fm, gm are the leading monomials of f, g and f_inv, g_inv the
    inverses of their leading coefficients.  The leading terms cancel, so no
    entry is made at lcm; other cancelled entries stay as zeros."""
    fld = f.field
    mul, sub, fneg = fld.mul, fld.sub, fld.neg
    acc = {}
    shift = mono_div(lcm, fm)
    for c, e in f.terms:
        e = tuple(map(add, e, shift))
        if e != lcm:
            acc[e] = mul(c, f_inv)
    shift = mono_div(lcm, gm)
    for c, e in g.terms:
        e = tuple(map(add, e, shift))
        if e != lcm:
            old = acc.get(e)
            acc[e] = fneg(mul(c, g_inv)) if old is None else sub(old, mul(c, g_inv))
    return acc


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """(lcm/LT(f))*f - (lcm/LT(g))*g; the leading terms cancel."""
    if f.is_zero or g.is_zero:
        raise ValueError("s_polynomial of the zero polynomial")
    f._check(g)
    fld = f.field
    fc, fm = f.leading_term(order)
    gc, gm = g.leading_term(order)
    acc = _spair_terms(f, fld.inv(fc), fm, g, fld.inv(gc), gm, mono_lcm(fm, gm))
    return Polynomial.from_dict(f.layout, fld, acc)


def _reduce_spair(G, lead, invs, i, j, lcm, order, budget, with_quotients=False):
    """Remainder of the S-polynomial of G[i] and G[j] (leading monomial lcm)
    on division by G, and with ``with_quotients`` the quotient per element of
    G.  The difference goes straight into the division's accumulator: no
    S-polynomial is built."""
    f, g = G[i], G[j]
    acc = _spair_terms(f, invs[i], lead[i][1], g, invs[j], lead[j][1], lcm)
    return _reduce(acc, G, lead, invs, order, f.layout, f.field, budget, with_quotients)


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
    layout, fld = gens[0].layout, gens[0].field
    key = order.key
    first_pos = layout.nvars - layout.positions
    G, lead, invs = [], [], []
    # per element: the degree of its leading monomial, and its sugar less that
    degs, surplus = [], []
    live = []  # the elements new ones pair with: no later leading monomial divides theirs
    # pending pairs (sugar, deg lcm, order key of lcm, i, j, lcm), a heap
    queue = []

    def insert(f, f_sugar):
        """Append f to the basis by the Gebauer-Moeller update."""
        h = len(G)
        c, hm = f.leading_term(order)
        hdeg = sum(hm)
        G.append(f)
        lead.append((c, hm))
        invs.append(fld.inv(c))
        degs.append(hdeg)
        surplus.append(f_sugar - hdeg)
        # a pending pair whose lcm hm divides, and differs from the lcms of
        # both its elements with h, reduces through those two pairs
        kept = [
            p for p in queue
            if p[1] < hdeg
            or not mono_divides(hm, p[5])
            or mono_lcm(lead[p[3]][1], hm) == p[5]
            or mono_lcm(lead[p[4]][1], hm) == p[5]
        ]
        # the pairs (k, h), one per lcm: the least sugar, then the least k
        where = hm[first_pos:]  # () for an ideal
        best, coprime = {}, set()
        for k in live:
            km = lead[k][1]
            if where and km[first_pos:] != where:
                continue
            lcm = mono_lcm(km, hm)
            deg = sum(lcm)
            if deg == degs[k] + hdeg:
                coprime.add(lcm)
            over = max(surplus[k], surplus[h])  # the pair's sugar less deg lcm
            if lcm not in best or over < best[lcm][0]:
                best[lcm] = (over, k, deg)
        # no pair whose lcm is that of a coprime pair, or a proper multiple of
        # another new pair's lcm
        for lcm, (over, k, deg) in best.items():
            if lcm in coprime or any(
                d < deg and mono_divides(other, lcm) for other, (_, _, d) in best.items()
            ):
                continue
            kept.append((deg + over, deg, key(lcm), k, h, lcm))
        heapq.heapify(kept)
        queue[:] = kept
        live[:] = [k for k in live if not mono_divides(hm, lead[k][1])]
        live.append(h)
        budget.note_basis(len(G))

    for g in gens:
        insert(g, g.total_degree())
    while queue:
        pair_sugar, _, _, i, j, lcm = heapq.heappop(queue)
        budget.charge_pair()
        nf = _reduce_spair(G, lead, invs, i, j, lcm, order, budget)
        if not nf.is_zero:
            insert(nf, pair_sugar)
    return _interreduce(G, lead, invs, order, budget), len(G)


def _interreduce(G, lead, invs, order: MonomialOrder, budget: ComputeBudget):
    """The reduced basis of the Groebner basis G, from Buchberger's tables of
    its leading terms and their inverse coefficients: the minimal elements,
    each divided once by the others, made monic, sorted descending.  The
    minimal leading monomials are those of the reduced basis, and division by
    a Groebner basis has a unique remainder, so one pass is enough."""
    keys = [order.key(m) for _, m in lead]
    # drop elements whose leading monomial is divisible by another's
    kept = []
    for i in sorted(range(len(G)), key=keys.__getitem__):
        if not any(mono_divides(lead[j][1], lead[i][1]) for j in kept):
            kept.append(i)
    layout, fld = G[0].layout, G[0].field
    out = []
    for i in reversed(kept):
        others = [j for j in kept if j != i]
        pending = {e: c for c, e in G[i].terms}
        r = _reduce(
            pending,
            [G[j] for j in others],
            [lead[j] for j in others],
            [invs[j] for j in others],
            order, layout, fld, budget, False,
        )
        out.append(r.scale(invs[i]))
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

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.layout == other.layout
            and self.field == other.field
            and self.gens == other.gens
        )

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
        return normal_form(f, list(gb), order).is_zero


def ideal_member(f: Polynomial, I: Ideal, order=None, budget=None) -> bool:
    return I.contains(f, order, budget)


# ---------------------------------------------------------------------------
# submodules of free modules, encoded with position variables


@dataclass(frozen=True)
class ModuleOrder:
    """Term-over-position: compare monomials by the ring order, tie-break by
    position ascending (lower position wins).  On encoded vectors it is the
    ring order with the position block appended last."""

    ring_order: MonomialOrder

    def on(self, layout: RingLayout) -> MonomialOrder:
        """The order on the monomials of ``layout``, a layout with positions."""
        blocks = tuple(blk for blk in self.ring_order.blocks if blk)
        return MonomialOrder(blocks + (layout.position_indices,), self.ring_order.within)


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


def module_normal_form(v, basis, morder: ModuleOrder, budget=None):
    """Remainder of the vector ``v`` on division by the basis vectors."""
    if not basis:
        return v
    layout, rank = v[0].layout, len(v)
    f, *encoded = encode_vectors([v, *basis], layout, rank)
    r = normal_form(f, encoded, morder.on(f.layout), budget=budget)
    return decode_vectors([r])[0]


def module_buchberger(vectors, morder: ModuleOrder, budget: ComputeBudget | None = None):
    """Reduced Groebner basis of the submodule generated by ``vectors``."""
    if not vectors:
        return []
    layout, rank = vectors[0][0].layout, len(vectors[0])
    encoded = encode_vectors(vectors, layout, rank)
    order = morder.on(layout.with_positions(rank))
    return decode_vectors(buchberger(encoded, order, budget))


@dataclass
class ModulePresentation:
    """Finite presentation of a module: relation vectors inside a free module
    of the given rank; the module itself is the cokernel."""

    layout: RingLayout
    field: object
    rank: int
    relations: tuple  # tuple of vectors (tuples of rank polynomials)
    morder: ModuleOrder | None = None

    def __post_init__(self):
        for v in self.relations:
            if len(v) != self.rank:
                raise ValueError("relation vector length differs from rank")
        self.relations = tuple(v for v in self.relations if not _is_zero_vector(v))
        if self.morder is None:
            self.morder = ModuleOrder(default_order(self.layout))
        self._gb_cache = {}

    def groebner_basis(self, morder: ModuleOrder | None = None, budget=None):
        morder = morder or self.morder
        if morder not in self._gb_cache:
            self._gb_cache[morder] = tuple(
                module_buchberger(self.relations, morder, budget)
            )
        return self._gb_cache[morder]

    def contains(self, v, morder=None, budget=None) -> bool:
        gb = self.groebner_basis(morder, budget)
        if not gb:
            return _is_zero_vector(v)
        return _is_zero_vector(module_normal_form(v, list(gb), morder or self.morder))
