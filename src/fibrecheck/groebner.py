"""Buchberger's algorithm for ideals and for submodules of free modules.

Produces canonical reduced bases (monic, interreduced, sorted by the order),
so recomputation from any permutation of the generators yields an identical
basis.  Pair selection follows the normal strategy with the coprimality and
chain criteria; resource use is metered by a :class:`ComputeBudget`.

Pending S-pairs wait in a binary heap.  Each pair's rank
``(deg lcm, order key of lcm, i, j)`` is computed once, when the pair is
created, and the heap pops the least rank next.  Ranks are unique by
``(i, j)``, so pairs are processed in exactly the order of a linear scan for
the minimum: pair counts and bases do not depend on the queue.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field as dc_field

from .poly import (
    MonomialOrder,
    Polynomial,
    RingLayout,
    default_order,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class ResourceLimitError(RuntimeError):
    """Pair limit or deadline exceeded during a basis computation."""

    def __init__(self, message: str, pairs: int | None = None):
        super().__init__(message)
        self.pairs = pairs


@dataclass
class ComputeBudget:
    """Cumulative pair/time limits shared by a sequence of computations.
    Reduction steps are metered too (at 200x the pair limit), so oversized
    inputs abort deterministically even inside a single division."""

    pair_limit: int = 100_000
    deadline: float | None = None  # absolute time.monotonic() deadline
    pairs: int = 0
    max_basis: int = 0
    work: int = 0

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
        if self.work % 64 == 0:
            self._check_deadline()

    def _check_deadline(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError("timeout exceeded", pairs=self.pairs)

    def note_basis(self, size: int):
        if size > self.max_basis:
            self.max_basis = size


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
    is divisible by any basis leading monomial."""
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


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """(lcm/LT(f))*f - (lcm/LT(g))*g; the leading terms cancel."""
    if f.is_zero or g.is_zero:
        raise ValueError("s_polynomial of the zero polynomial")
    fld = f.field
    fc, fm = f.leading_term(order)
    gc, gm = g.leading_term(order)
    lcm = mono_lcm(fm, gm)
    return f.mul_term(fld.inv(fc), mono_div(lcm, fm)) - g.mul_term(
        fld.inv(gc), mono_div(lcm, gm)
    )


# ---------------------------------------------------------------------------
# Buchberger for ideals


def _pair_rank(mi, mj, i, j, order: MonomialOrder):
    """Heap entry of the pair (i, j) with leading monomials mi, mj: the normal
    strategy (least lcm degree, then least lcm under the order), indices last
    so that no two entries tie."""
    lcm = mono_lcm(mi, mj)
    return (sum(lcm), order.key(lcm), i, j)


def buchberger(gens, order: MonomialOrder, budget: ComputeBudget | None = None, trace: bool = False):
    """Reduced Groebner basis of the ideal generated by ``gens``.

    With ``trace=True`` also returns, for each basis element, its cofactor
    vector over the original generators (basis[i] = sum cof[i][j] * gens[j]).
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return ([], []) if trace else []
    layout, fld = gens[0].layout, gens[0].field
    budget = budget or ComputeBudget()

    G = list(gens)
    cofs = None
    if trace:
        cofs = []
        for i in range(len(gens)):
            row = [Polynomial.zero(layout, fld) for _ in gens]
            row[i] = Polynomial.constant(layout, fld, 1)
            cofs.append(row)

    lead = [g.leading_term(order) for g in G]
    # ``pairs`` mirrors the heap as a set: the chain criterion asks whether a
    # pair is still pending
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    queue = [_pair_rank(lead[i][1], lead[j][1], i, j, order) for i, j in pairs]
    heapq.heapify(queue)
    while queue:
        *_, i, j = heapq.heappop(queue)
        pairs.discard((i, j))
        budget.charge_pair()
        fm, gm = lead[i][1], lead[j][1]
        lcm = mono_lcm(fm, gm)
        if lcm == mono_mul(fm, gm):  # coprime leading monomials
            continue
        if any(
            k != i and k != j
            and mono_divides(lead[k][1], lcm)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k in range(len(G))
        ):
            continue  # chain criterion
        s = s_polynomial(G[i], G[j], order)
        if trace:
            nf, quots = normal_form(s, G, order, with_quotients=True, budget=budget)
        else:
            nf = normal_form(s, G, order, budget=budget)
        if nf.is_zero:
            continue
        if trace:
            fc = fld.inv(lead[i][0])
            gc = fld.inv(lead[j][0])
            ti = Polynomial.from_dict(layout, fld, {mono_div(lcm, fm): fc})
            tj = Polynomial.from_dict(layout, fld, {mono_div(lcm, gm): gc})
            row = [
                ti * cofs[i][t] - tj * cofs[j][t] for t in range(len(gens))
            ]
            for g_idx, q in enumerate(quots):
                if not q.is_zero:
                    row = [row[t] - q * cofs[g_idx][t] for t in range(len(gens))]
            cofs.append(row)
        G.append(nf)
        lead.append(nf.leading_term(order))
        new = len(G) - 1
        for k in range(new):
            pairs.add((k, new))
            heapq.heappush(queue, _pair_rank(lead[k][1], lead[new][1], k, new, order))
        budget.note_basis(len(G))

    basis, basis_cofs = _interreduce(G, cofs, order, budget)
    return (basis, basis_cofs) if trace else basis


def _interreduce(G, cofs, order: MonomialOrder, budget: "ComputeBudget | None" = None):
    """Minimalize and fully reduce; monic-normalize; sort descending."""
    items = list(range(len(G)))
    # drop elements whose leading monomial is divisible by another's
    kept = []
    for i in sorted(items, key=lambda i: order.key(G[i].leading_monomial(order))):
        lm = G[i].leading_monomial(order)
        if not any(mono_divides(G[j].leading_monomial(order), lm) for j in kept):
            kept.append(i)
    polys = [G[i] for i in kept]
    rows = [cofs[i] for i in kept] if cofs is not None else None

    changed = True
    while changed:
        changed = False
        for i in range(len(polys)):
            others = polys[:i] + polys[i + 1 :]
            if not others:
                continue
            if rows is not None:
                nf, quots = normal_form(
                    polys[i], others, order, with_quotients=True, budget=budget
                )
            else:
                nf = normal_form(polys[i], others, order, budget=budget)
            if nf != polys[i]:
                changed = True
                if rows is not None:
                    other_rows = rows[:i] + rows[i + 1 :]
                    new_row = rows[i]
                    for q, orow in zip(quots, other_rows):
                        if not q.is_zero:
                            new_row = [a - q * b for a, b in zip(new_row, orow)]
                    rows[i] = new_row
                polys[i] = nf
            if polys[i].is_zero:
                del polys[i]
                if rows is not None:
                    del rows[i]
                break

    fld = polys[0].field if polys else None
    for i in range(len(polys)):
        lc = polys[i].leading_coefficient(order)
        inv = fld.inv(lc)
        polys[i] = polys[i].scale(inv)
        if rows is not None:
            rows[i] = [c.scale(inv) for c in rows[i]]
    idx = sorted(
        range(len(polys)),
        key=lambda i: order.key(polys[i].leading_monomial(order)),
        reverse=True,
    )
    polys = [polys[i] for i in idx]
    rows = [rows[i] for i in idx] if rows is not None else None
    return polys, rows


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

    @property
    def is_zero_ideal(self) -> bool:
        return not self.gens

    def is_unit(self, order=None, budget=None) -> bool:
        gb = self.groebner_basis(order, budget)
        return bool(gb) and gb[0].is_constant

    def contains(self, f: Polynomial, order=None, budget=None) -> bool:
        gb = self.groebner_basis(order, budget)
        if not gb:
            return f.is_zero
        order = order or default_order(self.layout)
        return normal_form(f, list(gb), order).is_zero


def ideal_member(f: Polynomial, I: Ideal, order=None, budget=None) -> bool:
    return I.contains(f, order, budget)


# ---------------------------------------------------------------------------
# free-module machinery (vectors are tuples of polynomials)


@dataclass(frozen=True)
class ModuleOrder:
    """Term-over-position: compare monomials by the ring order, tie-break by
    position ascending (lower position wins)."""

    ring_order: MonomialOrder

    def term_key(self, pos: int, exps):
        return (self.ring_order.key(exps), -pos)


def vec_zero(layout, fld, rank):
    return tuple(Polynomial.zero(layout, fld) for _ in range(rank))


def vec_is_zero(v) -> bool:
    return all(c.is_zero for c in v)


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_mul_term(v, coeff, exps):
    return tuple(c.mul_term(coeff, exps) for c in v)


def vec_scale(v, coeff):
    return tuple(c.scale(coeff) for c in v)


def vector_leading(v, morder: ModuleOrder):
    """(position, coefficient, monomial) of the leading module term."""
    best = None
    for pos, comp in enumerate(v):
        if comp.is_zero:
            continue
        c, m = comp.leading_term(morder.ring_order)
        key = morder.term_key(pos, m)
        if best is None or key > best[0]:
            best = (key, pos, c, m)
    if best is None:
        raise ValueError("zero vector has no leading term")
    return best[1], best[2], best[3]


def module_normal_form(
    v, basis, morder: ModuleOrder, with_quotients: bool = False, budget=None
):
    if not basis:
        return (v, []) if with_quotients else v
    layout = basis[0][0].layout
    fld = basis[0][0].field
    lead = [vector_leading(g, morder) for g in basis]
    rank = len(basis[0])
    rem = [dict() for _ in range(rank)]
    p = v
    quots = [Polynomial.zero(layout, fld) for _ in basis] if with_quotients else None
    while not vec_is_zero(p):
        if budget is not None:
            budget.charge_work()
        pos, c, m = vector_leading(p, morder)
        for i, (gpos, gc, gm) in enumerate(lead):
            if gpos == pos and mono_divides(gm, m):
                fc = fld.div(c, gc)
                fm = mono_div(m, gm)
                p = vec_sub(p, vec_mul_term(basis[i], fc, fm))
                if with_quotients:
                    quots[i] = quots[i] + Polynomial.from_dict(layout, fld, {fm: fc})
                break
        else:
            rem[pos][m] = c
            t = Polynomial.from_dict(layout, fld, {m: c})
            p = tuple(
                comp - t if k == pos else comp for k, comp in enumerate(p)
            )
    r = tuple(Polynomial.from_dict(layout, fld, d) for d in rem)
    return (r, quots) if with_quotients else r


def module_buchberger(vectors, morder: ModuleOrder, budget: ComputeBudget | None = None):
    """Reduced Groebner basis of the submodule generated by ``vectors``.
    S-vectors are formed only between vectors leading in the same position."""
    G = [v for v in vectors if not vec_is_zero(v)]
    if not G:
        return []
    layout = G[0][0].layout
    fld = G[0][0].field
    budget = budget or ComputeBudget()
    lead = [vector_leading(g, morder) for g in G]
    ring_order = morder.ring_order
    queue = [
        _pair_rank(lead[i][2], lead[j][2], i, j, ring_order)
        for i in range(len(G))
        for j in range(i + 1, len(G))
        if lead[i][0] == lead[j][0]
    ]
    heapq.heapify(queue)
    while queue:
        *_, i, j = heapq.heappop(queue)
        budget.charge_pair()
        _, ci, mi = lead[i]
        _, cj, mj = lead[j]
        lcm = mono_lcm(mi, mj)
        s = vec_sub(
            vec_mul_term(G[i], fld.inv(ci), mono_div(lcm, mi)),
            vec_mul_term(G[j], fld.inv(cj), mono_div(lcm, mj)),
        )
        nf = module_normal_form(s, G, morder, budget=budget)
        if vec_is_zero(nf):
            continue
        G.append(nf)
        lead.append(vector_leading(nf, morder))
        new = len(G) - 1
        for k in range(new):
            if lead[k][0] == lead[new][0]:
                heapq.heappush(
                    queue, _pair_rank(lead[k][2], lead[new][2], k, new, ring_order)
                )
        budget.note_basis(len(G))
    return _module_interreduce(G, morder)


def _module_interreduce(G, morder: ModuleOrder):
    kept = []
    order_key = lambda v: morder.term_key(*_lead_pm(v, morder))
    for i in sorted(range(len(G)), key=lambda i: order_key(G[i])):
        pos, _, m = vector_leading(G[i], morder)
        if not any(
            vector_leading(G[j], morder)[0] == pos
            and mono_divides(vector_leading(G[j], morder)[2], m)
            for j in kept
        ):
            kept.append(i)
    vecs = [G[i] for i in kept]
    changed = True
    while changed:
        changed = False
        for i in range(len(vecs)):
            others = vecs[:i] + vecs[i + 1 :]
            if not others:
                continue
            nf = module_normal_form(vecs[i], others, morder)
            if nf != vecs[i]:
                vecs[i] = nf
                changed = True
            if vec_is_zero(vecs[i]):
                del vecs[i]
                break
    out = []
    for v in vecs:
        _, c, _ = vector_leading(v, morder)
        out.append(vec_scale(v, v[0].field.inv(c)))
    out.sort(key=order_key, reverse=True)
    return out


def _lead_pm(v, morder):
    pos, _, m = vector_leading(v, morder)
    return pos, m


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
        self.relations = tuple(
            v for v in self.relations if not vec_is_zero(v)
        )
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
            return vec_is_zero(v)
        return vec_is_zero(module_normal_form(v, list(gb), morder or self.morder))
