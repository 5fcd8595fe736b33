"""Shared test helpers: compact polynomial construction, ideal equality and
reference implementations."""

from __future__ import annotations

import argparse
import heapq
import itertools
from operator import le

from fibrecheck import (
    QQ,
    ComputeBudget,
    Ideal,
    ModulePresentation,
    Polynomial,
    Problem,
    RingLayout,
    fibred_power_ideal,
    groebner,
)
from fibrecheck.cli import _Expression
from fibrecheck.poly import default_order, integer_normalized, mono_div, relabel, render_poly


def mono_divides(a, b) -> bool:
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def P(layout: RingLayout, text: str, field=QQ) -> Polynomial:
    """Parse a polynomial expression against a layout's bare variable names."""
    return _Expression(text, 1, 0, layout, field, layout.var_names()).parse()


def PW(powered: RingLayout, text: str, field=QQ) -> Polynomial:
    """Parse against a powered layout, accepting bare aliases like ``x1`` for
    the copy-tagged variable names ``x(1)``, and ``t`` for the tag ``[t]``."""
    names = powered.var_names()
    alias = {n.translate(str.maketrans("", "", "()[]")): n for n in names}
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


def render_problem(problem: Problem) -> str:
    """Inverse of ``cli.parse_problem`` up to formatting, for its round-trip
    tests.  A module without relations is rendered with one zero vector,
    which its presentation drops."""
    lines = [f"field {'Q' if problem.field == QQ else 'F ' + str(problem.field.p)}"]
    lines.append("base " + " ".join(problem.base_vars))
    if problem.fibre_vars:
        lines.append("vars " + " ".join(problem.fibre_vars))
    if problem.ideal_gens:
        lines.append("ideal: " + ", ".join(render_poly(g) for g in problem.ideal_gens))
    if problem.module is not None:
        t = problem.module.rank
        vecs = [f"({'; '.join(map(render_poly, v))})" for v in problem.module.relations]
        lines.append(f"module {t}: " + (", ".join(vecs) or "(" + "; ".join(["0"] * t) + ")"))
    if problem.checks == ("open", "flat"):
        lines.append("check both")
    else:
        lines.append("check " + problem.checks[0])
    if problem.max_power is not None:
        lines.append(f"power {problem.max_power}")
    return "\n".join(lines) + "\n"


def ideal_of(layout: RingLayout, *exprs: str, field=QQ) -> Ideal:
    return Ideal(layout, field, tuple(P(layout, e, field) for e in exprs))


def count_computations(monkeypatch) -> list:
    """A list that gains the generators of every basis computed from here on
    (of an ideal, or of a submodule as encoded vectors); bases served by a
    memo are not computed and not listed."""
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
                factor_c = fld.canon(c * fld.inv(gc))
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


def reference_s_polynomial(f, g, order):
    """(lcm/LT(f))*f - (lcm/LT(g))*g by term multiplication and subtraction;
    ``s_polynomial`` must give the same polynomial."""
    fld = f.field
    (cf, mf), (cg, mg) = f.leading_term(order), g.leading_term(order)
    lcm = mono_lcm(mf, mg)
    return f.mul_term(fld.inv(cf), mono_div(lcm, mf)) - g.mul_term(fld.inv(cg), mono_div(lcm, mg))


def reference_buchberger(gens, order, budget=None):
    """Reduced basis by a Buchberger loop with no criterion: every pair is
    reduced, first formed first, then the result is minimalized,
    interreduced, made monic and sorted descending.  ``buchberger`` must give
    the same basis."""
    G = [g for g in gens if not g.is_zero]
    if not G:
        return []
    budget = budget or ComputeBudget()
    fld = G[0].field
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        budget.charge_pair()
        nf = reference_normal_form(reference_s_polynomial(G[i], G[j], order), G, order, budget=budget)
        if not nf.is_zero:
            pairs += [(k, len(G)) for k in range(len(G))]
            G.append(nf)

    def key(g):
        return order.key(g.leading_term(order)[1])

    kept = []
    for g in sorted(G, key=key):
        m = g.leading_term(order)[1]
        if not any(mono_divides(h.leading_term(order)[1], m) for h in kept):
            kept.append(g)
    # no leading monomial of a minimal basis divides another, so dividing each
    # element by the others keeps every lead and one pass reduces fully
    for i in range(len(kept)):
        kept[i] = reference_normal_form(kept[i], kept[:i] + kept[i + 1 :], order)
    return sorted((g.scale(fld.inv(g.leading_term(order)[0])) for g in kept), key=key, reverse=True)


def reference_update_buchberger(gens, order, budget):
    """The engine's Buchberger loop written plainly on exponent tuples: the
    sugar strategy, and the Gebauer-Moeller update with the whole queue
    filtered and re-heapified at every insertion.  An element pairs only
    with live elements whose leading monomial has the same positions.
    ``buchberger`` must give the same basis and charge the budget the same
    pairs, reduction steps and largest basis."""
    G = [g for g in gens if not g.is_zero]
    nvars, rank = G[0].layout.nvars, G[0].layout.positions
    held, leads, surplus, live, queue = [], [], [], [], []

    def insert(g, sugar):
        h, hm = len(held), g.leading_monomial(order)
        held.append(g)
        leads.append(hm)
        surplus.append(sugar - sum(hm))
        # B: a pending pair whose lcm hm divides, and differs from the lcms
        # of both its elements with hm, is deleted
        kept = [
            p for p in queue
            if not mono_divides(hm, p[-1])
            or mono_lcm(leads[p[3]], hm) == p[-1] or mono_lcm(leads[p[4]], hm) == p[-1]
        ]
        # the pairs (k, h), one per lcm: the least sugar, then the least k
        best, coprime = {}, set()
        for k in live:
            if leads[k][nvars - rank :] != hm[nvars - rank :]:
                continue
            lcm = mono_lcm(leads[k], hm)
            if all(not (a and b) for a, b in zip(leads[k], hm)):
                coprime.add(lcm)
            over = max(surplus[k], surplus[h])
            if lcm not in best or over < best[lcm][0]:
                best[lcm] = (over, k)
        # M and F: no pair whose lcm is a coprime pair's, or a proper multiple
        # of another candidate's (a coprime pair's lcm is a candidate too)
        for lcm, (over, k) in best.items():
            if lcm in coprime or any(o != lcm and mono_divides(o, lcm) for o in best):
                continue
            kept.append((sum(lcm) + over, sum(lcm), order.key(lcm), k, h, lcm))
        heapq.heapify(kept)
        queue[:] = kept
        live[:] = [k for k in live if not mono_divides(hm, leads[k])]
        live.append(h)
        budget.note_basis(len(held))

    for g in G:
        insert(g, g.total_degree())
    while queue:
        sugar, *_, i, j, _ = heapq.heappop(queue)
        budget.charge_pair()
        s = reference_s_polynomial(held[i], held[j], order)
        nf = reference_normal_form(s, held, order, budget=budget)
        if not nf.is_zero:
            insert(nf, sugar)

    # the minimal elements, least lead first, each divided by the others
    fld = G[0].field
    kept = []
    for i in sorted(range(len(held)), key=lambda i: order.key(leads[i])):
        if not any(mono_divides(leads[j], leads[i]) for j in kept):
            kept.append(i)
    out = []
    for i in kept:
        r = reference_normal_form(held[i], [held[j] for j in kept if j != i], order, budget=budget)
        out.append(r.scale(fld.inv(r.leading_coefficient(order))))
    return sorted(out, key=lambda g: order.key(g.leading_monomial(order)), reverse=True)


def reference_vector_leading(v, ring_order):
    """(position, coefficient, monomial) of a vector's leading term under the
    term-over-position order: ``ring_order`` (an order on the vector's ring)
    first, then the lower position."""
    best = None
    for pos, comp in enumerate(v):
        if comp.is_zero:
            continue
        c, m = comp.leading_term(ring_order)
        key = (ring_order.key(m), -pos)
        if best is None or key > best[0]:
            best = (key, pos, c, m)
    if best is None:
        raise ValueError("zero vector has no leading term")
    return best[1], best[2], best[3]


def reference_s_vector(u, v, ring_order):
    """S-vector of two vectors leading in the same position; the leading
    terms cancel."""
    pu, cu, mu = reference_vector_leading(u, ring_order)
    pv, cv, mv = reference_vector_leading(v, ring_order)
    assert pu == pv
    fld = u[0].field
    lcm = mono_lcm(mu, mv)
    return tuple(
        a.mul_term(fld.inv(cu), mono_div(lcm, mu)) - b.mul_term(fld.inv(cv), mono_div(lcm, mv))
        for a, b in zip(u, v)
    )


def _is_zero_vector(v) -> bool:
    return all(c.is_zero for c in v)


def reference_module_normal_form(v, basis, ring_order, budget=None):
    """Module division written vector by vector: rebuild the whole dividend
    after every step.  ``module_normal_form`` must agree with it on the
    remainder."""
    if not basis:
        return v
    layout, fld = basis[0][0].layout, basis[0][0].field
    lead = [reference_vector_leading(g, ring_order) for g in basis]
    rem = [dict() for _ in v]
    p = v
    while not _is_zero_vector(p):
        if budget is not None:
            budget.charge_work()
        pos, c, m = reference_vector_leading(p, ring_order)
        for i, (gpos, gc, gm) in enumerate(lead):
            if gpos == pos and mono_divides(gm, m):
                fc, fm = fld.canon(c * fld.inv(gc)), mono_div(m, gm)
                p = tuple(a - b.mul_term(fc, fm) for a, b in zip(p, basis[i]))
                break
        else:
            rem[pos][m] = c
            t = Polynomial.from_dict(layout, fld, {m: c})
            p = tuple(comp - t if k == pos else comp for k, comp in enumerate(p))
    return tuple(Polynomial.from_dict(layout, fld, d) for d in rem)


def reference_module_buchberger(vectors, ring_order, budget=None):
    """Reduced basis of a submodule by a Buchberger loop with no criterion:
    every pair of vectors leading in the same position is reduced, then the
    result is minimalized, interreduced, made monic and sorted descending.
    ``module_buchberger`` must give the same basis."""
    G = [v for v in vectors if not _is_zero_vector(v)]
    if not G:
        return []
    budget = budget or ComputeBudget()
    lead = [reference_vector_leading(g, ring_order) for g in G]

    def rank(i, j):
        lcm = mono_lcm(lead[i][2], lead[j][2])
        return (sum(lcm), ring_order.key(lcm), i, j)

    queue = [rank(i, j) for i in range(len(G)) for j in range(i + 1, len(G)) if lead[i][0] == lead[j][0]]
    heapq.heapify(queue)
    while queue:
        *_, i, j = heapq.heappop(queue)
        budget.charge_pair()
        nf = reference_module_normal_form(reference_s_vector(G[i], G[j], ring_order), G, ring_order, budget)
        if _is_zero_vector(nf):
            continue
        G.append(nf)
        lead.append(reference_vector_leading(nf, ring_order))
        for k in range(len(G) - 1):
            if lead[k][0] == lead[-1][0]:
                heapq.heappush(queue, rank(k, len(G) - 1))

    def key(v):
        pos, _, m = reference_vector_leading(v, ring_order)
        return (ring_order.key(m), -pos)

    kept = []
    for v in sorted(G, key=key):
        pos, _, m = reference_vector_leading(v, ring_order)
        if not any(
            reference_vector_leading(w, ring_order)[0] == pos
            and mono_divides(reference_vector_leading(w, ring_order)[2], m)
            for w in kept
        ):
            kept.append(v)
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1 :]
            if not others:
                continue
            nf = reference_module_normal_form(kept[i], others, ring_order)
            if nf != kept[i]:
                kept[i] = nf
                changed = True
            if _is_zero_vector(kept[i]):
                del kept[i]
                break
    out = []
    for v in kept:
        inv = v[0].field.inv(reference_vector_leading(v, ring_order)[1])
        out.append(tuple(c.scale(inv) for c in v))
    return sorted(out, key=key, reverse=True)


def reference_base_leading_coefficient(f: Polynomial, order=None) -> Polynomial:
    """The terms of f at its lead's non-base part, non-base exponents zeroed,
    gathered in a dict and sorted by ``Polynomial.from_dict``."""
    layout = f.layout
    order = order or default_order(layout)
    nb = len(layout.base_vars)
    lead = max(f.terms, key=lambda t: order.key(t[1]))[1]
    pad = (0,) * (layout.nvars - nb)
    return Polynomial.from_dict(layout, f.field, {e[:nb] + pad: c for c, e in f.terms if e[nb:] == lead[nb:]})


def reference_generic_denominator(basis, layout, fld, order=None) -> Polynomial:
    """The generic denominator element by element: each base leading
    coefficient built through a dict, a monomial one truncated to its
    exponent support, integer-normalized, and multiplied in once."""
    order = order or default_order(layout)
    h = Polynomial.constant(layout, fld, 1)
    seen = set()
    for g in basis:
        c = reference_base_leading_coefficient(g, order)
        if c.is_constant:
            continue
        if len(c.terms) == 1:
            c = Polynomial.from_dict(layout, fld, {tuple(min(x, 1) for x in c.terms[0][1]): fld.one})
        c = integer_normalized(c)
        if c.terms in seen:
            continue
        seen.add(c.terms)
        h = h * c
    return h


def reference_unit(nvars: int, i: int):
    """The exponents of variable i alone, one comparison per entry."""
    return tuple(int(i == j) for j in range(nvars))


def reference_tensor_power_presentation(problem, k: int) -> ModulePresentation:
    """The k-th tensor power's presentation, each slot's relations placed by
    splicing the slot's index into every tuple of the other slots' indices
    and flattening the tuple row-major."""
    mod = problem.module
    t = mod.rank
    target = problem.layout.powered(k)
    zero = Polynomial.zero(target, problem.field)
    ambient_rank = t**k

    def flat(tup) -> int:
        idx = 0
        for j in tup:
            idx = idx * t + j
        return idx

    relations = []
    for i in range(1, k + 1):
        for v in mod.relations:
            v_i = tuple(relabel(c, target, i) for c in v)
            for others in itertools.product(range(t), repeat=k - 1):
                w = [zero] * ambient_rank
                for s in range(t):
                    w[flat(others[: i - 1] + (s,) + others[i - 1 :])] = v_i[s]
                relations.append(tuple(w))
    for g in fibred_power_ideal(problem.ideal, k).gens:
        for b in range(ambient_rank):
            w = [zero] * ambient_rank
            w[b] = g
            relations.append(tuple(w))
    return ModulePresentation(target, problem.field, ambient_rank, tuple(relations))


def reference_packing_weights(order, width: int) -> tuple:
    """Each variable's packed-key weight, summed over every digit of the
    order's key on its unit vector, zero digits included."""
    nvars = sum(map(len, order.blocks))
    r = (nvars * ((1 << (width + 1)) - 1)).bit_length()
    digits = len(order.key((0,) * nvars))
    columns = [order.key(reference_unit(nvars, i)) for i in range(nvars)]
    return tuple(sum(a << (r * (digits - 1 - j)) for j, a in enumerate(col)) for col in columns)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Mutual membership of generators."""
    return all(J.contains(g) for g in I.gens) and all(I.contains(g) for g in J.gens)


BLOWUP_LAYOUT = RingLayout(("y1", "y2"), ("x",))
CUSP_LAYOUT = RingLayout(("y1", "y2"), ("t",))
LINE_LAYOUT = RingLayout(("y",), ("x",))


def reference_flags(argv, started: float):
    """The argparse parser that ``flags.parse`` replaced, with its range
    checks: (options, the CheckConfig's fields) of argv, or the message of
    its first value out of range.  argparse raises SystemExit on argv it
    refuses."""
    parser = argparse.ArgumentParser(prog="fibrecheck")
    parser.add_argument("--input", default="-")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--max-power", type=int, default=None)
    parser.add_argument("--order", choices=("lex", "grevlex"), default="grevlex")
    parser.add_argument("--allow-char-p-flatness", action="store_true")
    parser.add_argument("--pair-limit", type=int, default=100_000)
    parser.add_argument("--timeout-seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.max_power is not None and args.max_power < 1:
        return f"--max-power must be >= 1, got {args.max_power}"
    if args.pair_limit < 1:
        return f"--pair-limit must be >= 1, got {args.pair_limit}"
    if args.timeout_seconds is not None and not args.timeout_seconds > 0:
        return f"--timeout-seconds must be > 0, got {args.timeout_seconds:g}"
    options = {"input": args.input, "json": args.json, "trace": args.trace}
    deadline = None if args.timeout_seconds is None else started + args.timeout_seconds
    return options, (args.order, args.max_power, args.pair_limit, deadline, args.allow_char_p_flatness)
