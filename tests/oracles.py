"""Independent cross-checks, deliberately avoiding the Groebner division path.

- Macaulay-matrix membership: exact Gaussian elimination over the span of all
  monomial multiples of the generators up to a degree bound.
- Saturation by iterated ideal quotients until the chain stabilizes.
"""

from __future__ import annotations

import itertools

from fibrecheck import Ideal, Polynomial
from fibrecheck.idealops import quotient


def _monomials_up_to(nvars: int, degree: int):
    for total in range(degree + 1):
        for cuts in itertools.combinations(range(total + nvars - 1), nvars - 1):
            exps = []
            prev = -1
            for c in cuts:
                exps.append(c - prev - 1)
                prev = c
            exps.append(total + nvars - 2 - prev)
            yield tuple(exps)


def macaulay_member(f: Polynomial, gens, degree_bound: int) -> bool:
    """Is f a polynomial combination of the generators with every product of
    total degree <= degree_bound?  Sound for membership; complete once the
    bound is large enough for the instance."""
    layout, fld = f.layout, f.field
    nv = layout.nvars
    if nv == 0:
        return f.is_zero or any(not g.is_zero for g in gens)

    def mono_key(e):
        return (sum(e), tuple(-x for x in reversed(e)))

    echelon = {}  # pivot monomial -> row dict {monomial: coeff}, pivot coeff 1

    def reduce_row(row: dict) -> dict:
        row = dict(row)
        while row:
            pivot = max(row, key=mono_key)
            if pivot not in echelon:
                return row
            other = echelon[pivot]
            c = row[pivot]
            for m, oc in other.items():
                s = fld.canon(row.get(m, fld.zero) - c * oc)
                if not s:
                    row.pop(m, None)
                else:
                    row[m] = s
        return row

    for g in gens:
        if g.is_zero:
            continue
        dg = g.total_degree()
        for m in _monomials_up_to(nv, max(0, degree_bound - dg)):
            row = {}
            for c, e in g.terms:
                row[tuple(a + b for a, b in zip(e, m))] = c
            row = reduce_row(row)
            if row:
                pivot = max(row, key=mono_key)
                inv = fld.inv(row[pivot])
                echelon[pivot] = {k: fld.canon(v * inv) for k, v in row.items()}

    residual = reduce_row({e: c for c, e in f.terms})
    return not residual


def saturate_by_quotients(I: Ideal, f: Polynomial, max_steps: int = 50) -> Ideal:
    """The stabilized quotient chain I : f <= I : f^2 <= ...; equals I : f^inf."""
    current = I
    for _ in range(max_steps):
        nxt = quotient(current, f)
        if all(current.contains(g) for g in nxt.gens):
            return current
        current = nxt
    raise AssertionError("quotient chain failed to stabilize")
