"""Decision procedures for openness and flatness.

Openness of Spec A -> Spec R fails iff some fibred power J_k (k <= n = number
of base variables) acquires a vertical irreducible component; flatness fails
iff some tensor power acquires R-torsion.  Vertical parts are separated from
dominant ones by saturating at the generic denominator h (the product of the
base-variable leading coefficients of a fibre-over-base Groebner basis) of
J_1: A_h is free over R_h (generic freeness), so is each tensor power, and
J_k : h^infinity is the dominant part of every J_k, while J_k's own h would
add spurious factors.  A module of rank >= 2 keeps each power's h, a power of
which is its certificate.  Both fail alike: a nonzero pure-base r pushes
some w (g, or v) into sqrt(J_k) (J_k) while w stays outside.  So one re-check,
given the membership to use, proves every negative verdict before it is
emitted, by exact proofs that do not trust the engine where they exist: r*w
lies in J_k when division by J_k's generators leaves no remainder, and w lies
outside when it is nonzero at a point of V(J_k).  Only a half left unproven
falls back to the engine (see the re-checks)."""

from __future__ import annotations

import time
from itertools import islice, product
from dataclasses import dataclass, field as dc_field

from .fields import RationalField
from .groebner import (
    ComputeBudget,
    Ideal,
    ModulePresentation,
    ResourceLimitError,
    decode_vectors,
    encode_vectors,
    normal_form,
)
from .idealops import contract_to_base, module_saturate, quotient, radical_member, saturate
from .poly import (
    Polynomial,
    base_leading_coefficient,
    default_order,
    integer_normalized,
    transport,
)
from .power import Problem, fibred_power_ideal, tensor_power_presentation


class CharacteristicGuardError(ValueError):
    """Flatness over F_p requested without the explicit acknowledgment."""


class WitnessSoundnessError(RuntimeError):
    """An emitted witness failed its independent re-check (internal bug)."""


@dataclass
class CheckConfig:
    """Settings of a run.  Every budget it hands out carries the config's one
    deadline, an absolute ``time.monotonic()`` instant, so that one clock
    bounds every check of a run, and its one memo, so that the checks compute
    each basis, dominant part and membership answer once: under ``check
    both`` the flatness check replays what the openness check recorded for
    the same J_k.  The memo is owned state, not a setting: it lives as long as
    the config and keeps everything stored in it alive, so a caller checking
    many unrelated problems should give each its own config."""

    within: str = "grevlex"
    max_power: int | None = None
    pair_limit: int = 100_000
    deadline: float | None = None
    allow_char_p_flatness: bool = False
    memo: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def budget(self) -> ComputeBudget:
        return ComputeBudget(pair_limit=self.pair_limit, deadline=self.deadline, memo=self.memo)


@dataclass
class PowerStats:
    k: int
    basis_size: int
    pairs: int
    millis: int


@dataclass
class Verdict:
    kind: str  # "open" | "flat"
    outcome: str  # "pass" | "fail" | "aborted"
    failing_power: int | None = None
    witness_g: Polynomial | None = None
    witness_r: Polynomial | None = None
    certificate_r: Polynomial | None = None
    certificate_v: object | None = None  # polynomial or vector of polynomials
    conclusive: bool = True
    max_power_tested: int | None = None
    powers: list = dc_field(default_factory=list)
    abort_reason: str | None = None


# ---------------------------------------------------------------------------
# generic denominator and dominant part


def squarefree_part(f: Polynomial) -> Polynomial:
    """A monomial with every exponent truncated to 1 (and coefficient 1); any
    other f itself.  Saturation depends only on the radical, I : h^infinity =
    I : (h_red)^infinity, so this only limits degree growth, and it keeps
    every irreducible factor of f."""
    if f.is_zero or f.is_constant:
        return f
    if len(f.terms) == 1:
        e = f.terms[0][1]
        return Polynomial(f.layout, f.field, ((f.field.one, tuple(min(x, 1) for x in e)),))
    return f


def generic_denominator(basis, layout, fld, order=None) -> Polynomial:
    """Product of the distinct base leading coefficients of the basis
    elements, each through :func:`squarefree_part` and then
    integer-normalized; saturation by it contracts from K(R)[x] back to R[x].
    The basis may be of encoded vectors (``layout`` then has positions); the
    product has no position variables either way."""
    order = order or default_order(layout)
    h = Polynomial.constant(layout, fld, 1)
    factors = set()
    for g in basis:
        c = base_leading_coefficient(g, order)
        if not c.is_constant:
            c = integer_normalized(squarefree_part(c))
            if c.terms not in factors:
                factors.add(c.terms)
                h = h * c
    return h


def dominant_part(J: Ideal, first: Ideal, within: str = "grevlex", budget=None) -> Ideal:
    """J : h^infinity, h the generic denominator of ``first``, the J_1 whose
    power J is; its minimal primes are the dominant minimal primes of J.
    first's basis is asked for on every call; h and the saturation are kept
    in the budget's memo, if it has one, under a key naming both ideals."""
    order = default_order(first.layout, within)
    gb = first.groebner_basis(order, budget)

    def compute():
        h = generic_denominator(gb, first.layout, first.field, order)
        return saturate(J, transport(h, J.layout), within, budget).gens

    gens = budget.memoized(("dominant part", J.gens, first.gens, order), compute) if budget else compute()
    return Ideal(J.layout, J.field, gens)


def _outside(N: Ideal, S: Ideal, order, budget):
    """The generators of S, a saturation of N, that N does not contain, each
    membership tested under ``order`` only when the scan reaches it.  N is an
    ideal, or a submodule as the ideal of its encoded vectors."""
    return (g for g in S.gens if not N.contains(g, order, budget))


def has_vertical_component(J: Ideal, first: Ideal, within: str = "grevlex", budget=None):
    """Whether V(J) strictly contains V(dominant_part(J, first)): some
    generator of the dominant part escapes the radical of J.  J lies in its
    dominant part, so a generator is first reduced by the basis of J; only
    one outside J costs a Rabinowitsch basis."""
    for g in _outside(J, dominant_part(J, first, within, budget), default_order(J.layout, within), budget):
        if not radical_member(g, J, within, budget):
            return True, g
    return False, None


def vertical_witness(J: Ideal, g: Polynomial, within: str = "grevlex", budget=None) -> Polynomial:
    """A nonzero pure-base r with r*g in sqrt(J) while g is not: the first
    generator of the contraction of J : g^infinity to the base ring."""
    S = saturate(J, g, within, budget)
    return _first_base_generator(S, within, budget, "vertical witness")


def _first_base_generator(I: Ideal, within, budget, what: str) -> Polynomial:
    """The first generator of I ∩ k[y], integer-normalized, in I's layout."""
    contraction = contract_to_base(I, within, budget)
    if not contraction.gens:
        raise WitnessSoundnessError(f"{what} contraction is zero")
    return integer_normalized(transport(contraction.gens[0], I.layout))


# ---------------------------------------------------------------------------
# torsion


def has_torsion_ideal(J: Ideal, first: Ideal, within: str = "grevlex", budget=None):
    """R-torsion in k[y, x]/J: its dominant part grows; v integer-normalized."""
    for v in _outside(J, dominant_part(J, first, within, budget), default_order(J.layout, within), budget):
        return True, (_annihilator_witness(J, v, within, budget), integer_normalized(v))
    return False, None


def _annihilator_witness(J: Ideal, v: Polynomial, within, budget) -> Polynomial:
    """Nonzero pure-base r with r*v in J, from contract_to_base(J : v), which
    is J : v^infinity when v times each of its generators lies in J: under
    ``check both`` a memo record of the openness check, and so is its
    contraction when v is g.  Otherwise (v nilpotent mod J, say) J : v comes
    from its tagged intersection basis."""
    Q = quotient(J, v, within, budget, upper=saturate(J, v, within, budget))
    return _first_base_generator(Q, within, budget, "torsion annihilator")


def has_torsion_module(pres: ModulePresentation, within: str = "grevlex", budget=None):
    """R-torsion in the cokernel of the presentation: a generator v of the
    saturation N : h^infinity outside N, with r = h^k the smallest power
    pushing it back in (one does; the budget meters each membership test).
    The search runs on encoded vectors, N the presentation's submodule, and
    decodes only v, integer-normalized as one encoded vector, so its
    components keep their ratios."""
    positioned = pres.layout.with_positions(pres.rank)
    order = default_order(positioned, within)
    N = pres.submodule(order, budget)
    h = generic_denominator(N.gens, positioned, pres.field, order)
    for v in _outside(N, module_saturate(pres, h, within, budget), order, budget):
        power = h
        while not N.contains(power * v, order, budget):
            power = power * h
        return True, (transport(integer_normalized(power), pres.layout), decode_vectors([integer_normalized(v)])[0])
    return False, None


# ---------------------------------------------------------------------------
# the power loop


def _run_power_loop(problem: Problem, config: CheckConfig, kind: str) -> Verdict:
    n = problem.n
    # the config's bound overrides the statement's ``power k``; the powers
    # 1..n decide, so none above n is tested
    bound = config.max_power if config.max_power is not None else problem.max_power
    kmax = n if bound is None else min(bound, n)
    budget = config.budget()
    verdict = Verdict(kind=kind, outcome="pass", max_power_tested=kmax)
    for k in range(1, kmax + 1):
        t0 = time.perf_counter()
        pairs_before = budget.pairs
        budget.max_basis = 0  # the power reports the largest basis it held
        try:
            if k == 1:
                first = _power_ideal(problem, kind, 1, budget)
            found, payload = _probe_power(problem, config, kind, k, first, budget)
        except ResourceLimitError as exc:
            verdict.outcome = "aborted"
            verdict.abort_reason = f"{exc} at power {k}"
            verdict.conclusive = False
            return verdict
        finally:
            verdict.powers.append(
                PowerStats(
                    k,
                    budget.max_basis,
                    budget.pairs - pairs_before,
                    int((time.perf_counter() - t0) * 1000),
                )
            )
        if found:
            verdict.outcome = "fail"
            verdict.failing_power = k
            if kind == "open":
                verdict.witness_g, verdict.witness_r = payload
            else:
                verdict.certificate_r, verdict.certificate_v = payload
            return verdict
    verdict.conclusive = kmax >= n
    return verdict


def _power_ideal(problem: Problem, kind: str, k: int, budget) -> Ideal | None:
    """The ideal a check searches at power k: J_k, or the relations of a
    rank-1 module's k-th tensor power (None for a module of higher rank)."""
    if kind == "open" or problem.module is None:
        return fibred_power_ideal(problem.ideal, k)
    if problem.module.rank > 1:
        return None
    pres = tensor_power_presentation(problem, k, budget)
    return Ideal(pres.layout, pres.field, tuple(v[0] for v in pres.relations))


def _probe_power(problem: Problem, config: CheckConfig, kind: str, k: int, first, budget):
    within = config.within
    Jk = first if k == 1 else _power_ideal(problem, kind, k, budget)
    if kind == "open":
        found, g = has_vertical_component(Jk, first, within, budget)
        if not found:
            return False, None
        r = vertical_witness(Jk, g, within, budget)
        g = integer_normalized(g)
        _verify_open_witness(Jk, first, g, r, within, budget)
        return True, (g, r)

    # flatness: torsion in the tensor power of F (F = A when none declared)
    if Jk is not None:
        found, cert = has_torsion_ideal(Jk, first, within, budget)
        if found:
            _verify_flat_ideal_certificate(Jk, *cert, within, budget, first)
        return found, cert

    pres = tensor_power_presentation(problem, k, budget)
    found, cert = has_torsion_module(pres, within, budget)
    if found:
        _verify_flat_module_certificate(pres, *cert, within, budget)
    return found, cert


def _is_pure_base(f: Polynomial) -> bool:
    nb = len(f.layout.base_vars)
    return not f.is_zero and all(i < nb for i in f.support_indices())


# Each re-check proves both halves without the engine where it can.  r*w (w
# the g or v it was given) lies in J_k when its remainder on division by J_k's
# generators is zero, the quotients being its cofactors; w lies outside
# sqrt(J_k) (J_k) when it is nonzero at a point of V(J_k).  Only a half left
# unproven asks the engine, through the entry's ``member``, which recomputes
# what it needs: inside budget.memo_bypassed(), on a fresh object whose
# per-object basis cache is empty, never the Jk or pres the search filled.
# The open entry's radical_member builds new ideals; the flat entry copies
# Jk, which for a module is a fresh Ideal on pres.encoded.


def _divides_into(f, Jk, within, budget) -> bool:
    """Whether f leaves no remainder on division by J_k's generators: a proof
    that f lies in J_k, while a remainder proves nothing."""
    return normal_form(f, Jk.gens, default_order(Jk.layout, within), budget).is_zero


def _recheck(Jk, first, w, r, within, budget, member, what):
    """r nonzero and pure-base, r*w in J_k and w outside, the memberships by
    ``member`` where division and a point leave them unproven.  A point is
    sought over the fibre of ``first`` (J_1) only when it is given; every point
    found lies over V(r), as r*w vanishes on V(J_k)."""
    with budget.memo_bypassed():
        ok = (
            _is_pure_base(r)
            and (_divides_into(r * w, Jk, within, budget) or member(r * w))
            and (first is not None and _point_outside(Jk, first, w, r, budget) or not member(w))
        )
    if not ok:
        raise WitnessSoundnessError(f"{what} failed its re-check")


def _verify_open_witness(Jk, first, g, r, within, budget):
    _recheck(Jk, first, g, r, within, budget, lambda f: radical_member(f, Jk, within, budget), "openness witness")


_POINT_TRIES = 1000  # points evaluated, base, fibre and k-tuple alike, before the engine decides


def _kernel_terms(f):
    """f's terms over its kernel ints (see fields): f times a unit."""
    coeffs, exps = zip(*f.terms)
    return list(zip(f.field.to_kernel(coeffs)[0], exps))


def _value(terms, point, p):
    """Kernel terms at an integer point, exactly, mod p over F_p: 0 iff they
    vanish; None over Q if a coordinate not in {0, 1, -1} needs a power > 1000."""
    total = 0  # kernel ints, reduced mod p once at the end
    for c, e in terms:
        for a, x in zip(point, e):
            if x > 1000 and not p and a not in (-1, 0, 1):
                return None
            c *= pow(a, x, p or None)
        total += c
    return total % p if p else total


def _box(n):  # the integer points of [-3, 3]^n, by increasing max-norm
    return (q for s in range(4) for q in product(range(-s, s + 1), repeat=n) if not s or s in q or -s in q)


def _point_outside(Jk, first, g, r, budget):
    """A point of V(J_k) in [-3, 3]^N where g is nonzero, or None after
    _POINT_TRIES points.  Base points y with r(y) = 0 come by size; over y,
    V(J_k) is the k-th power of J_1's fibre, so each fibre point x adds the
    k-tuples it is last new in, each kept if J_k is 0 there and g is not."""
    p, k, at_r, at_g = Jk.field.characteristic, Jk.layout.copies, _kernel_terms(r), _kernel_terms(g)
    fibre_eqs, power_eqs = list(map(_kernel_terms, first.gens)), list(map(_kernel_terms, Jk.gens))
    def trials():  # one item per point evaluated: the point found, else None
        for y in _box(len(Jk.layout.base_vars)):
            budget.check_deadline()
            fibre = []  # the fibre points over y found so far
            for x in _box(len(Jk.layout.fibre_vars)) if _value(at_r, y, p) == 0 else ():
                if all(_value(f, y + x, p) == 0 for f in fibre_eqs):
                    fibre.append(x)
                    for i in range(k):  # x first at position i
                        for t in product(*[fibre[:-1]] * i, [x], *[fibre] * (k - 1 - i)):
                            point = y + sum(t, ())
                            found = _value(at_g, point, p) and all(_value(f, point, p) == 0 for f in power_eqs)
                            yield point if found else None
                yield None
            yield None
    return next(filter(None, islice(trials(), _POINT_TRIES)), None)  # a point is a nonempty tuple


def _verify_flat_ideal_certificate(Jk, r, v, within, budget, first=None):
    fresh, order = Ideal(Jk.layout, Jk.field, Jk.gens), default_order(Jk.layout, within)
    _recheck(Jk, first, v, r, within, budget, lambda f: fresh.contains(f, order, budget), "flatness certificate")


def _verify_flat_module_certificate(pres, r, v, within, budget):
    """The ideal re-check on the presentation's encoded relations and on v
    encoded, under default_order of the positioned layout, the order the
    torsion search used."""
    (encoded,) = encode_vectors([v], pres.layout, pres.rank)
    N = Ideal(encoded.layout, pres.field, pres.encoded)
    _verify_flat_ideal_certificate(N, transport(r, encoded.layout), encoded, within, budget)


# ---------------------------------------------------------------------------
# public checks


def check_openness(problem: Problem, config: CheckConfig | None = None) -> Verdict:
    """Openness of Spec A -> Spec R: vertical irreducible components are
    sought in the fibred powers k = 1..n (n = number of base variables)."""
    config = config or CheckConfig()
    return _run_power_loop(problem, config, "open")


def check_flatness(problem: Problem, config: CheckConfig | None = None) -> Verdict:
    """R-flatness of F (F = A when no module is declared): R-torsion is sought
    in the tensor powers k = 1..n.  Over F_p the check requires an explicit
    acknowledgment flag."""
    config = config or CheckConfig()
    characteristic_guard(problem, config)
    return _run_power_loop(problem, config, "flat")


def characteristic_guard(problem: Problem, config: CheckConfig) -> None:
    """CharacteristicGuardError when flatness over F_p lacks the
    acknowledgment flag; a caller running several checks calls it first, so
    that a refused run computes nothing."""
    if not isinstance(problem.field, RationalField) and not config.allow_char_p_flatness:
        raise CharacteristicGuardError(
            "flatness over a prime field requires --allow-char-p-flatness"
        )
