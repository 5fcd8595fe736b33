"""Exact coefficient fields: arbitrary-precision rationals and prime fields F_p.

Coefficients are canonical values: a ``fractions.Fraction`` over Q and an
``int`` in [0, p) over F_p.  Polynomials and the Groebner engine's division
kernel alike combine them with Python operators and bring each result to
canonical form with ``canon``; a canonical value is zero exactly when it is
falsy.  Besides ``name``, ``characteristic``, ``zero``, ``one``, ``coerce``
(an int or Fraction to its canonical value) and ``inv``, a field has the
hooks the division kernel uses, which carries coefficients as ints:

- ``canon(c)``: the canonical form of a sum or product of canonical values or
  kernel ints: c itself over Q and c mod p over F_p, where sums grow
  unreduced;
- ``to_kernel(coeffs)``: ints i and a scale s with c = i/s, the ints primitive
  over Q (no common factor, the first positive) and monic over F_p; given
  ints, such as a remainder joining a basis, it removes their content;
- ``from_kernel(ints, s)``: the values i/s;
- ``step(c, lc)``: scalars (a, b) with a*c + b*lc = 0, fraction-free over Q,
  (lc/d, -c/d) with d = gcd(c, lc), and (1, -c/lc) over F_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


# Miller-Rabin with the first 13 primes as bases is deterministic below
# PRIME_LIMIT (Sorenson & Webster 2015, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86).  PRIME_LIMIT itself is a strong pseudoprime to all
# 13 bases, so no larger modulus can be decided this way.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Exact primality of p < PRIME_LIMIT; ValueError at or above it."""
    if p >= PRIME_LIMIT:
        raise ValueError(f"primality of {p} is decided only below {PRIME_LIMIT}")
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _same(value):
    """Q's ``canon``: the value itself (``operator.pos`` would copy a Fraction)."""
    return value


@dataclass(frozen=True)
class RationalField:
    """The field of exact rationals (characteristic 0)."""

    name = "Q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / a

    # division kernel hooks (see the module docstring)

    canon = staticmethod(_same)

    def to_kernel(self, coeffs):
        if coeffs and type(coeffs[0]) is int and all(type(c) is int for c in coeffs):
            ints, den = coeffs, 1  # kernel ints: only the content to take out
        else:
            ratios = [c.as_integer_ratio() for c in coeffs]
            den = lcm(*[d for _, d in ratios])
            ints = [n * (den // d) for n, d in ratios]
        content = -gcd(*ints) if ints and ints[0] < 0 else gcd(*ints) or 1
        if content == 1:
            return ints, den
        return [i // content for i in ints], Fraction(den, content)

    def from_kernel(self, ints, scale):
        num, den = scale.as_integer_ratio()
        if num == 1:  # no gcd to take
            return [Fraction(i * den) for i in ints]
        return [Fraction(i * den, num) for i in ints]

    def step(self, c, lc):
        d = gcd(c, lc)
        return lc // d, -(c // d)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p; elements are ints reduced into [0, p)."""

    p: int
    zero = 0
    one = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def name(self) -> str:
        return f"F{self.p}"

    @property
    def characteristic(self) -> int:
        return self.p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return value.numerator * self.inv(value.denominator) % self.p
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    # division kernel hooks (see the module docstring)

    @property
    def canon(self):
        return self.p.__rmod__

    def to_kernel(self, coeffs):
        if not coeffs or coeffs[0] == 1:
            return coeffs, 1
        inv, p = self.inv(coeffs[0]), self.p
        return [c * inv % p for c in coeffs], inv

    def from_kernel(self, ints, scale):
        inv, p = self.inv(scale), self.p
        return [i * inv % p for i in ints]

    def step(self, c, lc):
        return 1, (-c if lc == 1 else -c * self.inv(lc) % self.p)
