"""Coefficient fields: primality of the modulus and the division-kernel
hooks."""

from fractions import Fraction

import pytest

from fibrecheck import QQ, PrimeField
from fibrecheck.fields import PRIME_LIMIT, is_prime


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [p for p in range(-3, 100_000) if is_prime(p)] == [
        p for p in range(-3, 100_000) if _trial_division(p)
    ]


# Strong pseudoprimes to the first 4, 9 and 12 prime bases, the least of each
# (Jaeschke 1993; Sorenson & Webster 2015), and large primes.
@pytest.mark.parametrize(
    "p,prime",
    [
        (3215031751, False),
        (3825123056546413051, False),
        (318665857834031151167461, False),
        (1000000000000000003, True),
        (2**61 - 1, True),
        (PRIME_LIMIT - 2, False),  # divisible by 3
    ],
)
def test_is_prime_on_strong_pseudoprimes_and_large_primes(p, prime):
    assert is_prime(p) is prime


def test_is_prime_refuses_the_limit():
    # PRIME_LIMIT is itself a strong pseudoprime to all 13 bases
    with pytest.raises(ValueError, match="decided only below"):
        is_prime(PRIME_LIMIT)
    with pytest.raises(ValueError):
        PrimeField(PRIME_LIMIT)


@pytest.mark.parametrize(
    "ints, primitive, scale",
    [
        ([3, -5, 7], [3, -5, 7], 1),  # content 1
        ([6, -10, 4], [3, -5, 2], Fraction(1, 2)),
        ([-6, 10, -4], [3, -5, 2], Fraction(-1, 2)),  # a negative lead: a negative content
        ([-1, 3], [1, -3], Fraction(-1)),
        ([12], [1], Fraction(1, 12)),
        ([], [], 1),
    ],
)
def test_rational_to_kernel_on_ints_equals_it_on_fractions(ints, primitive, scale):
    # Buchberger hands S-pair remainders over as ints, which take only the
    # content out; ints and scale must be those of the same values given as
    # Fractions: the scale is 1/content, not the content
    got = QQ.to_kernel(list(ints))
    assert got == QQ.to_kernel([Fraction(i) for i in ints]) == (primitive, scale)
    assert [type(i) for i in got[0]] == [int] * len(ints)
    assert type(got[1]) is type(scale)
    assert QQ.from_kernel(*got) == [Fraction(i) for i in ints]
