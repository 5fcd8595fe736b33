"""Coefficient fields: primality of the modulus."""

import pytest

from fibrecheck import PrimeField
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
