"""Ordered-partition (composition) combinatorics.

A composition of n is a tuple of positive integers summing to n.  The
compositions of n are in bijection with subsets of {1, ..., n-1} (the "cut
positions"); enumeration reads those subsets in increasing binary order,
which fixes a deterministic composition order used everywhere downstream.

Counting functions:

* g(n)      -- number of compositions of n with gcd 1,
               g(n) = sum_{d|n} mu(n/d) * 2^(d-1).
* g_l(n)    -- same restricted to length l,
               g_l(n) = sum_{d|n} mu(n/d) * C(d-1, l-1).

Both identities invert sum_{d|n} g(d) = 2^(n-1) (and its length-refined
analogue) by Moebius inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive integers."""

    # Declared here: with slots=True, Python 3.11 raises TypeError, not
    # FrozenInstanceError, when a property is assigned.
    __slots__ = ("parts",)
    parts: Tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a composition has at least one part")
        if any(p < 1 for p in self.parts):
            raise ValueError("composition parts must be positive")

    def __reduce__(self):
        # copy and pickle go through __init__: a frozen instance rejects setattr.
        return Composition, (self.parts,)


def composition_parts(n: int) -> List[Tuple[int, ...]]:
    """The parts of the 2^(n-1) compositions of n, in cut-mask order.

    Bit j of a cut mask (j = 0 .. n-2) marks a cut after position j+1, so
    the mask 0 gives (n) and the all-ones mask gives (1, ..., 1).  The masks
    of n without bit n-2 are those of n-1 with the last part grown by one;
    the masks with it are those of n-1 with a part 1 appended.  Doubling
    the list of n-1 that way therefore keeps increasing mask order.
    """
    if n < 1:
        raise ValueError(f"compositions are defined for n >= 1, got {n}")
    parts: List[Tuple[int, ...]] = [(1,)]
    for _ in range(n - 1):
        parts = [c[:-1] + (c[-1] + 1,) for c in parts] + [c + (1,) for c in parts]
    return parts


def enumerate_compositions(n: int) -> List[Composition]:
    """The 2^(n-1) compositions of n in subset-binary (cut-mask) order; see
    :func:`composition_parts` for the doubling rule behind it."""
    return list(map(Composition, composition_parts(n)))


def _prime_factors(n: int) -> List[Tuple[int, int]]:
    """The (prime, exponent) pairs of n >= 1, primes ascending, by trial division."""
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def mobius(n: int) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)^(number of primes)."""
    if n < 1:
        raise ValueError(f"mobius is defined for n >= 1, got {n}")
    factors = _prime_factors(n)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


def euler_phi(n: int) -> int:
    """Euler totient: the product of (p - 1) * p^(e-1) over n's prime powers."""
    if n < 1:
        raise ValueError(f"euler_phi is defined for n >= 1, got {n}")
    return math.prod((p - 1) * p ** (e - 1) for p, e in _prime_factors(n))


def divisors(n: int) -> List[int]:
    """Positive divisors of n in increasing order."""
    if n < 1:
        raise ValueError(f"divisors are defined for n >= 1, got {n}")
    divs = [1]
    for p, e in _prime_factors(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def count_coprime(n: int) -> int:
    """g(n): compositions of n with gcd 1, via the Moebius closed form."""
    if n < 1:
        raise ValueError(f"count_coprime is defined for n >= 1, got {n}")
    return sum(mobius(n // d) * (1 << (d - 1)) for d in divisors(n))


def count_coprime_by_length(n: int, length: int) -> int:
    """g_l(n): length-l compositions of n with gcd 1, via Moebius inversion."""
    if n < 1:
        raise ValueError(f"count_coprime_by_length is defined for n >= 1, got {n}")
    if not 1 <= length <= n:
        raise ValueError(f"length must satisfy 1 <= length <= {n}, got {length}")
    return sum(
        mobius(n // d) * math.comb(d - 1, length - 1) for d in divisors(n)
    )
