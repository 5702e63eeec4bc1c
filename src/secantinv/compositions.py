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


def mobius(n: int) -> int:
    """Moebius function, by trial-division factorization."""
    if n < 1:
        raise ValueError(f"mobius is defined for n >= 1, got {n}")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def euler_phi(n: int) -> int:
    """Euler totient, by trial-division factorization."""
    if n < 1:
        raise ValueError(f"euler_phi is defined for n >= 1, got {n}")
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> List[int]:
    """Positive divisors of n in increasing order."""
    if n < 1:
        raise ValueError(f"divisors are defined for n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


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
