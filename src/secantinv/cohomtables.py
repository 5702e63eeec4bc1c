"""Cohomology tables: intersection-cohomology Betti numbers of secant
varieties for arbitrary genus, symmetric-product dimensions, the singular
cohomology of the second secant variety, monodromy eigenvalue tables for
the Hankel Milnor fiber, and the nearby/vanishing-cycle decomposition table.

All outputs are exact integer tables; roots of unity e^(2*pi*i*p/q) are
stored as reduced fraction pairs (p, q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .compositions import divisors
from .hodge import BettiTable, milnor_betti


@dataclass(frozen=True)
class RootOfUnity:
    """The root of unity e^(2*pi*i*p/q), with 0 <= p < q and gcd(p, q) = 1."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("denominator must be positive")
        if not 0 <= self.p < self.q:
            raise ValueError(f"numerator must satisfy 0 <= p < q, got {self.p}/{self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"{self.p}/{self.q} is not reduced")

    def label(self) -> str:
        if self.q == 1:
            return "1"
        if (self.p, self.q) == (1, 2):
            return "-1"
        return f"e(2*pi*i*{self.p}/{self.q})"

    def to_obj(self) -> dict:
        return {"p": self.p, "q": self.q}


def primitive_roots(q: int) -> List[RootOfUnity]:
    """The phi(q) primitive q-th roots of unity, numerators ascending."""
    if q < 1:
        raise ValueError("order must be positive")
    if q == 1:
        return [RootOfUnity(0, 1)]
    return [RootOfUnity(p, q) for p in range(1, q) if math.gcd(p, q) == 1]


@dataclass(frozen=True)
class NearbyCycleSummand:
    """One simple summand of the nearby-cycle decomposition.

    The support X_k is the cone over the k-th secant variety, with X_0 the
    origin by convention.  Every summand has weight 2n; only the eigenvalue-1
    summand is a (shifted) constant sheaf, everything else is the
    intersection complex of a rank-1 local system, and the vanishing-cycle
    part at eigenvalue 1 is zero.
    """

    eigenvalue: RootOfUnity
    support_index: int
    rank: int
    weight: int
    kind: str  # "constant_sheaf" or "IC_of_rank1_local_system"

    def __post_init__(self):
        if self.kind not in ("constant_sheaf", "IC_of_rank1_local_system"):
            raise ValueError(f"unknown summand kind {self.kind!r}")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.eigenvalue.q != 1 and self.rank != 1:
            raise ValueError("summands at eigenvalues != 1 have rank 1")

    def to_obj(self) -> dict:
        return {
            "eigenvalue": self.eigenvalue.to_obj(),
            "support_index": self.support_index,
            "support": f"X_{self.support_index}",
            "rank": self.rank,
            "weight": self.weight,
            "kind": self.kind,
        }


def _binomial_sum(h1: int, j: int, lo: int) -> int:
    """The sum of C(h1, j - 2c) over c from lo to floor(j/2)."""
    return sum(math.comb(h1, j - 2 * c) for c in range(lo, j // 2 + 1))


def ih_betti(g: int, k: int) -> BettiTable:
    """Intersection-cohomology Betti table of the k-th secant variety of a
    genus-g curve (embedded by a line bundle separating 2k points).

    For 0 <= j <= 2k-1 the dimension is the sum of C(2g, j-2c) over the
    tautological-class exponents c with 2c >= max(j-k, 0) and j-2c >= 0;
    degrees 2k .. 4k-2 follow by Poincare duality.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if k < 1:
        raise ValueError("secant index must be at least 1")
    low = [_binomial_sum(2 * g, j, (max(j - k, 0) + 1) // 2) for j in range(2 * k)]
    return BettiTable(tuple(low + low[-2::-1]))


def sym_power_betti(g: int, k: int, j: int) -> int:
    """dim H^j of the k-fold symmetric product C_k of a genus-g curve C.

    Macdonald's formula (Topology 1, 1962): the sum of C(2g, j-2c) over c
    from max(j-k, 0) to floor(j/2), valid in every degree; it is 0 outside
    0..2k.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if k < 1:
        raise ValueError("symmetric power must be at least 1")
    return _binomial_sum(2 * g, j, max(j - k, 0))


def sec2_singular_betti(g: int) -> BettiTable:
    """Singular cohomology of the second secant variety of a genus-g curve
    (line bundle separating 4 points), degrees 0..6.

    H^3 is the symmetric square of the curve's H^1 and is pure of weight 2;
    every other H^i is pure of weight i.  H^4, H^5, H^6 are H^2, H^3, H^4 of
    the symmetric square C_2 of the curve.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    h1 = 2 * g
    dims = (1, 0, 1, h1 * (h1 + 1) // 2) + tuple(
        sym_power_betti(g, 2, j - 2) for j in range(4, 7)
    )
    weights = tuple((j, 2 if j == 3 else j) for j in range(7))
    return BettiTable(dims, weights=weights)


def monodromy_eigentable(n: int) -> List[Tuple[RootOfUnity, int, int]]:
    """Monodromy eigenvalues on the Hankel Milnor fiber cohomology.

    For each divisor d of n+1 and each primitive (n+1)/d-th root of unity,
    one entry (eigenvalue, j = n+1-d, multiplicity 1).  The index j is the
    Hodge level, as in :func:`secantinv.hodge.milnor_betti`: the eigenvector
    lies in H^(2j), and for j > 0 it shows up in form degree 2j + 1 of the
    twisted complex, in class p*(n+1)/q for the eigenvalue e(2*pi*i*p/q).
    Entries are ordered by j, then by eigenvalue numerator.
    """
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    rows: List[Tuple[RootOfUnity, int, int]] = []
    for d in sorted(divisors(n + 1), reverse=True):
        degree = n + 1 - d
        for lam in primitive_roots((n + 1) // d):
            rows.append((lam, degree, 1))
    return rows


def eigentable_betti(n: int) -> BettiTable:
    """Milnor Betti table with per-degree eigenvalue annotations."""
    base = milnor_betti(n)
    by_degree: dict[int, List[str]] = {}
    for lam, degree, _ in monodromy_eigentable(n):
        by_degree.setdefault(degree, []).append(lam.label())
    eigen = tuple(sorted((j, tuple(lams)) for j, lams in by_degree.items()))
    return BettiTable(base.dims, eigenvalues=eigen)


def nearby_vanishing_decomposition(n: int) -> List[NearbyCycleSummand]:
    """Simple-summand table of the nearby cycles of the Hankel determinant.

    One constant-sheaf summand at eigenvalue 1 supported on the full
    hypersurface cone X_n (its vanishing-cycle part is zero), and for each
    q in 2..n+1 and each primitive q-th root one rank-1 intersection-complex
    summand supported on X_{n-q+1}.  All summands have weight 2n.
    """
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    out = [
        NearbyCycleSummand(
            eigenvalue=RootOfUnity(0, 1),
            support_index=n,
            rank=1,
            weight=2 * n,
            kind="constant_sheaf",
        )
    ]
    for q in range(2, n + 2):
        for lam in primitive_roots(q):
            out.append(
                NearbyCycleSummand(
                    eigenvalue=lam,
                    support_index=n - q + 1,
                    rank=1,
                    weight=2 * n,
                    kind="IC_of_rank1_local_system",
                )
            )
    return out
