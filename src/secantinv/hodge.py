"""Hodge-polynomial calculus and Milnor-fiber Betti tables.

Every Hodge polynomial in scope depends only on the product uv, so the
polynomials are one-variable ``MultiPoly`` values in t = uv = x0, with
integer coefficients.

For the Hankel determinant f of the (n+1) x (n+1) generic Hankel matrix,
the global Milnor fiber {f = 1} has Hodge polynomial

    t^(n-1) * sum_{d | n+1} phi((n+1)/d) * t^d,

computable either from this closed form or as a brute-force sum of
gcd(P) * t^n * (t-1)^(|P|-1) over all compositions P of n+1 (one summand
per torus stratum of the ambient affine space).  The Betti table reads the
totient multiplicities off the Hodge coefficients: the cohomology is pure
and of Hodge-Tate type, so no extra cancellation can occur.

Index convention: the Betti table is indexed by the Hodge level j.  The
term phi((n+1)/d) * t^(n-1+d) lies in H_c^(2(n-1+d)) of the smooth affine
2n-fold {f = 1}, which Poincare duality moves to H^(2j) with j = n+1-d, of
type (j, j).  So index j is cohomological degree 2j, and the twisted
complex of ``drk`` shows the class (j > 0) in form degree 2j + 1.  For
n = 1, f = x0*x2 - x1^2 is an A1 singularity whose Milnor fiber is
homotopic to S^2: the eigenvalue -1 sits at index 1, in H^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Tuple

from .compositions import composition_parts, divisors, euler_phi
from .exactalg import MultiPoly


def _t_poly(coeffs: Mapping[int, int]) -> MultiPoly:
    """The Hodge polynomial sum c * t^d in t = x0, from its {d: c} map."""
    return MultiPoly(1, {(d,): c for d, c in coeffs.items()})


@dataclass(frozen=True)
class BettiTable:
    """Dimensions per index, with optional annotations.

    ``dims[j]`` is the dimension at index j: the cohomological degree, or
    for the Milnor fiber the Hodge level (see :func:`milnor_betti`).
    ``weights`` and ``eigenvalues`` optionally annotate individual indices;
    they carry no dimension information of their own.
    """

    dims: Tuple[int, ...]
    weights: Tuple[Tuple[int, int], ...] = field(default=())
    eigenvalues: Tuple[Tuple[int, Tuple[str, ...]], ...] = field(default=())

    def __post_init__(self):
        if any(d < 0 for d in self.dims):
            raise ValueError("Betti numbers are nonnegative")

    def dim(self, j: int) -> int:
        return self.dims[j] if 0 <= j < len(self.dims) else 0

    def is_palindromic(self) -> bool:
        return self.dims == self.dims[::-1]

    def to_obj(self) -> dict:
        obj: dict = {"degrees": list(self.dims)}
        if self.weights:
            obj["weights"] = {str(j): w for j, w in self.weights}
        if self.eigenvalues:
            obj["eigenvalues"] = {str(j): list(lams) for j, lams in self.eigenvalues}
        return obj


# -- Milnor fiber of the Hankel determinant -----------------------------------


def _weighted_strata_sum(n: int, weights: Sequence[int]) -> MultiPoly:
    """sum_l weights[l] * t^n * (t-1)^l."""
    term, torus = _t_poly({n: 1}), _t_poly({1: 1, 0: -1})
    total = MultiPoly.zero(1)
    for w in weights:
        if w:
            total = total + term.scale(w)
        term = term * torus
    return total


def milnor_hodge_bruteforce(n: int) -> MultiPoly:
    """Hodge polynomial of the Hankel Milnor fiber by direct stratum sum.

    Sums gcd(P) * t^n * (t-1)^(|P|-1) over all compositions P of n+1; each
    composition indexes one torus stratum meeting the fiber in gcd(P)
    parallel translates of a torus.  Every composition is visited, but only
    its gcd is added, into an integer weight for its length; the
    polynomials are scaled and summed once per length.
    """
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    weights = [0] * (n + 1)
    for parts in composition_parts(n + 1):
        weights[len(parts) - 1] += math.gcd(*parts)
    return _weighted_strata_sum(n, weights)


def milnor_hodge_closed(n: int) -> MultiPoly:
    """Closed totient form t^(n-1) * sum_{d | n+1} phi((n+1)/d) t^d: the
    quotient by the trivial subgroup, ``quotient_hodge(n, n + 1)``."""
    return quotient_hodge(n, n + 1)


def quotient_hodge(n: int, d: int) -> MultiPoly:
    """Hodge polynomial of the Milnor fiber quotient by the order-(n+1)/d
    subgroup of the scaling monodromy group.

    Equals t^(n-1) * sum over m with (n+1)/d | m | (n+1) of phi((n+1)/m) t^m:
    the quotient keeps exactly the coefficient range fixed by the subgroup.
    """
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    if d < 1 or (n + 1) % d != 0:
        raise ValueError(f"{d} does not divide {n + 1}")
    step = (n + 1) // d
    return _t_poly(
        {n - 1 + m: euler_phi((n + 1) // m) for m in divisors(n + 1) if m % step == 0}
    )


def gbundle_hodge(n: int, d: int) -> MultiPoly:
    """Hodge polynomial of the torus bundle {y^d f(x) = 1} over the quotient
    fiber: (t - 1) * quotient_hodge(n, d)."""
    return _t_poly({1: 1, 0: -1}) * quotient_hodge(n, d)


def milnor_betti(n: int) -> BettiTable:
    """Betti table of the Hankel Milnor fiber, indexed by Hodge level.

    Index j = n+1-d holds phi((n+1)/d) for each divisor d of n+1, zero
    elsewhere: dim H^(2j) = phi((n+1)/d), and every odd degree vanishes.
    The cohomology is pure of Hodge-Tate type, which is what justifies
    reading dimensions straight off Hodge coefficients.
    """
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    dims = [0] * (n + 1)
    for d in divisors(n + 1):
        dims[n + 1 - d] = euler_phi((n + 1) // d)
    return BettiTable(tuple(dims))
