"""Composition-indexed stratification of the affine space of Hankel
matrices, and the torus normal form of the determinant on each stratum.

The (n+1) x (n+1) generic Hankel determinant f lives on C^(2n+1).  Each
composition P = (p_1, ..., p_l) of n+1 indexes a locally closed stratum Y_P
isomorphic to (C*)^l x C^n on which f becomes the monomial

    f|_{Y_P} = y_{q_1}^{p_1} * ... * y_{q_l}^{p_l},

where the anchor indices q_i are fixed deterministically by iterating the
Hankel block reduction: the i-th block occupies rows [s_i, s_i + p_i) of the
matrix (s_i = p_1 + ... + p_{i-1}) and its nonzero antidiagonal sits at
coordinate index q_i = 2*s_i + p_i - 1.  Each stratum has a companion piece
Y_{P,0} on which f vanishes identically; the union of the companion pieces
is the cone over the top secant variety.  Descriptors only record this as
metadata, no scheme-theoretic data is stored.

A unimodular coordinate change on the torus factors turns the monomial
into z^d with d = gcd(P); `torus_normal_form` builds its exponent matrix,
of determinant 1, in one extended-Euclid step per exponent after the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .compositions import composition_parts


@dataclass(frozen=True)
class StratumDescriptor:
    """One torus stratum, stored as its composition's parts and n; the rest is derived.

    ``monomial`` lists (coordinate index, exponent) pairs of the restricted
    determinant; len(exponent_vector) + ``affine_rank`` is the stratum dimension.
    """

    # Declared here: with slots=True, Python 3.11 raises TypeError, not
    # FrozenInstanceError, when a property is assigned.
    __slots__ = ("exponent_vector", "affine_rank")
    exponent_vector: Tuple[int, ...]
    affine_rank: int

    def __reduce__(self):
        # copy and pickle go through __init__: a frozen instance rejects setattr.
        return StratumDescriptor, (self.exponent_vector, self.affine_rank)

    @property
    def gcd(self) -> int:
        return math.gcd(*self.exponent_vector)

    @property
    def monomial(self) -> Tuple[Tuple[int, int], ...]:
        return _stratum_monomial(self.exponent_vector)


@dataclass(frozen=True)
class UnimodularChange:
    """Integer coordinate change on a torus, with the resulting exponent.

    ``matrix`` M satisfies det M = +-1 and M @ (d, 0, ..., 0) equals the
    original exponent vector: pulling the single-variable monomial z^d back
    through the change reproduces the original monomial.
    """

    matrix: Tuple[Tuple[int, ...], ...]
    exponent: int

    def pullback_exponents(self) -> Tuple[int, ...]:
        """Exponent vector of the pullback of z^d (z = first new coordinate)."""
        return tuple(row[0] * self.exponent for row in self.matrix)


def _stratum_monomial(parts: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """((q_i, p_i), ...): block i has size p_i and anchor coordinate index
    q_i = 2*s_i + p_i - 1, with s_i = p_1 + ... + p_{i-1}."""
    out: List[Tuple[int, int]] = []
    start = 0
    for p in parts:
        out.append((2 * start + p - 1, p))
        start += p
    return tuple(out)


def stratify(n: int) -> List[StratumDescriptor]:
    """One descriptor per composition of n+1, in enumeration order.

    On each stratum the determinant is the recorded monomial and is
    nonvanishing; it vanishes identically on the companion piece Y_{P,0},
    and the union of those companions is the determinantal hypersurface cone.
    """
    if n < 0:
        raise ValueError(f"defined for n >= 0, got {n}")
    return [StratumDescriptor(parts, n) for parts in composition_parts(n + 1)]


def torus_normal_form(exponents: Sequence[int]) -> UnimodularChange:
    """Unimodular torus coordinate change turning a monomial into z^d.

    One extended-Euclid step per coordinate i >= 1: with g the gcd of the
    exponents before i, h = gcd(g, e_i), a = g/h, b = e_i/h and
    s*a + t*b = 1 (s = a^-1 mod b, 0 when b = 1), the determinant-1
    column operation [[a, -t], [b, s]] on columns 0 and i makes column 0
    the exponents up to i divided by h.  Column i is zero below row i, so
    only rows 0..i change.  The product M has det M = 1 and
    M @ (d, 0, ..., 0) = exponents, with d the gcd of all of them.
    """
    exps = list(exponents)
    if not exps:
        raise ValueError("exponent list must be nonempty")
    if any(e < 1 for e in exps):
        raise ValueError("exponents must be positive")
    size = len(exps)
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    g = exps[0]
    for i in range(1, size):
        h = math.gcd(g, exps[i])
        a, b = g // h, exps[i] // h
        s = pow(a, -1, b)
        t = (1 - s * a) // b
        for row in u[: i + 1]:
            row[0], row[i] = a * row[0] + b * row[i], s * row[i] - t * row[0]
        g = h
    if any(row[0] * g != e for row, e in zip(u, exps)):
        column = [row[0] for row in u]
        raise RuntimeError(f"Euclidean reduction of {exps} left first column {column}")
    return UnimodularChange(tuple(tuple(row) for row in u), g)
