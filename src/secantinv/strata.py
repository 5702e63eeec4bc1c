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

A single Euclidean-algorithm coordinate change on the torus factors turns
the monomial into z^d with d = gcd(P); `torus_normal_form` returns the
unimodular exponent matrix realizing that change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
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

    Repeated Euclidean steps on adjacent nonzero exponents (always reducing
    the larger against the smaller, sweeping left to right to a fixpoint)
    leave a single exponent equal to d = gcd; a final transposition brings
    it to the first coordinate.  The accumulated matrix M is unimodular and
    satisfies M @ (d, 0, ..., 0) = exponents.
    """
    exps = list(exponents)
    if not exps:
        raise ValueError("exponent list must be nonempty")
    if any(e < 1 for e in exps):
        raise ValueError("exponents must be positive")
    size = len(exps)
    d = reduce(math.gcd, exps)
    # U columns track the inverse of the elementary steps applied so far,
    # keeping the invariant U @ exps == original.
    u = [[1 if i == j else 0 for j in range(size)] for i in range(size)]

    def nonzero_positions() -> List[int]:
        return [i for i, e in enumerate(exps) if e != 0]

    while True:
        pos = nonzero_positions()
        if len(pos) <= 1:
            break
        # Every sweep reduces its first pair, which is nonzero, so the sum
        # of the exponents falls and the loop ends.
        for a, b in zip(pos, pos[1:]):
            if exps[a] == 0 or exps[b] == 0:
                continue
            if exps[a] >= exps[b]:
                q, keep, dropped = exps[a] // exps[b], b, a
            else:
                q, keep, dropped = exps[b] // exps[a], a, b
            exps[dropped] -= q * exps[keep]
            for row in u:
                row[keep] += q * row[dropped]
    pos = nonzero_positions()
    target = pos[0]
    if target != 0:
        exps[0], exps[target] = exps[target], exps[0]
        for row in u:
            row[0], row[target] = row[target], row[0]
    if exps[0] != d or any(exps[1:]):
        raise RuntimeError(f"Euclidean reduction of {list(exponents)} stopped at {exps}")
    return UnimodularChange(tuple(tuple(row) for row in u), d)
