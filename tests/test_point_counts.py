"""Point counts over F_p as an oracle that shares no code with the pipelines.

For a polynomial-count variety the number of F_p-points is its
E-polynomial at q = p (Katz, appendix to Hausel and Rodriguez-Villegas,
Invent. Math. 174, 2008).  The counts below run over every point by brute
force, with their own elimination mod p.
"""

import itertools

import pytest

from secantinv.cohomtables import ih_betti
from secantinv.hodge import milnor_hodge_closed
from secantinv.strata import stratify


def rank_and_det(rows, p):
    """Rank and determinant mod p of a square integer matrix, by Gaussian
    elimination over F_p."""
    m = [[a % p for a in row] for row in rows]
    size, rank, det = len(m), 0, 1
    for c in range(size):
        pivot = next((r for r in range(rank, size) if m[r][c]), None)
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det = det * m[rank][c] % p
        inv = pow(m[rank][c], -1, p)
        for r in range(rank + 1, size):
            if m[r][c]:
                f = m[r][c] * inv % p
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank, det % p


def hankel_rows(x):
    """The Hankel matrix (x_(i+j)) of an odd-length coordinate tuple."""
    n = len(x) // 2
    return [x[i : i + n + 1] for i in range(n + 1)]


def milnor_fiber_count(n, p):
    """#{det H_n = 1}(F_p).  det H_n = c * x_(2n) + r with c = det H_(n-1)
    and r free of x_(2n): where c != 0 one x_(2n) solves it, and where
    c = 0 either every x_(2n) does (r = 1) or none, so only x_0..x_(2n-1)
    are enumerated."""
    total = 0
    for x in itertools.product(range(p), repeat=2 * n):
        if rank_and_det(hankel_rows(x[:-1]), p)[1]:
            total += 1
        elif rank_and_det(hankel_rows(x + (0,)), p)[1] == 1:
            total += p
    return total


def signed_stratum_sum(n, p):
    """The sum over the strata of stratify(n) of #{z in F_p^*: z^g = eps}
    * p^n * (p - 1)^(l - 1), for the composition's gcd g, length l and sign
    eps, the product of (-1)^(a(a-1)/2) over its parts a."""
    total = 0
    for desc in stratify(n):
        parts = desc.exponent_vector
        eps = (-1) ** sum(a * (a - 1) // 2 for a in parts) % p
        roots = sum(1 for z in range(1, p) if pow(z, desc.gcd, p) == eps)
        total += roots * p**n * (p - 1) ** (len(parts) - 1)
    return total


@pytest.mark.parametrize(
    "n, p, count", [(1, 5, 30), (1, 13, 182), (2, 7, 2499), (2, 13, 28899)]
)
def test_milnor_fiber_count_is_the_closed_hodge_polynomial_at_p(n, p, count):
    # p = 1 mod 2(n+1): +-1 are (n+1)-th powers in F_p, so z^g = +-1 has g
    # roots for each stratum gcd g | n+1, and the signed stratum sum is the
    # sign-blind Hodge polynomial at p.
    assert p % (2 * (n + 1)) == 1
    assert milnor_fiber_count(n, p) == count == milnor_hodge_closed(n).eval([p])


@pytest.mark.parametrize(
    "n, p", [(n, p) for n in (1, 2) for p in (2, 3, 5, 7)] + [(3, 3)]
)
def test_milnor_fiber_count_is_the_signed_stratum_sum(n, p):
    assert milnor_fiber_count(n, p) == signed_stratum_sum(n, p)


@pytest.mark.parametrize("n, p", [(1, 3), (2, 3), (3, 3), (2, 5)])
def test_secant_variety_counts_are_the_intersection_betti_numbers_at_p(n, p):
    # The points of P^(2n)(F_p) where rank H_n <= k, for each k = 1..n, are
    # the points of the k-th secant variety of the rational normal curve.
    ranks = [
        rank_and_det(hankel_rows(x), p)[0]
        for x in itertools.product(range(p), repeat=2 * n + 1)
        if any(x)
    ]
    for k in range(1, n + 1):
        dims = ih_betti(0, k).dims
        assert not any(dims[1::2])
        expected = sum(d * p ** (j // 2) for j, d in enumerate(dims))
        assert sum(1 for r in ranks if r <= k) == expected * (p - 1), k
