"""Test-side references shared by several test modules.

The library has no use for these: they build test inputs or restate a
result a second way, so they live with the tests.
"""

import random
from fractions import Fraction
from typing import List, Optional, Tuple

from secantinv.cohomtables import RootOfUnity, nearby_vanishing_decomposition
from secantinv.drk import ExtForm


def proportionality(a: ExtForm, b: ExtForm) -> Optional[Fraction]:
    """The scalar c with a = c * b, or None if the forms are not proportional.

    Both forms must be nonzero; proportionality is the equality notion for
    connecting-map outputs, which are defined up to convention.
    """
    if a.is_zero() or b.is_zero():
        return None
    if set(a.terms) != set(b.terms) or a.log_var != b.log_var:
        return None
    idx = next(iter(a.terms))
    mine, theirs = a.terms[idx].packed, b.terms[idx].packed
    lead = max(theirs)
    if lead not in mine:
        return None
    c = Fraction(mine[lead], theirs[lead])
    scaled = ExtForm(b.nvars, b.degree, {i: q.scale(c) for i, q in b.terms.items()}, b.log_var)
    return c if a == scaled else None


def origin_eigenvalues(n: int) -> List[Tuple[RootOfUnity, int]]:
    """Restriction of the nearby-cycle table to the origin.

    Keeps the summands whose eigenvalue order divides n+1 (the others have
    zero stalk at the origin) and assigns each the Milnor-fiber degree
    n+1-(n+1)/q; the result reproduces the monodromy eigentable.
    """
    out: List[Tuple[RootOfUnity, int]] = []
    for summand in nearby_vanishing_decomposition(n):
        q = summand.eigenvalue.q
        if (n + 1) % q == 0:
            out.append((summand.eigenvalue, n + 1 - (n + 1) // q))
    return out


def random_locus_point(n: int, k: int, rng: random.Random) -> List[Fraction]:
    """A random rational point on the locus: x_j = 0 for j < k, x_k != 0.

    Coordinates are drawn with numerator and denominator bounded by 20 in
    absolute value; small heights keep the exact arithmetic fast.
    """
    point = [Fraction(0)] * (2 * n + 1)
    for j in range(k, 2 * n + 1):
        while True:
            value = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            if j != k or value != 0:
                break
        point[j] = value
    return point
