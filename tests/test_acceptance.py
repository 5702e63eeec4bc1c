"""Acceptance suite: every top-level correctness criterion, exact tolerances.

Each test prints one `[criterion N] PASS/FAIL` line (visible with -s or in
captured output).  All comparisons are exact integer/rational identities;
there are no floating-point tolerances anywhere.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce

from secantinv.cohomtables import (
    ih_betti,
    monodromy_eigentable,
    nearby_vanishing_decomposition,
    sym_power_betti,
)
from secantinv.compositions import (
    count_coprime,
    count_coprime_by_length,
    enumerate_compositions,
)
from secantinv.drk import (
    ExtForm,
    GradedClass,
    d_f,
    hankel_determinant_poly,
    homogeneous_class,
    n2_eigenvectors,
    truncated_drk_dims,
    univariate_drk_cohomology,
)
from secantinv.exactalg import MultiPoly
from secantinv.hankel import (
    block_reduce,
    factorization_identity_at_point,
    verify_block_reduction,
)
from secantinv.hodge import milnor_betti, milnor_hodge_bruteforce, milnor_hodge_closed
from secantinv.linalg import det
from secantinv.strata import torus_normal_form
from tests.references import origin_eigenvalues, proportionality, random_locus_point


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {number}] PASS - {description} ({elapsed:.1f}s)")


def test_criterion_1_composition_combinatorics():
    with criterion(1, "composition counts and Moebius closed forms, n <= 14"):
        start = time.monotonic()
        for n in range(1, 15):
            comps = enumerate_compositions(n)
            assert len(comps) == 2 ** (n - 1)
            assert all(sum(c.parts) == n for c in comps)
            coprime = [c for c in comps if math.gcd(*c.parts) == 1]
            assert count_coprime(n) == len(coprime)
            for length in range(1, n + 1):
                brute = sum(1 for c in coprime if len(c.parts) == length)
                assert count_coprime_by_length(n, length) == brute
        assert time.monotonic() - start < 5.0


def test_criterion_2_hodge_polynomial_identity():
    with criterion(2, "brute-force stratum sum equals totient closed form, n <= 16"):
        start = time.monotonic()
        for n in range(1, 17):
            closed = milnor_hodge_closed(n)
            assert milnor_hodge_bruteforce(n) == closed
            assert closed.eval([1]) == n + 1
        assert time.monotonic() - start < 30.0


def test_criterion_3_block_reduction():
    with criterion(3, "symbolic block checks (n <= 4) and 100-point factorizations (n <= 8)"):
        start = time.monotonic()
        for n in range(1, 5):
            for k in range(n):
                report = verify_block_reduction(block_reduce(n, k))
                assert report.all_ok, report.failing_cases()
                assert len(report.checks) == 4
        rng = random.Random(2024)
        for n in range(1, 9):
            for k in range(n):
                for _ in range(100):
                    point = random_locus_point(n, k, rng)
                    assert factorization_identity_at_point(n, k, point)
        assert time.monotonic() - start < 60.0


def test_criterion_4_milnor_betti_tables():
    with criterion(4, "Milnor Betti tables at n = 2, 3, 5 and the totient formula"):
        assert milnor_betti(2).dims == (1, 0, 2)
        assert milnor_betti(3).dims == (1, 0, 1, 2)
        assert milnor_betti(5).dims == (1, 0, 0, 1, 2, 2)
        for n in range(1, 13):
            table = milnor_betti(n)
            for d in range(1, n + 2):
                if (n + 1) % d == 0:
                    phi = sum(
                        1 for a in range(1, (n + 1) // d + 1)
                        if math.gcd(a, (n + 1) // d) == 1
                    )
                    assert table.dim(n + 1 - d) == phi


def test_criterion_5_eigenvector_pipeline():
    with criterion(5, "explicit eigenvectors proportional to the expected top forms"):
        f = hankel_determinant_poly(2)
        alpha1, alpha2 = n2_eigenvectors()
        expected1 = ExtForm(
            5, 5, {(0, 1, 2, 3, 4): MultiPoly.from_str(5, "2*x1*x3 - 2*x2^2")}
        )
        expected2 = ExtForm(
            5, 5, {(0, 1, 2, 3, 4): MultiPoly.from_str(5, "2*x1*x2*x3 - 2*x2^3")}
        )
        scale1 = proportionality(alpha1, expected1)
        scale2 = proportionality(alpha2, expected2)
        assert scale1 is not None and scale1 != 0
        assert scale2 is not None and scale2 != 0
        assert d_f(f, alpha1).is_zero() and d_f(f, alpha2).is_zero()
        assert homogeneous_class(alpha1, 3) == GradedClass(1, 3)
        assert homogeneous_class(alpha2, 3) == GradedClass(2, 3)


def test_criterion_6_univariate_twisted_cohomology():
    with criterion(6, "univariate cohomology dimensions m (m+1 with log), m <= 10"):
        for m in range(1, 11):
            # The construction itself checks its basis by one truncated
            # elimination and raises on mismatch.
            assert len(univariate_drk_cohomology(m, log=False)) == m
            assert len(univariate_drk_cohomology(m, log=True)) == m + 1
        for m in range(1, 6):
            g = MultiPoly.variable(1, 0) ** (m + 1)
            for a in range(m + 1):
                result = truncated_drk_dims(g, m + 1, a, 3 * (m + 1))
                assert result.stabilized
                assert dict(result.dims)[1] == (1 if a != 0 else 0)
                assert dict(result.dims)[0] == 0


def test_criterion_7_ih_tables():
    with criterion(7, "intersection-cohomology tables: genus 0, duality, low degrees"):
        for k in range(1, 9):
            table = ih_betti(0, k)
            assert table.dims == tuple(
                1 if j % 2 == 0 else 0 for j in range(4 * k - 1)
            )
        for g in range(0, 5):
            for k in range(1, 7):
                table = ih_betti(g, k)
                assert table.is_palindromic()
                for j in range(0, k + 1):
                    assert table.dim(j) == sym_power_betti(g, k, j)


def test_criterion_8_eigenvalue_decomposition_consistency():
    with criterion(8, "eigenvalue tables vs Betti tables vs cycle decomposition, n <= 12"):
        for n in range(1, 13):
            betti = milnor_betti(n)
            counts = {}
            for _, degree, mult in monodromy_eigentable(n):
                counts[degree] = counts.get(degree, 0) + mult
            assert counts == {
                j: dim for j, dim in enumerate(betti.dims) if dim
            }
            restricted = sorted(
                ((lam.p, lam.q), deg) for lam, deg in origin_eigenvalues(n)
            )
            table = sorted(
                ((lam.p, lam.q), deg) for lam, deg, _ in monodromy_eigentable(n)
            )
            assert restricted == table
            got = {
                (s.eigenvalue.p, s.eigenvalue.q)
                for s in nearby_vanishing_decomposition(n)
            }
            expected = {
                (p, q)
                for q in range(1, n + 2)
                for p in range(q)
                if math.gcd(p, q) == 1 and (p != 0 or q == 1)
            }
            assert got == expected


def test_criterion_9_property_suites():
    with criterion(9, "property suites: D_f^2, unimodular normal forms, ring axioms"):
        rng = random.Random(9001)

        def random_homogeneous(nvars, degree):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                expo = [0] * nvars
                for _ in range(degree):
                    expo[rng.randrange(nvars)] += 1
                terms[tuple(expo)] = Fraction(rng.randint(-5, 5))
            poly = MultiPoly(nvars, terms)
            return (
                poly
                if not poly.is_zero()
                else MultiPoly.variable(nvars, 0) ** degree
            )

        def random_form(nvars, degree):
            terms = {}
            pool = list(range(nvars))
            for _ in range(rng.randint(1, 3)):
                rng.shuffle(pool)
                idx = tuple(sorted(pool[:degree]))
                expo = tuple(rng.randint(0, 2) for _ in range(nvars))
                coeff = MultiPoly(nvars, {expo: Fraction(rng.randint(-4, 4))})
                terms[idx] = terms.get(idx, MultiPoly.zero(nvars)) + coeff
            return ExtForm(nvars, degree, terms)

        for _ in range(200):
            nvars = rng.randint(2, 5)
            f = random_homogeneous(nvars, rng.randint(1, 3))
            form = random_form(nvars, rng.randint(0, nvars - 1))
            assert d_f(f, d_f(f, form)).is_zero()

        for _ in range(500):
            length = rng.randint(1, 6)
            exps = [rng.randint(1, 50) for _ in range(length)]
            change = torus_normal_form(exps)
            assert det(change.matrix) in (-1, 1)
            assert change.exponent == reduce(math.gcd, exps)
            assert change.pullback_exponents() == tuple(exps)

        def random_poly(nvars):
            terms = {}
            for _ in range(rng.randint(0, 3)):
                expo = tuple(rng.randint(0, 2) for _ in range(nvars))
                terms[expo] = Fraction(
                    rng.randint(-9, 9), rng.randint(1, 5)
                )
            return MultiPoly(nvars, terms)

        for _ in range(500):
            a, b, c = random_poly(2), random_poly(2), random_poly(2)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
