"""Intersection cohomology, symmetric products, eigenvalue and cycle tables."""

import math

import pytest

from secantinv.cohomtables import (
    NearbyCycleSummand,
    RootOfUnity,
    SymmetricPowerRangeError,
    eigentable_betti,
    ih_betti,
    monodromy_eigentable,
    nearby_vanishing_decomposition,
    origin_eigenvalues,
    primitive_roots,
    sec2_singular_betti,
    sym_power_betti,
)
from secantinv.compositions import euler_phi
from secantinv.hodge import milnor_betti


class TestRootOfUnity:
    def test_validation(self):
        with pytest.raises(ValueError):
            RootOfUnity(2, 4)
        with pytest.raises(ValueError):
            RootOfUnity(3, 3)
        with pytest.raises(ValueError):
            RootOfUnity(-1, 3)

    def test_labels(self):
        assert RootOfUnity(0, 1).label() == "1"
        assert RootOfUnity(1, 2).label() == "-1"
        assert RootOfUnity(1, 3).label() == "e(2*pi*i*1/3)"

    def test_primitive_roots_count(self):
        for q in range(1, 20):
            assert len(primitive_roots(q)) == euler_phi(q)


class TestIhBetti:
    def test_genus_zero_is_one_in_even_degrees(self):
        for k in range(1, 9):
            table = ih_betti(0, k)
            assert len(table.dims) == 4 * k - 1
            for j, dim in enumerate(table.dims):
                assert dim == (1 if j % 2 == 0 else 0)

    def test_genus_one_k2(self):
        assert ih_betti(1, 2).dims == (1, 2, 2, 2, 2, 2, 1)

    def test_k1_is_the_curve(self):
        assert ih_betti(2, 1).dims == (1, 4, 1)

    def test_palindromic_for_small_parameters(self):
        for g in range(0, 5):
            for k in range(1, 7):
                assert ih_betti(g, k).is_palindromic()

    def test_low_degree_specializations(self):
        for g in range(0, 5):
            for k in range(2, 7):
                table = ih_betti(g, k)
                assert table.dim(0) == 1
                assert table.dim(1) == 2 * g

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ih_betti(-1, 2)
        with pytest.raises(ValueError):
            ih_betti(1, 0)


class TestSymPowerBetti:
    def test_degree_zero(self):
        for g in range(0, 4):
            for k in range(1, 5):
                assert sym_power_betti(g, k, 0) == 1

    def test_example(self):
        assert sym_power_betti(1, 3, 2) == math.comb(2, 2) + math.comb(2, 0)

    def test_matches_ih_in_low_degrees(self):
        for g in range(0, 5):
            for k in range(1, 7):
                table = ih_betti(g, k)
                for j in range(0, k + 1):
                    assert sym_power_betti(g, k, j) == table.dim(j)

    def test_range_error_is_explicit(self):
        with pytest.raises(SymmetricPowerRangeError):
            sym_power_betti(1, 3, 4)
        with pytest.raises(SymmetricPowerRangeError):
            sym_power_betti(1, 3, -1)


class TestSec2Betti:
    def test_genus_zero_matches_projective_behavior(self):
        # C^(2) is the projective plane; the table is palindromic because
        # the second secant variety of a rational normal curve satisfies
        # Poincare duality.
        assert sec2_singular_betti(0).dims == (1, 0, 1, 0, 1, 0, 1)

    def test_h3_is_sym2_of_h1(self):
        assert sec2_singular_betti(1).dim(3) == 3
        assert sec2_singular_betti(2).dim(3) == 10

    def test_upper_degrees_follow_the_symmetric_square(self):
        for g in range(0, 4):
            table = sec2_singular_betti(g)
            assert table.dim(4) == math.comb(2 * g, 2) + 1
            assert table.dim(5) == 2 * g
            assert table.dim(6) == 1

    def test_weight_annotations(self):
        table = sec2_singular_betti(2)
        assert table.weight_of(3) == 2
        for j in (0, 1, 2, 4, 5, 6):
            assert table.weight_of(j) == j

    def test_genus_params(self):
        assert sec2_singular_betti(3).dim(5) == 6
        with pytest.raises(ValueError):
            sec2_singular_betti(-1)
        with pytest.raises(ValueError):
            sym_power_betti(-1, 2, 0)


class TestMonodromyEigentable:
    def test_n2(self):
        rows = monodromy_eigentable(2)
        assert [(lam.p, lam.q, deg) for lam, deg, _ in rows] == [
            (0, 1, 0),
            (1, 3, 2),
            (2, 3, 2),
        ]

    def test_n3(self):
        rows = monodromy_eigentable(3)
        assert [(lam.label(), deg) for lam, deg, _ in rows] == [
            ("1", 0),
            ("-1", 2),
            ("e(2*pi*i*1/4)", 3),
            ("e(2*pi*i*3/4)", 3),
        ]

    def test_degreewise_counts_match_betti_up_to_12(self):
        for n in range(1, 13):
            betti = milnor_betti(n)
            counts = {}
            for _, degree, mult in monodromy_eigentable(n):
                counts[degree] = counts.get(degree, 0) + mult
            for j, dim in enumerate(betti.dims):
                assert counts.get(j, 0) == dim

    def test_annotated_betti_table(self):
        table = eigentable_betti(2)
        assert table.dims == (1, 0, 2)
        assert dict(table.eigenvalues)[2] == (
            "e(2*pi*i*1/3)",
            "e(2*pi*i*2/3)",
        )


class TestNearbyVanishing:
    def test_n1_is_the_quadric_cone_picture(self):
        summands = nearby_vanishing_decomposition(1)
        assert [(s.eigenvalue.label(), s.support_index, s.kind) for s in summands] == [
            ("1", 1, "constant_sheaf"),
            ("-1", 0, "IC_of_rank1_local_system"),
        ]

    def test_n2_supports(self):
        summands = nearby_vanishing_decomposition(2)
        assert [(s.eigenvalue.label(), s.support_index) for s in summands] == [
            ("1", 2),
            ("-1", 1),
            ("e(2*pi*i*1/3)", 0),
            ("e(2*pi*i*2/3)", 0),
        ]

    def test_weights_and_ranks(self):
        for n in range(1, 9):
            for s in nearby_vanishing_decomposition(n):
                assert s.weight == 2 * n
                assert s.rank == 1
                if s.eigenvalue.q != 1:
                    assert s.kind == "IC_of_rank1_local_system"

    def test_eigenvalue_set(self):
        for n in range(1, 9):
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

    def test_origin_restriction_reproduces_the_eigentable(self):
        for n in range(1, 13):
            restricted = sorted(
                ((lam.p, lam.q), deg) for lam, deg in origin_eigenvalues(n)
            )
            table = sorted(
                ((lam.p, lam.q), deg) for lam, deg, _ in monodromy_eigentable(n)
            )
            assert restricted == table

    def test_summand_validation(self):
        with pytest.raises(ValueError):
            NearbyCycleSummand(RootOfUnity(1, 3), 0, 2, 4, "IC_of_rank1_local_system")
        with pytest.raises(ValueError):
            NearbyCycleSummand(RootOfUnity(0, 1), 1, 1, 2, "mystery")
