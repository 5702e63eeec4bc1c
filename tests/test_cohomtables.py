"""Intersection cohomology, symmetric products, eigenvalue and cycle tables."""

import math

import pytest

from secantinv.cohomtables import (
    NearbyCycleSummand,
    RootOfUnity,
    eigentable_betti,
    ih_betti,
    monodromy_eigentable,
    nearby_vanishing_decomposition,
    primitive_roots,
    sec2_singular_betti,
    sym_power_betti,
)
from secantinv.compositions import divisors, euler_phi
from secantinv.exactalg import MultiPoly
from secantinv.hodge import milnor_betti
from tests.references import (
    gbundle_hodge_bruteforce,
    origin_eigenvalues,
    reference_nearby_summands,
)


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

    def test_macdonald_in_every_degree(self):
        for g in range(0, 8):
            for k in range(1, 12):
                brute = sym_product_poincare(g, k)
                assert [sym_power_betti(g, k, j) for j in range(2 * k + 1)] == brute
                assert sym_power_betti(g, k, -1) == sym_power_betti(g, k, 2 * k + 1) == 0

    def test_poincare_duality_and_euler_characteristic(self):
        # C_k is a smooth compact manifold of real dimension 2k, and
        # chi(C_k) = [x^k] (1 - x)^(2g - 2) = (-1)^k C(2g - 2, k) for g >= 1.
        for g in range(0, 8):
            for k in range(1, 12):
                dims = [sym_power_betti(g, k, j) for j in range(2 * k + 1)]
                assert dims == dims[::-1]
                if g >= 1:
                    chi = sum((-1) ** j * d for j, d in enumerate(dims))
                    assert chi == (-1) ** k * math.comb(2 * g - 2, k)


def sym_product_poincare(g, k):
    """Poincare coefficients of C_k by brute force over the graded-symmetric
    k-th power of H*(C) = <1> + H^1 + <eta>: b odd classes (C(2g, b) ways),
    c copies of eta and k - b - c copies of 1 give a class of degree b + 2c."""
    coeffs = [0] * (2 * k + 1)
    for b in range(k + 1):
        for c in range(k - b + 1):
            coeffs[b + 2 * c] += math.comb(2 * g, b)
    return coeffs


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def decomposition_theorem_ih(g, kmax):
    """IP(Sigma_k) for k = 1..kmax from the decomposition theorem for
    Bertram's secant bundle B^k -> Sigma_k, a P^(k-1)-bundle over C_k.

    The map is semismall with fibre C_(k-i) over Sigma_i minus Sigma_(i-1),
    every stratum relevant, so (de Cataldo and Migliorini, Bull. AMS 46, 2009)
    P(C_k) * (1 + t^2 + ... + t^(2k-2)) = IP(Sigma_k)
    + sum over 1 <= i < k of t^(2(k-i)) IP(Sigma_i).
    """
    ip = {}
    for k in range(1, kmax + 1):
        fibre = [1 if j % 2 == 0 else 0 for j in range(2 * k - 1)]  # P(P^(k-1))
        rest = poly_mul(sym_product_poincare(g, k), fibre)
        for i in range(1, k):
            for j, d in enumerate(ip[i]):
                rest[j + 2 * (k - i)] -= d
        ip[k] = rest
    return ip


class TestDecompositionTheoremOracle:
    def test_recursion_reproduces_ih_betti(self):
        for g in range(0, 8):
            for k, expected in decomposition_theorem_ih(g, 11).items():
                assert min(expected) >= 0
                assert len(expected) == 4 * k - 1
                assert expected == expected[::-1]
                assert ih_betti(g, k).dims == tuple(expected), (g, k)


def poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return out


def series_mul(a, b, k):
    """Product of two power series in s whose coefficients are integer
    polynomials in u (a list indexed by the power of s), dropped past s^k."""
    out = [[0] for _ in range(k + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b[: k + 1 - i]):
            out[i + j] = poly_add(out[i + j], poly_mul(x, y))
    return out


def weight_polynomial(g, k):
    """W(Sigma_k) = sum over i = 1..k of [s^i] (Z_C(u^2 s) / Z_C(s)) / (u^2 - 1)
    with Z_C(s) = (1 - us)^(2g) / ((1 - s)(1 - u^2 s)), as integer
    coefficients of u^0, u^1, ...

    Sigma_k is the disjoint union of the pieces Sigma_i minus Sigma_(i-1),
    each fibred over C_i (Bertram, J. Diff. Geom. 35, 1992); summing the
    fibres over the multiplicity strata of C_i is a power-structure
    computation (Gusein-Zade, Luengo and Melle-Hernandez, Michigan Math. J.
    52, 2004).  The ratio is (1 - u^3 s)^(2g) (1 - s) / ((1 - us)^(2g)
    (1 - u^4 s)), expanded here factor by factor."""

    def geometric(step):  # 1 / (1 - u^step s)
        return [[0] * (step * m) + [1] for m in range(k + 1)]

    ratio = series_mul([[1], [-1]], geometric(4), k)
    curve_factor = series_mul([[1], [0, 0, 0, -1]], geometric(1), k)  # (1 - u^3 s) / (1 - us)
    for _ in range(2 * g):
        ratio = series_mul(ratio, curve_factor, k)
    total = [0]
    for coefficient in ratio[1:]:
        total = poly_add(total, coefficient)
    # Divide by u^2 - 1 from the top: total_j = q_(j-2) - q_j.
    q = [0] * (len(total) + 2)
    for j in range(len(total) - 1, 1, -1):
        q[j - 2] = total[j] + q[j]
    assert [total[0] + q[0], total[1] + q[1]] == [0, 0], "not divisible by u^2 - 1"
    return strip(q)


def strip(coefficients):
    coefficients = list(coefficients)
    while coefficients and not coefficients[-1]:
        coefficients.pop()
    return coefficients


def alternating_weight_sum(table):
    """sum_j (-1)^j dims[j] u^(weight of H^j), weight j where unannotated."""
    weights = dict(table.weights)
    out = [0] * (2 * len(table.dims))
    for j, d in enumerate(table.dims):
        out[weights.get(j, j)] += (-1) ** j * d
    return strip(out)


class TestWeightPolynomialOracle:
    @pytest.mark.parametrize("g", range(11))
    def test_sec2_singular_betti(self, g):
        assert weight_polynomial(g, 2) == alternating_weight_sum(sec2_singular_betti(g))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_rational_normal_curve_ih_betti(self, k):
        # For g = 0, Sigma_k is a rational homology manifold, so its
        # cohomology is its intersection cohomology.
        assert weight_polynomial(0, k) == alternating_weight_sum(ih_betti(0, k))


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
        weights = dict(table.weights)
        assert weights[3] == 2
        for j in (0, 1, 2, 4, 5, 6):
            assert weights[j] == j

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

    def test_each_subgroup_matches_the_gbundle_stratum_sum_up_to_14(self):
        # T^d, which generates the order-(n+1)/d subgroup of the monodromy
        # group, fixes the eigenvalues whose order q divides d.  Counted with
        # t^(2n - degree) and times (t - 1), they give the Hodge polynomial
        # of the torus bundle {y^d f = 1}, which gbundle_hodge_bruteforce
        # sums stratum by stratum.
        t = MultiPoly.variable(1, 0)
        for n in range(1, 15):
            rows = monodromy_eigentable(n)
            for d in divisors(n + 1):
                fixed = MultiPoly.zero(1)
                for lam, degree, mult in rows:
                    if d % lam.q == 0:
                        fixed = fixed + (t ** (2 * n - degree)).scale(mult)
                assert (t - MultiPoly.const(1, 1)) * fixed == gbundle_hodge_bruteforce(n, d)

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

    @pytest.mark.parametrize(
        "eigenvalue, n",
        [
            (RootOfUnity(1, 4), 2),
            (RootOfUnity(2, 5), 3),
            (RootOfUnity(0, 1), 0),
            (RootOfUnity(0, 1), -1),
            (RootOfUnity(1, 2), 0),
        ],
        ids=lambda v: v.label() if isinstance(v, RootOfUnity) else str(v),
    )
    def test_summand_needs_n_at_least_1_and_root_order_at_most_n_plus_1(self, eigenvalue, n):
        with pytest.raises(ValueError):
            NearbyCycleSummand(eigenvalue, n)

    def test_table_matches_the_five_field_reference_up_to_40(self):
        for n in range(1, 41):
            got = [
                (s.eigenvalue, s.support_index, s.rank, s.weight, s.kind)
                for s in nearby_vanishing_decomposition(n)
            ]
            assert got == reference_nearby_summands(n), n
