"""Hankel matrices and the block-reduction coordinate change."""

import dataclasses
import random
from fractions import Fraction

import pytest

from secantinv import hankel
from secantinv.exactalg import (
    DimensionError,
    LocalizedPoly,
    MultiPoly,
    _sum_of_products,
    poly_det,
)
from secantinv.hankel import (
    _hankel,
    _y_at_point,
    block_reduce,
    factorization_identity,
    factorization_identity_at_point,
    hankel_matrix,
    restricted_hankel,
    verify_block_reduction,
)
from secantinv.linalg import det
from tests.references import (
    random_locus_point,
    reference_block_reduce,
    reference_determinant_check,
    reference_factorization_identity,
)


def p(nvars, text):
    return MultiPoly.from_str(nvars, text)


def fraction_recurrence_y(n, k, x):
    """Reference y_0 .. y_{2n-k}: the p-recurrence run step by step in
    Fractions, p_0 = 1/x_k, p_l = -(p_0 x_{k+l} + ... + p_{l-1} x_{k+1}) / x_k,
    then y_i = +-x_k^2 p_i."""
    p_vals = [1 / x[k]]
    for ell in range(1, 2 * n - k + 1):
        acc = sum(p_vals[j] * x[k + ell - j] for j in range(ell))
        p_vals.append(-acc / x[k])
    y = [x[k]]
    for i in range(1, 2 * n - k + 1):
        yi = x[k] ** 2 * p_vals[i]
        y.append(yi if i <= k else -yi)
    return y


# Pairwise coprime denominators, one per coordinate of a point with n <= 6.
PRIMES = (8191, 8209, 8219, 8221, 8231, 8233, 8237, 8243, 8263, 8269, 8273, 8287, 8291)


def coprime_denominator_point(n, k, rng):
    """A locus point whose nonzero coordinates have pairwise coprime prime
    denominators, so their lcm is the product of all of them."""
    point = [Fraction(0)] * (2 * n + 1)
    for j in range(k, 2 * n + 1):
        q = PRIMES[j]
        point[j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, q - 1), q)
    return point


class TestHankelMatrix:
    def test_n0(self):
        m = hankel_matrix(0)
        assert (len(m), len(m[0])) == (1, 1)
        assert m[0][0].to_str() == "x0"

    def test_n1(self):
        m = hankel_matrix(1)
        assert [[m[i][j].to_str() for j in range(2)] for i in range(2)] == [
            ["x0", "x1"],
            ["x1", "x2"],
        ]

    def test_n2_corner(self):
        assert hankel_matrix(2)[2][2].to_str() == "x4"

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            hankel_matrix(-1)


@pytest.fixture
def product_pairs(monkeypatch):
    """The operand pairs passed to ``hankel._sum_of_products``, in call order."""
    pairs = []

    def recording_sum(call_pairs):
        call_pairs = list(call_pairs)
        pairs.extend(call_pairs)
        return _sum_of_products(call_pairs)

    monkeypatch.setattr(hankel, "_sum_of_products", recording_sum)
    return pairs


class TestBlockReduceSmall:
    def test_n1_k0_hand_recurrence(self):
        r = block_reduce(1, 0)
        assert r.p_seq[1] == LocalizedPoly(p(3, "-x1"), 0, 2)
        assert r.y_coords[0] == LocalizedPoly(p(3, "x0"), 0, 0)
        assert r.y_coords[2] == LocalizedPoly(p(3, "x0*x2 - x1^2"), 0, 1)
        # f = y0 * y2 exactly (sign +1 for k = 0).
        assert r.factorization_sign == 1
        lhs = poly_det(restricted_hankel(1, 0))
        assert lhs == r.y_coords[0] * r.y_coords[2]

    def test_p0_times_xk_is_one(self):
        for n, k in [(1, 0), (2, 0), (2, 1), (3, 2)]:
            r = block_reduce(n, k)
            xk = LocalizedPoly(MultiPoly.variable(2 * n + 1, k), k, 0)
            assert r.p_seq[0] * xk == LocalizedPoly(MultiPoly.const(2 * n + 1, 1), k)

    def test_y_case_split(self):
        for n, k in [(2, 1), (3, 1), (3, 2)]:
            r = block_reduce(n, k)
            nvars = 2 * n + 1
            xk2 = LocalizedPoly(MultiPoly.variable(nvars, k) ** 2, k, 0)
            for i in range(1, 2 * n - k + 1):
                expected = xk2 * r.p_seq[i]
                if i > k:
                    expected = -expected
                assert r.y_coords[i] == expected

    def test_n2_k1_signed_factorization(self):
        r = block_reduce(2, 1)
        assert r.factorization_sign == -1
        lhs = poly_det(restricted_hankel(2, 1))
        rhs = (r.y_coords[0] ** 2) * r.y_coords[3]
        # The determinant equals minus y0^2 y3 with the pinned coordinates;
        # the order-reversal sign of the 2x2 top block cannot be scaled away.
        assert lhs == -rhs
        assert factorization_identity(r)

    def test_n2_k0_bottom_right_block(self):
        r = block_reduce(2, 0)
        for i in (1, 2):
            for j in (1, 2):
                assert r.N_matrix[i][j] == -r.p_seq[i + j]
        assert r.N_matrix[0][1].num.is_zero()
        assert r.N_matrix[2][0].num.is_zero()

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in range(1, 10) for k in range(n)], ids=lambda v: str(v)
    )
    def test_matches_the_construction_in_the_localization(self, n, k):
        r, expected = block_reduce(n, k), reference_block_reduce(n, k)
        assert r == expected
        assert r.to_obj() == expected.to_obj()

        def variables(b):
            entries = [e for m in (b.P_matrix, b.N_matrix) for row in m for e in row]
            return [e.var for e in [*b.p_seq, *entries, *b.y_coords]]

        assert variables(r) == variables(expected)

    @pytest.mark.parametrize("n, k", [(n, k) for n in (1, 4, 6) for k in range(n)])
    def test_every_product_has_a_single_term_operand(self, product_pairs, n, k):
        block_reduce(n, k)
        assert product_pairs
        assert all(min(len(a), len(b)) <= 1 for a, b in product_pairs)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            block_reduce(2, 2)
        with pytest.raises(ValueError):
            block_reduce(3, -1)


class TestVerification:
    def test_n1_k0_all_checks_pass(self):
        report = verify_block_reduction(block_reduce(1, 0))
        assert report.all_ok
        assert [c.case for c in report.checks] == [
            "top_left",
            "off_diagonal",
            "bottom_right",
            "determinant",
        ]

    def test_n3_k1_all_checks_pass(self):
        assert verify_block_reduction(block_reduce(3, 1)).all_ok

    def test_tampered_off_diagonal_entry_is_named(self):
        r = block_reduce(2, 0)
        rows = [list(row) for row in r.N_matrix]
        one = LocalizedPoly(MultiPoly.const(5, 1), 0)
        # Perturb entry (0, 2), which lies in the top-right off-diagonal block.
        rows[0][2] = rows[0][2] + one
        tampered = dataclasses.replace(r, N_matrix=tuple(map(tuple, rows)))
        report = verify_block_reduction(tampered)
        assert not report.all_ok
        assert "off_diagonal" in report.failing_cases()
        off = next(c for c in report.checks if c.case == "off_diagonal")
        assert off.offending_entry == (0, 2)

    def test_det_p_is_p0_power(self):
        for n, k in [(1, 0), (2, 0), (2, 1), (3, 2)]:
            r = block_reduce(n, k)
            assert poly_det(r.P_matrix) == r.p_seq[0] ** (n + 1)


@pytest.fixture
def det_calls(monkeypatch):
    """The matrices passed to ``hankel.poly_det``, in call order."""
    calls = []

    def counting_det(m):
        calls.append(m)
        return poly_det(m)

    monkeypatch.setattr(hankel, "poly_det", counting_det)
    return calls


class TestLocusDeterminant:
    """det H_n on the locus and the y-Hankel determinant are taken once per
    reduction, on first use."""

    @pytest.mark.parametrize("n, k", [(1, 0), (3, 1), (4, 3)])
    def test_block_reduce_takes_no_determinant(self, det_calls, n, k):
        block_reduce(n, k)
        assert det_calls == []

    @pytest.mark.parametrize("verify_first", [True, False])
    def test_both_checks_take_three_determinants(self, det_calls, verify_first):
        # Check (d) reads det N off the y-Hankel determinant it shares with
        # the factorization, so between them the two checks take exactly the
        # y-Hankel and locus determinants, and det N is never expanded.
        n, k = 3, 1
        r = block_reduce(n, k)
        if verify_first:
            assert verify_block_reduction(r).all_ok
            assert factorization_identity(r)
        else:
            assert factorization_identity(r)
            assert verify_block_reduction(r).all_ok
        y_hankel = _hankel(r.y_coords[k + 2 :], n - k)
        expected = [y_hankel, restricted_hankel(n, k)]
        if not verify_first:
            expected.reverse()
        assert det_calls == expected
        # A second check of either kind takes no determinant.
        assert verify_block_reduction(r).all_ok
        assert factorization_identity(r)
        assert det_calls == expected

    def test_replaced_y_coordinates_take_det_n_in_full(self, det_calls):
        # N is intact, so all four checks pass, but the bottom-right block
        # no longer matches the y-Hankel: check (d) must expand det N itself,
        # and the factorization fails on the replaced coordinate.
        n, k = 3, 0
        r = block_reduce(n, k)
        tampered = _tampered(r, [], {2 * n - k: "1"}, False)
        assert verify_block_reduction(tampered).all_ok
        assert det_calls == [tampered.N_matrix, restricted_hankel(n, k)]
        assert not factorization_identity(tampered)
        assert det_calls[2:] == [_hankel(tampered.y_coords[k + 2 :], n - k)]

    def test_a_replaced_n_matrix_fails_the_determinant_check(self, det_calls):
        n, k = 2, 0
        r = block_reduce(n, k)
        assert verify_block_reduction(r).all_ok
        rows = [list(row) for row in r.N_matrix]
        rows[n][n] = rows[n][n] + LocalizedPoly(MultiPoly.const(2 * n + 1, 1), k)
        tampered = dataclasses.replace(r, N_matrix=tuple(map(tuple, rows)))
        del det_calls[:]
        report = verify_block_reduction(tampered)
        assert "determinant" in report.failing_cases()
        # The replaced reduction computes its own locus determinant.
        assert det_calls == [tampered.N_matrix, restricted_hankel(n, k)]


def _plus(entry: LocalizedPoly, term: str, k: int) -> LocalizedPoly:
    return entry + LocalizedPoly(MultiPoly.from_str(entry.nvars, term), k)


def _tampers(n, k):
    """Changes to the reduction of H_n on Y_k, by name: the cells of N that
    get 1 added, the y_i that get a term added, whether p_0 gets 1 added,
    and the structural checks the change must fail.  One off-diagonal entry
    leaves N block triangular and det N unchanged, the mirrored pair does
    not; "bottom_right_and_y" keeps N's bottom-right block equal to x_k^-2
    times the y-Hankel."""
    last = 2 * n - k
    return {
        "none": ([], {}, False, []),
        "antidiagonal": ([(0, k)], {}, False, ["top_left"]),
        "top_left": ([(k, k)], {}, False, ["top_left"]),
        "off_diagonal": ([(0, n)], {}, False, ["off_diagonal"]),
        "off_diagonal_pair": ([(0, n), (n, 0)], {}, False, ["off_diagonal"]),
        "bottom_right": ([(n, n)], {}, False, ["bottom_right"]),
        "bottom_right_and_y": ([(n, n)], {last: f"x{k}^2"}, False, ["bottom_right"]),
        "y_last": ([], {last: "1"}, False, []),
        "y_0": ([], {0: "1"}, False, []),
        "p_0": ([], {}, True, ["top_left"]),
    }


def _tampered(r, cells, y_terms, p0):
    """A new reduction, through ``dataclasses.replace``, with the changes
    named by one entry of :func:`_tampers`."""
    rows = [list(row) for row in r.N_matrix]
    for i, j in cells:
        rows[i][j] = _plus(rows[i][j], "1", r.k)
    y = list(r.y_coords)
    for i, term in y_terms.items():
        y[i] = _plus(y[i], term, r.k)
    p_seq = ((_plus(r.p_seq[0], "1", r.k),) + r.p_seq[1:]) if p0 else r.p_seq
    return dataclasses.replace(
        r, p_seq=p_seq, N_matrix=tuple(map(tuple, rows)), y_coords=tuple(y)
    )


class TestSharedResidualDeterminant:
    """Check (d) and the factorization read one y-Hankel determinant; their
    verdicts equal the full computations on every reduction, tampered or not."""

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 6) for k in range(n)])
    def test_verdicts_match_the_full_computations(self, n, k):
        r = block_reduce(n, k)
        for kind, (cells, y_terms, p0, structural) in _tampers(n, k).items():
            tampered = _tampered(r, cells, y_terms, p0)
            report = verify_block_reduction(tampered)
            assert [c.case for c in report.checks[:3] if not c.ok] == structural, kind
            assert report.checks[3] == reference_determinant_check(tampered), kind
            assert factorization_identity(tampered) == reference_factorization_identity(
                tampered
            ), kind

    def test_a_short_p_sequence_fails_at_the_first_bottom_right_mismatch(self):
        # Check (c) reads p_s as it reaches each cell: a reduction short of
        # p_{2n-k} whose first bottom-right cell is wrong fails there and
        # never asks for the missing p.
        n, k = 3, 1
        tampered = _tampered(block_reduce(n, k), [(k + 1, k + 1)], {}, False)
        tampered = dataclasses.replace(tampered, p_seq=tampered.p_seq[:-1])
        report = verify_block_reduction(tampered)
        assert [c.case for c in report.checks[:3] if not c.ok] == ["bottom_right"]
        assert report.checks[2].offending_entry == (k + 1, k + 1)
        assert report.checks[3] == reference_determinant_check(tampered)

    def test_poles_away_from_x_k_take_det_n_in_full(self, det_calls):
        # With p_0 = 1, p_1 = 0 and the bottom-right entry -det H_2 / x_0^6,
        # N's only pole is at x_0, and det(x_1^2 N) = det H_2 * x_1^6 / x_0^6
        # is not det H_2: check (d) scales det N by x_k^6 = x_1^6 and fails.
        n, k = 2, 1
        r = block_reduce(n, k)
        nvars = 2 * n + 1
        one = LocalizedPoly(MultiPoly.const(nvars, 1), k)
        zero = LocalizedPoly(MultiPoly.zero(nvars), k)
        corner = LocalizedPoly(-poly_det(restricted_hankel(n, k)).num, 0, 2 * (n + 1))
        y = list(r.y_coords)
        y[3] = corner * LocalizedPoly(p(nvars, "x1^2"), k)
        tampered = dataclasses.replace(
            r,
            p_seq=(one, zero) + r.p_seq[2:],
            N_matrix=((zero, one, zero), (one, zero, zero), (zero, zero, corner)),
            y_coords=tuple(y),
        )
        report = verify_block_reduction(tampered)
        assert not report.checks[3].ok
        assert report.checks[3] == reference_determinant_check(tampered)
        assert tampered.N_matrix in det_calls

    def test_poles_at_two_variables_raise_as_the_full_check_does(self):
        # p_2 = 1/x_1 puts N's bottom-right pole at x_1 and its top-left pole
        # at x_0.  Every structural check passes and y_2 = -x_0^2 p_2, but
        # the full expansion cannot combine the two poles, so check (d) may
        # not read det N off the y-Hankel either.
        r = block_reduce(1, 0)
        p2 = LocalizedPoly(MultiPoly.const(3, 1), 1, 1)
        tampered = dataclasses.replace(
            r,
            p_seq=r.p_seq[:2] + (p2,),
            N_matrix=(r.N_matrix[0], (r.N_matrix[1][0], -p2)),
            y_coords=r.y_coords[:2] + (-(p2 * LocalizedPoly(p(3, "x0^2"), 0)),),
        )
        with pytest.raises(DimensionError):
            reference_determinant_check(tampered)
        with pytest.raises(DimensionError):
            verify_block_reduction(tampered)

    def test_too_few_y_coordinates_take_det_n_in_full(self, det_calls):
        # The structural checks read no y; a reduction short of y_{2n-k}
        # verifies, with det N expanded in full.
        r = block_reduce(3, 1)
        tampered = dataclasses.replace(r, y_coords=r.y_coords[:-1])
        assert verify_block_reduction(tampered).all_ok
        assert det_calls[0] is tampered.N_matrix

    @pytest.mark.parametrize("n", range(1, 6))
    def test_residual_det_matches_the_dense_determinant_at_points(self, n):
        rng = random.Random(900 + n)
        for k in range(n):
            r = block_reduce(n, k)
            y_hankel = _hankel(r.y_coords[k + 2 :], n - k)
            for _ in range(3):
                point = random_locus_point(n, k, rng)
                dense = [[e.eval(point) for e in row] for row in y_hankel]
                assert r._residual_det.eval(point) == det(dense)


class TestFactorization:
    def test_symbolic_up_to_n4(self):
        for n in range(1, 5):
            for k in range(n):
                assert factorization_identity(block_reduce(n, k))

    def test_residual_matrix_shape(self):
        r = block_reduce(3, 1)
        m = _hankel(r.y_coords[r.k + 2 :], r.n - r.k)
        assert (len(m), len(m[0])) == (2, 2)
        assert m[0][0] == r.y_coords[3]
        assert m[1][1] == r.y_coords[5]

    def test_point_identity_samples(self):
        rng = random.Random(30)
        for n in range(1, 6):
            for k in range(n):
                for _ in range(5):
                    point = random_locus_point(n, k, rng)
                    assert factorization_identity_at_point(n, k, point)

    def test_symbolic_and_numeric_recurrences_agree_at_points(self):
        # The Fraction recurrence below, run step by step at each point, is
        # independent of the integer numerators behind the symbolic p and y.
        rng = random.Random(33)
        for n, k in [(2, 0), (3, 1), (4, 2)]:
            r = block_reduce(n, k)
            for _ in range(5):
                point = random_locus_point(n, k, rng)
                p_vals = [1 / point[k]]
                for ell in range(1, 2 * n - k + 1):
                    acc = sum(p_vals[j] * point[k + ell - j] for j in range(ell))
                    p_vals.append(-acc / point[k])
                for i, p_sym in enumerate(r.p_seq):
                    assert p_sym.eval(point) == p_vals[i]
                xk2 = point[k] ** 2
                for i in range(1, 2 * n - k + 1):
                    expected = xk2 * p_vals[i] * (1 if i <= k else -1)
                    assert r.y_coords[i].eval(point) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_point_y_matches_symbolic_y_and_fraction_recurrence(self, n):
        # The integer recurrence behind factorization_identity_at_point must
        # give exactly the symbolic y_i evaluated at the point, and exactly
        # what the step-by-step Fraction recurrence gives.
        rng = random.Random(700 + n)
        for k in range(n):
            r = block_reduce(n, k)
            points = [random_locus_point(n, k, rng) for _ in range(3)]
            points += [coprime_denominator_point(n, k, rng) for _ in range(2)]
            for point in points:
                y = _y_at_point(n, k, point)
                assert y == fraction_recurrence_y(n, k, point)
                assert y == [yi.eval(point) for yi in r.y_coords]

    def test_point_off_locus_rejected(self):
        with pytest.raises(ValueError):
            factorization_identity_at_point(2, 1, [1, 1, 0, 0, 0])
