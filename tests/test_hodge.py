"""Hodge polynomials of the Hankel Milnor fiber and its quotients."""

import pytest

from secantinv.cli import _hodge_text
from secantinv.compositions import divisors
from secantinv.exactalg import MultiPoly
from secantinv.hodge import (
    BettiTable,
    gbundle_hodge,
    milnor_betti,
    milnor_hodge_bruteforce,
    milnor_hodge_closed,
    quotient_hodge,
)
from tests.references import gbundle_hodge_bruteforce


def h(coeffs):
    """The polynomial sum c * t^d in t = x0, from {d: c}."""
    return MultiPoly(1, {(d,): c for d, c in coeffs.items()})


class TestMilnorHodge:
    def test_n1_by_hand(self):
        # Two compositions of 2: gcd 2 length 1, gcd 1 length 2.
        assert milnor_hodge_bruteforce(1) == h({2: 1, 1: 1})

    def test_n2_by_hand(self):
        assert milnor_hodge_bruteforce(2) == h({4: 1, 2: 2})

    def test_closed_form_examples(self):
        assert milnor_hodge_closed(1) == h({1: 1, 2: 1})
        assert milnor_hodge_closed(2) == h({2: 2, 4: 1})
        assert milnor_hodge_closed(4) == h({4: 4, 8: 1})

    def test_brute_equals_closed_up_to_10(self):
        for n in range(1, 11):
            assert milnor_hodge_bruteforce(n) == milnor_hodge_closed(n)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_brute_equals_closed_up_to_14(self, n):
        assert milnor_hodge_bruteforce(n) == milnor_hodge_closed(n)

    def test_euler_characteristic_is_n_plus_one(self):
        for n in range(1, 17):
            assert milnor_hodge_closed(n).eval([1]) == n + 1


class TestQuotientHodge:
    def test_full_divisor_recovers_the_fiber(self):
        # milnor_hodge_closed is quotient_hodge(n, n + 1): compare with the
        # independent stratum sum instead.
        for n in (1, 2, 3, 5):
            assert quotient_hodge(n, n + 1) == milnor_hodge_bruteforce(n)

    def test_examples(self):
        assert quotient_hodge(2, 1) == h({4: 1})
        assert quotient_hodge(5, 3) == h({6: 2, 10: 1})

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            quotient_hodge(2, 2)

    def test_coefficientwise_bounded_by_the_fiber(self):
        for n in range(1, 13):
            full = milnor_hodge_closed(n).terms
            for d in divisors(n + 1):
                quotient = quotient_hodge(n, d).terms
                for mono in set(quotient) | set(full):
                    assert quotient.get(mono, 0) <= full.get(mono, 0)


class TestGBundleHodge:
    def test_examples(self):
        assert gbundle_hodge(2, 1) == h({1: 1, 0: -1}) * h({4: 1})
        assert gbundle_hodge(2, 3) == h({1: 1, 0: -1}) * h({2: 2, 4: 1})

    def test_brute_force_oracle_agreement(self):
        for n in range(1, 8):
            for d in divisors(n + 1):
                assert gbundle_hodge(n, d) == gbundle_hodge_bruteforce(n, d)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_brute_force_oracle_agreement_up_to_12(self, n):
        for d in divisors(n + 1):
            assert gbundle_hodge(n, d) == gbundle_hodge_bruteforce(n, d)

    def test_torus_bundle_property(self):
        for n in range(1, 10):
            for d in divisors(n + 1):
                assert gbundle_hodge(n, d) == h({1: 1, 0: -1}) * quotient_hodge(
                    n, d
                )


class TestMilnorBetti:
    def test_examples(self):
        assert milnor_betti(2).dims == (1, 0, 2)
        assert milnor_betti(3).dims == (1, 0, 1, 2)
        assert milnor_betti(5).dims == (1, 0, 0, 1, 2, 2)

    def test_total_dimension(self):
        for n in range(1, 17):
            assert sum(milnor_betti(n).dims) == n + 1


class TestHodgePolyType:
    def test_string_rendering(self):
        assert _hodge_text(h({})) == "0"
        assert _hodge_text(h({3: 1, 1: -2, 0: 5})) == "t^3 - 2*t + 5"

    def test_every_hodge_function_returns_a_one_variable_multipoly(self):
        for poly in (
            milnor_hodge_bruteforce(3),
            milnor_hodge_closed(3),
            quotient_hodge(5, 3),
            gbundle_hodge(5, 3),
            gbundle_hodge_bruteforce(5, 3),
        ):
            assert isinstance(poly, MultiPoly) and poly.nvars == 1


class TestBettiTableType:
    def test_euler_characteristic(self):
        table = BettiTable((1, 0, 2))
        assert sum((-1) ** j * table.dim(j) for j in range(-1, 4)) == 3

    def test_palindromic(self):
        assert BettiTable((1, 2, 1)).is_palindromic()
        assert not BettiTable((1, 0, 2)).is_palindromic()

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            BettiTable((1, -1))
