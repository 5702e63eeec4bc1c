"""Composition combinatorics and the Moebius-inverted counting functions."""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import pytest

from secantinv.compositions import (
    Composition,
    count_coprime,
    count_coprime_by_length,
    divisors,
    enumerate_compositions,
    euler_phi,
    mobius,
)


def brute_coprime(n):
    return sum(1 for c in enumerate_compositions(n) if math.gcd(*c.parts) == 1)


def brute_coprime_by_length(n, length):
    return sum(
        1 for c in enumerate_compositions(n) if len(c.parts) == length and math.gcd(*c.parts) == 1
    )


class TestEnumeration:
    def test_n1(self):
        assert [c.parts for c in enumerate_compositions(1)] == [(1,)]

    def test_n3_as_a_set(self):
        got = {c.parts for c in enumerate_compositions(3)}
        assert got == {(3,), (2, 1), (1, 2), (1, 1, 1)}

    def test_n5_count(self):
        assert len(enumerate_compositions(5)) == 16

    def test_counts_up_to_14(self):
        for n in range(1, 15):
            comps = enumerate_compositions(n)
            assert len(comps) == 2 ** (n - 1)
            assert all(sum(c.parts) == n for c in comps)
            assert len({c.parts for c in comps}) == len(comps)

    def test_order_is_deterministic(self):
        assert [c.parts for c in enumerate_compositions(4)] == [
            (4,),
            (1, 3),
            (2, 2),
            (1, 1, 2),
            (3, 1),
            (1, 2, 1),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            enumerate_compositions(0)

    @pytest.mark.parametrize("name", ["total", "parts"])
    def test_assignment_raises_frozen_instance_error(self, name):
        c = Composition((1, 2))
        assert not hasattr(c, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(c, name, 3)

    def test_copy_and_pickle_round_trip(self):
        c = Composition((1, 2))
        for clone in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert clone == c

    @pytest.mark.parametrize("n", range(1, 13))
    def test_order_is_increasing_cut_mask_order(self, n):
        # Reference: bit j of the mask marks a cut after position j+1, and
        # the masks are read in increasing order.
        expected = []
        for mask in range(1 << (n - 1)):
            cuts = [0] + [j + 1 for j in range(n - 1) if mask >> j & 1] + [n]
            expected.append(tuple(b - a for a, b in zip(cuts, cuts[1:])))
        assert [c.parts for c in enumerate_compositions(n)] == expected


class TestArithmeticFunctions:
    def test_small_values(self):
        assert mobius(1) == 1 and euler_phi(1) == 1
        assert mobius(12) == 0 and euler_phi(12) == 4
        assert mobius(30) == -1 and euler_phi(30) == 8

    def test_phi_against_gcd_count(self):
        for n in range(1, 60):
            assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)

    def test_divisors_and_mobius_against_their_definitions(self):
        for n in range(1, 2001):
            divs = [d for d in range(1, n + 1) if n % d == 0]
            assert divisors(n) == divs
            primes = [d for d in divs[1:] if all(d % e for e in range(2, d))]
            squarefree = all(n % (d * d) for d in divs[1:])
            assert mobius(n) == ((-1) ** len(primes) if squarefree else 0), n

    def test_mobius_summatory_identity(self):
        for n in range(2, 60):
            assert sum(mobius(d) for d in divisors(n)) == 0

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]


class TestCoprimeCounts:
    def test_examples(self):
        assert count_coprime(1) == 1
        assert count_coprime(3) == 3
        assert count_coprime(6) == 27

    def test_matches_brute_force_up_to_14(self):
        for n in range(1, 15):
            assert count_coprime(n) == brute_coprime(n)

    def test_pre_inversion_identity_up_to_20(self):
        for n in range(1, 21):
            assert sum(count_coprime(d) for d in divisors(n)) == 2 ** (n - 1)

    def test_full_length_is_one(self):
        for n in range(1, 10):
            assert count_coprime_by_length(n, n) == 1

    def test_length_examples(self):
        assert count_coprime_by_length(4, 2) == 2
        # Brute force gives 9 here: of the C(5,2) = 10 length-3 compositions
        # of 6, only (2,2,2) has gcd > 1.
        assert count_coprime_by_length(6, 3) == 9
        assert count_coprime_by_length(6, 3) == brute_coprime_by_length(6, 3)

    def test_matches_brute_force_by_length_up_to_14(self):
        for n in range(1, 15):
            for length in range(1, n + 1):
                assert count_coprime_by_length(n, length) == brute_coprime_by_length(
                    n, length
                )

    def test_lengths_sum_to_total_up_to_14(self):
        for n in range(1, 15):
            assert (
                sum(count_coprime_by_length(n, length) for length in range(1, n + 1))
                == count_coprime(n)
            )

    def test_length_out_of_range(self):
        with pytest.raises(ValueError):
            count_coprime_by_length(4, 0)
        with pytest.raises(ValueError):
            count_coprime_by_length(4, 5)


class TestGcdScaling:
    def test_every_composition_is_d_times_a_unique_coprime_one(self):
        for n in range(1, 13):
            seen = {}
            for comp in enumerate_compositions(n):
                d = math.gcd(*comp.parts)
                reduced = Composition(tuple(p // d for p in comp.parts))
                assert math.gcd(*reduced.parts) == 1
                assert sum(reduced.parts) * d == n
                assert tuple(d * p for p in reduced.parts) == comp.parts
                seen.setdefault((d, reduced.parts), 0)
                seen[(d, reduced.parts)] += 1
            # The map comp -> (gcd, coprime part) is injective.
            assert all(v == 1 for v in seen.values())
            # And surjective onto coprime compositions of each n/d.
            for d in divisors(n):
                expected = {
                    c.parts
                    for c in enumerate_compositions(n // d)
                    if math.gcd(*c.parts) == 1
                }
                got = {q for (dd, q) in seen if dd == d}
                assert got == expected

    def test_composition_validation(self):
        with pytest.raises(ValueError):
            Composition(())
        with pytest.raises(ValueError):
            Composition((1, 0))
