"""Torus strata of the Hankel determinant and monomial normal forms."""

import copy
import math
import pickle
import random
from dataclasses import FrozenInstanceError, fields
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantinv.exactalg import MultiPoly
from secantinv.hodge import _t_poly, milnor_hodge_bruteforce
from secantinv.linalg import det
from secantinv.strata import (
    StratumDescriptor,
    stratify,
    torus_normal_form,
)


class TestStratify:
    def test_n2_matches_the_block_diagonal_picture(self):
        by_comp = {d.exponent_vector: d for d in stratify(2)}
        assert by_comp[(1, 1, 1)].monomial == ((0, 1), (2, 1), (4, 1))
        assert by_comp[(2, 1)].monomial == ((1, 2), (4, 1))
        assert by_comp[(1, 2)].monomial == ((0, 1), (3, 2))
        assert by_comp[(3,)].monomial == ((2, 3),)
        assert by_comp[(3,)].gcd == 3

    def test_descriptor_fields(self):
        for d in stratify(3):
            assert d.affine_rank == 3
            assert sum(d.exponent_vector) == 4
            assert d.gcd == reduce(math.gcd, d.exponent_vector)
            assert tuple(pw for _, pw in d.monomial) == d.exponent_vector

    def test_descriptor_stores_parts_and_affine_rank_only(self):
        d = StratumDescriptor((2, 2), 3)
        assert d == stratify(3)[2]
        assert (d.exponent_vector, d.gcd, len(d.exponent_vector) + d.affine_rank) == ((2, 2), 2, 5)
        assert d.monomial == ((1, 2), (5, 2))
        assert [f.name for f in fields(d)] == ["exponent_vector", "affine_rank"]

    @pytest.mark.parametrize("name", ["gcd", "monomial", "affine_rank"])
    def test_assignment_raises_frozen_instance_error(self, name):
        d = StratumDescriptor((2, 2), 3)
        assert not hasattr(d, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(d, name, 1)

    def test_copy_and_pickle_round_trip(self):
        d = StratumDescriptor((2, 2), 3)
        for clone in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert clone == d

    def test_counts_up_to_14(self):
        for n in range(0, 15):
            assert len(stratify(n)) == 2**n


class TestCoordinateTrace:
    """The block trace of a stratum is its monomial: block i of size p_i has
    its antidiagonal at coordinate index q_i, and contributes y_{q_i}^{p_i}."""

    def test_blocks_of_sizes_1_and_2(self):
        assert StratumDescriptor((1, 2), 2).monomial == ((0, 1), (3, 2))

    def test_single_block_of_size_3(self):
        assert StratumDescriptor((3,), 2).monomial == ((2, 3),)

    def test_single_block_general(self):
        for n in range(0, 8):
            assert StratumDescriptor((n + 1,), n).monomial == ((n, n + 1),)

    def test_anchor_indices_are_antidiagonal_positions(self):
        # Block i spans rows [s, s+p); its antidiagonal is at index 2s+p-1.
        d = StratumDescriptor((2, 3, 2), 6)
        assert d.monomial == ((1, 2), (6, 3), (11, 2))


class TestCrossModuleHodgeSum:
    def test_stratum_sum_reproduces_the_brute_force_polynomial(self):
        for n in range(1, 9):
            total = MultiPoly.zero(1)
            tn = _t_poly({n: 1})
            for d in stratify(n):
                term = tn * _t_poly({1: 1, 0: -1}) ** (len(d.exponent_vector) - 1)
                total = total + term.scale(d.gcd)
            assert total == milnor_hodge_bruteforce(n)


class TestTorusNormalForm:
    def test_single_exponent(self):
        change = torus_normal_form([5])
        assert change.matrix == ((1,),)
        assert change.exponent == 5
        assert det(change.matrix) == 1

    def test_two_equal_exponents(self):
        change = torus_normal_form([2, 2])
        assert change.exponent == 2
        assert det(change.matrix) in (-1, 1)
        assert change.pullback_exponents() == (2, 2)

    def test_coprime_pair(self):
        change = torus_normal_form([5, 3])
        assert change.exponent == 1
        assert det(change.matrix) in (-1, 1)
        assert change.pullback_exponents() == (5, 3)

    def test_every_stratum_monomial_reduces_to_its_gcd_power(self):
        for n in range(0, 11):
            for d in stratify(n):
                change = torus_normal_form(d.exponent_vector)
                assert change.exponent == d.gcd
                assert det(change.matrix) in (-1, 1)
                assert change.pullback_exponents() == d.exponent_vector

    def test_500_random_vectors(self):
        rng = random.Random(31)
        for _ in range(500):
            length = rng.randint(1, 6)
            exps = [rng.randint(1, 50) for _ in range(length)]
            change = torus_normal_form(exps)
            assert change.exponent == reduce(math.gcd, exps)
            assert det(change.matrix) in (-1, 1)
            assert change.pullback_exponents() == tuple(exps)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
    def test_unimodular_on_arbitrary_positive_vectors(self, exps):
        change = torus_normal_form(exps)
        assert det(change.matrix) in (-1, 1)
        assert change.exponent == reduce(math.gcd, exps)
        assert change.pullback_exponents() == tuple(exps)

    def test_invalid_exponents(self):
        with pytest.raises(ValueError):
            torus_normal_form([])
        with pytest.raises(ValueError):
            torus_normal_form([2, 0])
