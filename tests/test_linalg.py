"""Exact sparse pivots and ranks and the dense determinant against a dense
Fraction reference, and against sympy where it is installed."""

import copy
import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secantinv.drk import _class_basis, _d_f_rows, _split_column_key, hankel_determinant_poly
from secantinv.linalg import _eliminate, det, pivot_columns
from tests.references import integer_row, random_locus_point, rank

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def gauss_jordan(rows):
    """Dense Gauss-Jordan elimination over Q.

    Returns (rank, transform, det): transform T is square with T @ rows in
    reduced echelon form, so the rows of T beyond the rank span the left
    null space; det is the determinant when rows is square.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    work = [[Fraction(v) for v in row] for row in rows]
    transform = [[Fraction(int(i == j)) for j in range(nrows)] for i in range(nrows)]
    r = 0
    det_value = Fraction(1)
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if work[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            work[r], work[pivot] = work[pivot], work[r]
            transform[r], transform[pivot] = transform[pivot], transform[r]
            det_value = -det_value
        det_value *= work[r][col]
        inv = 1 / work[r][col]
        work[r] = [v * inv for v in work[r]]
        transform[r] = [v * inv for v in transform[r]]
        for i in range(nrows):
            factor = work[i][col]
            if i == r or factor == 0:
                continue
            work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
            transform[i] = [a - factor * b for a, b in zip(transform[i], transform[r])]
        r += 1
    if r < nrows:
        det_value = Fraction(0)
    return r, transform, det_value


def prefix_ranks(rows):
    """The rank of every prefix of the rational rows: a running count of the
    pivots of the rows with their denominators cleared."""
    pivots = pivot_columns(map(integer_row, rows))
    return list(accumulate(column is not None for column in pivots))


def sparse(rows, tag=None):
    """Dense rows as sparse dicts, optionally tagging the column keys."""
    return [
        {(col if tag is None else (tag, col)): v for col, v in enumerate(row) if v != 0}
        for row in rows
    ]


def matmul(u, v):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*v)] for row in u]


rationals = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 5)
) | st.integers(-3, 3)


def matrices(rows=None, cols=None, entries=rationals):
    """Rational matrices, of the given shape or of up to 7 x 7."""
    nrows = st.integers(0, 7) if rows is None else st.just(rows)
    ncols = st.integers(1, 7) if cols is None else st.just(cols)
    return st.tuples(nrows, ncols).flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


class TestRank:
    @SETTINGS
    @given(matrices())
    def test_matches_the_reference(self, rows):
        assert rank(sparse(rows)) == gauss_jordan(rows)[0]

    @SETTINGS
    @given(
        st.integers(1, 3).flatmap(
            lambda r: st.tuples(matrices(rows=6, cols=r), matrices(rows=r, cols=7))
        )
    )
    def test_rank_deficient_products(self, factors):
        u, v = factors
        product = matmul(u, v)
        expected = gauss_jordan(product)[0]
        assert expected <= len(v)
        assert rank(sparse(product)) == expected

    @SETTINGS
    @given(matrices(), st.lists(st.integers(0, 7), max_size=3))
    def test_zero_rows_and_explicit_zeros_change_nothing(self, rows, positions):
        padded = sparse(rows)
        for pos in positions:
            padded.insert(min(pos, len(padded)), {0: 0, 3: Fraction(0)})
        assert rank(padded) == gauss_jordan(rows)[0]

    @SETTINGS
    @given(matrices())
    def test_prefix_ranks_match_the_reference_on_every_prefix(self, rows):
        ranks = prefix_ranks(sparse(rows))
        assert len(ranks) == len(rows)
        for i, value in enumerate(ranks):
            assert value == gauss_jordan(rows[: i + 1])[0]

    @SETTINGS
    @given(
        st.one_of(matrices(), matrices(entries=st.integers(-3, 3))),
        st.booleans(),
    )
    def test_rows_are_not_mutated(self, rows, explicit_zeros):
        # Each row is copied once; the copy, not the input, is reduced in
        # place and stored.
        given_rows = [
            integer_row({col: v for col, v in enumerate(row) if explicit_zeros or v != 0})
            for row in rows
        ]
        before = copy.deepcopy(given_rows)
        pivot_columns(given_rows)
        assert given_rows == before

    @SETTINGS
    @given(
        st.one_of(matrices(), matrices(entries=st.integers(-3, 3))),
        st.booleans(),
    )
    def test_a_one_shot_generator_gives_the_columns_of_its_list(self, rows, explicit_zeros):
        # The rows are read once each, in order: a generator of the rows
        # gives the columns of the list of them, and is used up.
        given_rows = [
            integer_row({col: v for col, v in enumerate(row) if explicit_zeros or v != 0})
            for row in rows
        ]
        before = copy.deepcopy(given_rows)
        stream = (row for row in given_rows)
        assert pivot_columns(stream) == pivot_columns(given_rows)
        assert next(stream, None) is None
        assert given_rows == before

    def test_explicit_zeros_are_never_pivots(self):
        # A zero at a row's largest key must not lead it: the copy drops it.
        rows = [{2: 0, 1: 3}, {2: 5, 0: 0}, {1: 0, 0: 0}, {2: 0, 1: 6, 0: 1}]
        before = copy.deepcopy(rows)
        assert pivot_columns(rows) == [1, 2, None, 0]
        assert rows == before

    def test_an_integer_row_reduced_with_unit_multiplier_is_not_mutated(self):
        # The second row is reduced as row - pivot, which edits whatever
        # dict the elimination holds: it must be a copy.
        rows = [{1: 1, 0: 1}, {1: 1, 0: 2}, {1: 2, 0: 0, 2: 4}]
        before = copy.deepcopy(rows)
        assert pivot_columns(rows) == [1, 0, 2]
        assert rows == before

    @SETTINGS
    @given(st.one_of(matrices(), matrices(entries=st.integers(-3, 3))))
    def test_stored_pivot_rows_are_primitive_and_led_by_their_column(self, rows):
        # The pivot-count argument needs stored rows led by distinct columns
        # that span the input; the reduction step pops every entry that
        # cancels, so no zero entry may survive in a stored row.
        pivots, columns = _eliminate(map(integer_row, sparse(rows)))
        assert sorted(pivots) == sorted(c for c in columns if c is not None)
        for col, row in pivots.items():
            assert max(row) == col
            assert all(v.__class__ is int and v != 0 for v in row.values())
            assert math.gcd(*row.values()) == 1
        assert rank(list(pivots.values())) == gauss_jordan(rows)[0]

    def test_empty_input(self):
        assert pivot_columns([]) == []
        assert pivot_columns([{}, {0: 0}]) == [None, None]
        assert rank([]) == 0
        assert rank([{}, {}]) == 0

    def test_column_keys_need_only_an_order(self):
        rows = [{("b", 1): 2, ("a", 7): Fraction(1, 3)}, {("a", 7): 1, ("b", 1): 6}]
        assert rank(rows) == 1
        assert rank(rows + [{("c", 0): -1}]) == 2

    @SETTINGS
    @given(
        st.tuples(st.integers(1, 7), st.integers(1, 3)).flatmap(
            lambda mr: st.tuples(
                matrices(rows=mr[0], cols=4),
                matrices(rows=mr[0], cols=mr[1]),
                matrices(rows=mr[1], cols=3),
            )
        )
    )
    def test_boundary_rank_identity(self, blocks):
        # rank([A|B]) - rank(B) is the rank of the A-parts of the row
        # combinations that vanish on B, i.e. of leftnull(B) @ A.  B is a
        # product through at most 3 dimensions, so it often has relations.
        # Every ("B", j) key is above every ("A", i) key, so that rank is
        # also the number of pivots in A of one elimination of [A|B].
        a, u, v = blocks
        b = matmul(u, v)
        rank_b, transform, _ = gauss_jordan(b)
        projected = matmul(transform[rank_b:], a) if rank_b < len(b) else []
        expected = gauss_jordan(projected)[0]
        joined = [ra | rb for ra, rb in zip(sparse(a, "A"), sparse(b, "B"))]
        assert rank(joined) - rank(sparse(b, "B")) == expected
        columns = pivot_columns(map(integer_row, joined))
        assert sum(column is not None and column[0] == "A" for column in columns) == expected


def sympy_rank(sympy, rows, columns):
    """Rank by sympy of sparse rows densified over the given column keys."""
    return sympy.Matrix(
        len(rows),
        len(columns),
        [sympy.Rational(Fraction(row.get(c, 0))) for row in rows for c in columns],
    ).rank()


class TestRankAgainstSympy:
    @SETTINGS
    @given(matrices())
    def test_random_rows(self, rows):
        sympy = pytest.importorskip("sympy")
        ncols = len(rows[0]) if rows else 0
        assert rank(sparse(rows)) == sympy_rank(sympy, sparse(rows), range(ncols))

    @pytest.mark.parametrize("cap", [2, 3, 4])
    def test_d_f_slices_of_det_h1(self, cap):
        # Every form degree and class (mod deg f = 2) of the slices that
        # truncated_drk_dims ranks for det H_1 = x0*x2 - x1^2.
        sympy = pytest.importorskip("sympy")
        f = hankel_determinant_poly(1)
        for residue in (0, 1):
            for k in range(f.nvars + 1):
                rows = list(_d_f_rows(f)(_class_basis(f.nvars, k, 2, residue, cap, (0,) * f.nvars)))
                columns = sorted({key for row in rows for key in row})
                assert rank(rows) == sympy_rank(sympy, rows, columns), (residue, k)


class TestDfSlicePivots:
    def test_stored_pivot_entries_on_a_det_h2_slice(self):
        # The 750-row slice of det H_2, class 1, form degree 3, cap 4 (rank
        # 605).  Integer column keys order as the (packed key, index tuple)
        # pairs, so the pivots and their fill-in match those of the pair
        # keys: 3772 stored entries either way.
        f = hankel_determinant_poly(2)
        rows = list(_d_f_rows(f)(_class_basis(f.nvars, 3, 3, 1, 4, (0,) * f.nvars)))
        pair_rows = [
            {_split_column_key(key, f.nvars, 4)[::-1]: c for key, c in row.items()}
            for row in rows
        ]
        counts = []
        for keyed in (rows, pair_rows):
            pivots, _ = _eliminate(keyed)
            assert (len(keyed), len(pivots)) == (750, 605)
            counts.append(sum(len(row) for row in pivots.values()))
        assert counts == [3772, 3772]


def hankel_point_matrix(n, rng):
    x = random_locus_point(n, rng.randint(0, n - 1), rng)
    return [[x[i + j] for j in range(n + 1)] for i in range(n + 1)]


class TestDet:
    @SETTINGS
    @given(st.integers(0, 7).flatmap(lambda n: matrices(rows=n, cols=n)))
    def test_matches_the_reference(self, rows):
        assert det(rows) == gauss_jordan(rows)[2]

    @SETTINGS
    @given(
        st.integers(1, 3).flatmap(
            lambda r: st.tuples(matrices(rows=5, cols=r), matrices(rows=r, cols=5))
        )
    )
    def test_singular_products_vanish(self, factors):
        assert det(matmul(*factors)) == 0

    def test_integer_input_gives_an_integer(self):
        value = det(((2, 1, 0), (1, 3, 1), (0, 1, 4)))
        assert value == 18 and value.denominator == 1

    def test_empty_and_non_square(self):
        assert det([]) == 1
        with pytest.raises(ValueError):
            det([[1, 2]])

    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 16), st.integers(0, 2**32))
    @example(16, 302)
    def test_hankel_point_matrices_against_the_reference(self, n, seed):
        rows = hankel_point_matrix(n, random.Random(seed))
        assert det(rows) == gauss_jordan(rows)[2]

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 16), st.integers(0, 2**32))
    @example(16, 302)
    def test_hankel_point_matrices_against_sympy(self, n, seed):
        sympy = pytest.importorskip("sympy")
        rows = hankel_point_matrix(n, random.Random(seed))
        expected = sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows]
        ).det(method="bareiss")
        assert det(rows) == Fraction(int(expected.p), int(expected.q))
