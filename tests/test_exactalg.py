"""Exact polynomial arithmetic, localization, and determinants."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from secantinv import exactalg
from secantinv.exactalg import (
    MAX_DEGREE,
    DimensionError,
    LocalizedPoly,
    MultiPoly,
    _negated_str,
    poly_det,
    rational_to_str,
)
from secantinv.hankel import _hankel, block_reduce, hankel_matrix
from secantinv.linalg import det
from tests.references import (
    random_locus_point,
    reference_eval,
    reference_mul,
    reference_to_str,
)

DET_H2 = "-x2^3 + 2*x1*x2*x3 - x0*x3^2 - x1^2*x4 + x0*x2*x4"


def p(nvars, text):
    return MultiPoly.from_str(nvars, text)


def loc(poly, var=0, power=0):
    return LocalizedPoly(poly, var, power)


def random_poly(rng, nvars, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return MultiPoly(nvars, terms)


def square(entries, size):
    """The size x size matrix, as rows, of row-major ``entries``."""
    return tuple(tuple(entries[size * i : size * (i + 1)]) for i in range(size))


class TestRationalSerialization:
    def test_integer_renders_bare(self):
        assert rational_to_str(Fraction(7)) == "7"

    def test_fraction_renders_with_slash(self):
        assert rational_to_str(Fraction(-3, 4)) == "-3/4"


class TestPolyDet:
    def test_1x1(self):
        m = ((loc(p(1, "x0")),),)
        assert poly_det(m) == loc(p(1, "x0"))

    def test_2x2_hankel(self):
        assert poly_det(hankel_matrix(1)) == LocalizedPoly(
            p(3, "x0*x2 - x1^2"), 0, 0
        )

    def test_det_h2_expansion(self):
        det = poly_det(hankel_matrix(2))
        assert det.power == 0
        assert det.num == p(5, DET_H2)

    def test_non_square_rejected(self):
        x0 = loc(p(1, "x0"))
        for m in (((x0, x0),), ((x0, x0), (x0,)), ((x0,), (x0, x0)), ((), ())):
            with pytest.raises(DimensionError, match="non-square"):
                poly_det(m)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError, match="empty"):
            poly_det(())

    def test_mixed_variable_counts_rejected(self):
        # The cofactor kernel multiplies packed terms without an arity check,
        # so these would come out as a malformed one-variable polynomial,
        # while a * b itself raises.
        a = LocalizedPoly(MultiPoly.variable(1, 0), 0)
        b = LocalizedPoly(MultiPoly.variable(2, 1), 0)
        with pytest.raises(DimensionError):
            a * b
        for m in (((a, b), (b, a)), ((b, a), (a, b)), ((a, a), (a, b))):
            with pytest.raises(DimensionError, match="variable counts"):
                poly_det(m)

    def test_det_is_multiplicative_on_3x3(self):
        rng = random.Random(21)
        for _ in range(6):
            a = square([loc(random_poly(rng, 2, 2, 2)) for _ in range(9)], 3)
            b = square([loc(random_poly(rng, 2, 2, 2)) for _ in range(9)], 3)
            assert poly_det(reference_mul(a, b)) == poly_det(a) * poly_det(b)

    def test_singular_matrix(self):
        # Equal rows, whose full minor cancels; a zero column; a zero row.
        x0, x1, zero = loc(p(2, "x0")), loc(p(2, "x1")), loc(p(2, "0"))
        for m in (((x0, x1), (x0, x1)), ((x0, zero), (x1, zero)), ((x0, x1), (zero, zero))):
            assert poly_det(m).num.is_zero()

    @pytest.mark.parametrize("size", [4, 5, 6, 7])
    def test_random_matrices_against_rational_det_at_points(self, size):
        # Independent oracle: evaluate first, then take the determinant of
        # the rational matrix with linalg.det.  Some entries are localized
        # at x0, so the row denominators are cleared as well.
        rng = random.Random(40 + size)
        entries = []
        for _ in range(size * size):
            num = random_poly(rng, 3, max_terms=2, max_exp=2)
            entries.append(loc(num, 0, rng.choice([0, 0, 1, 2])))
        m = square(entries, size)
        d = poly_det(m)
        assert not d.num.is_zero()
        for _ in range(3):
            pt = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(3)]
            at_pt = [[m[i][j].eval(pt) for j in range(size)] for i in range(size)]
            assert d.eval(pt) == det(at_pt)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hankel_det_against_rational_det_at_points(self, n):
        rng = random.Random(50 + n)
        d = poly_det(hankel_matrix(n))
        for _ in range(3):
            pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2 * n + 1)]
            assert d.eval(pt) == det([[pt[i + j] for j in range(n + 1)] for i in range(n + 1)])

    @pytest.mark.parametrize("n", range(1, 5))
    def test_hankel_det_against_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols(f"x0:{2 * n + 1}")
        expected = sympy.Poly(
            sympy.Matrix(n + 1, n + 1, lambda i, j: xs[i + j]).det(), *xs
        )
        got = poly_det(hankel_matrix(n)).num
        assert dict(got.terms) == {e: Fraction(int(c)) for e, c in expected.terms()}

    def test_localized_entries_share_the_denominator_variable(self):
        a = LocalizedPoly(p(2, "x1"), 0, 1)
        b = LocalizedPoly(p(2, "x0"), 1, 1)
        m = ((a, a), (b, b))
        with pytest.raises(DimensionError):
            poly_det(m)

    def test_a_triangular_matrix_builds_one_minor_per_level(self, monkeypatch):
        # The lowest row has one nonzero entry, and each row above adds one
        # column: the nonzero minors are the trailing column sets, one per
        # level, where every subset would be 2^7 - 1 = 127 minors.
        calls = []
        kernel = exactalg._sum_of_products

        def recording_kernel(pairs):
            calls.append(kernel(pairs))
            return calls[-1]

        monkeypatch.setattr(exactalg, "_sum_of_products", recording_kernel)
        size, zero = 7, loc(p(2, "0"))
        m = tuple(
            tuple(loc(p(2, f"{i + 1}*x{i % 2}")) if j >= i else zero for j in range(size))
            for i in range(size)
        )
        assert poly_det(m) == loc(p(2, "5040*x0^4*x1^3"))
        assert len(calls) == size
        assert all(calls)

    def test_peak_memory_holds_two_levels_of_minors(self):
        # Keeping every minor until the end peaked near 615 kB here; two
        # adjacent levels of minors stay near 365 kB.
        m = hankel_matrix(6)
        tracemalloc.start()
        try:
            poly_det(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 480_000, f"peak {peak / 1000:.0f} kB"


def row_weights(m):
    return [sum(len(e.num.packed) for e in row) for row in m]


def at_point(m, pt):
    return [[e.eval(pt) for e in row] for row in m]


class TestRowOrder:
    """poly_det expands the rows with the most terms first and multiplies by
    the sign of that reordering."""

    def test_every_row_permutation_gives_the_signed_determinant(self):
        # Row i holds entries of i + 1 terms, so the row weights are distinct
        # and every permutation below is undone by the sort.
        rng = random.Random(7)
        entries = []
        for i in range(4):
            for j in range(4):
                terms = {
                    (e, (i + j + e) % 3, (e * j) % 2):
                        Fraction(rng.randint(1, 9), rng.randint(1, 4))
                    for e in range(i + 1)
                }
                entries.append(loc(MultiPoly(3, terms), 0, (i + j) % 3))
        m = square(entries, 4)
        assert sorted(row_weights(m)) == [4, 8, 12, 16]
        d = poly_det(m)
        pt = [Fraction(3, 2), Fraction(-2, 5), Fraction(7)]
        assert d.eval(pt) == det(at_point(m, pt)) != 0
        for sigma in itertools.permutations(range(4)):
            rows = tuple(m[i] for i in sigma)
            inversions = sum(a > b for a, b in itertools.combinations(sigma, 2))
            assert poly_det(rows) == (-d if inversions % 2 else d), sigma

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in range(1, 6) for k in range(n)], ids=lambda v: str(v)
    )
    def test_block_reduction_determinants_against_rational_det(self, n, k):
        # N and the residual Hankel matrix have rows of unequal weight, so
        # the sort reorders them and the sign is exercised.
        rng = random.Random(100 * n + k)
        r = block_reduce(n, k)
        for m in (r.N_matrix, _hankel(r.y_coords[k + 2 :], n - k)):
            w = row_weights(m)
            assert len(m) == 1 or w != sorted(w, reverse=True)
            d = poly_det(m)
            for _ in range(2):
                pt = random_locus_point(n, k, rng)
                assert d.eval(pt) == det(at_point(m, pt))


class TestMonomialBoundary:
    """A monomial enters and leaves MultiPoly as its dense exponent tuple."""

    def test_wrong_length_tuple_rejected(self):
        with pytest.raises(DimensionError):
            MultiPoly(3, {(1, 0): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1, -1): 1})

    def test_variable_beyond_the_arity_rejected(self):
        with pytest.raises(DimensionError):
            MultiPoly.from_str(2, "x2")

    def test_terms_is_a_read_only_view_equal_to_the_dense_dict(self):
        terms = {(2, 0, 1): Fraction(-3, 2), (0, 1, 0): Fraction(4), (0, 0, 0): Fraction(1)}
        q = MultiPoly(3, terms)
        view = q.terms
        assert view == terms and dict(view) == terms
        assert MultiPoly(3, dict(view)) == q
        assert list(view) == [exactalg.unpack(key, 3) for key in q.packed]
        assert all(type(c) is Fraction for c in view.values())
        with pytest.raises(TypeError):
            view[(1, 0, 0)] = 1
        assert q.terms == terms  # nothing changed

    def test_terms_length_unpacks_no_key(self, monkeypatch):
        q = p(4, "x0*x3^2 - 2*x1 + 5")

        def no_unpack(key, nvars):
            raise AssertionError("unpack called")

        monkeypatch.setattr(exactalg, "unpack", no_unpack)
        assert len(q.terms) == 3
        assert q.terms[(1, 0, 0, 2)] == 1 and (0, 1, 0, 0) in q.terms

    @pytest.mark.parametrize(
        "exponents",
        [(1, 0), (1, 0, 0, 0), (-1, 0, 1), (0, 0, MAX_DEGREE + 1), (MAX_DEGREE, 1, 0), (0.5, 0, 0), 7, "x0"],
        ids=str,
    )
    def test_a_tuple_that_is_no_monomial_is_absent(self, exponents):
        # Neither packed nor looked up past the degree limit: no OverflowError.
        q = p(3, "x0 + x2^2")
        assert exponents not in q.terms
        assert q.terms.get(exponents) is None
        with pytest.raises(KeyError):
            q.terms[exponents]
        assert (0, 0, 2) in q.terms and (0, 1, 0) not in q.terms


POLE_AT_X0 = LocalizedPoly(p(2, "x1"), 0, 1)
POLE_AT_X1 = LocalizedPoly(p(2, "x0"), 1, 1)


@pytest.mark.parametrize(
    "combine",
    [
        lambda a, b: a + b,
        lambda a, b: a * b,
        lambda a, b: poly_det(((a, a), (b, b))),
    ],
    ids=["add", "mul", "det"],
)
def test_poles_at_two_variables_rejected(combine):
    for a, b in [(POLE_AT_X0, POLE_AT_X1), (POLE_AT_X1, POLE_AT_X0)]:
        with pytest.raises(DimensionError, match="x0 and x1"):
            combine(a, b)


class TestPolyEval:
    def test_direct_substitution(self):
        q = p(3, "x0*x2 - x1^2")
        assert q.eval([1, 0, 1]) == 1

    def test_rational_point(self):
        q = p(3, "x0*x2 - x1^2")
        assert q.eval([2, 3, 5]) == 1

    def test_rank_two_hankel_point_is_a_zero(self):
        det = poly_det(hankel_matrix(2)).num
        assert det.eval([1, 0, 0, 0, 1]) == 0

    @pytest.mark.parametrize("nvars, point", [(3, [1, 2]), (3, [1, 2, 3, 4]), (0, [1])])
    def test_arity_mismatch(self, nvars, point):
        with pytest.raises(DimensionError):
            MultiPoly.const(nvars, 2).eval(point)

    @pytest.mark.parametrize("nvars", range(7))
    def test_matches_the_fraction_evaluator(self, nvars):
        # Integer and Fraction coefficients, at points mixing zero, negative
        # and non-integral coordinates given as int or Fraction.
        rng = random.Random(7000 + nvars)
        coordinates = [0, 1, -1, 3, -7, Fraction(0), Fraction(-4), Fraction(5, 3), Fraction(-2, 9)]
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(0, 8)):
                mono = tuple(rng.randint(0, 5) for _ in range(nvars))
                if rng.random() < 0.5:
                    terms[mono] = rng.randint(-9, 9)
                else:
                    terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            q = MultiPoly(nvars, terms)
            pt = [rng.choice(coordinates) for _ in range(nvars)]
            value = q.eval(pt)
            assert type(value) is Fraction
            assert value == reference_eval(q, pt)

    def test_sparse_high_degree_matches_the_fraction_evaluator(self):
        q = MultiPoly(2, {(MAX_DEGREE, 0): Fraction(1, 3), (1, 7): -2, (0, 0): 5})
        for pt in ([Fraction(3, 2), Fraction(-5, 7)], [Fraction(-1, 2), 0], [0, Fraction(2, 3)]):
            assert q.eval(pt) == reference_eval(q, pt)

    def test_eval_is_a_ring_homomorphism(self):
        rng = random.Random(22)
        for _ in range(50):
            a = random_poly(rng, 3)
            b = random_poly(rng, 3)
            pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
            assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
            assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)


def split_by_degree(q):
    """The homogeneous parts of q keyed by degree, built from its dense terms."""
    parts = {}
    for e, c in q.terms.items():
        parts.setdefault(sum(e), {})[e] = c
    return {d: MultiPoly(q.nvars, t) for d, t in sorted(parts.items())}


class TestHomogeneousComponents:
    def test_zero(self):
        zero = MultiPoly.zero(3)
        assert split_by_degree(zero) == {}
        assert zero.is_homogeneous() and zero.total_degree() == -1

    def test_split_by_inspection(self):
        q = p(3, "x0 + x1*x2")
        assert not q.is_homogeneous()
        comps = split_by_degree(q)
        assert set(comps) == {1, 2}
        assert comps[1] == p(3, "x0")
        assert comps[2] == p(3, "x1*x2")

    def test_determinant_is_homogeneous(self):
        det = poly_det(hankel_matrix(2)).num
        assert det.is_homogeneous()
        assert det.total_degree() == 3

    def test_components_sum_to_original(self):
        rng = random.Random(23)
        for _ in range(20):
            q = random_poly(rng, 3)
            total = MultiPoly.zero(3)
            for d, comp in split_by_degree(q).items():
                assert comp.is_homogeneous() and comp.total_degree() == d
                total = total + comp
            assert total == q


class TestRingAxioms:
    def test_500_random_triples(self):
        rng = random.Random(24)
        for _ in range(500):
            a = random_poly(rng, 2, 3, 2)
            b = random_poly(rng, 2, 3, 2)
            c = random_poly(rng, 2, 3, 2)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a

    def test_cross_arity_operations_are_errors(self):
        with pytest.raises(DimensionError):
            p(2, "x0") + p(3, "x0")
        with pytest.raises(DimensionError):
            p(2, "x0") * p(3, "x0")
        with pytest.raises(DimensionError):
            loc(p(2, "x0")) + loc(p(3, "x0"))
        with pytest.raises(DimensionError):
            loc(p(2, "x0")) * loc(p(3, "x0"))


class TestLocalizedPoly:
    def test_normalization_divides_out_the_variable(self):
        q = LocalizedPoly(p(2, "x0^2*x1"), 0, 3)
        assert q.power == 1
        assert q.num == p(2, "x1")

    def test_power_zero_is_polynomial(self):
        q = LocalizedPoly(p(2, "x0*x1"), 0, 0)
        assert q.power == 0

    def test_inverse_times_variable_is_one(self):
        inv = LocalizedPoly(MultiPoly.const(2, 1), 0, 1)
        x0 = loc(p(2, "x0"))
        assert inv * x0 == LocalizedPoly(MultiPoly.const(2, 1), 0, 0)

    def test_addition_uses_common_denominator(self):
        a = LocalizedPoly(p(2, "x1"), 0, 2)
        b = LocalizedPoly(p(2, "x0"), 0, 1)
        assert a + b == LocalizedPoly(p(2, "x1 + x0^2"), 0, 2)

    def test_eval(self):
        q = LocalizedPoly(p(2, "x1"), 0, 1)
        assert q.eval([Fraction(2), Fraction(6)]) == 3

    @pytest.mark.parametrize("point", [[1], [1, 2], [1, 2, 3, 4]])
    def test_eval_checks_the_arity_before_reading_the_pole(self, point):
        # [1] is too short to hold x2: the arity error comes before the index.
        with pytest.raises(DimensionError):
            LocalizedPoly(MultiPoly.variable(3, 0), 2, 1).eval(point)

    def test_eval_at_a_zero_pole_raises(self):
        q = LocalizedPoly(p(3, "x0 + x2"), 1, 2)
        assert q.eval([1, Fraction(1, 2), 3]) == 16
        with pytest.raises(ZeroDivisionError):
            q.eval([1, 0, 3])

    def test_negative_variable_power_rejected(self):
        # A power of the pole variable cancels the pole; the numerator's
        # shift, which addition and clearing denominators use, refuses
        # negative powers.
        q = LocalizedPoly(p(2, "x1"), 0, 1)
        assert q * loc(p(2, "x0^2")) == LocalizedPoly(p(2, "x0*x1"), 0, 0)
        with pytest.raises(ValueError):
            q.num.mul_var_power(0, -1)

    def test_equality_of_an_object_with_itself_reads_no_terms(self):
        class Unreadable(dict):
            def __eq__(self, other):
                raise AssertionError("terms compared")

            __hash__ = None

        q = LocalizedPoly(p(2, "x1"), 0, 1)
        q.num = MultiPoly(2)
        q.num.packed = Unreadable({1: 1})
        assert q == q and q.num == q.num
        assert not q != q
        with pytest.raises(AssertionError):
            q == LocalizedPoly(p(2, "x1"), 0, 1)

    def test_equality_with_another_type_is_not_implemented(self):
        q = LocalizedPoly(p(2, "x1"), 0, 1)
        assert q.__eq__(q.num) is NotImplemented
        assert q.__eq__(1) is NotImplemented
        assert q != 1 and q != q.num

    def test_mixed_localizations_rejected(self):
        a = LocalizedPoly(p(2, "x1"), 0, 1)
        b = LocalizedPoly(p(2, "x0"), 1, 1)
        with pytest.raises(DimensionError):
            a + b

    @pytest.mark.parametrize("var, power", [(0, 0), (0, 2), (1, 1)])
    def test_power_matches_the_repeated_product(self, var, power):
        base = LocalizedPoly(p(3, "x1 - 2/3*x0*x2 + x2^2"), var, power)
        acc = LocalizedPoly(MultiPoly.const(3, 1), var)
        for exp in range(7):
            got = base**exp
            assert got == acc and got.var == acc.var, exp
            acc = acc * base

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            LocalizedPoly(p(2, "x1"), 0, 1) ** -1


class TestSerialization:
    def test_graded_lex_order_in_output(self):
        q = p(3, "x2 + x0 + x1^2")
        exps = [rec["exponents"] for rec in q.to_obj()]
        assert exps == [[0, 2, 0], [1, 0, 0], [0, 0, 1]]

    def test_str_round_trip(self):
        rng = random.Random(25)
        for _ in range(40):
            q = random_poly(rng, 3)
            assert MultiPoly.from_str(3, q.to_str()) == q

    @pytest.mark.parametrize("nvars", [1, 3, 6])
    def test_to_str_matches_the_reference_formatter(self, nvars):
        rng = random.Random(40 + nvars)
        seen = set()
        for _ in range(150):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                mono = tuple(rng.choice((0, 0, 1, 2, 13)) for _ in range(nvars))
                terms[mono] = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 7)))
            if rng.random() < 0.3:
                terms[(0,) * nvars] = Fraction(rng.randint(-3, 3), rng.choice((1, 5)))
            coeffs = list(terms.values())
            if 0 in coeffs:
                seen.add("zero term")
            if any(c < 0 for c in coeffs):
                seen.add("negative")
            if any(c.denominator > 1 for c in coeffs):
                seen.add("fraction")
            q = MultiPoly(nvars, terms)
            if q.is_zero():
                seen.add("zero polynomial")
            if (0,) * nvars in q.terms:
                seen.add("constant")
            for r in (q, -q, q * q):
                assert r.to_str() == reference_to_str(r)
            assert _negated_str(q.to_str()) == (-q).to_str()
        assert seen == {"zero term", "negative", "fraction", "zero polynomial", "constant"}

    def test_exact_fractions_survive(self):
        q = p(2, "1/3*x0 - 2/7")
        assert MultiPoly.from_str(2, q.to_str()) == q
