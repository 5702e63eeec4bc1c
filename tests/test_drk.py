"""Twisted de Rham complex: differential, grading, residues, eigenvectors."""

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from secantinv import drk, linalg
from secantinv.drk import (
    ExtForm,
    GradedClass,
    MixedDegreeError,
    PoleSurvivesError,
    ResidueMismatchError,
    connecting_map,
    d_f,
    hankel_determinant_poly,
    homogeneous_class,
    n2_eigenvectors,
    truncated_drk_dims,
    univariate_drk_cohomology,
)
from secantinv.cohomtables import RootOfUnity, monodromy_eigentable
from secantinv.exactalg import MAX_DEGREE, MultiPoly, key_degree, pack, unpack
from secantinv.linalg import pivot_columns
from tests.references import (
    dims_at,
    proportionality,
    reference_class_basis,
    reference_d_f,
    reference_rows,
)


def p(nvars, text):
    return MultiPoly.from_str(nvars, text)


def random_homogeneous(rng, nvars, degree, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = [0] * nvars
        for _ in range(degree):
            expo[rng.randrange(nvars)] += 1
        terms[tuple(expo)] = Fraction(rng.randint(-5, 5))
    poly = MultiPoly(nvars, terms)
    return poly if not poly.is_zero() else MultiPoly.variable(nvars, 0) ** degree


def random_form(rng, nvars, degree, coeff_degree=3):
    terms = {}
    indices = list(range(nvars))
    for _ in range(rng.randint(1, 3)):
        rng.shuffle(indices)
        idx = tuple(sorted(indices[:degree]))
        expo = [0] * nvars
        for _ in range(rng.randint(0, coeff_degree)):
            expo[rng.randrange(nvars)] += 1
        coeff = MultiPoly(nvars, {tuple(expo): Fraction(rng.randint(-4, 4))})
        existing = terms.get(idx)
        terms[idx] = coeff if existing is None else existing + coeff
    return ExtForm(nvars, degree, terms)


def log_lift(form, v):
    """The log form w ^ dx_v / x_v: dx_I ^ dx_v moves dx_v left past the
    indices of I larger than v."""
    terms = {
        tuple(sorted(idx + (v,))): coeff.scale((-1) ** sum(i > v for i in idx))
        for idx, coeff in form.terms.items()
    }
    return ExtForm(form.nvars, form.degree + 1, terms, log_var=v)


def strip_pole(form):
    """The pole-free form of a log form whose stored coefficients x_v
    divides (MultiPoly.div_var_power raises ValueError otherwise)."""
    v = form.log_var
    terms = {idx: coeff.div_var_power(v, 1) for idx, coeff in form.terms.items()}
    return ExtForm(form.nvars, form.degree, terms)


ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefficients = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


def polys(nvars, degree=None, free_of=None):
    """Polynomials with at most four terms: homogeneous of ``degree`` if
    given, else of degree at most 3 in each variable except x_free_of."""
    if degree is None:
        exponents = st.tuples(
            *[st.just(0) if i == free_of else st.integers(0, 3) for i in range(nvars)]
        )
    else:
        exponents = st.lists(
            st.integers(0, nvars - 1), min_size=degree, max_size=degree
        ).map(lambda vs: tuple(vs.count(i) for i in range(nvars)))
    return st.dictionaries(exponents, coefficients, max_size=4).map(
        lambda d: MultiPoly(nvars, d)
    )


def forms(nvars, degree, free_of=None):
    """Pole-free forms; with ``free_of = v`` no term has dx_v and no
    coefficient involves x_v."""
    slots = [idx for idx in combinations(range(nvars), degree) if free_of not in idx]
    coeffs = polys(nvars, free_of=free_of)
    return st.dictionaries(st.sampled_from(slots), coeffs, min_size=1, max_size=3).map(
        lambda terms: ExtForm(nvars, degree, terms)
    )


@st.composite
def twisted_cases(draw):
    """(f, w): f homogeneous, w of any form degree 0..nvars."""
    nvars = draw(st.integers(1, 4))
    f = draw(polys(nvars, draw(st.integers(1, 3))))
    return f, draw(forms(nvars, draw(st.integers(0, nvars))))


@st.composite
def log_lift_cases(draw):
    """(f, w, v) with w = D_g(u) for g = f restricted to {x_v = 0} and u
    free of x_v: w is D_g-closed, so D_f of its lift across {x_v = 0}
    loses the pole.  w reaches form degree nvars - 1."""
    nvars = draw(st.integers(2, 4))
    v = draw(st.integers(0, nvars - 1))
    f = draw(polys(nvars, draw(st.integers(1, 3))))
    u = draw(forms(nvars, draw(st.integers(0, nvars - 2)), free_of=v))
    w = reference_d_f(f.substitute(v, 0), u)
    assume(not w.is_zero())
    return f, w, v


@st.composite
def hyperplane_cases(draw):
    """(f, w, v) with w any form on {x_v = 0}, closed there or not."""
    nvars = draw(st.integers(2, 4))
    v = draw(st.integers(0, nvars - 1))
    f = draw(polys(nvars, draw(st.integers(1, 3))))
    return f, draw(forms(nvars, draw(st.integers(0, nvars - 1)), free_of=v)), v


class TestSingleKernelAgainstReference:
    @ORACLE_SETTINGS
    @given(twisted_cases())
    def test_d_f_matches_the_reference(self, case):
        f, form = case
        assert d_f(f, form) == reference_d_f(f, form)

    @ORACLE_SETTINGS
    @given(twisted_cases())
    def test_d_f_squares_to_zero(self, case):
        f, form = case
        assert d_f(f, d_f(f, form)).is_zero()

    @ORACLE_SETTINGS
    @given(log_lift_cases())
    def test_connecting_map_strips_the_reference_image_of_the_lift(self, case):
        f, form, v = case
        assert connecting_map(f, form, v) == strip_pole(reference_d_f(f, log_lift(form, v)))

    @ORACLE_SETTINGS
    @given(hyperplane_cases())
    def test_connecting_map_raises_exactly_when_the_reference_pole_survives(self, case):
        f, form, v = case
        image = reference_d_f(f, log_lift(form, v))
        try:
            expected = strip_pole(image)
        except ValueError:
            with pytest.raises(PoleSurvivesError):
                connecting_map(f, form, v)
        else:
            assert connecting_map(f, form, v) == expected


class TestTwistedDifferential:
    def test_constant_goes_to_c_times_df(self):
        f = p(2, "x0^2*x1")
        form = ExtForm(2, 0, {(): MultiPoly.const(2, 3)})
        got = d_f(f, form)
        assert got == ExtForm(
            2, 1, {(0,): p(2, "6*x0*x1"), (1,): p(2, "3*x0^2")}
        )

    def test_univariate_example(self):
        z3 = MultiPoly.variable(1, 0) ** 3
        form = ExtForm(1, 0, {(): MultiPoly.variable(1, 0)})
        assert d_f(z3, form) == ExtForm(1, 1, {(0,): p(1, "3*x0^3 + 1")})

    def test_top_forms_are_closed(self):
        f = hankel_determinant_poly(2)
        top = ExtForm(5, 5, {(0, 1, 2, 3, 4): p(5, "2*x1*x3 - 2*x2^2")})
        assert d_f(f, top).is_zero()

    def test_squares_to_zero_on_200_random_forms(self):
        rng = random.Random(40)
        for _ in range(200):
            nvars = rng.randint(2, 5)
            f = random_homogeneous(rng, nvars, rng.randint(1, 3))
            form = random_form(rng, nvars, rng.randint(0, nvars - 1))
            assert d_f(f, d_f(f, form)).is_zero()

    def test_log_forms_rejected(self):
        f = p(2, "x0^2")
        lifted = ExtForm(2, 1, {(1,): MultiPoly.const(2, 1)}, log_var=1)
        with pytest.raises(ValueError):
            d_f(f, lifted)

    def test_arity_mismatch_rejected(self):
        from secantinv.exactalg import DimensionError

        with pytest.raises(DimensionError):
            d_f(p(3, "x0^2"), ExtForm(2, 0, {(): MultiPoly.const(2, 1)}))

    def test_preserves_graded_class(self):
        rng = random.Random(41)
        for _ in range(40):
            nvars = rng.randint(2, 4)
            modulus = rng.randint(1, 4)
            f = random_homogeneous(rng, nvars, modulus)
            degree = rng.randint(0, nvars - 1)
            coeff_deg = rng.randint(0, 3)
            idx = tuple(range(degree))
            coeff = random_homogeneous(rng, nvars, coeff_deg)
            form = ExtForm(nvars, degree, {idx: coeff})
            image = d_f(f, form)
            if image.is_zero():
                continue
            before = homogeneous_class(form, modulus)
            after = homogeneous_class(image, modulus)
            assert before.residue == after.residue


@st.composite
def monomial_forms(draw, nvars, k):
    """(index tuple, packed key) of a monomial k-form, with total degree up
    to MAX_DEGREE."""
    indices = tuple(sorted(draw(st.sets(st.integers(0, nvars - 1), min_size=k, max_size=k))))
    total = draw(st.integers(0, MAX_DEGREE))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=nvars - 1, max_size=nvars - 1)))
    bounds = [0, *cuts, total]
    return indices, pack([hi - lo for lo, hi in zip(bounds, bounds[1:])])


@st.composite
def monomial_form_pairs(draw):
    nvars = draw(st.integers(1, 7))
    k = draw(st.integers(0, nvars))
    return nvars, k, draw(monomial_forms(nvars, k)), draw(monomial_forms(nvars, k))


class TestColumnKey:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(monomial_form_pairs())
    @example((7, 7, (tuple(range(7)), pack([MAX_DEGREE] + [0] * 6)), (tuple(range(7)), 0)))
    @example((7, 3, ((4, 5, 6), pack([0] * 6 + [MAX_DEGREE])), ((0, 1, 2), 0)))
    @example((7, 3, ((4, 5, 6), 0), ((0, 1, 2), pack([1] + [0] * 6))))
    def test_orders_as_the_pair_and_round_trips(self, case):
        # Keys order as the (packed key, index tuple) pair, so by coefficient
        # degree first.  The largest-key pivot and the fill-in of the D_f
        # elimination depend only on this order.
        nvars, k, a, b = case
        key_a, key_b = (drk._column_key(idx, key, nvars) for idx, key in (a, b))
        assert (key_a < key_b) == (a[::-1] < b[::-1])
        assert (key_a == key_b) == (a == b)
        for column, (idx, key) in ((key_a, a), (key_b, b)):
            assert drk._split_column_key(column, nvars, k) == (idx, key)
            assert drk._column_degree(column, nvars) == key_degree(key, nvars)

    def test_d_f_rows_have_int_keys_and_entries(self):
        f = hankel_determinant_poly(2)
        rows = drk._d_f_rows(f)(drk._class_basis(5, 3, 3, 1, 4, (0,) * 5))
        assert all(
            key.__class__ is int and c.__class__ is int for row in rows for key, c in row.items()
        )

    def test_d_f_takes_only_the_partials_its_wedges_need(self, monkeypatch):
        # Every term of a 4-form in 5 variables misses one index, x_2 here:
        # D_f reads df/dx_2 alone.
        f = hankel_determinant_poly(2)
        form = ExtForm(5, 4, {(0, 1, 3, 4): p(5, "x0*x2 + x3^2")})
        expected = reference_d_f(f, form)
        differentiated = []
        derivative = MultiPoly.derivative

        def counting(poly, idx):
            differentiated.append(idx)
            return derivative(poly, idx)

        monkeypatch.setattr(MultiPoly, "derivative", counting)
        assert d_f(f, form) == expected
        assert differentiated == [2]

    def test_d_f_past_the_packed_degree_limit_raises(self):
        # x0 * x1 times x0^MAX_DEGREE dx1 would overflow the packed key.
        f = p(2, "x0*x1")
        below = ExtForm(2, 1, {(1,): MultiPoly(2, {(MAX_DEGREE - 1, 0): 1})})
        top = MultiPoly(2, {(MAX_DEGREE - 1, 1): 1, (MAX_DEGREE - 2, 0): MAX_DEGREE - 1})
        assert d_f(f, below) == ExtForm(2, 2, {(0, 1): top})
        at_limit = ExtForm(2, 1, {(1,): MultiPoly(2, {(MAX_DEGREE, 0): 1})})
        with pytest.raises(OverflowError):
            d_f(f, at_limit)


class TestGrading:
    def test_single_dx(self):
        form = ExtForm(5, 1, {(2,): MultiPoly.const(5, 1)})
        assert homogeneous_class(form, 3) == GradedClass(1, 3)

    def test_top_form_degrees(self):
        alpha1 = ExtForm(5, 5, {(0, 1, 2, 3, 4): p(5, "2*x1*x3 - 2*x2^2")})
        # A modulus above the degree makes the residue the degree itself.
        assert homogeneous_class(alpha1, 100).residue == 7
        assert homogeneous_class(alpha1, 3) == GradedClass(1, 3)
        alpha2 = ExtForm(5, 5, {(0, 1, 2, 3, 4): p(5, "2*x1*x2*x3 - 2*x2^3")})
        assert homogeneous_class(alpha2, 100).residue == 8
        assert homogeneous_class(alpha2, 3) == GradedClass(2, 3)

    def test_log_pole_counts_as_degree_zero(self):
        lifted = ExtForm(2, 2, {(0, 1): MultiPoly.const(2, 1)}, log_var=1)
        assert homogeneous_class(lifted, 100).residue == 1

    def test_mixed_degrees_raise(self):
        form = ExtForm(2, 1, {(0,): p(2, "1 + x0")})
        with pytest.raises(MixedDegreeError):
            homogeneous_class(form, 3)


class TestUnivariateCohomology:
    def test_m1(self):
        basis = univariate_drk_cohomology(1)
        assert [b.to_str() for b in basis] == ["(1)*dx0"]

    def test_m3(self):
        basis = univariate_drk_cohomology(3)
        assert len(basis) == 3
        assert [b.to_str() for b in basis] == ["(1)*dx0", "(x0)*dx0", "(x0^2)*dx0"]

    def test_m2_log(self):
        basis = univariate_drk_cohomology(2, log=True)
        assert len(basis) == 3
        assert basis[0].has_log_pole()
        assert [b.to_str() for b in basis[1:]] == ["(1)*dx0", "(x0)*dx0"]

    def test_dimensions_up_to_10(self):
        for m in range(1, 11):
            assert len(univariate_drk_cohomology(m, log=False)) == m
            assert len(univariate_drk_cohomology(m, log=True)) == m + 1

    @pytest.mark.parametrize(
        "log, position, message",
        [
            (False, 0, "H^0 of the univariate complex is nonzero"),
            (True, -1, "stated univariate basis is dependent modulo the image"),
        ],
        ids=["domain", "basis"],
    )
    def test_mismatch_raises(self, monkeypatch, log, position, message):
        # The first row is a domain row, the last a basis row.
        def dropped(rows):
            columns = pivot_columns(rows)
            columns[position] = None
            return columns

        monkeypatch.setattr(drk, "pivot_columns", dropped)
        with pytest.raises(drk.CohomologyMismatchError) as raised:
            univariate_drk_cohomology(3, log=log)
        assert str(raised.value) == message

    def test_basis_classes_avoid_eigenvalue_one(self):
        # z^j dz has homogeneous degree j+1, never 0 mod m+1 for j < m.
        for m in range(1, 11):
            for j, form in enumerate(univariate_drk_cohomology(m)):
                cls = homogeneous_class(form, m + 1)
                assert cls.residue == (j + 1) % (m + 1)
                assert cls.residue != 0


class TestTruncatedDims:
    def test_cubic_class_one(self):
        z3 = MultiPoly.variable(1, 0) ** 3
        result = truncated_drk_dims(z3, 3, 1, 9)
        assert result.dims == ((0, 0), (1, 1))
        assert result.stabilized

    def test_cubic_class_zero_excludes_eigenvalue_one(self):
        z3 = MultiPoly.variable(1, 0) ** 3
        result = truncated_drk_dims(z3, 3, 0, 9)
        assert dict(result.dims)[1] == 0
        assert result.stabilized

    def test_all_classes_for_small_powers(self):
        for m in (1, 2, 3):
            g = MultiPoly.variable(1, 0) ** (m + 1)
            for a in range(m + 1):
                result = truncated_drk_dims(g, m + 1, a, 3 * (m + 1))
                assert result.stabilized
                assert dict(result.dims)[1] == (1 if a != 0 else 0)

    def test_independent_of_truncation_beyond_twice_the_degree(self):
        for m in (1, 2, 3, 4, 5):
            g = MultiPoly.variable(1, 0) ** (m + 1)
            for a in range(m + 1):
                small = truncated_drk_dims(g, m + 1, a, 2 * (m + 1))
                large = truncated_drk_dims(g, m + 1, a, 4 * (m + 1))
                assert small.dims == large.dims

    @pytest.mark.parametrize("a", [1, 2])
    def test_hankel_3x3_classes_match_the_eigentable(self, a):
        # e^(2 pi i a/3) has multiplicity 1 on the Milnor fiber of det H_2;
        # its class-a slice is one-dimensional, all in the top form degree.
        multiplicity = sum(
            mult
            for lam, _, mult in monodromy_eigentable(2)
            if lam == RootOfUnity(a, 3)
        )
        result = truncated_drk_dims(hankel_determinant_poly(2), 3, a, 3)
        assert multiplicity == 1
        assert result.dims == tuple((k, int(k == 5)) for k in range(6))
        # Class 1 stabilizes only at truncation 6 (see the next test).
        assert result.stabilized == (a == 2)

    def test_hankel_3x3_class_one_stabilizes_at_truncation_six(self):
        result = truncated_drk_dims(hankel_determinant_poly(2), 3, 1, 6)
        assert result.dims == tuple((k, int(k == 5)) for k in range(6))
        assert result.stabilized

    @pytest.mark.parametrize(
        "n, residue, truncation, degrees",
        [(2, 1, 3, None), (2, 1, 6, None), (2, 2, 3, None), (3, 1, 4, [7])],
    )
    def test_lower_forms_count_the_forms_at_truncation_minus_n(
        self, n, residue, truncation, degrees
    ):
        # One count per wanted form degree: the weight-0 forms of the slice
        # at coefficient degree <= truncation - N.
        f = hankel_determinant_poly(n)
        result = truncated_drk_dims(f, n + 1, residue, truncation, degrees)
        lower = truncation - (n + 1)
        weights = drk._weights(f)
        assert result.lower_forms == tuple(
            (k, len(reference_class_basis(f.nvars, k, n + 1, residue, lower, weights)))
            for k, _ in result.dims
        )

    @pytest.mark.parametrize("n, truncation, k", [(2, 3, 5), (3, 4, 7)])
    def test_an_empty_lower_level_marks_the_false_negative(self, n, truncation, k):
        # Class 1 of det H_2 at truncation 3 (and of det H_3 at truncation
        # 4) has its one class in form degree k, but truncation - N leaves
        # no form of degree k to carry it: `stabilized` is False only
        # because that level is empty.
        f = hankel_determinant_poly(n)
        result = truncated_drk_dims(f, n + 1, 1, truncation, [k])
        assert result.dims == ((k, 1),)
        assert not result.stabilized
        assert result.lower_forms == ((k, 0),)
        settled = truncated_drk_dims(f, n + 1, 1, truncation + n + 1, [k])
        assert dict(settled.lower_forms)[k] > 0

    def test_hankel_3x3_class_zero_vanishes(self):
        # Eigenvalue 1 lives only in H^0, which reduced cohomology drops.
        result = truncated_drk_dims(hankel_determinant_poly(2), 3, 0, 3)
        assert result.dims == tuple((k, 0) for k in range(6))
        assert result.stabilized

    @pytest.mark.parametrize("a, stabilized", [(1, False), (3, True)])
    def test_hankel_4x4_classes_of_plus_minus_i(self, a, stabilized):
        # e^(2 pi i a/4) = +-i has multiplicity 1 on the Milnor fiber of
        # det H_3; at truncation 4 its class-a slice in the top form degree
        # is one-dimensional.  `stabilized` is pinned as it comes out: class
        # 1 differs one modulus below, at truncation 0.
        multiplicity = sum(
            mult
            for lam, _, mult in monodromy_eigentable(3)
            if lam == RootOfUnity(a, 4)
        )
        result = truncated_drk_dims(hankel_determinant_poly(3), 4, a, 4, [7])
        assert multiplicity == 1
        assert result.dims == ((7, 1),)
        assert result.stabilized == stabilized

    @pytest.mark.parametrize("n, a", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
    def test_eigentable_entries_sit_in_form_degree_two_j_plus_one(self, n, a):
        # Each eigenvalue e^(2 pi i p/q) at index j > 0 of the eigentable is
        # one class of D_f in the graded class p*(n+1)/q and form degree
        # 2j + 1; eigenvalue 1 sits at j = 0 only, which reduced cohomology
        # drops, so class 0 vanishes.  `stabilized` is pinned as it comes out.
        f = hankel_determinant_poly(n)
        expected = [0] * (f.nvars + 1)
        for lam, j, mult in monodromy_eigentable(n):
            if j > 0 and lam.p * (n + 1) // lam.q == a:
                expected[2 * j + 1] += mult
        assert sum(expected) == (a != 0)
        result = truncated_drk_dims(f, n + 1, a, 6)
        assert result.dims == tuple(enumerate(expected))
        assert result.stabilized

    @pytest.mark.parametrize("a, k, stabilized", [(1, 7, True), (2, 5, False), (3, 7, True)])
    def test_det_h3_eigentable_entries_at_truncation_eight(self, a, k, stabilized):
        # The same map on n = 3, in the one form degree 2j + 1 the eigentable
        # names for class a: +-i at j = 3 (form degree 7), -1 at j = 2 (form
        # degree 5).  Class 2 gives 0 at truncation 4, so it is not
        # stabilized at 8; `stabilized` is pinned as it comes out.
        expected = [0] * 8
        for lam, j, mult in monodromy_eigentable(3):
            if j > 0 and lam.p * 4 // lam.q == a:
                expected[2 * j + 1] += mult
        assert expected[k] == sum(expected) == 1
        result = truncated_drk_dims(hankel_determinant_poly(3), 4, a, 8, [k])
        assert result.dims == ((k, 1),)
        assert result.stabilized == stabilized

    @pytest.mark.parametrize("c", [Fraction(2, 3), Fraction(-5, 7)])
    @pytest.mark.parametrize("n, residue, truncation", [(1, 0, 6), (1, 1, 6), (2, 1, 3)])
    def test_a_rational_multiple_of_f_has_the_same_dims(self, c, n, residue, truncation):
        # x -> t*x with t^N = c carries D_f onto D_(cf) degree by degree, so
        # clearing the denominators of cf changes nothing.
        f = hankel_determinant_poly(n)
        scaled = truncated_drk_dims(f.scale(c), n + 1, residue, truncation)
        assert scaled == truncated_drk_dims(f, n + 1, residue, truncation)

    def test_one_elimination_per_form_degree(self, monkeypatch):
        # Every needed form degree is eliminated once, over its forms of
        # weight 0 only, and both truncation levels are read from those
        # eliminations: no other elimination runs.
        eliminated = []

        def counting(rows):
            rows = list(rows)
            eliminated.append(len(rows))
            return eliminate(rows)

        eliminate = linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate", counting)
        f = hankel_determinant_poly(1)
        result = truncated_drk_dims(f, 2, 1, 6)
        assert result.dims == ((0, 0), (1, 0), (2, 0), (3, 1))
        # Form degrees 0-2 are read up to truncation + 1 as the image side
        # of the next degree; the top degree only up to the truncation.
        top = [6 + 1] * 3 + [6]
        weights = drk._weights(f)
        kept = [len(drk._class_basis(f.nvars, j, 2, 1, cap, weights)) for j, cap in enumerate(top)]
        full = [
            len(drk._class_basis(f.nvars, j, 2, 1, cap, (0,) * f.nvars)) for j, cap in enumerate(top)
        ]
        assert sorted(eliminated) == sorted(kept)
        assert kept == [10, 22, 30, 10] and full == [70, 150, 210, 50]

    def test_f_is_differentiated_once_per_call(self, monkeypatch):
        # Slices 1 and 2 of det H_2 share one row builder, which takes each
        # of f's five partials once; a second call builds its own, as no
        # table outlives a call.
        f = hankel_determinant_poly(2)
        differentiated = []
        derivative = MultiPoly.derivative

        def counting(poly, idx):
            differentiated.append(idx)
            return derivative(poly, idx)

        monkeypatch.setattr(MultiPoly, "derivative", counting)
        first = truncated_drk_dims(f, 3, 1, 3, [2])
        assert sorted(differentiated) == [0, 1, 2, 3, 4]
        assert truncated_drk_dims(f, 3, 1, 3, [2]) == first
        assert sorted(differentiated) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    @pytest.mark.parametrize("degrees", [[7], [-1], [1, 4]])
    def test_form_degrees_outside_zero_to_nvars_rejected(self, degrees):
        # A 3-variable f has form degrees 0..3 only.
        with pytest.raises(ValueError, match=r"0\.\.3"):
            truncated_drk_dims(hankel_determinant_poly(1), 2, 1, 4, degrees)

    def test_inhomogeneous_f_rejected(self):
        with pytest.raises(ValueError):
            truncated_drk_dims(p(1, "x0^2 + x0"), 2, 0, 6)

    def test_wrong_modulus_rejected(self):
        with pytest.raises(ValueError):
            truncated_drk_dims(p(1, "x0^2"), 3, 0, 6)


def reference_truncated_dims(f, modulus, residue, truncation, degrees=None, rows=None):
    """(dims, stabilized) from the per-cap reference, which rebuilds and
    ranks every slice at each of the two caps.  ``rows``, a
    ``reference_rows(f)`` reused across calls on one f, saves recomputing
    its D_f rows; every rank is still taken anew."""
    wanted = tuple(range(f.nvars + 1)) if degrees is None else tuple(degrees)
    rows = rows or reference_rows(f)
    current = dims_at(f, modulus, residue, truncation, wanted, rows)
    previous = dims_at(f, modulus, residue, truncation - modulus, wanted, rows)
    return tuple(sorted(current.items())), current == previous


QUADRIC_EXPONENTS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


@st.composite
def quadrics(draw):
    """Nonzero quadrics in 3 variables with coefficients in -2..2.  Half are
    mirror-symmetric by construction (x0^2 and x2^2 share a coefficient, and
    so do x0*x1 and x1*x2), and half of those have weight 0 too: only
    x0*x2 and x1^2, like det H_1, which takes the weight-0 block path."""
    coeffs = {expo: draw(st.integers(-2, 2)) for expo in QUADRIC_EXPONENTS}
    if draw(st.booleans()):
        coeffs[(0, 0, 2)], coeffs[(0, 1, 1)] = coeffs[(2, 0, 0)], coeffs[(1, 1, 0)]
        if draw(st.booleans()):
            coeffs = {expo: c for expo, c in coeffs.items() if expo in ((1, 0, 1), (0, 2, 0))}
    f = MultiPoly(3, {expo: Fraction(c) for expo, c in coeffs.items()})
    assume(not f.is_zero())
    return f


WEIGHT_ZERO_CUBICS = [
    expo
    for expo in product(range(4), repeat=5)
    if sum(expo) == 3 and sum((2 * i - 4) * e for i, e in enumerate(expo)) == 0
]


@st.composite
def weight_zero_cubics(draw):
    """Nonzero combinations, with coefficients in -2..2, of the cubics of
    weight 0 in 5 variables (x0*x2*x4, x0*x3^2, x1^2*x4, x1*x2*x3, x2^3:
    the terms of det H_2), with no mirror symmetry imposed."""
    f = MultiPoly(5, {expo: Fraction(draw(st.integers(-2, 2))) for expo in WEIGHT_ZERO_CUBICS})
    assume(not f.is_zero())
    return f


class TestTruncatedDimsAgainstThePerCapReference:
    @pytest.mark.parametrize("truncation", range(2, 9))
    @pytest.mark.parametrize("residue", [0, 1])
    def test_det_h1_every_class_and_truncation(self, residue, truncation):
        f = hankel_determinant_poly(1)
        result = truncated_drk_dims(f, 2, residue, truncation)
        assert (result.dims, result.stabilized) == reference_truncated_dims(
            f, 2, residue, truncation
        )

    @pytest.mark.parametrize("degrees", [None] + [[d] for d in range(6)])
    @pytest.mark.parametrize("residue", [0, 1, 2])
    def test_det_h2_every_class_at_truncation_3(self, residue, degrees):
        f = hankel_determinant_poly(2)
        result = truncated_drk_dims(f, 3, residue, 3, degrees)
        assert (result.dims, result.stabilized) == reference_truncated_dims(
            f, 3, residue, 3, degrees
        )

    @pytest.mark.parametrize(
        "nvars, text, modulus, truncations",
        [
            # Weight 0, but the mirror x_i -> x_(nvars-1-i) sends f to -f.
            (5, "x0*x3^2 - x1^2*x4", 3, (3, 4)),
            # Weight 0, but the mirror moves f.
            (5, "x0*x3^2 + x2^3", 3, (3, 4)),
            # Fixed by the mirror, but not of weight 0.
            (3, "x0^2 + x1^2 + x2^2", 2, range(2, 7)),
        ],
    )
    def test_without_the_mirror_symmetry_every_class(self, nvars, text, modulus, truncations):
        # The two cubics take the weight-0 block path although the mirror
        # does not fix them; the quadric is one block, the whole slice.
        f = p(nvars, text)
        weighted = tuple(2 * i - (nvars - 1) for i in range(nvars))
        assert drk._weights(f) == (weighted if nvars == 5 else (0,) * nvars)
        rows = reference_rows(f)
        for truncation in truncations:
            for residue in range(modulus):
                result = truncated_drk_dims(f, modulus, residue, truncation)
                assert (result.dims, result.stabilized) == reference_truncated_dims(
                    f, modulus, residue, truncation, rows=rows
                ), (truncation, residue)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(quadrics())
    @example(p(3, "x0*x2 - x1^2"))
    @example(p(3, "2*x0*x2 + x1^2"))
    def test_random_quadrics_every_class(self, f):
        # Truncations 3 and 4 compare caps 1, 2, 3 and 4.
        rows = reference_rows(f)
        for truncation in (3, 4):
            for residue in (0, 1):
                result = truncated_drk_dims(f, 2, residue, truncation)
                assert (result.dims, result.stabilized) == reference_truncated_dims(
                    f, 2, residue, truncation, rows=rows
                ), (truncation, residue)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(weight_zero_cubics())
    def test_random_weight_zero_cubics_every_class(self, f):
        # Every such f takes the weight-0 block path; truncations 3 and 4
        # compare caps 0, 1, 3 and 4 with the whole-slice reference.
        assert drk._weights(f) == (-4, -2, 0, 2, 4)
        rows = reference_rows(f)
        for truncation in (3, 4):
            for residue in range(3):
                result = truncated_drk_dims(f, 3, residue, truncation)
                assert (result.dims, result.stabilized) == reference_truncated_dims(
                    f, 3, residue, truncation, rows=rows
                ), (truncation, residue)


def form_weight(form, nvars):
    """The weight h = sum_i (2i - (nvars-1)) (e_i + [i in I]) of the
    monomial form (I, packed key of x^e)."""
    indices, key = form
    expo = unpack(key, nvars)
    return sum((2 * i - (nvars - 1)) * (expo[i] + (i in indices)) for i in range(nvars))


def kinds_of_weights(nvars):
    """The det H_n weights 2i - (nvars-1), all zeros, and the det H_n
    weights reordered odd positions first, which is not monotone once
    nvars >= 3."""
    hankel = tuple(2 * i - (nvars - 1) for i in range(nvars))
    return {"hankel": hankel, "zeros": (0,) * nvars, "shuffled": hankel[1::2] + hankel[::2]}


class TestWeightBlocks:
    @pytest.mark.parametrize("n", [1, 2])
    def test_kept_forms_are_the_weight_0_forms_of_the_full_basis(self, n):
        # Every det H_1 / det H_2 slice at cap 4: the kept forms are exactly
        # the full basis forms of weight 0, in the order of the full basis.
        f = hankel_determinant_poly(n)
        nvars, modulus = f.nvars, n + 1
        weights = drk._weights(f)
        assert weights == tuple(range(-2 * n, 2 * n + 1, 2))
        for residue in range(modulus):
            for k in range(nvars + 1):
                full = reference_class_basis(nvars, k, modulus, residue, 4, (0,) * nvars)
                kept = drk._class_basis(nvars, k, modulus, residue, 4, weights)
                weight_0 = [form for form in full if form_weight(form, nvars) == 0]
                assert kept == weight_0, (residue, k)

    @pytest.mark.parametrize("kind", ["hankel", "zeros", "shuffled"])
    @pytest.mark.parametrize("modulus", [2, 3, 4, 5])
    @pytest.mark.parametrize("nvars", range(1, 8))
    def test_matches_the_reference_enumeration(self, nvars, modulus, kind):
        # The pruned enumeration lists exactly the forms the full-slice
        # reference keeps, in its order, for every form degree, residue and
        # cap <= 6; the basis at a lower cap is a prefix of that at cap 6.
        weights = kinds_of_weights(nvars)[kind]
        for k in range(nvars + 1):
            for residue in range(modulus):
                expected = reference_class_basis(nvars, k, modulus, residue, 6, weights)
                degrees = [key_degree(key, nvars) for _, key in expected]
                for cap in range(7):
                    kept = drk._class_basis(nvars, k, modulus, residue, cap, weights)
                    assert kept == expected[: bisect_right(degrees, cap)], (k, residue, cap)

    def test_shuffled_weights_are_not_monotone(self):
        for nvars in range(3, 8):
            shuffled = kinds_of_weights(nvars)["shuffled"]
            assert sorted(shuffled) != list(shuffled) != sorted(shuffled, reverse=True)


class TestConnectingMap:
    def setup_method(self):
        self.f = hankel_determinant_poly(2)
        self.f_z0 = self.f.substitute(0, 0)
        self.f_w = self.f_z0.substitute(1, 0)

    def test_restriction_of_the_determinant(self):
        assert self.f_w == p(5, "-x2^3")

    def test_first_step_matches_the_hand_computation(self):
        start = ExtForm(5, 1, {(2,): MultiPoly.const(5, 1)})
        mid = connecting_map(self.f_z0, start, 1)
        expected = ExtForm(
            5,
            3,
            {
                (1, 2, 3): p(5, "-2*x2"),
                (1, 2, 4): p(5, "x1"),
            },
        )
        assert mid == expected

    def test_residue_mismatch_raises(self):
        # A form with a dx1 term, or with a coefficient involving x1, does
        # not live on {x1 = 0}.
        with_dx1 = ExtForm(5, 1, {(1,): MultiPoly.const(5, 1)})
        with_x1 = ExtForm(5, 1, {(2,): p(5, "x1")})
        for form in (with_dx1, with_x1):
            with pytest.raises(ResidueMismatchError):
                connecting_map(self.f_z0, form, 1)

    def test_surviving_pole_raises(self):
        # dx3 is not closed on the slice {x1 = 0} (where f = -x2^3 + nothing
        # involving x3 would be needed), so the pole cannot cancel.
        start = ExtForm(5, 1, {(3,): MultiPoly.const(5, 1)})
        with pytest.raises(PoleSurvivesError):
            connecting_map(self.f_z0, start, 1)

    def test_output_preserves_graded_class(self):
        start = ExtForm(5, 1, {(2,): MultiPoly.const(5, 1)})
        mid = connecting_map(self.f_z0, start, 1)
        assert homogeneous_class(mid, 3) == homogeneous_class(start, 3)


class TestEigenvectorPipeline:
    def test_outputs_match_the_expected_top_forms(self):
        alpha1, alpha2 = n2_eigenvectors()
        expected1 = ExtForm(5, 5, {(0, 1, 2, 3, 4): p(5, "2*x1*x3 - 2*x2^2")})
        expected2 = ExtForm(5, 5, {(0, 1, 2, 3, 4): p(5, "2*x1*x2*x3 - 2*x2^3")})
        scale1 = proportionality(alpha1, expected1)
        scale2 = proportionality(alpha2, expected2)
        assert scale1 is not None and scale1 != 0
        assert scale2 is not None and scale2 != 0

    def test_outputs_are_closed_and_graded(self):
        f = hankel_determinant_poly(2)
        alpha1, alpha2 = n2_eigenvectors()
        assert d_f(f, alpha1).is_zero()
        assert d_f(f, alpha2).is_zero()
        assert homogeneous_class(alpha1, 3) == GradedClass(1, 3)
        assert homogeneous_class(alpha2, 3) == GradedClass(2, 3)

    @pytest.mark.parametrize("which, truncation", [(0, 6), (1, 3)])
    def test_outputs_are_not_exact_at_a_stabilized_truncation(self, which, truncation):
        """alpha_1 at truncation 6 and alpha_2 at truncation 3, where their
        classes stabilize (pinned in TestTruncatedDims), have weight 0 and
        lie outside the span of D_f of the class's weight-0 4-forms of
        coefficient degree up to truncation + 1.  D_f preserves the weight,
        so alpha_i is not D_f of any form of coefficient degree
        <= truncation + 1.  That is evidence, not a proof, that alpha_i is
        not exact: a preimage of higher coefficient degree is not ruled
        out."""
        f = hankel_determinant_poly(2)
        alpha = n2_eigenvectors()[which]
        residue = homogeneous_class(alpha, 3).residue
        assert residue == which + 1
        assert {
            form_weight((idx, key), 5) for idx, coeff in alpha.terms.items() for key in coeff.packed
        } == {0}
        weight_0 = drk._class_basis(5, 4, 3, residue, truncation + 1, drk._weights(f))
        image = list(drk._d_f_rows(f)(weight_0))
        row = {
            drk._column_key(idx, key, 5): c
            for idx, coeff in alpha.terms.items()
            for key, c in coeff.packed.items()
        }
        assert pivot_columns(image + [row])[-1] is not None


class TestExtFormBasics:
    def test_antisymmetry_is_normalized_away(self):
        with pytest.raises(ValueError):
            ExtForm(3, 2, {(1, 0): MultiPoly.const(3, 1)})

    def test_to_obj_of_a_log_form_names_its_pole(self):
        lifted = ExtForm(2, 1, {(1,): MultiPoly.const(2, 1)}, log_var=1)
        assert lifted.to_obj() == {
            "degree": 1,
            "terms": [{"indices": [1], "coeff": [{"exponents": [0, 0], "coeff": "1"}]}],
            "log_var": 1,
        }
