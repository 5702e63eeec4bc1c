"""The packed polynomial core against a plain reference polynomial type.

The reference keeps a polynomial as {dense exponent tuple: Fraction} and
implements every operation the obvious way; the packed ``MultiPoly`` must
agree with it term for term.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantinv.exactalg import MAX_DEGREE, LocalizedPoly, MultiPoly, _sum_of_products

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

NVARS = 3

coefficients = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from([1, 1, 1, 2, 3, 5])
)
exponents = st.tuples(*[st.integers(0, 4)] * NVARS)
ref_polys = st.dictionaries(exponents, coefficients, max_size=6).map(
    lambda d: {e: c for e, c in d.items() if c != 0}
)
points = st.lists(coefficients, min_size=NVARS, max_size=NVARS)
variables = st.integers(0, NVARS - 1)


# -- the reference type ----------------------------------------------------------


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c != 0}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def lowered(e, i, by):
    return e[:i] + (e[i] - by,) + e[i + 1 :]


def ref_derivative(a, i):
    return {lowered(e, i, 1): c * e[i] for e, c in a.items() if e[i]}


def ref_substitute(a, i, v):
    return _collect((lowered(e, i, e[i]), c * v ** e[i]) for e, c in a.items())


def _collect(pairs):
    out = {}
    for e, c in pairs:
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def ref_eval(a, pt):
    total = Fraction(0)
    for e, c in a.items():
        for v, x in zip(pt, e):
            c *= v**x
        total += c
    return total


def packed(ref):
    return MultiPoly(NVARS, ref)


def as_ref(p):
    # Coefficients are stored as int, or as Fraction only when not integral.
    for c in p.packed.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
    return dict(p.terms)


# -- agreement ----------------------------------------------------------------------


class TestAgainstReference:
    @SETTINGS
    @given(ref_polys, ref_polys)
    def test_ring_operations(self, a, b):
        pa, pb = packed(a), packed(b)
        assert as_ref(pa) == a
        assert as_ref(pa + pb) == ref_add(a, b)
        assert as_ref(pa - pb) == ref_add(a, b, -1)
        assert as_ref(-pa) == ref_add({}, a, -1)
        assert as_ref(pa * pb) == ref_mul(a, b)

    @SETTINGS
    @given(ref_polys, variables, coefficients)
    def test_calculus_and_substitution(self, a, i, v):
        pa = packed(a)
        assert as_ref(pa.derivative(i)) == ref_derivative(a, i)
        assert as_ref(pa.substitute(i, v)) == ref_substitute(a, i, v)
        assert as_ref(pa.scale(v)) == _collect((e, c * v) for e, c in a.items())

    @SETTINGS
    @given(ref_polys, variables, st.integers(0, 3))
    def test_divisibility(self, a, i, k):
        pa = packed(a)
        mult = min((e[i] for e in a), default=0)
        assert pa.var_multiplicity(i) == mult
        if k <= mult or not a:
            assert as_ref(pa.div_var_power(i, k)) == {lowered(e, i, k): c for e, c in a.items()}
        else:
            with pytest.raises(ValueError):
                pa.div_var_power(i, k)
        assert pa.mul_var_power(i, k).div_var_power(i, k) == pa

    @SETTINGS
    @given(ref_polys, points)
    def test_eval(self, a, pt):
        assert packed(a).eval(pt) == ref_eval(a, pt)

    @SETTINGS
    @given(ref_polys)
    def test_sorted_terms_are_graded_lex(self, a):
        got = packed(a).sorted_terms()
        want = sorted(a.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)
        assert got == want

    @SETTINGS
    @given(ref_polys)
    def test_text_round_trip(self, a):
        p = packed(a)
        assert MultiPoly.from_str(NVARS, p.to_str()) == p

    @SETTINGS
    @given(ref_polys, ref_polys, st.integers(0, 3))
    def test_localized_sum_and_product(self, a, b, k):
        # (a / x0^k) + (b / x0) and (a / x0^k) * (b / x0), evaluated at a
        # point with x0 != 0, against the reference.
        la, lb = LocalizedPoly(packed(a), 0, k), LocalizedPoly(packed(b), 0, 1)
        pt = [Fraction(3, 2), Fraction(-2), Fraction(5, 3)]
        va, vb = ref_eval(a, pt) / pt[0] ** k, ref_eval(b, pt) / pt[0]
        assert (la + lb).eval(pt) == va + vb
        assert (la * lb).eval(pt) == va * vb
        # Normal form: x0 does not divide a numerator that carries a pole.
        assert la.power == 0 or la.num.var_multiplicity(0) == 0


monomials = st.tuples(exponents, coefficients.filter(bool)).map(lambda ec: {ec[0]: ec[1]})


class TestSingleTermProduct:
    """A product with a single-term operand runs the one kernel like any
    other product: it must give what the kernel gives, in both orders,
    store integral coefficients as ints and keep the degree check."""

    @SETTINGS
    @given(monomials, ref_polys)
    def test_matches_the_kernel_in_both_orders(self, m, a):
        pm, pa = packed(m), packed(a)
        assert (pm * pa).packed == _sum_of_products([(pm.packed, pa.packed)])
        assert (pa * pm).packed == _sum_of_products([(pa.packed, pm.packed)])
        assert as_ref(pm * pa) == as_ref(pa * pm) == ref_mul(m, a)

    def test_constant_and_fraction_monomials(self):
        a = MultiPoly.from_str(NVARS, "3/2*x0^2*x1 - 4*x2 + 2/3")
        for m in (
            MultiPoly.const(NVARS, 1),  # packed key 0
            MultiPoly.const(NVARS, Fraction(2, 3)),
            MultiPoly.from_str(NVARS, "-6*x1^2"),
            MultiPoly.from_str(NVARS, "1/2*x0*x2"),
        ):
            assert (m * a).packed == _sum_of_products([(m.packed, a.packed)])
            assert (a * m).packed == _sum_of_products([(a.packed, m.packed)])
            # Integral products such as 3/2 * 2/3 are stored as int.
            as_ref(m * a)
            as_ref(a * m)
        assert MultiPoly.const(NVARS, 1) * a == a

    def test_degree_past_the_field_raises_on_both_paths(self):
        top = MultiPoly.from_str(2, f"x0^{MAX_DEGREE}")
        x1 = MultiPoly.variable(2, 1)
        one = MultiPoly.const(2, 1)
        single_term = ((top, x1), (x1, top), (top, x1 + one), (x1 + one, top))
        for a, b in single_term + ((top + one, x1 + one),):
            with pytest.raises(OverflowError):
                a * b


class TestDegreeLimit:
    @SETTINGS
    @given(st.integers(0, MAX_DEGREE), st.integers(0, MAX_DEGREE - 1))
    def test_product_degree_past_the_field_raises(self, d1, d2):
        a = MultiPoly.from_str(2, f"x0^{d1}")
        b = MultiPoly.from_str(2, f"x0^{d2}*x1")
        if d1 + d2 + 1 > MAX_DEGREE:
            with pytest.raises(OverflowError):
                a * b
        else:
            assert a * b == MultiPoly(2, {(d1 + d2, 1): 1})

    def test_input_degree_past_the_field_raises(self):
        with pytest.raises(OverflowError):
            MultiPoly(2, {(MAX_DEGREE, 1): 1})
        with pytest.raises(OverflowError):
            MultiPoly.from_str(1, f"x0^{MAX_DEGREE + 1}")

    def test_powers_and_shifts_past_the_field_raise(self):
        x0 = MultiPoly.variable(2, 0)
        assert (x0**MAX_DEGREE).derivative(0) == (x0 ** (MAX_DEGREE - 1)).scale(MAX_DEGREE)
        with pytest.raises(OverflowError):
            x0 ** (MAX_DEGREE + 1)
        with pytest.raises(OverflowError):
            x0.mul_var_power(1, MAX_DEGREE)
