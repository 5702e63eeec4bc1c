"""Hankel matrices and the block-reduction coordinate change."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantinv import hankel
from secantinv.exactalg import (
    MAX_DEGREE,
    DimensionError,
    LocalizedPoly,
    MultiPoly,
    _localized,
    _sum_of_products,
    poly_det,
)
from secantinv.hankel import (
    BlockReduction,
    CertificateError,
    _change_of_basis_holds,
    _hankel,
    _y_at_point,
    block_reduce,
    factorization_identity,
    factorization_identity_at_point,
    hankel_matrix,
    verify_block_reduction,
)
from secantinv.linalg import det
from tests.references import (
    random_locus_point,
    reference_block_reduce,
    reference_determinant_check,
    reference_factorization_identity,
    restricted_hankel,
    unchecked_reduction,
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

    @pytest.mark.parametrize("n", range(5))
    def test_matches_the_restricted_hankel_at_k_0(self, n):
        m, expected = hankel_matrix(n), restricted_hankel(n, 0)
        assert m == expected
        assert [e.var for row in m for e in row] == [e.var for row in expected for e in row]


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
        r = block_reduce(n, k)
        p_seq, P, N, y = reference_block_reduce(n, k)
        assert (r.p_seq, r.P_matrix, r.N_matrix, r.y_coords) == (p_seq, P, N, y)

        def text(entries):
            return [e.to_str() for e in entries]

        assert r.to_obj() == {
            "n": n,
            "k": k,
            "p": text(p_seq),
            "P": [text(row) for row in P],
            "N": [text(row) for row in N],
            "y": text(y),
            "factorization_sign": r.factorization_sign,
        }

        def variables(p_seq, P, N, y):
            return [e.var for e in [*p_seq, *(e for m in (P, N) for row in m for e in row), *y]]

        assert variables(r.p_seq, r.P_matrix, r.N_matrix, r.y_coords) == variables(p_seq, P, N, y)
        # Each p_l is in normal form as built: P_l / x_k^(l+1), x_k not dividing P_l.
        assert [(v.var, v.power) for v in r.p_seq] == [(k, ell + 1) for ell in range(2 * n - k + 1)]
        assert all(v.num.var_multiplicity(k) == 0 for v in r.p_seq)

    def test_a_reduction_is_its_p_sequence(self):
        assert [f.name for f in dataclasses.fields(BlockReduction)] == ["n", "k", "p_seq"]

    def test_p_seq_must_hold_p_0_to_p_2n_minus_k(self):
        # P, N and y index p up to 2n-k, so no other length is a reduction.
        r = block_reduce(3, 1)
        for p_seq in (r.p_seq[:-1], r.p_seq + r.p_seq[-1:]):
            with pytest.raises(ValueError, match=r"p_0 \.\. p_5"):
                dataclasses.replace(r, p_seq=p_seq)
        for k in (-1, 3):
            with pytest.raises(ValueError, match="k must satisfy"):
                dataclasses.replace(r, k=k)

    @pytest.mark.parametrize("n, k", [(1, 0), (4, 2), (6, 5)])
    def test_the_certified_path_runs_no_normalizing_constructor(self, monkeypatch, n, k):
        # p_l is localized by the trusted constructor, the certificate
        # builds no localized value, and neither symbolic check does.
        inits = []
        init = LocalizedPoly.__init__

        def recording_init(v, *args):
            inits.append(args)
            init(v, *args)

        monkeypatch.setattr(LocalizedPoly, "__init__", recording_init)
        r = block_reduce(n, k)
        assert verify_block_reduction(r).all_ok
        assert factorization_identity(r)
        assert inits == []

    @pytest.mark.parametrize("n, k", [(1, 0), (4, 2), (6, 0), (6, 5)])
    def test_to_obj_formats_each_numerator_once(self, monkeypatch, n, k):
        # P_0 .. P_(2n-k); 0; and y_0 = x_k.  -P_(k+1) .. -P_(2n-k), each
        # shared by y_s and, from k+2 on, by N's -p_s cells, are not
        # formatted: their texts are P_s's with the signs flipped.
        r = block_reduce(n, k)
        texts = []
        to_str = MultiPoly.to_str

        def recording_to_str(poly):
            texts.append(to_str(poly))
            return texts[-1]

        monkeypatch.setattr(MultiPoly, "to_str", recording_to_str)
        r.to_obj()
        assert len(texts) == (2 * n - k + 1) + 2
        assert len(set(texts)) == len(texts)

    @pytest.mark.parametrize("n, k", [(1, 0), (4, 1), (5, 4)])
    def test_n_and_y_share_p_and_minus_p(self, n, k):
        # N's cells are one zero object, the p_s objects and one -p_s object
        # per s, whose numerator y_s shares; y_s for 1 <= s <= k shares p_s's.
        r = block_reduce(n, k)
        N, y = r.N_matrix, r.y_coords
        minus_p = {}
        for i in range(n + 1):
            for j in range(n + 1):
                s = i + j - k
                if s < 0 or (i <= k) != (j <= k):
                    assert N[i][j] is N[0][n]
                elif i <= k:
                    assert N[i][j] is r.p_seq[s]
                else:
                    assert N[i][j] is minus_p.setdefault(s, N[i][j])
                    assert N[i][j].num is y[s].num
        assert all(y[s].num is r.p_seq[s].num for s in range(1, k + 1))

    def test_a_replaced_p_is_what_p_n_and_y_follow(self):
        # P, N and y are derived from p_seq alone, so a reduction with a
        # changed p, made without the certificate that refuses it, shows the
        # change in every cell that holds it.
        r = block_reduce(3, 1)
        changed = _tampered(r, p={4: "x2"})
        p_4 = changed.p_seq[4]
        assert p_4 != r.p_seq[4]
        assert changed.P_matrix == r.P_matrix
        assert [changed.N_matrix[i][5 - i] for i in (2, 3)] == [-p_4, -p_4]
        xk2 = LocalizedPoly(MultiPoly.variable(7, 1) ** 2, 1)
        assert changed.y_coords[4] == -(xk2 * p_4)
        assert changed.y_coords[:4] == r.y_coords[:4]

    @pytest.mark.parametrize("n, k", [(n, k) for n in (1, 4, 6) for k in range(n)])
    def test_every_product_has_a_single_term_operand(self, product_pairs, n, k):
        # The whole certified path: the reduction, its certificate and both
        # symbolic checks, which on an intact reduction expand nothing.
        r = block_reduce(n, k)
        assert verify_block_reduction(r).all_ok
        assert factorization_identity(r)
        assert product_pairs
        assert all(min(len(a), len(b)) <= 1 for a, b in product_pairs)

    @pytest.mark.parametrize("n, k", [(1, 0), (4, 2), (6, 5)])
    def test_the_certificate_is_proved_before_return(self, certificates, n, k):
        # The constructor runs it; neither symbolic check runs it again.
        r = block_reduce(n, k)
        assert certificates == [r]
        assert verify_block_reduction(r).all_ok
        assert factorization_identity(r)
        assert certificates == [r]

    def test_a_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(hankel, "_change_of_basis_holds", lambda r: False)
        with pytest.raises(RuntimeError, match="certificate"):
            block_reduce(3, 1)

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

    def test_det_p_is_p0_power(self):
        for n, k in [(1, 0), (2, 0), (2, 1), (3, 2)]:
            r = block_reduce(n, k)
            assert poly_det(r.P_matrix) == r.p_seq[0] ** (n + 1)


@pytest.fixture
def certificates(monkeypatch):
    """The reductions passed to ``hankel._change_of_basis_holds``, in call order."""
    calls = []

    def recording_certificate(r):
        calls.append(r)
        return _change_of_basis_holds(r)

    monkeypatch.setattr(hankel, "_change_of_basis_holds", recording_certificate)
    return calls


class TestLocusDeterminant:
    """A reduction is verified and factored on the one certificate that its
    constructor ran; a replaced one runs its own, and is refused."""

    @pytest.mark.parametrize("verify_first", [True, False])
    def test_both_checks_compute_the_certificate_once(self, certificates, verify_first):
        # The certificate settles all four checks and the factorization:
        # it runs once, in the constructor, whichever check comes first.
        r = block_reduce(3, 1)
        if verify_first:
            assert verify_block_reduction(r).all_ok
            assert factorization_identity(r)
        else:
            assert factorization_identity(r)
            assert verify_block_reduction(r).all_ok
        assert certificates == [r]
        # A second check of either kind runs nothing.
        assert verify_block_reduction(r).all_ok
        assert factorization_identity(r)
        assert certificates == [r]
        # A replaced reduction runs its own, which refuses it.
        p_seq = _tampered_p(r, p={0: "1"})
        with pytest.raises(CertificateError):
            dataclasses.replace(r, p_seq=p_seq)
        assert len(certificates) == 2 and certificates[1].p_seq == p_seq


def _tampers(n, k):
    """Changes to the p-sequence of the reduction of H_n on Y_k, by name:
    the keyword arguments of :func:`_tampered`.  "p_tail" changes only
    p_(2n-k), so of the certificate only the recurrence row R_(2n-k)
    fails; "scaled" doubles p, and with it P, N and y."""
    return {
        "none": {},
        "p_0": dict(p={0: "1"}),
        "p_1": dict(p={1: f"x{n}"}),
        "p_n": dict(p={n: f"x{k}"}),
        "p_tail": dict(p={2 * n - k: f"x{n}"}),
        "scaled": dict(scale=2),
    }


def _tampered_p(r, p=None, scale=1):
    """r's p-sequence with each term string added to its p_i, and then
    every p_i multiplied by ``scale``."""
    factor = LocalizedPoly(MultiPoly.const(2 * r.n + 1, scale), r.k)
    p_seq = list(r.p_seq)
    for i, term in (p or {}).items():
        p_seq[i] = p_seq[i] + LocalizedPoly(MultiPoly.from_str(2 * r.n + 1, term), r.k)
    return tuple(e * factor for e in p_seq)


def _tampered(r, **changes):
    """The reduction of :func:`_tampered_p`'s p-sequence, made without the
    certificate, which refuses every change."""
    return unchecked_reduction(r.n, r.k, _tampered_p(r, **changes))


class TestCertificate:
    """`_change_of_basis_holds` proves N = P^T H P: it holds on every
    intact reduction and fails on every change to p_0 .. p_(2n-k), so the
    constructor refuses every changed p."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_holds_for_every_k(self, n):
        assert all(_change_of_basis_holds(block_reduce(n, k)) for k in range(n))

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(n)])
    def test_a_changed_p_is_refused_by_the_constructor(self, n, k):
        r = block_reduce(n, k)
        for kind, changes in _tampers(n, k).items():
            p_seq = _tampered_p(r, **changes)
            assert _change_of_basis_holds(unchecked_reduction(n, k, p_seq)) == (kind == "none")
            if kind == "none":
                assert dataclasses.replace(r, p_seq=p_seq) == BlockReduction(n, k, p_seq) == r
                continue
            with pytest.raises(CertificateError, match=f"H_{n} on Y_{k}"):
                dataclasses.replace(r, p_seq=p_seq)
            with pytest.raises(CertificateError, match=f"H_{n} on Y_{k}"):
                BlockReduction(n, k, p_seq)

    @pytest.mark.parametrize(
        "index, degree", [(4, MAX_DEGREE), (0, MAX_DEGREE - 4), (2, MAX_DEGREE - 2)]
    )
    def test_a_product_past_the_degree_limit_is_refused(self, product_pairs, index, degree):
        # A term of x_1 in p_index that some product of the recurrence would
        # carry out of the exponent field: in p_4, and so in N's corner
        # -p_4, of the largest degree the entry can hold, times x_0 in R_4;
        # in p_0, four degrees short of it, times x_0^4 x_4 in R_4; in p_2,
        # two short, times x_0^2 x_2 in R_4.  The degree guard refuses
        # before any product is formed, where the full expansion raises.
        r = block_reduce(2, 0)
        r = _tampered(r, p={index: f"x1^{degree - index - 1}"})
        product_pairs.clear()
        assert r.p_seq[index].num.total_degree() == degree
        assert not _change_of_basis_holds(r)
        assert product_pairs == []
        with pytest.raises(OverflowError):
            reference_determinant_check(r)
        with pytest.raises(CertificateError):
            BlockReduction(r.n, r.k, r.p_seq)

    @pytest.mark.parametrize("index", range(5))
    def test_the_degree_guard_is_tight(self, product_pairs, index):
        # One degree lower, every product of the recurrence fits a packed
        # key: the guard passes, the rows are formed, and R_4 refuses.
        r = _tampered(block_reduce(2, 0), p={index: f"x1^{MAX_DEGREE - 6}"})
        product_pairs.clear()
        assert r.p_seq[index].num.total_degree() - index == MAX_DEGREE - 5
        assert not _change_of_basis_holds(r)
        assert product_pairs

    @pytest.mark.parametrize("n, k", [(1, 0), (3, 1), (4, 3), (5, 2)])
    def test_copies_and_pickles_do_not_rerun_the_certificate(self, certificates, n, k):
        # A deep copy or a pickle round trip restores the fields without
        # the constructor, and gives the same report, factorization verdict
        # and output.
        r = block_reduce(n, k)
        report = verify_block_reduction(r).to_obj()
        for clone in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert clone == r
            assert verify_block_reduction(clone).to_obj() == report
            assert factorization_identity(clone)
            assert clone.to_obj() == r.to_obj()
        assert certificates == [r]

    @pytest.mark.parametrize("n, k", [(2, 0), (3, 1)])
    def test_p_off_its_normal_form_is_refused(self, n, k):
        # p_a with its numerator and its pole both raised by x_k, x_k P_a /
        # x_k^(a+2): the same value, but not the normal form, which the
        # recurrence's one solution takes, so the certificate refuses it.
        r = block_reduce(n, k)
        point = random_locus_point(n, k, random.Random(40 + n))
        for a, v in enumerate(r.p_seq):
            raised = _localized(v.num.mul_var_power(k, 1), k, a + 2)
            assert raised.eval(point) == v.eval(point)
            p_seq = r.p_seq[:a] + (raised,) + r.p_seq[a + 1 :]
            assert not _change_of_basis_holds(unchecked_reduction(n, k, p_seq))
            with pytest.raises(CertificateError):
                dataclasses.replace(r, p_seq=p_seq)


def _det_n_kept(n, k):
    """The kinds of :func:`_tampers` that the certificate refuses but whose
    det(x_k^2 N) is still det H_n and whose y_0 and y-Hankel still factor
    it.  p_(k+1) is in no cell of N, and y_(k+1) is not in the y-Hankel;
    for k > 0, p_1 sits below the antidiagonal of N's top-left block, which
    leaves its determinant p_0^(k+1).  So "p_1" is kept for every k, and
    "p_n" when n = k+1."""
    return {"p_1", "p_n"} if k == n - 1 else {"p_1"}


def _refused(r, p_seq):
    """The reduction of r's n and k with ``p_seq``, made without the
    certificate once ``dataclasses.replace`` has shown that the constructor
    refuses it."""
    with pytest.raises(CertificateError):
        dataclasses.replace(r, p_seq=p_seq)
    return unchecked_reduction(r.n, r.k, p_seq)


class TestTamperedReductions:
    """The certificate is sound on every p-sequence, changed or not: it
    holds only where the full computations, which expand the determinants,
    hold too.  A changed p makes no reduction; its P, N and references are
    read off one made without the constructor."""

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 6) for k in range(n)])
    def test_verdicts_are_sound_against_the_full_computations(self, n, k):
        r = block_reduce(n, k)
        det_differs, factorization_differs = set(), set()
        for kind, changes in _tampers(n, k).items():
            tampered = _tampered(r, **changes)
            certified = _change_of_basis_holds(tampered)
            det_reference = reference_determinant_check(tampered)
            factored_reference = reference_factorization_identity(tampered)
            assert det_reference or not certified, kind
            assert factored_reference or not certified, kind
            if certified != det_reference:
                det_differs.add(kind)
            if certified != factored_reference:
                factorization_differs.add(kind)
        # Where the verdicts differ, the certificate refused a change that
        # the determinants cannot see.
        assert det_differs == factorization_differs == _det_n_kept(n, k)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_one_added_term_in_p_is_sound_against_the_full_computations(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        k = data.draw(st.integers(0, n - 1), label="k")
        r = block_reduce(n, k)
        nvars = 2 * n + 1
        exponents = data.draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars))
        coeff = data.draw(st.sampled_from([-2, -1, 1, 3]), label="coeff")
        power = data.draw(st.integers(0, 2), label="power of x_k in the denominator")
        term = LocalizedPoly(MultiPoly(nvars, {tuple(exponents): coeff}), k, power)
        i = data.draw(st.integers(0, 2 * n - k), label="index")
        p_seq = list(r.p_seq)
        p_seq[i] = p_seq[i] + term
        tampered = unchecked_reduction(n, k, p_seq)
        if _change_of_basis_holds(tampered):
            assert reference_determinant_check(tampered)
            assert reference_factorization_identity(tampered)
        else:
            _refused(r, tuple(p_seq))

    def test_poles_away_from_x_k_are_not_certified(self):
        # With p_0 = 1, p_1 = 0 and p_3 = det H_2 / x_0^6, N's only pole is
        # its bottom-right entry's, at x_0, and det(x_1^2 N) = det H_2 *
        # x_1^6 / x_0^6 is not det H_2: the certificate refuses p, which is
        # not in normal form, and the full expansion, scaling det N by x_k^6
        # = x_1^6, fails too.
        n, k = 2, 1
        r = block_reduce(n, k)
        nvars = 2 * n + 1
        one = LocalizedPoly(MultiPoly.const(nvars, 1), k)
        zero = LocalizedPoly(MultiPoly.zero(nvars), k)
        p_3 = LocalizedPoly(poly_det(restricted_hankel(n, k)).num, 0, 2 * (n + 1))
        tampered = _refused(r, (one, zero, r.p_seq[2], p_3))
        assert tampered.N_matrix[:2] == ((zero, one, zero), (one, zero, zero))
        assert not _change_of_basis_holds(tampered)
        assert not reference_determinant_check(tampered)

    def test_poles_at_two_variables_are_not_certified(self):
        # p_2 = 1/x_1 puts N's bottom-right pole at x_1 and its top-left pole
        # at x_0.  The full expansion cannot combine the two poles, and the
        # certificate refuses a pole away from x_k.
        r = block_reduce(1, 0)
        p2 = LocalizedPoly(MultiPoly.const(3, 1), 1, 1)
        tampered = _refused(r, r.p_seq[:2] + (p2,))
        assert not _change_of_basis_holds(tampered)
        with pytest.raises(DimensionError):
            reference_determinant_check(tampered)

    def test_a_pole_moved_off_x_k_is_not_certified(self):
        # p_4 = P_4 / x_0^5 moved to the same numerator over x_1^5: read as
        # numerators alone, p would look intact, but N's poles now sit at
        # two variables, which the full expansion cannot combine.
        r = block_reduce(2, 0)
        p_4 = r.p_seq[4]
        tampered = _refused(r, r.p_seq[:4] + (LocalizedPoly(p_4.num, 1, p_4.power),))
        assert not _change_of_basis_holds(tampered)
        with pytest.raises(DimensionError):
            reference_determinant_check(tampered)

    @pytest.mark.parametrize("s", range(5))
    def test_a_numerator_without_its_pole_is_not_certified(self, s):
        # p_s replaced by its numerator P_s, a polynomial: read as numerators
        # alone, P_s would pass for p_s, and every recurrence row would hold.
        r = block_reduce(2, 0)
        numerator = LocalizedPoly(r.p_seq[s].num, 0)
        tampered = _refused(r, r.p_seq[:s] + (numerator,) + r.p_seq[s + 1 :])
        assert not _change_of_basis_holds(tampered)
        assert reference_determinant_check(tampered) == (s == 1)  # p_1 is in no cell of N

    @pytest.mark.parametrize("n", range(1, 6))
    def test_y_hankel_determinant_matches_the_dense_determinant_at_points(self, n):
        rng = random.Random(900 + n)
        for k in range(n):
            r = block_reduce(n, k)
            y_hankel = _hankel(r.y_coords[k + 2 :], n - k)
            y_det = poly_det(y_hankel)
            for _ in range(3):
                point = random_locus_point(n, k, rng)
                dense = [[e.eval(point) for e in row] for row in y_hankel]
                assert y_det.eval(point) == det(dense)


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
