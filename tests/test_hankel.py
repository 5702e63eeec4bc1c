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
    _sum_of_products,
    poly_det,
)
from secantinv.hankel import (
    _block_mismatches,
    _change_of_basis_holds,
    _hankel,
    _is_xk_squared_times,
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
        r, expected = block_reduce(n, k), reference_block_reduce(n, k)
        assert r == expected
        assert r.to_obj() == expected.to_obj()

        def variables(b):
            entries = [e for m in (b.P_matrix, b.N_matrix) for row in m for e in row]
            return [e.var for e in [*b.p_seq, *entries, *b.y_coords]]

        assert variables(r) == variables(expected)

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
        r = block_reduce(n, k)
        assert certificates == [r]
        assert vars(r)["_certified"] is True

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
def certificates(monkeypatch):
    """The reductions passed to ``hankel._change_of_basis_holds``, in call order."""
    calls = []

    def recording_certificate(r):
        calls.append(r)
        return _change_of_basis_holds(r)

    monkeypatch.setattr(hankel, "_change_of_basis_holds", recording_certificate)
    return calls


class TestLocusDeterminant:
    """An intact reduction is verified and factored on one certificate; a
    tampered one computes its own, and is certified or refused."""

    @pytest.mark.parametrize("verify_first", [True, False])
    def test_both_checks_compute_the_certificate_once(self, certificates, verify_first):
        # The certificate settles check (d) and, with checks (a)-(c) and the
        # y-relation, the factorization: the two compute it once between them.
        r = block_reduce(3, 1)
        if verify_first:
            assert verify_block_reduction(r).all_ok
            assert factorization_identity(r)
        else:
            assert factorization_identity(r)
            assert verify_block_reduction(r).all_ok
        assert certificates == [r]
        # A second check of either kind reads the kept verdict.
        assert verify_block_reduction(r).all_ok
        assert factorization_identity(r)
        assert certificates == [r]

    @pytest.mark.parametrize("verify_first", [True, False])
    def test_both_checks_take_checks_a_to_c_once(self, monkeypatch, verify_first):
        calls = []

        def recording_mismatches(r):
            calls.append(r)
            return _block_mismatches(r)

        monkeypatch.setattr(hankel, "_block_mismatches", recording_mismatches)
        # The certificate reads checks (a)-(c), so block_reduce computes them.
        r = block_reduce(4, 2)
        assert calls == [r]
        checks = [lambda: verify_block_reduction(r).all_ok, lambda: factorization_identity(r)]
        for check in checks if verify_first else checks[::-1]:
            assert check()
            assert calls == [r]
        # A replaced reduction computes its own.
        tampered = _tampered(r, N={(4, 4): "1"})
        assert verify_block_reduction(tampered).checks[2].offending_entry == (4, 4)
        assert calls == [r, tampered]

    def test_replaced_y_coordinates_fail_the_factorization(self):
        # N is intact, so all four checks pass on the certificate, which
        # reads no y; the y-relation fails on the replaced coordinate, and
        # the full computation fails too.
        n, k = 3, 0
        tampered = _tampered(block_reduce(n, k), y={2 * n - k: "1"})
        assert verify_block_reduction(tampered).all_ok
        assert not factorization_identity(tampered)
        assert not reference_factorization_identity(tampered)

    def test_a_replaced_n_matrix_fails_the_determinant_check(self):
        n, k = 2, 0
        r = block_reduce(n, k)
        assert verify_block_reduction(r).all_ok
        rows = [list(row) for row in r.N_matrix]
        rows[n][n] = rows[n][n] + LocalizedPoly(MultiPoly.const(2 * n + 1, 1), k)
        tampered = dataclasses.replace(r, N_matrix=tuple(map(tuple, rows)))
        # The replaced reduction computes its own certificate, which fails.
        report = verify_block_reduction(tampered)
        assert report.failing_cases() == ["bottom_right", "determinant"]
        assert not reference_determinant_check(tampered).ok


def _plus(entry: LocalizedPoly, term: str, k: int) -> LocalizedPoly:
    return entry + LocalizedPoly(MultiPoly.from_str(entry.nvars, term), k)


def _tampers(n, k):
    """Changes to the reduction of H_n on Y_k, by name: the keyword
    arguments of :func:`_tampered`, and the structural checks the change
    must fail.  One off-diagonal entry leaves N block triangular and det N
    unchanged, the mirrored pair does not; "compensated_pair" also changes
    N_nn so that every diagonal cell of T^T N = H P still holds;
    "bottom_right_and_y" keeps N's bottom-right block equal to x_k^-2
    times the y-Hankel; "below_the_diagonal" leaves every cell on
    and above N's diagonal intact; "p_1_and_P" keeps P the Toeplitz matrix
    of p_0 .. p_n, off the recurrence; "p_tail_and_y" keeps y_s = -x_k^2
    p_s; "p_tail_and_N" keeps N in its closed form, so that of the
    certificate only the recurrence row R_(2n-k) fails; "scaled" doubles
    p, P and N, which keeps T^T N = H P."""
    last = 2 * n - k
    below = "bottom_right" if n - 1 > k else "off_diagonal"
    return {
        "none": ({}, []),
        "antidiagonal": (dict(N={(0, k): "1"}), ["top_left"]),
        "top_left": (dict(N={(k, k): "1"}), ["top_left"]),
        "off_diagonal": (dict(N={(0, n): "1"}), ["off_diagonal"]),
        "off_diagonal_pair": (dict(N={(0, n): "1", (n, 0): "1"}), ["off_diagonal"]),
        "compensated_pair": (
            dict(N={(0, n): f"x{k}", (n, 0): f"x{k}", (n, n): f"-x{k + n}"}),
            ["off_diagonal", "bottom_right"],
        ),
        "below_the_diagonal": (dict(N={(n, n - 1): "1"}), [below]),
        "bottom_right": (dict(N={(n, n): "1"}), ["bottom_right"]),
        "bottom_right_and_y": (dict(N={(n, n): "1"}, y={last: f"x{k}^2"}), ["bottom_right"]),
        "y_last": (dict(y={last: "1"}), []),
        "y_0": (dict(y={0: "1"}), []),
        "p_0": (dict(p={0: "1"}), ["top_left"]),
        "p_tail": (dict(p={last: f"x{n}"}), ["bottom_right"]),
        "p_tail_and_y": (dict(p={last: f"x{n}"}, y={last: f"-x{k}^2*x{n}"}), ["bottom_right"]),
        "p_tail_and_N": (dict(p={last: f"x{n}"}, N={(n, n): f"-x{n}"}), []),
        "P_only": (dict(P={(0, n): f"x{n}"}), []),
        "p_1_and_P": (
            dict(p={1: "1"}, P={(i, i + 1): "1" for i in range(n)}),
            ["top_left"] if k else [],
        ),
        "scaled": (dict(scale=2), []),
    }


def _tampered(r, N=None, P=None, p=None, y=None, scale=1):
    """A new reduction, through ``dataclasses.replace``, with each term
    string added to its cell of N or P, or to its p_i or y_i, and then p,
    P and N multiplied by ``scale``."""
    factor = LocalizedPoly(MultiPoly.const(2 * r.n + 1, scale), r.k)

    def changed(entries, terms, factor):
        entries = list(entries)
        for i, term in (terms or {}).items():
            entries[i] = _plus(entries[i], term, r.k)
        return tuple(e * factor for e in entries)

    def changed_cells(rows, terms):
        rows = [list(row) for row in rows]
        for (i, j), term in (terms or {}).items():
            rows[i][j] = _plus(rows[i][j], term, r.k)
        return tuple(tuple(e * factor for e in row) for row in rows)

    one = LocalizedPoly(MultiPoly.const(2 * r.n + 1, 1), r.k)
    return dataclasses.replace(
        r,
        p_seq=changed(r.p_seq, p, factor),
        P_matrix=changed_cells(r.P_matrix, P),
        N_matrix=changed_cells(r.N_matrix, N),
        y_coords=changed(r.y_coords, y, one),
    )


class TestCertificate:
    """`_change_of_basis_holds` proves N = P^T H P with P the Toeplitz
    matrix of p_0 .. p_n: it holds on every intact reduction and fails on
    every change to N, P or p_0 .. p_n."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_holds_for_every_k(self, n):
        assert all(_change_of_basis_holds(block_reduce(n, k)) for k in range(n))

    def test_a_tampered_p_matrix_no_longer_slips_by(self):
        # p_2 + x_3 in P's cell (0, 2): checks (a)-(c) and the full
        # expansion of det N read no P, so the certificate is what catches
        # it, and check (d) fails with it, its detail naming the certificate.
        r = _tampered(block_reduce(5, 1), P={(0, 2): "x3"})
        assert not _change_of_basis_holds(r)
        report = verify_block_reduction(r)
        assert report.failing_cases() == ["determinant"]
        assert report.checks[3].detail == "N = P^T H P is not certified"
        assert reference_determinant_check(r).ok

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(n)])
    def test_every_change_to_n_p_or_the_head_of_p_is_refused(self, n, k):
        for kind, (changes, _) in _tampers(n, k).items():
            if {"N", "P", "scale"} & set(changes) or any(i <= n for i in changes.get("p", {})):
                assert not _change_of_basis_holds(_tampered(block_reduce(n, k), **changes)), kind

    def test_a_product_past_the_degree_limit_is_refused(self, product_pairs):
        # A term of x_1 in p_4 and, negated, in N's corner, of the largest
        # degree the entry can hold, keeps N in closed form, but its
        # products in the recurrence row R_4 would carry out of the
        # exponent field: the degree guard refuses before any product is
        # formed, and check (d) fails, where the full expansion raises.
        r = block_reduce(2, 0)
        power = r.p_seq[4].power
        term = f"x1^{MAX_DEGREE - power}"
        r = _tampered(r, p={4: term}, N={(2, 2): f"-{term}"})
        product_pairs.clear()
        assert r.N_matrix[2][2].num.total_degree() == MAX_DEGREE
        assert r._mismatches == (None, None, None)
        assert not _change_of_basis_holds(r)
        assert product_pairs == []
        with pytest.raises(OverflowError):
            reference_determinant_check(r)
        assert verify_block_reduction(r).failing_cases() == ["determinant"]

    @pytest.mark.parametrize("n, k", [(1, 0), (3, 1), (4, 3), (5, 2)])
    def test_copies_and_pickles_keep_the_cached_verdicts(self, n, k):
        # The cached certificate and checks (a)-(c) are plain data on the
        # instance, so a deep copy or a pickle round trip carries them over
        # and gives the same report, factorization verdict and output.
        r = block_reduce(n, k)
        report = verify_block_reduction(r).to_obj()
        factored = factorization_identity(r)
        for clone in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert clone == r
            assert vars(clone)["_certified"] is True
            assert verify_block_reduction(clone).to_obj() == report
            assert factorization_identity(clone) == factored
            assert clone.to_obj() == r.to_obj()


def _det_n_kept(n, k):
    """The kinds of :func:`_tampers` that the certificate refuses but whose
    det(x_k^2 N) is still det H_n: a change to p or P alone leaves N as it
    was, one off-diagonal entry leaves N block triangular, and so does
    "below_the_diagonal" when k = n - 1, where (n, n-1) lies in the
    off-diagonal block; N's (k, k) lies below the antidiagonal for k > 0."""
    kept = {"off_diagonal", "p_0", "p_tail", "p_tail_and_y", "P_only", "p_1_and_P"}
    if k:
        kept.add("top_left")
    if k == n - 1:
        kept.add("below_the_diagonal")
    return kept


class TestTamperedReductions:
    """Check (d) and the factorization are sound on every reduction,
    tampered or not: each passes only where the full computation, which
    expands the determinants, passes too."""

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 6) for k in range(n)])
    def test_verdicts_are_sound_against_the_full_computations(self, n, k):
        r = block_reduce(n, k)
        det_differs, factorization_differs = set(), set()
        for kind, (changes, structural) in _tampers(n, k).items():
            tampered = _tampered(r, **changes)
            report = verify_block_reduction(tampered)
            assert [c.case for c in report.checks[:3] if not c.ok] == structural, kind
            det_ok, det_reference = report.checks[3].ok, reference_determinant_check(tampered).ok
            factored = factorization_identity(tampered)
            factored_reference = reference_factorization_identity(tampered)
            assert det_reference or not det_ok, kind
            assert factored_reference or not factored, kind
            if det_ok != det_reference:
                det_differs.add(kind)
            if factored != factored_reference:
                factorization_differs.add(kind)
        # Where the verdicts differ, the certificate refused a change that
        # the determinants cannot see.  The reference factorization reads
        # only y, so it passes every change that keeps y.
        assert det_differs == _det_n_kept(n, k)
        tampers = _tampers(n, k).items()
        assert factorization_differs == {
            kind for kind, (changes, _) in tampers if kind != "none" and "y" not in changes
        }

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_one_added_term_anywhere_is_sound_against_the_full_computations(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        k = data.draw(st.integers(0, n - 1), label="k")
        r = block_reduce(n, k)
        nvars = 2 * n + 1
        exponents = data.draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars))
        coeff = data.draw(st.sampled_from([-2, -1, 1, 3]), label="coeff")
        power = data.draw(st.integers(0, 2), label="power of x_k in the denominator")
        term = LocalizedPoly(MultiPoly(nvars, {tuple(exponents): coeff}), k, power)
        field = data.draw(st.sampled_from(["N", "P", "p", "y"]), label="field")
        if field in ("N", "P"):
            i, j = data.draw(st.tuples(st.integers(0, n), st.integers(0, n)), label="cell")
            rows = [list(row) for row in getattr(r, f"{field}_matrix")]
            rows[i][j] = rows[i][j] + term
            tampered = dataclasses.replace(r, **{f"{field}_matrix": tuple(map(tuple, rows))})
        else:
            name = "p_seq" if field == "p" else "y_coords"
            entries = list(getattr(r, name))
            i = data.draw(st.integers(0, len(entries) - 1), label="index")
            entries[i] = entries[i] + term
            tampered = dataclasses.replace(r, **{name: tuple(entries)})
        if verify_block_reduction(tampered).checks[3].ok:
            assert reference_determinant_check(tampered).ok
        if factorization_identity(tampered):
            assert reference_factorization_identity(tampered)

    def test_a_short_p_sequence_fails_at_the_first_bottom_right_mismatch(self):
        # Check (c) reads p_s as it reaches each cell: a reduction short of
        # p_{2n-k} whose first bottom-right cell is wrong fails there and
        # never asks for the missing p.
        n, k = 3, 1
        tampered = _tampered(block_reduce(n, k), N={(k + 1, k + 1): "1"})
        tampered = dataclasses.replace(tampered, p_seq=tampered.p_seq[:-1])
        report = verify_block_reduction(tampered)
        assert [c.case for c in report.checks[:3] if not c.ok] == ["bottom_right"]
        assert report.checks[2].offending_entry == (k + 1, k + 1)
        assert not report.checks[3].ok
        assert not reference_determinant_check(tampered).ok

    def test_poles_away_from_x_k_are_not_certified(self):
        # With p_0 = 1, p_1 = 0 and the bottom-right entry -det H_2 / x_0^6,
        # N's only pole is at x_0, and det(x_1^2 N) = det H_2 * x_1^6 / x_0^6
        # is not det H_2: the certificate refuses the pole at x_0, and the
        # full expansion, scaling det N by x_k^6 = x_1^6, fails too.
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
        assert not _change_of_basis_holds(tampered)
        assert not verify_block_reduction(tampered).checks[3].ok
        assert not reference_determinant_check(tampered).ok

    def test_poles_at_two_variables_are_not_certified(self):
        # p_2 = 1/x_1 puts N's bottom-right pole at x_1 and its top-left pole
        # at x_0.  Every structural check passes and y_2 = -x_0^2 p_2, but
        # the full expansion cannot combine the two poles, and the
        # certificate refuses a pole away from x_k.
        r = block_reduce(1, 0)
        p2 = LocalizedPoly(MultiPoly.const(3, 1), 1, 1)
        tampered = dataclasses.replace(
            r,
            p_seq=r.p_seq[:2] + (p2,),
            N_matrix=(r.N_matrix[0], (r.N_matrix[1][0], -p2)),
            y_coords=r.y_coords[:2] + (-(p2 * LocalizedPoly(p(3, "x0^2"), 0)),),
        )
        assert not _change_of_basis_holds(tampered)
        with pytest.raises(DimensionError):
            reference_determinant_check(tampered)
        assert verify_block_reduction(tampered).failing_cases() == ["determinant"]
        assert not factorization_identity(tampered)

    def test_a_pole_moved_off_x_k_is_not_certified(self):
        # N's corner -p_4 / x_0^5 moved to the same numerator over x_1^5:
        # read as numerators alone, N would look intact, but its poles now
        # sit at two variables, which the full expansion cannot combine.
        r = block_reduce(2, 0)
        corner = r.N_matrix[2][2]
        moved = LocalizedPoly(corner.num, 1, corner.power)
        tampered = dataclasses.replace(
            r, N_matrix=r.N_matrix[:2] + (r.N_matrix[2][:2] + (moved,),)
        )
        assert not _change_of_basis_holds(tampered)
        with pytest.raises(DimensionError):
            reference_determinant_check(tampered)
        assert not verify_block_reduction(tampered).all_ok
        assert not factorization_identity(tampered)

    def test_a_y_pole_moved_off_x_k_fails_the_factorization(self):
        # y_2 = -(x_0 x_2 - x_1^2) / x_0 moved to the same numerator over x_1:
        # read as numerators alone, y_2 would still be -x_0^2 p_2.
        r = block_reduce(1, 0)
        moved = LocalizedPoly(r.y_coords[2].num, 1, r.y_coords[2].power)
        tampered = dataclasses.replace(r, y_coords=r.y_coords[:2] + (moved,))
        assert verify_block_reduction(tampered).all_ok
        assert not factorization_identity(tampered)
        assert not reference_factorization_identity(tampered)

    def test_the_y_relation_compares_more_than_numerators(self):
        # y = 1/x_0 has the numerator and power that x_0^2 * p would have if
        # p's pole, at x_1, were at x_0, or if p had y's variable count.
        one = MultiPoly.const(3, 1)
        y, p_0 = LocalizedPoly(one, 0, 1), LocalizedPoly(one, 0, 3)
        assert _is_xk_squared_times(y, p_0, 1, 0)
        p_1 = LocalizedPoly(one, 1, 3)
        assert y != LocalizedPoly(p(3, "x0^2"), 0) * p_1
        assert not _is_xk_squared_times(y, p_1, 1, 0)
        assert not _is_xk_squared_times(y, LocalizedPoly(MultiPoly.const(5, 1), 0, 3), 1, 0)

    def test_too_few_y_coordinates_verify_but_do_not_factor(self):
        # The four checks read no y, so a reduction short of y_{2n-k}
        # verifies on the certificate; the factorization cannot read the
        # missing y and raises, as the full computation does.
        r = block_reduce(3, 1)
        tampered = dataclasses.replace(r, y_coords=r.y_coords[:-1])
        assert verify_block_reduction(tampered).all_ok
        with pytest.raises(IndexError):
            reference_factorization_identity(tampered)
        with pytest.raises(IndexError):
            factorization_identity(tampered)

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
