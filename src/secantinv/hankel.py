"""Generic Hankel matrices and the block-reduction coordinate change.

The (n+1) x (n+1) generic Hankel matrix H_n has entry (i, j) = x_{i+j} in
the 2n+1 variables x_0 .. x_{2n}.  On the locus Y_k where x_0 = ... =
x_{k-1} = 0 and x_k != 0, a triangular change of basis P (built from the
recurrence p_0 x_k = 1, p_0 x_{k+l} + p_1 x_{k+l-1} + ... + p_l x_k = 0)
transforms H_n into N = P^T H P, a block diagonal matrix:

* top-left (k+1) x (k+1) block: Hankel, zero above the main antidiagonal,
  entry p_{i+j-k} on and below it;
* off-diagonal blocks identically zero;
* bottom-right (n-k) x (n-k) block: Hankel with entries -p_{i+j-k}.

Writing y_0 = p_0^(-1), y_i = p_0^(-2) p_i for i <= k and y_i = -p_0^(-2)
p_i for i > k, the determinant factors exactly in the localization as

    det H_n = (-1)^(k(k+1)/2) * y_0^(k+1) * det H_{n-k-1}(y_{k+2}, ..., y_{2n-k}).

The sign is the parity of the order-reversing permutation on k+1 letters:
the determinant of the top-left block picks up exactly that sign from its
antidiagonal.  It cannot be scaled away over the rationals (for k = 1 mod 4
with n - k even, no rational rescaling of the y's removes it), so it is
carried explicitly as ``BlockReduction.factorization_sign``.

`block_reduce` multiplies only by single terms.  The p-recurrence is a
unit triangular Toeplitz solve whose off-diagonal entries are the single
terms x_k^(d-1) x_(k+d).  N is not multiplied out: it is written down in
the block form above, its cells the objects p_s and -p_s, and proved equal
to P^T H P before `block_reduce` returns it.  The proof is "closed form +
recurrence to 2n-k": N in that block form, P the Toeplitz matrix of p_0 ..
p_n and the p-recurrence up to index 2n-k imply N = P^T H P.

Every identity here is verified symbolically (exact polynomial algebra) by
`verify_block_reduction` and `factorization_identity`, and numerically at
random rational points by `factorization_identity_at_point`.  Neither
symbolic check expands a determinant: both rest on one certificate, that
N is the exact product P^T H P (see :func:`_change_of_basis_holds`).  A
reduction is certified or refused: where the certificate fails, check (d)
and the factorization fail with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .exactalg import (
    MAX_DEGREE,
    LocalizedPoly,
    MultiPoly,
    Rows,
    _make,
    _sum_of_products,
    _var_key,
)
from .linalg import det


class CertificateError(RuntimeError):
    """A block reduction failed its certificate, N = P^T H P."""


def _hankel(seq: Sequence, size: int) -> tuple:
    """The size x size Hankel matrix with entry (i, j) = seq[i + j], as rows."""
    return tuple(tuple(seq[i + j] for j in range(size)) for i in range(size))


def hankel_matrix(n: int) -> Rows:
    """The generic (n+1) x (n+1) Hankel matrix in x_0 .. x_{2n}, with entry
    (i, j) = x_{i+j}."""
    if n < 0:
        raise ValueError("Hankel size parameter must be nonnegative")
    nvars = 2 * n + 1
    return _hankel([LocalizedPoly(MultiPoly.variable(nvars, j), 0) for j in range(nvars)], n + 1)


def _factorization_sign(k: int) -> int:
    """Sign of det H_n relative to y_0^(k+1) * det H_{n-k-1}(y..): the
    parity of the order reversal on k+1 letters, (-1)^(k(k+1)/2)."""
    return -1 if k % 4 in (1, 2) else 1


@dataclass(frozen=True)
class BlockReduction:
    """Result of the triangular reduction of H_n on the locus Y_k.

    ``p_seq`` holds p_0 .. p_{2n-k} from the localization recurrence;
    ``P_matrix`` is the upper triangular change of basis with (i, j) entry
    p_{j-i}; ``N_matrix`` is the exact product P^T H P; ``y_coords`` are the
    new coordinates y_0 .. y_{2n-k}.

    These claims are checked, not trusted: ``_mismatches`` holds the first
    cell of N that fails each of checks (a)-(c) (:func:`_block_mismatches`),
    and ``_certified`` says whether N = P^T H P by "closed form +
    recurrence to 2n-k": P is the Toeplitz matrix of p_0 .. p_n, N passes
    checks (a)-(c) and p_0 .. p_{2n-k} satisfy the p-recurrence
    (:func:`_change_of_basis_holds`).  Each is computed on first use and
    kept on the instance: `block_reduce` computes ``_certified``, and with
    it ``_mismatches``, and raises CertificateError unless it holds;
    check (d) and the factorization read both.  A reduction is certified
    or refused: neither check has another way to pass.
    ``dataclasses.replace`` makes a new instance, which computes them again
    from its own fields.
    """

    n: int
    k: int
    p_seq: Tuple[LocalizedPoly, ...]
    P_matrix: Rows
    N_matrix: Rows
    y_coords: Tuple[LocalizedPoly, ...]

    @property
    def factorization_sign(self) -> int:
        return _factorization_sign(self.k)

    @cached_property
    def _certified(self) -> bool:
        """Whether N = P^T H P holds with P tied to p_0 .. p_n, by
        :func:`_change_of_basis_holds`."""
        return _change_of_basis_holds(self)

    @cached_property
    def _mismatches(self) -> Tuple[Optional[Tuple[int, int]], ...]:
        """The first failing cell of each of checks (a)-(c), by
        :func:`_block_mismatches`."""
        return _block_mismatches(self)

    def to_obj(self) -> dict:
        # P and N share the p_s objects, and y_s shares its numerator with
        # p_s or -p_s: format each numerator once.
        text: Dict[int, str] = {}

        def fmt(e: LocalizedPoly) -> str:
            s = text.get(id(e.num))
            if s is None:
                s = text[id(e.num)] = e.num.to_str()
            return e.to_str(s)

        return {
            "n": self.n,
            "k": self.k,
            "p": [fmt(p) for p in self.p_seq],
            "P": [[fmt(e) for e in row] for row in self.P_matrix],
            "N": [[fmt(e) for e in row] for row in self.N_matrix],
            "y": [fmt(y) for y in self.y_coords],
            "factorization_sign": self.factorization_sign,
        }


def _p_numerators(x: Sequence[int], k: int, count: int) -> List[int]:
    """P_0 .. P_(count-1), the integer numerators of p_l = P_l / x_k^(l+1)
    at an integer point x:

        P_0 = 1,  P_l = -sum_{j<l} x_k^(l-1-j) * P_j * x_{k+l-j},

    the p-recurrence multiplied by x_k^(l+1), run by Horner in x_k.  Only
    the point check uses it: on ints Horner beats the forward solve that
    `block_reduce` runs on polynomials."""
    xk = x[k]
    p = [1]
    for ell in range(1, count):
        acc = p[0] * x[k + ell]
        for j in range(1, ell):
            acc = acc * xk + p[j] * x[k + ell - j]
        p.append(-acc)
    return p


def block_reduce(n: int, k: int) -> BlockReduction:
    """Run the reduction of H_n on the locus {x_j = 0 for j < k, x_k != 0}.

    Every denominator is a known power of x_k: p_l = P_l / x_k^(l+1), y_0 =
    x_k and y_i = +-P_i / x_k^(i-1), each localized once from its integer
    numerator.  The p-recurrence is the forward solve of a unit triangular
    Toeplitz system, P_0 = 1, P_l = -sum_(d=1..l) m_d P_(l-d) with the
    single terms m_d = x_k^(d-1) x_(k+d), so every product is a single
    term times a polynomial.

    N = P^T H P is not multiplied out but written in its closed block form:
    N_ij is 0 for i+j < k and in both off-diagonal blocks, p_(i+j-k) in the
    top-left block and -p_(i+j-k) in the bottom-right one, its cells the
    p_s objects and one -p_s object per s.  That form is proved before
    return: CertificateError is raised unless the reduction's certificate
    (:func:`_change_of_basis_holds`) holds.
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must satisfy 0 <= k <= n-1 = {n - 1}, got {k}")
    nvars, size, last = 2 * n + 1, n + 1, 2 * n - k

    x = [MultiPoly.variable(nvars, s) for s in range(nvars)]
    # P_l has degree l, as m_l does, whose degree MultiPoly checked.
    minus_m = [{}] + [(-x[k + d].mul_var_power(k, d - 1)).packed for d in range(1, last + 1)]
    q = [{0: 1}]
    for ell in range(1, last + 1):
        q.append(_sum_of_products((minus_m[d], q[ell - d]) for d in range(1, ell + 1)))
    nums = [_make(nvars, terms) for terms in q]
    p = [LocalizedPoly(num, k, ell + 1) for ell, num in enumerate(nums)]
    # The numerators of y_s: x_k, then P_s for s <= k and -P_s, negated
    # once, for s > k, which -p_s shares.
    y_nums = [x[k]] + nums[1 : k + 1] + [-num for num in nums[k + 1 :]]
    y = [LocalizedPoly(num, k, max(s - 1, 0)) for s, num in enumerate(y_nums)]
    minus_p = {s: LocalizedPoly(y_nums[s], k, s + 1) for s in range(k + 2, last + 1)}
    zero = LocalizedPoly(MultiPoly.zero(nvars), k)

    def n_cell(i: int, j: int) -> LocalizedPoly:
        if i + j < k or (i <= k) != (j <= k):
            return zero
        return p[i + j - k] if i <= k else minus_p[i + j - k]

    p_matrix = tuple(tuple(p[j - i] if j >= i else zero for j in range(size)) for i in range(size))
    n_matrix = tuple(tuple(n_cell(i, j) for j in range(size)) for i in range(size))
    r = BlockReduction(n, k, tuple(p), p_matrix, n_matrix, tuple(y))
    if not r._certified:
        raise CertificateError(f"the block reduction of H_{n} on Y_{k} fails its certificate")
    return r


def _change_of_basis_holds(r: BlockReduction) -> bool:
    """Whether N = P^T H P exactly, for H the restricted H_n and P the upper
    triangular Toeplitz matrix of p_0 .. p_n, proved without a determinant
    from N's closed form and the p-recurrence up to 2n-k.

    ``P_matrix`` must be that P (P_ij = p_(j-i), 0 below the diagonal), N
    must be in its closed block form (checks (a)-(c) of
    :func:`verify_block_reduction` pass, read from ``r._mismatches``), and
    p_0 .. p_(2n-k) must satisfy the recurrence

        R_d:  sum_(a<=d) x_(k+d-a) p_a = [d = 0],   d = 0 .. 2n-k.

    Let T be the upper triangular Toeplitz matrix with T_ij = x_(k+j-i).
    P is Toeplitz, so P T = I is R_0 .. R_n, and T = P^(-1); it remains
    to show T^T N = H P.  Write S = i+j and F(k, S) = sum_(m=k..S) x_m
    p_(S-m) = sum_(a=0..S-k) x_(S-a) p_a, the left side of R_(S-k).  With
    N in closed form and x_m = 0 for m < k in H, cell (i, j) of
    T^T N - H P is

    * 0 formally when j <= k: both products are sum_(a=0..min(j, S-k))
      x_(S-a) p_a, from N's top-left block whether i <= k or i > k;
    * -F(k, S) when i <= k < j: (T^T N)_ij reads only N's off-diagonal
      block, which is 0, and (H P)_ij = F(k, S);
    * -F(k, S) when i > k and j > k: (T^T N)_ij = -sum_(a=j+1..S-k)
      x_(S-a) p_a from the bottom-right block, and (H P)_ij = sum_(a=0..j)
      x_(S-a) p_a.

    In the last two cases S > k, and R_(S-k) says exactly that F(k, S) =
    [S = k] = 0.  So T^T N = H P, that is (P^T)^(-1) N = H P, and N =
    P^T H P.

    Every product of the recurrence is a single term times a numerator,
    and each R_d is one `_sum_of_products` over its products, all brought
    to the largest power of x_k among them: no localized arithmetic.  The
    claim is refused when a shape is wrong, p stops short of p_(2n-k), N
    is not in closed form, a pole sits away from x_k or a product would
    pass the packed-key degree limit.  Certified or refused: check (d) and
    the factorization then fail, whatever the determinants would say.
    """
    n, k = r.n, r.k
    nvars, size, last = 2 * n + 1, n + 1, 2 * n - k
    p, P, N = r.p_seq[: last + 1], r.P_matrix, r.N_matrix
    if len(p) <= last or (len(P), len(N)) != (size, size) or any(len(row) != size for row in P + N):
        return False
    zero = LocalizedPoly(MultiPoly.zero(nvars), k, 0)
    if any(P[i][j] != (p[j - i] if j >= i else zero) for i in range(size) for j in range(size)):
        return False
    if r._mismatches != (None, None, None):
        return False
    if any(v.nvars != nvars or (v.power and v.var != k) for v in p):
        return False
    top = max(v.power for v in p)
    if max(v.num.total_degree() for v in p) + top + 1 > MAX_DEGREE:
        return False
    xk = _var_key(nvars, k)
    x = [_var_key(nvars, s) for s in range(nvars)]
    one = LocalizedPoly(MultiPoly.const(nvars, 1), k)

    def vanishes(products) -> bool:
        """Whether the sum of c * monomial * value over (monomial key, c,
        value) is zero, each product over the largest power of x_k."""
        m = max(v.power for _, _, v in products)
        return not _sum_of_products(
            ({key + (m - v.power) * xk: c}, v.num.packed) for key, c, v in products
        )

    return all(
        vanishes([(x[k + d - a], 1, p[a]) for a in range(d + 1)] + [(0, -1, one)] * (d == 0))
        for d in range(last + 1)
    )


@dataclass(frozen=True)
class CheckResult:
    """Pass/fail of one verification case, with the offending entry if any."""

    case: str
    ok: bool
    offending_entry: Optional[Tuple[int, int]] = None
    detail: str = ""

    def to_obj(self) -> dict:
        obj: dict = {"case": self.case, "ok": self.ok}
        if self.offending_entry is not None:
            obj["offending_entry"] = list(self.offending_entry)
        if self.detail:
            obj["detail"] = self.detail
        return obj


@dataclass(frozen=True)
class VerificationReport:
    n: int
    k: int
    checks: Tuple[CheckResult, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failing_cases(self) -> List[str]:
        return [c.case for c in self.checks if not c.ok]

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "all_ok": self.all_ok,
            "checks": [c.to_obj() for c in self.checks],
        }


def _block_mismatches(
    r: BlockReduction,
) -> Tuple[Optional[Tuple[int, int]], Optional[Tuple[int, int]], Optional[Tuple[int, int]]]:
    """The first cell of N that fails each of checks (a), (b) and (c) of
    :func:`verify_block_reduction`, or None where the check passes."""
    n, k = r.n, r.k
    zero = LocalizedPoly(MultiPoly.zero(2 * n + 1), k, 0)

    def first_mismatch(pairs) -> Optional[Tuple[int, int]]:
        for i, j, expected in pairs:
            if r.N_matrix[i][j] != expected:
                return (i, j)
        return None

    top = first_mismatch(
        (i, j, zero if i + j < k else r.p_seq[i + j - k])
        for i in range(k + 1)
        for j in range(k + 1)
    )
    off = first_mismatch(
        (i, j, zero)
        for i in range(n + 1)
        for j in range(n + 1)
        if (i <= k) != (j <= k)
    )
    # -p_s, built as check (c) first reaches s: it stops at the first
    # mismatch and reads no p_s past it.
    minus_p = {}

    def neg_p(s: int) -> LocalizedPoly:
        if s not in minus_p:
            minus_p[s] = -r.p_seq[s]
        return minus_p[s]

    bottom = first_mismatch(
        (i, j, neg_p(i + j - k))
        for i in range(k + 1, n + 1)
        for j in range(k + 1, n + 1)
    )
    return top, off, bottom


def verify_block_reduction(r: BlockReduction) -> VerificationReport:
    """Check the four block-structure identities as exact symbolic algebra.

    (a) top-left block: N_ij = 0 for i+j < k and N_ij = p_{i+j-k} for
        k <= i+j <= 2k;
    (b) both off-diagonal blocks vanish;
    (c) bottom-right block is Hankel with entries -p_{i+j-k};
    (d) det N' = det H_n on the locus, where N' = x_k^2 N (that is,
        p_0^(-2) N, as p_0 = 1/x_k).

    Check (d) holds whenever the reduction's certificate does
    (:func:`_change_of_basis_holds`, computed once and shared with
    :func:`factorization_identity`): from "closed form + recurrence to
    2n-k", that is checks (a)-(c), P the Toeplitz matrix of p_0 .. p_n and
    the p-recurrence up to index 2n-k, it proves N = P^T H P with P upper
    triangular, p_0 on its diagonal and p_0 x_k = 1, so det P =
    x_k^(-(n+1)) and det(x_k^2 N) = x_k^(2(n+1)) det P^2 det H_n = det H_n.
    The certificate also checks P itself, which checks (a)-(c) never read.
    Checks (a)-(c) are computed once per reduction, by the certificate,
    and kept, shared with the factorization.
    Certified or refused: check (d) is the certificate, so on a reduction
    changed by ``dataclasses.replace`` that fails it, check (d) fails, even
    where det N would still agree.  No determinant is taken.
    """
    top, off, bottom = r._mismatches
    certified = r._certified
    checks = (
        CheckResult("top_left", top is None, top),
        CheckResult("off_diagonal", off is None, off),
        CheckResult("bottom_right", bottom is None, bottom),
        CheckResult(
            "determinant",
            certified,
            None,
            "" if certified else "N = P^T H P is not certified",
        ),
    )
    return VerificationReport(r.n, r.k, checks)


def _is_xk_squared_times(y: LocalizedPoly, p: LocalizedPoly, sign: int, k: int) -> bool:
    """Whether y = sign * x_k^2 * p, compared by shifting the keys of p's
    numerator: no polynomial is built.  Both are normalized, so with p =
    num / x_k^a that product is num * x_k^(2-a) for a <= 2 and num /
    x_k^(a-2) otherwise.  A p with a pole away from x_k gives False.  A
    key shifted past the degree limit has a degree field that no key of y
    has, so it cannot match."""
    if y.nvars != p.nvars or (p.power and p.var != k):
        return False
    power, shift = max(p.power - 2, 0), max(2 - p.power, 0)
    if y.power != power or (power and y.var != k):
        return False
    step = shift * _var_key(p.nvars, k)
    return y.num.packed == {key + step: sign * c for key, c in p.num.packed.items()}


def factorization_identity(r: BlockReduction) -> bool:
    """Exact symbolic check of the factorization

    det H_n = sign * y_0^(k+1) * det H_{n-k-1}(y_{k+2}..),

    with sign = r.factorization_sign.  It holds without a determinant when
    the reduction's certificate does (see :func:`verify_block_reduction`;
    it includes checks (a)-(c)), y_0 = x_k^2 p_0 and y_s = -x_k^2 p_s for
    s in k+2..2n-k.  Then det H_n = x_k^(2(n+1)) det N; N is block diagonal,
    its top-left block is antitriangular with p_0 on the antidiagonal, of
    determinant sign * p_0^(k+1), and its bottom-right block is x_k^(-2)
    times the y-Hankel, so

        det H_n = x_k^(2(n+1)) * sign * p_0^(k+1) * x_k^(-2(n-k)) * det H_{n-k-1}(y..)
                = sign * (x_k^2 p_0)^(k+1) * det H_{n-k-1}(y..),

    and x_k^2 p_0 = y_0.  Certified or refused: False when the certificate
    or one of the y-relations fails, without taking a determinant.
    """
    n, k = r.n, r.k
    y, p = r.y_coords, r.p_seq
    return (
        r._certified
        and _is_xk_squared_times(y[0], p[0], 1, k)
        # the certificate holds, so p_seq reaches p_{2n-k}
        and all(_is_xk_squared_times(y[s], p[s], -1, k) for s in range(k + 2, 2 * n - k + 1))
    )


# -- exact evaluation at rational points --------------------------------------


def _y_at_point(n: int, k: int, x: Sequence[Fraction]) -> List[Fraction]:
    """The coordinates y_0 .. y_{2n-k} of the block reduction at a rational
    point x of the locus, computed over Z.

    Each p_i is homogeneous of degree -1 with denominator x_k^(i+1), so
    clearing the point's denominators once (X = scale * x, scale = their
    lcm) gives p_i(x) = scale * P_i / X_k^(i+1), where the integers P_i are
    the :func:`_p_numerators` of X.  Then y_i = +-x_k^2 p_i(x) =
    +-P_i / (X_k^(i-1) * scale): the same rationals as the recurrence run
    in Fractions, each built once from integers.
    """
    scale = math.lcm(*(v.denominator for v in x))
    big = [v.numerator * (scale // v.denominator) for v in x]
    xk = big[k]
    p = _p_numerators(big, k, 2 * n - k + 1)
    y = [x[k]]
    power = scale  # X_k^(i-1) * scale
    for i in range(1, 2 * n - k + 1):
        y.append(Fraction(p[i] if i <= k else -p[i], power))
        power *= xk
    return y


def factorization_identity_at_point(
    n: int, k: int, point: Sequence[Fraction]
) -> bool:
    """Evaluate det H_n = y_0^(k+1) * det H_{n-k-1}(y..) at one exact point.

    No symbolic reduction is built: the y-coordinates come from the
    p-recurrence run on integers over the point's common denominator (see
    :func:`_y_at_point`), which yields exactly the rationals the symbolic
    y_i take at the point, and both sides are exact rational determinants.
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"k must satisfy 0 <= k <= n-1, got {k}")
    x = [Fraction(v) for v in point]
    if len(x) != 2 * n + 1:
        raise ValueError("point arity mismatch")
    if any(x[j] != 0 for j in range(k)) or x[k] == 0:
        raise ValueError("point is not on the reduction locus")

    y = _y_at_point(n, k, x)
    lhs = det(_hankel(x, n + 1))
    rhs = y[0] ** (k + 1) * det(_hankel(y[k + 2 :], n - k))
    return lhs == _factorization_sign(k) * rhs
