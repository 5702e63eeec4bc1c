"""Test-side references shared by several test modules.

The library has no use for these: they build test inputs or restate a
result a second way, so they live with the tests.
"""

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from secantinv.cohomtables import RootOfUnity, nearby_vanishing_decomposition
from secantinv.compositions import composition_parts
from secantinv.drk import ExtForm
from secantinv.exactalg import (
    FIELD_BITS,
    MAX_DEGREE,
    DimensionError,
    LocalizedPoly,
    MultiPoly,
    Rows,
    pack,
    poly_det,
    rational_to_str,
    unpack,
)
from secantinv.hankel import BlockReduction, _hankel
from secantinv.hodge import _weighted_strata_sum
from secantinv.linalg import Number, pivot_columns


def integer_row(row: Mapping[Hashable, Number]) -> Dict[Hashable, int]:
    """A sparse rational row scaled by the lcm of its denominators: the
    scaling keeps the rank and every pivot column of the rows."""
    scale = math.lcm(*(v.denominator for v in row.values()))
    return {key: v.numerator * (scale // v.denominator) for key, v in row.items()}


def rank(rows: Iterable[Mapping[Hashable, Number]]) -> int:
    """Exact rank of sparse rational rows: the number of pivots of the
    rows with their denominators cleared."""
    return sum(column is not None for column in pivot_columns(map(integer_row, rows)))


def gbundle_hodge_bruteforce(n: int, d: int) -> MultiPoly:
    """Independent stratum-sum oracle for :func:`secantinv.hodge.gbundle_hodge`.

    On the stratum of a composition P the defining monomial equation cuts
    one torus factor out of an (|P|+1)-torus and leaves gcd(d, P) parallel
    copies, giving gcd(d, p_1, ..., p_l) * t^n * (t-1)^l per stratum.  As
    in :func:`secantinv.hodge.milnor_hodge_bruteforce`, the gcds are summed
    into one integer weight per length before any polynomial is built.
    """
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    if d < 1 or (n + 1) % d != 0:
        raise ValueError(f"{d} does not divide {n + 1}")
    weights = [0] * (n + 2)
    for parts in composition_parts(n + 1):
        weights[len(parts)] += math.gcd(d, *parts)
    return _weighted_strata_sum(n, weights)


def proportionality(a: ExtForm, b: ExtForm) -> Optional[Fraction]:
    """The scalar c with a = c * b, or None if the forms are not proportional.

    Both forms must be nonzero; proportionality is the equality notion for
    connecting-map outputs, which are defined up to convention.
    """
    if a.is_zero() or b.is_zero():
        return None
    if set(a.terms) != set(b.terms) or a.log_var != b.log_var:
        return None
    idx = next(iter(a.terms))
    mine, theirs = a.terms[idx].packed, b.terms[idx].packed
    lead = max(theirs)
    if lead not in mine:
        return None
    c = Fraction(mine[lead], theirs[lead])
    scaled = ExtForm(b.nvars, b.degree, {i: q.scale(c) for i, q in b.terms.items()}, b.log_var)
    return c if a == scaled else None


def origin_eigenvalues(n: int) -> List[Tuple[RootOfUnity, int]]:
    """Restriction of the nearby-cycle table to the origin.

    Keeps the summands whose eigenvalue order divides n+1 (the others have
    zero stalk at the origin) and assigns each the Milnor-fiber degree
    n+1-(n+1)/q; the result reproduces the monodromy eigentable.
    """
    out: List[Tuple[RootOfUnity, int]] = []
    for summand in nearby_vanishing_decomposition(n):
        q = summand.eigenvalue.q
        if (n + 1) % q == 0:
            out.append((summand.eigenvalue, n + 1 - (n + 1) // q))
    return out


def reference_eval(poly: MultiPoly, point: Sequence) -> Fraction:
    """Exact evaluation term by term in Fractions: each term's coefficient
    times one Fraction power per nonzero exponent, read off its packed key."""
    if len(point) != poly.nvars:
        raise DimensionError(
            f"point has {len(point)} coordinates, polynomial has {poly.nvars} variables"
        )
    vals = [Fraction(v) for v in reversed(point)]
    total = Fraction(0)
    for k, c in poly.packed.items():
        for v in vals:
            e = k & MAX_DEGREE
            if e:
                c *= v**e
            k >>= FIELD_BITS
        total += c
    return total


def reference_to_str(poly: MultiPoly) -> str:
    """The canonical text form of :meth:`MultiPoly.to_str` built from the
    public view: the dense exponent tuples and Fraction coefficients of
    ``sorted_terms``, each magnitude through ``rational_to_str``."""
    if poly.is_zero():
        return "0"
    pieces: List[str] = []
    for exponents, coeff in poly.sorted_terms():
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exponents) if e]
        mag = abs(coeff)
        if not factors:
            body = rational_to_str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = rational_to_str(mag) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)


def reference_mul(a: Rows, b: Rows) -> Rows:
    """The matrix product as entrywise LocalizedPoly products and sums."""
    if any(len(row) != len(b) for row in a):
        raise DimensionError("matrix shapes do not compose")
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = row[0] * b[0][j]
            for t in range(1, len(b)):
                acc = acc + row[t] * b[t][j]
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def restricted_hankel(n: int, k: int) -> Rows:
    """H_n with x_j = 0 substituted for j < k, localized at x_k."""
    nvars = 2 * n + 1
    x = [
        LocalizedPoly(MultiPoly.zero(nvars) if j < k else MultiPoly.variable(nvars, j), k, 0)
        for j in range(nvars)
    ]
    return _hankel(x, n + 1)


def reference_block_reduce(n: int, k: int) -> Tuple[tuple, Rows, Rows, tuple]:
    """The block reduction built step by step in the localization at x_k,
    as the plain tuple (p, P, N, y): p_0 = 1/x_k and p_l = -(p_0 x_{k+l} +
    ... + p_{l-1} x_{k+1}) / x_k as LocalizedPoly values, P the Toeplitz
    matrix of p_0 .. p_n, N = P^T H P by :func:`reference_mul`, and y_i =
    +-x_k^2 p_i by LocalizedPoly products."""
    nvars = 2 * n + 1
    xk_inv = LocalizedPoly(MultiPoly.const(nvars, 1), k, 1)
    xvar = [LocalizedPoly(MultiPoly.variable(nvars, i), k, 0) for i in range(nvars)]
    p = [xk_inv]
    for ell in range(1, 2 * n - k + 1):
        acc = p[0] * xvar[k + ell]
        for j in range(1, ell):
            acc = acc + p[j] * xvar[k + ell - j]
        p.append(-(acc * xk_inv))
    zero = LocalizedPoly(MultiPoly.zero(nvars), k, 0)
    size = n + 1
    p_matrix = tuple(
        tuple(p[j - i] if j >= i else zero for j in range(size)) for i in range(size)
    )
    p_transpose = tuple(zip(*p_matrix))
    n_matrix = reference_mul(p_transpose, reference_mul(restricted_hankel(n, k), p_matrix))
    xk2 = xvar[k] ** 2
    y = [xvar[k]] + [xk2 * p[i] if i <= k else -(xk2 * p[i]) for i in range(1, len(p))]
    return tuple(p), p_matrix, n_matrix, tuple(y)


def unchecked_reduction(n: int, k: int, p_seq: Sequence[LocalizedPoly]) -> BlockReduction:
    """A `BlockReduction` of n, k and ``p_seq`` made without its constructor,
    and so without the certificate that the constructor runs: the object a
    p that the certificate refuses would be, so that its P and N and the
    full computations below can be read off it."""
    r = object.__new__(BlockReduction)
    for name, value in (("n", n), ("k", k), ("p_seq", tuple(p_seq))):
        object.__setattr__(r, name, value)
    return r


def reference_determinant_check(r: BlockReduction) -> bool:
    """Check (d) of `verify_block_reduction` computed in full: det N by
    cofactor expansion, times x_k^2 per column, against det H_n on the locus."""
    xk_power = MultiPoly.variable(2 * r.n + 1, r.k) ** (2 * (r.n + 1))
    det_nprime = poly_det(r.N_matrix) * LocalizedPoly(xk_power, r.k)
    return det_nprime == poly_det(restricted_hankel(r.n, r.k))


def reference_factorization_identity(r: BlockReduction) -> bool:
    """`factorization_identity` computed in full: det H_n on the locus against
    sign * y_0^(k+1) * det of the y-Hankel, both determinants taken afresh,
    with y_s = x_k^2 p_s for s <= k and -x_k^2 p_s after, each a
    LocalizedPoly product of r's p_s."""
    xk2 = LocalizedPoly(MultiPoly.variable(2 * r.n + 1, r.k) ** 2, r.k)
    y = [xk2 * v if s <= r.k else -(xk2 * v) for s, v in enumerate(r.p_seq)]
    residual = poly_det(_hankel(y[r.k + 2 :], r.n - r.k))
    rhs = y[0] ** (r.k + 1) * residual
    if r.factorization_sign == -1:
        rhs = -rhs
    return poly_det(restricted_hankel(r.n, r.k)) == rhs


def random_locus_point(n: int, k: int, rng: random.Random) -> List[Fraction]:
    """A random rational point on the locus: x_j = 0 for j < k, x_k != 0.

    Coordinates are drawn with numerator and denominator bounded by 20 in
    absolute value; small heights keep the exact arithmetic fast.
    """
    point = [Fraction(0)] * (2 * n + 1)
    for j in range(k, 2 * n + 1):
        while True:
            value = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            if j != k or value != 0:
                break
        point[j] = value
    return point


def exponents_of_degree(nvars: int, total: int):
    """Every exponent vector of ``nvars`` entries summing to ``total``,
    lexicographically ascending: packed-key order within one degree."""
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in exponents_of_degree(nvars - 1, total - head):
            yield (head,) + rest


def reference_class_basis(
    nvars: int, k: int, modulus: int, residue: int, cap: int, weights: Sequence[int]
) -> List[Tuple[Tuple[int, ...], int]]:
    """The monomial k-forms of the graded-class slice with coefficient
    degree <= cap, every one listed and packed, then filtered by its weight
    sum_i w_i (e_i + [i in I]) == 0; in the order of ``_class_basis``:
    coefficient degree, then index tuples, then packed keys ascending."""
    index_weights = [
        (indices, sum(weights[i] for i in indices)) for indices in combinations(range(nvars), k)
    ]
    domain = []
    for total in range(cap + 1):
        if (total + k) % modulus != residue:
            continue
        exponents = [
            (pack(expo), sum(w * e for w, e in zip(weights, expo)))
            for expo in exponents_of_degree(nvars, total)
        ]
        for indices, index_weight in index_weights:
            domain.extend(
                (indices, key) for key, key_weight in exponents if index_weight + key_weight == 0
            )
    return domain


def reference_d_f(f: MultiPoly, form: ExtForm) -> ExtForm:
    """dw + df ^ w summed from MultiPoly.derivative, * and +: an oracle for
    the packed D_f rows.  A log form stores c for the coefficient c / x_v;
    d(c / x_v) and dc / x_v differ by a multiple of dx_v, which every term
    already contains, so the same sum applies to the stored coefficients."""
    nvars = form.nvars
    if form.degree == nvars:
        return ExtForm(nvars, nvars)
    out: Dict[Tuple[int, ...], MultiPoly] = {}
    for idx, coeff in form.terms.items():
        for j in range(nvars):
            if j in idx:
                continue
            # dx_j moves left past the indices of I below j.
            piece = coeff.derivative(j) + f.derivative(j) * coeff
            if sum(i < j for i in idx) % 2:
                piece = -piece
            new_idx = tuple(sorted(idx + (j,)))
            out[new_idx] = out[new_idx] + piece if new_idx in out else piece
    return ExtForm(nvars, form.degree + 1, out, form.log_var)


def reference_slice(
    nvars: int, k: int, modulus: int, residue: int, cap: int
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Every monomial k-form x^e dx_I of the graded-class slice with
    coefficient degree <= cap, of every weight, as (I, e) pairs."""
    return [
        (indices, expo)
        for total in range(cap + 1)
        if (total + k) % modulus == residue
        for indices in combinations(range(nvars), k)
        for expo in exponents_of_degree(nvars, total)
    ]


def reference_rows(f: MultiPoly) -> Callable[[Sequence[Tuple]], List[Dict[Hashable, Number]]]:
    """The function from monomial forms, as (I, e) pairs, to their D_f rows
    by ``reference_d_f``, keyed by (index tuple, exponent tuple): no packed
    key or column key is involved.  Each form's row is computed once per
    function, since the caps of one reference comparison share forms."""
    nvars = f.nvars
    memo: Dict[Tuple, Dict[Hashable, Number]] = {}

    def rows(forms: Sequence[Tuple]) -> List[Dict[Hashable, Number]]:
        out = []
        for indices, expo in forms:
            row = memo.get((indices, expo))
            if row is None:
                form = ExtForm(nvars, len(indices), {indices: MultiPoly(nvars, {expo: 1})})
                row = memo[indices, expo] = {
                    (image_indices, unpack(key, nvars)): c
                    for image_indices, coeff in reference_d_f(f, form).terms.items()
                    for key, c in coeff.packed.items()
                }
            out.append(row)
        return out

    return rows


def dims_at(
    f: MultiPoly,
    modulus: int,
    residue: int,
    cap: int,
    wanted: Sequence[int],
    rows: Optional[Callable[[Sequence[Tuple]], List[Dict[Hashable, Number]]]] = None,
) -> Dict[int, int]:
    """Truncated cohomology dimensions of the class-``residue`` slices at one
    coefficient-degree cap, rebuilding and ranking every whole slice on its
    own, with rows from ``reference_rows(f)`` (or ``rows``, one such
    function reused): three ``rank`` calls per form degree and cap.
    ``truncated_drk_dims`` reads the same numbers, at both of its caps, from
    one elimination per form degree of its weight-0 block."""
    nvars = f.nvars
    rows = rows or reference_rows(f)
    dims: Dict[int, int] = {}
    for k in wanted:
        domain = reference_slice(nvars, k, modulus, residue, cap)
        if not domain:
            dims[k] = 0
            continue
        # Kernel of D_f on the slice: full image, no truncation of the target.
        kernel_dim = len(domain) - rank(rows(domain))

        # Image inside the truncation: combinations of the (k-1)-forms one
        # coefficient degree above the cap (the exterior derivative lowers
        # coefficient degree by one) whose D_f has no part B beyond the cap.
        # Their within-cap parts A span the projection onto A of
        # rowspace[A|B] intersected with {B = 0}, of dimension
        # rank([A|B]) - rank(B).
        full = rows(reference_slice(nvars, k - 1, modulus, residue, cap + 1) if k >= 1 else [])
        beyond = [{key: c for key, c in row.items() if sum(key[1]) > cap} for row in full]
        dims[k] = kernel_dim - (rank(full) - rank(beyond))
    return dims
