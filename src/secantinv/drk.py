"""Polynomial differential forms with the twisted differential
D_f(w) = dw + df ^ w, graded by homogeneous degree mod deg f.

The cohomology of this complex computes the reduced cohomology of the
Milnor fiber of the homogeneous polynomial f, with the monodromy eigenvalue
e^(2*pi*i*a/N) read off the homogeneous degree class a mod N = deg f
(a k-form with homogeneous degree-d coefficients sits in degree d + k).

Representation:

* A k-form is a map {strictly increasing index tuple of length k:
  polynomial coefficient}; antisymmetry is normalized away by sorting the
  indices and folding signs into the coefficients.
* A form may carry one simple log pole along a coordinate hyperplane
  {x_v = 0}: ``log_var = v`` means every stored term contains index v and
  its true coefficient is the stored polynomial divided by x_v.  Only the
  univariate basis element dz/z is such a form; nothing computes with them.

D_f is built in one place, ``_d_f_rows``, except the rows of the
univariate complex: ``univariate_drk_cohomology`` writes each D_g(z^j)
by formula, two terms.  D_f of a monomial form x^e dx_I is a sparse row,
of ints when f has integer coefficients, keyed by the column keys of the
image's monomial forms.  A column key is one int, (packed monomial key
<< code bits) | index code, where the index code is the sorted index
tuple read as a base-nvars number; for index tuples of one length it
orders exactly as the (packed key, index tuple) pair.  The top field of
a packed key is its total degree, so column keys order by coefficient
degree first.  ``_column_key``, ``_split_column_key``,
``_column_degree`` and the shift of ``_d_f_rows`` are the only code that
knows this layout.  A caller makes one row builder, ``_d_f_rows(f)``,
per call: it takes each partial of f at most once and, on first use of
an index tuple I, tables the column keys of df ^ dx_I and, for each j
not in I, that of x_j^-1 dx_j ^ dx_I.  Column keys are linear in the
packed key, so the row of x^e dx_I is that table shifted by x^e's
column, with one exponent read per j.  ``d_f`` sums the rows of a form's
monomial forms weighted by its coefficients.  The residue connecting map
across {x_v = 0} needs no log forms: d(dx_v / x_v) = 0, so it is (D_f(w)
^ dx_v) / x_v, divided exactly.

Truncated cohomology dimensions (``truncated_drk_dims``) restrict each
graded slice to a coefficient-degree cap, at the truncation and one
modulus below it.  The monomial forms of each needed form degree are
listed in order of coefficient degree, so the slice at any cap is a
prefix; their D_f rows are streamed, never listed, into one elimination
with ``linalg.pivot_columns`` (over Z, pivoting on the largest column
key, the leading term of the df^ part).  The rows are integer because f
is first scaled by the lcm of its coefficient denominators, which
changes no truncated dimension.  At both levels the kernel is the number
of rows of a prefix that reduced to zero, and the image inside the cap
is the number of pivots of a prefix of the previous form degree whose
column has coefficient degree at most the cap.  Proof: every column
beyond the cap is above every column inside it, and the pivot rows have
distinct leading columns, so a combination with no part beyond the cap
uses only rows led inside it, which lie inside it.

Only the weight-0 block is eliminated.  Give x^e dx_I the weight
h = sum_i w_i (e_i + [i in I]) with w_i = 2i - (nvars-1).  If every term
of f has weight 0, D_f preserves h, since d and df^ each trade an x_j for
a dx_j, so each truncated dimension is a sum over the h-blocks; and every
block h != 0 adds 0 to it.  With xi = sum_i w_i x_i d/dx_i, xi(f) = 0, so
Cartan's formula gives i_xi D_f + D_f i_xi = L_xi + xi(f) = h on block h.
i_xi keeps the graded class and the weight, lowers form degree by one and
raises coefficient degree by one, so a cocycle z of block h != 0 and
coefficient degree <= c is D_f(i_xi z / h), the D_f of a form of
coefficient degree <= c + 1 that lies inside cap c: a truncated
coboundary.  det H_n has such terms.  When some term of f has another
weight, every weight is taken to be 0: one block, the whole slice.  The
weight-0 forms are enumerated directly, never filtered out of the slice:
for each coefficient degree and each weight of dx_I, the monomials of that
degree and the opposite weight are listed once, in packed-key order,
skipping every exponent head whose remaining degree cannot reach the
remaining weight; the basis order is that of the whole slice.

The univariate complex for g(z) = z^(m+1) has H^0 = 0 and H^1 spanned by
dz, z dz, ..., z^(m-1) dz (plus dz/z in the log variant); this module
checks that basis independently, by one exact elimination at one
truncation, rather than trusting the closed-form description.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .exactalg import (
    FIELD_BITS,
    MAX_DEGREE,
    DimensionError,
    MultiPoly,
    _clean,
    _make,
    _var_key,
    key_degree,
    poly_det,
    unpack,
)
from .hankel import hankel_matrix
from .linalg import pivot_columns


class MixedDegreeError(ValueError):
    """The form is not homogeneous, so it has no single graded class."""


class ResidueMismatchError(ValueError):
    """The form does not live on the hyperplane the connecting map crosses."""


class PoleSurvivesError(ValueError):
    """The pole of the connecting map failed to cancel: the form is not
    closed on the hyperplane."""


class CohomologyMismatchError(RuntimeError):
    """An independently computed cohomology check failed."""


IndexTuple = Tuple[int, ...]


def _insert_index(indices: IndexTuple, j: int) -> Optional[Tuple[IndexTuple, int]]:
    """Sorted insertion of dx_j into dx_I; returns (new indices, sign) or
    None when j already occurs (the wedge vanishes)."""
    if j in indices:
        return None
    pos = sum(1 for i in indices if i < j)
    sign = -1 if pos % 2 else 1
    return indices[:pos] + (j,) + indices[pos:], sign


class ExtForm:
    """Exterior form of pure degree with exact polynomial coefficients."""

    __slots__ = ("nvars", "degree", "terms", "log_var")

    def __init__(
        self,
        nvars: int,
        degree: int,
        terms: Mapping[IndexTuple, MultiPoly] | None = None,
        log_var: Optional[int] = None,
    ):
        if not 0 <= degree <= nvars:
            raise DimensionError(f"form degree {degree} out of range for {nvars} variables")
        clean: Dict[IndexTuple, MultiPoly] = {}
        if terms:
            for indices, coeff in terms.items():
                idx = tuple(indices)
                if len(idx) != degree:
                    raise DimensionError("index set size does not match form degree")
                if list(idx) != sorted(set(idx)):
                    raise ValueError("index sets must be strictly increasing")
                if idx and (idx[0] < 0 or idx[-1] >= nvars):
                    raise DimensionError("form index out of range")
                if coeff.nvars != nvars:
                    raise DimensionError("coefficient arity mismatch")
                if log_var is not None and log_var not in idx:
                    raise ValueError(
                        "every term of a log form must contain the pole variable"
                    )
                if not coeff.is_zero():
                    clean[idx] = coeff
        self.nvars = nvars
        self.degree = degree
        self.terms = clean
        # A zero form carries no pole; this keeps equality well behaved.
        self.log_var = log_var if clean else None

    # -- basics ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def has_log_pole(self) -> bool:
        return self.log_var is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtForm)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.log_var == other.log_var
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.nvars, self.degree, self.log_var, frozenset(self.terms.items()))
        )

    # -- serialization ------------------------------------------------------------

    def to_obj(self) -> dict:
        terms = [
            {"indices": list(idx), "coeff": self.terms[idx].to_obj()}
            for idx in sorted(self.terms)
        ]
        obj: dict = {"degree": self.degree, "terms": terms}
        if self.log_var is not None:
            obj["log_var"] = self.log_var
        return obj

    def to_str(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for idx in sorted(self.terms):
            wedge = "^".join(
                f"dx{i}/x{i}" if i == self.log_var else f"dx{i}" for i in idx
            )
            body = f"({self.terms[idx].to_str()})"
            pieces.append(f"{body}*{wedge}" if wedge else body)
        return " + ".join(pieces)

    def __repr__(self):
        return f"ExtForm({self.to_str()!r})"


@dataclass(frozen=True)
class GradedClass:
    """A residue class a mod N of homogeneous degrees."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue out of range")


def _column_key(indices: IndexTuple, key: int, nvars: int) -> int:
    """The column key of the monomial form x^key dx_indices: the packed
    monomial key above the index code (the indices as base-nvars digits,
    each below 2^bit_length(nvars))."""
    code = 0
    for i in indices:
        code = code * nvars + i
    return (key << (nvars * nvars.bit_length())) | code


def _split_column_key(column: int, nvars: int, degree: int) -> Tuple[IndexTuple, int]:
    """(index tuple, packed monomial key) of a column key of a form of the
    given degree; the inverse of ``_column_key``."""
    bits = nvars * nvars.bit_length()
    code = column & ((1 << bits) - 1)
    indices = []
    for _ in range(degree):
        code, i = divmod(code, nvars)
        indices.append(i)
    return tuple(reversed(indices)), column >> bits


def _column_degree(column: int, nvars: int) -> int:
    """Coefficient degree of a column key: its packed key's degree field."""
    return key_degree(column >> (nvars * nvars.bit_length()), nvars)


def _d_f_rows(
    f: MultiPoly,
) -> Callable[[Iterable[Tuple[IndexTuple, int]]], Iterator[dict]]:
    """The D_f row builder of f: a generator function from monomial forms
    x^e dx_I, as (index tuple, packed key) pairs, to their D_f rows, sparse
    rows (of ints when f has integer coefficients) keyed by the column keys
    of the image's monomial forms:
    the sum over j not in I of (e_j x^e / x_j + x^e df/dx_j) dx_j ^ dx_I.
    Distinct j give distinct index tuples, and the two parts differ in
    degree, so no two contributions share a key.  This is the only place
    D_f is built.

    The wedge table of I, built on first use, holds the df^ part as
    (column key of x^k dx_j ^ dx_I, signed coefficient) pairs and the d
    part as (exponent field of x_j, column key of dx_j ^ dx_I minus that
    of x_j, sign) triples; a row adds x^e's column to each key.  The
    tables live as long as the builder, which a caller makes per call."""
    nvars = f.nvars
    code_bits = nvars * nvars.bit_length()
    # The column keys of the terms of each df/dx_j, taken on first use, and
    # of each x_j, with no indices: adding the index code of dx_j ^ dx_I
    # gives that of the form.
    partials: List[Optional[list]] = [None] * nvars
    var_columns = [_column_key((), _var_key(nvars, j), nvars) for j in range(nvars)]
    # x^e df/dx_j must fit a packed key, or its exponent fields would overflow.
    limit = (MAX_DEGREE + 2 - f.total_degree()) << (FIELD_BITS * nvars)
    tables: Dict[IndexTuple, tuple] = {}

    def wedge_table(indices: IndexTuple) -> tuple:
        df_part, d_part = [], []
        for j in range(nvars):
            inserted = _insert_index(indices, j)
            if inserted is None:
                continue
            new, sign = inserted
            partial = partials[j]
            if partial is None:
                partial = partials[j] = [
                    (_column_key((), k, nvars), c) for k, c in f.derivative(j).packed.items()
                ]
            code = _column_key(new, 0, nvars)
            df_part += [(column + code, sign * c) for column, c in partial]
            d_part.append((FIELD_BITS * (nvars - 1 - j), code - var_columns[j], sign))
        return df_part, d_part

    def rows(domain: Iterable[Tuple[IndexTuple, int]]) -> Iterator[dict]:
        for indices, key in domain:
            if key >= limit:
                raise OverflowError(f"D_f exceeds the packed monomial degree limit {MAX_DEGREE}")
            table = tables.get(indices)
            if table is None:
                table = tables[indices] = wedge_table(indices)
            df_part, d_part = table
            column = key << code_bits
            row = {column + offset: c for offset, c in df_part}
            for field, offset, sign in d_part:
                e = key >> field & MAX_DEGREE
                if e:
                    row[column + offset] = sign * e
            yield row

    return rows


def d_f(f: MultiPoly, form: ExtForm) -> ExtForm:
    """The twisted differential D_f(w) = dw + df ^ w on pole-free forms: the
    coefficient-weighted sum of the D_f rows of the form's monomial forms."""
    if form.has_log_pole():
        raise ValueError("D_f is computed on pole-free forms only")
    if f.nvars != form.nvars:
        raise DimensionError("variable count mismatch between f and the form")
    if form.degree == form.nvars:
        return ExtForm(form.nvars, form.nvars)
    domain = [(idx, key) for idx, coeff in form.terms.items() for key in coeff.packed]
    image: Dict[IndexTuple, dict] = {}
    for (idx, key), row in zip(domain, _d_f_rows(f)(domain)):
        c = form.terms[idx].packed[key]
        for column, r in row.items():
            new_idx, new_key = _split_column_key(column, form.nvars, form.degree + 1)
            terms = image.setdefault(new_idx, {})
            terms[new_key] = terms.get(new_key, 0) + c * r
    return ExtForm(
        form.nvars,
        form.degree + 1,
        {idx: _make(form.nvars, _clean(terms)) for idx, terms in image.items()},
    )


def homogeneous_class(form: ExtForm, modulus: int) -> GradedClass:
    """Graded class of a form: the common residue mod N of the homogeneous
    degrees of its pieces (a k-form piece with degree-d coefficient sits in
    degree d + k).  Pieces in distinct residue classes raise
    MixedDegreeError; callers must split such forms into components first.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if form.is_zero():
        raise MixedDegreeError("the zero form has no graded class")
    pole_shift = -1 if form.log_var is not None else 0
    residues = set()
    for indices, coeff in form.terms.items():
        for d in {key_degree(k, form.nvars) for k in coeff.packed}:
            residues.add((d + len(indices) + pole_shift) % modulus)
    if len(residues) != 1:
        raise MixedDegreeError(
            f"form mixes graded classes {sorted(residues)} mod {modulus}"
        )
    return GradedClass(residues.pop(), modulus)


def connecting_map(f: MultiPoly, form: ExtForm, v: int) -> ExtForm:
    """Residue connecting homomorphism across the hyperplane {x_v = 0}.

    ``form`` lives on the hyperplane: no term has dx_v and no coefficient
    involves x_v (otherwise ResidueMismatchError).  Its log lift
    w ^ dx_v / x_v is never built: d(dx_v / x_v) = 0, so
    D_f(w ^ dx_v / x_v) = D_f(w) ^ dx_v / x_v, whose pole cancels exactly
    when x_v divides every coefficient of D_f(w) ^ dx_v (otherwise
    PoleSurvivesError).  The result is a D_f-closed form one cohomological
    step up, in the same graded class as ``form``; a form of degree
    nvars - 1 maps to the zero top form.
    """
    nvars = form.nvars
    if not 0 <= v < nvars:
        raise DimensionError(f"variable index {v} out of range")
    for indices, coeff in form.terms.items():
        if v in indices or not coeff.derivative(v).is_zero():
            raise ResidueMismatchError(f"form is not a form on the hyperplane x{v} = 0")
    image = d_f(f, form)
    if form.degree == nvars - 1:
        return ExtForm(nvars, nvars)
    out: Dict[IndexTuple, MultiPoly] = {}
    for indices, coeff in image.terms.items():
        if v in indices:
            continue
        if coeff.var_multiplicity(v) < 1:
            raise PoleSurvivesError(f"log pole along x{v} survives in term dx{list(indices)}")
        # dx_I ^ dx_v: move dx_v left past the indices larger than v.
        quotient = coeff.div_var_power(v, 1)
        larger = sum(1 for i in indices if i > v)
        out[tuple(sorted(indices + (v,)))] = quotient if larger % 2 == 0 else -quotient
    result = ExtForm(nvars, form.degree + 2, out)
    if not d_f(f, result).is_zero():
        raise CohomologyMismatchError("connecting-map output is not closed")
    return result


# -- exact truncated linear algebra --------------------------------------------


def univariate_drk_cohomology(m: int, log: bool = False) -> List[ExtForm]:
    """Cohomology basis of the twisted complex for g(z) = z^(m+1) on one
    variable, computed by independent truncated linear algebra.

    H^0 vanishes and H^1 is m-dimensional (m+1 with a log pole at 0); the
    basis dz, z dz, ..., z^(m-1) dz (preceded by dz/z in the log case) is
    verified by one elimination at coefficient-degree cap c = 4(m+1): the
    D_g rows of z^j, j <= c, must be independent (H^0 = 0) and the basis
    independent modulo their span.  The rows of any lower cap are a
    prefix, so both hold there too.  The target has c + m + 1 forms z^i dz
    (one more with dz/z) and the image c + 1 dimensions, so the basis
    spans the truncated H^1.  Any failure raises CohomologyMismatchError.
    """
    if m < 1:
        raise ValueError(f"defined for m >= 1, got {m}")
    # Coordinates are keyed by the exponent i of z^i dz, with i = -1 for the
    # log form dz/z.
    low = -1 if log else 0
    cap = 4 * (m + 1)
    # Domain: z^j for j <= cap, with D_g(z^j) = j z^(j-1) dz + (m+1) z^(j+m) dz.
    rows = [{j - 1: j, j + m: m + 1} if j else {m: m + 1} for j in range(cap + 1)]
    columns = pivot_columns(rows + [{i: 1} for i in range(low, m)])
    if None in columns[: len(rows)]:
        raise CohomologyMismatchError("H^0 of the univariate complex is nonzero")
    if None in columns[len(rows) :]:
        raise CohomologyMismatchError(
            "stated univariate basis is dependent modulo the image"
        )

    out: List[ExtForm] = []
    if log:
        out.append(ExtForm(1, 1, {(0,): MultiPoly.const(1, 1)}, log_var=0))
    out.extend(ExtForm(1, 1, {(0,): MultiPoly(1, {(j,): 1})}) for j in range(m))
    return out


@dataclass(frozen=True)
class TruncatedDims:
    """Per-degree cohomology dimensions at one coefficient-degree truncation.

    ``lower_forms`` gives, per form degree, how many forms the eliminated
    slice has at truncation - N, the level ``stabilized`` compares with.  A
    0 there in a degree of nonzero dimension marks a false negative of
    ``stabilized``: that level has no form to carry the class."""

    dims: Tuple[Tuple[int, int], ...]
    truncation: int
    stabilized: bool
    lower_forms: Tuple[Tuple[int, int], ...]


def _weights(f: MultiPoly) -> Tuple[int, ...]:
    """The weights w_i = 2i - (nvars-1) if every term of f has weight 0,
    else 0s."""
    weights = tuple(2 * i - (f.nvars - 1) for i in range(f.nvars))
    if all(sum(w * e for w, e in zip(weights, unpack(key, f.nvars))) == 0 for key in f.packed):
        return weights
    return (0,) * f.nvars


def _class_basis(
    nvars: int,
    k: int,
    modulus: int,
    residue: int,
    cap: int,
    weights: Sequence[int],
) -> List[Tuple[IndexTuple, int]]:
    """Monomial k-form basis of the weight-0 block of the graded-class slice
    with coefficient degree <= cap: pairs (index tuple, packed monomial key)
    in order of coefficient degree, so the basis at any lower cap is a
    prefix, and within one degree index tuples outer, packed keys
    ascending.  Only weight-0 forms are enumerated: x^e dx_I has weight 0
    when x^e has weight minus that of dx_I, and the keys of each (degree,
    weight) pair are listed once, by ``_weighted_keys``.  With all weights
    0 every form has weight 0: the whole slice."""
    index_weights = [
        (indices, sum(weights[i] for i in indices)) for indices in combinations(range(nvars), k)
    ]
    keys_of = _weighted_keys(weights)
    domain: List[Tuple[IndexTuple, int]] = []
    for total in range(cap + 1):
        if (total + k) % modulus != residue:
            continue
        keys: Dict[int, List[int]] = {}
        for indices, index_weight in index_weights:
            if index_weight not in keys:
                keys[index_weight] = keys_of(total, -index_weight)
            domain += [(indices, key) for key in keys[index_weight]]
    return domain


def _weighted_keys(weights: Sequence[int]) -> Callable[[int, int], List[int]]:
    """The function (total, target) -> packed keys, ascending, of the
    monomials x^e of degree ``total`` with sum_i w_i e_i = ``target``.

    The exponents are chosen from x_0 on, each ascending, which is
    packed-key order.  A head is skipped when the remaining variables
    cannot reach the remaining weight: with remaining degree r their weight
    lies between r times the least and r times the greatest of their
    weights.  With two variables left, degree and weight fix the head
    unless both weights are equal."""
    nvars = len(weights)
    shifts = [FIELD_BITS * (nvars - 1 - i) for i in range(nvars)]
    lows = [min(weights[i:]) for i in range(nvars)]
    highs = [max(weights[i:]) for i in range(nvars)]

    def tails(i: int, degree: int, weight: int) -> List[int]:
        # The packed fields of the exponents of x_i, x_(i+1), ...
        if i == nvars - 1:
            return [degree] if weights[i] * degree == weight else []
        w, shift = weights[i], shifts[i]
        if i == nvars - 2:
            v = weights[i + 1]
            if w != v:
                head, r = divmod(weight - v * degree, w - v)
                return [(head << shift) | (degree - head)] if not r and 0 <= head <= degree else []
            if w * degree != weight:
                return []
            return [(head << shift) | (degree - head) for head in range(degree + 1)]
        out = []
        low, high = lows[i + 1], highs[i + 1]
        for head in range(degree + 1):
            rest = degree - head
            need = weight - w * head
            if rest * low <= need <= rest * high:
                field = head << shift
                out += [field | tail for tail in tails(i + 1, rest, need)]
        return out

    def keys(total: int, target: int) -> List[int]:
        top = total << (FIELD_BITS * nvars)
        return [top | tail for tail in tails(0, total, target)]

    return keys


def truncated_drk_dims(
    f: MultiPoly,
    modulus: int,
    residue: int,
    truncation: int,
    degrees: Optional[Sequence[int]] = None,
) -> TruncatedDims:
    """Truncated cohomology dimensions of the graded-class subcomplex.

    Restricts the class-``residue`` subcomplex to coefficient degree <=
    ``truncation``; in each form degree the reported dimension is
    dim ker(D_f) minus the dimension of the image of the elements whose
    D_f stays inside the truncation.  The ``stabilized`` flag records
    whether the same computation one modulus step lower (truncation - N)
    already gives identical dimensions; stabilization is a pragmatic
    heuristic, not a proof of convergence.  ``lower_forms`` counts the
    forms of each degree at that lower level, where a 0 flags a comparison
    with nothing.

    ``degrees`` optionally restricts the computation to the listed form
    degrees in 0..nvars (the slice sizes grow quickly with the variable
    count); a degree outside that range raises ValueError.

    If every term of f has weight 0, as for det H_n, only the forms of
    weight 0 are eliminated: every other weight block adds 0 to every
    truncated dimension (see the module docstring).  Otherwise every form
    has weight 0: the whole slice.
    """
    if not f.is_homogeneous() or f.is_zero() or f.total_degree() != modulus:
        raise ValueError("f must be homogeneous of degree equal to the modulus")
    if truncation < modulus:
        raise ValueError("truncation must be at least the modulus")
    if not 0 <= residue < modulus:
        raise ValueError("residue out of range")
    # x -> t*x with t^N = c maps the complex of D_f isomorphically onto that
    # of D_(cf), keeping form degree, class and coefficient degree, so
    # clearing the denominators of f leaves every truncated rank unchanged.
    f = f.scale(math.lcm(*(c.denominator for c in f.packed.values())))
    nvars = f.nvars
    wanted = tuple(range(nvars + 1)) if degrees is None else tuple(degrees)
    if any(not 0 <= k <= nvars for k in wanted):
        raise ValueError(f"form degrees must lie in 0..{nvars}, got {list(wanted)}")
    weights = _weights(f)

    # The D_f rows of each needed form degree j are built and eliminated
    # once, in order of coefficient degree, up to the largest cap they are
    # read at: truncation + 1 when they are the image side of degree j + 1.
    # Every dimension below is then read off the pivots of a prefix of that
    # one pass: columns[i] is the new pivot of row i, or None.  The rows of
    # every slice come from one builder and are streamed, never listed.
    rows = _d_f_rows(f)
    slices = {}
    for j in set(wanted) | {k - 1 for k in wanted if k >= 1}:
        top = truncation + 1 if j + 1 in wanted else truncation
        domain = _class_basis(nvars, j, modulus, residue, top, weights)
        coeff_degrees = [key_degree(key, nvars) for _, key in domain]
        slices[j] = (coeff_degrees, pivot_columns(rows(domain)))

    levels = []
    forms: Dict[int, int] = {}  # left at the counts of the last cap
    for cap in (truncation, truncation - modulus):
        dims: Dict[int, int] = {}
        for k in wanted:
            # Kernel of D_f on the slice: full image, no truncation of the
            # target, so one dimension per row that reduced to zero.
            coeff_degrees, columns = slices[k]
            end = forms[k] = bisect_right(coeff_degrees, cap)
            dims[k] = columns[:end].count(None)
            if k == 0:
                continue
            # Image inside the truncation: combinations of the (k-1)-forms one
            # coefficient degree above the cap (the exterior derivative lowers
            # coefficient degree by one) whose D_f has no part beyond the cap.
            # They are spanned by the pivot rows led inside the cap.
            coeff_degrees, columns = slices[k - 1]
            end = bisect_right(coeff_degrees, cap + 1)
            dims[k] -= sum(
                column is not None and _column_degree(column, nvars) <= cap
                for column in columns[:end]
            )
        levels.append(dims)
    current, previous = levels
    return TruncatedDims(
        dims=tuple(sorted(current.items())),
        truncation=truncation,
        stabilized=current == previous,
        lower_forms=tuple(sorted(forms.items())),
    )


# -- the explicit eigenvector pipeline ------------------------------------------


def hankel_determinant_poly(n: int) -> MultiPoly:
    """det H_n as a plain polynomial in x_0 .. x_{2n}."""
    det = poly_det(hankel_matrix(n))
    if det.power != 0:
        raise RuntimeError(f"det H_{n} came out with a pole of order {det.power}")
    return det.num


def n2_eigenvectors() -> Tuple[ExtForm, ExtForm]:
    """Monodromy eigenvectors for the 3 x 3 Hankel determinant.

    Runs the two-step residue connecting pipeline starting from dx2 and
    x2 dx2 on the smallest stratum closure {x0 = x1 = 0} (where the
    determinant restricts to -x2^3), lifting first across {x1 = 0} inside
    {x0 = 0}, then across {x0 = 0} into the full space.  The two resulting
    top forms are D_f-closed of homogeneous classes 1 and 2 mod 3 and span
    the two nontrivial monodromy eigenspaces.
    """
    f = hankel_determinant_poly(2)
    f_z0 = f.substitute(0, 0)
    f_w = f_z0.substitute(1, 0)

    outputs: List[ExtForm] = []
    x2 = MultiPoly.variable(5, 2)
    for start_coeff in (MultiPoly.const(5, 1), x2):
        start = ExtForm(5, 1, {(2,): start_coeff})
        if not d_f(f_w, start).is_zero():
            raise CohomologyMismatchError("pipeline seed form is not closed")
        middle = connecting_map(f_z0, start, 1)
        top = connecting_map(f, middle, 0)
        outputs.append(top)

    alpha1, alpha2 = outputs
    if homogeneous_class(alpha1, 3).residue != 1:
        raise CohomologyMismatchError("first eigenvector has the wrong class")
    if homogeneous_class(alpha2, 3).residue != 2:
        raise CohomologyMismatchError("second eigenvector has the wrong class")
    return alpha1, alpha2
