"""Exact arithmetic foundation: rationals, sparse multivariate polynomials,
localization at a single variable, and determinants of matrices of
localized polynomials.

Representation conventions:

* Rational numbers are ``fractions.Fraction`` (always reduced, positive
  denominator, zero is 0/1).  ``str(Fraction)`` already produces the
  canonical "p/q" (or "p" when q = 1) serialization.
* A polynomial in n variables is a map {packed monomial key: coefficient}
  with no zero coefficients.  The key of x0^e0 * ... * x_{n-1}^e_{n-1}
  packs n + 1 fields of ``FIELD_BITS`` bits (Kronecker substitution): the
  total degree in the top field, then e0, e1, ..., with e_{n-1} lowest.
  Integer order of keys is therefore graded lexicographic order (total
  degree first, then lexicographic with x0 > x1 > ...), the leading
  monomial is the largest key, and the product of two monomials is the sum
  of their keys.  A total degree above ``MAX_DEGREE`` would overflow a
  field; every input or product that would need one raises OverflowError.
* Every product of polynomials is one kernel, ``_sum_of_products``: it sums
  the products of pairs of term maps into a single dict.  ``MultiPoly``
  multiplication, the cofactor determinant and the block reduction's
  triangular solves and certificate in ``hankel`` (whose every pair has a
  single-term operand) all call it.
* Coefficients are ``int``, and ``Fraction`` only where a division makes
  them non-integral; an integral Fraction is stored as its ``int``.
* At the public boundary a monomial is its dense exponent tuple
  (e0, ..., e_{n-1}): the validated constructor
  ``MultiPoly(nvars, {exponents: coeff})`` takes it, and the read-only
  ``MultiPoly.terms`` view gives it back with ``Fraction`` coefficients.
  The view is lazy: its length is that of the packed map, a lookup packs
  the tuple once, and only iteration unpacks keys.  Internal results skip
  validation.  Serialized output lists terms in
  descending graded-lex order; ``to_str`` formats it straight from the
  packed keys and the stored coefficients.
* A localized polynomial is numerator / x_k^power for one designated
  variable x_k, normalized so that x_k does not divide the numerator unless
  power = 0.  All poles in one computation must sit at one variable;
  ``_pole_var`` alone decides that variable.  Pipelines whose denominators
  are known powers of x_k compute numerators over Z[x] and localize each
  result once.  Internal localized results already in normal form (a
  negation, or a numerator proved prime to x_k) skip normalization through
  the trusted ``_localized``.
* A matrix is ``Rows``, a tuple of row tuples of ``LocalizedPoly``;
  ``poly_det`` takes its rows, as ``linalg.det`` takes rational rows.

All values are immutable after construction; every operation is a pure
function.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Width of one exponent field of a packed monomial key.
FIELD_BITS = 16
#: Largest total degree (and so exponent) a packed key can hold.
MAX_DEGREE = (1 << FIELD_BITS) - 1

Terms = Dict[int, "int | Fraction"]


class DimensionError(ValueError):
    """Raised when matrix shapes or variable counts do not match."""


def rational_to_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(x))


def _rational(value) -> "int | Fraction":
    """An exact rational, as ``int`` when integral."""
    c = Fraction(value)
    return c.numerator if c.denominator == 1 else c


def _clean(terms: Terms) -> Terms:
    """Drop zero coefficients and store integral Fractions as ints."""
    return {
        k: c.numerator if c.__class__ is Fraction and c.denominator == 1 else c
        for k, c in terms.items()
        if c
    }


def _sum_of_products(pairs: Iterable[Tuple[Terms, Terms]]) -> Terms:
    """The sum of a * b over the pairs of packed-term maps, accumulated in
    one dict and cleaned once.  The caller keeps every total degree within
    ``MAX_DEGREE``: a key past it would carry into the next field."""
    out: Terms = {}
    get = out.get
    for a, b in pairs:
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    return _clean(out)


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise OverflowError(
            f"total degree {degree} exceeds {MAX_DEGREE}, the packed monomial limit"
        )


def pack(exponents: Sequence[int]) -> int:
    """Packed key of the monomial with the given dense exponent vector."""
    key = sum(exponents)
    _check_degree(key)
    for e in exponents:
        key = (key << FIELD_BITS) | e
    return key


def unpack(key: int, nvars: int) -> Tuple[int, ...]:
    """Dense exponent vector of a packed key."""
    out = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        out[i] = key & MAX_DEGREE
        key >>= FIELD_BITS
    return tuple(out)


def key_degree(key: int, nvars: int) -> int:
    """Total degree of a packed key."""
    return key >> (FIELD_BITS * nvars)


def _var_key(nvars: int, idx: int) -> int:
    """Packed key of x_idx; adding it to a key multiplies by x_idx."""
    return (1 << (FIELD_BITS * nvars)) | (1 << (FIELD_BITS * (nvars - 1 - idx)))


class _TermsView(Mapping[Tuple[int, ...], Fraction]):
    """Lazy read-only {exponent tuple: Fraction} view of a polynomial's
    packed terms: ``len`` unpacks nothing, a lookup packs its key once and
    iteration unpacks the keys in the packed map's order.  A tuple that is
    no monomial of the arity (wrong length, a negative or non-integer
    exponent, too high a degree) is simply absent."""

    __slots__ = ("_nvars", "_packed")

    def __init__(self, poly: "MultiPoly"):
        self._nvars, self._packed = poly.nvars, poly.packed

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return (unpack(k, self._nvars) for k in self._packed)

    def __getitem__(self, exponents: Tuple[int, ...]) -> Fraction:
        if (
            isinstance(exponents, tuple)
            and len(exponents) == self._nvars
            and all(isinstance(e, int) and e >= 0 for e in exponents)
            and sum(exponents) <= MAX_DEGREE
        ):
            c = self._packed.get(pack(exponents))
            if c is not None:
                return Fraction(c)
        raise KeyError(exponents)


def _make(nvars: int, terms: Terms) -> "MultiPoly":
    """Trusted constructor: ``terms`` must already be clean packed terms."""
    p = object.__new__(MultiPoly)
    p.nvars = nvars
    p.packed = terms
    return p


class MultiPoly:
    """Sparse exact-rational multivariate polynomial with a fixed arity.

    ``packed`` is the {packed key: int | Fraction} map; callers inside the
    package read it directly and never mutate it.
    """

    __slots__ = ("nvars", "packed")

    def __init__(self, nvars: int, terms: Mapping[Tuple[int, ...], Fraction] | None = None):
        if nvars < 0:
            raise ValueError("variable count must be nonnegative")
        clean: Terms = {}
        for exponents, coeff in (terms or {}).items():
            if len(exponents) != nvars:
                raise DimensionError(f"monomial {exponents} does not have {nvars} exponents")
            if any(e < 0 for e in exponents):
                raise ValueError("monomial exponents must be nonnegative")
            c = _rational(coeff)
            if c:
                clean[pack(exponents)] = c
        self.nvars = nvars
        self.packed = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def const(nvars: int, value) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, idx: int) -> "MultiPoly":
        if not 0 <= idx < nvars:
            raise DimensionError(f"variable index {idx} out of range for {nvars} variables")
        return _make(nvars, {_var_key(nvars, idx): 1})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> Mapping[Tuple[int, ...], Fraction]:
        """Read-only {exponent tuple: Fraction} view, for the public boundary."""
        return _TermsView(self)

    def is_zero(self) -> bool:
        return not self.packed

    def total_degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.packed:
            return -1
        return key_degree(max(self.packed), self.nvars)

    def is_homogeneous(self) -> bool:
        return len({key_degree(k, self.nvars) for k in self.packed}) <= 1

    def sorted_terms(self) -> List[Tuple[Tuple[int, ...], Fraction]]:
        """Terms in descending graded-lex order (leading term first)."""
        return [
            (unpack(k, self.nvars), Fraction(self.packed[k]))
            for k in sorted(self.packed, reverse=True)
        ]

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.packed.items())))

    # -- ring operations ---------------------------------------------------

    def _check_arity(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise DimensionError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_arity(other)
        out = dict(self.packed)
        get = out.get
        for k, c in other.packed.items():
            out[k] = get(k, 0) + c
        return _make(self.nvars, _clean(out))

    def __neg__(self) -> "MultiPoly":
        return _make(self.nvars, {k: -c for k, c in self.packed.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + -other

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_arity(other)
        a, b = self.packed, other.packed
        if not a or not b:
            return _make(self.nvars, {})
        _check_degree(key_degree(max(a) + max(b), self.nvars))
        return _make(self.nvars, _sum_of_products([(a, b)]))

    def scale(self, value) -> "MultiPoly":
        c = _rational(value)
        return _make(self.nvars, _clean({k: c * v for k, v in self.packed.items()}))

    def __pow__(self, exp: int) -> "MultiPoly":
        if exp < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = _make(self.nvars, {0: 1})
        base = self
        e = exp
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # square only while bits remain: no product past x^exp
                base = base * base
        return result

    # -- calculus and substitution ------------------------------------------

    def _exponent_field(self, idx: int) -> int:
        if not 0 <= idx < self.nvars:
            raise DimensionError(f"variable index {idx} out of range")
        return FIELD_BITS * (self.nvars - 1 - idx)

    def derivative(self, idx: int) -> "MultiPoly":
        """Partial derivative with respect to x_idx."""
        shift = self._exponent_field(idx)
        step = _var_key(self.nvars, idx)
        out: Terms = {}
        for k, c in self.packed.items():
            e = (k >> shift) & MAX_DEGREE
            if e:
                out[k - step] = c * e
        return _make(self.nvars, _clean(out))

    def substitute(self, idx: int, value) -> "MultiPoly":
        """Substitute x_idx := value (an exact rational)."""
        shift = self._exponent_field(idx)
        step = _var_key(self.nvars, idx)
        val = _rational(value)
        out: Terms = {}
        for k, c in self.packed.items():
            e = (k >> shift) & MAX_DEGREE
            if e:
                k -= e * step
                c *= val**e
            out[k] = out.get(k, 0) + c
        return _make(self.nvars, _clean(out))

    def eval(self, point: Sequence) -> Fraction:
        """Exact evaluation at a rational point of matching arity, over Z.

        With x_i = a_i / b_i and E_i the top exponent of x_i, the term
        c * x^e is c * prod a_i^e_i * b_i^(E_i - e_i) over the common
        denominator prod b_i^E_i, so the only division is the last one.
        """
        if len(point) != self.nvars:
            raise DimensionError(
                f"point has {len(point)} coordinates, polynomial has {self.nvars} variables"
            )
        keys = list(self.packed)
        values = list(self.packed.values())
        denominator = 1
        for i, v in enumerate(map(Fraction, point)):
            shift = self._exponent_field(i)
            column = [(k >> shift) & MAX_DEGREE for k in keys]
            top = max(column, default=0)
            if top:
                a, b = v.numerator, v.denominator
                factor = {e: a**e * b ** (top - e) for e in set(column)}
                values = [c * factor[e] for c, e in zip(values, column)]
                denominator *= b**top
        return Fraction(sum(values), denominator)

    # -- divisibility -------------------------------------------------------

    def var_multiplicity(self, idx: int) -> int:
        """Largest e such that x_idx^e divides this polynomial (0 if zero poly)."""
        shift = self._exponent_field(idx)
        return min(((k >> shift) & MAX_DEGREE for k in self.packed), default=0)

    def _shift(self, idx: int, power: int) -> "MultiPoly":
        """Product with x_idx^power, unchecked (power may be negative)."""
        step = power * _var_key(self.nvars, idx)
        return _make(self.nvars, {k + step: c for k, c in self.packed.items()})

    def mul_var_power(self, idx: int, power: int) -> "MultiPoly":
        """Product with x_idx^power, power >= 0."""
        if power < 0:
            raise ValueError("negative powers are not defined for polynomials")
        self._exponent_field(idx)
        if power == 0 or not self.packed:
            return self
        _check_degree(self.total_degree() + power)
        return self._shift(idx, power)

    def div_var_power(self, idx: int, power: int) -> "MultiPoly":
        """Exact quotient by x_idx^power; raises if not divisible."""
        if power == 0:
            return self
        if self.packed and self.var_multiplicity(idx) < power:
            raise ValueError(f"polynomial is not divisible by x{idx}^{power}")
        return self._shift(idx, -power)

    # -- serialization -------------------------------------------------------

    def to_obj(self) -> List[dict]:
        """JSON-ready list of {exponents, coeff}, descending graded-lex."""
        return [
            {"exponents": list(e), "coeff": rational_to_str(c)}
            for e, c in self.sorted_terms()
        ]

    def to_str(self) -> str:
        """Canonical text form, e.g. "2*x1*x3 - 2*x2^2" (parseable back):
        terms in descending graded-lex order, formatted from the packed keys.
        Only the nonzero exponent fields of a key are visited: the key is
        shifted down past its lowest set bit's field, lowest field (x_{n-1})
        first, so a term costs its number of variables, not nvars."""
        packed = self.packed
        if not packed:
            return "0"
        nvars = self.nvars
        names = [f"x{nvars - 1 - field}" for field in range(nvars)]  # by field
        exponents = (1 << (FIELD_BITS * nvars)) - 1  # every field below the degree
        pieces: List[str] = []
        for key in sorted(packed, reverse=True):
            coeff = packed[key]
            rest = key & exponents
            factors: List[str] = []
            field = 0
            while rest:
                skip = ((rest & -rest).bit_length() - 1) // FIELD_BITS
                rest >>= FIELD_BITS * skip
                field += skip
                e = rest & MAX_DEGREE
                rest >>= FIELD_BITS
                factors.append(names[field] if e == 1 else f"{names[field]}^{e}")
                field += 1
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(reversed(factors))
            else:
                body = f"{mag}*" + "*".join(reversed(factors))
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    @staticmethod
    def from_str(nvars: int, text: str) -> "MultiPoly":
        """Parse the canonical text form produced by :meth:`to_str`."""
        text = text.strip()
        if text == "0":
            return MultiPoly.zero(nvars)
        terms: Dict[Tuple[int, ...], Fraction] = {}
        # Normalize term separators, keeping fraction slashes intact.
        chunks = text.replace(" - ", " + -").split(" + ")
        for chunk in chunks:
            chunk = chunk.strip()
            coeff = Fraction(1)
            if chunk.startswith("-"):
                coeff = Fraction(-1)
                chunk = chunk[1:]
            powers = [0] * nvars
            for factor in chunk.split("*"):
                factor = factor.strip()
                if factor.startswith("x"):
                    if "^" in factor:
                        var_s, exp_s = factor[1:].split("^")
                        idx, exp = int(var_s), int(exp_s)
                    else:
                        idx, exp = int(factor[1:]), 1
                    if not 0 <= idx < nvars:
                        raise DimensionError(f"monomial uses x{idx} beyond {nvars} variables")
                    powers[idx] += exp
                else:
                    coeff *= Fraction(factor)
            mono = tuple(powers)
            terms[mono] = terms.get(mono, 0) + coeff
        return MultiPoly(nvars, terms)

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.to_str()!r})"


def _negated_str(text: str) -> str:
    """The :meth:`MultiPoly.to_str` text of -f, from that of f: no term body
    holds a space or starts with a sign, so flipping the leading "-" and
    swapping the " + " and " - " separators flips every term's sign."""
    if text == "0":
        return text
    head = text[1:] if text.startswith("-") else "-" + text
    return " - ".join(part.replace(" - ", " + ") for part in head.split(" + "))


def _pole_var(values: Iterable["LocalizedPoly"], default: int) -> int:
    """The one variable at which the poles among ``values`` sit, or
    ``default`` when none has a pole; poles at two variables raise."""
    poles = sorted({v.var for v in values if v.power})
    if len(poles) > 1:
        raise DimensionError(
            f"cannot combine localizations at x{poles[0]} and x{poles[1]}"
        )
    return poles[0] if poles else default


class LocalizedPoly:
    """numerator / x_var^power, normalized so x_var does not divide the
    numerator unless power = 0."""

    __slots__ = ("num", "var", "power")

    def __init__(self, num: MultiPoly, var: int, power: int = 0):
        if power < 0:
            raise ValueError("inverted power must be nonnegative")
        if not 0 <= var < max(num.nvars, 1):
            raise DimensionError(f"inverted variable x{var} out of range")
        if num.is_zero():
            power = 0
        elif power:
            drop = min(power, num.var_multiplicity(var))
            if drop:
                num = num._shift(var, -drop)
                power -= drop
        self.num = num
        self.var = var
        self.power = power

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def __add__(self, other: "LocalizedPoly") -> "LocalizedPoly":
        var = _pole_var((self, other), self.var)
        common = max(self.power, other.power)
        n1 = self.num.mul_var_power(var, common - self.power)
        n2 = other.num.mul_var_power(var, common - other.power)
        return LocalizedPoly(n1 + n2, var, common)

    def __neg__(self) -> "LocalizedPoly":
        return _localized(-self.num, self.var, self.power)

    def __mul__(self, other: "LocalizedPoly") -> "LocalizedPoly":
        var = _pole_var((self, other), self.var)
        return LocalizedPoly(self.num * other.num, var, self.power + other.power)

    def __pow__(self, exp: int) -> "LocalizedPoly":
        if exp < 0:
            raise ValueError("negative powers are not supported")
        return LocalizedPoly(self.num**exp, self.var, self.power * exp)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, LocalizedPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        # Normal form makes direct comparison valid when localized at the
        # same variable; poles at different variables are never equal.
        if self.power and other.power and self.var != other.var:
            return False
        return self.power == other.power and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.power if self.power else 0))

    def eval(self, point: Sequence) -> Fraction:
        """Exact evaluation at a point with point[var] != 0 when power > 0."""
        value = self.num.eval(point)  # checks the arity before point[var] is read
        denom = Fraction(point[self.var]) ** self.power if self.power else Fraction(1)
        if denom == 0:
            raise ZeroDivisionError(f"evaluation requires x{self.var} != 0")
        return value / denom

    def to_str(self, num_s: Optional[str] = None) -> str:
        """Text form, "num" or "(num) / x_var^power"; ``num_s`` is the
        numerator's text when the caller has it already."""
        if num_s is None:
            num_s = self.num.to_str()
        if self.power == 0:
            return num_s
        if len(self.num.packed) > 1:
            num_s = f"({num_s})"
        return f"{num_s} / x{self.var}^{self.power}"

    def __repr__(self):
        return f"LocalizedPoly({self.to_str()!r})"


def _localized(num: MultiPoly, var: int, power: int) -> LocalizedPoly:
    """Trusted constructor: num / x_var^power must already be in normal
    form, that is power = 0 or num nonzero and not divisible by x_var."""
    v = object.__new__(LocalizedPoly)
    v.num, v.var, v.power = num, var, power
    return v


#: A matrix of localized polynomials, as a tuple of its rows.
Rows = Tuple[Tuple[LocalizedPoly, ...], ...]


# -- determinants -----------------------------------------------------------


def poly_det(m: Rows) -> LocalizedPoly:
    """Exact determinant of a square matrix of localized polynomials, given
    as its rows, by cofactor expansion after clearing each row's
    denominator, level by level: level s maps each s-subset of columns to
    the minor of the last s rows on them, and only level s - 1 is kept.  A
    level holds only nonzero minors, a missing subset being a zero one, and
    a subset is multiplied out only where a nonzero entry meets one."""
    size = len(m)
    if size == 0:
        raise DimensionError("determinant of an empty matrix")
    if any(len(row) != size for row in m):
        raise DimensionError(f"determinant of a non-square matrix with {size} rows")
    nvars = m[0][0].nvars
    if any(e.nvars != nvars for row in m for e in row):
        raise DimensionError("determinant of entries with different variable counts")
    # Scale each row by its own largest pole; the determinant keeps their sum.
    var = _pole_var((e for row in m for e in row), 0)
    tops = [max(e.power for e in row) for row in m]
    cleared = [[e.num.mul_var_power(var, top - e.power) for e in row] for row, top in zip(m, tops)]
    # Every term of a minor has degree at most the sum of its rows' degrees.
    _check_degree(sum(max(p.total_degree() for p in row) for row in cleared))
    rows = [[p.packed for p in row] for row in cleared]
    level: Dict[Tuple[int, ...], Terms] = {(): {0: 1}}
    for s in range(1, size + 1):
        row = rows[size - s]
        negated = [{k: -v for k, v in e.items()} for e in row]
        below, level = level, {}
        for cols in combinations(range(size), s):
            pairs = [
                (negated[c] if pos % 2 else row[c], sub)
                for pos, c in enumerate(cols)
                if row[c] and (sub := below.get(cols[:pos] + cols[pos + 1 :]))
            ]
            if pairs:
                minor = _sum_of_products(pairs)
                if minor:
                    level[cols] = minor
    det = level.get(tuple(range(size)), {})
    return LocalizedPoly(_make(nvars, det), var, sum(tops))
