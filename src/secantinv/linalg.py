"""Exact linear algebra by fraction-free elimination: the pivots of sparse
integer rows and the determinant of a dense rational matrix.

* ``pivot_columns`` takes sparse integer rows {column key: int} and
  eliminates them one at a time against the pivot rows found so far, with
  ``row = a*row - b*pivot`` (a, b coprime), and returns each row's new
  pivot column, or None when it reduced to zero: the rank of a prefix is
  its number of pivots.  The rows are read once each, in order, so they
  may come from a generator.  Each input row is copied once, dropping
  zeros if it holds any, and that copy is reduced in place: every step
  first divides it by its content, the gcd of its entries, so entries stay
  small, and drops each entry that cancels.  A row's pivot is its largest
  column key; on the rows of the twisted differential that is the leading
  term of the df^ part, which keeps fill-in low (structured pivoting of
  Macaulay-like matrices, Faugere and Lachartre, PASCO 2010).
* If every column key of B is above every key of A, rank([A|B]) - rank(B)
  of a prefix is its number of pivots in A.  Proof: the stored rows span
  the prefix and never change, and their leading columns are distinct, so
  a combination with no B part uses only rows led in A, which lie in A.
* ``det`` scales each row to integers by the lcm of its denominators,
  which multiplies the determinant by a known integer, and then runs
  Bareiss's fraction-free Gaussian elimination (Bareiss 1968, *Sylvester's
  identity and multistep integer-preserving Gaussian elimination*): every
  intermediate entry is a minor of the integer matrix, so each division is
  exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Number = Union[int, Fraction]


def _eliminate(
    rows: Iterable[Mapping[Hashable, int]],
) -> Tuple[Dict[Hashable, Dict[Hashable, int]], List[Optional[Hashable]]]:
    """The pivot rows {pivot column: primitive integer row} of one pass over
    the rows, and each row's new pivot column (None for a dependent row)."""
    pivots: Dict[Hashable, Dict[Hashable, int]] = {}
    columns: List[Optional[Hashable]] = []
    for sparse in rows:
        if 0 in sparse.values():
            row = {key: v for key, v in sparse.items() if v}
        else:
            row = dict(sparse)
        while row:
            content = math.gcd(*row.values())
            if content > 1:
                for key in row:
                    row[key] //= content
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            g = math.gcd(pivot[col], row[col])
            a, b = pivot[col] // g, row[col] // g
            if a != 1:
                for key in row:
                    row[key] *= a
            # A key that cancels was in the row, since b * v is never 0;
            # the pivot column always cancels.
            for key, v in pivot.items():
                value = row.get(key, 0) - b * v
                if value:
                    row[key] = value
                else:
                    del row[key]
        columns.append(col if row else None)
    return pivots, columns


def pivot_columns(rows: Iterable[Mapping[Hashable, int]]) -> List[Optional[Hashable]]:
    """Eliminate sparse integer rows {column key: int} in one pass: entry i
    is the column of row i's new pivot, the largest key of row i reduced by
    the earlier rows, or None when it reduced to zero.

    Column keys must be mutually comparable; only their order matters.
    The rows are read once each, in order: any iterable will do, a one-shot
    generator included.  The rows are not modified.
    """
    return _eliminate(rows)[1]


def det(rows: Sequence[Sequence[Number]]) -> Fraction:
    """Exact determinant of a dense square rational matrix."""
    size = len(rows)
    scale = 1
    a: List[List[int]] = []
    for row in rows:
        if len(row) != size:
            raise ValueError("determinant of a non-square matrix")
        row_scale = math.lcm(*(v.denominator for v in row))
        scale *= row_scale
        a.append([v.numerator * (row_scale // v.denominator) for v in row])
    if not size:
        return Fraction(1)
    sign = 1
    prev = 1
    for r in range(size - 1):
        if a[r][r] == 0:
            swap = next((i for i in range(r + 1, size) if a[i][r]), None)
            if swap is None:
                return Fraction(0)
            a[r], a[swap] = a[swap], a[r]
            sign = -sign
        pr, top = a[r], a[r][r]
        for i in range(r + 1, size):
            ri, lead = a[i], a[i][r]
            for j in range(r + 1, size):
                ri[j] = (top * ri[j] - lead * pr[j]) // prev
        prev = top
    return Fraction(sign * a[-1][-1], scale)
