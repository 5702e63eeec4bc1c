"""The benchmark's workloads: fixed sequences of public `secantinv` calls,
each output checked.

Every workload has a builder, which makes its inputs from the seed (this is
the set-up the benchmark times), and a batch function, which issues the
calls one after another and checks every result.  The inputs are made here,
not by `secantinv`: random locus points are drawn by this module, and the
polynomials f are written out term by term, so a change to the program
cannot change what the benchmark asks of it.  Only default determinant
methods are used and nothing runs in parallel.

Why each workload exists:

* symbolic -- `MultiPoly`/`LocalizedPoly` products and cofactor
  determinants (block reduction of H_4, H_5 and its symbolic checks); almost
  no rational elimination.
* twisted  -- dense exact rank of twisted de Rham slices with hundreds of
  rows, built from many tiny monomial-form products.
* oracles  -- no symbolic polynomials: small dense rational determinants at
  random points, stratum sums, composition counts, tables and 4 MB of CLI
  JSON; it carries most of the memory.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, List, Sequence, Tuple

from secantinv import (
    MultiPoly,
    block_reduce,
    count_coprime,
    count_coprime_by_length,
    d_f,
    enumerate_compositions,
    factorization_identity,
    hankel_matrix,
    homogeneous_class,
    ih_betti,
    milnor_betti,
    milnor_hodge_bruteforce,
    milnor_hodge_closed,
    monodromy_eigentable,
    n2_eigenvectors,
    nearby_vanishing_decomposition,
    poly_det,
    stratify,
    sym_power_betti,
    torus_normal_form,
    truncated_drk_dims,
    univariate_drk_cohomology,
    verify_block_reduction,
)
from secantinv import cli
from secantinv.hankel import factorization_identity_at_point

from recorder import Recorder

# Input sizes.  "full" is what the benchmark measures; "tiny" exercises the
# same calls in about a second, for the self-test.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "symbolic": {"det_n": (2, 3, 4, 5), "reduce_n": (4, 5), "verify_n": 4},
        "twisted": {
            "h1_truncation": 6,
            "h2_degrees": (1, 2, 3),
            "univariate_m": 8,
        },
        "oracles": {
            "point_n": (8, 12, 16),
            "points_per_locus": 8,
            "hodge_n": 14,
            "compositions_n": 14,
            "stratify_n": 12,
            "strata_cli_n": 14,
            "tables_n": 12,
            "ih_genus": 4,
            "ih_k": 6,
        },
    },
    "tiny": {
        "symbolic": {"det_n": (2, 3), "reduce_n": (3,), "verify_n": 2},
        "twisted": {"h1_truncation": 4, "h2_degrees": (0,), "univariate_m": 2},
        "oracles": {
            "point_n": (4,),
            "points_per_locus": 2,
            "hodge_n": 6,
            "compositions_n": 6,
            "stratify_n": 4,
            "strata_cli_n": 4,
            "tables_n": 4,
            "ih_genus": 1,
            "ih_k": 2,
        },
    },
}

# det H_1 and det H_2, written out so the inputs do not depend on poly_det.
F_H1 = (3, "x0*x2 - x1^2")
F_H2 = (5, "x0*x2*x4 + 2*x1*x2*x3 - x2^3 - x0*x3^2 - x1^2*x4")

HEIGHT = 20  # numerator and denominator bound of random coordinates


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT))
        if value or not nonzero:
            return value


def locus_point(n: int, k: int, rng: random.Random) -> List[Fraction]:
    """A point of Y_k in x_0 .. x_{2n}: x_j = 0 for j < k, x_k != 0."""
    return [Fraction(0)] * k + [
        random_rational(rng, nonzero=(j == k)) for j in range(k, 2 * n + 1)
    ]


def rational_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """The benchmark's own exact determinant, the oracle for poly_det."""
    m = [list(row) for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            factor = m[i][c] / m[c][c]
            for j in range(c, len(m)):
                m[i][j] -= factor * m[c][j]
    return det


def run_cli(rec: Recorder, op: str, argv: List[str], expected: dict) -> bool:
    out = io.StringIO()
    code = rec.call("cli", op, cli.run, argv, out)
    text = out.getvalue()
    rec.count("cli.bytes_out", len(text.encode()))
    return code == 0 and sha256(text) == expected["cli_stdout_sha256"][" ".join(argv)]


# -- symbolic ------------------------------------------------------------------


def build_symbolic(size: dict, rng: random.Random) -> dict:
    dets = [
        (n, hankel_matrix(n), [random_rational(rng) for _ in range(2 * n + 1)])
        for n in size["det_n"]
    ]
    cases = [(n, k) for n in size["reduce_n"] for k in range(n)]
    rng.shuffle(cases)
    return {"dets": dets, "cases": cases, "verify_n": size["verify_n"]}


def run_symbolic(rec: Recorder, inputs: dict, expected: dict) -> None:
    for n, matrix, point in inputs["dets"]:

        def det_ok(n=n, matrix=matrix, point=point) -> bool:
            det = rec.call("exactalg", "poly_det", poly_det, matrix)
            rec.count("exactalg.det_terms", len(det.num.terms))
            at_point = rational_det(
                [[point[i + j] for j in range(n + 1)] for i in range(n + 1)]
            )
            return (
                sha256(det.to_str()) == expected["det_sha256"][str(n)]
                and det.eval(point) == at_point
            )

        rec.check("exactalg", f"det H_{n}", det_ok)

    for n, k in inputs["cases"]:
        reduction: list = []

        def reduced_blocks_ok(n=n, k=k) -> bool:
            reduction.append(rec.call("hankel", "block_reduce", block_reduce, n, k))
            report = rec.call("hankel", "verify", verify_block_reduction, reduction[0])
            return report.all_ok

        def factorization_ok() -> bool:
            return rec.call("hankel", "factorization", factorization_identity, reduction[0])

        rec.check("hankel", f"verify_block_reduction n={n} k={k}", reduced_blocks_ok)
        rec.check("hankel", f"factorization_identity n={n} k={k}", factorization_ok)

    argv = ["verify", "-n", str(inputs["verify_n"])]
    rec.check("cli", " ".join(argv), lambda: run_cli(rec, "verify", argv, expected))


# -- twisted -------------------------------------------------------------------


def slice_domain_size(nvars: int, modulus: int, residue: int, truncation: int, degrees) -> int:
    """Monomial forms in the graded slices `truncated_drk_dims` works on,
    counted from the inputs: k-forms with coefficient degree t <= cap and
    t + k = residue mod modulus, at cap = truncation and truncation - modulus."""
    total = 0
    for cap in (truncation, truncation - modulus):
        for k in degrees:
            monomials = sum(
                math.comb(t + nvars - 1, nvars - 1)
                for t in range(cap + 1)
                if (t + k) % modulus == residue
            )
            total += math.comb(nvars, k) * monomials
    return total


def build_twisted(size: dict, rng: random.Random) -> dict:
    f1 = MultiPoly.from_str(*F_H1)
    f2 = MultiPoly.from_str(*F_H2)
    t1 = size["h1_truncation"]
    tasks = [
        (f"H_1 mod 2 residue {a} truncation {t1}", dims_ok, (f1, 2, a, t1, None))
        for a in (0, 1)
    ]
    tasks += [
        (f"H_2 mod 3 residue 1 truncation 3 degree {d}", dims_ok, (f2, 3, 1, 3, [d]))
        for d in size["h2_degrees"]
    ]
    tasks.append(("n2_eigenvectors", eigenvectors_ok, (f2,)))
    tasks += [
        (f"univariate m={m} log={log}", univariate_ok, (m, log))
        for m in range(1, size["univariate_m"] + 1)
        for log in (False, True)
    ]
    rng.shuffle(tasks)
    return {"tasks": tasks}


def run_twisted(rec: Recorder, inputs: dict, expected: dict) -> None:
    for what, check, args in inputs["tasks"]:
        rec.check("drk", what, lambda: check(rec, expected, what, *args))


def dims_ok(rec, expected, what, f, modulus, residue, truncation, degrees) -> bool:
    result = rec.call(
        "drk", "truncated_dims", truncated_drk_dims, f, modulus, residue, truncation, degrees
    )
    wanted = range(f.nvars + 1) if degrees is None else degrees
    rec.count("drk.slice_domain", slice_domain_size(f.nvars, modulus, residue, truncation, wanted))
    rec.count("drk.stabilized", 1 if result.stabilized else 0)
    pinned = expected["truncated_dims"][what]
    return [list(p) for p in result.dims] == pinned["dims"] and result.stabilized == pinned["stabilized"]


def eigenvectors_ok(rec, expected, what, f) -> bool:
    """alpha_1 and alpha_2 are D_f-closed, in classes 1 and 2 mod 3."""
    alpha1, alpha2 = rec.call("drk", "eigenvectors", n2_eigenvectors)
    return (
        homogeneous_class(alpha1, 3).residue == 1
        and homogeneous_class(alpha2, 3).residue == 2
        and d_f(f, alpha1).is_zero()
        and d_f(f, alpha2).is_zero()
    )


def univariate_ok(rec, expected, what, m, log) -> bool:
    basis = rec.call("drk", "univariate", univariate_drk_cohomology, m, log)
    return len(basis) == m + (1 if log else 0)


# -- oracles -------------------------------------------------------------------


def build_oracles(size: dict, rng: random.Random) -> dict:
    points = [
        (n, k, locus_point(n, k, rng))
        for n in size["point_n"]
        for k in range(n)
        for _ in range(size["points_per_locus"])
    ]
    return {"points": points, **size}


def run_oracles(rec: Recorder, inputs: dict, expected: dict) -> None:
    for n, k, point in inputs["points"]:
        rec.check(
            "hankel",
            f"factorization at a point n={n} k={k}",
            lambda n=n, k=k, point=point: rec.call(
                "hankel", "point_check", factorization_identity_at_point, n, k, point
            ),
        )

    for n in range(1, inputs["hodge_n"] + 1):
        rec.check(
            "hodge",
            f"milnor hodge n={n}",
            lambda n=n: rec.call("hodge", "bruteforce", milnor_hodge_bruteforce, n)
            == rec.call("hodge", "closed", milnor_hodge_closed, n),
        )

    for n in range(1, inputs["compositions_n"] + 1):
        rec.check("compositions", f"coprime counts n={n}", lambda n=n: compositions_ok(rec, n))

    n = inputs["stratify_n"]
    records: list = []

    def stratify_ok() -> bool:
        records.extend(rec.call("strata", "stratify", stratify, n))
        rec.count("strata.records", len(records))
        return len(records) == 2 ** n

    rec.check("strata", f"stratify n={n}", stratify_ok)
    for s in records:
        rec.check("strata", f"normal form {s.exponent_vector}", lambda s=s: normal_form_ok(rec, s))

    for n in range(1, inputs["tables_n"] + 1):
        rec.check("cohomtables", f"eigenvalue tables n={n}", lambda n=n: eigen_tables_ok(rec, n))
    for g in range(inputs["ih_genus"] + 1):
        for k in range(1, inputs["ih_k"] + 1):
            rec.check("cohomtables", f"ih g={g} k={k}", lambda g=g, k=k: ih_ok(rec, g, k))

    argv = ["strata", "-n", str(inputs["strata_cli_n"])]
    rec.check("cli", " ".join(argv), lambda: run_cli(rec, "strata", argv, expected))


def compositions_ok(rec: Recorder, n: int) -> bool:
    comps = rec.call("compositions", "enumerate", enumerate_compositions, n)
    by_length: Dict[int, int] = {}
    for c in comps:
        if reduce(math.gcd, c.parts) == 1:
            by_length[len(c.parts)] = by_length.get(len(c.parts), 0) + 1
    closed = {
        length: rec.call("compositions", "count", count_coprime_by_length, n, length)
        for length in range(1, n + 1)
    }
    return (
        len(comps) == 2 ** (n - 1)
        and rec.call("compositions", "count", count_coprime, n) == sum(by_length.values())
        and all(closed[length] == by_length.get(length, 0) for length in closed)
    )


def normal_form_ok(rec: Recorder, stratum) -> bool:
    exps = stratum.exponent_vector
    change = rec.call("strata", "normal_form", torus_normal_form, exps)
    return (
        change.exponent == stratum.gcd == reduce(math.gcd, exps)
        and change.pullback_exponents() == tuple(exps)
        and rational_det(
            [[Fraction(v) for v in row] for row in change.matrix]
        ) in (1, -1)
    )


def eigen_tables_ok(rec: Recorder, n: int) -> bool:
    """Eigenvalue table degrees match the Milnor Betti table, and the
    nearby-cycle summands carry every primitive root of order <= n+1."""
    table = rec.call("cohomtables", "tables", monodromy_eigentable, n)
    betti = rec.call("hodge", "milnor_betti", milnor_betti, n)
    summands = rec.call("cohomtables", "tables", nearby_vanishing_decomposition, n)
    by_degree: Dict[int, int] = {}
    for _, degree, mult in table:
        by_degree[degree] = by_degree.get(degree, 0) + mult
    roots = {(s.eigenvalue.p, s.eigenvalue.q) for s in summands}
    return by_degree == {j: d for j, d in enumerate(betti.dims) if d} and roots == {
        (p, q)
        for q in range(1, n + 2)
        for p in range(q)
        if math.gcd(p, q) == 1 and (p or q == 1)
    }


def ih_ok(rec: Recorder, g: int, k: int) -> bool:
    table = rec.call("cohomtables", "tables", ih_betti, g, k)
    return table.is_palindromic() and all(
        table.dim(j) == rec.call("cohomtables", "tables", sym_power_betti, g, k, j)
        for j in range(k + 1)
    )


WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "symbolic": (build_symbolic, run_symbolic),
    "twisted": (build_twisted, run_twisted),
    "oracles": (build_oracles, run_oracles),
}
