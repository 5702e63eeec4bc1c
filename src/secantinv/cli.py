"""Command-line front end.

Every subcommand prints a deterministic result on stdout: JSON (with a
top-level "schema": "1" field), a plain text table, or, for the Betti
tables of `betti` and `ih`, a LaTeX tabular.  Identical invocations produce
byte-identical output; no environment variable affects results.  The
parser rejects unknown formats and out-of-range sizes before any
computation starts.

Exit codes: 0 success, 1 internal verification failure, 2 argument errors,
3 internal error (an unexpected exception).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from . import cohomtables, drk, hankel, hodge, strata
from .exactalg import MAX_DEGREE, MultiPoly

SCHEMA = "1"

#: Size ceilings of the subcommands whose cost explodes with their size
#: argument (one run each at the ceiling on a 2-core VM; medians of 7 for
#: `verify` and `blockreduce`, of 5 for `nearby`):
#: `strata -n 16` writes 65,536 records (about 19 MB of JSON) in about 0.8 s (peak RSS 30 MB),
#: `verify -n 14` takes about 0.3 s (peak RSS 20 MB); the ceiling is that of
#: `blockreduce`, whose reductions it checks,
#: `blockreduce -n 14 -k 0` takes about 0.25 s (peak RSS 31 MB) and writes 3.1 MB,
#: `ih -g 2 -k 4000` takes about 2.4 s (the loop is quadratic in k),
#: `ih -g 100 -k 4000` takes about 3.7 s and writes 1.0 MB (the binomials
#: C(2g, j) grow with g),
#: `nearby -n 500` takes about 0.55 s (peak RSS 100 MB) and writes 10.8 MB (quadratic in n),
#: `monodromy -n 100000` takes about 0.4 s and writes 8.0 MB record by record (peak
#: RSS 41 MB) and `betti --milnor -n 100000` about 0.4 s and 2.9 MB; both grow
#: linearly in n (`monodromy -n 1000000` took 3.2 s, wrote 83 MB and peaked at 219 MB).
#: `hodge -n` is capped by representation, not time: the torus-bundle
#: polynomial has degree 2n + 1, which must fit a packed monomial key.
STRATA_MAX_N = 16
VERIFY_MAX_N = 14
BLOCKREDUCE_MAX_N = 14
IH_MAX_G = 100
IH_MAX_K = 4000
NEARBY_MAX_N = 500
MILNOR_MAX_N = 100000
HODGE_MAX_N = (MAX_DEGREE - 1) // 2


def _json_dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def emit_latex(table: hodge.BettiTable) -> str:
    """Deterministic LaTeX tabular of a Betti table, degrees ascending."""
    cols = len(table.dims)
    lines = [
        "\\begin{tabular}{" + "c" * max(cols, 1) + "}",
        " & ".join(f"$j={j}$" for j in range(cols)) + (" \\\\" if cols else "\\\\"),
        "\\hline",
    ]
    if cols:
        lines.append(" & ".join(str(d) for d in table.dims) + " \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


def _betti_table_text(table: hodge.BettiTable) -> str:
    lines = ["degree  dim"]
    for j, d in enumerate(table.dims):
        lines.append(f"{j:>6}  {d}")
    return "\n".join(lines) + "\n"


def _render_betti(table: hodge.BettiTable, fmt: str, extra: dict) -> str:
    if fmt == "latex":
        return emit_latex(table)
    if fmt == "table":
        return _betti_table_text(table)
    obj = {"schema": SCHEMA, **extra, **table.to_obj()}
    return _json_dumps(obj)


def _usage_error(message: str) -> int:
    print(f"secantinv: error: {message}", file=sys.stderr)
    return 2


def _cmd_strata(args: argparse.Namespace, out) -> int:
    descriptors = strata.stratify(args.n)
    if args.format == "table":
        out.write("composition  gcd  monomial\n")
        for d in descriptors:
            mono = "*".join(f"y{q}" if p == 1 else f"y{q}^{p}" for q, p in d.monomial)
            out.write(f"{list(d.exponent_vector)!s:<12} {d.gcd:>4}  {mono}\n")
        return 0
    # The bytes of json.dumps(..., sort_keys=True), written one record at a time.
    out.write(f'{{"n": {args.n}, "schema": "{SCHEMA}", "strata": [')
    sep = ""
    for d in descriptors:
        mono = ", ".join(f'{{"power": {p}, "var": {q}}}' for q, p in d.monomial)
        out.write(f'{sep}{{"composition": {list(d.exponent_vector)}, "gcd": {d.gcd}, "monomial": [{mono}]}}')
        sep = ", "
    out.write("]}\n")
    return 0


def _hodge_coeffs(poly: MultiPoly) -> dict:
    """JSON map {"<degree>": coefficient} of a Hodge polynomial in t = x0."""
    return {str(d): int(c) for (d,), c in poly.terms.items()}


def _hodge_text(poly: MultiPoly) -> str:
    """Text form of a Hodge polynomial in t, e.g. "t^3 - 2*t + 5"."""
    return poly.to_str().replace("x0", "t")


def _cmd_hodge(args: argparse.Namespace, out) -> int:
    n, d = args.n, args.d
    if d is not None and (d < 1 or (n + 1) % d != 0):
        return _usage_error(f"-d must be a positive divisor of n+1 = {n + 1}")
    if args.gbundle:
        poly = hodge.gbundle_hodge(n, d if d is not None else n + 1)
        subject = "gbundle"
    elif d is not None:
        poly = hodge.quotient_hodge(n, d)
        subject = "quotient"
    else:
        poly = hodge.milnor_hodge_closed(n)
        subject = "milnor"
    if args.format == "table":
        out.write(f"{_hodge_text(poly)}\n")
    else:
        obj = {"schema": SCHEMA, "n": n, "subject": subject, "coeffs": _hodge_coeffs(poly)}
        if d is not None:
            obj["d"] = d
        out.write(_json_dumps(obj))
    return 0


def _cmd_betti(args: argparse.Namespace, out) -> int:
    if args.milnor:
        if args.n is None:
            return _usage_error("--milnor requires -n")
        table = cohomtables.eigentable_betti(args.n)
        extra = {"n": args.n, "subject": "milnor"}
    else:
        if args.g is None:
            return _usage_error("--sec2 requires -g")
        table = cohomtables.sec2_singular_betti(args.g)
        extra = {"g": args.g, "subject": "sec2"}
    out.write(_render_betti(table, args.format, extra))
    return 0


def _cmd_ih(args: argparse.Namespace, out) -> int:
    table = cohomtables.ih_betti(args.g, args.k)
    out.write(_render_betti(table, args.format, {"g": args.g, "k": args.k, "subject": "ih"}))
    return 0


def _cmd_monodromy(args: argparse.Namespace, out) -> int:
    rows = cohomtables.monodromy_eigentable(args.n)
    if args.format == "table":
        out.write("eigenvalue        degree  multiplicity\n")
        for lam, degree, mult in rows:
            out.write(f"{lam.label():<17} {degree:>5}  {mult}\n")
        return 0
    # The bytes of json.dumps(..., sort_keys=True), written one record at a time.
    out.write('{"entries": [')
    sep = ""
    for lam, degree, mult in rows:
        out.write(
            f'{sep}{{"degree": {degree}, "eigenvalue": {{"p": {lam.p}, "q": {lam.q}}}, '
            f'"multiplicity": {mult}}}'
        )
        sep = ", "
    out.write(f'], "n": {args.n}, "schema": "{SCHEMA}"}}\n')
    return 0


def _cmd_nearby(args: argparse.Namespace, out) -> int:
    summands = cohomtables.nearby_vanishing_decomposition(args.n)
    if args.format == "table":
        lines = ["eigenvalue        support  rank  weight  kind"]
        for s in summands:
            lines.append(
                f"{s.eigenvalue.label():<17} X_{s.support_index:<5}  {s.rank:>3}  {s.weight:>5}  {s.kind}"
            )
        out.write("\n".join(lines) + "\n")
    else:
        obj = {
            "schema": SCHEMA,
            "n": args.n,
            "summands": [s.to_obj() for s in summands],
        }
        out.write(_json_dumps(obj))
    return 0


def _cmd_eigenvectors(args: argparse.Namespace, out) -> int:
    alpha1, alpha2 = drk.n2_eigenvectors()
    if args.format == "table":
        out.write(f"{alpha1.to_str()}\n{alpha2.to_str()}\n")
    else:
        obj = {
            "schema": SCHEMA,
            "n": 2,
            "forms": [alpha1.to_obj(), alpha2.to_obj()],
            "classes": [1, 2],
            "modulus": 3,
        }
        out.write(_json_dumps(obj))
    return 0


def _cmd_blockreduce(args: argparse.Namespace, out) -> int:
    if not 0 <= args.k <= args.n - 1:
        return _usage_error(f"-k must be in 0..{args.n - 1}")
    reduction = hankel.block_reduce(args.n, args.k)
    if args.format == "table":
        lines = [f"p_{i} = {p.to_str()}" for i, p in enumerate(reduction.p_seq)]
        lines += [f"y_{i} = {y.to_str()}" for i, y in enumerate(reduction.y_coords)]
        out.write("\n".join(lines) + "\n")
    else:
        out.write(_json_dumps({"schema": SCHEMA, **reduction.to_obj()}))
    return 0


def _cmd_verify(args: argparse.Namespace, out) -> int:
    n = args.n
    if args.k is None:
        ks = list(range(n))
    elif 0 <= args.k <= n - 1:
        ks = [args.k]
    else:
        return _usage_error(f"-k must be in 0..{n - 1}")

    reports = [hankel.verify_block_reduction(hankel.block_reduce(n, k)) for k in ks]
    all_ok = all(r.all_ok for r in reports)
    # The verdict is set before the first write: a reader that closes stdout
    # early must not turn a failed verification into exit 0.
    args.exit_code = 0 if all_ok else 1
    if args.format == "table":
        lines = []
        for r in reports:
            status = "ok" if r.all_ok else "FAIL " + ",".join(r.failing_cases())
            lines.append(f"n={r.n} k={r.k}: {status}")
        out.write("\n".join(lines) + "\n")
    else:
        obj = {
            "schema": SCHEMA,
            "n": n,
            "all_ok": all_ok,
            "reports": [r.to_obj() for r in reports],
        }
        out.write(_json_dumps(obj))
    return args.exit_code


def _bounded_int(lo: int, hi: Optional[int]):
    """argparse type: an integer in lo..hi (no ceiling when hi is None)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi} (size ceiling), got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: parsing does
    not change it.  Each subcommand records the name of its handler, which
    `run` looks up when it dispatches, so the parser binds no function."""
    parser = argparse.ArgumentParser(
        prog="secantinv",
        description=(
            "Exact invariants of Hankel determinantal hypersurfaces and "
            "secant varieties of rational normal curves"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, handler, help_text: str, latex: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        formats = ("json", "table", "latex") if latex else ("json", "table")
        p.add_argument("--format", choices=formats, default="json")
        p.set_defaults(handler=handler.__name__)
        return p

    def int_arg(p, flag: str, help_text: str, lo=None, hi=None, required=True) -> None:
        kind = int
        if lo is not None:
            kind = _bounded_int(lo, hi)
            help_text += f" ({lo}..{hi})" if hi is not None else f" (at least {lo})"
        p.add_argument(flag, type=kind, required=required, help=help_text)

    p = add("strata", _cmd_strata, "torus strata of the Hankel determinant")
    int_arg(p, "-n", "matrix size parameter", 0, STRATA_MAX_N)

    p = add("hodge", _cmd_hodge, "Hodge polynomial of the Hankel Milnor fiber")
    int_arg(p, "-n", "matrix size parameter", 1, HODGE_MAX_N)
    int_arg(p, "-d", "divisor of n+1 for the quotient fiber", required=False)
    p.add_argument("--gbundle", action="store_true", help="torus bundle over the quotient fiber")

    p = add("betti", _cmd_betti, "Betti tables", latex=True)
    int_arg(p, "-n", "Milnor fiber parameter", 1, MILNOR_MAX_N, required=False)
    int_arg(p, "-g", "curve genus", 0, required=False)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--milnor", action="store_true", help="Milnor fiber Betti table")
    which.add_argument("--sec2", action="store_true", help="second secant variety singular cohomology")

    p = add("ih", _cmd_ih, "intersection cohomology of a secant variety", latex=True)
    int_arg(p, "-g", "curve genus", 0, IH_MAX_G)
    int_arg(p, "-k", "secant index", 1, IH_MAX_K)

    p = add("monodromy", _cmd_monodromy, "monodromy eigenvalue table")
    int_arg(p, "-n", "matrix size parameter", 1, MILNOR_MAX_N)

    p = add("nearby", _cmd_nearby, "nearby/vanishing cycle decomposition")
    int_arg(p, "-n", "matrix size parameter", 1, NEARBY_MAX_N)

    add("eigenvectors", _cmd_eigenvectors, "explicit monodromy eigenvectors for the 3x3 case")

    p = add("blockreduce", _cmd_blockreduce, "block reduction data")
    int_arg(p, "-n", "matrix size parameter", 1, BLOCKREDUCE_MAX_N)
    int_arg(p, "-k", "vanishing-order parameter")

    p = add("verify", _cmd_verify, "verify block-reduction identities")
    int_arg(p, "-n", "matrix size parameter", 1, VERIFY_MAX_N)
    int_arg(p, "-k", "single vanishing-order parameter", required=False)
    return parser


def run(argv: Sequence[str], out=None) -> int:
    """Execute one command line; returns the process exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.exit_code = 0  # a handler that decides a nonzero code sets it before writing
    try:
        code = globals()[args.handler](args, out if out is not None else sys.stdout)
        if out is None:
            sys.stdout.flush()  # a closed pipe shows up here rather than at exit
    except BrokenPipeError:  # the reader stopped early, as `| head` does: not an error
        code = args.exit_code
        if out is None:  # Python flushes stdout again at exit; send that flush nowhere
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
    except hankel.CertificateError as exc:  # block_reduce refused its reduction
        print(f"secantinv: verification failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"secantinv: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
