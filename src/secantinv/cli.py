"""Command-line front end.

Every subcommand prints a deterministic result on stdout: JSON (with a
top-level "schema": "1" field), a plain text table, or a LaTeX tabular.
Identical invocations produce byte-identical output; no environment
variable affects results.

Exit codes: 0 success, 1 internal verification failure, 2 argument errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, Sequence

from . import cohomtables, drk, hankel, hodge, strata

SCHEMA = "1"

FORMATS = ("json", "table", "latex")


@dataclass(frozen=True)
class Command:
    """A parsed invocation: subcommand, integer parameters, output format."""

    subcommand: str
    params: Dict[str, int]
    fmt: str
    flags: Dict[str, bool] = field(default_factory=dict)


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secantinv",
        description=(
            "Exact invariants of Hankel determinantal hypersurfaces and "
            "secant varieties of rational normal curves"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str, **params) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=FORMATS, default="json")
        for flag, (required, help_s) in params.items():
            p.add_argument(flag, type=int, required=required, help=help_s)
        return p

    add("strata", "torus strata of the Hankel determinant", **{"-n": (True, "matrix size parameter")})

    p = add("hodge", "Hodge polynomial of the Hankel Milnor fiber", **{"-n": (True, "matrix size parameter"), "-d": (False, "divisor of n+1 for the quotient fiber")})
    p.add_argument("--gbundle", action="store_true", help="torus bundle over the quotient fiber")

    p = add("betti", "Betti tables", **{"-n": (False, "Milnor fiber parameter"), "-g": (False, "curve genus")})
    p.add_argument("--milnor", action="store_true", help="Milnor fiber Betti table")
    p.add_argument("--sec2", action="store_true", help="second secant variety singular cohomology")

    add("ih", "intersection cohomology of a secant variety", **{"-g": (True, "curve genus"), "-k": (True, "secant index")})
    add("monodromy", "monodromy eigenvalue table", **{"-n": (True, "matrix size parameter")})
    add("nearby", "nearby/vanishing cycle decomposition", **{"-n": (True, "matrix size parameter")})
    add("eigenvectors", "explicit monodromy eigenvectors for the 3x3 case")
    add("blockreduce", "block reduction data", **{"-n": (True, "matrix size parameter"), "-k": (True, "vanishing-order parameter")})
    add("verify", "verify block-reduction identities", **{"-n": (True, "matrix size parameter"), "-k": (False, "single vanishing-order parameter")})
    return parser


def parse_command(argv: Sequence[str]) -> Command:
    ns = _build_parser().parse_args(list(argv))
    params = {
        key: getattr(ns, key)
        for key in ("n", "g", "k", "d")
        if getattr(ns, key, None) is not None
    }
    flags = {
        key: getattr(ns, key)
        for key in ("milnor", "sec2", "gbundle")
        if getattr(ns, key, False)
    }
    return Command(ns.subcommand, params, ns.format, flags)


def _usage_error(message: str) -> int:
    print(f"secantinv: error: {message}", file=sys.stderr)
    return 2


def _cmd_strata(cmd: Command, out) -> int:
    n = cmd.params["n"]
    if n < 0:
        return _usage_error("-n must be nonnegative")
    descriptors = strata.stratify(n)
    if cmd.fmt == "json":
        obj = {
            "schema": SCHEMA,
            "n": n,
            "strata": [d.to_obj() for d in descriptors],
        }
        out.write(_json_dumps(obj))
    elif cmd.fmt == "table":
        lines = ["composition  gcd  monomial"]
        for d in descriptors:
            mono = "*".join(
                f"y{q}" if p == 1 else f"y{q}^{p}" for q, p in d.monomial
            )
            lines.append(f"{list(d.composition.parts)!s:<12} {d.gcd:>4}  {mono}")
        out.write("\n".join(lines) + "\n")
    else:
        return _usage_error("latex output is only available for Betti tables")
    return 0


def _cmd_hodge(cmd: Command, out) -> int:
    n = cmd.params["n"]
    if n < 1:
        return _usage_error("-n must be at least 1")
    d = cmd.params.get("d")
    gbundle = cmd.flags.get("gbundle", False)
    try:
        if gbundle:
            poly = hodge.gbundle_hodge(n, d if d is not None else n + 1)
            subject = "gbundle"
        elif d is not None:
            poly = hodge.quotient_hodge(n, d)
            subject = "quotient"
        else:
            poly = hodge.milnor_hodge_closed(n)
            subject = "milnor"
    except ValueError as exc:
        return _usage_error(str(exc))
    if cmd.fmt == "json":
        obj = {"schema": SCHEMA, "n": n, "subject": subject, "coeffs": poly.to_obj()}
        if d is not None:
            obj["d"] = d
        out.write(_json_dumps(obj))
    elif cmd.fmt == "table":
        out.write(f"{poly.to_str()}\n")
    else:
        return _usage_error("latex output is only available for Betti tables")
    return 0


def _cmd_betti(cmd: Command, out) -> int:
    milnor = cmd.flags.get("milnor", False)
    sec2 = cmd.flags.get("sec2", False)
    if milnor == sec2:
        return _usage_error("choose exactly one of --milnor or --sec2")
    if milnor:
        if "n" not in cmd.params:
            return _usage_error("--milnor requires -n")
        n = cmd.params["n"]
        if n < 1:
            return _usage_error("-n must be at least 1")
        table = cohomtables.eigentable_betti(n)
        out.write(_render_betti(table, cmd.fmt, {"n": n, "subject": "milnor"}))
        return 0
    if "g" not in cmd.params:
        return _usage_error("--sec2 requires -g")
    g = cmd.params["g"]
    if g < 0:
        return _usage_error("-g must be nonnegative")
    table = cohomtables.sec2_singular_betti(g)
    out.write(_render_betti(table, cmd.fmt, {"g": g, "subject": "sec2"}))
    return 0


def _cmd_ih(cmd: Command, out) -> int:
    g, k = cmd.params["g"], cmd.params["k"]
    if g < 0 or k < 1:
        return _usage_error("require -g >= 0 and -k >= 1")
    table = cohomtables.ih_betti(g, k)
    out.write(_render_betti(table, cmd.fmt, {"g": g, "k": k, "subject": "ih"}))
    return 0


def _cmd_monodromy(cmd: Command, out) -> int:
    n = cmd.params["n"]
    if n < 1:
        return _usage_error("-n must be at least 1")
    rows = cohomtables.monodromy_eigentable(n)
    if cmd.fmt == "json":
        obj = {
            "schema": SCHEMA,
            "n": n,
            "entries": [
                {
                    "eigenvalue": lam.to_obj(),
                    "degree": degree,
                    "multiplicity": mult,
                }
                for lam, degree, mult in rows
            ],
        }
        out.write(_json_dumps(obj))
    elif cmd.fmt == "table":
        lines = ["eigenvalue        degree  multiplicity"]
        for lam, degree, mult in rows:
            lines.append(f"{lam.label():<17} {degree:>5}  {mult}")
        out.write("\n".join(lines) + "\n")
    else:
        return _usage_error("latex output is only available for Betti tables")
    return 0


def _cmd_nearby(cmd: Command, out) -> int:
    n = cmd.params["n"]
    if n < 1:
        return _usage_error("-n must be at least 1")
    summands = cohomtables.nearby_vanishing_decomposition(n)
    if cmd.fmt == "json":
        obj = {
            "schema": SCHEMA,
            "n": n,
            "summands": [s.to_obj() for s in summands],
        }
        out.write(_json_dumps(obj))
    elif cmd.fmt == "table":
        lines = ["eigenvalue        support  rank  weight  kind"]
        for s in summands:
            lines.append(
                f"{s.eigenvalue.label():<17} X_{s.support_index:<5}  {s.rank:>3}  {s.weight:>5}  {s.kind}"
            )
        out.write("\n".join(lines) + "\n")
    else:
        return _usage_error("latex output is only available for Betti tables")
    return 0


def _cmd_eigenvectors(cmd: Command, out) -> int:
    alpha1, alpha2 = drk.n2_eigenvectors()
    if cmd.fmt == "json":
        obj = {
            "schema": SCHEMA,
            "n": 2,
            "forms": [alpha1.to_obj(), alpha2.to_obj()],
            "classes": [1, 2],
            "modulus": 3,
        }
        out.write(_json_dumps(obj))
    elif cmd.fmt == "table":
        out.write(f"{alpha1.to_str()}\n{alpha2.to_str()}\n")
    else:
        return _usage_error("latex output is only available for Betti tables")
    return 0


def _cmd_blockreduce(cmd: Command, out) -> int:
    n, k = cmd.params["n"], cmd.params["k"]
    try:
        reduction = hankel.block_reduce(n, k)
    except ValueError as exc:
        return _usage_error(str(exc))
    if cmd.fmt == "json":
        obj = {"schema": SCHEMA, **reduction.to_obj()}
        out.write(_json_dumps(obj))
    elif cmd.fmt == "table":
        lines = [f"p_{i} = {p.to_str()}" for i, p in enumerate(reduction.p_seq)]
        lines += [f"y_{i} = {y.to_str()}" for i, y in enumerate(reduction.y_coords)]
        out.write("\n".join(lines) + "\n")
    else:
        return _usage_error("latex output is only available for Betti tables")
    return 0


def _cmd_verify(cmd: Command, out) -> int:
    n = cmd.params["n"]
    if n < 1:
        return _usage_error("-n must be at least 1")
    if "k" in cmd.params:
        ks = [cmd.params["k"]]
        if not 0 <= ks[0] <= n - 1:
            return _usage_error(f"-k must be in 0..{n - 1}")
    else:
        ks = list(range(n))

    reports = [hankel.verify_block_reduction(hankel.block_reduce(n, k)) for k in ks]

    all_ok = all(r.all_ok for r in reports)
    if cmd.fmt == "json":
        obj = {
            "schema": SCHEMA,
            "n": n,
            "all_ok": all_ok,
            "reports": [r.to_obj() for r in reports],
        }
        out.write(_json_dumps(obj))
    elif cmd.fmt == "table":
        lines = []
        for r in reports:
            status = "ok" if r.all_ok else "FAIL " + ",".join(r.failing_cases())
            lines.append(f"n={r.n} k={r.k}: {status}")
        out.write("\n".join(lines) + "\n")
    else:
        return _usage_error("latex output is only available for Betti tables")
    return 0 if all_ok else 1


_DISPATCH = {
    "strata": _cmd_strata,
    "hodge": _cmd_hodge,
    "betti": _cmd_betti,
    "ih": _cmd_ih,
    "monodromy": _cmd_monodromy,
    "nearby": _cmd_nearby,
    "eigenvectors": _cmd_eigenvectors,
    "blockreduce": _cmd_blockreduce,
    "verify": _cmd_verify,
}


def run(argv: Sequence[str], out=None) -> int:
    """Execute one command line; returns the process exit code."""
    try:
        cmd = parse_command(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return _DISPATCH[cmd.subcommand](cmd, out if out is not None else sys.stdout)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
