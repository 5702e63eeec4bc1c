"""Command-line interface: golden outputs, determinism, exit codes, size
ceilings, a closed stdout pipe, and CLI JSON against each library value's
own `to_obj()` (or, for strata, the record dict kept here as reference)."""

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

from secantinv import cli
import pytest

from secantinv.cohomtables import (
    eigentable_betti,
    ih_betti,
    monodromy_eigentable,
    nearby_vanishing_decomposition,
    sec2_singular_betti,
)
from secantinv.drk import n2_eigenvectors
from secantinv.hankel import (
    CheckResult,
    VerificationReport,
    block_reduce,
    verify_block_reduction,
)
from secantinv.hodge import BettiTable, milnor_hodge_closed
from secantinv.strata import stratify


def stratum_obj(d):
    """Reference JSON record of one stratum: the dict form the CLI used to
    build per record and hand to json.dumps."""
    return {
        "composition": list(d.exponent_vector),
        "gcd": d.gcd,
        "monomial": [{"var": q, "power": p} for q, p in d.monomial],
    }


def strata_json_reference(n):
    return json.dumps(
        {"schema": "1", "n": n, "strata": [stratum_obj(d) for d in stratify(n)]},
        sort_keys=True,
    ) + "\n"


def monodromy_json_reference(n):
    entries = [
        {"eigenvalue": lam.to_obj(), "degree": degree, "multiplicity": mult}
        for lam, degree, mult in monodromy_eigentable(n)
    ]
    return json.dumps({"schema": "1", "n": n, "entries": entries}, sort_keys=True) + "\n"


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


def cli_json(*argv):
    code, text = run_cli(*argv)
    assert code == 0
    return json.loads(text)


def _must_not_run(*args, **kwargs):
    raise AssertionError("computation started")


@pytest.fixture
def no_computation(monkeypatch):
    """Make every computation a CLI handler can start raise, so a command
    that gets past argument checking exits 3 instead of 2."""
    for module, name in (
        (cli.strata, "stratify"),
        (cli.hankel, "block_reduce"),
        (cli.hankel, "verify_block_reduction"),
        (cli.hodge, "milnor_hodge_closed"),
        (cli.hodge, "quotient_hodge"),
        (cli.hodge, "gbundle_hodge"),
        (cli.cohomtables, "ih_betti"),
        (cli.cohomtables, "monodromy_eigentable"),
        (cli.cohomtables, "eigentable_betti"),
        (cli.cohomtables, "sec2_singular_betti"),
        (cli.cohomtables, "nearby_vanishing_decomposition"),
        (cli.drk, "n2_eigenvectors"),
    ):
        monkeypatch.setattr(module, name, _must_not_run)


class TestGoldenOutputs:
    def test_betti_milnor_n2_json(self):
        code, text = run_cli("betti", "--milnor", "-n", "2", "--format", "json")
        assert code == 0
        assert text == (
            '{"degrees": [1, 0, 2], "eigenvalues": {"0": ["1"], '
            '"2": ["e(2*pi*i*1/3)", "e(2*pi*i*2/3)"]}, "n": 2, '
            '"schema": "1", "subject": "milnor"}\n'
        )

    def test_ih_genus0_k3_table_has_ones_in_even_degrees(self):
        code, text = run_cli("ih", "-g", "0", "-k", "3", "--format", "table")
        assert code == 0
        lines = text.strip().splitlines()[1:]
        dims = [int(line.split()[1]) for line in lines]
        assert dims == [1 if j % 2 == 0 else 0 for j in range(11)]

    def test_strata_n2_json_has_four_records(self):
        code, text = run_cli("strata", "-n", "2", "--format", "json")
        assert code == 0
        obj = json.loads(text)
        assert obj["schema"] == "1"
        assert len(obj["strata"]) == 4
        monomials = {
            tuple((rec["var"], rec["power"]) for rec in s["monomial"])
            for s in obj["strata"]
        }
        assert ((2, 3),) in monomials
        assert ((1, 2), (4, 1)) in monomials

    def test_hodge_n2_json(self):
        code, text = run_cli("hodge", "-n", "2")
        assert code == 0
        obj = json.loads(text)
        assert obj["coeffs"] == {"2": 2, "4": 1}

    def test_determinism_byte_for_byte(self):
        for argv in (
            ("betti", "--milnor", "-n", "4"),
            ("strata", "-n", "3"),
            ("monodromy", "-n", "6"),
            ("nearby", "-n", "5", "--format", "table"),
            ("blockreduce", "-n", "2", "-k", "1"),
            ("eigenvectors",),
        ):
            _, first = run_cli(*argv)
            _, second = run_cli(*argv)
            assert first == second


class TestLatex:
    def test_empty_table(self):
        text = cli.emit_latex(BettiTable(()))
        assert text.startswith("\\begin{tabular}")
        assert text.endswith("\\end{tabular}\n")

    def test_milnor_n2_row(self):
        code, text = run_cli("betti", "--milnor", "-n", "2", "--format", "latex")
        assert code == 0
        assert "1 & 0 & 2 \\\\" in text

    def test_ih_g1_k2_has_seven_columns(self):
        code, text = run_cli("ih", "-g", "1", "-k", "2", "--format", "latex")
        assert code == 0
        assert "1 & 2 & 2 & 2 & 2 & 2 & 1 \\\\" in text
        assert "{ccccccc}" in text

    def test_latex_is_ascii(self):
        _, text = run_cli("ih", "-g", "2", "-k", "3", "--format", "latex")
        text.encode("ascii")


class TestExitCodes:
    def test_unknown_subcommand(self):
        code, _ = run_cli("frobnicate")
        assert code == 2

    def test_missing_required_parameter(self):
        code, _ = run_cli("ih", "-g", "1")
        assert code == 2

    def test_out_of_range_parameter(self):
        code, _ = run_cli("blockreduce", "-n", "2", "-k", "5")
        assert code == 2

    def test_conflicting_flags(self):
        code, _ = run_cli("betti", "-n", "2")
        assert code == 2

    def test_bad_format(self):
        code, _ = run_cli("betti", "--milnor", "-n", "2", "--format", "xml")
        assert code == 2

    def test_latex_unsupported_for_polynomials(self):
        code, _ = run_cli("hodge", "-n", "2", "--format", "latex")
        assert code == 2

    def test_verify_success_exit_zero(self):
        code, text = run_cli("verify", "-n", "2")
        assert code == 0
        assert json.loads(text)["all_ok"] is True


class TestRoundTrips:
    """Library value to CLI JSON: the output is exactly the value's own
    `to_obj()` (for strata, `stratum_obj`), inside the CLI's envelope keys.
    Nothing parses it back."""

    def test_betti_milnor(self):
        assert cli_json("betti", "--milnor", "-n", "3") == {
            "schema": "1",
            "n": 3,
            "subject": "milnor",
            **eigentable_betti(3).to_obj(),
        }

    def test_betti_sec2(self):
        assert cli_json("betti", "--sec2", "-g", "2") == {
            "schema": "1",
            "g": 2,
            "subject": "sec2",
            **sec2_singular_betti(2).to_obj(),
        }

    def test_ih(self):
        assert cli_json("ih", "-g", "1", "-k", "2") == {
            "schema": "1",
            "g": 1,
            "k": 2,
            "subject": "ih",
            **ih_betti(1, 2).to_obj(),
        }

    def test_hodge(self):
        assert cli_json("hodge", "-n", "3") == {
            "schema": "1",
            "n": 3,
            "subject": "milnor",
            "coeffs": {str(d): c for (d,), c in milnor_hodge_closed(3).terms.items()},
        }

    def test_monodromy(self):
        assert cli_json("monodromy", "-n", "4")["entries"] == [
            {"eigenvalue": lam.to_obj(), "degree": degree, "multiplicity": mult}
            for lam, degree, mult in monodromy_eigentable(4)
        ]

    def test_nearby(self):
        assert cli_json("nearby", "-n", "3")["summands"] == [
            s.to_obj() for s in nearby_vanishing_decomposition(3)
        ]

    def test_eigenvectors(self):
        assert cli_json("eigenvectors")["forms"] == [
            form.to_obj() for form in n2_eigenvectors()
        ]

    def test_blockreduce(self):
        obj = cli_json("blockreduce", "-n", "2", "-k", "0")
        assert obj.pop("schema") == "1"
        reduction = block_reduce(2, 0)
        assert obj == reduction.to_obj()
        assert obj["factorization_sign"] == reduction.factorization_sign

    def test_strata(self):
        assert cli_json("strata", "-n", "3")["strata"] == [
            stratum_obj(d) for d in stratify(3)
        ]

    def test_verify(self):
        assert cli_json("verify", "-n", "3")["reports"] == [
            verify_block_reduction(block_reduce(3, k)).to_obj() for k in range(3)
        ]


class TestFormatChoices:
    """`--format` choices belong to each subcommand: latex exists only for
    the Betti tables of `betti` and `ih`, and is refused before any
    computation starts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("strata", "-n", "3"),
            ("hodge", "-n", "2"),
            ("monodromy", "-n", "3"),
            ("nearby", "-n", "2"),
            ("eigenvectors",),
            ("blockreduce", "-n", "2", "-k", "1"),
            ("verify", "-n", "3"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_latex_refused_without_computing(self, no_computation, argv):
        code, text = run_cli(*argv, "--format", "latex")
        assert code == 2
        assert text == ""

    def test_latex_offered_only_by_betti_and_ih(self, capsys):
        for name, offered in (("betti", True), ("ih", True), ("strata", False)):
            assert run_cli(name, "--help")[0] == 0
            assert ("latex" in capsys.readouterr().out) is offered


class TestSizeCeilings:
    def test_strata_above_ceiling_exits_2_without_computing(self, no_computation, capsys):
        code, text = run_cli("strata", "-n", str(cli.STRATA_MAX_N + 1))
        assert code == 2
        assert text == ""
        assert f"at most {cli.STRATA_MAX_N}" in capsys.readouterr().err

    def test_verify_above_ceiling_exits_2_without_computing(self, no_computation, capsys):
        code, text = run_cli("verify", "-n", str(cli.VERIFY_MAX_N + 1))
        assert code == 2
        assert text == ""
        assert f"at most {cli.VERIFY_MAX_N}" in capsys.readouterr().err

    def test_verify_runs_for_real_past_the_determinant_expansions_reach(self):
        # n = 9 was out of reach while the checks expanded the y-Hankel
        # determinant; on the certificate it takes a fraction of a second.
        code, text = run_cli("verify", "-n", "9")
        assert code == 0
        reports = json.loads(text)["reports"]
        assert [r["k"] for r in reports] == list(range(9))
        assert all(r["all_ok"] for r in reports)

    def test_blockreduce_at_its_ceiling_prints_the_pinned_bytes(self):
        # The goldens stop at small n; this pins the largest reduction's
        # output, which does not depend on how N is built.
        code, text = run_cli("blockreduce", "-n", str(cli.BLOCKREDUCE_MAX_N), "-k", "0")
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2019e37d5bb0c1f5bbf923b7e437a8d619432200f7d5f1090ce3988e516cf0cd"
        )

    @pytest.mark.parametrize(
        "argv, ceiling",
        [
            pytest.param(("blockreduce", "-k", "0", "-n"), cli.BLOCKREDUCE_MAX_N, id="blockreduce"),
            pytest.param(("ih", "-g", "2", "-k"), cli.IH_MAX_K, id="ih"),
            pytest.param(("ih", "-k", "2", "-g"), cli.IH_MAX_G, id="ih-g"),
            pytest.param(("nearby", "-n"), cli.NEARBY_MAX_N, id="nearby"),
            pytest.param(("hodge", "-n"), cli.HODGE_MAX_N, id="hodge"),
            pytest.param(("monodromy", "-n"), cli.MILNOR_MAX_N, id="monodromy"),
            pytest.param(("betti", "--milnor", "-n"), cli.MILNOR_MAX_N, id="betti-milnor"),
        ],
    )
    def test_above_ceiling_exits_2_without_computing(
        self, no_computation, capsys, argv, ceiling
    ):
        code, text = run_cli(*argv, str(ceiling + 1))
        assert code == 2
        assert text == ""
        assert f"at most {ceiling}" in capsys.readouterr().err

    def test_ceilings_are_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli.strata, "stratify", lambda n: [])
        monkeypatch.setattr(cli.hankel, "block_reduce", lambda n, k: SimpleNamespace(n=n, k=k, to_obj=dict))
        monkeypatch.setattr(
            cli.hankel,
            "verify_block_reduction",
            lambda r: VerificationReport(r.n, r.k, (CheckResult("determinant", True),)),
        )
        monkeypatch.setattr(cli.cohomtables, "ih_betti", lambda g, k: BettiTable((1,)))
        monkeypatch.setattr(cli.cohomtables, "nearby_vanishing_decomposition", lambda n: [])
        monkeypatch.setattr(cli.cohomtables, "monodromy_eigentable", lambda n: [])
        monkeypatch.setattr(cli.cohomtables, "eigentable_betti", lambda n: BettiTable((1,)))
        assert run_cli("strata", "-n", str(cli.STRATA_MAX_N))[0] == 0
        assert run_cli("verify", "-n", str(cli.VERIFY_MAX_N))[0] == 0
        assert run_cli("blockreduce", "-n", str(cli.BLOCKREDUCE_MAX_N), "-k", "0")[0] == 0
        assert run_cli("ih", "-g", "2", "-k", str(cli.IH_MAX_K))[0] == 0
        assert run_cli("ih", "-g", str(cli.IH_MAX_G), "-k", "2")[0] == 0
        assert run_cli("nearby", "-n", str(cli.NEARBY_MAX_N))[0] == 0
        assert run_cli("monodromy", "-n", str(cli.MILNOR_MAX_N))[0] == 0
        assert run_cli("betti", "--milnor", "-n", str(cli.MILNOR_MAX_N))[0] == 0
        # Computed for real: the largest Hodge polynomial, degree 2n + 1,
        # still fits a packed monomial key.
        assert run_cli("hodge", "-n", str(cli.HODGE_MAX_N), "--gbundle")[0] == 0

    def test_help_states_the_ceilings(self, capsys):
        for name, stated in (
            ("strata", f"0..{cli.STRATA_MAX_N}"),
            ("verify", f"1..{cli.VERIFY_MAX_N}"),
            ("blockreduce", f"1..{cli.BLOCKREDUCE_MAX_N}"),
            ("ih", f"1..{cli.IH_MAX_K}"),
            ("ih", f"0..{cli.IH_MAX_G}"),
            ("nearby", f"1..{cli.NEARBY_MAX_N}"),
            ("hodge", f"1..{cli.HODGE_MAX_N}"),
            ("monodromy", f"1..{cli.MILNOR_MAX_N}"),
            ("betti", f"1..{cli.MILNOR_MAX_N}"),
        ):
            run_cli(name, "--help")
            assert stated in capsys.readouterr().out


class TestFailureExitCodes:
    def test_internal_error_exits_3(self, monkeypatch, capsys):
        def crash(args, out):
            raise RuntimeError("boom")

        # The parser is built before the patch: the handler is looked up
        # by name when the command runs, not bound when the parser is built.
        assert run_cli("nearby", "-n", "2")[0] == 0
        monkeypatch.setattr(cli, "_cmd_nearby", crash)
        code, _ = run_cli("nearby", "-n", "2")
        assert code == 3
        assert capsys.readouterr().err == "secantinv: internal error: RuntimeError: boom\n"

    def test_failed_verification_exits_1(self, monkeypatch):
        def failing(reduction):
            return VerificationReport(
                reduction.n, reduction.k, (CheckResult("determinant", False),)
            )

        monkeypatch.setattr(cli.hankel, "verify_block_reduction", failing)
        code, text = run_cli("verify", "-n", "2", "--format", "table")
        assert code == 1
        assert text == "n=2 k=0: FAIL determinant\nn=2 k=1: FAIL determinant\n"

    @pytest.mark.parametrize(
        "command", [["verify", "-n", "2"], ["blockreduce", "-n", "2", "-k", "0"]], ids=lambda c: c[0]
    )
    def test_a_failed_certificate_exits_1(self, monkeypatch, capsys, command):
        monkeypatch.setattr(cli.hankel, "_change_of_basis_holds", lambda r: False)
        assert run_cli(*command) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("secantinv: verification failed: ")
        assert "certificate" in err

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("ok, expected", [(False, 1), (True, 0)], ids=["failed", "passed"])
    def test_verdict_survives_a_closed_reader(self, monkeypatch, fmt, ok, expected):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        def verdict(reduction):
            checks = (CheckResult("determinant", ok),)
            return VerificationReport(reduction.n, reduction.k, checks)

        monkeypatch.setattr(cli.hankel, "verify_block_reduction", verdict)
        assert cli.run(["verify", "-n", "2", "--format", fmt], ClosedPipe()) == expected

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("ok, expected", [(False, 1), (True, 0)], ids=["failed", "passed"])
    def test_verdict_survives_a_closed_stdout_in_a_process(self, ok, expected, unbuffered):
        # The child waits on stdin inside the verification until the reader
        # has closed its stdout, so every write meets the closed pipe.
        child = (
            "import sys\n"
            "from secantinv import cli, hankel\n"
            "def verdict(reduction):\n"
            "    sys.stdin.read(1)\n"
            f"    checks = (hankel.CheckResult('determinant', {ok}),)\n"
            "    return hankel.VerificationReport(reduction.n, reduction.k, checks)\n"
            "hankel.verify_block_reduction = verdict\n"
            "cli.main()\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-c", child, "verify", "-n", "2"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            proc.stdout.close()
            proc.stdin.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert (code, err) == (expected, b"")

    @pytest.mark.parametrize(
        "module, name, argv",
        [
            pytest.param(cli.hodge, "milnor_hodge_closed", ("hodge", "-n", "2"), id="hodge"),
            pytest.param(cli.hankel, "block_reduce", ("blockreduce", "-n", "2", "-k", "0"), id="blockreduce"),
        ],
    )
    def test_internal_value_error_exits_3(self, monkeypatch, capsys, module, name, argv):
        def broken(*args):
            raise ValueError("broken invariant")

        monkeypatch.setattr(module, name, broken)
        code, text = run_cli(*argv)
        assert code == 3
        assert text == ""
        assert "internal error: ValueError: broken invariant" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("hodge", "-n", "5", "-d", "4"),
            ("hodge", "-n", "5", "-d", "0"),
            ("hodge", "-n", "5", "-d", "-3"),
            ("hodge", "-n", "5", "-d", "4", "--gbundle"),
            ("blockreduce", "-n", "2", "-k", "2"),
            ("blockreduce", "-n", "2", "-k", "-1"),
        ],
        ids=" ".join,
    )
    def test_bad_dependent_argument_exits_2_without_computing(self, no_computation, capsys, argv):
        code, text = run_cli(*argv)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("secantinv: error: ")


class TestCachedParser:
    def test_a_second_run_leaves_no_cyclic_garbage(self):
        # The parser is built on the first run and kept; a parser built per
        # run left about 400 objects that only the cyclic collector frees.
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert run_cli("verify", "-n", "2")[0] == 0
            gc.collect()
            assert run_cli("verify", "-n", "2")[0] == 0
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestStrataStreaming:
    """`strata` and `monodromy` write their JSON one record at a time
    instead of building the document; the bytes must stay those of
    json.dumps(..., sort_keys=True)."""

    @pytest.mark.parametrize("n", range(11))
    def test_json_bytes_equal_the_dumped_reference(self, n):
        assert run_cli("strata", "-n", str(n)) == (0, strata_json_reference(n))

    def test_peak_memory_stays_far_below_the_document(self):
        class Sink:
            written = 0

            def write(self, text):
                self.written += len(text)

        sink = Sink()
        tracemalloc.start()
        try:
            code = cli.run(["strata", "-n", "12"], sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.written == len(strata_json_reference(12))
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("n", [1, 4, 11, 12, 997])
    def test_monodromy_json_bytes_equal_the_dumped_reference(self, n):
        assert run_cli("monodromy", "-n", str(n)) == (0, monodromy_json_reference(n))

    def test_monodromy_peak_memory_stays_below_its_per_record_dicts(self):
        # The document built as per-entry dicts peaks near 9 MiB here (0.7 MB
        # of JSON); the eigentable list alone stays near 2 MiB.
        class Sink:
            written = 0

            def write(self, text):
                self.written += len(text)

        sink = Sink()
        tracemalloc.start()
        try:
            code = cli.run(["monodromy", "-n", "9999"], sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.written == len(monodromy_json_reference(9999))
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "n, read", [(14, 5), (3, 0)], ids=["closed-after-5-bytes", "closed-before-reading"]
    )
    def test_reader_closing_stdout_early_is_not_an_error(self, n, read, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "secantinv.cli", "strata", "-n", str(n)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            head = proc.stdout.read(read)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert head == b'{"n":'[:read]
        assert (code, err) == (0, b"")
