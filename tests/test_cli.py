"""Command-line interface: golden outputs, determinism, round trips."""

import io
import json

from secantinv import cli
from secantinv.cohomtables import (
    NearbyCycleSummand,
    RootOfUnity,
    eigentable_betti,
    ih_betti,
    monodromy_eigentable,
    nearby_vanishing_decomposition,
    sec2_singular_betti,
)
from secantinv.drk import ExtForm, n2_eigenvectors
from secantinv.hankel import (
    BlockReduction,
    VerificationReport,
    block_reduce,
    verify_block_reduction,
)
from secantinv.hodge import BettiTable, HodgePoly, milnor_hodge_closed
from secantinv.strata import StratumDescriptor, stratify


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


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
    def test_betti_milnor(self):
        _, text = run_cli("betti", "--milnor", "-n", "3")
        assert BettiTable.from_obj(json.loads(text)) == eigentable_betti(3)

    def test_betti_sec2(self):
        _, text = run_cli("betti", "--sec2", "-g", "2")
        assert BettiTable.from_obj(json.loads(text)) == sec2_singular_betti(2)

    def test_ih(self):
        _, text = run_cli("ih", "-g", "1", "-k", "2")
        assert BettiTable.from_obj(json.loads(text)) == ih_betti(1, 2)

    def test_hodge(self):
        _, text = run_cli("hodge", "-n", "3")
        assert HodgePoly.from_obj(json.loads(text)["coeffs"]) == milnor_hodge_closed(3)

    def test_monodromy(self):
        _, text = run_cli("monodromy", "-n", "4")
        rows = [
            (RootOfUnity.from_obj(rec["eigenvalue"]), rec["degree"], rec["multiplicity"])
            for rec in json.loads(text)["entries"]
        ]
        assert rows == monodromy_eigentable(4)

    def test_nearby(self):
        _, text = run_cli("nearby", "-n", "3")
        summands = [
            NearbyCycleSummand.from_obj(rec) for rec in json.loads(text)["summands"]
        ]
        assert summands == nearby_vanishing_decomposition(3)

    def test_eigenvectors(self):
        _, text = run_cli("eigenvectors")
        obj = json.loads(text)
        forms = [ExtForm.from_obj(5, rec) for rec in obj["forms"]]
        assert tuple(forms) == n2_eigenvectors()

    def test_blockreduce(self):
        _, text = run_cli("blockreduce", "-n", "2", "-k", "0")
        obj = json.loads(text)
        obj.pop("schema")
        obj.pop("factorization_sign")
        assert BlockReduction.from_obj(obj) == block_reduce(2, 0)

    def test_strata(self):
        _, text = run_cli("strata", "-n", "3")
        obj = json.loads(text)
        descriptors = [StratumDescriptor.from_obj(rec, 3) for rec in obj["strata"]]
        assert descriptors == stratify(3)

    def test_verify(self):
        _, text = run_cli("verify", "-n", "3")
        reports = [
            VerificationReport.from_obj(rec) for rec in json.loads(text)["reports"]
        ]
        expected = [
            verify_block_reduction(block_reduce(3, k)) for k in range(3)
        ]
        assert reports == expected
