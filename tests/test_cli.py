import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsp4hodge
from gsp4hodge.cli import (
    EXIT_DEGENERATE,
    EXIT_INVALID,
    EXIT_OK,
    COMMANDS,
    MAX_RECOVER_COUNT,
    build_parser,
    dispatch,
    main,
    render,
    run_batch,
)
from gsp4hodge.kernel import kernel_basis

GOOD_DOC = {
    "p": 3,
    "alphas": ["1", "9", "81", "729"],
    "weights": [0, -2, -4, -6],
    "a": "2",
    "b": "3",
}
# Fails genericity (alpha1/alpha2 = 1/p) and nondegeneracy (b + 1 = 0).
BAD_DOC = dict(GOOD_DOC, alphas=["1", "3", "9", "27"], b="-1")
CLASSIFY_DOC = {"alphas": ["1", "9", "81", "729"], "weights": [0, -2, -4, -6], "p": 3, "C": "10"}
BATCH_DOC = [
    {"command": "validate", "doc": GOOD_DOC},
    {"command": "validate", "doc": BAD_DOC},
    {"command": "ledger"},
    {"command": "classify", "doc": CLASSIFY_DOC},
]


def call(command, doc=None, argv=None):
    args = build_parser().parse_args(argv or [command])
    return dispatch(command, doc or {}, args)


class TestDispatch:
    def test_validate_ok(self):
        report, code = call("validate", GOOD_DOC)
        assert code == EXIT_OK and report["status"] == "ok"
        assert report["payload"]["ok"]

    def test_validate_invalid_data(self):
        doc = dict(GOOD_DOC, b="-1")
        report, code = call("validate", doc)
        assert code == EXIT_INVALID and report["status"] == "invalid"

    def test_flag(self):
        report, code = call("flag", GOOD_DOC)
        assert code == EXIT_OK
        assert report["payload"]["anisotropic"] and report["payload"]["general_position"]
        assert report["payload"]["jumps"] == [0, 2, 4, 6]

    def test_kernel_dimensions(self):
        report, code = call("kernel", GOOD_DOC)
        assert code == EXIT_OK
        assert report["payload"]["rank"] == 7
        assert report["payload"]["dim"] == 17
        assert len(report["payload"]["basis"]) == 17

    @pytest.mark.parametrize("command, doc", (("kernel", GOOD_DOC), ("ledger", {})), ids=("kernel", "ledger"))
    def test_kernel_evaluated_once(self, monkeypatch, command, doc):
        import gsp4hodge.extledger
        import gsp4hodge.kernel

        calls = []
        real = gsp4hodge.kernel.kernel_basis

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        # the cli's handlers and check_ledger import kernel_basis from the kernel module when they run
        monkeypatch.setattr(gsp4hodge.kernel, "kernel_basis", counted)
        _, code = call(command, doc)
        assert code == EXIT_OK and len(calls) == 1

    def test_kernel_symbolic_flag(self):
        report, code = call("kernel", {}, ["kernel", "--symbolic"])
        assert code == EXIT_OK and report["payload"]["a"] == "a"

    def test_recover_round_trip(self):
        report, code = call("recover", GOOD_DOC)
        assert code == EXIT_OK
        assert report["payload"] == {
            "a": "2",
            "b": "3",
            "round_trip": True,
            "source": "parameters",
        }

    def test_recover_from_serialized_kernel(self):
        kernel_report, _ = call("kernel", GOOD_DOC)
        doc = {"kernel": kernel_report["payload"]["basis"]}
        report, code = call("recover", doc)
        assert code == EXIT_OK
        assert (report["payload"]["a"], report["payload"]["b"]) == ("2", "3")

    @pytest.mark.parametrize("echelon", (True, False), ids=("echelon", "reordered-scaled"))
    def test_recover_kernel_document_rrefs(self, monkeypatch, tmp_path, capsys, echelon):
        # every kernel document, echelon or not, takes one rref of its 17 rows
        import gsp4hodge.kernel
        import gsp4hodge.linalg

        rows = call("kernel", GOOD_DOC)[0]["payload"]["basis"]
        if not echelon:
            rows = [[str(Q(x) * (-2 - i)) for x in row] for i, row in enumerate(reversed(rows))]
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps({"kernel": rows}))
        calls = []
        real = gsp4hodge.linalg.rref

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        for module in (gsp4hodge.linalg, gsp4hodge.kernel):
            monkeypatch.setattr(module, "rref", counted)
        assert main(["recover", "--input", str(path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert (payload["a"], payload["b"]) == ("2", "3")
        assert calls == [17]

    def test_recover_symbolic_flag_reads_kernel(self):
        kernel_report, _ = call("kernel", {}, ["kernel", "--symbolic"])
        doc = {"kernel": kernel_report["payload"]["basis"]}
        report, code = call("recover", doc, ["recover", "--symbolic"])
        assert code == EXIT_OK
        assert (report["payload"]["a"], report["payload"]["b"]) == ("a", "b")

    @pytest.mark.parametrize("command", ("validate", "flag"))
    @pytest.mark.parametrize("params", ({"a": "a+1"}, {}), ids=("a-given", "defaults"))
    def test_symbolic_flag_reads_phi_module(self, command, params):
        # --symbolic is the document's "symbolic": true, for a phi-module too
        doc = dict({"p": 5, "alphas": ["1", "7", "49", "343"], "weights": [0, -2, -4, -6]}, **params)
        by_flag = call(command, doc, [command, "--symbolic"])
        assert by_flag == call(command, dict(doc, symbolic=True)) and by_flag[1] == EXIT_OK

    def test_recover_sweep(self):
        report, code = call("recover", {"count": 5}, ["recover", "--seed", "7"])
        assert code == EXIT_OK
        assert report["payload"]["all_ok"] and len(report["payload"]["results"]) == 5

    def test_recover_sweep_deterministic(self):
        r1, _ = call("recover", {"count": 3}, ["recover", "--seed", "1"])
        r2, _ = call("recover", {"count": 3}, ["recover", "--seed", "1"])
        assert r1 == r2

    @pytest.mark.parametrize(
        "doc, argv, points",
        (
            (GOOD_DOC, ["recover"], 1),
            ({"a": "a+3", "b": "2*b+5"}, ["recover", "--symbolic"], 1),
            ({"count": 3}, ["recover", "--seed", "7"], 3),
        ),
        ids=("parameters", "symbolic", "sweep"),
    )
    def test_round_trip_checks_the_kernel(self, monkeypatch, doc, argv, points):
        # each point builds its kernel, then recovery reads it off and checks
        # it against kernel_basis there: the kept rows alone would return the
        # point by identity, with one call and no cell compared
        import gsp4hodge.kernel

        calls = []
        real = gsp4hodge.kernel.kernel_basis

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(gsp4hodge.kernel, "kernel_basis", counted)
        report, code = call("recover", doc, argv)
        assert code == EXIT_OK and report["status"] == "ok"
        assert len(calls) == 2 * points and calls[0::2] == calls[1::2]

    def test_glue(self):
        report, code = call("glue")
        assert code == EXIT_OK
        assert report["payload"]["generator_count"] == 16
        assert report["payload"]["dim"] == 15

    def test_matrices_symbolic(self):
        report, code = call("matrices", {}, ["matrices", "--symbolic"])
        assert code == EXIT_OK
        assert report["payload"]["f2"][1][2] == "(2)/(b + 1)"
        assert report["payload"]["g4"][0] == ["1", "(b)/(a)", "(1)/(a)", "(2)/(a)"]

    def test_ledger(self):
        report, code = call("ledger")
        assert code == EXIT_OK and report["payload"]["ok"]

    def test_broken_ledger(self, capsys, monkeypatch):
        # with one expected hom-space dimension broken, check_ledger raises
        # and carries its report; the command prints that report and exits 2
        import gsp4hodge.extledger as extledger
        from gsp4hodge.errors import LedgerInconsistent

        monkeypatch.setitem(extledger._EXPECTED_HOM_DIMS, "sm_t", 4)
        with pytest.raises(LedgerInconsistent, match="^ledger identities failed: hom-dim-sm_t$") as info:
            extledger.check_ledger()
        assert [c.name for c in info.value.report.checks if not c.passed] == ["hom-dim-sm_t"]
        assert main(["ledger"]) == EXIT_INVALID
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "invalid" and report["payload"]["ok"] is False
        assert [c["name"] for c in report["payload"]["checks"] if not c["passed"]] == ["hom-dim-sm_t"]

    def test_socle(self):
        report, code = call("socle", {"kind": "pimin"})
        assert code == EXIT_OK
        layers = report["payload"]["layers"]
        assert layers[0] == ["pi_alg"] and len(layers[1]) == 8 and layers[2] == ["pi_alg", "pi_alg"]

    def test_socle_with_weyl_word(self):
        report, code = call("socle", {"kind": "PS1", "w": "s1"})
        assert code == EXIT_OK
        assert report["payload"]["layers"][1] == ["C({2},s1)", "C({1,2},s2)"]

    def test_hecke(self):
        report, code = call("hecke", {"l": 2, "c0": "1", "c1": "0", "c2": "0"})
        assert code == EXIT_OK
        assert report["payload"]["charpoly"] == ["1", "0", "10", "0", "64"]
        assert report["payload"]["sim"] == "8"
        assert report["payload"]["round_trip"]

    def test_hecke_inverse(self):
        doc = {"l": 2, "coeffs": ["0", "10", "0", "64"], "sim": "8"}
        report, code = call("hecke", doc)
        assert code == EXIT_OK
        assert (report["payload"]["c0"], report["payload"]["c1"], report["payload"]["c2"]) == ("1", "0", "0")

    def test_classify(self):
        report, code = call("classify", CLASSIFY_DOC)
        assert code == EXIT_OK
        assert report["payload"]["admissible"] == ["e"]

    def test_large_prime_is_fast(self):
        start = time.process_time()
        report, code = call("validate", dict(GOOD_DOC, p=100000000000000003))
        assert code == EXIT_OK and report["payload"]["ok"]
        assert time.process_time() - start < 1.0

    def test_unknown_scalar_is_invalid(self):
        report, code = call("validate", dict(GOOD_DOC, a="q + 1"))
        assert code == EXIT_INVALID

    def test_degenerate_parameters_exit_3(self):
        report, code = call("kernel", dict(GOOD_DOC, a="1", b="-1"))
        assert code == EXIT_DEGENERATE or code == EXIT_INVALID
        # nondegeneracy fails structurally, so invalid is the right verdict
        assert report["status"] in ("invalid", "degenerate")


class TestBatch:
    def _args(self):
        return build_parser().parse_args(["batch"])

    def test_empty_list(self):
        report, code = run_batch([], self._args())
        assert code == EXIT_OK and report["payload"]["results"] == []

    def test_mixed_statuses(self):
        items = [
            {"command": "validate", "doc": GOOD_DOC},
            {"command": "validate", "doc": dict(GOOD_DOC, b="-1")},
            {"command": "socle", "doc": {"kind": "pi1"}},
        ]
        report, code = run_batch(items, self._args())
        statuses = [r["status"] for r in report["payload"]["results"]]
        assert statuses == ["ok", "invalid", "ok"]
        assert code == EXIT_INVALID  # worst status wins

    def test_isolation(self):
        items = [
            {"command": "hecke", "doc": {"l": 2}},  # malformed
            {"command": "glue", "doc": {}},
        ]
        report, code = run_batch(items, self._args())
        assert report["payload"]["results"][0]["status"] == "invalid"
        assert report["payload"]["results"][1]["status"] == "ok"


class TestRendering:
    def test_json_deterministic(self):
        r1, _ = call("matrices", {}, ["matrices", "--symbolic"])
        r2, _ = call("matrices", {}, ["matrices", "--symbolic"])
        assert render(r1, "json") == render(r2, "json")

    def test_dot_only_for_socle(self):
        from gsp4hodge.errors import ParseError

        # an invalid socle report (PS1 needs a Weyl element) has no diagram either
        for command, doc in (("glue", {}), ("socle", {"kind": "PS1"})):
            report, _ = call(command, doc)
            with pytest.raises(ParseError, match="dot output is only available for socle diagrams"):
                render(report, "dot")

    def test_socle_dot_output(self):
        report, _ = call("socle", {"kind": "pimin"})
        dot = render(report, "dot")
        assert dot.startswith('digraph "pimin"')
        assert dot.count('label="pi_alg"') == 3
        # every node is joined to every node one layer up: 1*8 + 8*2 edges
        assert dot.count("->") == 24

    def test_socle_text_output(self):
        report, _ = call("socle", {"kind": "PS1", "w": "s1"})
        lines = render(report, "text").splitlines()
        assert lines[2:5] == ["socle diagram: PS1(s1)", "  layer 0: pi_alg", "  layer 1: C({2},s1) | C({1,2},s2)"]

    def test_socle_report_is_plain_data(self):
        report, _ = call("socle", {"kind": "pimin"})
        assert sorted(report) == ["citations", "command", "payload", "status"]
        before = json.dumps(report, sort_keys=True)
        for fmt in ("json", "text", "dot"):
            render(report, fmt)
        assert json.dumps(report, sort_keys=True) == before

    def test_text_render(self):
        report, _ = call("validate", GOOD_DOC)
        text = render(report, "text")
        assert "command: validate" in text and "citations:" in text

    @pytest.mark.parametrize(
        "command, doc, fmt, code, digest",
        (
            ("validate", GOOD_DOC, "json", 0, "3342e9db11d20d7ae805122abbe8aa9249388130eb614ebc0330b522dfd10783"),
            ("validate", GOOD_DOC, "text", 0, "835d48d9e48bdd2db79ff511c0cd3e2997c09abee409b93be2a6061c842a9ecc"),
            ("validate", BAD_DOC, "json", 2, "56d5b79efc74cc2409ab80426ce78d09ea096dba33d6947d49d45b38150affb4"),
            ("validate", BAD_DOC, "text", 2, "140af475a23940506ea3394ca647e8698e3b56abcc386902256bbdfbe3061f68"),
            ("ledger", {}, "json", 0, "2d5902f9dfb5193d7ad5cf1332c8dd4bdac033191f20b7bddd57422af4cca1b0"),
            ("ledger", {}, "text", 0, "9da2736268c11b93655a6d4d11fd510f554f9bc699af31a4faf37d073bcdb113"),
            ("classify", CLASSIFY_DOC, "json", 0, "81011ec1b5ba0861c630090e3ac77a3258448f943b98602fe099e8ecb6fab8f5"),
            ("classify", CLASSIFY_DOC, "text", 0, "98134b9efc4985a4b9cc430fed78b42b6d70419e765ada20f379626663bf297f"),
            ("batch", BATCH_DOC, "json", 2, "5bef12356cd916321a82686a351f43e82af358617b8fc3b1cbb8e8fdd8ce4e89"),
            ("batch", BATCH_DOC, "text", 2, "3d5ea4d81631578f6d994d1a87b95ff4eab008b32a01693b2bd7f96edb1a0570"),
            ("kernel", {"symbolic": True}, "json", 0, "94c92fe869684f0aca30ce911bfe00e9540dc75a6d830e5c12d415a7ac224fa9"),
            ("matrices", {"symbolic": True}, "json", 0, "87e1f0483c6279c35d4fbb075abb1a6c23003f8c1bfa3d37b7bd9fc9cae4e33e"),
            (
                "kernel", {"a": "a+3", "b": "2*b+5", "symbolic": True}, "json", 0,
                "2a54f78680aa7fb0abad5797c1222472ec984737035b6f16a6461f4fdb42b6dd",
            ),
            (
                "matrices", {"a": "a-1/2", "b": "3*b+1", "symbolic": True}, "json", 0,
                "46f22e88df3baaab2444ad0b5ebfd88045dc6a4a01300f4e883a2502c2a12d04",
            ),
            (
                "recover", {"a": "a+2/3", "b": "-b+2", "symbolic": True}, "json", 0,
                "bae566043da38b29766bbb7a78ebcc50e225c4623433eeaedd528d39998b570d",
            ),
        ),
        ids=(
            "validate-ok-json", "validate-ok-text", "validate-invalid-json", "validate-invalid-text",
            "ledger-json", "ledger-text", "classify-json", "classify-text", "batch-json", "batch-text",
            "kernel-symbolic", "matrices-symbolic", "kernel-symbolic-shifted", "matrices-symbolic-shifted",
            "recover-symbolic-shifted",
        ),
    )
    def test_rendered_report_bytes(self, capsys, monkeypatch, command, doc, fmt, code, digest):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        assert main([command, "--input", "-", "--format", fmt]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest

    def test_citations_nonempty(self):
        for command, doc in (
            ("validate", GOOD_DOC),
            ("kernel", GOOD_DOC),
            ("glue", {}),
            ("ledger", {}),
        ):
            report, _ = call(command, doc)
            assert report["citations"]


class TestEndToEnd:
    def test_subprocess_pipeline(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(GOOD_DOC))
        out = subprocess.run(
            [sys.executable, "-m", "gsp4hodge.cli", "recover", "--input", str(doc)],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        payload = json.loads(out.stdout)["payload"]
        assert payload["round_trip"]

    def test_stdin_input(self):
        out = subprocess.run(
            [sys.executable, "-m", "gsp4hodge.cli", "validate", "--input", "-"],
            input=json.dumps(GOOD_DOC),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0

    def test_bad_json_exit_2(self):
        out = subprocess.run(
            [sys.executable, "-m", "gsp4hodge.cli", "validate", "--input", "-"],
            input="{not json",
            capture_output=True,
            text=True,
        )
        assert out.returncode == 2

    def test_closed_pipe(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            out = subprocess.run(
                [sys.executable, "-m", "gsp4hodge.cli", "glue"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert out.returncode in (EXIT_OK, EXIT_INVALID, EXIT_DEGENERATE)
        assert "Traceback" not in out.stderr

    def test_byte_identical_runs(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(GOOD_DOC))
        cmd = [sys.executable, "-m", "gsp4hodge.cli", "kernel", "--input", str(doc)]
        out1 = subprocess.run(cmd, capture_output=True).stdout
        out2 = subprocess.run(cmd, capture_output=True).stdout
        assert out1 == out2


#: The commands that read a document's Hodge parameters a and b.
_READERS_OF_AB = ("validate", "flag", "kernel", "recover", "matrices")


class TestRejectedInputs:
    """Inputs that once ended in a traceback: each exits 2 with one JSON
    document on stdout."""

    @staticmethod
    def run(capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == EXIT_INVALID
        report = json.loads(out)
        assert sorted(report) == ["citations", "command", "payload", "status"]
        return report

    def test_missing_input_file(self, capsys, tmp_path):
        report = self.run(capsys, ["validate", "--input", str(tmp_path / "missing.json")])
        assert report["command"] == "validate" and report["citations"] == COMMANDS["validate"][1]
        assert report["status"] == "invalid" and "cannot read input" in report["payload"]["error"]

    def test_non_utf8_input_file(self, capsys, tmp_path):
        doc = tmp_path / "bad.json"
        doc.write_bytes(b"\xff\xfe{}")
        report = self.run(capsys, ["validate", "--input", str(doc)])
        assert report["status"] == "invalid" and "cannot read input" in report["payload"]["error"]

    def test_non_utf8_stdin(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdin", stdin)
        report = self.run(capsys, ["validate", "--input", "-"])
        assert report["status"] == "invalid" and "cannot read input" in report["payload"]["error"]

    @pytest.mark.parametrize(
        "argv, command, error",
        (
            (["recover", "--random", "abc"], "recover", "argument --random: invalid int value"),
            (["bogus"], None, "argument command: invalid choice: 'bogus'"),
            (["socle", "pimin", "--format", "xml"], "socle", "argument --format: invalid choice: 'xml'"),
            (["--seed", "x"], None, "argument command: invalid choice: 'x'"),
            (["recover", "--seed", "x"], "recover", "argument --seed: invalid int value"),
            (["socle", "bogus"], "socle", "argument kind: invalid choice: 'bogus'"),
            (["glue", "extra"], "glue", "unrecognized arguments: extra"),
            ([], None, "the following arguments are required: command"),
        ),
        ids=("random", "unknown-command", "format", "top-level-seed", "seed", "socle-kind", "extra", "empty"),
    )
    def test_argv_error(self, capsys, argv, command, error):
        report = self.run(capsys, argv)
        assert report["command"] == command and report["status"] == "invalid"
        assert report["payload"]["error"].startswith(error)

    @pytest.mark.parametrize("command", ("kernel", "recover", "socle"))
    def test_list_where_object_expected(self, capsys, tmp_path, command):
        doc = tmp_path / "doc.json"
        doc.write_text("[1, 2]")
        report = self.run(capsys, [command, "--input", str(doc)])
        assert report["status"] == "invalid" and "JSON object" in report["payload"]["error"]

    def test_short_kernel_row(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"kernel": [["0"] * 24] * 16 + [["0"] * 23]}))
        report = self.run(capsys, ["recover", "--input", str(doc)])
        assert report["payload"] == {"error": "kernel rows must have 24 entries"}

    @pytest.mark.parametrize("command", ("validate", "classify"))
    def test_three_weights(self, capsys, tmp_path, command):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(dict(GOOD_DOC, weights=[0, -2, -4], C="10")))
        report = self.run(capsys, [command, "--input", str(doc)])
        assert "four entries" in report["payload"]["error"]

    @pytest.mark.parametrize(
        "doc, commands",
        (
            (dict(GOOD_DOC, a="q + 1"), _READERS_OF_AB),
            (dict(GOOD_DOC, a="1.5"), _READERS_OF_AB),
            (dict(GOOD_DOC, a="not 1"), _READERS_OF_AB),
            (dict(GOOD_DOC, a="\ud800"), _READERS_OF_AB),
            (dict(GOOD_DOC, a="1\u0000"), _READERS_OF_AB),
            ({k: v for k, v in GOOD_DOC.items() if k != "b"}, _READERS_OF_AB),
            (dict(GOOD_DOC, alphas=["\ud800", "9", "81", "729"]), ("validate", "flag")),
        ),
        ids=("symbol", "decimal", "not", "surrogate", "null-byte", "missing-b", "surrogate-alpha"),
    )
    def test_one_field_error_message(self, capsys, monkeypatch, doc, commands):
        # one message per bad field, whichever command reads it; compile's
        # ValueError on a lone surrogate or a null byte is a ParseError too
        errors = set()
        for command in commands:
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
            errors.add(self.run(capsys, [command, "--input", "-"])["payload"]["error"])
        assert len(errors) == 1, errors

    @pytest.mark.parametrize(
        "argv, stdin",
        ((["recover", "--input", "-"], '{"count": -1}'), (["recover", "--random", "-5"], "")),
        ids=("count", "random"),
    )
    def test_negative_count(self, capsys, monkeypatch, argv, stdin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        report = self.run(capsys, argv)
        assert report["status"] == "invalid" and "nonnegative" in report["payload"]["error"]

    @pytest.mark.parametrize(
        "text, construct",
        (("not 1", "Not"), ("~1", "Invert"), (f"f(0x{'f' * 4000})", "Call")),
        ids=("not", "invert", "huge-literal-call"),
    )
    def test_forbidden_syntax(self, capsys, tmp_path, text, construct):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"a": text, "b": "2"}))
        report = self.run(capsys, ["kernel", "--input", str(doc)])
        assert report["payload"]["error"] == f"forbidden syntax in scalar expression: {construct}"

    def test_long_operator_chain(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"a": "+".join(["1"] * 1000), "b": "3"}))
        report = self.run(capsys, ["kernel", "--input", str(doc)])
        assert report["payload"]["error"] == "scalar expression nests too deeply"

    def test_deep_unary_nesting(self, capsys, tmp_path):
        # 10,000 unary minus signs overflow compile's parser stack
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"a": "-" * 10_000 + "1", "b": "3"}))
        report = self.run(capsys, ["kernel", "--input", str(doc)])
        assert report["payload"]["error"] == "scalar expression nests too deeply"

    @pytest.mark.parametrize(
        "command, text",
        (
            ("validate", '{"p": 1e400, "alphas": ["1", "9", "81", "729"], "weights": [0, -2, -4, -6]}'),
            ("classify", '{"p": 3, "alphas": ["1", "9", "81", "729"], "weights": [0, -2, -4, 1e400], "C": "10"}'),
            ("hecke", '{"l": 1e400, "c0": "1", "c1": "0", "c2": "0"}'),
            ("recover", '{"count": 1e400}'),
            ("recover", '{"count": Infinity}'),
        ),
        ids=("p", "weights", "l", "count", "infinity"),
    )
    def test_nonfinite_number(self, capsys, tmp_path, command, text):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        report = self.run(capsys, [command, "--input", str(doc)])
        assert report["status"] == "invalid" and report["payload"]["error"].startswith("non-finite number")

    @pytest.mark.parametrize(
        "doc",
        ({"a": "3**10000000", "b": "3"}, {"a": "(a+b+1)**200", "b": "b", "symbolic": True}),
        ids=("numeric", "symbolic"),
    )
    def test_exponent_bound(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        report = self.run(capsys, ["kernel", "--input", str(path)])
        assert "exceeds 64" in report["payload"]["error"]

    @pytest.mark.parametrize(
        "doc",
        (
            {"a": "(((3**64)**64)**64)**64", "b": "3"},
            {"a": "((a+b+1)**64)**64", "b": "b", "symbolic": True},
            {"a": "3" * 1300, "b": "3"},
        ),
        ids=("nested-numeric", "nested-symbolic", "literal"),
    )
    def test_size_bound(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        report = self.run(capsys, ["kernel", "--input", str(path)])
        assert report["status"] == "invalid" and "exceeds" in report["payload"]["error"]

    @pytest.mark.parametrize(
        "command, doc",
        (
            ("hecke", {"l": 2.5, "c0": "1", "c1": "0", "c2": "0"}),
            ("validate", dict(GOOD_DOC, p=3.7)),
            ("flag", dict(GOOD_DOC, weights=[0.9, -2, -4, -6])),
            ("classify", dict(CLASSIFY_DOC, weights=[0, -2, -4, -6.5])),
            ("recover", {"count": 2.9}),
            ("recover", {"count": True}),
        ),
        ids=("l", "p", "weights-flag", "weights-classify", "count", "boolean"),
    )
    def test_non_integer_field(self, capsys, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        report = self.run(capsys, [command, "--input", str(path)])
        assert report["status"] == "invalid" and "expected an integer" in report["payload"]["error"]

    @pytest.mark.parametrize(
        "argv, stdin",
        (
            (["recover", "--input", "-"], json.dumps({"count": MAX_RECOVER_COUNT + 1})),
            (["recover", "--random", str(MAX_RECOVER_COUNT + 1)], ""),
        ),
        ids=("count", "random"),
    )
    def test_count_maximum(self, capsys, monkeypatch, argv, stdin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        report = self.run(capsys, argv)
        assert report["status"] == "invalid" and "at most" in report["payload"]["error"]

    @pytest.mark.parametrize(
        "command, doc",
        (
            ("validate", dict(GOOD_DOC, p=2**64 + 13)),
            ("hecke", {"l": 2**64 + 13, "c0": "1", "c1": "0", "c2": "0"}),
        ),
        ids=("p", "l"),
    )
    def test_prime_bound(self, capsys, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        report = self.run(capsys, [command, "--input", str(path)])
        assert report["status"] == "invalid" and "2**64" in report["payload"]["error"]

    def test_deeply_nested_document(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text("[" * 100000 + "]" * 100000)
        report = self.run(capsys, ["kernel", "--input", str(doc)])
        assert report["status"] == "invalid" and report["payload"] == {"error": "input nests too deeply"}

    def test_integer_past_digit_limit(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(dict(GOOD_DOC, p=0)).replace('"p": 0', '"p": ' + "1" * 5000))
        report = self.run(capsys, ["validate", "--input", str(doc)])
        assert report["status"] == "invalid" and "limit (4300" in report["payload"]["error"]

    @pytest.mark.parametrize("command", ([], {"x": 1}), ids=("list", "object"))
    def test_non_string_batch_command(self, capsys, tmp_path, command):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps([{"command": command}]))
        report = self.run(capsys, ["batch", "--input", str(doc)])
        (result,) = report["payload"]["results"]
        assert report["status"] == "invalid" and "unknown command" in result["payload"]["error"]

    @pytest.mark.parametrize("value", ("no", "false", 1))
    @pytest.mark.parametrize(
        "command, doc",
        (
            ("kernel", {"a": "a", "b": "3"}),
            ("recover", {"kernel": [["0"] * 24]}),
            ("validate", GOOD_DOC),
        ),
        ids=("parameters", "kernel", "phi-module"),
    )
    def test_non_boolean_symbolic(self, capsys, tmp_path, command, doc, value):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(dict(doc, symbolic=value)))
        report = self.run(capsys, [command, "--input", str(path)])
        assert report["status"] == "invalid" and "expected true or false" in report["payload"]["error"]

    @pytest.mark.parametrize(
        "command, doc",
        (
            ("validate", dict(GOOD_DOC, alphas="1248")),
            ("classify", dict(CLASSIFY_DOC, weights="0000")),
            ("hecke", {"l": 5, "coeffs": "1234", "sim": "1"}),
            ("recover", {"kernel": "0" * 24}),
            ("recover", {"kernel": ["0" * 24]}),
        ),
        ids=("alphas", "weights", "coeffs", "kernel", "kernel-row"),
    )
    def test_non_list_field(self, capsys, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        report = self.run(capsys, [command, "--input", str(path)])
        assert report["status"] == "invalid" and "expected a list" in report["payload"]["error"]

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            *(pytest.param("hecke", {"l": 2, "c0": "1", "c1": "0", "c2": "0"}, f, id=f"hecke-{f}") for f in ("l", "c1", "c2")),
            *(
                pytest.param("hecke", {"l": 2, "coeffs": ["0", "10", "0", "64"], "sim": "8"}, f, id=f"hecke-coeffs-{f}")
                for f in ("l", "sim")
            ),
            *(pytest.param("classify", CLASSIFY_DOC, f, id=f"classify-{f}") for f in ("alphas", "weights", "p", "C")),
            *(pytest.param("validate", GOOD_DOC, f, id=f"validate-{f}") for f in ("p", "alphas", "weights")),
        ],
    )
    def test_missing_field(self, capsys, tmp_path, command, doc, field):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({k: v for k, v in doc.items() if k != field}))
        report = self.run(capsys, [command, "--input", str(path)])
        assert report["status"] == "invalid" and f"missing field {field!r}" in report["payload"]["error"]

    @pytest.mark.parametrize(
        "w, error",
        (
            ("[1e400]", "non-finite number"),
            ("[1.5,2,3,4]", "expected an integer"),
            ("[true,3,2,4]", "expected an integer"),
            ("[1,2", "one-line Weyl element is not JSON"),
        ),
        ids=("infinite", "float", "boolean", "malformed"),
    )
    @pytest.mark.parametrize("source", ("flag", "document"))
    def test_one_line_weyl_element(self, capsys, monkeypatch, w, error, source):
        if source == "flag":
            argv = ["socle", "PS1", "--w", w]
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"kind": "PS1", "w": w})))
            argv = ["socle", "--input", "-"]
        report = self.run(capsys, argv)
        assert report["status"] == "invalid" and report["payload"]["error"].startswith(error)

    @pytest.mark.parametrize(
        "command, doc",
        (
            ("kernel", {"a": True, "b": 3}),
            ("validate", dict(GOOD_DOC, alphas=[True, "9", "81", "729"])),
        ),
        ids=("a", "alpha"),
    )
    def test_boolean_scalar(self, capsys, tmp_path, command, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        report = self.run(capsys, [command, "--input", str(path)])
        assert report["status"] == "invalid" and "non-integer literal True" in report["payload"]["error"]

    @pytest.mark.parametrize("command", ("validate", "flag"))
    def test_zero_prime(self, capsys, tmp_path, command):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(dict(GOOD_DOC, p=0)))
        report = self.run(capsys, [command, "--input", str(path)])
        assert report["status"] == "invalid"

    @pytest.mark.parametrize("command", ("validate", "flag", "kernel", "recover", "matrices"))
    @pytest.mark.parametrize("params", ({}, {"a": "2"}, {"b": "3"}), ids=("neither", "a-only", "b-only"))
    def test_missing_hodge_parameters(self, capsys, tmp_path, command, params):
        # over Q every command that reads (a, b) needs both, and says so in
        # one message
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(dict({"p": 5, "alphas": ["1", "7", "49", "343"], "weights": [0, -2, -4, -6]}, **params)))
        report = self.run(capsys, [command, "--input", str(path)])
        assert report["status"] == "invalid"
        assert report["payload"]["error"] == "the document needs Hodge parameters a and b (or --symbolic)"

    def test_degree_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GSP4H_MAX_DEGREE", "5")
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"a": "a**30", "b": "3", "symbolic": True}))
        report = self.run(capsys, ["kernel", "--input", str(doc)])
        assert "GSP4H_MAX_DEGREE=5" in report["payload"]["error"]


# Documents over the fields the commands read: a command's fields with
# values that reach its deep paths, up to two fields (of any command) with
# wild values, and stray keys, or any JSON value at all.  Keys come from an
# alphabet that cannot spell a field name, and no count in
# 4..MAX_RECOVER_COUNT is drawn, so no example runs a long sweep.
_KEYS = st.text(alphabet="xyz_", max_size=4)
_NUMBER_TEXT = st.sampled_from(["1", "-1", "2", "3", "5", "3/4", "-3/2"])
_SCALAR_TEXT = _NUMBER_TEXT | st.sampled_from(
    ["0", "1/0", "a", "b", "a+b", "a*b+1", "q", "", "(", "2**70", "9" * 1300]
)
_LEAF = st.none() | st.booleans() | st.integers() | st.floats() | _SCALAR_TEXT | st.text(max_size=6)
_ANY_JSON = st.recursive(
    _LEAF, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4), max_leaves=12
)


def _lists_of(elem):
    """Lists of 4 or 24 entries, which pass the length checks, or of any short length."""
    return st.one_of(
        st.lists(elem, min_size=4, max_size=4),
        st.lists(elem, min_size=24, max_size=24),
        st.lists(elem, max_size=5),
    )


#: One-line Weyl element texts such as "[2, 1, 4, 3]", "[Infinity, 1.5]" or
#: "[true, null]": JSON lists of permutation entries, leaves and non-finite floats.
_NON_FINITE = st.sampled_from([float("inf"), float("-inf"), float("nan")])
_ONE_LINE_TEXT = _lists_of(_NON_FINITE | st.integers(1, 4) | _LEAF).map(json.dumps)
_KERNEL_2_3 = [[str(x) for x in row] for row in kernel_basis(Q(2), Q(3)).rows]
_SAFE_COUNT = st.integers(-2, 3) | st.integers(MAX_RECOVER_COUNT + 1, 10**30)
_GOOD = {
    "p": st.sampled_from([3, 2, 4, 2**64 + 13]),
    "alphas": st.sampled_from([GOOD_DOC["alphas"], BAD_DOC["alphas"]]) | _lists_of(_SCALAR_TEXT),
    "weights": st.just(GOOD_DOC["weights"]) | _lists_of(st.integers(-8, 8)),
    "a": _NUMBER_TEXT | _SCALAR_TEXT,
    "b": _NUMBER_TEXT | _SCALAR_TEXT,
    "symbolic": st.booleans(),
    "kernel": st.sampled_from([_KERNEL_2_3, _KERNEL_2_3[:2]]) | st.lists(_lists_of(_SCALAR_TEXT), max_size=2),
    "count": _SAFE_COUNT,
    "kind": st.sampled_from(["PS1", "pi1", "pimin"]),
    "w": st.sampled_from(["s1s2", "e", "s3", "[2,1,4,3]", "[1,2"]) | _ONE_LINE_TEXT,
    "l": st.sampled_from([5, 7, 4, 2**64 + 13]),
    "c0": _SCALAR_TEXT,
    "c1": _SCALAR_TEXT,
    "c2": _SCALAR_TEXT,
    "coeffs": _lists_of(_SCALAR_TEXT),
    "sim": _SCALAR_TEXT,
    "C": _SCALAR_TEXT,
    "schema": st.just(1),
}
_WILD = st.one_of(_LEAF, _lists_of(_LEAF), _ANY_JSON)
_WILD_FOR = dict.fromkeys(_GOOD, _WILD)
_WILD_FOR["count"] = st.one_of(
    _SAFE_COUNT, st.none(), st.booleans(), st.floats(), st.sampled_from(["x", "1.5", "-1", ""]), st.lists(_LEAF)
)
_PHI_MODULE = ("p", "alphas", "weights", "a", "b")
#: The fields each command reads, one tuple per kind of document it takes.
_READS = {
    "validate": (_PHI_MODULE,),
    "flag": (_PHI_MODULE,),
    "kernel": (("a", "b", "symbolic"),),
    "recover": (("count",), ("kernel",), ("a", "b")),
    "glue": ((),),
    "matrices": (("a", "b"),),
    "ledger": ((),),
    "socle": (("kind", "w"),),
    "hecke": (("l", "c0", "c1", "c2"), ("l", "coeffs", "sim")),
    "classify": (("alphas", "weights", "p", "C"),),
}
_WILD_FIELDS = st.lists(st.sampled_from(sorted(_GOOD)), max_size=2, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({n: _WILD_FOR[n] for n in names})
)


def _document(command):
    """A document of one kind the command takes, with up to two wild fields
    and stray keys, and at times one of its fields dropped."""

    def of_kind(names):
        dropped = st.sets(st.sampled_from(names), max_size=1) if names else st.just(set())
        return st.builds(
            lambda stray, good, wild, drop: {k: v for k, v in {**stray, **good, **wild}.items() if k not in drop},
            st.dictionaries(_KEYS, _ANY_JSON, max_size=2),
            st.fixed_dictionaries({n: _GOOD[n] for n in names}),
            _WILD_FIELDS,
            dropped,
        )

    return st.sampled_from(_READS[command]).flatmap(of_kind)


_BATCH_ITEM = st.sampled_from(sorted(_READS)).flatmap(
    lambda c: st.fixed_dictionaries({"command": st.just(c), "doc": _document(c)})
)


def _documents(command):
    if command == "batch":
        return st.one_of(st.lists(_BATCH_ITEM | _ANY_JSON, max_size=3), _ANY_JSON)
    return st.one_of(_document(command), _document(command), _ANY_JSON)


#: Flags with good and bad values, and stray words, that follow the
#: command's own "--input - --format json".  No --random value starts a
#: long sweep, and no --format value asks for text or dot, which are not JSON.
_FLAG = st.one_of(
    st.tuples(st.just("--random"), st.sampled_from(["abc", "-1", "0", "2", "", "1.5", str(MAX_RECOVER_COUNT + 1)])),
    st.tuples(st.just("--seed"), st.sampled_from(["x", "7", "-3", ""])),
    st.tuples(st.just("--format"), st.sampled_from(["json", "xml", ""])),
    st.tuples(st.just("--w"), st.sampled_from(["s1s2", "[2,1,4,3]", "[1,2"])),
    st.tuples(st.just("--input"), st.just("no-such-input.json")),
    st.sampled_from([("--symbolic",), ("--bogus",), ("bogus",), ("PS1",), ("pimin",)]),
)


def _argv(command):
    """argv for main: mostly the command, at times a word that is none,
    then the document on stdin as JSON, then one or two drawn flags."""
    return st.builds(
        lambda head, flags: [head, "--input", "-", "--format", "json", *(x for f in flags for x in f)],
        st.sampled_from((command,) * 5 + ("bogus", "--seed")),
        st.lists(_FLAG, min_size=1, max_size=2),
    )


def _main_on(argv, stdin):
    """Run main in process on stdin text; returns (exit code, stdout)."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_exit_contract(command, monkeypatch, tmp_path):
    """Any JSON document, under the plain argv and under drawn argv: main
    returns 0, 2 or 3, raises nothing, and writes one report as JSON."""
    monkeypatch.chdir(tmp_path)  # where no-such-input.json does not exist
    for argvs in (st.just([command, "--input", "-", "--format", "json"]), _argv(command)):

        @settings(max_examples=40, derandomize=True, deadline=None, database=None)
        @given(argv=argvs, doc=_documents(command))
        def check(argv, doc):
            code, out = _main_on(argv, json.dumps(doc))
            assert code in (EXIT_OK, EXIT_INVALID, EXIT_DEGENERATE)
            assert sorted(json.loads(out)) == ["citations", "command", "payload", "status"]

        check()


@pytest.mark.parametrize("command", ("", *sorted(COMMANDS)), ids=lambda command: command or "top")
def test_help_exits_zero_with_usage(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0 and out.getvalue().startswith("usage: gsp4hodge")


CATALOG = Path(__file__).resolve().parent.parent / "perfbench" / "catalog.json"


class TestCatalogReplay:
    """The benchmark's recorded cli-mix entries, replayed in-process: each
    one's argv, stdin and environment, from an empty working directory."""

    def test_recorded_bytes(self, capsys, monkeypatch, tmp_path):
        entries = json.loads(CATALOG.read_text(encoding="utf-8"))["entries"]
        monkeypatch.chdir(tmp_path)
        mismatched = []
        for name, entry in entries.items():
            with monkeypatch.context() as m:
                for key, value in entry["env"].items():
                    m.setenv(key, value)
                m.setattr(sys, "stdin", io.StringIO(entry["stdin"] or ""))
                code = main(list(entry["argv"]))
            out = capsys.readouterr().out.encode("utf-8")
            if code not in entry["expect"]:
                mismatched.append(f"{name}: exit {code}")
            elif "sha256" in entry and hashlib.sha256(out).hexdigest() != entry["sha256"]:
                mismatched.append(f"{name}: stdout bytes")
        assert entries
        assert not mismatched


#: Symbolic points where flag's printed constants are compared with the
#: eliminating checks: generic, affine, phi_s1, rational and non-affine.
SYMBOLIC_FLAG_POINTS = (("a", "b"), ("a+3", "2*b+5"), ("1/a", "b/a"), ("(a+1)/(b+2)", "a/(b-1)"), ("a", "a"))


def _flag_documents():
    entries = json.loads(CATALOG.read_text(encoding="utf-8"))["entries"]
    docs = [json.loads(entry["stdin"]) for name, entry in entries.items() if name.startswith("flag:")]
    symbolic = [dict(GOOD_DOC, a=a, b=b, symbolic=True) for a, b in SYMBOLIC_FLAG_POINTS]
    return docs + symbolic


class TestFlagFromCertificates:
    """flag prints anisotropic and general_position as true, from the
    certificates in TestCertificate; the eliminating checks agree."""

    @pytest.mark.parametrize("doc", _flag_documents(), ids=lambda doc: f"{doc['a']},{doc['b']}")
    def test_printed_constants_match_the_checks(self, doc):
        from gsp4hodge.phimodule import general_position, phi_module_from_json, standard_filtration
        from gsp4hodge.symplectic import flag_anisotropy_check

        hf = standard_filtration(phi_module_from_json(doc, doc.get("symbolic", False)))
        assert general_position(hf) is True
        assert flag_anisotropy_check(hf.flag) is True
        report, code = call("flag", doc)
        assert code == EXIT_OK
        assert report["payload"]["anisotropic"] is True and report["payload"]["general_position"] is True

    @pytest.mark.parametrize("a, b", (("2", "3"), ("a+3", "2*b+5")))
    def test_six_rref_calls(self, monkeypatch, a, b):
        """3 member spans and 3 nesting ranks in Flag.__post_init__; rref is
        wrapped in every module namespace that binds it."""
        import gsp4hodge.linalg

        real = gsp4hodge.linalg.rref
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("gsp4hodge") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, key, counted)
        report, code = call("flag", dict(GOOD_DOC, a=a, b=b, symbolic="a" in a))
        assert code == EXIT_OK
        assert len(calls) == 6


#: Per command, a catalog entry to run, and whether the command may load
#: gsp4hodge.extledger and gsp4hodge.kernel.
IMPORT_BUDGET = {
    "validate": ("validate:P0", False, False),
    "flag": ("flag:P0", False, False),
    "kernel": ("kernel:P0", False, True),
    "matrices": ("matrices:P0", False, True),
    "recover": ("recover-params:P0", False, True),
    "hecke": ("hecke-fwd:H1", False, False),
    "classify": ("classify:C0", False, False),
    "ledger": ("ledger", True, True),
    "socle": ("socle-dot:pimin", True, False),
}


def _cold_modules(argv, stdin):
    """The exit code of main in a fresh process, and the modules it loaded."""
    script = (
        "import json, sys\n"
        "import gsp4hodge.cli\n"
        "code = gsp4hodge.cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        input=stdin or "",
        env=dict(os.environ, PYTHONPATH=str(Path(gsp4hodge.__file__).resolve().parent.parent)),
        capture_output=True,
        text=True,
    )
    return json.loads(out.stderr.splitlines()[-1])


@pytest.mark.parametrize("command", sorted(IMPORT_BUDGET))
def test_import_budget(command):
    """A cold process loads only the modules its command uses, and never
    dataclasses."""
    name, extledger, kernel = IMPORT_BUDGET[command]
    entry = json.loads(CATALOG.read_text(encoding="utf-8"))["entries"][name]
    code, modules = _cold_modules(entry["argv"], entry["stdin"])
    assert code in entry["expect"]
    assert "dataclasses" not in modules
    assert ("gsp4hodge.extledger" in modules) == extledger
    assert ("gsp4hodge.kernel" in modules) == kernel
    # a numeric command takes no gcd in Z[a][b], and scalars parses through _ast
    assert not {"gsp4hodge._polygcd", "ast"} & set(modules)
    if command in ("kernel", "matrices", "recover", "hecke"):
        # the committed tables, the charpoly and its inverse take no Weyl group
        assert "gsp4hodge.weyl" not in modules
    if command == "validate":
        # checking a document takes no linear algebra, flags or Weyl group
        assert not {"gsp4hodge.linalg", "gsp4hodge.symplectic", "gsp4hodge.weyl"} & set(modules)
    if command == "socle":
        # a socle diagram takes no rank: only the ledger's hom_space_dim does
        assert "gsp4hodge.linalg" not in modules
    if command == "hecke":
        # the charpoly scans no refinements: only classify does
        assert "gsp4hodge.phimodule" not in modules


def test_symbolic_kernel_loads_the_gcd_module():
    """(1/a, b/a) is no affine point: parsing b/a, and 17 table cells
    there, take gcds of two nonconstant polynomials, so poly_gcd imports
    the Z[a][b] gcd routines."""
    code, modules = _cold_modules(["kernel", "--symbolic", "--input", "-"], json.dumps({"a": "1/a", "b": "b/a"}))
    assert code == EXIT_OK
    assert "gsp4hodge._polygcd" in modules and "ast" not in modules
