import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf, workprec

from openwaring import AppComplex, cli, verify
from openwaring.cli import run
from openwaring.errors import ConsistencyError, NoFitError


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecomposeCommand:
    def test_rank_five_form(self, capsys):
        code, out, _ = run_capture(capsys, [
            "decompose", "-n", "3", "x0*x1^2 + x1*x2^2", "--format", "structured"])
        assert code == 0
        record = json.loads(out)
        assert len(record["terms"]) == 5
        assert record["bound"] == 5
        assert record["verified"] is True

    def test_non_homogeneous_exit_two(self, capsys):
        code, _, err = run_capture(capsys, ["decompose", "-n", "3", "x0^2 + x1^3"])
        assert code == 2
        assert "homogeneous" in err

    def test_avoid_file(self, tmp_path, capsys):
        avoid = tmp_path / "avoid.txt"
        avoid.write_text("l0\n")
        code, out, _ = run_capture(capsys, [
            "decompose", "-n", "3", "x0*x1^2 + x1*x2^2",
            "--avoid", str(avoid), "--format", "structured"])
        assert code == 0
        record = json.loads(out)
        assert record["avoid"] == ["l0"]
        for term in record["terms"]:
            first = term["coords"][0]
            if isinstance(first, str):
                assert first.split("/")[0] != "0"

    def test_absorb_flag(self, capsys):
        code, out, _ = run_capture(capsys, [
            "decompose", "-n", "2", "x0^3 + x1^3",
            "--absorb", "--format", "structured"])
        assert code == 0
        record = json.loads(out)
        for term in record["terms"]:
            if "coeff_num" in term:
                assert term["coeff_num"] == "1" and term["coeff_den"] == "1"

    def test_determinism_byte_identical(self, capsys):
        argv = ["decompose", "-n", "3", "x0^3 + x1^3 + x2^3",
                "--seed", "77", "--format", "structured"]
        _, out1, _ = run_capture(capsys, argv)
        _, out2, _ = run_capture(capsys, argv)
        assert out1 == out2

    def test_five_variable_monomial_at_64_bits(self, capsys):
        # the inductive lift leaves terms with a tiny coefficient on a large
        # linear form; dropping them by |c| alone broke the reconstruction
        # (exit 4, "reconstruction drifted beyond tolerance")
        code, out, err = run_capture(capsys, [
            "decompose", "-n", "5", "x0*x1*x2*x3*x4", "--precision", "64",
            "--format", "structured"])
        assert (code, err) == (0, "")
        assert json.loads(out)["verified"] is True

    def test_form_file(self, tmp_path, capsys):
        path = tmp_path / "form.txt"
        path.write_text("x0^2 + x1^2\n")
        code, out, _ = run_capture(capsys, [
            "decompose", "-n", "2", "--form-file", str(path),
            "--format", "structured"])
        assert code == 0
        assert json.loads(out)["verified"] is True


class TestVerifyCommand:
    def test_round_trip(self, tmp_path, capsys):
        record_path = tmp_path / "dec.json"
        code, out, _ = run_capture(capsys, [
            "decompose", "-n", "3", "x0*x1^2 + x1*x2^2",
            "--format", "structured", "-o", str(record_path)])
        assert code == 0
        code, out, _ = run_capture(capsys, [
            "verify", str(record_path), "--format", "structured"])
        assert code == 0
        report = json.loads(out)
        assert report["verified"] is True
        assert report["term_count"] == 5

    def test_tampered_record_fails(self, tmp_path, capsys):
        record_path = tmp_path / "dec.json"
        run_capture(capsys, ["decompose", "-n", "2", "x0^2 + x1^2",
                             "--format", "structured", "-o", str(record_path)])
        record = json.loads(record_path.read_text())
        record["terms"] = record["terms"][:1]
        record_path.write_text(json.dumps(record))
        code, _, _ = run_capture(capsys, ["verify", str(record_path)])
        assert code == 1


    @pytest.mark.parametrize("flag", [True, False])
    def test_exact_flag_does_not_forgive_an_error(self, tmp_path, capsys, flag):
        # one part in 10^60 on a rational coefficient is below the
        # tolerance; the verifier must see it whatever "exact" claims
        record_path = tmp_path / "rec.json"
        code, _, _ = run_capture(capsys, [
            "decompose", "-n", "3", "x0^2 + 2*x1^2 + 3*x2^2 + x0*x1",
            "--format", "structured", "-o", str(record_path)])
        assert code == 0
        record = json.loads(record_path.read_text())
        term = record["terms"][0]
        q = (Fraction(int(term["coeff_num"]), int(term["coeff_den"]))
             * (1 + Fraction(1, 10 ** 60)))
        term["coeff_num"], term["coeff_den"] = str(q.numerator), str(q.denominator)
        record["exact"] = flag
        record_path.write_text(json.dumps(record))
        code, out, _ = run_capture(capsys, [
            "verify", str(record_path), "--format", "structured"])
        assert code == 1
        assert json.loads(out)["verified"] is False


class TestRecordScalars:
    @pytest.mark.parametrize("bits", [64, 256, 1000])
    def test_reader_rounds_as_mpf_does(self, bits):
        # each decimal string rounded to nearest at the record's precision,
        # as mpf(text) under workprec(bits) reads it
        with workprec(1400):
            long = [mpmath.nstr(x, 420) for x in (mpf(1) / 3, -mpf(2) / 7,
                                                 mpf(10) ** 300 / 7)]
        texts = long + ["0.1", "-2.5e-40", "123456789123456789123456789",
                        "0", "-0", "inf", "nan"]
        for re_text, im_text in zip(texts, texts[1:] + texts[:1]):
            with workprec(bits):
                want = AppComplex(mpf(re_text), mpf(im_text), bits)
            got = cli._coord_from_json({"re": re_text, "im": im_text}, bits)
            coeff, _ = cli._term_from_json({"coeff_re": re_text,
                                            "coeff_im": im_text,
                                            "coords": ["1/1"]}, bits)
            assert got.parts == coeff.parts == want.parts


class TestVerifierCalls:
    """The CLI certifies each result once: `decompose` reuses the report
    the pipeline attached, unless --absorb changed the terms."""

    @pytest.fixture
    def calls(self, monkeypatch):
        real = verify.check_decomposition
        seen = []

        def counted(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)
        for module in (cli, importlib.import_module("openwaring.decompose")):
            monkeypatch.setattr(module, "check_decomposition", counted)
        return seen

    ARGV = ["decompose", "-n", "3", "x0*x1^2 + x1*x2^2", "--format", "structured"]

    def test_decompose_checks_once(self, capsys, calls):
        code, out, _ = run_capture(capsys, self.ARGV)
        assert code == 0 and json.loads(out)["verified"] is True
        assert len(calls) == 1

    def test_absorb_checks_the_new_terms(self, capsys, calls):
        code, out, _ = run_capture(capsys, self.ARGV + ["--absorb"])
        assert code == 0 and json.loads(out)["verified"] is True
        assert len(calls) == 2
        assert calls[0][1].terms != calls[1][1].terms

    def test_verify_checks_once(self, tmp_path, capsys, calls):
        path = tmp_path / "dec.json"
        assert run_capture(capsys, self.ARGV + ["-o", str(path)])[0] == 0
        calls.clear()
        code, out, _ = run_capture(capsys, ["verify", str(path)])
        assert code == 0 and "verified: yes" in out
        assert len(calls) == 1


class TestOtherCommands:
    def test_bounds(self, capsys):
        code, out, _ = run_capture(capsys, ["bounds", "3", "3",
                                            "--format", "structured"])
        assert code == 0
        record = json.loads(out)
        assert record["bbs"] == 6 and record["improved"] == 5

    def test_bounds_human(self, capsys):
        code, out, _ = run_capture(capsys, ["bounds", "4", "3"])
        assert code == 0
        assert "9" in out

    def test_catalecticant(self, capsys):
        code, out, _ = run_capture(capsys, [
            "catalecticant", "-n", "3", "-e", "2", "x0^3 + x1^3 + x2^3",
            "--format", "structured"])
        assert code == 0
        assert json.loads(out)["rank"] == 3

    def test_apolar(self, capsys):
        code, out, _ = run_capture(capsys, [
            "apolar", "-n", "3", "-e", "2", "x0*x1^2 + x1*x2^2",
            "--format", "structured"])
        assert code == 0
        assert json.loads(out)["dimension"] == 3

    def test_essential(self, capsys):
        code, out, _ = run_capture(capsys, [
            "essential", "-n", "3", "x0^2 + 2*x0*x1 + x1^2",
            "--format", "structured"])
        assert code == 0
        assert json.loads(out)["essential_variables"] == 1

    #: the records of the split as the basis completion and inverse gave
    #: them: a square with a kernel vector that is no standard vector, a
    #: form in two of four variables, and an essential form
    ESSENTIAL_RECORDS = [
        ("3", "x0^2 + 2*x0*x1 + x1^2",
         {"command": "essential", "essential_variables": 1,
          "matrix": [["1/1", "-1/1", "0/1"], ["0/1", "1/1", "0/1"],
                     ["0/1", "0/1", "1/1"]],
          "restricted_form": "x0^2"}),
        ("4", "x0*x1",
         {"command": "essential", "essential_variables": 2,
          "matrix": [["1/1", "0/1", "0/1", "0/1"], ["0/1", "1/1", "0/1", "0/1"],
                     ["0/1", "0/1", "1/1", "0/1"], ["0/1", "0/1", "0/1", "1/1"]],
          "restricted_form": "x0*x1"}),
        ("3", "x0*x1^2 + x1*x2^2",
         {"command": "essential", "essential_variables": 3,
          "matrix": [["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"],
                     ["0/1", "0/1", "1/1"]],
          "restricted_form": "x0*x1^2 + x1*x2^2"}),
    ]

    @pytest.mark.parametrize("n, form, record", ESSENTIAL_RECORDS)
    def test_essential_record_is_unchanged(self, capsys, n, form, record):
        code, out, err = run_capture(capsys, [
            "essential", "-n", n, form, "--format", "structured"])
        assert (code, err) == (0, "")
        assert out == json.dumps(record, indent=2) + "\n"

    def test_base_points(self, capsys):
        code, out, _ = run_capture(capsys, [
            "base-points", "-n", "3", "-e", "2", "x0*x1^2 + x1*x2^2",
            "--format", "structured"])
        assert code == 0
        assert json.loads(out)["count"] == 1

    def test_base_points_of_plane_curves_beyond_conics_are_invalid(self, capsys):
        code, out, err = run_capture(capsys, [
            "base-points", "-n", "3", "-e", "3",
            "x0^4 + x1^4 + x2^4 + x0*x1*x2^2"])
        assert (code, out) == (2, "")
        assert err.strip() == ("error: base point detection is implemented "
                               "for n <= 2, and for n = 3 with e <= 2")

    #: each subcommand with an option it has no use for: only decompose
    #: avoids a forbidden set, and only decompose and base-points search
    #: at random
    UNREAD_OPTIONS = [
        [command, option] for command in ("catalecticant", "apolar", "essential")
        for option in ("--avoid", "--seed", "--max-retries")] + [
        ["base-points", "--avoid"]]

    @pytest.mark.parametrize("command, option", UNREAD_OPTIONS)
    def test_options_a_command_never_reads_are_refused(self, capsys, command,
                                                        option):
        argv = [command, "-n", "3", "x0*x1^2 + x1*x2^2", option, "1"]
        if command != "essential":
            argv += ["-e", "2"]
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err

    def test_bench_csv(self, capsys):
        code, out, _ = run_capture(capsys, [
            "bench", "--n-min", "3", "--n-max", "3", "--d-min", "3",
            "--d-max", "3", "--trials", "2", "--seed", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,d,trials,max_terms,mean_terms,bound,failures"
        n, d, trials, mx, mean, bound, failures = lines[1].split(",")
        assert (n, d, trials, bound) == ("3", "3", "2", "5")
        assert int(mx) <= 5 and int(failures) == 0

    def test_bench_deterministic(self, capsys):
        argv = ["bench", "--n-min", "3", "--n-max", "3", "--d-min", "3",
                "--d-max", "3", "--trials", "2", "--seed", "9"]
        _, out1, _ = run_capture(capsys, argv)
        _, out2, _ = run_capture(capsys, argv)
        assert out1 == out2

    def test_missing_file(self, capsys):
        code, _, err = run_capture(capsys, ["verify", "/nonexistent.json"])
        assert code == 2


class TestParserCache:
    def test_back_to_back_runs_match_fresh_parsers(self, tmp_path, capsys,
                                                   monkeypatch):
        record = tmp_path / "dec.json"
        argvs = [
            ["decompose", "-n", "2", "x0^3 - 2*x0*x1^2 + x1^3",
             "--format", "structured", "-o", str(record)],
            ["verify", str(record), "--format", "structured"],
            ["decompose", "-n", "2", "x0^3", "--precision", "many"],
            ["bounds", "3", "3"],
            ["bounds", "--help"],
        ]

        def outputs():
            got = []
            for argv in argvs:
                try:
                    code = run(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                got.append((code, captured.out, captured.err))
            return got

        assert cli.build_parser() is cli.build_parser()
        cached = outputs()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cli.build_parser() is not cli.build_parser()
        assert outputs() == cached
        assert [code for code, _, _ in cached] == [0, 0, 2, 0, 0]
        assert "invalid int value: 'many'" in cached[2][2]


class TestInternalErrors:
    def test_consistency_error_exits_four(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ConsistencyError("root residual exceeds the acceptance threshold")
        monkeypatch.setattr(cli, "decompose", broken)
        code, out, err = run_capture(capsys, [
            "decompose", "-n", "3", "x0*x1^2 + x1*x2^2"])
        assert code == cli.EXIT_INTERNAL_ERROR == 4
        assert out == ""
        assert "ConsistencyError" in err
        assert "root residual exceeds the acceptance threshold" in err

    def test_other_package_errors_exit_four(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise NoFitError("target is not in the span")
        monkeypatch.setattr(cli, "decompose", broken)
        code, _, err = run_capture(capsys, ["decompose", "-n", "2", "x0^3 + x1^3"])
        assert code == 4 and "NoFitError" in err

    def test_bench_counts_an_internal_error_and_finishes(self, capsys, monkeypatch):
        real = cli.decompose
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(kwargs["seed"])
            if len(calls) == 1:
                raise ConsistencyError("root residual exceeds the acceptance threshold")
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, "decompose", fails_once)
        code, out, _ = run_capture(capsys, [
            "bench", "--n-min", "2", "--n-max", "3", "--d-min", "3",
            "--d-max", "3", "--trials", "2", "--seed", "3"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [("2", "3"), ("3", "3")]
        assert [int(r[-1]) for r in rows] == [1, 0]
        assert len(calls) == 4


def run_in_subprocess(argv, timeout=60):
    """The CLI in a fresh interpreter, killed after ``timeout`` seconds, for
    inputs that could loop forever."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "openwaring.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=env)


class TestInputChecks:
    @pytest.mark.parametrize("grid", [
        ("2", "2", "1", "1"),   # a degree-1 form never has two essential variables
        ("1", "3", "1", "2"),
        ("0", "1", "2", "2"),
        ("2", "2", "0", "2"),
        ("-1", "2", "-2", "3"),
        ("3", "2", "3", "3"),   # empty grids
        ("3", "3", "4", "3"),
    ])
    def test_bench_rejects_grids_it_cannot_fill(self, grid):
        n_min, n_max, d_min, d_max = grid
        proc = run_in_subprocess([
            "bench", "--n-min", n_min, "--n-max", n_max, "--d-min", d_min,
            "--d-max", d_max, "--trials", "1"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: bench")

    def test_bench_accepts_linear_forms_in_one_variable(self):
        proc = run_in_subprocess([
            "bench", "--n-min", "1", "--n-max", "1", "--d-min", "1",
            "--d-max", "2", "--trials", "1"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1:] == ["1,1,1,1,1.00,1,0",
                                                "1,2,1,1,1.00,1,0"]

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_bench_rejects_trials_below_one(self, capsys, trials):
        code, out, err = run_capture(capsys, [
            "bench", "--n-min", "3", "--n-max", "3", "--d-min", "3",
            "--d-max", "3", "--trials", trials])
        assert (code, out) == (2, "")
        assert err.strip() == "error: trials must be at least 1"

    @pytest.mark.parametrize("command", [
        ["decompose", "-n", "3", "x0*x1^2 + x1*x2^2"],
        ["base-points", "-n", "3", "-e", "2", "x0*x1^2 + x1*x2^2"],
        ["bench", "--n-min", "3", "--n-max", "3", "--d-min", "3", "--d-max", "3",
         "--trials", "1"],
    ])
    @pytest.mark.parametrize("retries", ["0", "-3"])
    def test_max_retries_below_one_is_invalid_input(self, capsys, command, retries):
        code, out, err = run_capture(capsys, command + ["--max-retries", retries])
        assert code == 2
        assert out == ""
        assert err.strip() == "error: max-retries must be at least 1"

    @pytest.fixture
    def record(self, tmp_path, capsys):
        path = tmp_path / "dec.json"
        code, _, _ = run_capture(capsys, [
            "decompose", "-n", "2", "x0^3 + x1^3", "--format", "structured",
            "-o", str(path)])
        assert code == 0
        return path

    def verify(self, capsys, path, text):
        path.write_text(text)
        return run_capture(capsys, ["verify", str(path)])

    def test_verify_empty_record(self, capsys, record):
        code, out, err = self.verify(capsys, record, "{}")
        assert (code, out) == (2, "")
        assert err.strip() == "error: record has no 'precision_bits' field"

    def test_verify_non_json(self, capsys, record):
        code, out, err = self.verify(capsys, record, "terms: 2\n")
        assert (code, out) == (2, "")
        assert err.startswith("error: record is not valid JSON")

    def test_verify_non_object(self, capsys, record):
        code, _, err = self.verify(capsys, record, "[1, 2]")
        assert code == 2 and "JSON object" in err

    @pytest.mark.parametrize("bits", ["many", None, [256], "256", 256.9, 256.0,
                                      True])
    def test_verify_bad_precision(self, capsys, record, bits):
        data = json.loads(record.read_text())
        data["precision_bits"] = bits
        code, out, err = self.verify(capsys, record, json.dumps(data))
        assert (code, out) == (2, "")
        assert err.startswith("error: record field 'precision_bits' is malformed")

    @pytest.mark.parametrize("update, error", [
        ({"coords": None}, "KeyError"),
        ({"coeff_num": "1", "coeff_den": "0"}, "ZeroDivisionError"),
        ({"coords": ["1/0", "0/1"]}, "ZeroDivisionError"),
        ({"coords": [{"re": 1.5, "im": "0"}, "0/1"]},
         "TypeError: expected a JSON string, got 1.5"),
    ], ids=["missing-coords", "zero-coeff-den", "zero-coord-den",
            "numeric-coord"])
    def test_verify_bad_term(self, capsys, record, update, error):
        # a zero denominator is malformed input (exit 2), not a rejected
        # result (exit 1) or a traceback
        data = json.loads(record.read_text())
        term = data["terms"][0]
        term.update(update)
        if term["coords"] is None:
            del term["coords"]
        code, out, err = self.verify(capsys, record, json.dumps(data))
        assert (code, out) == (2, "")
        assert err.startswith(
            f"error: record field 'terms' is malformed ({error}")

    @pytest.mark.parametrize("field, value, kind", [
        ("num_vars", 2.0, "integer"), ("num_vars", False, "integer"),
        ("degree", 2.7, "integer"), ("degree", True, "integer"),
        ("exact", "false", "boolean"), ("exact", 0, "boolean"),
        ("exact", 1, "boolean"), ("exact", None, "boolean"),
    ])
    def test_verify_field_types(self, capsys, record, field, value, kind):
        # a float, a boolean or a string where the record holds an integer,
        # or anything but a boolean for "exact", is malformed (exit 2)
        data = json.loads(record.read_text())
        data[field] = value
        code, out, err = self.verify(capsys, record, json.dumps(data))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: record field {field!r} is malformed "
                              f"(TypeError: expected a JSON {kind}")

    def test_verify_missing_exact_flag(self, capsys, record):
        data = json.loads(record.read_text())
        del data["exact"]
        code, _, err = self.verify(capsys, record, json.dumps(data))
        assert code == 2 and "'exact'" in err
