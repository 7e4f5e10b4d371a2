"""CLI contract tests: exit codes, formats, determinism, JSON encoding."""

import json
import math
import os
import subprocess
import sys

import pytest

import hypersum
from hypersum.cli import _report_json, main
from hypersum.series import SeriesSpec, sum_series
from hypersum.verify import IdentityCase, sweep, verify_identity

from oracles import block_ends


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_json(value):
    """``value`` after a trip through JSON text, as the CLI writes it."""
    return json.loads(json.dumps(value))


def run_python(*argv):
    """Run the interpreter in a fresh process that imports this hypersum."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hypersum.__file__)))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


class TestEval:
    def test_huge_parameters(self, capsys):
        # 2F1(1/2, 1e10; 2e10; 1) = 1.41421356239961155310 (mpmath, 30 digits).
        code, out, _ = run(capsys, "eval", "0.5,1e10;2e10", "--format", "csv")
        assert code == 0
        value, _, error, status = out.splitlines()[1].split(",")
        assert status == "Converged"
        assert abs(float(value) - 1.4142135623996115531) <= float(error) <= 1e-12 * float(value)

    def test_gauss_series(self, capsys):
        code, out, _ = run(capsys, "eval", "0.5,0.25;1.25")
        assert code == 0
        assert "1.31102877715" in out
        assert "Converged" in out

    def test_terminating_series(self, capsys):
        code, out, _ = run(capsys, "eval", "-3,2;5")
        assert code == 0
        assert "Terminated" in out
        assert "0.285714285714" in out  # 2/7

    def test_nonpositive_integer_denominator(self, capsys):
        # Accepted when an upper -k with k <= m ends the series first.
        code, out, _ = run(capsys, "eval", "-2,0.5;-5")
        assert code == 0
        assert "1.2375" in out and "Terminated" in out
        code, out, err = run(capsys, "eval", "-3,0.5;-2")
        assert (code, out) == (1, "")
        assert err == "error: lower parameter -2.0 is a nonpositive integer\n"

    def test_divergent_series(self, capsys):
        code, out, _ = run(capsys, "eval", "1,1;1")
        assert code == 2
        assert out.startswith("divergent:")

    def test_term_overflow_is_not_called_divergent(self, capsys):
        # A p = q series always converges; here only its terms overflow.
        code, out, _ = run(capsys, "eval", "1e200;1e-200")
        assert code == 2
        assert out.startswith("not applicable:")
        assert "diverg" not in out.lower()
        code, out, _ = run(capsys, "eval", "1e200;1e-200", "--format", "json")
        assert code == 2
        assert json.loads(out)["summary"] == {
            "error": "series terms exceed binary64 range",
            "exit": 2,
        }

    def test_exponential_type_is_fine(self, capsys):
        # p = q input: the margin gate does not apply
        code, out, _ = run(capsys, "eval", "0.5;0.5")
        assert code == 0
        value = float(out.splitlines()[0].split()[1])
        assert value == pytest.approx(math.e, rel=1e-12)

    def test_parse_error_names_token(self, capsys):
        code, _, err = run(capsys, "eval", "0.5,oops;1.25")
        assert code == 1
        assert "oops" in err

    def test_missing_semicolon(self, capsys):
        code, _, err = run(capsys, "eval", "0.5,0.25")
        assert code == 1

    def test_bad_denominator(self, capsys):
        code, _, err = run(capsys, "eval", "0.5;-2")
        assert code == 1
        assert "nonpositive integer" in err

    def test_max_terms_reached_exits_2(self, capsys):
        # A budget of at most 2 _BLOCK_START terms leaves no block end
        # N_ref <= N/2 to stop on, and the term test needs far more terms.
        # The 1,000-term budget is the benchmark's eval.budget.csv call.
        budget = str(2 * next(block_ends()))
        for limits in (("--rel-tol", "1e-14", "--max-terms", budget), ("--max-terms", "1000")):
            code, out, _ = run(capsys, "eval", "0.5,0.25;1.25", *limits)
            assert code == 2
            assert "MaxTermsReached" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "eval", "-3,2;5", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "value,terms_used,error_estimate,status"
        assert row.endswith("Terminated")

    @pytest.mark.parametrize("spec, nums, dens, max_terms", [
        ("0.5,0.45;1.05", (0.5, 0.45), (1.05,), 10_000_000),
        ("0.5,0.25;1.25", (0.5, 0.25), (1.25,), 1000),
        ("-3,2;5", (-3.0, 2.0), (5.0,), 10_000_000),
        ("0.5;0.5", (0.5,), (0.5,), 10_000_000),
    ])
    def test_prints_error_estimate(self, capsys, spec, nums, dens, max_terms):
        want = sum_series(SeriesSpec(nums, dens), rel_tol=1e-10, max_terms=max_terms)
        argv = ("eval", spec, "--rel-tol", "1e-10", "--max-terms", str(max_terms))
        _, out, _ = run(capsys, *argv, "--format", "csv")
        assert out.splitlines()[1].split(",")[2] == format(want.error_estimate, ".17g")
        _, out, _ = run(capsys, *argv)
        assert f"error_estimate {want.error_estimate:.12g}" in out.splitlines()
        _, out, _ = run(capsys, *argv, "--format", "json")
        (row,) = json.loads(out)["results"]
        assert list(row) == ["value", "terms_used", "status", "error_estimate"]
        assert row["error_estimate"] == want.error_estimate

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "eval", "0.5,0.25;1.25", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "eval"
        assert doc["results"][0]["status"] == "Converged"
        assert 0.0 < doc["results"][0]["error_estimate"] <= 1e-10 * doc["results"][0]["value"]
        assert doc["inputs"]["numerators"] == [0.5, 0.25]


class TestVerify:
    def test_eq11_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "eq1.1")
        assert code == 0
        assert "passed         yes" in out

    def test_precondition_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "eq2.2",
            "--a", "0.4", "--b", "0.3", "--c", "1.0", "--pairs", "1.3:1",
        )
        assert code == 2
        assert "c-a-b>m violated" in out

    def test_overflow_exit_2_without_traceback(self):
        proc = run_python(
            "-m", "hypersum.cli", "verify", "--identity", "eq2.1",
            "--a", "-300", "--b", "1.7", "--c", "0.9", "--m", "2",
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "not applicable: gamma(301.0) exceeds binary64 range" in proc.stdout

    def test_huge_lower_parameter_verifies_without_traceback(self):
        # The tail's coefficients overflow at c = 1e200, but the terms vanish
        # after t_1, so the series sums to 1 like the closed form.
        proc = run_python(
            "-m", "hypersum.cli", "verify", "--identity", "eq2.2",
            "--a", "0.3", "--b", "0.2", "--c", "1e200", "--pairs", "1.3:1",
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert "passed         yes" in proc.stdout.splitlines()

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (("--identity", "eq2.1", "--a", "1", "--b", "-3", "--c", "0.9", "--m", "5"),
             "(1+b-a)_k vanishes for 1+b-a=-3.0, m=5"),
            (("--identity", "eq2.3", "--b", "1e160", "--c", "0.25"),
             "b + 1 rounds to b in binary64"),
            (("--identity", "eq2.6", "--p", "3", "--f", "1e17"),
             "f + 1 rounds to f in binary64"),
            (("--identity", "eq1.6", "--b", "1e300", "--mu", "1e-10"),
             "b/mu value is not finite in binary64 (inf)"),
        ],
    )
    def test_typed_not_applicable_without_traceback(self, argv, message):
        proc = run_python("-m", "hypersum.cli", "verify", *argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stdout == f"not applicable: {message}\n"

    @pytest.mark.parametrize(
        ("argv", "entry"),
        [
            (("eq2.1", "--a", "0.3", "--b", "1e308", "--c=-1e308", "--m", "2"), "contiguous_3f2"),
            (("eq2.2", "--a=-1e308", "--b", "0.3", "--c", "1e308", "--pairs", "1.3:1"),
             "karlsson_minton"),
        ],
    )
    def test_overflowing_argument_sums_not_applicable(self, capsys, argv, entry):
        code, out, _ = run(capsys, "verify", "--identity", *argv)
        assert code == 2
        assert out == f"not applicable: {entry} argument sums exceed binary64 range\n"

    def test_huge_lower_parameter_sweep_without_traceback(self):
        # At c = 1e17 the tail stays unresolved until the terms have fallen
        # to nothing.
        proc = run_python(
            "-m", "hypersum.cli", "sweep", "--identity", "eq2.2",
            "--a", "0.4", "--b", "0.3", "--c", "6,1e17", "--pairs", "1.3:1",
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines()[-1] == "passed=2 failed=0 not_applicable=0"

    def test_empty_int_value_is_usage_error(self):
        proc = run_python("-m", "hypersum.cli", "verify", "--identity", "eq2.5", "--p", "")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: not an integer: ''\n"

    @pytest.mark.parametrize(
        ("pair", "message"),
        [
            ("0:1", "pair parameter f=0.0 is a nonpositive integer"),
            ("1.3:0", "pair shift must be a positive integer, got 0"),
        ],
    )
    def test_invalid_pair_exit_2_without_traceback(self, pair, message):
        proc = run_python(
            "-m", "hypersum.cli", "verify", "--identity", "eq2.2",
            "--a", "0.4", "--b", "0.3", "--c", "6", "--pairs", pair,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stdout == f"not applicable: {message}\n"

    def test_unknown_identity_lists_valid_ids(self, capsys):
        code, _, err = run(capsys, "verify", "--identity", "eq9.9")
        assert code == 1
        assert "eq1.1" in err and "telescope" in err

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "verify", "--identity", "eq2.6", "--p", "3")
        assert code == 1
        assert "--f" in err

    def test_extraneous_parameter(self, capsys):
        code, _, err = run(capsys, "verify", "--identity", "eq1.1", "--p", "3")
        assert code == 1
        assert "does not apply" in err

    def test_absurd_tolerance_forces_failure(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "eq2.6", "--p", "3", "--f", "0.7",
            "--rel-tol", "1e-18",
        )
        assert code == 3
        assert "passed         NO" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "eq2.8",
            "--p", "4", "--f1", "0.3", "--f2", "2.2", "--format", "json",
        )
        assert code == 0
        (item,) = json.loads(out)["results"]
        assert item["passed"] is True
        assert item["parameters"] == {"p": 4, "f1": 0.3, "f2": 2.2}
        assert set(item["summation"]) == {"value", "terms_used", "status", "error_estimate"}
        # Equal to the in-process encoding, error_estimate included.
        report = verify_identity(IdentityCase("eq2.8", {"p": 4, "f1": 0.3, "f2": 2.2}))
        assert item == as_json(_report_json(report))


class TestSweep:
    def test_grid_rows_and_exit(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--identity", "eq2.8",
            "--p", "3,4,5", "--f1", "0.3,1.1", "--f2", "2.2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7  # 6 rows + summary
        assert lines[-1] == "passed=6 failed=0 not_applicable=0"

    def test_degenerate_rows_are_na(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--identity", "eq2.1",
            "--m", "1,2", "--a", "0.3", "--b", "1.7", "--c", "1.7",
        )
        assert code == 0
        assert "not_applicable=2" in out
        assert "n/a" in out

    def test_overflow_point_is_one_na_row(self, capsys):
        code, out, _ = run(capsys, "sweep", "--identity", "eq2.5", "--p", "1,200")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p=1 ") and lines[0].endswith(" pass")
        assert lines[1].startswith("p=200 ") and "n/a: 200! exceeds" in lines[1]
        assert lines[2] == "passed=1 failed=0 not_applicable=1"

    def test_empty_value_list(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--identity", "eq2.8",
            "--p", "", "--f1", "0.3", "--f2", "2.2",
        )
        assert code == 1

    @pytest.mark.parametrize("p", ["1,,2", "1,", " , "])
    def test_empty_int_token_is_usage_error(self, capsys, p):
        # as an empty float token already is
        code, out, err = run(capsys, "sweep", "--identity", "eq2.5", "--p", p)
        assert (code, out) == (1, "")
        assert err == "error: not an integer: ''\n"

    def test_invalid_pair_is_one_na_row(self):
        proc = run_python(
            "-m", "hypersum.cli", "sweep", "--identity", "eq2.2",
            "--a", "0.4", "--b", "0.3", "--c", "6", "--pairs", "1.3:0",
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        row, summary = proc.stdout.splitlines()
        assert row.startswith("a=0.4 b=0.3 c=6 pairs=1.3:0 ")
        assert row.endswith(" n/a: pair shift must be a positive integer, got 0")
        assert summary == "passed=0 failed=0 not_applicable=1"

    def test_invalid_pair_row_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--identity", "eq2.2", "--a", "0.4", "--b", "0.3",
            "--c", "6", "--pairs", "1.3:1,0:2", "--format", "json",
        )
        assert code == 0
        (item,) = json.loads(out)["results"]
        assert item["passed"] is None
        assert item["parameters"]["pairs"] == [[1.3, 1], [0.0, 2]]
        assert item["summation"] is None
        # The CLI parses each f:m token into a plain (f, m) pair.
        (report,) = sweep(
            "eq2.2", {"a": [0.4], "b": [0.3], "c": [6.0], "pairs": [((1.3, 1), (0.0, 2))]}
        )
        assert item == as_json(_report_json(report))

    def test_csv_deterministic(self, capsys):
        argv = (
            "sweep", "--identity", "eq2.6", "--p", "2,3", "--f", "0.5,1.5",
            "--format", "csv",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0].startswith("identity,parameters,lhs")

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--identity", "eq2.2",
            "--a", "0.4", "--b", "0.3", "--c", "6.0,1.0", "--pairs", "1.3:1,2.1:2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["not_applicable"] == 1
        results = doc["results"]
        assert [item["passed"] for item in results] == [True, None]
        for item in results:
            assert item["parameters"]["pairs"] == [[1.3, 1], [2.1, 2]]
        assert [item["summation"] is None for item in results] == [False, True]
        # The CLI parses each f:m token into a plain (f, m) pair.
        reports = sweep(
            "eq2.2",
            {"a": [0.4], "b": [0.3], "c": [6.0, 1.0], "pairs": [((1.3, 1), (2.1, 2))]},
        )
        assert results == as_json([_report_json(r) for r in reports])

    def test_forced_failure_exit_3(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--identity", "eq2.6", "--p", "2,3", "--f", "0.5",
            "--rel-tol", "1e-18",
        )
        assert code == 3
        assert "failed=2" in out


class TestTable:
    def test_human_passes(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        for label in ("eq1.1", "eq1.2", "eq1.3", "S_1", "S_2", "S_3"):
            assert label in out

    def test_csv_contract(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "identity,symbolic,closed,direct,rel_err"
        assert len(lines) == 7
        s1 = next(line for line in lines if line.startswith("S_1,"))
        closed = float(s1.split(",")[2])
        assert closed == pytest.approx(4.0 / math.pi, rel=1e-13, abs=0)

    def test_forced_failure_exit_3(self, capsys):
        code, out, _ = run(capsys, "table", "--rel-tol", "1e-18")
        assert code == 3
        assert "FAIL" in out

    def test_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "table", "--format", "json")
        code2, out2, _ = run(capsys, "table", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["summary"]["failed"] == 0
        rel_errs = [row["rel_err"] for row in doc["results"]]
        assert all(err <= 1e-10 for err in rel_errs)


# (argv, exit code, whether the call takes the n/a path that has no results)
_JSON_CALLS = [
    (("eval", "0.5,0.25;1.25"), 0, False),
    (("eval", "0.5,0.25;1.25", "--max-terms", "1000"), 2, False),
    (("eval", "1,1;1"), 2, True),
    (("eval", "1e200;1e-200"), 2, True),
    (("verify", "--identity", "eq2.6", "--p", "3", "--f", "0.7"), 0, False),
    (("verify", "--identity", "eq2.6", "--p", "3", "--f", "0.7", "--rel-tol", "1e-18"), 3, False),
    (("verify", "--identity", "eq2.7", "--p", "2", "--f", "0.5"), 2, True),
    (("verify", "--identity", "eq2.2", "--a", "0.4", "--b", "0.3", "--c", "6",
      "--pairs", "0:1"), 2, True),
    (("sweep", "--identity", "eq2.6", "--p", "1,2", "--f", "0.5"), 0, False),
    (("sweep", "--identity", "eq2.6", "--p", "2", "--f", "0.5", "--rel-tol", "1e-18"),
     3, False),
    (("table",), 0, False),
    (("table", "--rel-tol", "1e-18"), 3, False),
]


class TestJsonDocument:
    @pytest.mark.parametrize(
        ("argv", "exit_code", "na"), _JSON_CALLS, ids=[" ".join(c[0]) for c in _JSON_CALLS]
    )
    def test_document_contract(self, capsys, argv, exit_code, na):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert err == ""
        doc = json.loads(out)
        assert list(doc) == ["command", "inputs", "results", "summary"]
        assert doc["command"] == argv[0]
        assert list(doc["inputs"])[-2:] == ["rel_tol", "max_terms"]
        assert code == exit_code == doc["summary"]["exit"]
        assert (doc["results"] == []) == na


class TestUsage:
    def test_import_skips_numpy_and_fractions(self):
        # Calls that never sum, such as usage errors, skip numpy's import, and
        # so do the sums of the benchmark's calls: their blocks are built in
        # plain floats.  Once _PLAIN_BUDGET is spent the next sum loads numpy,
        # so the test cannot pass vacuously.  One process runs the calls in turn.
        calls = [
            [],
            ["eval", "-3,2;5"],
            ["verify", "--identity", "eq2.1", "--a", "-3", "--b", "1.7", "--c", "0.9",
             "--m", "2"],
            ["eval", "0.5,0.25;1.25"],
            ["verify", "--identity", "eq1.3"],
            ["table"],
            ["sweep", "--identity", "eq2.7", "--p", "2,4,6", "--f", "0.7"],
            None,
            ["eval", "0.5,0.25;1.25"],
        ]
        proc = run_python(
            "-c",
            "import contextlib, io, sys, hypersum.cli\n"
            f"for argv in {calls!r}:\n"
            "    if argv is None:\n"
            "        hypersum.series._PLAIN_BUDGET = 0\n"
            "        continue\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = argv and hypersum.cli.main(argv)\n"
            "    print(code, sorted({'numpy', 'fractions'} & set(sys.modules)))\n",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[] []", *["0 []"] * 6, "0 ['numpy']"]

    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_bad_max_terms(self, capsys):
        code, _, err = run(capsys, "eval", "0.5;1.5", "--max-terms", "0")
        assert code == 1

    def test_bad_rel_tol(self, capsys):
        code, _, err = run(capsys, "table", "--rel-tol", "-1")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("eval", "0.5,0.25;1.25"), ("verify", "--identity", "eq1.3"),
        ("sweep", "--identity", "eq1.1"), ("table",),
    ], ids=["eval", "verify", "sweep", "table"])
    def test_infinite_rel_tol(self, capsys, argv):
        # A tolerance of inf would stop every sum at once and pass every point.
        code, out, err = run(capsys, *argv, "--rel-tol", "inf")
        assert (code, out, err) == (1, "", "error: rel_tol must be finite, got inf\n")

    def test_non_finite_eval_parameter(self, capsys):
        code, out, err = run(capsys, "eval", "nan;1")
        assert (code, out) == (1, "")
        assert "not a finite number: 'nan'" in err

    def test_pair_without_shift(self, capsys):
        code, out, err = run(capsys, "verify", "--identity", "eq2.2", "--a", "0.4", "--b", "0.3",
                             "--c", "6", "--pairs", "1.3")
        assert (code, out) == (1, "")
        assert "pair must look like f:m" in err
